"""Watermarked disorder tolerance and retraction/update deltas.

The engines (:mod:`repro.engines`) assume a timestamp-ordered stream:
their stores and buffers bisect on arrival numbers, and negation checks
become exact precisely because "the past" is closed.  Real feeds break
the assumption in two ways — events arrive *out of order*, and sources
issue *corrections* (retract or update an event already delivered).
This module restores the ordered-stream contract on top of both:

``DisorderBuffer``
    A reordering buffer bounded by ``max_delay``.  Arrivals are held in
    a min-heap keyed ``(timestamp, arrival)`` and released, in
    timestamp order, once the **watermark** (``max_seen_ts −
    max_delay``) passes them.  An event older than the watermark is
    *late*; the ``late_policy`` decides its fate: ``"strict"`` raises
    :class:`~repro.events.StreamOrderError`, ``"drop"`` counts it in
    ``events_late_dropped`` and skips it, ``"revise"`` hands it back to
    the caller for re-derivation (only :class:`DeltaEngine` implements
    that).  With ``max_delay=0`` the buffer degenerates to a
    pass-through: arrivals are released at once and nothing is held.

``DeltaEngine``
    Wraps an engine built by a zero-argument factory and keeps its
    *net* match set consistent with the **corrected stream**: the
    timestamp-ordered log of every admitted event after all deltas.
    Plain events flow through the buffer into the engine.  Deltas —
    :class:`Retraction`, :class:`Update`, and late events under
    ``"revise"`` — produce typed outputs: a :class:`MatchRetraction`
    for every previously-reported match the correction invalidates, a
    :class:`MatchRevision` for every match it creates.

    Two correction paths, chosen per delta:

    * **incremental** — retracting an event whose type no negation spec
      forbids can only *remove* matches under skip-till-any-match, so
      the engine state is surgically purged in place
      (:meth:`~repro.engines.base.BaseEngine.retract_seq`) and the
      reported matches binding the event are retracted;
    * **bounded re-derivation** — retractions of negation-relevant
      events (which may *resurrect* suppressed matches), payload
      updates, and late insertions replay a slice of the corrected log
      through a scratch engine and diff what it derives against what
      was reported.  With ``W`` the engine's largest pattern window, a
      correction at stream time ``t`` only touches matches that bind
      the event or hold ``t`` in a negation range (``[max_ts − W,
      min_ts + W]``): they lie in ``[t − W, t + W]`` and are decided by
      events in ``[t − 2W, t + 2W]``.  The slice is ``[t − 3W, t + 3W]``
      (the spare ``W`` keeps scratch-start artefacts and float rounding
      out of the compared zone) and only matches binding an event in
      ``[t − W, t + W]`` are diffed.  The scratch engine becomes the
      live one only when the slice runs to the end of the log;
      otherwise the live engine, all of whose state is younger than the
      slice, is left alone.  Retired engines' metrics are folded in, so
      replay work stays visible in ``events_processed`` as honest
      correction cost — a function of the window, not of the stream.

    Deltas address events by a stable **uid** — the order in which the
    caller handed them to :meth:`DeltaEngine.process` — and reported
    matches are keyed by uid sets.  Engine sequence numbers follow the
    log order and stay put; only a late insertion renumbers the log,
    from its position on.

Identity across runs is checked with seq-free canonical fingerprints
(:func:`match_fingerprint`): the net match multiset of a disordered,
corrected run must be byte-identical to a clean run over the corrected
stream (see ``tests/test_disorder.py``).

Only skip-till-any-match workloads are supported: under the consuming
strategies (next/contiguity) an event's *absence* changes which later
events other matches consume, so no incremental path is sound and the
wrapper refuses rather than silently replaying everything.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple, Union

from ..engines.metrics import EngineMetrics
from ..engines.snapshot import replay
from ..errors import ReproError
from ..events import Event, StreamOrderError

LATE_POLICIES = ("strict", "drop", "revise")


class DisorderError(ReproError):
    """Invalid disorder configuration or delta (unknown uid, finalized)."""


# ---------------------------------------------------------------------------
# Delta and output records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Retraction:
    """Delete the event with uid ``seq`` from the stream — its zero-based
    position among the events handed to :meth:`DeltaEngine.process`,
    not an engine arrival number (reordering reassigns those)."""

    seq: int


@dataclass(frozen=True)
class Update:
    """Replace the payload of the event with uid ``seq``.

    The event keeps its type and timestamp; only the attribute mapping
    changes.  Updates always re-derive over the window around the
    event: a changed payload can flip predicates in both directions.
    """

    seq: int
    payload: Mapping[str, Any]


@dataclass(frozen=True)
class MatchRetraction:
    """A previously-reported match invalidated by a correction.

    ``fingerprint`` is the seq-free canonical form of the retracted
    match (:func:`match_fingerprint`); consumers that keyed reported
    matches by fingerprint can cancel the exact instance.  ``cause`` is
    the delta kind that killed it: ``"retraction"``, ``"update"`` or
    ``"late-event"``.
    """

    fingerprint: str
    pattern_name: Optional[str]
    cause: str
    uid_key: Tuple


@dataclass(frozen=True)
class MatchRevision:
    """A match newly derived by a correction (same ``cause`` values)."""

    match: Any
    cause: str
    uid_key: Tuple


# ---------------------------------------------------------------------------
# Canonical, seq-free match identity
# ---------------------------------------------------------------------------

def _event_fingerprint(event: Event) -> Tuple:
    attrs = tuple(sorted((k, repr(v)) for k, v in event.attributes.items()))
    return (event.type, repr(event.timestamp), attrs)


def match_fingerprint(match) -> str:
    """Canonical identity of a match, independent of arrival numbers.

    Late insertions renumber sequence numbers, so ``Match.key()``
    (seq-based) is unstable across corrections.  This fingerprint — pattern name plus,
    per variable, the bound events' ``(type, timestamp, sorted attrs)``
    with Kleene tuples expanded — survives restamping and is what the
    equivalence suites compare across ordered and disordered runs.
    ``repr`` keeps NaN and other non-self-equal values stable.
    """
    parts = []
    for var in sorted(match.bindings):
        value = match.bindings[var]
        events = value if isinstance(value, tuple) else (value,)
        parts.append((var, tuple(_event_fingerprint(e) for e in events)))
    return repr((match.pattern_name, tuple(parts)))


def net_matches(outputs) -> List:
    """Fold a delta output stream into the surviving matches.

    ``outputs`` is what :class:`DeltaEngine` produced over a run: plain
    matches, :class:`MatchRevision` additions and
    :class:`MatchRetraction` cancellations.  Each retraction removes
    one prior instance with the same fingerprint (multiset semantics).
    """
    live: List[Tuple[str, Any]] = []
    for item in outputs:
        if isinstance(item, MatchRetraction):
            for i in range(len(live) - 1, -1, -1):
                if live[i][0] == item.fingerprint:
                    del live[i]
                    break
        elif isinstance(item, MatchRevision):
            live.append((match_fingerprint(item.match), item.match))
        else:
            live.append((match_fingerprint(item), item))
    return [match for _, match in live]


def net_fingerprints(outputs) -> List[str]:
    """Sorted fingerprint multiset of the net matches of ``outputs``.

    Accepts either a delta output stream or a plain list of matches, so
    a corrected disordered run compares byte-identical against a clean
    rerun: ``net_fingerprints(delta_out) == net_fingerprints(matches)``.
    """
    return sorted(match_fingerprint(m) for m in net_matches(outputs))


# ---------------------------------------------------------------------------
# DisorderBuffer
# ---------------------------------------------------------------------------

class OfferResult(NamedTuple):
    """Outcome of one :meth:`DisorderBuffer.offer`.

    ``released`` are the items the advancing watermark freed, in
    timestamp order (ties by arrival).  ``late`` is the offered item
    when it fell behind the watermark (``None`` otherwise); ``dropped``
    tells whether the ``"drop"`` policy discarded it, as opposed to
    ``"revise"`` returning it for the caller to re-derive.
    """

    released: List
    late: Optional[Any]
    dropped: bool


class DisorderBuffer:
    """Bounded reordering buffer with a watermark.

    Items are opaque (the ingestor buffers events, the delta engine
    buffers uids); only the offered timestamp matters.  Counters land
    in the supplied :class:`~repro.engines.metrics.EngineMetrics`:
    ``events_reordered`` for in-bound arrivals behind the frontier,
    ``events_late_dropped`` under the ``"drop"`` policy, and every
    arrival records ``max(0, max_seen_ts − ts)`` into the
    ``watermark_lag`` histogram.
    """

    def __init__(
        self,
        max_delay: float,
        *,
        late_policy: str = "strict",
        metrics: Optional[EngineMetrics] = None,
    ) -> None:
        if max_delay < 0:
            raise DisorderError(f"max_delay must be >= 0, got {max_delay!r}")
        if late_policy not in LATE_POLICIES:
            raise DisorderError(
                f"late_policy must be one of {LATE_POLICIES}, got {late_policy!r}"
            )
        self.max_delay = float(max_delay)
        self.late_policy = late_policy
        self.metrics = metrics if metrics is not None else EngineMetrics()
        self._heap: List[Tuple[float, int, Any]] = []
        #: Held (hashable) items with multiplicity.  ``discard`` uncounts
        #: one; its heap entry stays as a tombstone, skipped at release.
        self._live: Dict[Any, int] = {}
        self._dead = 0
        self._counter = 0
        self._max_ts: Optional[float] = None

    @property
    def watermark(self) -> float:
        """``max_seen_ts − max_delay``; ``-inf`` before the first event."""
        if self._max_ts is None:
            return float("-inf")
        return self._max_ts - self.max_delay

    def __len__(self) -> int:
        return len(self._heap) - self._dead

    def __contains__(self, item: Any) -> bool:
        return item in self._live

    def offer(self, ts: float, item: Any) -> OfferResult:
        """Admit one arrival; return what the new watermark releases."""
        ts = float(ts)
        lag = 0.0 if self._max_ts is None else max(0.0, self._max_ts - ts)
        self.metrics.watermark_lag.record(lag)
        if self._max_ts is not None and ts < self.watermark:
            if self.late_policy == "strict":
                raise StreamOrderError(
                    f"event at t={ts:g} arrives before the watermark "
                    f"{self.watermark:g} — beyond the disorder bound "
                    f"(max_delay={self.max_delay:g})"
                )
            if self.late_policy == "drop":
                self.metrics.events_late_dropped += 1
                return OfferResult([], item, True)
            return OfferResult([], item, False)
        if self._max_ts is not None and ts < self._max_ts:
            self.metrics.events_reordered += 1
        if self._max_ts is None or ts > self._max_ts:
            self._max_ts = ts
        if not self.max_delay:  # pass-through: released at once, never held
            return OfferResult([item], None, False)
        heapq.heappush(self._heap, (ts, self._counter, item))
        self._live[item] = self._live.get(item, 0) + 1
        self._counter += 1
        return OfferResult(self._release(self.watermark), None, False)

    def _release(self, bound: float) -> List:
        released: List = []
        heap = self._heap
        while heap and heap[0][0] <= bound:
            item = heapq.heappop(heap)[2]
            if self._forget(item):
                released.append(item)
            else:
                self._dead -= 1
        return released

    def _forget(self, item: Any) -> bool:
        held = self._live.pop(item, 0)
        if held > 1:
            self._live[item] = held - 1
        return held > 0

    def flush(self) -> List:
        """Release everything still held, in timestamp order (stream end)."""
        return self._release(float("inf"))

    def discard(self, item: Any) -> bool:
        """Remove a still-buffered item (retraction before release)."""
        found = self._forget(item)
        self._dead += found
        return found


# ---------------------------------------------------------------------------
# DeltaEngine
# ---------------------------------------------------------------------------

class DeltaEngine:
    """Engine wrapper that keeps matches consistent with a corrected stream.

    Parameters
    ----------
    build_fn:
        Zero-argument factory returning a fresh engine (anything with
        the :class:`~repro.engines.base.BaseEngine` surface:
        ``process`` / ``finalize`` / ``retract_seq`` / ``window`` /
        ``negation_event_types`` / ``selection`` / ``metrics``) — a
        tree, NFA, disjunction or multi-query runtime.  Must be
        skip-till-any-match.
    max_delay:
        Disorder bound forwarded to the internal :class:`DisorderBuffer`.
    late_policy:
        ``"strict"``, ``"drop"`` or ``"revise"`` (see module docstring).

    ``process`` accepts :class:`~repro.events.Event`,
    :class:`Retraction` and :class:`Update` items and returns a list of
    outputs: plain matches plus :class:`MatchRetraction` /
    :class:`MatchRevision` deltas.  Deltas address events by **uid** —
    the zero-based order in which events were handed to ``process``.
    """

    def __init__(
        self,
        build_fn: Callable[[], Any],
        *,
        max_delay: float = 0.0,
        late_policy: str = "drop",
    ) -> None:
        self._build_fn = build_fn
        self._engine = self._fresh_engine()
        self._window = float(self._engine.window)  # same every generation
        self._negated = self._engine.negation_event_types()
        self._extra = EngineMetrics()
        self._buffer = DisorderBuffer(
            max_delay, late_policy=late_policy, metrics=self._extra
        )
        #: The corrected stream, sorted: ties arrive in uid order, and a
        #: late insertion (newest uid) lands after its equals.
        self._log: List[Tuple[float, int]] = []  # (timestamp, uid)
        self._event_by_uid: Dict[int, Event] = {}  # seq-stamped once admitted
        self._uid_by_seq: Dict[int, int] = {}
        self._emitted: Dict[Tuple, Tuple[int, Any]] = {}  # key -> (ordinal, match)
        #: uid -> keys of matches binding it; retracted ones linger and
        #: are filtered on lookup.
        self._keys_by_uid: Dict[int, List[Tuple]] = {}
        self._retired = EngineMetrics()
        self._reports = 0
        self._next_uid = 0
        self._next_seq = 0
        self._finalized = False

    def _fresh_engine(self):
        engine = self._build_fn()
        selection = getattr(engine, "selection", None)
        if selection != "any":
            raise DisorderError(
                "DeltaEngine requires a skip-till-any-match engine: "
                "under consuming selection strategies a correction "
                f"changes what later matches consume (got {selection!r})"
            )
        return engine

    # -- properties ----------------------------------------------------------
    @property
    def watermark(self) -> float:
        return self._buffer.watermark

    @property
    def matches(self) -> List:
        """The net (currently valid) reported matches."""
        return [match for _, match in self._emitted.values()]

    def net_fingerprints(self) -> List[str]:
        """Sorted canonical fingerprints of the net match set."""
        return sorted(match_fingerprint(m) for _, m in self._emitted.values())

    @property
    def metrics(self) -> EngineMetrics:
        """Live ⊕ retired-generation ⊕ disorder-layer metrics.

        Sequential-generation rule (peaks max, event counts add): replay
        work shows up in ``events_processed`` as honest correction cost.
        """
        return self._retired.merge(
            self._engine.metrics, concurrent=False
        ).merge(self._extra, concurrent=False)

    def _retire(self, engine) -> None:
        self._retired = self._retired.merge(engine.metrics, concurrent=False)

    # -- ingestion -----------------------------------------------------------
    def process(self, item: Union[Event, Retraction, Update]) -> List:
        """Apply one stream item — event or delta — and return outputs."""
        self._require_live()
        if isinstance(item, Retraction):
            return self._retract(item.seq)
        if isinstance(item, Update):
            return self._update(item.seq, item.payload)
        return self._ingest(item)

    def process_batch(self, items) -> List:
        out: List = []
        for item in items:
            out.extend(self.process(item))
        return out

    def run(self, items) -> List:
        """Process every item, finalize, and return the full output list."""
        out = self.process_batch(items)
        out.extend(self.finalize())
        return out

    def finalize(self) -> List:
        """Flush the reorder buffer, finalize the engine, seal the wrapper."""
        self._require_live()
        out: List = []
        for uid in self._buffer.flush():
            out.extend(self._admit(uid))
        out.extend(self._emit(self._engine.finalize()))
        self._finalized = True
        return out

    def _require_live(self) -> None:
        if self._finalized:
            raise DisorderError("DeltaEngine is finalized")

    def _ingest(self, event: Event) -> List:
        # Offer before allocating: under late_policy="strict" the buffer
        # raises, and a uid stored first would leak into _event_by_uid —
        # addressable by a later Retraction yet in neither the log nor
        # the buffer.  A rejected event never consumes a uid.
        uid = self._next_uid
        result = self._buffer.offer(event.timestamp, uid)
        self._next_uid += 1
        self._event_by_uid[uid] = event
        out: List = []
        if result.late is not None:
            if result.dropped:
                del self._event_by_uid[uid]
            else:
                out.extend(self._insert_late(uid))
        for released in result.released:
            out.extend(self._admit(released))
        return out

    def _stamp(self, uid: int, seq: int) -> Event:
        event = self._event_by_uid[uid] = self._event_by_uid[uid].with_seq(seq)
        self._uid_by_seq[seq] = uid
        return event

    def _admit(self, uid: int) -> List:
        event = self._stamp(uid, self._next_seq)
        self._next_seq += 1
        self._log.append((event.timestamp, uid))
        return self._emit(self._engine.process(event))

    def _emit(self, matches) -> List:
        out: List = []
        for match in matches:
            key = self._uid_key(match)
            if key not in self._emitted:
                self._report(key, match)
                out.append(match)
        return out

    def _report(self, key: Tuple, match) -> None:
        self._emitted[key] = (self._reports, match)
        self._reports += 1
        for _, uids in key[1]:
            for uid in uids:
                self._keys_by_uid.setdefault(uid, []).append(key)

    def _reported(self, uids) -> List[Tuple]:
        """Keys of reported matches binding any of ``uids``, report order."""
        keys = {
            key
            for uid in uids
            for key in self._keys_by_uid.get(uid, ())
            if key in self._emitted
        }
        return sorted(keys, key=self._emitted.__getitem__)

    def _unreport(self, key: Tuple, cause: str) -> MatchRetraction:
        match = self._emitted.pop(key)[1]
        self._extra.matches_retracted += 1
        return MatchRetraction(match_fingerprint(match), match.pattern_name, cause, key)

    def _uid_key(self, match) -> Tuple:
        parts = []
        for var in sorted(match.bindings):
            value = match.bindings[var]
            events = value if isinstance(value, tuple) else (value,)
            parts.append(
                (var, tuple(self._uid_by_seq[e.seq] for e in events))
            )
        return (match.pattern_name, tuple(parts))

    @staticmethod
    def _binds(key: Tuple, uids) -> bool:
        return any(uid in uids for _, bound in key[1] for uid in bound)

    # -- deltas --------------------------------------------------------------
    def _retract(self, uid: int) -> List:
        if uid not in self._event_by_uid:
            raise DisorderError(f"unknown or already-retracted event uid {uid}")
        event = self._event_by_uid.pop(uid)
        if self._buffer.discard(uid):
            self._extra.retractions_processed += 1
            return []
        at = bisect_left(self._log, (event.timestamp, uid))
        if self._log[at:at + 1] != [(event.timestamp, uid)]:
            # Defensive: a tracked uid is buffered (handled above) or in
            # the log; never delete a neighbour in its place.
            raise DisorderError(f"unknown or never-admitted event uid {uid}")
        del self._log[at]
        del self._uid_by_seq[event.seq]
        if event.type in self._negated:
            # Removal may *resurrect* matches this event suppressed —
            # only re-deriving the window around it finds those.
            self._extra.retractions_processed += 1
            return self._rederive(event.timestamp, uid, "retraction")
        self._engine.retract_seq(event.seq)  # counts retractions_processed
        out = [self._unreport(key, "retraction") for key in self._reported((uid,))]
        self._keys_by_uid.pop(uid, None)
        return out

    def _update(self, uid: int, payload: Mapping[str, Any]) -> List:
        if uid not in self._event_by_uid:
            raise DisorderError(f"unknown or already-retracted event uid {uid}")
        self._extra.retractions_processed += 1
        old = self._event_by_uid[uid]
        self._event_by_uid[uid] = Event(
            old.type, old.timestamp, payload, seq=old.seq, partition=old.partition
        )
        if uid in self._buffer:
            return []  # not yet fed anywhere; the new payload is admitted later
        return self._rederive(old.timestamp, uid, "update")

    def _insert_late(self, uid: int) -> List:
        entry = (self._event_by_uid[uid].timestamp, uid)
        at = bisect_left(self._log, entry)
        # The newcomer takes the sequence number of the entry it
        # displaces; only the log from there on is renumbered.
        after = self._log[at:at + 1]
        seq = self._event_by_uid[after[0][1]].seq if after else self._next_seq
        self._log.insert(at, entry)
        for seq, (_, moved) in enumerate(self._log[at:], seq):
            self._stamp(moved, seq)
        self._next_seq = seq + 1
        return self._rederive(entry[0], uid, "late-event", renumbered=True)

    def _slice(self, lo: float, hi: float) -> List[int]:
        """Uids of the log entries with ``lo <= timestamp <= hi``."""
        log = self._log
        first = bisect_left(log, (lo,))
        return [uid for _, uid in log[first:bisect_right(log, (hi, float("inf")))]]

    def _replayed(self, lo: float, hi: float) -> Tuple[Any, List]:
        """A fresh engine fed that slice, and the matches it derived."""
        engine = self._fresh_engine()
        events = map(self._event_by_uid.__getitem__, self._slice(lo, hi))
        return engine, replay(engine, events)

    def _rederive(
        self, ts: float, uid: int, cause: str, renumbered: bool = False
    ) -> List:
        """Diff what a correction to event ``uid`` at stream time ``ts``
        can touch against a scratch re-derivation (module docstring)."""
        reach = 3 * self._window
        last = self._log[-1][0] if self._log else ts
        # A retracted tail event leaves `last` behind `ts`: start early
        # enough that the scratch engine is a sound replacement.
        scratch, derived = self._replayed(min(ts, last) - reach, ts + reach)
        if last <= ts + reach:  # the slice runs to the end of the log
            self._retire(self._engine)
            self._engine = scratch
        else:
            # Closed slice: nothing after it reaches the compared zone.
            derived.extend(scratch.finalize())
            self._retire(scratch)
            if renumbered:
                # The live engine holds pre-insertion sequence numbers;
                # rebuild it from the log's last windows.
                self._retire(self._engine)
                self._engine, _ = self._replayed(last - reach, last)
        zone = {uid, *self._slice(ts - self._window, ts + self._window)}
        new: Dict[Tuple, Any] = {}
        for match in derived:
            key = self._uid_key(match)
            if self._binds(key, zone):
                new.setdefault(key, match)
        out: List = [
            self._unreport(key, cause)
            for key in self._reported(zone)
            # Gone, or kept by uid but revised in content (only an
            # Update changes a payload without changing the uid set).
            if key not in new
            or self._binds(key, (uid,))
            and match_fingerprint(self._emitted[key][1])
            != match_fingerprint(new[key])
        ]
        for key, match in new.items():
            if key not in self._emitted:
                self._report(key, match)
                out.append(MatchRevision(match, cause, key))
        return out
