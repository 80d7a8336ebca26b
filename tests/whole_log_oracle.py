"""Test-only oracle: whole-log replay-swap corrections.

This is the ``DeltaEngine`` the repo shipped before corrections became
window-bounded, kept verbatim as a reference implementation: every
``Update``, late ``revise`` arrival and negation-relevant ``Retraction``
feeds the **entire** corrected log through a fresh engine (arrival
numbers restamped to the log order) and diffs the old and new emitted
sets.  It is O(stream) per delta and obviously right, which is the
point — ``tests/test_disorder.py`` asserts the bounded re-derivation in
:mod:`repro.streams.disorder` emits the same delta records, delta by
delta.  Not importable from ``src/``; never use it outside tests.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.engines.metrics import EngineMetrics
from repro.events import Event
from repro.streams.disorder import (
    DisorderBuffer,
    DisorderError,
    MatchRetraction,
    MatchRevision,
    Retraction,
    Update,
    match_fingerprint,
)


class WholeLogDeltaEngine:
    """:class:`repro.DeltaEngine` as it stood before corrections became
    window-bounded: same surface, same delta records."""

    def __init__(
        self,
        build_fn: Callable[[], Any],
        *,
        max_delay: float = 0.0,
        late_policy: str = "drop",
    ) -> None:
        self._build_fn = build_fn
        self._engine = self._fresh_engine()
        self._extra = EngineMetrics()
        self._buffer = DisorderBuffer(
            max_delay, late_policy=late_policy, metrics=self._extra
        )
        self._log: List[int] = []  # uids, corrected (timestamp) order
        self._event_by_uid: Dict[int, Event] = {}
        self._uid_by_seq: Dict[int, int] = {}
        self._seq_by_uid: Dict[int, int] = {}
        self._emitted: Dict[Tuple, Tuple[str, Any]] = {}
        self._retired: List[EngineMetrics] = []
        self._buffered: set = set()
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
        return sorted(fp for fp, _ in self._emitted.values())

    @property
    def metrics(self) -> EngineMetrics:
        """Live ⊕ retired-generation ⊕ disorder-layer metrics.

        Sequential-generation rule (peaks max, event counts add): replay
        work shows up in ``events_processed`` as honest correction cost.
        """
        merged = EngineMetrics()
        for retired in self._retired:
            merged = merged.merge(retired, disjoint_streams=True, concurrent=False)
        merged = merged.merge(
            self._engine.metrics, disjoint_streams=True, concurrent=False
        )
        return merged.merge(self._extra, disjoint_streams=True, concurrent=False)

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
            self._buffered.discard(uid)
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
        else:
            self._buffered.add(uid)
        for released in result.released:
            self._buffered.discard(released)
            out.extend(self._admit(released))
        return out

    def _admit(self, uid: int) -> List:
        seq = self._next_seq
        self._next_seq += 1
        stamped = self._event_by_uid[uid].with_seq(seq)
        self._event_by_uid[uid] = stamped
        self._uid_by_seq[seq] = uid
        self._seq_by_uid[uid] = seq
        self._log.append(uid)
        return self._emit(self._engine.process(stamped))

    def _emit(self, matches, cause: Optional[str] = None) -> List:
        out: List = []
        for match in matches:
            key = self._uid_key(match)
            if key in self._emitted:
                continue
            self._emitted[key] = (match_fingerprint(match), match)
            out.append(match if cause is None else MatchRevision(match, cause, key))
        return out

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
    def _key_contains(key: Tuple, uid: int) -> bool:
        return any(uid in uids for _, uids in key[1])

    # -- deltas --------------------------------------------------------------
    def _retract(self, uid: int) -> List:
        if uid not in self._event_by_uid:
            raise DisorderError(f"unknown or already-retracted event uid {uid}")
        if uid in self._buffered:
            self._buffer.discard(uid)
            self._buffered.discard(uid)
            del self._event_by_uid[uid]
            self._extra.retractions_processed += 1
            return []
        if uid not in self._seq_by_uid:
            # Defensive: every tracked uid is either buffered (handled
            # above) or admitted to the log with a seq; surface anything
            # else as a typed error, never a bare list.remove ValueError.
            raise DisorderError(
                f"unknown or never-admitted event uid {uid}"
            )
        event = self._event_by_uid[uid]
        self._log.remove(uid)
        if event.type in self._engine.negation_event_types():
            # Removal may *resurrect* matches this event suppressed —
            # only a replay over the corrected log re-derives those.
            del self._event_by_uid[uid]
            self._extra.retractions_processed += 1
            return self._replay_swap("retraction")
        seq = self._seq_by_uid.pop(uid)
        del self._uid_by_seq[seq]
        del self._event_by_uid[uid]
        self._engine.retract_seq(seq)  # counts retractions_processed
        out: List = []
        for key in [k for k in self._emitted if self._key_contains(k, uid)]:
            fingerprint, match = self._emitted.pop(key)
            out.append(
                MatchRetraction(fingerprint, match.pattern_name, "retraction", key)
            )
        self._extra.matches_retracted += len(out)
        return out

    def _update(self, uid: int, payload: Mapping[str, Any]) -> List:
        if uid not in self._event_by_uid:
            raise DisorderError(f"unknown or already-retracted event uid {uid}")
        self._extra.retractions_processed += 1
        old = self._event_by_uid[uid]
        self._event_by_uid[uid] = Event(
            old.type, old.timestamp, payload, seq=old.seq, partition=old.partition
        )
        if uid in self._buffered:
            return []  # not yet fed anywhere; the new payload is admitted later
        return self._replay_swap("update")

    def _insert_late(self, uid: int) -> List:
        event = self._event_by_uid[uid]
        # Manual bisect_right over the uid log: the sort key (the held
        # event's timestamp) lives in _event_by_uid, and bisect's key=
        # parameter requires Python 3.10+ while we support 3.9.
        lo, hi = 0, len(self._log)
        while lo < hi:
            mid = (lo + hi) // 2
            if event.timestamp < self._event_by_uid[self._log[mid]].timestamp:
                hi = mid
            else:
                lo = mid + 1
        self._log.insert(lo, uid)
        return self._replay_swap("late-event")

    def _replay_swap(self, cause: str) -> List:
        """Re-derive from the corrected log on a fresh engine and diff."""
        self._retired.append(self._engine.metrics)
        engine = self._fresh_engine()
        self._uid_by_seq = {}
        self._seq_by_uid = {}
        new_emitted: Dict[Tuple, Tuple[str, Any]] = {}
        for seq, uid in enumerate(self._log):
            stamped = self._event_by_uid[uid].with_seq(seq)
            self._event_by_uid[uid] = stamped
            self._uid_by_seq[seq] = uid
            self._seq_by_uid[uid] = seq
            for match in engine.process(stamped):
                key = self._uid_key(match)
                new_emitted.setdefault(key, (match_fingerprint(match), match))
        self._next_seq = len(self._log)
        out: List = []
        for key, (fingerprint, match) in self._emitted.items():
            if new_emitted.get(key, (None,))[0] != fingerprint:
                # Gone, or kept by uid but revised in content (Update
                # changes the payload without changing the uid set).
                out.append(
                    MatchRetraction(fingerprint, match.pattern_name, cause, key)
                )
        self._extra.matches_retracted += len(out)
        for key, (fingerprint, match) in new_emitted.items():
            if self._emitted.get(key, (None,))[0] != fingerprint:
                out.append(MatchRevision(match, cause, key))
        self._emitted = new_emitted
        self._engine = engine
        return out
