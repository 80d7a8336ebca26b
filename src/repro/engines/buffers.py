"""Windowed per-variable event buffers.

Out-of-order evaluation (the whole point of plan reordering) requires
events to be buffered until the plan step that consumes them (Section
2.2).  A :class:`VariableBuffer` keeps the events admissible for one
pattern variable — right type, unary filters passed — in arrival order,
pruned to the time window.

Arrival order doubles as both sequence order and (the stream being
timestamp-ordered) time order, so the buffer gets the indexed-store
treatment of :mod:`repro.engines.stores` cheaply:

* an optional **hash index** partitions events by an equality-key
  function (installed by :func:`repro.engines.access.transition_paths`
  when the plan has ``Attr == Attr`` predicates between this variable
  and earlier plan positions),
  so :meth:`probe` touches one bucket instead of the whole buffer;
* **consumed events are tombstoned** in a seq-set and skipped on
  iteration instead of rebuilding the deque per removal; tombstones are
  drained when pruning reaches them;
* bucket window expiry is a lazy prefix drop (buckets are time-ordered),
  and the trigger bound inside a bucket is a binary search.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from typing import Callable, Deque, Iterator, Optional

from ..events import Event
from .metrics import EngineMetrics
from .stores import NO_BOUND, RANGE_OPS, Holdings, nan_like, range_slice


def _seq_boundary(events: list, trigger_seq: int) -> int:
    """First index whose event has ``seq >= trigger_seq`` (bisect)."""
    lo, hi = 0, len(events)
    while lo < hi:
        mid = (lo + hi) // 2
        if events[mid].seq < trigger_seq:
            lo = mid + 1
        else:
            hi = mid
    return lo


class _EventBucket:
    """One buffer bucket: arrival-ordered events plus an optional
    value-sorted run for the buffer's theta predicate."""

    __slots__ = ("events", "rvals", "revents", "runordered")

    def __init__(self, ranged: bool) -> None:
        self.events: list = []
        self.rvals: Optional[list] = [] if ranged else None
        self.revents: Optional[list] = [] if ranged else None
        self.runordered: Optional[list] = [] if ranged else None


class VariableBuffer:
    """Arrival-ordered, window-pruned events for one pattern variable."""

    __slots__ = (
        "variable",
        "event_type",
        "_filter",
        "_events",
        "_live",
        "_size",
        "_key_of",
        "_value_of",
        "_range_op",
        "_buckets",
        "_overflow",
        "_indexed_total",
        "_run_total",
        "_cutoff",
        "metrics",
        "holdings",
    )

    def __init__(
        self,
        variable: str,
        event_type: str,
        unary_filter: Optional[Callable[[Event], bool]] = None,
        metrics: Optional[EngineMetrics] = None,
        holdings: Optional[Holdings] = None,
    ) -> None:
        self.variable = variable
        self.event_type = event_type
        self._filter = unary_filter
        self._events: Deque[Event] = deque()
        # seq -> buffered copies; a consumed seq is dropped wholesale, so
        # membership means "not tombstoned" (duplicate seqs only occur
        # off-stream, e.g. the negation checker's unassigned events).
        self._live: dict = {}
        self._size = 0
        self._key_of: Optional[Callable[[Event], tuple]] = None
        self._value_of: Optional[Callable[[Event], object]] = None
        self._range_op: Optional[str] = None
        self._buckets: dict = {}
        self._overflow: list = []  # events with unhashable keys
        self._indexed_total = 0  # bucket + overflow entries, incl. stale
        # Entries across all value-sorted runs (rvals/runordered), incl.
        # stale.  Tracked separately from _indexed_total because the
        # probe-time bucket prefix-trim shrinks the latter without
        # touching the runs — the runs' staleness must still be able to
        # trigger a rebuild.
        self._run_total = 0
        # Bucket and range probes filter on the last prune's cutoff.  A
        # prune the engine skips (nothing held older than its cutoff,
        # see repro.engines.stores.Holdings) leaves it stale but exact:
        # no buffered event lies between the two cutoffs.
        self._cutoff = float("-inf")
        self.metrics = metrics
        self.holdings = holdings if holdings is not None else Holdings()

    def set_index(
        self,
        key_of: Optional[Callable[[Event], tuple]],
        value_of: Optional[Callable[[Event], object]] = None,
        op: Optional[str] = None,
    ) -> int:
        """Install an access path (before any event is offered); returns
        its probe handle.

        ``key_of`` hash-partitions on the equality key; ``value_of``/
        ``op`` add a per-bucket value-sorted run for one theta
        predicate (``stored_value op probe_value``).  ``key_of=None``
        with a range keeps one implicit bucket (pure range index).  A
        buffer holds one index; the handle lets :meth:`probe` and
        :meth:`index_exact` take the same arguments as on a
        :class:`~repro.engines.stores.PartialMatchStore`.
        """
        if self._events:
            raise ValueError("index must be installed on an empty buffer")
        if key_of is None and value_of is None:
            raise ValueError("an index needs a key function, a range, or both")
        if value_of is not None and op not in RANGE_OPS:
            raise ValueError(f"range index needs an op in {RANGE_OPS}")
        self._key_of = key_of
        self._value_of = value_of
        self._range_op = op
        return 0

    def set_filter(self, unary_filter: Optional[Callable[[Event], bool]]) -> None:
        """Replace the admission filter (compiled-kernel installation)."""
        self._filter = unary_filter

    def index_exact(self, handle: int) -> bool:
        """True when every candidate :meth:`probe` yields is bucket-
        guaranteed to satisfy the equality the index encodes (no
        unhashable-key overflow entries); callers must otherwise apply
        the full predicate list to the candidates."""
        return not self._overflow

    def offer(self, event: Event) -> bool:
        """Admit ``event`` when it matches the type and passes filters."""
        if event.type != self.event_type:
            return False
        if self._filter is not None and not self._filter(event):
            return False
        self._events.append(event)
        self._live[event.seq] = self._live.get(event.seq, 0) + 1
        self._size += 1
        held = self.holdings
        held.events += 1
        if event.timestamp < held.oldest:
            held.oldest = event.timestamp
        if self._key_of is not None or self._value_of is not None:
            self._index_event(event)
        return True

    def _index_event(self, event: Event) -> None:
        try:
            key = () if self._key_of is None else self._key_of(event)
            bucket = self._buckets.get(key)
            if bucket is None:
                bucket = self._buckets[key] = _EventBucket(
                    self._value_of is not None
                )
            bucket.events.append(event)
            self._indexed_total += 1
        except KeyError:
            # Missing attribute: the equality predicate can never hold
            # for this event, so it is unreachable via the index (and
            # via the predicates on any scan).
            return
        except TypeError:
            self._overflow.append(event)
            self._indexed_total += 1
            return
        if self._value_of is not None:
            self._add_to_run(bucket, event)

    def _add_to_run(self, bucket: _EventBucket, event: Event) -> None:
        try:
            value = self._value_of(event)
        except KeyError:
            # Missing theta attribute: the predicate is False for every
            # probe — exact to omit from range candidates (the event
            # stays in the bucket for non-range iteration).
            return
        if nan_like(value):  # NaN: same always-False argument
            return
        try:
            position = bisect_left(bucket.rvals, value)
        except TypeError:
            bucket.runordered.append(event)
            self._run_total += 1
            return
        bucket.rvals.insert(position, value)
        bucket.revents.insert(position, event)
        self._run_total += 1

    def prune(self, cutoff_ts: float) -> None:
        """Drop expired events and drain tombstones that reached the head;
        the oldest survivor is reported to the holdings watermark."""
        self._cutoff = cutoff_ts
        events = self._events
        live = self._live
        held = self.holdings
        while events and (
            events[0].timestamp < cutoff_ts or events[0].seq not in live
        ):
            seq = events.popleft().seq
            copies = live.get(seq)
            if copies is not None:
                if copies == 1:
                    del live[seq]
                else:
                    live[seq] = copies - 1
                self._size -= 1
                held.events -= 1
        if events and events[0].timestamp < held.oldest:
            held.oldest = events[0].timestamp
        # Buckets drop their expired prefixes lazily, on probe; rebuild
        # the whole index once stale entries dominate so buckets of
        # never-reprobed keys (high-cardinality streams) cannot leak.
        # The value-sorted runs have their own staleness trigger: the
        # probe-time prefix-trim shrinks _indexed_total (masking run
        # staleness behind it) and expired run entries are never a
        # trimmable prefix of a value-sorted list, so without the
        # second condition the runs would grow with the whole stream.
        if self._key_of is None and self._value_of is None:
            return
        stale = self._indexed_total - self._size
        run_stale = self._run_total - self._size
        if (stale > 64 and stale > self._size) or (
            run_stale > 64 and run_stale > self._size
        ):
            self._rebuild_index()

    def _rebuild_index(self) -> None:
        self._buckets = {}
        self._overflow = []
        self._indexed_total = 0
        self._run_total = 0
        live = self._live
        for event in self._events:
            if event.seq in live:
                self._index_event(event)

    def events_before(self, trigger_seq: int) -> Iterator[Event]:
        """Buffered events with arrival number strictly below the trigger.

        Together with the trigger discipline (see
        :mod:`repro.engines.matches`) this guarantees each combination
        is formed exactly once.
        """
        live = self._live
        for event in self._events:
            if event.seq >= trigger_seq:
                break
            if event.seq in live:
                yield event

    def probe(
        self,
        handle: int,
        key: tuple,
        trigger_seq: int,
        bound=NO_BOUND,
        on_excluded=None,
    ) -> Iterator[Event]:
        """Indexed ``events_before``: one bucket instead of the buffer.

        The bucket is a superset filter — the caller still evaluates the
        full predicate set on every candidate — so hash corner cases
        cost a scan, never a match.  ``bound`` (range index installed)
        bisects the bucket's value-sorted run instead of walking it; the
        selected events are re-sorted into arrival order, so emission
        order and earliest-eligible semantics are identical to a scan.

        ``on_excluded`` (selectivity feedback) is called with the number
        of live, eligible sorted-run events the bisect excluded — each
        is exactly one candidate the extracted theta predicate rejects.
        Scan fallbacks never call it.
        """
        metrics = self.metrics
        try:
            bucket = self._buckets.get(key)
        except TypeError:  # unhashable probe key: degrade to a scan
            if metrics is not None and self._key_of is not None:
                metrics.index_probes += 1
                metrics.index_misses += 1
            yield from self.events_before(trigger_seq)
            return
        if metrics is not None and self._key_of is not None:
            metrics.index_probes += 1
            if bucket is not None and bucket.events:
                metrics.index_hits += 1
            else:
                metrics.index_misses += 1
        if (
            bucket is not None
            and self._value_of is not None
            and bound is not NO_BOUND
        ):
            try:
                lo, hi = range_slice(bucket.rvals, self._range_op, bound)
            except TypeError:
                # Bound unorderable against this run: fall through to
                # the shared bucket scan below (predicates keep it
                # exact).
                pass
            else:
                yield from self._range_candidates(
                    bucket, trigger_seq, lo, hi, on_excluded
                )
                return
        live = self._live
        candidates = ()
        if bucket is not None:
            events = bucket.events
            bucket_prefix = 0
            cutoff = self._cutoff
            while (
                bucket_prefix < len(events)
                and events[bucket_prefix].timestamp < cutoff
            ):
                bucket_prefix += 1
            if bucket_prefix:
                del events[:bucket_prefix]
                self._indexed_total -= bucket_prefix
            candidates = events[: _seq_boundary(events, trigger_seq)]
        if self._overflow:
            # Rare path: merge with the unhashable-key overflow in seq
            # order so "earliest eligible" semantics (restrictive
            # strategies) stay exact.
            overflow = [
                e for e in self._overflow if e.timestamp >= self._cutoff
            ]
            self._indexed_total -= len(self._overflow) - len(overflow)
            self._overflow = overflow
            candidates = sorted(
                list(candidates)
                + overflow[: _seq_boundary(overflow, trigger_seq)],
                key=lambda e: e.seq,
            )
        for event in candidates:
            if event.seq in live:
                yield event

    def _range_candidates(
        self, bucket: _EventBucket, trigger_seq: int, lo: int, hi: int,
        on_excluded=None,
    ) -> Iterator[Event]:
        """Theta-bisected bucket candidates, re-sorted to arrival order."""
        metrics = self.metrics
        if metrics is not None:
            metrics.range_probes += 1
        live = self._live
        cutoff = self._cutoff
        candidates = [
            event
            for event in bucket.revents[lo:hi]
            if (
                event.seq < trigger_seq
                and event.seq in live
                and event.timestamp >= cutoff
            )
        ]
        if on_excluded is not None:
            eligible = sum(
                1
                for event in bucket.revents
                if (
                    event.seq < trigger_seq
                    and event.seq in live
                    and event.timestamp >= cutoff
                )
            )
            if eligible > len(candidates):
                on_excluded(eligible - len(candidates))
        for extra in (bucket.runordered, self._overflow):
            # Unorderable stored values, then unhashable-key overflow:
            # conservative supersets that must stay probe-visible.
            for event in extra:
                if (
                    event.seq < trigger_seq
                    and event.seq in live
                    and event.timestamp >= cutoff
                ):
                    candidates.append(event)
        candidates.sort(key=lambda e: e.seq)
        if metrics is not None and candidates:
            metrics.range_hits += 1
        yield from candidates

    def remove_seq(self, seq: int) -> None:
        """Tombstone a consumed event (skip-till-next-match).

        The event is skipped by all iteration immediately and physically
        dropped when pruning reaches it — no per-removal rebuild.
        """
        copies = self._live.pop(seq, 0)
        self._size -= copies
        self.holdings.events -= copies

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Event]:
        live = self._live
        return (e for e in self._events if e.seq in live)

    def __repr__(self) -> str:
        return (
            f"VariableBuffer({self.variable}:{self.event_type}, "
            f"{len(self._live)} events)"
        )
