"""Shared engine machinery.

:class:`BaseEngine` implements everything that is identical between the
two runtimes — the order-based lazy NFA (:mod:`repro.engines.nfa`) and
the instance-based plan DAG (:mod:`repro.multiquery.executor`), which
runs every tree plan, every disjunction and every multi-query workload:

* the roots: one :class:`Root` per pattern (or DNF disjunct) the engine
  reports matches for, each with its own name, window, negation checker
  and pending set, and consumed events — the NFA has one root, a
  disjunction one per disjunct;
* the per-event floor: one flat store list and the variable and
  negation buffers share one :class:`~repro.engines.stores.Holdings`
  tally, whose watermark (against the shortest root window) lets an
  event skip the whole expiry sweep with one comparison and whose
  maintained counts feed the peak metrics — neither cost grows with
  the number of stores or buffers; each store expires against its own
  window;
* negation handling — the *pending* set for ranges extending into the
  future (Section 5.3) and the completion-time checks;
* event selection strategies (Section 6.2): ``any`` (skip-till-any-match,
  the default), ``next`` (skip-till-next-match, with event consumption),
  ``strict`` / ``partition`` (contiguity — consumption semantics of
  ``next`` plus adjacency predicates, which the caller injects into the
  pattern with
  :func:`repro.patterns.add_contiguity_predicates`);
* metrics collection;
* live plan migration — every engine maintains the plan-independent
  window buffer behind :meth:`BaseEngine.export_state` /
  :meth:`BaseEngine.seed_from` (see :mod:`repro.engines.snapshot`);
* online selectivity feedback — with a tracker attached
  (:meth:`BaseEngine.set_selectivity_tracker`), explicit predicate
  outcomes are reported to :mod:`repro.stats.online` estimators.

Both runtimes form every event combination exactly once through the
*trigger* discipline documented in :mod:`repro.engines.matches`.
"""

from __future__ import annotations

import time
from collections import deque
from functools import partial
from typing import Deque, Iterator, Optional, Sequence, Tuple

from ..errors import EngineError
from ..events import Event, Stream
from ..patterns.predicates import Adjacent, Predicate, TimestampOrder
from ..patterns.transformations import DecomposedPattern
from .buffers import VariableBuffer
from .matches import Match, PartialMatch
from .metrics import EngineMetrics
from .negation import NegationChecker, PreparedSpec
from .snapshot import EngineSnapshot, describe_partial_match, replay
from .stores import Holdings, PartialMatchStore

SELECTION_ANY = "any"
SELECTION_NEXT = "next"
SELECTION_STRICT = "strict"
SELECTION_PARTITION = "partition"
_SELECTIONS = (
    SELECTION_ANY,
    SELECTION_NEXT,
    SELECTION_STRICT,
    SELECTION_PARTITION,
)

#: Sentinel for :meth:`BaseEngine._check_extension`'s ``kernel``
#: parameter: "no kernel supplied, run the interpreted path".  A kernel
#: value of None means "compiled, but the predicate list is empty" —
#: vacuously true with no bindings copy at all.
INTERPRET = object()


def traced(engine, stat, work, *args):
    """Run ``work(*args, stat=stat)`` and charge its wall time and index
    counter deltas to ``stat`` — the one instrumentation seam of every
    runtime's join step (NFA arrivals and buffer scans, DAG edge
    pairings).  Only a traced engine calls this, and the clock
    is its tracer's, so an untraced engine never reads one."""
    clock, metrics = engine._tracer.clock, engine.metrics
    ip0, ih0 = metrics.index_probes, metrics.index_hits
    rp0, rh0 = metrics.range_probes, metrics.range_hits
    started = clock()
    created = work(*args, stat=stat)
    stat.wall += clock() - started
    stat.index_probes += metrics.index_probes - ip0
    stat.index_hits += metrics.index_hits - ih0
    stat.range_probes += metrics.range_probes - rp0
    stat.range_hits += metrics.range_hits - rh0
    return created


class Root:
    """One pattern (or DNF disjunct) an engine reports matches for.

    ``name`` goes into :attr:`Match.pattern_name`; ``checker`` owns the
    root's negation candidate buffers and pending set; ``checks`` are
    the bounded negation specs left to the complete match (leading
    NOTs, plus any spec the runtime could not place earlier);
    ``rename`` maps the runtime's binding names to the pattern's (None:
    identity); ``consumed`` holds the events the root's reported matches
    used under the restrictive strategies, and ``stores`` the stores
    its consumption purges; ``matches`` counts what it reported.
    """

    __slots__ = (
        "name", "decomposed", "window", "checker", "checks", "rename",
        "consumed", "stores", "matches",
    )

    def __init__(
        self,
        name: Optional[str],
        decomposed: DecomposedPattern,
        holdings: Holdings,
    ) -> None:
        self.name = name or (
            decomposed.source.name if decomposed.source else None
        )
        self.decomposed = decomposed
        self.window = decomposed.window
        self.checker = NegationChecker(
            decomposed.negations,
            decomposed.negation_conditions,
            self.window,
            holdings=holdings,
        )
        self.checks: list[PreparedSpec] = self.checker.leading_specs()
        self.rename: Optional[dict] = None
        self.consumed: set[int] = set()
        self.stores: list[PartialMatchStore] = []
        self.matches = 0


class BaseEngine:
    """Common state and behaviour of both evaluation runtimes.

    ``patterns`` lists ``(name, decomposed)`` per root, in reporting
    order.
    """

    def __init__(
        self,
        patterns: Sequence[Tuple[Optional[str], DecomposedPattern]],
        selection: str = SELECTION_ANY,
        max_kleene_size: Optional[int] = None,
        indexed: bool = True,
        compiled: bool = True,
        codegen: bool = True,
    ) -> None:
        if selection not in _SELECTIONS:
            raise EngineError(
                f"unknown selection strategy {selection!r}; "
                f"choose one of {_SELECTIONS}"
            )
        self.selection = selection
        self._consuming = selection != SELECTION_ANY
        self.max_kleene_size = max_kleene_size
        # When True (default), stores hash-partition on equality
        # cross-predicates and keep sorted theta runs (see
        # repro.engines.stores); False keeps the seed's linear scans —
        # the baseline of the equivalence tests and the fig21/fig24
        # benchmarks.
        self.indexed = indexed
        # When True (default), per-node predicate lists are fused into
        # compiled kernels (repro.patterns.compile); False keeps the
        # interpreted per-candidate evaluation byte-identical.
        self.compiled = compiled
        # When True (default) and compiled, specializable kernels are
        # exec-generated straight-line source instead of closure trees;
        # False keeps the closure kernels byte-identically.
        self.codegen = codegen
        self.metrics = EngineMetrics()

        # The runtimes register their stores (the NFA its buffers) here.
        self._held = Holdings()
        self._roots = [
            Root(name, decomposed, self._held)
            for name, decomposed in patterns
        ]
        # Multi-root engines report one event's matches grouped by root,
        # in root order (stable: each root keeps its own order).
        ranks: dict = {}
        for index, root in enumerate(self._roots):
            ranks.setdefault(root.name, index)
        self._rank = (
            (lambda match: ranks[match.pattern_name]) if len(ranks) > 1
            else None
        )
        self._negating = [
            root.checker for root in self._roots if root.checker.active
        ]
        # The longest window bounds the window log; the shortest gates
        # the expiry sweep (its cutoff is the latest, so while it has
        # not passed the watermark nothing with any window can expire).
        self.window = max(root.window for root in self._roots)
        self._shortest_window = min(root.window for root in self._roots)
        self._stores: list[PartialMatchStore] = []
        self._buffers: dict[str, VariableBuffer] = {}
        # NodeStat per entry of _stores while traced (expiry attribution).
        self._expiry_stats: Optional[list] = None
        self._now = float("-inf")
        self._event_wall_started = 0.0
        # Live plan migration (see repro.engines.snapshot): the window
        # buffer — every pattern-relevant event still inside the window —
        # is the replayable, plan-independent core of the engine's state.
        self._relevant_types = frozenset(
            type_name
            for root in self._roots
            for _, type_name in root.decomposed.positives
        ) | frozenset(
            spec.event_type
            for root in self._roots
            for spec in root.decomposed.negations
        )
        self._window_events: Deque[Event] = deque()
        # Online selectivity feedback (repro.stats.online): when a
        # tracker is attached, predicate outcomes are reported per
        # variable pair.  None keeps the hot path observation-free.
        # Observation keys are resolved per predicate object up front —
        # implied predicates (SEQ orderings, contiguity) and >2-variable
        # conditions map to nothing and are never observed.
        self._sel_tracker = None
        self._sel_key_by_pred: dict[int, frozenset] = {}
        for root in self._roots:
            for predicate in root.decomposed.conditions:
                if isinstance(predicate, (TimestampOrder, Adjacent)):
                    continue
                variables = predicate.variables
                if 1 <= len(variables) <= 2:
                    self._sel_key_by_pred[id(predicate)] = frozenset(
                        variables
                    )
        # Plan-DAG tracing (repro.observe): None keeps the hot path
        # observation-free — engines never read a clock or touch a
        # NodeStat without a tracer attached.
        self._tracer = None
        # Every join input's repro.engines.access.AccessPath, registered
        # by the subclass runtimes (tracker hookup).
        self._access_paths: list = []

    # -- public API --------------------------------------------------------
    def process(self, event: Event) -> list[Match]:
        """Feed one event; return the matches it completed."""
        matches = self._advance_time(event)
        for checker in self._negating:
            checker.offer_against(event)
        admitted = self._admit(event)
        if admitted:
            matches.extend(self._arrive(event, admitted))
        held = self._held
        self.metrics.note_state(
            held.partial_matches + held.pending, held.events
        )
        if self._rank is not None and len(matches) > 1:
            matches.sort(key=self._rank)
        return matches

    def _admit(self, event: Event) -> list:
        """Engine-specific: where ``event`` is admitted (falsy: nowhere)."""
        raise NotImplementedError

    def _arrive(self, event: Event, admitted: list) -> list[Match]:
        """Engine-specific: join the admitted event; return matches."""
        raise NotImplementedError

    def run(self, stream: Stream) -> list[Match]:
        """Process an entire stream and flush pending matches."""
        matches: list[Match] = []
        for event in stream:
            matches.extend(self.process(event))
        matches.extend(self.finalize())
        return matches

    def run_batched(
        self, stream: Stream, batch_size: int = 256
    ) -> list[Match]:
        """Exactly :meth:`run`; kept only for the perf ledger's
        ``engines.batch_ratio`` probe, which still calls it.  Engines
        evaluate one event at a time, so there is no chunked path."""
        if batch_size < 1:
            raise EngineError(f"batch_size must be >= 1, got {batch_size}")
        return self.run(stream)

    def finalize(self) -> list[Match]:
        """End-of-stream: release pending matches (no more events can
        violate their trailing negation ranges), root by root."""
        matches: list[Match] = []
        for root in self._roots:
            pending = root.checker.pending
            root.checker.keep_pending([])
            matches.extend(
                self._make_match(root, entry.pm, entry.deadline)
                for entry in pending
            )
        return matches

    # -- live plan migration ------------------------------------------------
    def iter_partial_matches(self) -> Iterator[PartialMatch]:
        """All live partial-match instances, store by store."""
        for store in self._stores:
            yield from store

    def live_partial_matches(self) -> int:
        return self._held.partial_matches

    def export_state(self) -> EngineSnapshot:
        """Plan-independent snapshot: window events + in-flight matches.

        Any engine built for an equivalent pattern — regardless of plan
        shape — can rebuild its intermediate stores from the snapshot
        via :meth:`seed_from` (see :mod:`repro.engines.snapshot` for why
        the window buffer is sufficient).
        """
        return EngineSnapshot(
            events=tuple(self._window_events),
            now=self._now,
            window=self.window,
            consumed=[root.consumed for root in self._roots],
            partial_matches=tuple(
                describe_partial_match(pm)
                for pm in self.iter_partial_matches()
            ),
            pending=tuple(
                (describe_partial_match(entry.pm), entry.deadline)
                for root in self._roots
                for entry in root.checker.pending
            ),
        )

    def seed_from(self, snapshot: EngineSnapshot) -> None:
        """Rebuild intermediate state by replaying the snapshot's window
        buffer (recompute-from-buffer migration).

        Must be called on a freshly built engine.  Matches re-derived
        during the replay were already reported by the donor engine and
        are suppressed (:func:`~repro.engines.snapshot.replay`); pending
        matches are recreated with their original deadlines and released
        by the normal mechanism.
        """
        self._require_fresh("seed_from")
        if snapshot.window != self.window:
            raise EngineError(
                f"snapshot window {snapshot.window:g} does not match "
                f"engine window {self.window:g}"
            )
        if snapshot.consumed and len(snapshot.consumed) != len(self._roots):
            raise EngineError(
                f"snapshot carries {len(snapshot.consumed)} consumed sets "
                f"for {len(self._roots)} roots"
            )
        for root, consumed in zip(self._roots, snapshot.consumed):
            root.consumed.update(consumed)
        replay(self, snapshot.events, suppress=True)

    def seed_negation_state(self, snapshot: EngineSnapshot) -> None:
        """Pre-load the negation candidate buffers from a snapshot.

        The parallel-drain migration runs the new engine from empty
        alongside the old one for one window; positive state rebuilds
        itself from arriving events, but forbidden-event candidates that
        arrived *before* the swap would be invisible to the new engine —
        and a negation range can reach up to one window into the past
        (``[max_ts - W, ...)``), so missing them would emit matches the
        old engine correctly rejects.  Seeding only the negation buffers
        closes that hole without any replay.
        """
        self._require_fresh("seed_negation_state")
        for checker in self._negating:
            for event in snapshot.events:
                checker.offer(event)

    # -- retraction deltas (repro.streams.disorder) --------------------------
    def negation_event_types(self) -> frozenset:
        """Event types any negation spec forbids.

        Delta routing uses this: retracting one of these events may
        *resurrect* matches it suppressed, which the incremental purge
        below cannot re-derive — the disorder layer re-derives instead.
        """
        return frozenset(
            spec.event_type
            for root in self._roots
            for spec in root.decomposed.negations
        )

    def retract_seq(self, seq: int) -> None:
        """Remove every trace of the event with sequence number ``seq``.

        Transitively drops partial matches that bound the event (store
        tombstones), evicts it from the variable, window, and negation
        candidate buffers, and kills pending matches built on it.  Exact
        for skip-till-any-match runs whose retracted event is not
        negation-relevant; the disorder layer
        (:mod:`repro.streams.disorder`) re-derives every other delta
        over the window around it.  Already-reported matches are the
        caller's to retract — the engine keeps no emitted-match log.
        """
        if any(e.seq == seq for e in self._window_events):
            self._window_events = deque(
                e for e in self._window_events if e.seq != seq
            )
        for buffer in self._buffers.values():
            buffer.remove_seq(seq)
        seqs = frozenset((seq,))
        for store in self._stores:
            store.purge_seqs(seqs)
        for root in self._roots:
            checker = root.checker
            checker.retract(seq)
            if checker.pending:
                checker.keep_pending(
                    [e for e in checker.pending if not e.pm.contains_seq(seq)]
                )
            root.consumed.discard(seq)
        self.metrics.retractions_processed += 1

    def _require_fresh(self, operation: str) -> None:
        if self.metrics.events_processed or self._now != float("-inf"):
            raise EngineError(
                f"{operation} requires a freshly built engine "
                f"(this one already processed "
                f"{self.metrics.events_processed} events)"
            )

    # -- plan-DAG tracing ----------------------------------------------------
    def set_tracer(self, tracer) -> None:
        """Attach (or detach, with ``None``) a
        :class:`~repro.observe.trace.Tracer`.

        Each plan node registers one
        :class:`~repro.observe.trace.NodeStat` and the evaluation loops
        update it inline — events admitted, partial matches probed /
        created / expired, matches completed, attributed wall time, and
        the index bucket-hit / bisect-hit counters.  Tracing only ever
        counts and times: the match output is byte-identical with and
        without a tracer, and with ``None`` the engine never reads the
        clock nor touches a stat (both asserted by the observation-
        neutrality tests).
        """
        self._tracer = tracer
        self._register_trace_nodes()

    def _register_trace_nodes(self) -> None:
        """Engine-specific: (re)register per-plan-node stats."""
        raise NotImplementedError

    # -- online selectivity feedback ----------------------------------------
    def set_selectivity_tracker(self, tracker) -> None:
        """Attach a :class:`~repro.stats.online.SelectivityTracker`.

        Engines then report each explicit predicate evaluation outcome
        under the catalog's key convention (``frozenset({a, b})`` for a
        cross-predicate, ``frozenset({a})`` for a unary filter).
        Implied predicates — SEQ timestamp orderings and contiguity
        adjacency — are excluded: the statistics catalog never carries
        selectivities for them.  With ``indexed=True``, equalities
        extracted into hash keys are observed only on scan fallbacks
        (bucket-guaranteed candidates skip them).  Theta range bounds
        keep their bisected access path: candidates a sorted-run bisect
        excludes are reported as *failed* evaluations of the extracted
        range predicate (exactly — an orderable stored value outside
        the bisected range is precisely one the predicate rejects), so
        the observed theta selectivity stays unbiased without degrading
        the probe to a scan.  With ``compiled=True``, attaching a
        tracker recompiles every kernel into its observing variant;
        detaching (``None``) restores the observation-free kernels.
        """
        self._sel_tracker = tracker
        for path in self._access_paths:
            path.on_excluded = (
                None
                if tracker is None or path.range_predicate is None
                else partial(self._observe_excluded, path.range_predicate)
            )
        if self.compiled:
            self._recompile_kernels()

    def _recompile_kernels(self) -> None:
        """Engine-specific: (re)build compiled kernels against the
        current tracker.  Called at engine build and on tracker
        (de)attachment."""
        raise NotImplementedError

    def _observe_predicate(self, predicate: Predicate, passed: bool) -> None:
        key = self._sel_key_by_pred.get(id(predicate))
        if key is None:
            return
        self._sel_tracker.observe(key, passed)
        self.metrics.selectivity_observations += 1

    def _observe_excluded(self, predicate: Predicate, count: int) -> None:
        """Report ``count`` candidates a theta bisect excluded as failed
        evaluations of the extracted range predicate (index-probe
        selectivity feedback — each excluded orderable stored value is
        exactly one the predicate rejects)."""
        if count <= 0:
            return
        key = self._sel_key_by_pred.get(id(predicate))
        if key is None:
            return
        observe = self._sel_tracker.observe
        for _ in range(count):
            observe(key, False)
        self.metrics.selectivity_observations += count

    # -- shared plumbing ----------------------------------------------------
    def _advance_time(self, event: Event) -> list[Match]:
        """Expire what left the window (only once the shortest window's
        cutoff passed the holdings watermark) and release due pending
        matches."""
        self.metrics.events_processed += 1
        self._event_wall_started = time.perf_counter()
        self._now = now = event.timestamp
        if event.type in self._relevant_types:
            self._window_events.append(event)
        window_events = self._window_events
        cutoff = now - self.window
        while window_events and window_events[0].timestamp < cutoff:
            window_events.popleft()
        held = self._held
        sweep = now - self._shortest_window > held.oldest
        if sweep:
            held.oldest = float("inf")  # each prune / expire re-reports
            for buffer in self._buffers.values():
                buffer.prune(cutoff)
            for checker in self._negating:
                checker.prune(now - checker.window)
        released: list[Match] = []
        if held.pending:
            for root in self._roots:
                if root.checker.pending:
                    released.extend(
                        root.checker.release(
                            now, partial(self._make_match, root)
                        )
                    )
        if sweep:
            # After the release, which may consume (and so purge) first.
            stats = self._expiry_stats
            if stats is None:
                for store in self._stores:
                    store.expire(now - store.window)
            else:
                for store, stat in zip(self._stores, stats):
                    stat.expired += store.expire(now - store.window)
        return released

    def _complete(self, root: Root, pm: PartialMatch) -> Optional[Match]:
        """Handle a partial match that bound every positive variable of
        ``root``.

        Returns the match when it can be emitted immediately; stores it in
        the pending set (and returns None) when a trailing negation range
        is still open.
        """
        rename = root.rename
        if rename is not None:
            pm = PartialMatch(
                {rename[k]: v for k, v in pm.bindings.items()},
                pm.trigger_seq,
                pm.min_ts,
                pm.max_ts,
            )
        checker = root.checker
        # Leading NOT: the range [max_ts − W, following) is final only
        # now that the match is complete.
        if checker.active and not checker.completion(
            pm, self._now, root.checks
        ):
            return None
        return self._make_match(root, pm, self._now)

    def _make_match(
        self, root: Root, pm: PartialMatch, detection_ts: float
    ) -> Match:
        # Wall-clock detection latency: work performed since the engine
        # began processing the current event (Section 6.1).
        wall = time.perf_counter() - self._event_wall_started
        match = Match(
            pm,
            detection_ts,
            pattern_name=root.name,
            wall_latency=wall,
        )
        self.metrics.note_match(match.latency, wall)
        root.matches += 1
        if self._consuming:
            self._consume(root, pm)
        return match

    # -- skip-till-next-match consumption ----------------------------------------
    def _consume(self, root: Root, pm: PartialMatch) -> None:
        """Mark the match's events consumed by ``root`` and purge the
        root's structures using them."""
        seqs = pm.event_seqs()
        root.consumed.update(seqs)
        for buffer in self._buffers.values():
            for seq in seqs:
                buffer.remove_seq(seq)
        for store in root.stores:
            store.purge_seqs(seqs)
        checker = root.checker
        if checker.pending:
            checker.keep_pending(
                [e for e in checker.pending if not e.pm.event_seqs() & seqs]
            )
