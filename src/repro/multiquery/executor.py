"""Multi-query execution: one pass over the stream, many queries answered.

:class:`MultiQueryEngine` runs a :class:`~repro.multiquery.sharing.SharedPlan`
with the same instance-based discipline as
:class:`~repro.engines.tree.TreeEngine` — one partial-match instance per
valid combination, created while processing its latest constituent event,
eagerly propagated upward — generalized from a tree to a DAG:

* every shared node admits / combines **once per event**, regardless of
  how many queries consume its output;
* an instance created at a node fans out along *all* parent edges, each
  edge carrying a variable renaming into the parent's namespace (the
  same node can even feed both sides of one join — self-joins and
  merged symmetric subtrees);
* query roots convert instances into per-query :class:`Match` objects,
  applying that query's negation specs (bounded checks plus the pending
  mechanism for trailing ranges) at the root.  Deferring bounded checks
  from the paper's lowest-covering-node placement to the root is exact:
  the stream is timestamp-ordered, so no forbidden candidate inside a
  closed range can arrive or be window-pruned between the two points.

The trigger discipline (combine only with strictly earlier instances)
carries over verbatim, so per-query match sets are **identical** to
running each pattern in its own engine — the invariant the multi-query
equivalence tests assert.

Only skip-till-any-match workloads are supported: the restrictive
selection strategies consume events per query, which is incompatible
with cross-query shared state.

Shared nodes store their instances in the same
:class:`~repro.engines.stores.PartialMatchStore` as the single-query
engines, and the per-node expiry sweep is skipped while the shortest
window's cutoff has not passed the watermark of the
:class:`~repro.engines.stores.Holdings` tally they share with every
query's negation buffers.  Every DAG edge probes its sibling's store
through the same
:class:`~repro.engines.access.AccessPath` as a tree node — built by
:func:`~repro.engines.access.join_paths` with the edge renamings.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Tuple

from ..engines.access import AccessPath, join_paths
from ..engines.base import INTERPRET, traced
from ..engines.matches import Match, PartialMatch
from ..engines.metrics import EngineMetrics
from ..engines.negation import NegationChecker
from ..engines.stores import Holdings, PartialMatchStore
from ..patterns.compile import compile_event_kernel
from ..events import Event, Stream
from .sharing import QueryRoot, SharedJoin, SharedLeaf, SharedPlan


def group_by_query(
    query_names: Tuple[str, ...], matches: List[Match]
) -> Dict[str, List[Match]]:
    """Fan a flat match list out into per-query lists.

    Every query gets an entry (empty list when it matched nothing), in
    ``query_names`` order — the shape :meth:`MultiQueryEngine.run`
    returns.  The parallel runtime reuses this to regroup the merged
    match stream of its workers (:mod:`repro.parallel`), so both
    execution paths report workload results identically.
    """
    grouped: Dict[str, List[Match]] = {name: [] for name in query_names}
    for match in matches:
        grouped[match.pattern_name].append(match)
    return grouped


class _QueryState:
    """Per-query runtime: renaming, negation checking, pending matches
    (the checker's)."""

    __slots__ = (
        "query",
        "rename",
        "identity",
        "window",
        "checker",
        "matches_emitted",
    )

    def __init__(self, root: QueryRoot, held: Holdings) -> None:
        self.query = root.query
        self.rename = dict(root.rename)
        self.identity = all(k == v for k, v in self.rename.items())
        self.window = root.decomposed.window
        self.checker = NegationChecker(
            root.decomposed.negations,
            root.decomposed.negation_conditions,
            root.decomposed.window,
            holdings=held,
        )
        self.matches_emitted = 0

    def complete(
        self, pm: PartialMatch, now: float, engine: "MultiQueryEngine"
    ) -> Optional[Match]:
        """Turn a root instance into a match (or pend / drop it)."""
        if self.identity:
            qpm = pm
        else:
            qpm = PartialMatch(
                {self.rename[k]: v for k, v in pm.bindings.items()},
                pm.trigger_seq,
                pm.min_ts,
                pm.max_ts,
            )
        checker = self.checker
        if checker.active and not checker.completion(
            qpm,
            now,
            checker.specs_checkable_with(frozenset(qpm.bindings))
            + checker.leading_specs(),
        ):
            return None
        return engine._emit(self, qpm, now)

    def finalize(self, engine: "MultiQueryEngine") -> List[Match]:
        """End of stream: trailing ranges can no longer be violated."""
        pending = self.checker.pending
        self.checker.keep_pending([])
        return [engine._emit(self, e.pm, e.deadline) for e in pending]


class _Edge:
    """One parent hookup of a DAG node: the renamings into the parent's
    namespace plus the access path into the sibling's store."""

    __slots__ = ("parent", "my_map", "other_map", "path")

    def __init__(self, parent, my_map, other_map, path: AccessPath) -> None:
        self.parent = parent
        self.my_map = my_map
        self.other_map = other_map
        self.path = path


class _RuntimeNode:
    """Mutable store attached to one shared plan node."""

    __slots__ = (
        "spec", "store", "parents", "states", "kleene", "overlap",
        "admit_kernel", "tstat",
    )

    def __init__(self, spec, metrics: EngineMetrics, held: Holdings) -> None:
        self.spec = spec
        self.store = PartialMatchStore(metrics, held)
        self.parents: List[_Edge] = []
        self.states: List[_QueryState] = []
        # Variables (in this node's representative namespace) bound to
        # Kleene tuples — equality keys over them require the common
        # per-element value (see repro.engines.stores.kleene_key_value).
        self.kleene: frozenset = frozenset()
        # Joins with an event type on both sides: only their pairings
        # can bind one event twice, so only they check disjointness.
        self.overlap = False
        # Compiled leaf admission kernel (None = no filters).
        self.admit_kernel = None
        # Per-node trace counters (repro.observe); None = no tracer.
        self.tstat = None


class MultiQueryEngine:
    """Executes a workload's shared plan over a single stream.

    ``run`` returns a mapping from query name to that query's matches;
    ``process`` returns the flat per-event match list (each
    :class:`Match` carries its query in ``pattern_name``).  ``metrics``
    aggregates the work of the whole workload — with sharing enabled,
    ``partial_matches_created`` and ``predicate_evaluations`` count each
    shared evaluation once, which is exactly the multi-query win.
    """

    def __init__(
        self,
        plan: SharedPlan,
        max_kleene_size: Optional[int] = None,
        indexed: bool = True,
        compiled: bool = True,
        codegen: bool = True,
    ) -> None:
        self.plan = plan
        self.max_kleene_size = max_kleene_size
        self.indexed = indexed
        self.compiled = compiled
        self.codegen = codegen
        self.metrics = EngineMetrics()
        self._now = float("-inf")
        self._event_wall_started = 0.0
        # Plan-DAG tracing (repro.observe): None keeps the hot path
        # observation-free — no counter bumps, no clock reads.
        self._tracer = None
        self._held = Holdings()

        runtime: Dict[int, _RuntimeNode] = {}
        types: Dict[int, frozenset] = {}  # event types a node binds
        for node in plan.nodes:  # topological: children precede parents
            rt = _RuntimeNode(node, self.metrics, self._held)
            runtime[node.index] = rt
            if isinstance(node, SharedLeaf):
                types[node.index] = frozenset((node.event_type,))
                if node.kleene:
                    rt.kleene = frozenset((node.variable,))
            elif isinstance(node, SharedJoin):
                left_types = types[node.left.index]
                right_types = types[node.right.index]
                types[node.index] = left_types | right_types
                rt.overlap = not left_types.isdisjoint(right_types)
                rt.kleene = frozenset(
                    node.left_map[v]
                    for v in runtime[node.left.index].kleene
                ) | frozenset(
                    node.right_map[v]
                    for v in runtime[node.right.index].kleene
                )
        for node in plan.nodes:
            if isinstance(node, SharedJoin):
                parent = runtime[node.index]
                left = runtime[node.left.index]
                right = runtime[node.right.index]
                # Cross-predicates live in the join's namespace; the
                # inverted edge renamings key each child store directly
                # over its own representative bindings.
                from_left, from_right = join_paths(
                    node.cross_predicates,
                    node.left_map.values(),
                    node.right_map.values(),
                    parent.kleene,
                    left.store,
                    right.store,
                    self.metrics,
                    indexed=indexed,
                    codegen=codegen,
                    left_rename={pv: cv for cv, pv in node.left_map.items()},
                    right_rename={pv: cv for cv, pv in node.right_map.items()},
                )
                left.parents.append(
                    _Edge(parent, node.left_map, node.right_map, from_left)
                )
                right.parents.append(
                    _Edge(parent, node.right_map, node.left_map, from_right)
                )
        self._nodes = [runtime[node.index] for node in plan.nodes]
        self._leaves = [
            runtime[node.index]
            for node in plan.nodes
            if isinstance(node, SharedLeaf)
        ]
        self._states: List[_QueryState] = []
        for root in plan.roots:
            state = _QueryState(root, self._held)
            runtime[root.node.index].states.append(state)
            self._states.append(state)
        # The watermark gate uses the shortest window (a query's window
        # is its root node's): its cutoff is the latest, so while it has
        # not passed the watermark nothing with any window can expire.
        self._shortest_window = min(node.spec.window for node in self._nodes)
        if compiled:
            self._compile_kernels()

    def _compile_kernels(self) -> None:
        """Fuse leaf filters and every edge's access-path predicate lists
        into compiled kernels, DAG renamings resolved at compile time."""
        for leaf in self._leaves:
            spec = leaf.spec
            if spec.filters:
                leaf.admit_kernel = compile_event_kernel(
                    spec.filters,
                    spec.variable,
                    self.metrics,
                    count="all",
                    codegen=self.codegen,
                )
        for node in self._nodes:
            for edge in node.parents:
                edge.path.compile()

    # -- plan-DAG tracing ----------------------------------------------------
    def set_tracer(self, tracer) -> None:
        """Attach (or detach, with ``None``) a
        :class:`~repro.observe.trace.Tracer`.  Tracing only counts and
        times — the per-query match lists are byte-identical either way
        (asserted by the equivalence tests)."""
        self._tracer = tracer
        self._register_trace_nodes()

    def _register_trace_nodes(self) -> None:
        """One :class:`~repro.observe.trace.NodeStat` per shared node."""
        tracer = self._tracer
        if tracer is None:
            for node in self._nodes:
                node.tstat = None
            return
        for node in self._nodes:
            spec = node.spec
            if isinstance(spec, SharedLeaf):
                label, kind = spec.variable, "leaf"
            else:
                variables = sorted(
                    set(spec.left_map.values()) | set(spec.right_map.values())
                )
                label = "join(" + ",".join(variables) + ")"
                kind = "join"
            node.tstat = tracer.register_node(label, kind, engine="multiquery")

    # -- public API ---------------------------------------------------------
    def process(self, event: Event) -> List[Match]:
        """Feed one event; return the matches it completed, all queries."""
        self.metrics.events_processed += 1
        self._event_wall_started = time.perf_counter()
        self._now = now = event.timestamp

        tracing = self._tracer is not None
        matches: List[Match] = []
        held = self._held
        if now - self._shortest_window > held.oldest:
            held.oldest = float("inf")  # each expire / prune re-reports
            if not tracing:
                for node in self._nodes:
                    node.store.expire(now - node.spec.window)
            else:
                for node in self._nodes:
                    node.tstat.expired += node.store.expire(
                        now - node.spec.window
                    )
            for state in self._states:
                state.checker.prune(now - state.window)
        if held.pending:
            for state in self._states:
                if state.checker.pending:
                    matches.extend(
                        state.checker.release(now, partial(self._emit, state))
                    )
        for state in self._states:
            if state.checker.active:
                state.checker.offer_against(event)

        queue: List[Tuple[PartialMatch, _RuntimeNode]] = []
        for leaf in self._leaves:
            spec = leaf.spec
            if event.type != spec.event_type:
                continue
            if leaf.admit_kernel is not None:
                if not leaf.admit_kernel(event):
                    continue
            elif spec.filters:
                self.metrics.predicate_evaluations += len(spec.filters)
                if not all(
                    p.evaluate({spec.variable: event}) for p in spec.filters
                ):
                    continue
            if tracing:
                leaf.tstat.events += 1
            if spec.kleene:
                queue.append(
                    (PartialMatch.kleene_singleton(spec.variable, event), leaf)
                )
                queue.extend(self._absorptions(leaf, event))
            else:
                queue.append(
                    (PartialMatch.singleton(spec.variable, event), leaf)
                )

        matches.extend(self._cascade(queue))
        self.metrics.note_state(
            held.partial_matches + held.pending, held.events
        )
        return matches

    def run(self, stream: Stream) -> Dict[str, List[Match]]:
        """Process a whole stream; per-query match lists, keyed by name."""
        matches: List[Match] = []
        for event in stream:
            matches.extend(self.process(event))
        matches.extend(self.finalize())
        return group_by_query(self.plan.query_names, matches)

    def finalize(self) -> List[Match]:
        """Flush pending (trailing-negation) matches of every query."""
        matches: List[Match] = []
        for state in self._states:
            matches.extend(state.finalize(self))
        return matches

    # -- cascade ------------------------------------------------------------
    def _cascade(
        self, seed: List[Tuple[PartialMatch, _RuntimeNode]]
    ) -> List[Match]:
        matches: List[Match] = []
        queue = list(seed)
        tracing = self._tracer is not None
        while queue:
            pm, node = queue.pop()
            self.metrics.partial_matches_created += 1
            if tracing:
                node.tstat.created += 1
            for state in node.states:
                match = state.complete(pm, self._now, self)
                if match is not None:
                    matches.append(match)
                    if tracing:
                        node.tstat.matches += 1
            if node.parents:
                node.store.insert(pm)
                if tracing:
                    # Pairing work belongs to the parent join node.
                    for edge in node.parents:
                        queue.extend(
                            traced(
                                self, edge.parent.tstat, self._pairings,
                                pm, edge,
                            )
                        )
                else:
                    for edge in node.parents:
                        queue.extend(self._pairings(pm, edge))
        return matches

    def _pairings(
        self, pm: PartialMatch, edge: _Edge, stat=None
    ) -> List[Tuple[PartialMatch, _RuntimeNode]]:
        """Combine a new instance with earlier instances of the sibling,
        found through the edge's access path."""
        candidates, predicates, kernel = edge.path.candidates(
            pm.bindings, pm.trigger_seq
        )
        if stat is not None:
            candidates = list(candidates)
            stat.probed += len(candidates)
        created: List[Tuple[PartialMatch, _RuntimeNode]] = []
        parent = edge.parent
        for other in candidates:
            merged = self._try_merge(
                pm,
                edge.my_map,
                other,
                edge.other_map,
                parent,
                predicates,
                kernel,
            )
            if merged is not None:
                created.append((merged, parent))
        return created

    def _try_merge(
        self,
        pm: PartialMatch,
        my_map: dict,
        other: PartialMatch,
        other_map: dict,
        parent: _RuntimeNode,
        predicates,
        kernel,
    ) -> Optional[PartialMatch]:
        if parent.overlap and pm.event_seqs() & other.event_seqs():
            return None
        min_ts = min(pm.min_ts, other.min_ts)
        max_ts = max(pm.max_ts, other.max_ts)
        if max_ts - min_ts > parent.spec.window:
            return None
        if kernel is not INTERPRET:
            # Compiled: evaluate over the two child bindings (renamings
            # resolved at compile time) and build the parent-namespace
            # dict only for survivors.
            if kernel is not None and not kernel(pm.bindings, other.bindings):
                return None
        bindings = {my_map[k]: v for k, v in pm.bindings.items()}
        for k, v in other.bindings.items():
            bindings[other_map[k]] = v
        merged = PartialMatch(
            bindings,
            max(pm.trigger_seq, other.trigger_seq),
            min_ts,
            max_ts,
        )
        if kernel is not INTERPRET:
            return merged
        for predicate in predicates:
            self.metrics.predicate_evaluations += 1
            if not predicate.evaluate(merged.bindings):
                return None
        return merged

    def _absorptions(
        self, leaf: _RuntimeNode, event: Event
    ) -> List[Tuple[PartialMatch, _RuntimeNode]]:
        """Grow Kleene tuples buffered at a shared leaf."""
        spec = leaf.spec
        limit = self.max_kleene_size
        created: List[Tuple[PartialMatch, _RuntimeNode]] = []
        for pm in leaf.store:
            value = pm.bindings[spec.variable]
            if limit is not None and len(value) >= limit:
                continue
            if pm.contains_seq(event.seq):
                continue
            if not pm.span_with(event, spec.window):
                continue
            created.append((pm.kleene_extended(spec.variable, event), leaf))
        return created

    # -- accounting ----------------------------------------------------------
    def _emit(
        self, state: _QueryState, qpm: PartialMatch, detection_ts: float
    ) -> Match:
        wall = time.perf_counter() - self._event_wall_started
        match = Match(
            qpm,
            detection_ts,
            pattern_name=state.query,
            wall_latency=wall,
        )
        state.matches_emitted += 1
        self.metrics.note_match(match.latency, wall)
        return match

    def live_partial_matches(self) -> int:
        return self._held.partial_matches

    # -- retraction deltas (repro.streams.disorder) --------------------------
    @property
    def selection(self) -> str:
        """Skip-till-any-match, always — the only supported strategy."""
        return "any"

    @property
    def window(self) -> float:
        """Largest query window: how far one event's influence reaches."""
        return max(state.window for state in self._states)

    def negation_event_types(self) -> frozenset:
        """Event types any query's negation specs forbid (delta routing)."""
        return frozenset(
            prepared.spec.event_type
            for state in self._states
            for prepared in state.checker.prepared
        )

    def retract_seq(self, seq: int) -> None:
        """Remove every trace of the event with sequence number ``seq``.

        Tombstones instances binding it at every shared node, evicts it
        from every query's negation candidate buffers, and kills pending
        matches built on it — the multi-query counterpart of
        :meth:`~repro.engines.base.BaseEngine.retract_seq`, with the
        same exactness contract (any-selection, non-negation-relevant
        events; everything else replays).
        """
        seqs = frozenset((seq,))
        for node in self._nodes:
            node.store.purge_seqs(seqs)
        for state in self._states:
            checker = state.checker
            checker.retract(seq)
            if checker.pending:
                checker.keep_pending(
                    [e for e in checker.pending if not e.pm.contains_seq(seq)]
                )
        self.metrics.retractions_processed += 1

    def per_query_matches(self) -> Dict[str, int]:
        """Matches emitted so far, by query name."""
        counts: Dict[str, int] = {}
        for state in self._states:
            counts[state.query] = (
                counts.get(state.query, 0) + state.matches_emitted
            )
        return counts

    def __repr__(self) -> str:
        return (
            f"MultiQueryEngine({len(self.plan.query_names)} queries, "
            f"{len(self._nodes)} DAG nodes)"
        )


@dataclass
class WorkloadResult:
    """Everything :func:`run_workload` produces for one execution."""

    matches: Dict[str, List[Match]]
    metrics: EngineMetrics
    plan: SharedPlan
    engine: MultiQueryEngine
    wall_seconds: float = 0.0
    events: int = 0

    @property
    def report(self):
        return self.plan.report

    @property
    def throughput(self) -> float:
        """Primitive events per second of wall time, workload-wide."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.events / self.wall_seconds

    def total_matches(self) -> int:
        return sum(len(m) for m in self.matches.values())
