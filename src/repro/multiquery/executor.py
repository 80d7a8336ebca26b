"""The plan-DAG runtime: every tree plan, disjunction and workload.

:class:`DagEngine` runs a :class:`~repro.multiquery.sharing.SharedPlan`
— join nodes plus one or more roots — as a
:class:`~repro.engines.base.BaseEngine` runtime: a tree plan lowered to
one root (the instance-based ZStream runtime of Section 2.3, with
sliding windows), a disjunction to one root per DNF disjunct (Section
5.4), and a workload (:class:`MultiQueryEngine`) to one root per query.

Every node stores *instances* — partial matches over its leaf
variables.  An event creates an instance at each leaf admitting it; a
new instance is combined with the earlier instances of its sibling
along *every* parent edge, each edge renaming into the parent's
namespace, and results propagate eagerly upward.  A shared node admits
and combines once per event however many roots read it, and the
trigger discipline (combine only with strictly earlier instances) forms
each combination exactly once, so every root reports exactly the
matches of its pattern run alone.  Leaf stores are the event buffers
(``PM(l) = W·r_i``, Section 4.2).

A bounded negation check (Section 5.3) sits at the lowest node that
covers its variables and that only its own root reads through identity
renamings; failing that it runs on the complete match, which is exact
on a timestamp-ordered stream.  The restrictive selection strategies
consume events per root — own consumed set, first pairing only, purges
of the root's stores — so they need every node private to one root.
Each edge probes its sibling's store through an
:class:`~repro.engines.access.AccessPath` from
:func:`~repro.engines.access.join_paths`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..engines.access import AccessPath, join_paths
from ..engines.base import INTERPRET, SELECTION_ANY, BaseEngine, Root, traced
from ..engines.matches import Match, PartialMatch
from ..engines.metrics import EngineMetrics
from ..engines.stores import PartialMatchStore
from ..errors import EngineError
from ..events import Event, Stream
from ..patterns.compile import compile_event_kernel
from .sharing import SharedJoin, SharedLeaf, SharedPlan


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


class _Edge:
    """One parent hookup of a DAG node: the renamings into the parent's
    namespace plus the access path into the sibling's store."""

    __slots__ = ("parent", "my_map", "other_map", "identity", "path")

    def __init__(self, parent, my_map, other_map, path: AccessPath) -> None:
        self.parent = parent
        self.my_map = my_map
        self.other_map = other_map
        # Both renamings identity: merge the two binding dicts as is.
        self.identity = all(
            k == v for m in (my_map, other_map) for k, v in m.items()
        )
        self.path = path


class _RuntimeNode:
    """Mutable state attached to one DAG node."""

    __slots__ = (
        "spec", "store", "window", "parents", "roots", "owner", "identity",
        "negation", "consumed", "kleene", "overlap", "admit_kernel",
        "tstat",
    )

    def __init__(self, spec, store: PartialMatchStore) -> None:
        self.spec = spec
        self.store = store
        self.window = spec.window
        self.parents: List[_Edge] = []
        # Roots completing at this node.
        self.roots: List[Root] = []
        # The one root reading this node (None: several, or through
        # more than one edge), and whether every renaming on the way to
        # it is the identity — bindings here use the root's names.
        self.owner: Optional[Root] = None
        self.identity = False
        # Bounded negation specs of ``owner`` checked here (Section 5.3).
        self.negation: list = []
        # The owner's consumed events (restrictive strategies).
        self.consumed: set = set()
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


class DagEngine(BaseEngine):
    """Instance-based evaluation of a plan DAG with one or more roots.

    ``run``/``process`` return flat match lists; each :class:`Match`
    carries its root's name in ``pattern_name``.  ``metrics`` counts
    each shared evaluation once — with sharing,
    ``partial_matches_created`` and ``predicate_evaluations`` are
    exactly the multi-query win.
    """

    def __init__(
        self,
        plan: SharedPlan,
        selection: str = SELECTION_ANY,
        max_kleene_size: Optional[int] = None,
        indexed: bool = True,
        compiled: bool = True,
        codegen: bool = True,
    ) -> None:
        super().__init__(
            [(root.query, root.decomposed) for root in plan.roots],
            selection=selection,
            max_kleene_size=max_kleene_size,
            indexed=indexed,
            compiled=compiled,
            codegen=codegen,
        )
        self.plan = plan
        runtime: Dict[int, _RuntimeNode] = {}
        types: Dict[int, frozenset] = {}  # event types a node binds
        for node in plan.nodes:  # topological: children precede parents
            rt = _RuntimeNode(
                node, PartialMatchStore(self.metrics, self._held, node.window)
            )
            runtime[node.index] = rt
            if isinstance(node, SharedLeaf):
                types[node.index] = frozenset((node.event_type,))
                if node.kleene:
                    rt.kleene = frozenset((node.variable,))
            else:
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
                self._access_paths += (from_left, from_right)
        self._nodes = [runtime[node.index] for node in plan.nodes]
        self._stores = [node.store for node in self._nodes]
        for query_root, root in zip(plan.roots, self._roots):
            if any(k != v for k, v in query_root.rename.items()):
                root.rename = dict(query_root.rename)
            runtime[query_root.node.index].roots.append(root)
        self._place_owners()
        self._leaves_by_type: Dict[str, List[_RuntimeNode]] = {}
        for node in self._nodes:
            if isinstance(node.spec, SharedLeaf):
                self._leaves_by_type.setdefault(
                    node.spec.event_type, []
                ).append(node)
        if compiled:
            self._recompile_kernels()

    # -- construction --------------------------------------------------------
    def _place_owners(self) -> None:
        """Find each node's single reading root, hand it the root's
        consumed set and stores, and place bounded negation specs at the
        lowest owned node covering them (Section 5.3)."""
        for node in reversed(self._nodes):  # parents before children
            if len(node.roots) + len(node.parents) != 1:
                continue
            if node.roots:
                node.owner = node.roots[0]
                node.identity = node.owner.rename is None
            else:
                edge = node.parents[0]
                node.owner = edge.parent.owner
                node.identity = edge.parent.identity and all(
                    k == v for k, v in edge.my_map.items()
                )
        for node in self._nodes:
            root = node.owner
            if root is not None:
                node.consumed = root.consumed
                root.stores.append(node.store)
            elif self._consuming:
                raise EngineError(
                    f"selection {self.selection!r} consumes events per "
                    "root, so every DAG node must be private to one root"
                )
        for root in self._roots:
            for prepared in root.checker.prepared:
                if prepared.trailing or not prepared.spec.preceding:
                    continue  # pending set / leading NOT: at completion
                covering = [
                    node
                    for node in self._nodes
                    if node.owner is root
                    and node.identity
                    and prepared.required <= set(node.spec.variables)
                ]
                if covering:
                    lowest = min(
                        covering, key=lambda n: len(n.spec.variables)
                    )
                    lowest.negation.append(prepared)
                else:
                    root.checks.append(prepared)

    def _recompile_kernels(self) -> None:
        """Fuse leaf filters and every edge's access-path predicate lists
        into compiled kernels, DAG renamings resolved at compile time."""
        tracker, keys = self._sel_tracker, self._sel_key_by_pred
        for node in self._nodes:
            spec = node.spec
            if isinstance(spec, SharedLeaf) and spec.filters:
                node.admit_kernel = compile_event_kernel(
                    spec.filters,
                    spec.variable,
                    self.metrics,
                    count="all",
                    tracker=tracker,
                    sel_key_by_pred=keys,
                    codegen=self.codegen,
                )
            for edge in node.parents:
                edge.path.compile(tracker, keys)

    def _register_trace_nodes(self) -> None:
        """One :class:`~repro.observe.trace.NodeStat` per DAG node."""
        tracer = self._tracer
        if tracer is None:
            for node in self._nodes:
                node.tstat = None
            self._expiry_stats = None
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
            node.tstat = tracer.register_node(label, kind, engine="dag")
        self._expiry_stats = [node.tstat for node in self._nodes]

    # -- event loop ------------------------------------------------------------
    def _admit(self, event: Event) -> List[_RuntimeNode]:
        """Type + unary-filter admission (leaf stores are the buffers)."""
        leaves = self._leaves_by_type.get(event.type)
        if leaves is None:
            return []
        admitted = []
        for leaf in leaves:
            kernel = leaf.admit_kernel
            if kernel is not None:
                if not kernel(event):
                    continue
            elif leaf.spec.filters:
                variable, filters = leaf.spec.variable, leaf.spec.filters
                self.metrics.predicate_evaluations += len(filters)
                for p in filters:
                    passed = p.evaluate({variable: event})
                    if self._sel_tracker is not None:
                        self._observe_predicate(p, passed)
                    if not passed:
                        break
                else:
                    admitted.append(leaf)
                continue
            admitted.append(leaf)
        return admitted

    def _arrive(
        self, event: Event, admitted: List[_RuntimeNode]
    ) -> List[Match]:
        tracing = self._tracer is not None
        queue: List[Tuple[PartialMatch, _RuntimeNode]] = []
        for leaf in admitted:
            if tracing:
                leaf.tstat.events += 1
            if event.seq in leaf.consumed:
                continue
            variable = leaf.spec.variable
            if leaf.spec.kleene:
                queue.append(
                    (PartialMatch.kleene_singleton(variable, event), leaf)
                )
                if not self._consuming:
                    queue.extend(self._absorptions(leaf, event))
            else:
                queue.append((PartialMatch.singleton(variable, event), leaf))
        return self._cascade(queue)

    def _absorptions(
        self, leaf: _RuntimeNode, event: Event
    ) -> List[Tuple[PartialMatch, _RuntimeNode]]:
        """Grow the Kleene tuples buffered at a leaf with the arriving
        event (admission already applied the leaf's filters to it)."""
        variable = leaf.spec.variable
        limit = self.max_kleene_size
        created: List[Tuple[PartialMatch, _RuntimeNode]] = []
        for pm in leaf.store:
            if limit is not None and len(pm.bindings[variable]) >= limit:
                continue
            if pm.contains_seq(event.seq):
                continue
            if not pm.span_with(event, leaf.window):
                continue
            created.append((pm.kleene_extended(variable, event), leaf))
        return created

    # -- cascade ------------------------------------------------------------
    def _cascade(
        self, seed: List[Tuple[PartialMatch, _RuntimeNode]]
    ) -> List[Match]:
        matches: List[Match] = []
        queue = list(seed)
        tracing = self._tracer is not None
        metrics = self.metrics
        while queue:
            pm, node = queue.pop()
            metrics.partial_matches_created += 1
            if tracing:
                node.tstat.created += 1
            if node.negation:
                violated = node.owner.checker.violated
                if any(violated(prepared, pm) for prepared in node.negation):
                    continue
            for root in node.roots:
                match = self._complete(root, pm)
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
            merged = self._try_merge(pm, other, edge, predicates, kernel)
            if merged is not None:
                created.append((merged, parent))
                if self._consuming:
                    break  # restrictive strategies: first pairing only
        return created

    def _try_merge(
        self,
        pm: PartialMatch,
        other: PartialMatch,
        edge: _Edge,
        predicates,
        kernel,
    ) -> Optional[PartialMatch]:
        parent = edge.parent
        if parent.overlap and pm.event_seqs() & other.event_seqs():
            return None
        min_ts = min(pm.min_ts, other.min_ts)
        max_ts = max(pm.max_ts, other.max_ts)
        if max_ts - min_ts > parent.window:
            return None
        consumed = parent.consumed
        if consumed and (
            pm.event_seqs() & consumed or other.event_seqs() & consumed
        ):
            return None
        if kernel is not INTERPRET:
            # Compiled: evaluate over the two child bindings (renamings
            # resolved at compile time) and merge only on success.
            if kernel is not None and not kernel(pm.bindings, other.bindings):
                return None
        trigger_seq = max(pm.trigger_seq, other.trigger_seq)
        if edge.identity:
            merged = pm.merged(other, trigger_seq)
        else:
            my_map, other_map = edge.my_map, edge.other_map
            bindings = {my_map[k]: v for k, v in pm.bindings.items()}
            for k, v in other.bindings.items():
                bindings[other_map[k]] = v
            merged = PartialMatch(bindings, trigger_seq, min_ts, max_ts)
        if kernel is not INTERPRET:
            return merged
        for predicate in predicates:
            self.metrics.predicate_evaluations += 1
            passed = predicate.evaluate(merged.bindings)
            if self._sel_tracker is not None:
                self._observe_predicate(predicate, passed)
            if not passed:
                return None
        return merged

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({len(self._roots)} roots, "
            f"{len(self._nodes)} DAG nodes, selection={self.selection!r})"
        )


class MultiQueryEngine(DagEngine):
    """Executes a workload's shared plan over a single stream.

    ``run`` returns a mapping from query name to that query's matches;
    ``process`` returns the flat per-event match list (each
    :class:`Match` carries its query in ``pattern_name``).
    """

    def run(self, stream: Stream) -> Dict[str, List[Match]]:
        """Process a whole stream; per-query match lists, keyed by name."""
        return group_by_query(self.plan.query_names, super().run(stream))

    def per_query_matches(self) -> Dict[str, int]:
        """Matches emitted so far, by query name."""
        counts: Dict[str, int] = {}
        for root in self._roots:
            counts[root.name] = counts.get(root.name, 0) + root.matches
        return counts


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
