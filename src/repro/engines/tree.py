"""Tree-based evaluation: the instance-based ZStream runtime (Section 2.3).

Every node of the :class:`~repro.plans.TreePlan` keeps a store of
*instances* (partial matches over the node's leaf variables).  A new
event creates an instance at its leaf; whenever an instance is created at
node ``N``, it is combined with the previously created instances buffered
at ``sibling(N)`` — cross-predicates and window permitting — producing
instances at ``parent(N)``, recursively up to the root, where full
matches are reported.

This is the paper's modification of ZStream from batch iteration to
arbitrary sliding windows: one instance per partial match, eager
propagation on arrival.  The trigger discipline (combine only with
strictly earlier instances) forms each combination exactly once; both
engines therefore report identical match sets — an invariant the
integration tests assert.

Leaf stores *are* the event buffers here, which matches the tree cost
model: a leaf contributes ``PM(l) = W·r_i`` (Section 4.2), so leaf
instances are counted as partial matches rather than as buffered events.

Every node's store is a :class:`~repro.engines.stores.PartialMatchStore`:
``Attr == Attr`` cross-predicates of a join hash-partition both child
stores at build time (``_pairings`` probes one bucket instead of
scanning the sibling), window expiry is watermark-gated with a bisected
prefix drop, and the strictly-earlier trigger bound is a binary search.
None of this changes which instances exist — only how they are reached.
"""

from __future__ import annotations

from typing import Optional

from ..errors import EngineError
from ..events import Event
from ..patterns.compile import (
    compile_event_kernel,
    compile_extension_kernel,
    compile_merge_kernel,
)
from ..patterns.predicates import Predicate
from ..patterns.transformations import DecomposedPattern
from ..plans.tree_plan import TreeNode, TreePlan
from .base import INTERPRET, SELECTION_ANY, BaseEngine
from .matches import Match, PartialMatch
from .negation import PreparedSpec
from .stores import (
    EMPTY_RANGE,
    NO_BOUND,
    PartialMatchStore,
    equality_key_pairs,
    make_key_fn,
    make_value_fn,
    probe_key,
    range_key_pairs,
    range_probe_value,
)


class _RuntimeNode:
    """Mutable runtime state attached to one plan node."""

    __slots__ = (
        "plan_node",
        "variables",
        "parent",
        "sibling",
        "store",
        "cross_predicates",
        "residual_predicates",
        "negation_specs",
        "is_leaf",
        "variable",
        "probe_index",
        "probe_key_of",
        "probe_bound_of",
        "range_predicate",
        "merge_full",
        "merge_resid",
        "absorb_kernel",
        "tstat",
    )

    def __init__(self, plan_node: TreeNode) -> None:
        self.plan_node = plan_node
        self.variables = frozenset(plan_node.leaf_variables)
        self.parent: Optional["_RuntimeNode"] = None
        self.sibling: Optional["_RuntimeNode"] = None
        self.store: PartialMatchStore = None  # set by TreeEngine._build
        self.cross_predicates: list[Predicate] = []
        # cross_predicates minus the equalities the hash index already
        # guarantees; evaluated on bucket candidates (scans use the full
        # list).
        self.residual_predicates: list[Predicate] = []
        self.negation_specs: list[PreparedSpec] = []
        self.is_leaf = plan_node.is_leaf
        self.variable = plan_node.variable
        # Access path into sibling.store (see repro.engines.stores):
        # probe_key_of maps this node's bindings to the probe key,
        # probe_bound_of to the theta bound; probe_index is the handle
        # registered on the sibling's store.
        self.probe_index: Optional[int] = None
        self.probe_key_of = None
        self.probe_bound_of = None
        # The extracted theta predicate behind probe_bound_of, kept so
        # bisect-excluded candidates can be reported to a selectivity
        # tracker as failed evaluations of exactly this predicate.
        self.range_predicate: Optional[Predicate] = None
        # Per-node trace counters (repro.observe); None without a tracer.
        self.tstat = None
        # Compiled kernels (repro.patterns.compile), oriented with this
        # node's instance on the left and the sibling's on the right.
        self.merge_full = INTERPRET
        self.merge_resid = INTERPRET
        # Leaf Kleene absorption kernel (unary predicates re-checked on
        # the new element, matching the interpreted path).
        self.absorb_kernel = INTERPRET


class TreeEngine(BaseEngine):
    """Instance-based tree evaluation following a tree plan."""

    def __init__(
        self,
        decomposed: DecomposedPattern,
        plan: TreePlan,
        selection: str = SELECTION_ANY,
        max_kleene_size: Optional[int] = None,
        pattern_name: Optional[str] = None,
        indexed: bool = True,
        compiled: bool = True,
        codegen: bool = True,
    ) -> None:
        super().__init__(
            decomposed,
            selection=selection,
            max_kleene_size=max_kleene_size,
            pattern_name=pattern_name,
            indexed=indexed,
            compiled=compiled,
            codegen=codegen,
        )
        plan.validate_for(decomposed)
        self.plan = plan
        self._nodes: list[_RuntimeNode] = []
        self._leaf_for: dict[str, _RuntimeNode] = {}
        self._admit_kernels: dict[str, object] = {}
        self._root = self._build(plan.root, None)
        self._attach_negation_specs()
        if compiled:
            self._recompile_kernels()

    # -- construction ------------------------------------------------------
    def _build(
        self, plan_node: TreeNode, parent: Optional[_RuntimeNode]
    ) -> _RuntimeNode:
        runtime = _RuntimeNode(plan_node)
        runtime.parent = parent
        runtime.store = PartialMatchStore(self.metrics)
        self._nodes.append(runtime)
        if plan_node.is_leaf:
            self._leaf_for[plan_node.variable] = runtime
        else:
            left = self._build(plan_node.left, runtime)
            right = self._build(plan_node.right, runtime)
            left.sibling = right
            right.sibling = left
            left_set = left.variables
            right_set = right.variables
            runtime.cross_predicates = [
                p
                for p in self._conditions
                if len(p.variables) == 2
                and (
                    (p.variables[0] in left_set and p.variables[1] in right_set)
                    or (p.variables[0] in right_set and p.variables[1] in left_set)
                )
            ]
            if self.indexed:
                self._index_children(runtime, left, right)
        return runtime

    def _index_children(
        self, runtime: _RuntimeNode, left: _RuntimeNode, right: _RuntimeNode
    ) -> None:
        """Index both child stores on the join's equality + theta keys.

        Each child probes its sibling, so the index on the left store is
        keyed by the left-side attributes and probed with keys computed
        from right-side bindings — and vice versa.  A ``< <= > >=``
        cross-predicate additionally sorts each bucket by its side of
        the comparison, so the probe bisects a value range inside the
        bucket (or inside the whole store when the join has no
        equality).  The extracted predicates remain in
        ``cross_predicates``: the index is only an access path, residual
        evaluation stays exact.
        """
        left_spec, right_spec, extracted = equality_key_pairs(
            runtime.cross_predicates,
            left.variables,
            right.variables,
            self._kleene,
        )
        range_spec = range_key_pairs(
            runtime.cross_predicates,
            left.variables,
            right.variables,
            self._kleene,
        )
        if not left_spec and range_spec is None:
            return
        skip = set(map(id, extracted))
        runtime.residual_predicates = [
            p for p in runtime.cross_predicates if id(p) not in skip
        ]
        left_key = make_key_fn(left_spec, self._kleene)  # None without equalities
        right_key = make_key_fn(right_spec, self._kleene)
        left_val = right_val = None
        left_op = right_op = None
        if range_spec is not None:
            left_item, left_op, right_item, right_op, range_pred = range_spec
            left_val = make_value_fn(left_item)
            right_val = make_value_fn(right_item)
            left.range_predicate = range_pred
            right.range_predicate = range_pred
        left.probe_index = right.store.add_index(
            right_key, value_of=right_val, op=right_op
        )
        left.probe_key_of = left_key
        left.probe_bound_of = left_val
        right.probe_index = left.store.add_index(
            left_key, value_of=left_val, op=left_op
        )
        right.probe_key_of = right_key
        right.probe_bound_of = right_val

    def _recompile_kernels(self) -> None:
        """Fuse per-node predicate lists into compiled kernels: admission
        filters per variable, the join residuals per child orientation,
        and leaf Kleene absorption checks."""
        super()._recompile_kernels()
        tracker = self._sel_tracker
        common = dict(
            tracker=tracker,
            sel_key_by_pred=self._sel_key_by_pred,
            codegen=self.codegen,
        )
        self._admit_kernels = {}
        for variable, _type in self.decomposed.positives:
            filters = self._conditions.filters_for(variable)
            if filters:
                self._admit_kernels[variable] = compile_event_kernel(
                    filters, variable, self.metrics, count="all", **common
                )
        for node in self._nodes:
            if node.is_leaf:
                if node.variable in self._kleene:
                    unary = [
                        p
                        for p in self._preds_by_var[node.variable]
                        if set(p.variables) <= {node.variable}
                    ]
                    node.absorb_kernel = compile_extension_kernel(
                        unary,
                        node.variable,
                        self._kleene,
                        self.metrics,
                        **common,
                    )
                continue
            left, right = None, None
            for child in self._nodes:
                if child.parent is node:
                    if left is None:
                        left = child
                    else:
                        right = child
            for mine, sibling in ((left, right), (right, left)):
                mine.merge_full = compile_merge_kernel(
                    node.cross_predicates,
                    mine.variables,
                    sibling.variables,
                    self._kleene,
                    self.metrics,
                    **common,
                )
                mine.merge_resid = compile_merge_kernel(
                    node.residual_predicates,
                    mine.variables,
                    sibling.variables,
                    self._kleene,
                    self.metrics,
                    **common,
                )

    def _attach_negation_specs(self) -> None:
        """Place each bounded spec at the lowest node covering its deps —
        the NSEQ placement of Section 5.3."""
        if not self._negation.active:
            return
        for prepared in self._negation.prepared:
            if prepared.trailing:
                continue  # handled by the pending mechanism at the root
            if not prepared.spec.preceding:
                continue  # leading NOT: exact only on the full match,
                # checked in _complete (the range starts at max_ts − W)
            target: Optional[_RuntimeNode] = None
            for node in self._nodes:
                if prepared.required <= node.variables:
                    if target is None or len(node.variables) < len(
                        target.variables
                    ):
                        target = node
            if target is None:
                raise EngineError(
                    f"negation spec {prepared.spec} references variables "
                    "outside the plan"
                )
            target.negation_specs.append(prepared)

    def _register_trace_nodes(self) -> None:
        """One :class:`~repro.observe.trace.NodeStat` per plan node."""
        tracer = self._tracer
        if tracer is None:
            for node in self._nodes:
                node.tstat = None
            return
        for node in self._nodes:
            if node.is_leaf:
                label, kind = node.variable, "leaf"
            else:
                label = "join(" + ",".join(sorted(node.variables)) + ")"
                kind = "join"
            node.tstat = tracer.register_node(label, kind, engine="tree")

    # -- event loop ------------------------------------------------------------
    def process(self, event: Event) -> list[Match]:
        matches = self._advance_time(event)
        self._expire_instances()
        self._offer_negations(event)
        admitted = self._admissible_variables(event)
        if not admitted:
            self._note_state()
            return matches
        if self._tracer is not None:
            for variable in admitted:
                self._leaf_for[variable].tstat.events += 1

        queue: list[tuple[PartialMatch, _RuntimeNode]] = []
        for variable in admitted:
            node = self._leaf_for[variable]
            if event.seq in self._consumed:
                continue
            if variable in self._kleene:
                queue.append(
                    (PartialMatch.kleene_singleton(variable, event), node)
                )
                if not self._consuming:
                    queue.extend(self._absorptions(node, variable, event))
            else:
                queue.append((PartialMatch.singleton(variable, event), node))

        matches.extend(self._cascade(queue))
        self._note_state()
        return matches

    def _admissible_variables(self, event: Event) -> list[str]:
        """Type + unary-filter admission (leaf stores are the buffers)."""
        admitted: list[str] = []
        compiled = self.compiled
        for variable, type_name in self.decomposed.positives:
            if event.type != type_name:
                continue
            if compiled:
                kernel = self._admit_kernels.get(variable)
                if kernel is not None and not kernel(event):
                    continue
                admitted.append(variable)
                continue
            filters = self._conditions.filters_for(variable)
            if filters:
                self.metrics.predicate_evaluations += len(filters)
                ok = True
                for p in filters:
                    passed = p.evaluate({variable: event})
                    if self._sel_tracker is not None:
                        self._observe_predicate(p, passed)
                    if not passed:
                        ok = False
                        break
                if not ok:
                    continue
            admitted.append(variable)
        return admitted

    def _absorptions(
        self, node: _RuntimeNode, variable: str, event: Event
    ) -> list[tuple[PartialMatch, _RuntimeNode]]:
        """Grow Kleene tuples at a leaf with the arriving event."""
        created: list[tuple[PartialMatch, _RuntimeNode]] = []
        kernel = node.absorb_kernel if self.compiled else INTERPRET
        for pm in node.store:
            if not self._kleene_room(pm, variable, self.max_kleene_size):
                continue
            if self._check_extension(pm, variable, event, kernel=kernel):
                created.append((pm.kleene_extended(variable, event), node))
        return created

    # -- cascade ------------------------------------------------------------------
    def _cascade(
        self, seed: list[tuple[PartialMatch, _RuntimeNode]]
    ) -> list[Match]:
        matches: list[Match] = []
        queue = list(seed)
        tracing = self._tracer is not None
        while queue:
            pm, node = queue.pop()
            self.metrics.partial_matches_created += 1
            if tracing:
                node.tstat.created += 1
            if node.negation_specs and not self._node_negation_ok(pm, node):
                continue
            if node is self._root:
                match = self._complete(pm)
                if match is not None:
                    matches.append(match)
                    if tracing:
                        node.tstat.matches += 1
                continue
            node.store.insert(pm)
            if tracing:
                queue.extend(self._traced_pairings(pm, node))
            else:
                queue.extend(self._pairings(pm, node))
        return matches

    def _traced_pairings(
        self, pm: PartialMatch, node: _RuntimeNode
    ) -> list[tuple[PartialMatch, _RuntimeNode]]:
        """Tracer-attached :meth:`_pairings`: wall time and the index
        counter deltas of this pairing are attributed to the parent join
        node (the node whose combination work it is)."""
        parent = node.parent
        if parent is None:
            return self._pairings(pm, node)
        stat = parent.tstat
        metrics = self.metrics
        ip0, ih0 = metrics.index_probes, metrics.index_hits
        rp0, rh0 = metrics.range_probes, metrics.range_hits
        started = self._tracer.clock()
        created = self._pairings(pm, node, stat=stat)
        stat.wall += self._tracer.clock() - started
        stat.index_probes += metrics.index_probes - ip0
        stat.index_hits += metrics.index_hits - ih0
        stat.range_probes += metrics.range_probes - rp0
        stat.range_hits += metrics.range_hits - rh0
        return created

    def _pairings(
        self, pm: PartialMatch, node: _RuntimeNode, stat=None
    ) -> list[tuple[PartialMatch, _RuntimeNode]]:
        """Combine a new instance with earlier sibling instances.

        With an equality index the sibling store yields one hash bucket
        (already bounded to strictly earlier triggers); otherwise the
        trigger bound is still a bisect, never a per-element check.
        """
        sibling = node.sibling
        parent = node.parent
        if sibling is None or parent is None:
            return []
        candidates = None
        predicates = parent.cross_predicates
        kernel = node.merge_full if self.compiled else INTERPRET
        if node.probe_index is not None:
            key = (
                ()
                if node.probe_key_of is None
                else probe_key(node.probe_key_of, pm.bindings)
            )
            if key is not None:
                bound = NO_BOUND
                on_excluded = None
                if node.probe_bound_of is not None:
                    bound = range_probe_value(node.probe_bound_of, pm.bindings)
                    tracked = (
                        self._sel_tracker is not None
                        and node.range_predicate is not None
                    )
                    if bound is EMPTY_RANGE:
                        # The theta predicate rejects every sibling
                        # instance: zero candidates, exactly.  With a
                        # tracker attached those rejections still count
                        # as failed theta evaluations, keeping the
                        # observed selectivity unbiased.
                        if tracked:
                            self._observe_excluded(
                                node.range_predicate,
                                sum(
                                    1
                                    for _ in sibling.store.probe(
                                        node.probe_index,
                                        key,
                                        pm.trigger_seq,
                                    )
                                ),
                            )
                        return []
                    if tracked:
                        on_excluded = self._excluded_observer(
                            node.range_predicate
                        )
                candidates = sibling.store.probe(
                    node.probe_index,
                    key,
                    pm.trigger_seq,
                    bound=bound,
                    on_excluded=on_excluded,
                )
                if node.probe_key_of is not None and sibling.store.index_exact(
                    node.probe_index
                ):
                    # Bucket-guaranteed: skip the extracted equalities.
                    predicates = parent.residual_predicates
                    if self.compiled:
                        kernel = node.merge_resid
        if candidates is None:
            candidates = sibling.store.iter_before(pm.trigger_seq)
        if stat is not None:
            candidates = list(candidates)
            stat.probed += len(candidates)
        created: list[tuple[PartialMatch, _RuntimeNode]] = []
        for other in candidates:
            merged = self._try_merge(pm, other, parent, predicates, kernel)
            if merged is not None:
                created.append((merged, parent))
                if self._consuming:
                    break  # restrictive strategies: first pairing only
        return created

    def _try_merge(
        self,
        pm: PartialMatch,
        other: PartialMatch,
        parent: _RuntimeNode,
        predicates: Optional[list] = None,
        kernel=INTERPRET,
    ) -> Optional[PartialMatch]:
        if pm.event_seqs() & other.event_seqs():
            return None
        if (
            max(pm.max_ts, other.max_ts) - min(pm.min_ts, other.min_ts)
            > self.window
        ):
            return None
        if self._consumed and (
            pm.event_seqs() & self._consumed
            or other.event_seqs() & self._consumed
        ):
            return None
        if kernel is not INTERPRET:
            # Compiled: evaluate against the two existing bindings dicts
            # and merge only on success — no per-candidate dict merge.
            if kernel is not None and not kernel(pm.bindings, other.bindings):
                return None
            return pm.merged(other, max(pm.trigger_seq, other.trigger_seq))
        merged = pm.merged(other, max(pm.trigger_seq, other.trigger_seq))
        if predicates is None:
            predicates = parent.cross_predicates
        for predicate in predicates:
            self.metrics.predicate_evaluations += 1
            passed = predicate.evaluate(merged.bindings)
            if self._sel_tracker is not None:
                self._observe_predicate(predicate, passed)
            if not passed:
                return None
        return merged

    def _node_negation_ok(self, pm: PartialMatch, node: _RuntimeNode) -> bool:
        return not any(
            self._negation.violated(prepared, pm)
            for prepared in node.negation_specs
        )

    # -- housekeeping ---------------------------------------------------------------
    def _expire_instances(self) -> None:
        """Watermark-gated: O(1) per node until something can expire."""
        cutoff = self._now - self.window
        if self._tracer is None:
            for node in self._nodes:
                node.store.expire(cutoff)
        else:
            for node in self._nodes:
                node.tstat.expired += node.store.expire(cutoff)

    def _purge_consumed(self, seqs: frozenset) -> None:
        for node in self._nodes:
            node.store.purge_seqs(seqs)

    def _note_state(self) -> None:
        live = sum(len(node.store) for node in self._nodes) + len(self._pending)
        self.metrics.note_state(live, self._negation.buffered_events())

    # -- introspection ----------------------------------------------------------------
    def live_partial_matches(self) -> int:
        return sum(len(node.store) for node in self._nodes)

    def iter_partial_matches(self):
        """Live instances at every plan node (leaves included — leaf
        stores are the cost-model buffers, see the module docstring)."""
        for node in self._nodes:
            yield from node.store

    def __repr__(self) -> str:
        return f"TreeEngine(plan={self.plan!r}, selection={self.selection!r})"
