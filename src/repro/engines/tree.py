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

Every node's store is a :class:`~repro.engines.stores.PartialMatchStore`
on the engine's one list of stores, expired by the base engine's
watermark-gated sweep.  How a child's new instance finds
its partners in the sibling's store — hash bucket, theta bisect or scan,
and which predicates remain to check — is the child's
:class:`~repro.engines.access.AccessPath`, built by
:func:`~repro.engines.access.join_paths`.  None of this changes which
instances exist — only how they are reached.
"""

from __future__ import annotations

from typing import Optional

from ..errors import EngineError
from ..events import Event
from ..patterns.compile import compile_event_kernel, compile_extension_kernel
from ..patterns.transformations import DecomposedPattern
from ..plans.tree_plan import TreeNode, TreePlan
from .access import AccessPath, join_paths
from .base import INTERPRET, SELECTION_ANY, BaseEngine, traced
from .matches import Match, PartialMatch
from .negation import PreparedSpec
from .stores import PartialMatchStore


class _RuntimeNode:
    """Mutable runtime state attached to one plan node."""

    __slots__ = (
        "plan_node",
        "variables",
        "parent",
        "store",
        "path",
        "negation_specs",
        "is_leaf",
        "variable",
        "absorb_kernel",
        "tstat",
        "overlap",
    )

    def __init__(self, plan_node: TreeNode) -> None:
        self.plan_node = plan_node
        self.variables = frozenset(plan_node.leaf_variables)
        self.parent: Optional["_RuntimeNode"] = None
        self.store: PartialMatchStore = None  # set by TreeEngine._build
        # How this node's new instances find their earlier partners in
        # the sibling's store (None at the root).
        self.path: Optional[AccessPath] = None
        # Join nodes: an event type on both sides, so pairings must
        # check that the two instances share no event.
        self.overlap = False
        self.negation_specs: list[PreparedSpec] = []
        self.is_leaf = plan_node.is_leaf
        self.variable = plan_node.variable
        # Per-node trace counters (repro.observe); None without a tracer.
        self.tstat = None
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
        runtime.store = PartialMatchStore(self.metrics, self._held)
        self._nodes.append(runtime)
        self._stores.append(runtime.store)
        if plan_node.is_leaf:
            self._leaf_for[plan_node.variable] = runtime
        else:
            left = self._build(plan_node.left, runtime)
            right = self._build(plan_node.right, runtime)
            left_set = left.variables
            right_set = right.variables
            runtime.overlap = not {
                self._types[v] for v in left_set
            }.isdisjoint(self._types[v] for v in right_set)
            cross_predicates = [
                p
                for p in self._conditions
                if len(p.variables) == 2
                and (
                    (p.variables[0] in left_set and p.variables[1] in right_set)
                    or (p.variables[0] in right_set and p.variables[1] in left_set)
                )
            ]
            left.path, right.path = join_paths(
                cross_predicates,
                left_set,
                right_set,
                self._kleene,
                left.store,
                right.store,
                self.metrics,
                indexed=self.indexed,
                codegen=self.codegen,
            )
            self._access_paths += (left.path, right.path)
        return runtime

    def _recompile_kernels(self) -> None:
        """Fuse per-node predicate lists into compiled kernels: admission
        filters per variable, each child's join access path, and leaf
        Kleene absorption checks."""
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
            if node.path is not None:
                node.path.compile(tracker, self._sel_key_by_pred)
            if node.is_leaf and node.variable in self._kleene:
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
            self._expiry_stats = None
            return
        for node in self._nodes:
            if node.is_leaf:
                label, kind = node.variable, "leaf"
            else:
                label = "join(" + ",".join(sorted(node.variables)) + ")"
                kind = "join"
            node.tstat = tracer.register_node(label, kind, engine="tree")
        self._expiry_stats = [node.tstat for node in self._nodes]

    # -- event loop ------------------------------------------------------------
    def _arrive(self, event: Event, admitted: list[str]) -> list[Match]:
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
        return self._cascade(queue)

    def _admit(self, event: Event) -> list[str]:
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
                # Pairing work belongs to the parent join node.
                queue.extend(
                    traced(self, node.parent.tstat, self._pairings, pm, node)
                )
            else:
                queue.extend(self._pairings(pm, node))
        return matches

    def _pairings(
        self, pm: PartialMatch, node: _RuntimeNode, stat=None
    ) -> list[tuple[PartialMatch, _RuntimeNode]]:
        """Combine a new instance with earlier sibling instances, found
        through the node's access path (:mod:`repro.engines.access`)."""
        parent = node.parent
        candidates, predicates, kernel = node.path.candidates(
            pm.bindings, pm.trigger_seq
        )
        if stat is not None:
            candidates = list(candidates)
            stat.probed += len(candidates)
        created: list[tuple[PartialMatch, _RuntimeNode]] = []
        overlap = parent.overlap
        for other in candidates:
            merged = self._try_merge(pm, other, predicates, kernel, overlap)
            if merged is not None:
                created.append((merged, parent))
                if self._consuming:
                    break  # restrictive strategies: first pairing only
        return created

    def _try_merge(
        self,
        pm: PartialMatch,
        other: PartialMatch,
        predicates: list,
        kernel,
        overlap: bool,
    ) -> Optional[PartialMatch]:
        if overlap and pm.event_seqs() & other.event_seqs():
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

    def __repr__(self) -> str:
        return f"TreeEngine(plan={self.plan!r}, selection={self.selection!r})"
