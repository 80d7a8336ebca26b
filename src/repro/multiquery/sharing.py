"""Shared-plan optimizer: per-query tree plans -> one global plan DAG.

Input: every query of a :class:`~repro.multiquery.workload.Workload`
planned individually by any algorithm of the :mod:`repro.optimizers`
registry (order plans are promoted to their left-deep tree).  Output: a
:class:`SharedPlan` — a DAG in which equivalent subtrees across (and
within) queries are merged into a single node, plus a
:class:`SharingReport` quantifying the cost saved.

Merging is driven by the canonical fingerprints of
:func:`repro.multiquery.workload.canonical_subpattern`.  Because equal
fingerprints imply identical instance stores (see that module's
docstring), a query can adopt an already-registered node even when its
own optimizer chose a *different interior shape* for the same variable
set — this is the classic multi-query trade of per-query optimality for
shared work (Dossinger & Michel, arXiv:2104.07742, make the same trade
globally).  The ``share_filter`` cost hook vetoes individual merges:
it receives the candidate node and the adopting query's locally optimal
cost for that subtree, and may decline sharing when the adopted shape
is too much worse than the private one.

Node resolution is top-down with memoization, so when a whole subtree
is adopted from another query, none of its private interior nodes are
ever materialized — no orphan work in the DAG.

:func:`lower_plans` is the engine factory's entry: it turns one
pattern's plans — a tree plan, or the DNF disjuncts of a disjunction —
into the same kind of DAG, one root per plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..cost.base import CostModel
from ..cost.throughput import ThroughputCostModel
from ..errors import PlanError
from ..optimizers.planner import Plan, PlannedPattern
from ..patterns.predicates import Predicate
from ..patterns.transformations import DecomposedPattern
from ..plans.order_plan import OrderPlan
from ..plans.tree_plan import TreeNode, TreePlan
from ..stats.catalog import PatternStatistics
from .workload import Fingerprint, canonical_subpattern


class SharedNode:
    """One node of the global plan DAG.

    Runtime bindings at this node use the *representative* namespace:
    the variable names of the first query that materialized the node.
    ``canonical_order`` lists those names in canonical fingerprint
    order, which is what later queries use to derive their renaming.
    ``parents`` holds ``(parent, side)`` edges — a node may feed many
    joins, and both sides of the same join (self-joins merge).
    """

    __slots__ = (
        "index",
        "fingerprint",
        "canonical_order",
        "window",
        "parents",
        "queries",
    )

    def __init__(
        self,
        index: int,
        fingerprint: Fingerprint,
        canonical_order: Tuple[str, ...],
        window: float,
    ) -> None:
        self.index = index
        self.fingerprint = fingerprint
        self.canonical_order = canonical_order
        self.window = window
        self.parents: List[Tuple["SharedJoin", str]] = []
        self.queries: List[str] = []

    @property
    def variables(self) -> Tuple[str, ...]:
        return self.canonical_order

    @property
    def is_shared(self) -> bool:
        """Referenced by more than one (query, position) site."""
        return len(self.queries) > 1


class SharedLeaf(SharedNode):
    """A leaf: one event type, unary filters, optional Kleene closure."""

    __slots__ = ("variable", "event_type", "filters", "kleene")

    def __init__(
        self,
        index: int,
        fingerprint: Fingerprint,
        variable: str,
        event_type: str,
        filters: Tuple[Predicate, ...],
        kleene: bool,
        window: float,
    ) -> None:
        super().__init__(index, fingerprint, (variable,), window)
        self.variable = variable
        self.event_type = event_type
        self.filters = filters
        self.kleene = kleene

    def __repr__(self) -> str:
        closure = "KL " if self.kleene else ""
        return f"SharedLeaf#{self.index}({closure}{self.event_type} {self.variable})"


class SharedJoin(SharedNode):
    """An inner join node over two child DAG nodes.

    ``left_map`` / ``right_map`` translate a child's representative
    namespace into this node's; identical maps on both sides never
    occur (children cover disjoint variable positions), but the two
    children may be the *same* node under different maps — that is how
    self-joins and merged symmetric subtrees execute.
    """

    __slots__ = ("left", "right", "left_map", "right_map", "cross_predicates")

    def __init__(
        self,
        index: int,
        fingerprint: Fingerprint,
        canonical_order: Tuple[str, ...],
        window: float,
        left: SharedNode,
        right: SharedNode,
        left_map: Dict[str, str],
        right_map: Dict[str, str],
        cross_predicates: Tuple[Predicate, ...],
    ) -> None:
        super().__init__(index, fingerprint, canonical_order, window)
        self.left = left
        self.right = right
        self.left_map = left_map
        self.right_map = right_map
        self.cross_predicates = cross_predicates

    def __repr__(self) -> str:
        return (
            f"SharedJoin#{self.index}({sorted(self.variables)}; "
            f"children #{self.left.index},#{self.right.index})"
        )


@dataclass
class QueryRoot:
    """Where one planned (sub-)query taps the DAG.

    ``query`` is the workload-level name matches are reported under;
    ``disjunct`` the planned pattern's own name (differs for DNF
    disjuncts of nested queries).  ``rename`` maps the root node's
    representative variables to this query's variables.  Negations and
    selection semantics stay here, per query — shared nodes are purely
    positive.
    """

    query: str
    disjunct: str
    node: SharedNode
    rename: Dict[str, str]
    decomposed: DecomposedPattern
    stats: PatternStatistics


@dataclass
class SharingReport:
    """How much plan cost the DAG shares, per the configured cost model.

    ``independent_cost`` prices every query's own tree in isolation;
    ``shared_cost`` prices each DAG node once (with the statistics of
    the query that materialized it).  ``reuse_count`` counts reference
    sites beyond first materialization — each is a subtree some query
    did not have to evaluate privately.
    """

    queries: int = 0
    subtrees_total: int = 0
    dag_nodes: int = 0
    shared_nodes: int = 0
    reuse_count: int = 0
    independent_cost: float = 0.0
    shared_cost: float = 0.0
    merges_vetoed: int = 0

    @property
    def cost_savings(self) -> float:
        """Fraction of independent plan cost eliminated by sharing."""
        if self.independent_cost <= 0:
            return 0.0
        return 1.0 - self.shared_cost / self.independent_cost

    def summary(self) -> dict:
        return {
            "queries": self.queries,
            "subtrees_total": self.subtrees_total,
            "dag_nodes": self.dag_nodes,
            "shared_nodes": self.shared_nodes,
            "reuse_count": self.reuse_count,
            "independent_cost": self.independent_cost,
            "shared_cost": self.shared_cost,
            "cost_savings": self.cost_savings,
            "merges_vetoed": self.merges_vetoed,
        }


class SharedPlan:
    """The executable global plan: DAG nodes plus per-query roots."""

    __slots__ = ("nodes", "roots", "report")

    def __init__(
        self,
        nodes: List[SharedNode],
        roots: List[QueryRoot],
        report: SharingReport,
    ) -> None:
        if not roots:
            raise PlanError("a shared plan needs at least one query root")
        self.nodes = nodes  # topological: children precede parents
        self.roots = roots
        self.report = report

    @property
    def leaves(self) -> List[SharedLeaf]:
        return [n for n in self.nodes if isinstance(n, SharedLeaf)]

    @property
    def query_names(self) -> Tuple[str, ...]:
        seen: Dict[str, None] = {}
        for root in self.roots:
            seen.setdefault(root.query, None)
        return tuple(seen)

    def __repr__(self) -> str:
        return (
            f"SharedPlan({len(self.query_names)} queries, "
            f"{len(self.nodes)} nodes, "
            f"{self.report.shared_nodes} shared)"
        )


#: ``share_filter(existing_node, adopting_query, private_cost)`` — return
#: False to veto adopting ``existing_node`` in place of the query's own
#: subtree (whose locally chosen shape costs ``private_cost``).
ShareFilter = Callable[[SharedNode, str, float], bool]

PlannedQuery = Tuple[str, Sequence[PlannedPattern]]


class SharedPlanOptimizer:
    """Rewrites per-query tree plans into a merged global plan DAG.

    Parameters
    ----------
    cost_model:
        Any :class:`~repro.cost.CostModel` (default
        :class:`~repro.cost.ThroughputCostModel`); used for the
        :class:`SharingReport` and for the ``private_cost`` argument of
        the share filter.
    sharing:
        ``False`` disables merging entirely — every query keeps a
        private tree inside one engine (the per-query-optimal baseline).
    share_filter:
        Optional per-merge veto hook; see :data:`ShareFilter`.
    """

    def __init__(
        self,
        cost_model: Optional[CostModel] = None,
        sharing: bool = True,
        share_filter: Optional[ShareFilter] = None,
    ) -> None:
        self.cost_model = cost_model or ThroughputCostModel()
        self.sharing = sharing
        self.share_filter = share_filter

    # -- public API ----------------------------------------------------------
    def optimize(self, planned: Sequence[PlannedQuery]) -> SharedPlan:
        """Merge the given per-query plans into one :class:`SharedPlan`.

        ``planned`` pairs each workload query name with the
        :class:`~repro.optimizers.PlannedPattern` list produced by
        :func:`repro.optimizers.plan_pattern` (one entry per DNF
        disjunct).  Only ``selection="any"`` plans are supported: the
        restrictive strategies consume events per query, which
        invalidates cross-query sharing of partial matches.
        """
        entries = []
        for query_name, items in planned:
            if not items:
                raise PlanError(f"query {query_name!r} has no planned patterns")
            for item in items:
                if item.selection != "any":
                    raise PlanError(
                        "multi-query sharing requires selection='any' "
                        f"(query {query_name!r} uses {item.selection!r})"
                    )
                entries.append(
                    (
                        query_name,
                        item.pattern.name,
                        item.decomposed,
                        _as_tree(item.plan),
                        item.stats,
                    )
                )
        return self._merge(entries, len(planned))

    # -- internals -----------------------------------------------------------
    def _merge(self, entries, queries: int) -> SharedPlan:
        """One root per ``(query, disjunct, decomposed, tree, stats)``
        entry; ``stats=None`` skips the entry's cost pricing."""
        registry: Dict[Fingerprint, SharedNode] = {}
        nodes: List[SharedNode] = []
        roots: List[QueryRoot] = []
        report = SharingReport(queries=queries)
        for query_name, disjunct, decomposed, tree, stats in entries:
            report.subtrees_total += sum(1 for _ in tree.root.nodes_postorder())
            if stats is not None:
                report.independent_cost += self.cost_model.tree_cost(
                    tree, stats
                )
            node, order = self._resolve(
                tree.root,
                decomposed,
                stats,
                query_name,
                registry,
                nodes,
                report,
            )
            roots.append(
                QueryRoot(
                    query=query_name,
                    disjunct=disjunct,
                    node=node,
                    rename=dict(zip(node.canonical_order, order)),
                    decomposed=decomposed,
                    stats=stats,
                )
            )
        report.dag_nodes = len(nodes)
        report.shared_nodes = sum(1 for n in nodes if n.is_shared)
        return SharedPlan(nodes, roots, report)

    def _resolve(
        self,
        tree_node: TreeNode,
        decomposed: DecomposedPattern,
        stats: PatternStatistics,
        query: str,
        registry: Dict[Fingerprint, SharedNode],
        nodes: List[SharedNode],
        report: SharingReport,
    ) -> Tuple[SharedNode, Tuple[str, ...]]:
        """Get-or-create the DAG node for one subtree (top-down, memoized).

        Returns the node together with the subtree's *query-side*
        canonical variable order (position-aligned with the node's
        ``canonical_order``), so callers derive renamings without
        re-fingerprinting.
        """
        fingerprint, order = canonical_subpattern(
            decomposed, tree_node.leaf_variables
        )
        existing = registry.get(fingerprint)
        if existing is not None and self.sharing:
            if self.share_filter is None or self.share_filter(
                existing, query,
                self.cost_model.tree_cost(TreePlan(tree_node), stats),
            ):
                existing.queries.append(query)
                report.reuse_count += 1
                return existing, order
            report.merges_vetoed += 1

        if tree_node.is_leaf:
            variable = tree_node.variable
            node: SharedNode = SharedLeaf(
                index=len(nodes),
                fingerprint=fingerprint,
                variable=variable,
                event_type=dict(decomposed.positives)[variable],
                filters=tuple(decomposed.conditions.filters_for(variable)),
                kleene=variable in decomposed.kleene,
                window=decomposed.window,
            )
            if stats is not None:
                report.shared_cost += self.cost_model.leaf_cost(
                    variable, stats
                )
        else:
            left, left_order = self._resolve(
                tree_node.left, decomposed, stats, query, registry, nodes, report
            )
            right, right_order = self._resolve(
                tree_node.right, decomposed, stats, query, registry, nodes, report
            )
            # Equal fingerprints align the child node's representative
            # variables position-by-position with this query's subtree
            # variables: that correspondence is the edge renaming.
            left_map = dict(zip(left.canonical_order, left_order))
            right_map = dict(zip(right.canonical_order, right_order))
            left_vars = frozenset(tree_node.left.leaf_variables)
            right_vars = frozenset(tree_node.right.leaf_variables)
            node = SharedJoin(
                index=len(nodes),
                fingerprint=fingerprint,
                canonical_order=order,
                window=decomposed.window,
                left=left,
                right=right,
                left_map=left_map,
                right_map=right_map,
                cross_predicates=_cross_predicates(
                    decomposed, left_vars, right_vars
                ),
            )
            left.parents.append((node, "left"))
            right.parents.append((node, "right"))
            if stats is not None:
                report.shared_cost += self.cost_model.combine_cost(
                    left_vars, right_vars, stats
                )
        node.queries.append(query)
        nodes.append(node)
        # First materialization wins the registry slot; vetoed or
        # sharing-disabled duplicates stay private (never registered
        # twice, so later queries keep merging with the original).
        registry.setdefault(fingerprint, node)
        return node, order


def _as_tree(plan: Plan) -> TreePlan:
    """A tree plan as is; an order plan as its left-deep tree."""
    if isinstance(plan, TreePlan):
        return plan
    if isinstance(plan, OrderPlan):
        return TreePlan.left_deep(plan)
    raise PlanError(
        f"unsupported plan type {type(plan).__name__} for the plan DAG"
    )


def _cross_predicates(
    decomposed: DecomposedPattern, left_vars, right_vars
) -> Tuple[Predicate, ...]:
    """The pattern's two-variable predicates joining the two sides."""
    return tuple(
        p
        for p in decomposed.conditions
        if len(p.variables) == 2
        and (
            (p.variables[0] in left_vars and p.variables[1] in right_vars)
            or (p.variables[0] in right_vars and p.variables[1] in left_vars)
        )
    )


def _private_tree(
    name: Optional[str],
    decomposed: DecomposedPattern,
    tree: TreePlan,
    nodes: List[SharedNode],
) -> SharedNode:
    """Append a private copy of ``tree`` to ``nodes``; return its root.

    Leaves come first, in the pattern's variable order — the order an
    event admitted for several variables seeds its instances — then the
    joins bottom-up.  Every renaming is the identity.
    """
    window = decomposed.window
    leaves: Dict[str, SharedNode] = {}
    for variable, event_type in decomposed.positives:
        leaves[variable] = SharedLeaf(
            index=len(nodes),
            fingerprint=None,
            variable=variable,
            event_type=event_type,
            filters=tuple(decomposed.conditions.filters_for(variable)),
            kleene=variable in decomposed.kleene,
            window=window,
        )
        nodes.append(leaves[variable])

    def walk(tree_node: TreeNode) -> SharedNode:
        if tree_node.is_leaf:
            node = leaves[tree_node.variable]
        else:
            left, right = walk(tree_node.left), walk(tree_node.right)
            node = SharedJoin(
                index=len(nodes),
                fingerprint=None,
                canonical_order=tuple(tree_node.leaf_variables),
                window=window,
                left=left,
                right=right,
                left_map={v: v for v in left.variables},
                right_map={v: v for v in right.variables},
                cross_predicates=_cross_predicates(
                    decomposed, left.variables, right.variables
                ),
            )
            left.parents.append((node, "left"))
            right.parents.append((node, "right"))
            nodes.append(node)
        node.queries.append(name)
        return node

    return walk(tree.root)


def lower_plans(
    parts: Sequence[Tuple[Optional[str], DecomposedPattern, Plan]],
    sharing: bool = False,
) -> SharedPlan:
    """Lower planned patterns to one DAG with a root per part.

    Each ``(name, decomposed, plan)`` part — a tree plan, or an order
    plan taken as its left-deep tree — becomes a root reporting under
    ``name``.  With ``sharing`` the parts merge equivalent sub-joins
    through :class:`SharedPlanOptimizer`, exactly as a workload's
    queries do (the DNF disjuncts of one pattern are such a set);
    without it each part keeps a private copy of its tree, walked
    straight from the plan — no fingerprints, no cost pricing.
    """
    lowered = []
    for name, decomposed, plan in parts:
        tree = _as_tree(plan)
        tree.validate_for(decomposed)
        lowered.append((name, decomposed, tree))
    if sharing:
        return SharedPlanOptimizer()._merge(
            [(name, name, d, tree, None) for name, d, tree in lowered],
            len(lowered),
        )
    nodes: List[SharedNode] = []
    roots: List[QueryRoot] = []
    for name, decomposed, tree in lowered:
        node = _private_tree(name, decomposed, tree, nodes)
        rename = {v: v for v in node.variables}
        roots.append(QueryRoot(name, name, node, rename, decomposed, None))
    report = SharingReport(
        queries=len(roots), subtrees_total=len(nodes), dag_nodes=len(nodes)
    )
    return SharedPlan(nodes, roots, report)
