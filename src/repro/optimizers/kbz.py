"""IK/KBZ polynomial ordering for acyclic query graphs (Section 4.3).

Ibaraki & Kameda [24] and Krishnamurthy, Boral & Zaniolo [31] showed that
when the query graph is a *tree* and the cost function has the ASI
property (which ``Cost_ord`` does — Theorem 5), the optimal
cross-product-free left-deep order can be found in polynomial time by
sequencing variables by their ASI **rank** subject to the precedence
constraints of the rooted query tree.

The paper discusses this class of algorithms as applicable-but-heuristic
for CEP: since it never takes cross products, it may miss cheaper plans
(Section 4.3).  We implement it as the classic "normalize and merge by
rank" procedure, trying every root and keeping the best result under the
supplied cost model.  For non-tree query graphs it falls back to GREEDY
(configurable).
"""

from __future__ import annotations

from typing import Optional

from ..cost.asi import concat_cost
from ..cost.base import CostModel, PlanningView
from ..errors import OptimizerError
from ..patterns.transformations import DecomposedPattern
from ..plans.order_plan import OrderPlan
from ..stats.catalog import PatternStatistics
from .base import ORDER, PlanGenerator
from .greedy import greedy_order


class _Module:
    """A compound sequence of variables with chain cost/multiplier."""

    __slots__ = ("variables", "cost", "multiplier")

    def __init__(self, variables: list[int], cost: float, multiplier: float):
        self.variables = variables
        self.cost = cost
        self.multiplier = multiplier

    @property
    def rank(self) -> float:
        return (self.multiplier - 1.0) / self.cost

    def merged_with(self, other: "_Module") -> "_Module":
        return _Module(
            self.variables + other.variables,
            concat_cost(self.cost, self.multiplier, other.cost),
            self.multiplier * other.multiplier,
        )


class KBZOrder(PlanGenerator):
    """KBZ: rank-based optimal ordering for tree-shaped query graphs."""

    name = "KBZ"
    kind = ORDER

    def __init__(self, fallback: bool = True) -> None:
        self.fallback = fallback

    def generate(
        self,
        decomposed: DecomposedPattern,
        stats: PatternStatistics,
        cost_model: CostModel,
    ) -> OrderPlan:
        view = self._planning_view(decomposed, stats, cost_model)
        if not self._is_tree(view.adjacent):
            if not self.fallback:
                raise OptimizerError(
                    "KBZ requires a connected acyclic query graph"
                )
            best_order = greedy_order(view)
        else:
            best_order = min(
                (self._solve_rooted(root, view) for root in range(view.n)),
                key=view.order_cost,
            )
        return OrderPlan([view.variables[i] for i in best_order])

    # -- query graph -------------------------------------------------------
    @staticmethod
    def _is_tree(adjacent: list[int]) -> bool:
        """Is the query graph connected and acyclic?"""
        edges = sum(bin(mask).count("1") for mask in adjacent) // 2
        if edges != len(adjacent) - 1:
            return False
        # Connectivity check (acyclicity follows from the edge count).
        seen, frontier = 1, [0]
        while frontier:
            neighbors = adjacent[frontier.pop()] & ~seen
            seen |= neighbors
            frontier.extend(
                i for i in range(len(adjacent)) if neighbors >> i & 1
            )
        return seen == (1 << len(adjacent)) - 1

    # -- the IK/KBZ procedure ----------------------------------------------------
    def _solve_rooted(self, root: int, view: PlanningView) -> list[int]:
        adjacent, stats = view.adjacent, view.stats

        def solve(node: int, parent: Optional[int]) -> list[_Module]:
            merged: list[_Module] = []
            for child in range(view.n):
                if adjacent[node] >> child & 1 and child != parent:
                    merged = _merge_by_rank(merged, solve(child, node))
            weight = stats.window * stats.rate(view.variables[node])
            if parent is not None:
                weight *= view.sel[parent][node]
            return _normalize([_Module([node], weight, weight)] + merged)

        order: list[int] = []
        for module in solve(root, None):
            order.extend(module.variables)
        return order


def _merge_by_rank(left: list[_Module], right: list[_Module]) -> list[_Module]:
    """Merge two rank-sorted module lists, keeping rank order."""
    result: list[_Module] = []
    i = j = 0
    while i < len(left) and j < len(right):
        if left[i].rank <= right[j].rank:
            result.append(left[i])
            i += 1
        else:
            result.append(right[j])
            j += 1
    result.extend(left[i:])
    result.extend(right[j:])
    return result


def _normalize(sequence: list[_Module]) -> list[_Module]:
    """Collapse precedence violations: the head module must not out-rank
    its successor; merge until the list is non-decreasing in rank."""
    result = list(sequence)
    index = 0
    while index + 1 < len(result):
        if result[index].rank > result[index + 1].rank:
            merged = result[index].merged_with(result[index + 1])
            result[index:index + 2] = [merged]
            index = max(index - 1, 0)
        else:
            index += 1
    return result
