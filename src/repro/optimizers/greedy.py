"""Greedy cost-based ordering (Swami [47], adapted to CEP).

GREEDY builds the order one variable at a time, always appending the
variable that minimizes the cost model's incremental step cost — for the
throughput model, the number of partial matches the next prefix would
hold.  O(n^2) step-cost evaluations; no backtracking.

This is the heuristic the paper found to offer "the best overall
trade-off between optimization time and quality" (Section 7.3).
"""

from __future__ import annotations

from ..cost.base import CostModel, PlanningView
from ..patterns.transformations import DecomposedPattern
from ..plans.order_plan import OrderPlan
from ..stats.catalog import PatternStatistics
from .base import ORDER, PlanGenerator


def greedy_order(view: PlanningView) -> list[int]:
    """The GREEDY order as variable indices (ties: lowest index)."""
    remaining = list(range(view.n))
    chosen: list[int] = []
    prefix = 0
    while remaining:
        best = min(remaining, key=lambda i: view.step(prefix, i))
        remaining.remove(best)
        chosen.append(best)
        prefix |= 1 << best
    return chosen


class GreedyOrder(PlanGenerator):
    """GREEDY: repeatedly append the cheapest next variable."""

    name = "GREEDY"
    kind = ORDER

    def generate(
        self,
        decomposed: DecomposedPattern,
        stats: PatternStatistics,
        cost_model: CostModel,
    ) -> OrderPlan:
        view = self._planning_view(decomposed, stats, cost_model)
        return OrderPlan([view.variables[i] for i in greedy_order(view)])
