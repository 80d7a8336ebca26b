"""Hybrid throughput/latency cost model (Section 6.1).

The paper combines the two objectives as a weighted sum

    Cost(Plan) = Cost_trpt(Plan) + α · Cost_lat(Plan)

where α is a user parameter trading throughput for latency (Figure 18
sweeps α ∈ {0, 0.5, 1}).  Because both components decompose into the
same incremental step structure, the hybrid model is itself a
:class:`~repro.cost.CostModel` and every optimizer can consume it
unchanged — the "algorithms are independent of the cost model" argument
of Section 6.1.
"""

from __future__ import annotations

from typing import Optional

from ..errors import StatisticsError
from ..stats.catalog import PatternStatistics
from .base import CostModel, PlanningView, VariableSet
from .latency import LatencyCostModel
from .throughput import ThroughputCostModel


class HybridCostModel(CostModel):
    """``Cost_trpt + α · Cost_lat`` over pluggable component models."""

    name = "hybrid"

    def __init__(
        self,
        alpha: float,
        last_variable: str,
        throughput: Optional[CostModel] = None,
    ) -> None:
        if alpha < 0:
            raise StatisticsError("alpha must be non-negative")
        self.alpha = float(alpha)
        self.throughput = throughput or ThroughputCostModel()
        self.latency = LatencyCostModel(last_variable)

    # -- order plans --------------------------------------------------------
    def order_step_cost(
        self, prefix: VariableSet, variable: str, stats: PatternStatistics
    ) -> float:
        cost = self.throughput.order_step_cost(prefix, variable, stats)
        if self.alpha:
            cost += self.alpha * self.latency.order_step_cost(
                prefix, variable, stats
            )
        return cost

    # -- tree plans -----------------------------------------------------------
    def leaf_cost(self, variable: str, stats: PatternStatistics) -> float:
        cost = self.throughput.leaf_cost(variable, stats)
        if self.alpha:
            cost += self.alpha * self.latency.leaf_cost(variable, stats)
        return cost

    def combine_cost(
        self,
        left: VariableSet,
        right: VariableSet,
        stats: PatternStatistics,
    ) -> float:
        cost = self.throughput.combine_cost(left, right, stats)
        if self.alpha:
            cost += self.alpha * self.latency.combine_cost(left, right, stats)
        return cost

    def _dense_view(self, variables, stats):
        return HybridView(self, variables, stats)

    def __repr__(self) -> str:
        return (
            f"HybridCostModel(alpha={self.alpha:g}, "
            f"last={self.latency.last_variable!r}, "
            f"throughput={self.throughput!r})"
        )


class HybridView(PlanningView):
    """The component models' views, weighted the way the primitives are."""

    def __init__(self, model, variables, stats):
        super().__init__(model, variables, stats)
        self.alpha = model.alpha
        self.throughput = model.throughput.planning_view(variables, stats)
        self.latency = model.latency.planning_view(variables, stats)

    def leaf(self, i: int) -> float:
        return self.throughput.leaf(i) + self.alpha * self.latency.leaf(i)

    def step(self, mask: int, i: int) -> float:
        latency = self.latency.step(mask, i)
        return self.throughput.step(mask, i) + self.alpha * latency

    def combine(self, lmask: int, rmask: int) -> float:
        latency = self.latency.combine(lmask, rmask)
        return self.throughput.combine(lmask, rmask) + self.alpha * latency

    def order_trail(self, order, trail=None, start=0):
        first = self.throughput.order_trail(
            order, trail and trail[0][1], start
        )
        second = self.latency.order_trail(order, trail and trail[0][2], start)
        return [(first[-1][0] + self.alpha * second[-1][0], first, second)]
