"""Plan-generator interface.

Every algorithm of Section 7.1 — CEP-native or JQPG-adapted — implements
:class:`PlanGenerator`: given the planning view of a pattern
(:class:`~repro.patterns.DecomposedPattern`), pattern statistics, and a
cost model, return an evaluation plan over the pattern's positive
variables.  ``kind`` says whether the result is an
:class:`~repro.plans.OrderPlan` or a :class:`~repro.plans.TreePlan`.

Cost-based generators price every candidate through the cost model's
:class:`~repro.cost.base.PlanningView` (variables as indices, variable
sets as bitmasks) — the one pricing path inside this package.
"""

from __future__ import annotations

from typing import Union

from ..cost.base import CostModel, PlanningView
from ..cost.throughput import ThroughputCostModel
from ..errors import OptimizerError
from ..patterns.transformations import DecomposedPattern
from ..plans.order_plan import OrderPlan
from ..plans.tree_plan import TreePlan
from ..stats.catalog import PatternStatistics

Plan = Union[OrderPlan, TreePlan]

ORDER = "order"
TREE = "tree"


class PlanGenerator:
    """Abstract plan-generation algorithm."""

    name = "abstract"
    kind = ORDER

    def generate(
        self,
        decomposed: DecomposedPattern,
        stats: PatternStatistics,
        cost_model: CostModel,
    ) -> Plan:
        """Produce an evaluation plan for the pattern."""
        raise NotImplementedError

    # -- shared helpers ------------------------------------------------------
    def _check_input(
        self, decomposed: DecomposedPattern, stats: PatternStatistics
    ) -> tuple[str, ...]:
        variables = decomposed.positive_variables
        if not variables:
            raise OptimizerError("pattern has no positive variables to plan")
        missing = [v for v in variables if v not in stats.variables]
        if missing:
            raise OptimizerError(f"statistics missing variables {missing}")
        return variables

    def _planning_view(
        self,
        decomposed: DecomposedPattern,
        stats: PatternStatistics,
        cost_model: CostModel,
    ) -> PlanningView:
        """Check the input and resolve it once for ``cost_model``."""
        return cost_model.planning_view(
            self._check_input(decomposed, stats), stats
        )

    def plan_cost(
        self,
        plan: Plan,
        stats: PatternStatistics,
        cost_model: CostModel,
    ) -> float:
        """Cost of a produced plan under ``cost_model``."""
        if isinstance(plan, OrderPlan):
            return cost_model.order_cost(plan.variables, stats)
        return cost_model.tree_cost(plan, stats)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def default_cost_model() -> CostModel:
    """The paper's default objective: intermediate partial matches."""
    return ThroughputCostModel()
