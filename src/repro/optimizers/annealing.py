"""Simulated annealing over order plans (extension).

The paper's related-work section cites randomized join-ordering
algorithms (Ioannidis & Kang [26], Steinbrunn et al. [46]) alongside the
iterative-improvement family it evaluates.  This module provides the
classic annealing variant as an additional JQPG-adapted baseline and as
an ablation point for the II benchmarks: same move set (swap / 3-cycle),
but worsening moves are accepted with probability ``exp(-Δ/T)`` under a
geometric cooling schedule.
"""

from __future__ import annotations

import math
import random
from typing import Optional

from ..cost.base import CostModel
from ..errors import OptimizerError
from ..patterns.transformations import DecomposedPattern
from ..plans.order_plan import OrderPlan
from ..stats.catalog import PatternStatistics
from .base import ORDER, PlanGenerator
from .greedy import greedy_order
from .iterative_improvement import Move, apply_move


class SimulatedAnnealingOrder(PlanGenerator):
    """SA: randomized descent with temperature-controlled uphill moves."""

    name = "SA"
    kind = ORDER

    def __init__(
        self,
        seed: Optional[int] = 0,
        initial_temperature: float = 2.0,
        cooling: float = 0.95,
        steps_per_temperature: int = 20,
        minimum_temperature: float = 1e-3,
        greedy_start: bool = True,
    ) -> None:
        if not 0.0 < cooling < 1.0:
            raise OptimizerError("cooling factor must lie in (0, 1)")
        if initial_temperature <= 0:
            raise OptimizerError("initial temperature must be positive")
        self.seed = seed
        self.initial_temperature = initial_temperature
        self.cooling = cooling
        self.steps_per_temperature = steps_per_temperature
        self.minimum_temperature = minimum_temperature
        self.greedy_start = greedy_start

    def generate(
        self,
        decomposed: DecomposedPattern,
        stats: PatternStatistics,
        cost_model: CostModel,
    ) -> OrderPlan:
        view = self._planning_view(decomposed, stats, cost_model)
        if view.n < 2:
            return OrderPlan(view.variables)
        rng = random.Random(self.seed)
        if self.greedy_start:
            current = greedy_order(view)
        else:
            current = list(range(view.n))
            rng.shuffle(current)
        trail = view.order_trail(current)
        best, best_cost = current, trail[-1][0]

        temperature = self.initial_temperature
        while temperature > self.minimum_temperature:
            for _ in range(self.steps_per_temperature):
                move = self._random_move(view.n, rng)
                candidate = apply_move(current, move)
                priced = view.order_trail(candidate, trail, min(move[0]))
                cost, current_cost = priced[-1][0], trail[-1][0]
                delta = cost - current_cost
                # Scale-free acceptance: relative degradation vs. temperature.
                relative = delta / max(current_cost, 1e-300)
                if delta <= 0 or rng.random() < math.exp(
                    -relative / temperature
                ):
                    current, trail = candidate, priced
                    if cost < best_cost:
                        best, best_cost = candidate, cost
            temperature *= self.cooling
        return OrderPlan([view.variables[i] for i in best])

    @staticmethod
    def _random_move(n: int, rng: random.Random) -> Move:
        if n >= 3 and rng.random() < 0.5:
            i, j, k = rng.sample(range(n), 3)
            return (i, j, k), (k, i, j)
        i, j = rng.sample(range(n), 2)
        return (i, j), (j, i)
