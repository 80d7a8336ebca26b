"""Iterative improvement local search (Swami [47], adapted to CEP).

II starts from an initial order and repeatedly applies the best improving
move from its neighborhood until no move improves the cost — a local
minimum.  Following the paper, the neighborhood consists of

* **swap** — exchange the positions of two variables, and
* **cycle** — cyclically shift the positions of three variables (both
  rotation directions are generated).

Two starting-point policies are provided (Section 7.1):
:class:`IterativeImprovementRandom` (II-RANDOM) starts from a uniformly
random order; :class:`IterativeImprovementGreedy` (II-GREEDY) starts from
the GREEDY solution.  ``restarts`` > 1 re-runs the search from fresh
random orders and keeps the best local minimum (only meaningful for
II-RANDOM; II-GREEDY's start is deterministic, so extra restarts fall
back to random starts).
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator, Optional

from ..cost.base import CostModel, PlanningView
from ..errors import OptimizerError
from ..patterns.transformations import DecomposedPattern
from ..plans.order_plan import OrderPlan
from ..stats.catalog import PatternStatistics
from .base import ORDER, PlanGenerator
from .greedy import greedy_order

#: A move: the positions it rewrites and the positions their new
#: occupants come from.
Move = tuple[tuple[int, ...], tuple[int, ...]]


def apply_move(order: list[int], move: Move) -> list[int]:
    """The neighbor of ``order`` reached by ``move``."""
    targets, sources = move
    neighbor = list(order)
    for target, source in zip(targets, sources):
        neighbor[target] = order[source]
    return neighbor


class _IterativeImprovement(PlanGenerator):
    """Shared II implementation; starts from random orders unless a
    subclass chooses otherwise."""

    kind = ORDER

    def __init__(
        self,
        restarts: int = 1,
        moves: tuple[str, ...] = ("swap", "cycle"),
        seed: Optional[int] = 0,
        max_steps: int = 10_000,
    ) -> None:
        if restarts < 1:
            raise OptimizerError("restarts must be >= 1")
        unknown = set(moves) - {"swap", "cycle"}
        if unknown:
            raise OptimizerError(f"unknown moves {sorted(unknown)}")
        if not moves:
            raise OptimizerError("need at least one move type")
        self.restarts = restarts
        self.moves = tuple(moves)
        self.seed = seed
        self.max_steps = max_steps

    # -- hooks ---------------------------------------------------------------
    def _initial_order(
        self, attempt: int, view: PlanningView, rng: random.Random
    ) -> list[int]:
        """A uniformly random order."""
        order = list(range(view.n))
        rng.shuffle(order)
        return order

    # -- search -----------------------------------------------------------------
    def generate(
        self,
        decomposed: DecomposedPattern,
        stats: PatternStatistics,
        cost_model: CostModel,
    ) -> OrderPlan:
        view = self._planning_view(decomposed, stats, cost_model)
        rng = random.Random(self.seed)
        best_order: Optional[list[int]] = None
        best_cost = float("inf")
        for attempt in range(self.restarts):
            start = self._initial_order(attempt, view, rng)
            order, cost = self._descend(start, view)
            if cost < best_cost:
                best_order, best_cost = order, cost
        assert best_order is not None
        return OrderPlan([view.variables[i] for i in best_order])

    def _descend(
        self, start: list[int], view: PlanningView
    ) -> tuple[list[int], float]:
        current = list(start)
        trail = view.order_trail(current)
        for _ in range(self.max_steps):
            improved = False
            for move in self._moves(view.n):
                # A neighbor agrees with the current order before the
                # first position its move rewrites: resume pricing there.
                neighbor = apply_move(current, move)
                priced = view.order_trail(neighbor, trail, move[0][0])
                if priced[-1][0] < trail[-1][0]:
                    current, trail = neighbor, priced
                    improved = True
                    break  # first-improvement descent
            if not improved:
                break
        return current, trail[-1][0]

    def _moves(self, n: int) -> Iterator[Move]:
        """Swaps, then 3-cycles (both rotations), positions ascending."""
        if "swap" in self.moves:
            for pair in itertools.combinations(range(n), 2):
                yield pair, pair[::-1]
        if "cycle" in self.moves:
            for i, j, k in itertools.combinations(range(n), 3):
                yield (i, j, k), (k, i, j)
                yield (i, j, k), (j, k, i)


class IterativeImprovementRandom(_IterativeImprovement):
    """II-RANDOM: local search from random starting orders."""

    name = "II-RANDOM"


class IterativeImprovementGreedy(_IterativeImprovement):
    """II-GREEDY: local search seeded with the GREEDY solution."""

    name = "II-GREEDY"

    def _initial_order(self, attempt, view, rng):
        if attempt == 0:
            return greedy_order(view)
        return super()._initial_order(attempt, view, rng)
