"""Cost models for restrictive event selection strategies (Section 6.2).

Under **skip-till-next-match** an event joins at most one match, so the
number of partial matches of size k is bounded by the *scarcest* event
type involved rather than the product of all counts:

    m[k] = W · min(r_p1, ..., r_pk) · Π_{i≤j≤k} sel_pi,pj

``Cost_next_ord = Σ_k (W · m[k])`` — the formula as printed in the paper;
the extra factor W is constant for a given pattern and does not affect
the argmin (see DESIGN.md).  The tree analogue sums
``PM(n) = W · min_{Ti ∈ subtree(n)} r_i · Π sel`` over all nodes.

The same model is reused for the strict- and partition-contiguity
strategies (the paper, Section 6.2), with the contiguity constraints
themselves expressed as adjacency predicates on serial numbers.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..stats.catalog import PatternStatistics
from .base import CostModel, DenseView, VariableSet
from .throughput import canonical


def subset_next_matches(
    variables: Iterable[str], stats: PatternStatistics
) -> float:
    """m(S): expected skip-till-next partial matches over variable set S."""
    names = tuple(variables)
    product = 1.0
    for i, var in enumerate(names):
        for other in names[:i]:
            product *= stats.selectivity(other, var)
    return stats.window * min(stats.rate(v) for v in names) * product


class NextMatchView(DenseView):
    """Dense ``Cost_next``: ``subset(mask)`` is (Π sel, min rate)."""

    empty = (1.0, float("inf"))

    def extend(self, estimate: tuple, mask: int, i: int) -> tuple:
        product, slowest = estimate
        return (
            self.selectivity_product(product, mask, i),
            min(slowest, self.rate[i]),
        )

    def _next_matches(self, mask: int) -> float:
        product, slowest = self.subset(mask)
        return self.window * slowest * product

    def leaf(self, i: int) -> float:
        return self.wr[i]

    def step(self, mask: int, i: int) -> float:
        return self.window * self._next_matches(mask | 1 << i)

    def combine(self, lmask: int, rmask: int) -> float:
        return self._next_matches(lmask | rmask)

    def order_trail(self, order, trail=None, start=0):
        # The arithmetic of ``NextMatchCostModel.order_cost``, resumable.
        states = trail[:start + 1] if trail else [(0.0,) + self.empty]
        total, product, slowest = states[-1]
        window, rate, sel = self.window, self.rate, self.sel
        for position in range(start, len(order)):
            variable = order[position]
            row = sel[variable]
            for other in order[:position]:
                product *= row[other]
            slowest = min(slowest, rate[variable])
            total += window * (window * slowest * product)
            states.append((total, product, slowest))
        return states


class NextMatchCostModel(CostModel):
    """``Cost_next_ord`` / ``Cost_next_tree`` for skip-till-next-match."""

    name = "skip-till-next-match"

    def order_step_cost(
        self, prefix: VariableSet, variable: str, stats: PatternStatistics
    ) -> float:
        subset = canonical([*prefix, variable], stats)
        return stats.window * subset_next_matches(subset, stats)

    def order_cost(
        self, order: Sequence[str], stats: PatternStatistics
    ) -> float:
        total = 0.0
        names: list[str] = []
        selectivity_product = 1.0
        minimum_rate = float("inf")
        for variable in order:
            for other in names:
                selectivity_product *= stats.selectivity(other, variable)
            minimum_rate = min(minimum_rate, stats.rate(variable))
            names.append(variable)
            m_k = stats.window * minimum_rate * selectivity_product
            total += stats.window * m_k
        return total

    def leaf_cost(self, variable: str, stats: PatternStatistics) -> float:
        return stats.window * stats.rate(variable)

    def combine_cost(
        self,
        left: VariableSet,
        right: VariableSet,
        stats: PatternStatistics,
    ) -> float:
        return subset_next_matches(canonical([*left, *right], stats), stats)

    def _dense_view(self, variables, stats):
        return NextMatchView(self, variables, stats)
