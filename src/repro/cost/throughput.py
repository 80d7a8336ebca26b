"""Throughput-oriented cost models (Sections 4.1 and 4.2).

The primary cost function of the paper: the expected number of partial
matches coexisting within a time window.

For a variable set ``S`` with |S| = k the expected number of partial
matches over exactly those variables is

    PM(S) = W^k · Π_{v∈S} r_v · Π_{u<v∈S} sel_uv

(unary filter selectivities are folded into the effective rates ``r_v``;
see DESIGN.md).  The order cost ``Cost_ord`` sums PM over the prefixes of
the order; the tree cost ``Cost_tree`` sums W·r over the leaves and PM
over internal nodes — precisely the formulas of Sections 4.1/4.2, and by
Theorems 1/2 equal to the left-deep / bushy join costs of
:mod:`repro.cost.join_costs` under the reduction.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..stats.catalog import PatternStatistics
from .base import CostModel, DenseView, VariableSet


def canonical(
    variables: Iterable[str], stats: PatternStatistics
) -> list[str]:
    """``variables`` in pattern order — the order set-keyed prices
    multiply in, so they never depend on ``frozenset`` iteration order."""
    return sorted(variables, key=stats.variables.index)


def subset_partial_matches(
    variables: Iterable[str], stats: PatternStatistics
) -> float:
    """Expected partial matches PM(S) for the variable set ``S``."""
    names = tuple(variables)
    value = 1.0
    for i, var in enumerate(names):
        value *= stats.window * stats.rate(var)
        for other in names[:i]:
            value *= stats.selectivity(other, var)
    return value


def extend_partial_matches(
    pm_prefix: float,
    prefix: Iterable[str],
    variable: str,
    stats: PatternStatistics,
) -> float:
    """PM(prefix ∪ {variable}) given PM(prefix) — O(|prefix|) update."""
    value = pm_prefix * stats.window * stats.rate(variable)
    for other in prefix:
        value *= stats.selectivity(other, variable)
    return value


def prefix_partial_matches(
    order: Sequence[str], stats: PatternStatistics
) -> list[float]:
    """PM(k) for every prefix of ``order`` — the per-size PM estimates."""
    values: list[float] = []
    current = 1.0
    seen: list[str] = []
    for variable in order:
        current = extend_partial_matches(current, seen, variable, stats)
        values.append(current)
        seen.append(variable)
    return values


class PartialMatchView(DenseView):
    """Dense ``Cost_ord`` / ``Cost_tree``: ``subset(mask)`` is PM(mask)."""

    def extend(self, pm: float, mask: int, i: int) -> float:
        return self.selectivity_product(pm * self.wr[i], mask, i)

    def leaf(self, i: int) -> float:
        return self.wr[i]

    def step(self, mask: int, i: int) -> float:
        return self.subset(mask | 1 << i)

    def combine(self, lmask: int, rmask: int) -> float:
        return self.subset(lmask | rmask)

    def order_trail(self, order, trail=None, start=0):
        # Same multiplications, in the same order, as
        # ``prefix_partial_matches``: resumed costs are bit-identical.
        states = trail[:start + 1] if trail else [(0.0, 1.0)]
        total, pm = states[-1]
        window, rate, sel = self.window, self.rate, self.sel
        for position in range(start, len(order)):
            variable = order[position]
            pm = pm * window * rate[variable]
            row = sel[variable]
            for other in order[:position]:
                pm *= row[other]
            total += pm
            states.append((total, pm))
        return states


class ThroughputCostModel(CostModel):
    """``Cost_ord`` / ``Cost_tree`` — the paper's primary cost functions."""

    name = "throughput"

    def order_step_cost(
        self, prefix: VariableSet, variable: str, stats: PatternStatistics
    ) -> float:
        return subset_partial_matches(
            canonical([*prefix, variable], stats), stats
        )

    def order_cost(
        self, order: Sequence[str], stats: PatternStatistics
    ) -> float:
        # Incremental computation: O(n^2) instead of the generic O(n^3).
        return float(sum(prefix_partial_matches(order, stats)))

    def leaf_cost(self, variable: str, stats: PatternStatistics) -> float:
        return stats.window * stats.rate(variable)

    def combine_cost(
        self,
        left: VariableSet,
        right: VariableSet,
        stats: PatternStatistics,
    ) -> float:
        return subset_partial_matches(canonical([*left, *right], stats), stats)

    def _dense_view(self, variables, stats):
        return PartialMatchView(self, variables, stats)
