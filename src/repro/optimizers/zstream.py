"""ZStream tree generation (Mei & Madden [35]) and its greedy-ordered fix.

* :class:`ZStreamTree` (ZSTREAM) — the CEP-native algorithm: dynamic
  programming over all tree topologies for a **fixed left-to-right leaf
  order** (the pattern's syntactic order).  This is the matrix-chain-style
  interval DP of the original paper: O(n^3) subproblems over contiguous
  leaf ranges, searching C_{n-1} topologies.  Because it never reorders
  leaves, it misses plans such as Figure 3(c) — the motivating flaw the
  paper's Section 2.3 demonstrates.

* :class:`ZStreamOrderedTree` (ZSTREAM-ORD) — the JQPG-assisted hybrid of
  Section 7.1: first run GREEDY to produce a good leaf order, then run the
  same interval DP over that order.
"""

from __future__ import annotations

from typing import Sequence

from ..cost.base import CostModel, PlanningView
from ..patterns.transformations import DecomposedPattern
from ..plans.tree_plan import TreeNode, TreePlan, leaf
from ..stats.catalog import PatternStatistics
from .base import TREE, PlanGenerator
from .greedy import greedy_order


def best_tree_for_leaf_order(
    leaf_order: Sequence[str],
    stats: PatternStatistics,
    cost_model: CostModel,
) -> TreePlan:
    """Optimal tree over a fixed leaf order (interval DP, O(n^3))."""
    view = cost_model.planning_view(tuple(leaf_order), stats)
    return _interval_tree(view, range(view.n))


def _interval_tree(view: PlanningView, leaves: Sequence[int]) -> TreePlan:
    """The interval DP over ``leaves``, a sequence of variable indices."""
    n = len(leaves)
    # covered[k] = mask of leaves[:k]; leaves[i:j] is covered[i] ^ covered[j].
    covered = [0]
    for variable in leaves:
        covered.append(covered[-1] | 1 << variable)
    # best[i, j] = cost of the best tree over leaves[i:j], split at
    # leaves[split[i, j]].
    best = {(i, i + 1): view.leaf(v) for i, v in enumerate(leaves)}
    split: dict[tuple[int, int], int] = {}
    for length in range(2, n + 1):
        for i in range(0, n - length + 1):
            j = i + length
            cost = float("inf")
            for middle in range(i + 1, j):
                price = (
                    best[i, middle]
                    + best[middle, j]
                    + view.combine(
                        covered[i] ^ covered[middle],
                        covered[middle] ^ covered[j],
                    )
                )
                if price < cost:
                    cost, split[i, j] = price, middle
            best[i, j] = cost

    def build(i: int, j: int) -> TreeNode:
        if j == i + 1:
            return leaf(view.variables[leaves[i]])
        middle = split[i, j]
        return TreeNode(left=build(i, middle), right=build(middle, j))

    return TreePlan(build(0, n))


class ZStreamTree(PlanGenerator):
    """ZSTREAM: interval DP over the pattern's syntactic leaf order."""

    name = "ZSTREAM"
    kind = TREE

    def generate(
        self,
        decomposed: DecomposedPattern,
        stats: PatternStatistics,
        cost_model: CostModel,
    ) -> TreePlan:
        view = self._planning_view(decomposed, stats, cost_model)
        return _interval_tree(view, range(view.n))


class ZStreamOrderedTree(PlanGenerator):
    """ZSTREAM-ORD: GREEDY leaf ordering + ZStream interval DP."""

    name = "ZSTREAM-ORD"
    kind = TREE

    def generate(
        self,
        decomposed: DecomposedPattern,
        stats: PatternStatistics,
        cost_model: CostModel,
    ) -> TreePlan:
        view = self._planning_view(decomposed, stats, cost_model)
        return _interval_tree(view, greedy_order(view))
