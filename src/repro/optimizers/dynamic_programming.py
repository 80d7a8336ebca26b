"""Dynamic-programming plan generation (Selinger [45], adapted to CEP).

* :class:`DPLeftDeep` (DP-LD) — exact optimum over order plans.  States
  are variable subsets; because the step cost of every supported cost
  model depends only on the *set* already placed (not its internal
  order), Bellman's principle applies:
  ``cost(S) = min_{v ∈ S} cost(S − v) + step(S − v, v)``.
  O(2^n · n) step-cost evaluations.

* :class:`DPBushy` (DP-B) — exact optimum over bushy tree plans.
  ``cost(S) = min over partitions S = L ∪ R of
  cost(L) + cost(R) + combine(L, R)``; O(3^n) combine evaluations.

Both run over ``range(1 << n)`` with variable sets as bitmasks, price
every candidate through the cost model's planning view, record *choices*
as ints and build the plan once at the end.

Both accept ``allow_cartesian=False`` to restrict the search to plans
without cross products (the classical relational restriction discussed in
Section 4.3); steps/combinations are then required to be connected in the
query graph whenever a connected alternative exists.  The paper's CEP
setting keeps cross products **enabled** by default — disabling them can
miss cheaper plans [38].
"""

from __future__ import annotations

from typing import Sequence

from ..cost.base import CostModel
from ..patterns.transformations import DecomposedPattern
from ..plans.order_plan import OrderPlan
from ..plans.tree_plan import TreeNode, TreePlan, leaf
from ..stats.catalog import PatternStatistics
from .base import ORDER, TREE, PlanGenerator

INFINITY = float("inf")


def _connected_sets(adjacent: Sequence[int]) -> bytearray:
    """Per variable set: is it a connected subgraph of the query graph
    (the empty set counts as one)?

    With cross products disabled, a connected set is only ever built from
    connected parts — its last step extends a connected prefix, its split
    joins two connected halves (a predicate then necessarily spans them,
    and such a step / split always exists).  A disconnected set cannot
    avoid a cross product, so every way of building it stays open.
    """
    size = 1 << len(adjacent)
    connected = bytearray(size)
    connected[0] = 1
    reach = [0] * size  # variables a predicate links to the set
    for mask in range(1, size):
        low = mask & -mask
        reach[mask] = reach[mask ^ low] | adjacent[low.bit_length() - 1]
        seen = low
        while True:  # flood fill from the lowest variable
            grown = seen | reach[seen] & mask
            if grown == seen:
                break
            seen = grown
        connected[mask] = seen == mask
    return connected


class DPLeftDeep(PlanGenerator):
    """DP-LD: provably optimal order plan for the given cost model.

    Ties: of equally cheap ways to end a set, the lowest-index
    (first-declared) variable is placed last.  When every order ties
    (equal rates, no predicates) the plan is the declaration order
    reversed — ``d → c → b → a`` for ``AND(A a, B b, C c, D d)`` or its
    ``SEQ``.
    """

    name = "DP-LD"
    kind = ORDER

    def __init__(self, allow_cartesian: bool = True) -> None:
        self.allow_cartesian = allow_cartesian

    def generate(
        self,
        decomposed: DecomposedPattern,
        stats: PatternStatistics,
        cost_model: CostModel,
    ) -> OrderPlan:
        view = self._planning_view(decomposed, stats, cost_model)
        step = view.step
        size = 1 << view.n
        connected = (
            None if self.allow_cartesian else _connected_sets(view.adjacent)
        )
        best = [0.0] * size  # cost of the cheapest order of each set
        last = [0] * size  # ... and the variable that order ends with
        for mask in range(1, size):
            tight = connected is not None and connected[mask]
            # (the lowest variable stands in when no price is finite)
            cost, last[mask] = INFINITY, (mask & -mask).bit_length() - 1
            rest = mask
            while rest:
                low = rest & -rest
                rest ^= low
                prefix = mask ^ low
                if tight and not connected[prefix]:
                    continue
                variable = low.bit_length() - 1
                price = best[prefix] + step(prefix, variable)
                if price < cost:
                    cost, last[mask] = price, variable
            best[mask] = cost

        order: list[str] = []
        mask = size - 1
        while mask:
            order.append(view.variables[last[mask]])
            mask ^= 1 << last[mask]
        order.reverse()
        return OrderPlan(order)


class DPBushy(PlanGenerator):
    """DP-B: provably optimal bushy tree plan for the given cost model.

    Ties: the lowest variable of a set stays in the left half and right
    halves are tried in descending bitmask order, so of equally cheap
    splits the one whose right half has the largest mask (the
    last-declared variables) wins — ``((a ⋈ b) ⋈ (c ⋈ d))`` for four
    variables with equal rates and no predicates.
    """

    name = "DP-B"
    kind = TREE

    def __init__(self, allow_cartesian: bool = True) -> None:
        self.allow_cartesian = allow_cartesian

    def generate(
        self,
        decomposed: DecomposedPattern,
        stats: PatternStatistics,
        cost_model: CostModel,
    ) -> TreePlan:
        view = self._planning_view(decomposed, stats, cost_model)
        combine = view.combine
        size = 1 << view.n
        connected = (
            None if self.allow_cartesian else _connected_sets(view.adjacent)
        )
        best = [0.0] * size  # cost of the cheapest tree over each set
        split = [0] * size  # ... and its right half (0: a leaf)
        for i in range(view.n):
            best[1 << i] = view.leaf(i)
        for mask in range(3, size):
            # The lowest variable is pinned to the left half, so each
            # unordered partition is produced exactly once.
            rest = mask & (mask - 1)
            if not rest:
                continue
            tight = connected is not None and connected[mask]
            cost, split[mask] = INFINITY, rest  # kept if no price is finite
            right = rest
            while right:
                left = mask ^ right
                if not tight or (connected[left] and connected[right]):
                    price = best[left] + best[right] + combine(left, right)
                    if price < cost:
                        cost, split[mask] = price, right
                right = (right - 1) & rest
            best[mask] = cost

        def build(mask: int) -> TreeNode:
            right = split[mask]
            if not right:
                return leaf(view.variables[mask.bit_length() - 1])
            return TreeNode(left=build(mask ^ right), right=build(right))

        return TreePlan(build(size - 1))
