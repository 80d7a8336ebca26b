"""Cost model interface and the planning view optimizers are written against.

A :class:`CostModel` prices plans through four string/``frozenset``
primitives — the documented, oracle-grade API:

* :meth:`CostModel.order_step_cost` prices appending ``variable`` to the
  set ``prefix`` (Selinger's left-deep DP relies on the price depending
  only on the *set*) and :meth:`CostModel.order_cost` a whole order;
* :meth:`CostModel.combine_cost` prices the internal node joining two
  disjoint variable sets and :meth:`CostModel.leaf_cost` a leaf.

Set-keyed prices multiply their factors in pattern-variable order, so
they do not depend on ``frozenset`` iteration (hash-seed) order.

The plan generators of :mod:`repro.optimizers` never call the primitives.
Each ``generate`` asks the model once for a :class:`PlanningView` of
``(variables, stats)`` — variables as indices ``0..n-1``, variable sets
as ``int`` bitmasks — and prices everything through its ``leaf(i)``,
``step(mask, i)``, ``combine(lmask, rmask)`` and prefix-resumable
``order_trail``.  The view is the whole contract between an algorithm
and a cost model, which keeps the algorithms cost-model agnostic (how
the paper swaps in the latency-aware model of Section 6.1 and the
selection-strategy model of Section 6.2 without touching them).  The
base class adapts any model through its four primitives, so a
third-party model, or a subclass overriding a primitive, is priced by
its own code; the built-in models answer from dense arrays
(:class:`DenseView`) that memoise each subset's partial-match estimate
instead of re-multiplying it per DP split.
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Sequence

from ..plans.tree_plan import TreeNode, TreePlan
from ..stats.catalog import PatternStatistics

VariableSet = FrozenSet[str]

_PRIMITIVES = ("order_step_cost", "order_cost", "leaf_cost", "combine_cost")


class CostModel:
    """Abstract plan cost model."""

    name = "abstract"

    # -- order plans -------------------------------------------------------
    def order_step_cost(
        self,
        prefix: VariableSet,
        variable: str,
        stats: PatternStatistics,
    ) -> float:
        """Cost contribution of appending ``variable`` after ``prefix``."""
        raise NotImplementedError

    def order_cost(
        self, order: Sequence[str], stats: PatternStatistics
    ) -> float:
        """Total cost of an order plan (sum of step costs)."""
        total = 0.0
        prefix: frozenset = frozenset()
        for variable in order:
            total += self.order_step_cost(prefix, variable, stats)
            prefix = prefix | {variable}
        return total

    # -- tree plans ----------------------------------------------------------
    def leaf_cost(self, variable: str, stats: PatternStatistics) -> float:
        """Cost contribution of the leaf collecting ``variable``."""
        raise NotImplementedError

    def combine_cost(
        self,
        left: VariableSet,
        right: VariableSet,
        stats: PatternStatistics,
    ) -> float:
        """Cost contribution of an internal node joining ``left``/``right``."""
        raise NotImplementedError

    def tree_cost(self, plan: TreePlan, stats: PatternStatistics) -> float:
        """Total cost of a tree plan (sum over nodes, children first)."""
        total = 0.0

        def visit(node: TreeNode) -> frozenset:
            nonlocal total
            if node.is_leaf:
                total += self.leaf_cost(node.variable, stats)
                return frozenset((node.variable,))
            left, right = visit(node.left), visit(node.right)
            total += self.combine_cost(left, right, stats)
            return left | right

        visit(plan.root)
        return total

    # -- planning ------------------------------------------------------------
    def planning_view(
        self, variables: Sequence[str], stats: PatternStatistics
    ) -> "PlanningView":
        """The view one ``generate`` call prices its candidates through.

        A model's dense view is used only while none of the primitives
        is overridden below the class that wrote it; otherwise the view
        is the generic adapter over this instance's primitives.
        """
        for klass in type(self).__mro__:
            members = vars(klass)
            if "_dense_view" in members:
                return self._dense_view(tuple(variables), stats)
            if any(name in members for name in _PRIMITIVES):
                break
        return PlanningView(self, tuple(variables), stats)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class PlanningView:
    """``(variables, stats)`` resolved for one cost model: variable ``i``
    is ``variables[i]``, a variable set is the bitmask of its indices.

    This base class adapts any :class:`CostModel` through its four
    primitives.  ``sel[i][j]`` is the pairwise selectivity matrix and
    ``adjacent[i]`` the mask of variables sharing a predicate with ``i``
    — the query graph.
    """

    def __init__(
        self, model: CostModel, variables: tuple, stats: PatternStatistics
    ) -> None:
        self.model = model
        self.variables = variables
        self.stats = stats
        self.n = n = len(variables)
        self.sel = sel = [[1.0] * n for _ in range(n)]
        for i, variable in enumerate(variables):
            for j in range(i + 1, n):
                sel[i][j] = sel[j][i] = stats.selectivity(
                    variable, variables[j]
                )
        self.adjacent = [
            sum(1 << j for j, value in enumerate(row) if value != 1.0)
            for row in sel
        ]
        self._names: dict = {}

    def names(self, mask: int) -> frozenset:
        """The variable set a mask stands for."""
        names = self._names.get(mask)
        if names is None:
            names = self._names[mask] = frozenset(
                v for i, v in enumerate(self.variables) if mask >> i & 1
            )
        return names

    def leaf(self, i: int) -> float:
        """Price of the leaf collecting variable ``i``."""
        return self.model.leaf_cost(self.variables[i], self.stats)

    def step(self, mask: int, i: int) -> float:
        """Price of appending variable ``i`` after the set ``mask``."""
        return self.model.order_step_cost(
            self.names(mask), self.variables[i], self.stats
        )

    def combine(self, lmask: int, rmask: int) -> float:
        """Price of the internal node joining two disjoint sets."""
        return self.model.combine_cost(
            self.names(lmask), self.names(rmask), self.stats
        )

    def order_trail(
        self, order: Sequence[int], trail: Optional[list] = None, start: int = 0
    ) -> list:
        """Evaluate an order of indices; ``trail[-1][0]`` is its cost.

        The rest of the trail is the view's own per-prefix state.  Passing
        back the trail of an order that agrees with ``order`` before
        position ``start`` resumes evaluation there; the generic adapter
        has no prefix state and prices the whole order.
        """
        names = [self.variables[i] for i in order]
        return [(self.model.order_cost(names, self.stats),)]

    def order_cost(self, order: Sequence[int]) -> float:
        return self.order_trail(order)[-1][0]


class DenseView(PlanningView):
    """Statistics as arrays, plus a per-subset memo, for the built-in
    models: ``rate[i]``, ``wr[i] = W·r_i`` and ``subset(mask)`` — the
    model's estimate for a variable set, extended one variable at a time
    in ascending index order (O(popcount) per new set)."""

    #: Estimate of the empty set.
    empty: object = 1.0

    def __init__(self, model, variables, stats):
        super().__init__(model, variables, stats)
        self.window = stats.window
        self.rate = [stats.rate(v) for v in variables]
        self.wr = [stats.window * rate for rate in self.rate]
        self._memo = {0: self.empty}

    def extend(self, estimate, mask: int, i: int):
        """Estimate of ``mask | {i}`` from the estimate of ``mask``."""
        raise NotImplementedError

    def subset(self, mask: int):
        estimate = self._memo.get(mask)
        if estimate is None:
            high = mask.bit_length() - 1
            rest = mask ^ (1 << high)
            estimate = self._memo[mask] = self.extend(
                self.subset(rest), rest, high
            )
        return estimate

    def selectivity_product(self, product: float, mask: int, i: int) -> float:
        """``product · Π_{j ∈ mask} sel[i][j]``, ascending ``j``."""
        row = self.sel[i]
        mask &= self.adjacent[i]  # the other factors are exactly 1.0
        while mask:
            low = mask & -mask
            product *= row[low.bit_length() - 1]
            mask ^= low
        return product
