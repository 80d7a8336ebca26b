"""Detection-latency cost models (Section 6.1).

When a plan is optimized purely for throughput, the temporally *last*
event of a pattern (``T_n``) may sit in the middle of the plan; after it
arrives, the engine still has to walk the remainder of the plan before it
can report the match.  The latency cost estimates that remaining work:

* order plans: ``Cost_lat_ord(O) = Σ_{T_i ∈ Succ_O(T_n)} W·r_i`` — the
  buffered events of every type placed *after* ``T_n`` in the order;
* tree plans: ``Cost_lat_tree(T) = Σ_{N ∈ Anc_T(T_n)} PM(sibling(N))`` —
  the partial matches buffered on the siblings of the path from the
  ``T_n`` leaf to the root.

For sequence patterns ``T_n`` is the pattern's last positive variable.
For conjunctive patterns the last-arriving type is not known statically;
the paper proposes an *output profiler* that observes reported matches
and supplies the most frequent arrival order
(:class:`repro.engines.profiler.OutputProfiler`).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..errors import StatisticsError
from ..patterns.transformations import DecomposedPattern
from ..stats.catalog import PatternStatistics
from .base import CostModel, VariableSet
from .throughput import PartialMatchView, canonical, subset_partial_matches


class LatencyCostModel(CostModel):
    """``Cost_lat_ord`` / ``Cost_lat_tree`` for a known last variable."""

    name = "latency"

    def __init__(self, last_variable: str) -> None:
        if not last_variable:
            raise StatisticsError("latency model needs the last variable T_n")
        self.last_variable = last_variable

    # -- order plans -----------------------------------------------------
    def order_step_cost(
        self, prefix: VariableSet, variable: str, stats: PatternStatistics
    ) -> float:
        # Each variable placed after T_n contributes its buffered events.
        if self.last_variable in prefix:
            return stats.window * stats.rate(variable)
        return 0.0

    # -- tree plans ---------------------------------------------------------
    def leaf_cost(self, variable: str, stats: PatternStatistics) -> float:
        return 0.0

    def combine_cost(
        self,
        left: VariableSet,
        right: VariableSet,
        stats: PatternStatistics,
    ) -> float:
        # Every internal node whose subtree contains T_n contributes the
        # partial matches buffered on the side *not* containing it.
        if self.last_variable in left:
            return _node_pm(right, stats)
        if self.last_variable in right:
            return _node_pm(left, stats)
        return 0.0

    def _dense_view(self, variables, stats):
        return LatencyView(self, variables, stats)

    def __repr__(self) -> str:
        return f"LatencyCostModel(last={self.last_variable!r})"


def _node_pm(variables: VariableSet, stats: PatternStatistics) -> float:
    """PM buffered at the node covering ``variables`` (leaf: W·r)."""
    return subset_partial_matches(canonical(variables, stats), stats)


class LatencyView(PartialMatchView):
    """Dense ``Cost_lat``: ``last`` is the bit of ``T_n`` (0 if absent)."""

    def __init__(self, model, variables, stats):
        super().__init__(model, variables, stats)
        self.last = sum(
            1 << i for i, v in enumerate(variables) if v == model.last_variable
        )

    def leaf(self, i: int) -> float:
        return 0.0

    def step(self, mask: int, i: int) -> float:
        return self.wr[i] if mask & self.last else 0.0

    def combine(self, lmask: int, rmask: int) -> float:
        if lmask & self.last:
            return self.subset(rmask)
        if rmask & self.last:
            return self.subset(lmask)
        return 0.0

    def order_trail(self, order, trail=None, start=0):
        states = trail[:start + 1] if trail else [(0.0, 0)]
        total, mask = states[-1]
        for variable in order[start:]:
            total += self.step(mask, variable)
            mask |= 1 << variable
            states.append((total, mask))
        return states


def latency_model_for(
    decomposed: DecomposedPattern,
    last_variable: Optional[str] = None,
    tracer=None,
) -> LatencyCostModel:
    """Build a latency model for a pattern.

    For sequence patterns the last variable is implied; for conjunctions
    it must be supplied (typically by the output profiler).  ``tracer``
    (a :class:`~repro.observe.trace.Tracer`) records each
    (re)instantiation as an instant span, so profiler-driven changes of
    ``T_n`` are visible on the run timeline.
    """
    variable = last_variable or decomposed.temporal_last_variable()
    if variable is None:
        raise StatisticsError(
            "cannot infer the last variable of a non-sequence pattern; "
            "pass last_variable (e.g. from OutputProfiler.most_frequent_last())"
        )
    if tracer is not None:
        tracer.instant(
            "latency_model",
            last_variable=variable,
            profiled=last_variable is not None,
        )
    return LatencyCostModel(variable)


def disjunction_latency(component_latencies: Sequence[float]) -> float:
    """Latency cost of a disjunctive pattern: max over operands (§6.1)."""
    if not component_latencies:
        raise StatisticsError("disjunction needs at least one component")
    return max(component_latencies)
