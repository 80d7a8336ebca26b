"""Multi-query shared-plan subsystem: many patterns, one stream pass.

The paper's tree-based plans (Section 4) make common sub-joins
structurally explicit; this subsystem exploits that across a *workload*
of patterns.  Per-query plans from any registered optimizer are merged
into a global plan DAG (:mod:`repro.multiquery.sharing`) keyed by
canonical sub-pattern fingerprints (:mod:`repro.multiquery.workload`),
and executed by one :class:`MultiQueryEngine`
(:mod:`repro.multiquery.executor`) that evaluates every shared node once
per event and fans results out to all consuming queries.  The same
plan-DAG runtime (:class:`DagEngine`) runs every single tree plan and
every disjunction, lowered by :func:`lower_plans`.

Typical use::

    from repro import Workload, run_workload

    workload = Workload.of(
        "PATTERN SEQ(MSFT m, GOOG g) WHERE m.difference < g.difference WITHIN 10",
        "PATTERN SEQ(MSFT m, GOOG g, INTC i) "
        "WHERE m.difference < g.difference WITHIN 10",
    )
    result = run_workload(workload, stream, algorithm="GREEDY")
    result.matches          # {query name: [Match, ...]}
    result.report.summary() # sharing statistics
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, Mapping, Optional, Union

from ..cost.base import CostModel
from ..optimizers.planner import plan_pattern
from ..patterns.pattern import Pattern
from ..stats.catalog import StatisticsCatalog
from ..stats.estimators import estimate_pattern_catalog
from .executor import DagEngine, MultiQueryEngine, WorkloadResult
from .sharing import (
    QueryRoot,
    SharedJoin,
    SharedLeaf,
    SharedNode,
    SharedPlan,
    SharedPlanOptimizer,
    SharingReport,
    ShareFilter,
    lower_plans,
)
from .workload import (
    Workload,
    canonical_subpattern,
    pattern_fingerprint,
    predicate_signature,
    subpattern_fingerprint,
)

Catalogs = Union[StatisticsCatalog, Mapping[str, StatisticsCatalog]]


def plan_workload(
    workload: Union[Workload, Iterable[Union[Pattern, str]]],
    catalogs: Catalogs,
    algorithm: str = "GREEDY",
    cost_model: Optional[CostModel] = None,
    sharing: bool = True,
    share_filter: Optional[ShareFilter] = None,
    **optimizer_kwargs,
) -> SharedPlan:
    """Jointly plan a workload: per-query plans merged into one DAG.

    ``catalogs`` is one :class:`~repro.stats.StatisticsCatalog` for the
    whole stream or a mapping from query name to catalog.  Any algorithm
    of :func:`repro.optimizers.available_algorithms` works; order-based
    plans are promoted to their left-deep trees before merging.
    """
    selection = optimizer_kwargs.pop("selection", "any")
    if selection != "any":
        from ..errors import PlanError

        raise PlanError(
            "multi-query workloads support only selection='any' "
            "(skip-till-any-match): the restrictive strategies consume "
            f"events per query, which breaks sharing (got {selection!r})"
        )
    if not isinstance(workload, Workload):
        workload = Workload(workload)
    planned = []
    for name, pattern in workload.items():
        catalog = (
            catalogs if isinstance(catalogs, StatisticsCatalog)
            else catalogs[name]
        )
        planned.append(
            (
                name,
                plan_pattern(
                    pattern,
                    catalog,
                    algorithm=algorithm,
                    selection="any",
                    **optimizer_kwargs,
                ),
            )
        )
    optimizer = SharedPlanOptimizer(
        cost_model=cost_model, sharing=sharing, share_filter=share_filter
    )
    return optimizer.optimize(planned)


def run_workload(
    workload: Union[Workload, Iterable[Union[Pattern, str]]],
    stream,
    algorithm: str = "GREEDY",
    catalogs: Optional[Catalogs] = None,
    sharing: bool = True,
    cost_model: Optional[CostModel] = None,
    share_filter: Optional[ShareFilter] = None,
    max_kleene_size: Optional[int] = None,
    indexed: bool = True,
    compiled: bool = True,
    parallel=None,
    **optimizer_kwargs,
) -> WorkloadResult:
    """Plan and execute a whole workload against one stream.

    Statistics default to :func:`repro.stats.estimate_pattern_catalog`
    per query.  Returns a :class:`WorkloadResult` with per-query match
    lists, aggregate :class:`~repro.engines.EngineMetrics`, and the
    :class:`SharingReport` of the merged plan.

    ``parallel`` (a :class:`~repro.parallel.ParallelConfig`, or an int
    worker count) executes the shared plan on the parallel runtime
    instead of a single :class:`MultiQueryEngine`: the stream is
    routed by equi-join key when every query admits one key class and
    otherwise runs on one worker of the configured backend, and the
    per-query match lists come back in canonical order, identical in
    content to the single-engine run.
    """
    if not isinstance(workload, Workload):
        workload = Workload(workload)
    if catalogs is None:
        catalogs = {
            name: estimate_pattern_catalog(pattern, stream)
            for name, pattern in workload.items()
        }
    plan = plan_workload(
        workload,
        catalogs,
        algorithm=algorithm,
        cost_model=cost_model,
        sharing=sharing,
        share_filter=share_filter,
        **optimizer_kwargs,
    )
    if parallel is not None:
        from ..engines.factory import build_engines

        executor = build_engines(
            plan,
            max_kleene_size=max_kleene_size,
            indexed=indexed,
            compiled=compiled,
            parallel=parallel,
        )
        matches = executor.run(stream)
        return WorkloadResult(
            matches=matches,
            metrics=executor.metrics,
            plan=plan,
            engine=executor,
            wall_seconds=executor.wall_seconds,
            events=executor.events_in,
        )
    engine = MultiQueryEngine(
        plan,
        max_kleene_size=max_kleene_size,
        indexed=indexed,
        compiled=compiled,
    )
    started = time.perf_counter()
    matches = engine.run(stream)
    wall = time.perf_counter() - started
    events = (
        len(stream)
        if hasattr(stream, "__len__")
        else engine.metrics.events_processed
    )
    return WorkloadResult(
        matches=matches,
        metrics=engine.metrics,
        plan=plan,
        engine=engine,
        wall_seconds=wall,
        events=events,
    )


__all__ = [
    "Workload",
    "canonical_subpattern",
    "subpattern_fingerprint",
    "pattern_fingerprint",
    "predicate_signature",
    "SharedNode",
    "SharedLeaf",
    "SharedJoin",
    "SharedPlan",
    "SharedPlanOptimizer",
    "SharingReport",
    "ShareFilter",
    "QueryRoot",
    "lower_plans",
    "DagEngine",
    "MultiQueryEngine",
    "WorkloadResult",
    "plan_workload",
    "run_workload",
]
