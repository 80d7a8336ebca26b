"""Engine construction from planner output.

Two runtimes execute every plan: the lazy NFA
(:class:`~repro.engines.nfa.NFAEngine`) runs a single order plan, and
the plan-DAG runtime (:class:`~repro.multiquery.executor.DagEngine`)
runs everything else.  :func:`build_engine` and :func:`build_engines`
lower a tree plan to a one-root DAG and a disjunction — a nested
pattern planned by :func:`repro.optimizers.plan_pattern` into one entry
per DNF disjunct, of order or tree plans — to one DAG with a root per
disjunct, each reporting its matches under the disjunct's name
(Section 5.4).  Under skip-till-any-match the disjuncts share
equivalent sub-joins; the restrictive strategies consume events per
disjunct, so there each disjunct keeps a private tree.

Workloads plug in here too: passing a
:class:`~repro.multiquery.sharing.SharedPlan` (the output of
:func:`repro.multiquery.plan_workload`) to :func:`build_engines` yields
the :class:`~repro.multiquery.MultiQueryEngine` executing all queries
jointly.

Two parallel-runtime hooks live here as well (:mod:`repro.parallel`):
``build_engines(..., parallel=...)`` wraps the planned patterns in a
:class:`~repro.parallel.ParallelExecutor` instead of a single-process
engine, and :func:`build_engine_from_parts` is the worker-side inverse
of :func:`repro.plans.planned_to_dict` — it rebuilds a runtime engine
from decomposed patterns plus serialized plan dicts, which is exactly
what a worker spec ships.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Union

if TYPE_CHECKING:  # one-way at runtime: multiquery builds on engines
    from ..multiquery.executor import MultiQueryEngine
    from ..multiquery.sharing import SharedPlan
    from ..parallel.executor import ParallelConfig, ParallelExecutor

from ..errors import EngineError
from ..optimizers.planner import PlannedPattern
from ..patterns.transformations import DecomposedPattern
from ..plans.order_plan import OrderPlan
from ..plans.serialization import plan_from_dict
from ..plans.tree_plan import TreePlan
from .base import SELECTION_ANY, BaseEngine
from .nfa import NFAEngine
from .snapshot import EngineSnapshot


def _lowered(parts, selection: str, **flags) -> BaseEngine:
    """The runtime for ``(name, decomposed, plan)`` parts, one per DNF
    disjunct: the NFA for a lone order plan, else the plan DAG."""
    if len(parts) == 1 and isinstance(parts[0][2], OrderPlan):
        name, decomposed, plan = parts[0]
        return NFAEngine(
            decomposed, plan, selection=selection, pattern_name=name, **flags
        )
    from ..multiquery.executor import DagEngine
    from ..multiquery.sharing import lower_plans

    sharing = len(parts) > 1 and selection == SELECTION_ANY
    return DagEngine(
        lower_plans(parts, sharing=sharing), selection=selection, **flags
    )


def build_runtime(
    decomposed: DecomposedPattern,
    plan: Union[OrderPlan, TreePlan],
    selection: str = SELECTION_ANY,
    pattern_name: Optional[str] = None,
    max_kleene_size: Optional[int] = None,
    indexed: bool = True,
    compiled: bool = True,
    codegen: bool = True,
) -> BaseEngine:
    """The runtime for one decomposed pattern and its plan: the NFA for
    an order plan, the one-root plan DAG for a tree plan."""
    return _lowered(
        [(pattern_name, decomposed, plan)],
        selection,
        max_kleene_size=max_kleene_size,
        indexed=indexed,
        compiled=compiled,
        codegen=codegen,
    )


def build_engine(
    planned: PlannedPattern,
    max_kleene_size: Optional[int] = None,
    indexed: bool = True,
    seed: Optional[EngineSnapshot] = None,
    compiled: bool = True,
    codegen: bool = True,
    tracer=None,
) -> BaseEngine:
    """Instantiate the runtime engine for one planned simple pattern.

    ``indexed=False`` keeps the linear (seed) stores — the baseline the
    store-equivalence tests and the fig21 benchmark compare against.

    ``seed`` — an :class:`~repro.engines.snapshot.EngineSnapshot`
    exported from a running engine of an *equivalent* pattern — rebuilds
    the new engine's intermediate stores by replaying the snapshot's
    window buffer before any live event arrives (recompute-from-buffer
    migration, see :meth:`BaseEngine.seed_from`).

    ``tracer`` — a :class:`~repro.observe.trace.Tracer` — registers one
    stat per plan node and turns on per-node attribution; without it the
    hot path stays observation-free (see :mod:`repro.observe`).
    """
    return build_engines(
        [planned], max_kleene_size, indexed, seed=seed, compiled=compiled,
        codegen=codegen, tracer=tracer,
    )


def build_engine_from_parts(
    parts: Sequence[dict],
    max_kleene_size: Optional[int] = None,
    indexed: bool = True,
    compiled: bool = True,
    codegen: bool = True,
) -> BaseEngine:
    """Rebuild a runtime engine from shipped parts (worker side).

    One part per DNF disjunct: ``{"decomposed": ..., "planned": ...}``,
    the decomposed pattern plus its :func:`repro.plans.planned_to_dict`
    serialization.  Lowers exactly like :func:`build_engines`.
    """
    if not parts:
        raise EngineError("no planned parts supplied")
    return _lowered(
        [
            (
                part["planned"]["pattern_name"],
                part["decomposed"],
                plan_from_dict(part["planned"]["plan"]),
            )
            for part in parts
        ],
        parts[0]["planned"]["selection"],
        max_kleene_size=max_kleene_size,
        indexed=indexed,
        compiled=compiled,
        codegen=codegen,
    )


def build_engines(
    planned: Union[Sequence[PlannedPattern], "SharedPlan"],
    max_kleene_size: Optional[int] = None,
    indexed: bool = True,
    parallel: Optional[Union["ParallelConfig", int]] = None,
    seed: Optional[EngineSnapshot] = None,
    compiled: bool = True,
    codegen: bool = True,
    tracer=None,
) -> Union[BaseEngine, "MultiQueryEngine", "ParallelExecutor"]:
    """Engine for planner output: the NFA or the plan DAG (see the module
    docstring), or — for a :class:`~repro.multiquery.sharing.SharedPlan`
    — the shared multi-query engine.

    ``parallel`` (a :class:`~repro.parallel.ParallelConfig`, or an int
    taken as the worker count) returns a
    :class:`~repro.parallel.ParallelExecutor` over the same plans
    instead: ``run(stream)`` then shards the stream across workers and
    merges match lists canonically (see :mod:`repro.parallel`).

    ``seed`` rebuilds engine state from a snapshot before any live event
    arrives (live plan migration, :mod:`repro.adaptive`): pass the
    :class:`~repro.engines.snapshot.EngineSnapshot` a running engine of
    the same pattern (or workload) exported.  Seeding parallel
    executors is not supported.

    ``tracer`` attaches plan-DAG tracing (:mod:`repro.observe`) to the
    built engine — every plan node registers a stat, and the same match
    lists come out byte-identical.  Parallel executors trace worker-side
    instead: set ``ParallelConfig(trace=True)`` and merge the per-worker
    node snapshots.
    """
    from ..multiquery.sharing import SharedPlan as _SharedPlan

    if parallel is not None:
        if seed is not None:
            raise EngineError("parallel executors cannot be seeded")
        if tracer is not None:
            raise EngineError(
                "attach tracing to parallel runs via "
                "ParallelConfig(trace=True)"
            )
        from ..parallel.executor import ParallelConfig as _Config
        from ..parallel.executor import ParallelExecutor as _Executor

        config = (
            parallel
            if isinstance(parallel, _Config)
            else _Config(workers=int(parallel))
        )
        return _Executor(
            planned,
            config,
            max_kleene_size=max_kleene_size,
            indexed=indexed,
            compiled=compiled,
            codegen=codegen,
        )
    if isinstance(planned, _SharedPlan):
        from ..multiquery.executor import MultiQueryEngine as _MultiQueryEngine

        engine = _MultiQueryEngine(
            planned,
            max_kleene_size=max_kleene_size,
            indexed=indexed,
            compiled=compiled,
            codegen=codegen,
        )
    else:
        if not planned:
            raise EngineError("no planned patterns supplied")
        engine = _lowered(
            [(i.pattern.name, i.decomposed, i.plan) for i in planned],
            planned[0].selection,
            max_kleene_size=max_kleene_size,
            indexed=indexed,
            compiled=compiled,
            codegen=codegen,
        )
    if seed is not None:
        engine.seed_from(seed)
    if tracer is not None:
        engine.set_tracer(tracer)
    return engine
