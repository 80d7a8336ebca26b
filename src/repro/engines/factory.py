"""Engine construction from planner output.

:func:`build_engine` turns one :class:`~repro.optimizers.PlannedPattern`
into the matching runtime (NFA for order plans, tree engine for tree
plans).  :func:`build_engines` additionally handles disjunctions — a
nested pattern planned by :func:`repro.optimizers.plan_pattern` yields
one sub-engine per DNF disjunct, wrapped in a
:class:`DisjunctionEngine` that runs them side by side and reports the
union of their matches (Section 5.4).

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
from a decomposed pattern plus a serialized plan dict, which is exactly
what a worker spec ships.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Union

if TYPE_CHECKING:  # one-way at runtime: multiquery builds on engines
    from ..multiquery.executor import MultiQueryEngine
    from ..multiquery.sharing import SharedPlan
    from ..parallel.executor import ParallelConfig, ParallelExecutor

from ..errors import EngineError
from ..events import Event, Stream
from ..optimizers.planner import PlannedPattern
from ..patterns.transformations import DecomposedPattern
from ..plans.order_plan import OrderPlan
from ..plans.serialization import plan_from_dict
from ..plans.tree_plan import TreePlan
from .base import BaseEngine
from .matches import Match
from .metrics import EngineMetrics
from .nfa import NFAEngine
from .snapshot import EngineSnapshot
from .tree import TreeEngine

Engine = Union[BaseEngine, "DisjunctionEngine"]


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
    common = dict(
        selection=planned.selection,
        max_kleene_size=max_kleene_size,
        pattern_name=planned.pattern.name,
        indexed=indexed,
        compiled=compiled,
        codegen=codegen,
    )
    if isinstance(planned.plan, OrderPlan):
        engine = NFAEngine(planned.decomposed, planned.plan, **common)
    elif isinstance(planned.plan, TreePlan):
        engine = TreeEngine(planned.decomposed, planned.plan, **common)
    else:
        raise EngineError(
            f"unsupported plan type {type(planned.plan).__name__}"
        )
    if seed is not None:
        engine.seed_from(seed)
    if tracer is not None:
        engine.set_tracer(tracer)
    return engine


def build_engine_from_parts(
    decomposed: DecomposedPattern,
    plan_data: dict,
    selection: str = "any",
    pattern_name: Optional[str] = None,
    max_kleene_size: Optional[int] = None,
    indexed: bool = True,
    compiled: bool = True,
    codegen: bool = True,
) -> BaseEngine:
    """Rebuild a runtime engine from shipped parts (worker side).

    ``plan_data`` is the ``"plan"`` entry of
    :func:`repro.plans.planned_to_dict` (or any
    :func:`repro.plans.plan_to_dict` output); the decomposed pattern
    travels alongside it.  Dispatches on the reconstructed plan type
    exactly like :func:`build_engine`.
    """
    plan = plan_from_dict(plan_data)
    common = dict(
        selection=selection,
        max_kleene_size=max_kleene_size,
        pattern_name=pattern_name,
        indexed=indexed,
        compiled=compiled,
        codegen=codegen,
    )
    if isinstance(plan, OrderPlan):
        return NFAEngine(decomposed, plan, **common)
    if isinstance(plan, TreePlan):
        return TreeEngine(decomposed, plan, **common)
    raise EngineError(f"unsupported plan type {type(plan).__name__}")


def build_engines(
    planned: Union[Sequence[PlannedPattern], "SharedPlan"],
    max_kleene_size: Optional[int] = None,
    indexed: bool = True,
    parallel: Optional[Union["ParallelConfig", int]] = None,
    seed: Optional[object] = None,
    compiled: bool = True,
    codegen: bool = True,
    tracer=None,
) -> Union[Engine, "MultiQueryEngine", "ParallelExecutor"]:
    """Engine for planner output: single engine, disjunction wrapper, or
    — for a :class:`~repro.multiquery.sharing.SharedPlan` — the shared
    multi-query engine.

    ``parallel`` (a :class:`~repro.parallel.ParallelConfig`, or an int
    taken as the worker count) returns a
    :class:`~repro.parallel.ParallelExecutor` over the same plans
    instead: ``run(stream)`` then shards the stream across workers and
    merges match lists canonically (see :mod:`repro.parallel`).

    ``seed`` rebuilds engine state from a snapshot before any live event
    arrives (live plan migration, :mod:`repro.adaptive`): for a single
    planned pattern pass the engine's
    :class:`~repro.engines.snapshot.EngineSnapshot`; for a disjunction
    pass what :meth:`DisjunctionEngine.export_state` returned (one
    snapshot per disjunct).  Seeding parallel executors and shared
    multi-query plans is not supported.

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
        if seed is not None:
            raise EngineError("shared multi-query plans cannot be seeded")
        from ..multiquery.executor import MultiQueryEngine as _MultiQueryEngine

        engine = _MultiQueryEngine(
            planned,
            max_kleene_size=max_kleene_size,
            indexed=indexed,
            compiled=compiled,
            codegen=codegen,
        )
        if tracer is not None:
            engine.set_tracer(tracer)
        return engine
    if not planned:
        raise EngineError("no planned patterns supplied")
    if len(planned) == 1:
        if seed is not None and not isinstance(seed, EngineSnapshot):
            (seed,) = seed  # a one-element export_state list is fine
        return build_engine(
            planned[0],
            max_kleene_size,
            indexed,
            seed=seed,
            compiled=compiled,
            codegen=codegen,
            tracer=tracer,
        )
    engines = [
        build_engine(
            item, max_kleene_size, indexed, compiled=compiled,
            codegen=codegen,
        )
        for item in planned
    ]
    wrapper = DisjunctionEngine(engines)
    if seed is not None:
        wrapper.seed_from(seed)
    if tracer is not None:
        wrapper.set_tracer(tracer)
    return wrapper


class DisjunctionEngine:
    """Runs one engine per disjunct; matches are the union of outputs.

    Mirrors Section 5.4: every conjunctive subpattern of the DNF is
    detected independently.  (Shared-subexpression optimizations across
    disjuncts are out of the paper's scope.)
    """

    def __init__(self, engines: Sequence[BaseEngine]) -> None:
        if not engines:
            raise EngineError("disjunction needs at least one engine")
        self.engines = list(engines)

    def process(self, event: Event) -> list[Match]:
        matches: list[Match] = []
        for engine in self.engines:
            matches.extend(engine.process(event))
        return matches

    def run(self, stream: Stream) -> list[Match]:
        matches: list[Match] = []
        for event in stream:
            matches.extend(self.process(event))
        matches.extend(self.finalize())
        return matches

    def finalize(self) -> list[Match]:
        matches: list[Match] = []
        for engine in self.engines:
            matches.extend(engine.finalize())
        return matches

    # -- live plan migration -------------------------------------------------
    def export_state(self) -> list[EngineSnapshot]:
        """One plan-independent snapshot per disjunct sub-engine."""
        return [engine.export_state() for engine in self.engines]

    def seed_from(self, snapshots: Sequence[EngineSnapshot]) -> None:
        """Seed each sub-engine from its positional snapshot (the shape
        :meth:`export_state` returns — disjunct order is deterministic
        for one pattern, so positions line up across replans)."""
        snapshots = list(snapshots)
        if len(snapshots) != len(self.engines):
            raise EngineError(
                f"{len(snapshots)} snapshots for {len(self.engines)} "
                "disjunct engines"
            )
        for engine, snapshot in zip(self.engines, snapshots):
            engine.seed_from(snapshot)

    def seed_negation_state(
        self, snapshots: Sequence[EngineSnapshot]
    ) -> None:
        snapshots = list(snapshots)
        if len(snapshots) != len(self.engines):
            raise EngineError(
                f"{len(snapshots)} snapshots for {len(self.engines)} "
                "disjunct engines"
            )
        for engine, snapshot in zip(self.engines, snapshots):
            engine.seed_negation_state(snapshot)

    def set_selectivity_tracker(self, tracker) -> None:
        for engine in self.engines:
            engine.set_selectivity_tracker(tracker)

    # -- retraction deltas (repro.streams.disorder) --------------------------
    @property
    def selection(self) -> str:
        return self.engines[0].selection

    @property
    def window(self) -> float:
        """Largest disjunct window: how far one event's influence reaches."""
        return max(engine.window for engine in self.engines)

    def negation_event_types(self) -> frozenset:
        types: frozenset = frozenset()
        for engine in self.engines:
            types |= engine.negation_event_types()
        return types

    def retract_seq(self, seq: int) -> None:
        """Apply one retraction to every disjunct sub-engine."""
        for engine in self.engines:
            engine.retract_seq(seq)

    def set_tracer(self, tracer) -> None:
        """Attach one shared tracer to every disjunct sub-engine (their
        nodes stay apart via per-node labels)."""
        for engine in self.engines:
            engine.set_tracer(tracer)

    @property
    def metrics(self) -> EngineMetrics:
        merged = self.engines[0].metrics
        for engine in self.engines[1:]:
            merged = merged.merge(engine.metrics)
        return merged

    def __repr__(self) -> str:
        return f"DisjunctionEngine({len(self.engines)} sub-engines)"
