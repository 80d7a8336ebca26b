"""repro — Join Query Optimization Techniques for Complex Event Processing.

A from-scratch reproduction of Kolchinsky & Schuster, VLDB 2018
(arXiv:1801.09413): the CPG <-> JQPG equivalence, join-optimizer-based
CEP plan generation, and the full evaluation stack (the lazy NFA and the
plan-DAG runtime for tree plans, disjunctions and workloads, cost
models, workloads, benchmarks).

Quickstart::

    from repro import (
        parse_pattern, estimate_pattern_catalog, plan_pattern, build_engines,
    )
    from repro.workloads import generate_stock_stream

    stream = generate_stock_stream()
    pattern = parse_pattern(
        "PATTERN SEQ(MSFT m, GOOG g, INTC i) "
        "WHERE m.difference < g.difference WITHIN 10"
    )
    catalog = estimate_pattern_catalog(pattern, stream)
    planned = plan_pattern(pattern, catalog, algorithm="DP-LD")
    engine = build_engines(planned)
    matches = engine.run(stream)

Multi-query workloads
---------------------

A deployment rarely runs one pattern: :mod:`repro.multiquery` plans a
whole *workload* of patterns jointly and executes them in one pass over
the stream.  Per-query plans (any registry algorithm) are merged into a
global plan DAG — equivalent sub-patterns, detected by canonical
fingerprints up to variable renaming, are evaluated once per event and
fanned out to every consuming query — while per-query match sets stay
exactly what independent engines would report::

    from repro import Workload, run_workload

    workload = Workload.of(
        "PATTERN SEQ(MSFT m, GOOG g) WHERE m.difference < g.difference WITHIN 10",
        "PATTERN SEQ(MSFT a, GOOG b, INTC i) "
        "WHERE a.difference < b.difference WITHIN 10",
    )
    result = run_workload(workload, stream, algorithm="GREEDY")
    result.matches["..."]       # per-query Match lists
    result.report.cost_savings  # fraction of plan cost shared away

Overlapping workload generators live in
:func:`repro.workloads.generate_overlapping_workload`; the sharing
sweep is reproduced by ``benchmarks/bench_fig20_multiquery_sharing.py``.

Parallel partitioned execution
------------------------------

:mod:`repro.parallel` shards one logical stream across a worker pool
by equi-join key — a plan with no shared key runs on one worker — and
merges match streams into a canonical deterministic order identical in
content to single-threaded execution::

    from repro import ParallelConfig, build_engines

    executor = build_engines(planned, parallel=ParallelConfig(workers=4))
    matches = executor.run(stream)
    executor.metrics.worker_count    # aggregated per-worker metrics

``run_workload(..., parallel=...)`` does the same for multi-query
plans; the scaling sweep is ``benchmarks/bench_fig22_parallel_scaling.py``.

Always-on service runtime
-------------------------

:mod:`repro.service` keeps the worker pool alive between runs
(persistent sessions), streams matches incrementally behind a
canonical-order safety frontier, ingests events from asyncio with
bounded-queue backpressure, and distributes shards over TCP::

    from repro import Ingestor, serve_in_thread

    with ParallelExecutor(planned, config) as executor:
        executor.run(stream)                 # starts the pool
        executor.run(stream)                 # reuses it
        run = executor.session().stream()    # incremental emission
        async with Ingestor(executor) as ingestor:   # asyncio front door
            ...

Worker crashes surface as :class:`~repro.errors.WorkerCrashError` or
are transparently recovered with ``ParallelConfig(recovery="reseed")``:
heartbeat liveness unmasks frozen workers, socket shards re-dial with
exponential backoff and re-handshake, and exhausted reconnection can
degrade a shard to a local worker (``degradation="local"``) — every
path preserving byte-identical output.  Failures are injectable on
demand with :class:`~repro.service.FaultPlan` (see README "Fault
tolerance"); the latency sweep is
``benchmarks/bench_fig25_service_latency.py`` and the chaos soak is
``benchmarks/chaos_soak.py``.

Adaptive runtime
----------------

:mod:`repro.adaptive` keeps a long-running query on the best plan as the
stream's statistics drift: arrival rates come from a sliding-window
estimator, predicate selectivities from the engines' own evaluation
outcomes, and a plan switch migrates in-flight state instead of
dropping it::

    from repro import AdaptiveController, DriftDetector

    controller = AdaptiveController(
        pattern, catalog, migration="recompute",
        detector=DriftDetector(threshold=0.5, selectivity_threshold=0.3),
    )
    matches = controller.run(stream)     # lossless across plan switches
    controller.metrics.migrations        # swap + handover counters

The migration policies (``restart`` / ``recompute`` /
``parallel-drain``) and their guarantees are documented in
:mod:`repro.adaptive.controller`; the drifting-stream benchmark is
``benchmarks/bench_fig23_adaptivity.py``.
"""

from .adaptive import MIGRATION_POLICIES, AdaptiveController, DriftDetector
from .cost import (
    CostModel,
    HybridCostModel,
    LatencyCostModel,
    NextMatchCostModel,
    ThroughputCostModel,
)
from .engines import (
    EngineSnapshot,
    Match,
    NFAEngine,
    OutputProfiler,
    build_engine,
    build_engine_from_parts,
    build_engines,
    build_runtime,
)
from .errors import (
    EngineError,
    OptimizerError,
    ParallelError,
    PatternError,
    PatternParseError,
    PlanError,
    ReductionError,
    ReproError,
    StatisticsError,
    WorkerCrashError,
)
from .events import ChunkedStream, Event, EventType, Stream
from .multiquery import (
    DagEngine,
    MultiQueryEngine,
    SharedPlan,
    SharedPlanOptimizer,
    SharingReport,
    Workload,
    WorkloadResult,
    plan_workload,
    run_workload,
)
from .optimizers import (
    PlannedPattern,
    available_algorithms,
    make_optimizer,
    plan_pattern,
)
from .parallel import ParallelConfig, ParallelExecutor, canonical_order
from .patterns import (
    Pattern,
    decompose,
    nested_to_dnf,
    parse_pattern,
    sequence_to_conjunction,
)
from .plans import OrderPlan, TreePlan
from .service import (
    FaultPlan,
    Ingestor,
    Session,
    ShardServer,
    serve_in_thread,
)
from .stats import (
    PatternStatistics,
    SelectivityTracker,
    StatisticsCatalog,
    estimate_pattern_catalog,
)
from .streams import (
    DeltaEngine,
    DisorderBuffer,
    DisorderError,
    MatchRetraction,
    MatchRevision,
    Retraction,
    Update,
    match_fingerprint,
    net_fingerprints,
    net_matches,
)

__version__ = "1.10.0"

__all__ = [
    "AdaptiveController",
    "DriftDetector",
    "MIGRATION_POLICIES",
    "EngineSnapshot",
    "SelectivityTracker",
    "CostModel",
    "HybridCostModel",
    "LatencyCostModel",
    "NextMatchCostModel",
    "ThroughputCostModel",
    "Match",
    "NFAEngine",
    "OutputProfiler",
    "build_engine",
    "build_engine_from_parts",
    "build_engines",
    "build_runtime",
    "EngineError",
    "OptimizerError",
    "ParallelError",
    "PatternError",
    "PatternParseError",
    "PlanError",
    "ReductionError",
    "ReproError",
    "StatisticsError",
    "WorkerCrashError",
    "Event",
    "EventType",
    "Stream",
    "ChunkedStream",
    "DeltaEngine",
    "DisorderBuffer",
    "DisorderError",
    "MatchRetraction",
    "MatchRevision",
    "Retraction",
    "Update",
    "match_fingerprint",
    "net_fingerprints",
    "net_matches",
    "ParallelConfig",
    "ParallelExecutor",
    "canonical_order",
    "FaultPlan",
    "Ingestor",
    "Session",
    "ShardServer",
    "serve_in_thread",
    "DagEngine",
    "MultiQueryEngine",
    "SharedPlan",
    "SharedPlanOptimizer",
    "SharingReport",
    "Workload",
    "WorkloadResult",
    "plan_workload",
    "run_workload",
    "PlannedPattern",
    "available_algorithms",
    "make_optimizer",
    "plan_pattern",
    "Pattern",
    "decompose",
    "nested_to_dnf",
    "parse_pattern",
    "sequence_to_conjunction",
    "OrderPlan",
    "TreePlan",
    "PatternStatistics",
    "StatisticsCatalog",
    "estimate_pattern_catalog",
    "__version__",
]
