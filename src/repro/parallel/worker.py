"""Worker-side execution: engine specs, the task runner, process main.

A worker — whether an OS process, a thread, or the caller's own frame
(serial backend) — receives a :class:`WorkerTask` describing the engine
it hosts and a sequence of events, and returns a
:class:`WorkerResult`.  All three backends run this exact code path;
the process backend additionally crosses a pickle boundary, which is
why specs ship plans as :func:`repro.plans.planned_to_dict` dicts
(rebuilt by :func:`repro.engines.build_engine_from_parts`) rather than
as live engine objects: engines hold closures (compiled key functions,
unary-filter lambdas) that do not pickle, while decomposed patterns,
plan dicts and shared-plan DAGs do.

Every worker hosts one engine: key partitioning sends each match wholly
into one shard, and a plan it cannot shard runs on a single worker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..engines.factory import build_engine_from_parts
from ..engines.matches import Match
from ..engines.metrics import EngineMetrics
from ..engines.snapshot import EngineSnapshot
from ..errors import ParallelError
from ..events import Event
from ..optimizers.planner import PlannedPattern
from ..plans.serialization import PLAN_SCHEMA_VERSION, planned_to_dict


@dataclass
class EngineSpec:
    """Ship format for a single-pattern runtime (possibly a disjunction,
    which the worker lowers to one multi-root plan DAG).

    One entry in ``parts`` per DNF disjunct: the decomposed pattern
    (pickled as data) plus the :func:`repro.plans.planned_to_dict`
    serialization carrying plan shape and selection strategy.
    """

    parts: List[dict]
    max_kleene_size: Optional[int] = None
    indexed: bool = True
    compiled: bool = True
    codegen: bool = True

    @classmethod
    def from_planned(
        cls,
        planned: Sequence[PlannedPattern],
        max_kleene_size: Optional[int] = None,
        indexed: bool = True,
        compiled: bool = True,
        codegen: bool = True,
    ) -> "EngineSpec":
        return cls(
            parts=[
                {"decomposed": item.decomposed, "planned": planned_to_dict(item)}
                for item in planned
            ],
            max_kleene_size=max_kleene_size,
            indexed=indexed,
            compiled=compiled,
            codegen=codegen,
        )

    def build(self):
        for part in self.parts:
            schema = part["planned"].get("schema")
            if schema != PLAN_SCHEMA_VERSION:
                raise ParallelError(
                    f"worker spec carries plan schema {schema!r}; this "
                    f"runtime reads schema {PLAN_SCHEMA_VERSION}"
                )
        return build_engine_from_parts(
            self.parts,
            max_kleene_size=self.max_kleene_size,
            indexed=self.indexed,
            compiled=self.compiled,
            codegen=self.codegen,
        )


@dataclass
class SharedSpec:
    """Ship format for a multi-query runtime: the shared plan itself.

    The DAG (nodes, roots, renamings, predicates) is plain data and
    pickles; all mutable state lives in the engine the worker builds.
    """

    plan: object  # SharedPlan; untyped to keep the import graph one-way
    max_kleene_size: Optional[int] = None
    indexed: bool = True
    compiled: bool = True
    codegen: bool = True

    def build(self):
        from ..multiquery.executor import MultiQueryEngine

        return MultiQueryEngine(
            self.plan,
            max_kleene_size=self.max_kleene_size,
            indexed=self.indexed,
            compiled=self.compiled,
            codegen=self.codegen,
        )


@dataclass
class WorkerTask:
    """Everything one worker needs: the engine template to build."""

    spec: object  # EngineSpec | SharedSpec
    # Plan-DAG tracing (repro.observe): the runner creates one
    # worker-local Tracer and attaches it to the engine it builds; the
    # driver merges the per-worker node snapshots afterwards.
    trace: bool = False


@dataclass
class WorkerResult:
    """What a worker hands back to the merger."""

    matches: List[Match] = field(default_factory=list)
    metrics: EngineMetrics = field(default_factory=EngineMetrics)


class TaskRunner:
    """Drives one worker's engine over its entry stream.

    Driven by the service runtime's worker state machine
    (:class:`repro.service.protocol.WorkerState`) on every backend —
    inline, thread, process, or socket shard — so the worker semantics
    live here exactly once.
    """

    def __init__(self, task: WorkerTask) -> None:
        self.task = task
        self._engine = None
        self._matches: List[Match] = []
        self._fed = False
        self._tracer = None
        if task.trace:
            # Imported lazily: the hot path of an untraced worker never
            # touches repro.observe.
            from ..observe.trace import Tracer

            self._tracer = Tracer()

    def seed(self, events: Sequence[Event], now: float) -> None:
        """Rebuild the engine from a window event log.

        The session layer's crash recovery: the driver keeps the acked
        events still inside the window and, after restarting a dead
        worker, replays them through a fresh engine via the
        :meth:`~repro.engines.base.BaseEngine.seed_from` machinery —
        matches re-derived during the replay were already delivered in
        earlier acks and are suppressed.  Must run before the first
        batch of the new incarnation.
        """
        if self._engine is not None or self._fed:
            raise ParallelError("seed must precede the first batch")
        engine = self.task.spec.build()
        engine.seed_from(EngineSnapshot(events, now, engine.window))
        if self._tracer is not None:
            engine.set_tracer(self._tracer)
        self._engine = engine

    def stats(self) -> dict:
        """Mid-run snapshot: the engine's metrics and (when tracing)
        per-node counters.

        Read-only and epoch-independent — polling never disturbs the
        engine, so a live service worker can answer a STATS frame
        mid-stream (:mod:`repro.service.protocol`).
        """
        metrics = EngineMetrics()
        if self._engine is not None:
            metrics = metrics.merge(self._engine.metrics)
        nodes = (
            self._tracer.node_dicts() if self._tracer is not None else None
        )
        return {"metrics": metrics, "nodes": nodes}

    def take_matches(self) -> List[Match]:
        """Drain the matches kept since the last drain (service acks)."""
        out = self._matches
        self._matches = []
        return out

    def feed(self, events: Sequence[Event]) -> None:
        """Process one frame of events, one at a time."""
        engine = self._engine
        if engine is None:
            engine = self._build_engine()
        self._fed = True
        matches = self._matches
        for event in events:
            matches.extend(engine.process(event))

    def _build_engine(self):
        engine = self.task.spec.build()
        if self._tracer is not None:
            engine.set_tracer(self._tracer)
        self._engine = engine
        return engine

    def finish(self) -> WorkerResult:
        metrics = EngineMetrics()
        engine, self._engine = self._engine, None
        if engine is not None:
            self._matches.extend(engine.finalize())
            metrics = metrics.merge(engine.metrics)
        return WorkerResult(matches=self._matches, metrics=metrics)


def execute_task(task: WorkerTask, events) -> WorkerResult:
    """Run a whole task over an event iterable (tests, simple callers)."""
    runner = TaskRunner(task)
    runner.feed(events)
    return runner.finish()
