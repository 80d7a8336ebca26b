"""Worker-side execution: engine specs, the task runner, process main.

A worker — whether an OS process, a thread, or the caller's own frame
(serial backend) — receives a :class:`WorkerTask` describing the engine
it hosts and a sequence of ``(engine_key, event)`` entries, and returns
a :class:`WorkerResult`.  All three backends run this exact code path;
the process backend additionally crosses a pickle boundary, which is
why specs ship plans as :func:`repro.plans.planned_to_dict` dicts
(rebuilt by :func:`repro.engines.build_engine_from_parts`) rather than
as live engine objects: engines hold closures (compiled key functions,
unary-filter lambdas) that do not pickle, while decomposed patterns,
plan dicts and shared-plan DAGs do.

``engine_key`` semantics by task mode:

* ``"single"`` — one engine per worker; the key is always 0 (key- and
  query-partitioned runs).
* ``"window"`` — the key is a window-slice id; the worker instantiates
  one engine per slice on demand and, after processing, keeps only the
  matches whose earliest constituent the slice owns, counting the
  overlap copies it drops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..engines.factory import build_engine_from_parts
from ..engines.matches import Match
from ..engines.metrics import EngineMetrics
from ..engines.snapshot import EngineSnapshot
from ..errors import ParallelError
from ..events import Event
from ..optimizers.planner import PlannedPattern
from ..plans.serialization import PLAN_SCHEMA_VERSION, planned_to_dict
from .ordering import match_min_ts
from .partitioners import slice_delivery_bounds, slice_owner_bounds


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
    """Everything one worker needs: an engine template plus slice math."""

    spec: object  # EngineSpec | SharedSpec
    mode: str = "single"  # "single" | "window"
    t0: float = 0.0
    span: float = 0.0
    window: float = 0.0
    # Plan-DAG tracing (repro.observe): the runner creates one
    # worker-local Tracer and attaches it to every engine it builds;
    # the driver merges the per-worker node snapshots afterwards.
    trace: bool = False

    def owner_bounds(self, slice_id: int) -> Tuple[float, float]:
        return slice_owner_bounds(self.t0, self.span, slice_id)


@dataclass
class WorkerResult:
    """What a worker hands back to the merger."""

    matches: List[Match] = field(default_factory=list)
    metrics: EngineMetrics = field(default_factory=EngineMetrics)


class TaskRunner:
    """Drives one worker's engines over its entry stream.

    Driven by the service runtime's worker state machine
    (:class:`repro.service.protocol.WorkerState`) on every backend —
    inline, thread, process, or socket shard — so the partition
    semantics live here exactly once.

    Window-mode slice engines are **evicted as stream time passes**:
    entries arrive in global timestamp order, so once an event's
    timestamp exceeds a slice's inclusive delivery bound
    (:func:`~repro.parallel.partitioners.slice_delivery_bounds`), no
    further entry can reach that slice — it is finalized, its owned
    matches collected, its metrics folded in, and its stores freed.
    Memory per worker is therefore O(active slices), not O(all slices
    ever) — the property that lets a small ``span`` run over an
    unbounded :class:`~repro.events.ChunkedStream`.
    """

    def __init__(self, task: WorkerTask) -> None:
        self.task = task
        self._engines: Dict[int, object] = {}
        # Slice id -> inclusive delivery hi, cached at engine creation:
        # the eviction check runs per fed event and the bound is a
        # constant of the slice.  The watermark (minimum cached hi)
        # makes that check O(1) until something can actually retire —
        # the same gating trick the stores use for window expiry.
        self._delivery_hi: Dict[int, float] = {}
        self._evict_watermark = float("inf")
        self._matches: List[Match] = []
        self._dropped = 0
        # Accounting accumulates as matches are kept (not at finish):
        # the service runtime drains matches incrementally via
        # take_matches(), so finish() can no longer derive counts from
        # the (by then partially drained) match list.
        self._kept = 0
        self._kept_latencies: List[float] = []
        self._kept_wall: List[float] = []
        self._fed = False
        self._retired = EngineMetrics()
        # Window mode: running peak over the *active* slice set — slices
        # retired at different stream times never coexist, so summing
        # their peaks (what merge() does for concurrent engines) would
        # overstate worker memory by the total slice count.
        self._peak_pm = 0
        self._peak_buffered = 0
        self._tracer = None
        if task.trace:
            # Imported lazily: the hot path of an untraced worker never
            # touches repro.observe.
            from ..observe.trace import Tracer

            self._tracer = Tracer()

    def seed(self, events: Sequence[Event], now: float) -> None:
        """Rebuild the (single-mode) engine from a window event log.

        The session layer's crash recovery: the driver keeps the acked
        entries still inside the window and, after restarting a dead
        worker, replays them through a fresh engine via the PR-4
        :meth:`~repro.engines.base.BaseEngine.seed_from` machinery —
        matches re-derived during the replay were already delivered in
        earlier acks and are suppressed.  Must run before the first
        batch of the new incarnation.
        """
        if self.task.mode != "single":
            raise ParallelError(
                "snapshot reseed supports single-engine tasks only; "
                "window-partitioned runs surface worker crashes instead"
            )
        if self._engines or self._fed:
            raise ParallelError("seed must precede the first batch")
        engine = self.task.spec.build()
        engine.seed_from(EngineSnapshot(events, now, engine.window))
        if self._tracer is not None:
            engine.set_tracer(self._tracer)
        self._engines[0] = engine

    def stats(self) -> dict:
        """Mid-run snapshot: merged metrics of the live engines plus the
        retired accumulator, and (when tracing) per-node counters.

        Read-only and epoch-independent — polling never disturbs the
        engines, so a live service worker can answer a STATS frame
        mid-stream (:mod:`repro.service.protocol`).
        """
        metrics = self._retired
        for engine in self._engines.values():
            metrics = metrics.merge(engine.metrics)
        nodes = (
            self._tracer.node_dicts() if self._tracer is not None else None
        )
        return {"metrics": metrics, "nodes": nodes}

    def take_matches(self) -> List[Match]:
        """Drain the matches kept since the last drain (service acks)."""
        out = self._matches
        self._matches = []
        return out

    def feed(self, entries: Sequence[Tuple[int, Event]]) -> None:
        """Process one frame of entries, one event at a time.

        Window slices are ownership-filtered per event and retired as
        the feed passes them; single mode (key 0, nothing to filter)
        collects the frame's matches once.
        """
        engines = self._engines
        window = self.task.mode == "window"
        self._fed = True
        matches: List[Match] = []
        for key, event in entries:
            engine = engines.get(key)
            if engine is None:
                engine = self._build_engine(key)
            if window:
                self._collect(key, engine.process(event))
                self._evict_passed(event.timestamp)
            else:
                matches.extend(engine.process(event))
        self._collect(0, matches)

    def _build_engine(self, key: int):
        engine = self.task.spec.build()
        if self._tracer is not None:
            engine.set_tracer(self._tracer)
        self._engines[key] = engine
        if self.task.mode == "window":
            hi = slice_delivery_bounds(
                self.task.t0, self.task.span, self.task.window, key
            )[1]
            self._delivery_hi[key] = hi
            if hi < self._evict_watermark:
                self._evict_watermark = hi
        return engine

    def finish(self) -> WorkerResult:
        for key in sorted(self._engines):
            self._retire(key)
        metrics = self._retired
        if self.task.mode == "window":
            # Counters added across all slices above; peaks are the
            # running active-set maximum instead (time-disjoint slices
            # never coexist).
            metrics.peak_partial_matches = self._peak_pm
            metrics.peak_buffered_events = self._peak_buffered
        # Make match accounting reflect what the worker actually
        # reports: boundary copies a slice produced but does not own are
        # excluded from emission counts and latency summaries (their
        # partial-match / predicate work remains counted — that is the
        # real cost of the overlap).  The counts cover every kept match,
        # including those already drained by take_matches().
        metrics.matches_emitted = self._kept
        metrics.latencies = list(self._kept_latencies)
        metrics.wall_latencies = list(self._kept_wall)
        metrics.boundary_duplicates_dropped = self._dropped
        return WorkerResult(matches=self._matches, metrics=metrics)

    def _evict_passed(self, timestamp: float) -> None:
        """Retire slices whose delivery range the feed has passed.

        O(1) while the feed is below the watermark; a scan only when at
        least one slice can actually retire.
        """
        if timestamp <= self._evict_watermark:
            return
        for key, hi in list(self._delivery_hi.items()):
            if timestamp > hi:
                self._retire(key)
        self._evict_watermark = min(
            self._delivery_hi.values(), default=float("inf")
        )

    def _retire(self, key: int) -> None:
        # Peaks only grow while engines process events and the active
        # set only shrinks here, so sampling the active-set total at
        # every retirement captures its maximum over the whole run.
        self._peak_pm = max(
            self._peak_pm,
            sum(
                e.metrics.peak_partial_matches
                for e in self._engines.values()
            ),
        )
        self._peak_buffered = max(
            self._peak_buffered,
            sum(
                e.metrics.peak_buffered_events
                for e in self._engines.values()
            ),
        )
        engine = self._engines.pop(key)
        self._delivery_hi.pop(key, None)
        self._collect(key, engine.finalize())
        self._retired = self._retired.merge(engine.metrics)

    def _collect(self, key: int, out: List[Match]) -> None:
        if not out:
            return
        if self.task.mode == "window":
            lo, hi = self.task.owner_bounds(key)
            kept = [m for m in out if lo <= match_min_ts(m) < hi]
            self._dropped += len(out) - len(kept)
        else:
            kept = out
        self._matches.extend(kept)
        self._kept += len(kept)
        self._kept_latencies.extend(m.latency for m in kept)
        self._kept_wall.extend(m.wall_latency for m in kept)


def execute_task(task: WorkerTask, entries) -> WorkerResult:
    """Run a whole task over an entry iterable (tests, simple callers)."""
    runner = TaskRunner(task)
    runner.feed(entries)
    return runner.finish()
