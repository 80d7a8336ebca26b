"""The parallel driver: shard a stream, run workers, merge matches.

:class:`ParallelExecutor` is the user-facing runtime of
:mod:`repro.parallel`.  Construction resolves the partitioning (key
routing when the plan admits it, one worker otherwise) and freezes the
worker spec; :meth:`ParallelExecutor.run` then makes **one pass** over the
event source — a :class:`~repro.events.Stream`, a
:class:`~repro.events.ChunkedStream`, or any event iterable — routing
events into per-worker batches and merging the returned match lists
into the canonical order (:mod:`repro.parallel.ordering`).

Execution is served by the always-on service runtime
(:mod:`repro.service`): the first ``run()`` starts a persistent worker
pool — via :meth:`ParallelExecutor.session` — and every later run
reuses it, so repeated runs skip worker startup and plan shipping
entirely.  Four backends speak the identical worker protocol:

* ``"processes"`` — persistent ``multiprocessing`` workers (``fork``
  where available, else ``spawn``), optionally pinned to CPUs.  The
  multi-core path.
* ``"threads"`` — the same protocol on daemon threads; no
  bytecode-level parallelism under the GIL, but the full concurrent
  machinery runs in-process, which is what tests and Windows CI
  exercise.
* ``"serial"`` — the worker state machine runs inline during the feed.
  Useful as the overhead-free baseline and for debugging partition
  semantics.
* ``"socket"`` — workers live behind TCP connections to
  :mod:`repro.service.shard_server` processes (``shards`` lists their
  addresses).  The multi-host path.

Whatever the backend and worker count, the merged output is
**identical** (canonically ordered) — the equivalence tests assert
byte-level identity against single-engine execution on every backend,
keyed and one-worker alike.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple, Union

from ..engines.metrics import EngineMetrics
from ..errors import ParallelError
from ..multiquery.sharing import SharedPlan
from ..optimizers.planner import PlannedPattern
from .partitioners import key_routing_map
from .worker import EngineSpec, SharedSpec

_PARTITIONERS = ("auto", "key")
#: Partitioners measured slower than the serial engine and removed.
_REMOVED_PARTITIONERS = ("window", "query")
_BACKENDS = ("processes", "threads", "serial", "socket")
_RECOVERY = ("fail", "reseed")
_DEGRADATION = ("fail", "local")


@dataclass
class ParallelConfig:
    """Tuning knobs of the parallel runtime.

    ``workers=0`` means one per CPU (for the ``"socket"`` backend, one
    per shard).  ``partitioner="auto"`` picks key routing when every
    variable sits in one key-equivalence class and otherwise runs the
    plan on one worker of the configured backend; ``"key"`` refuses a
    plan it cannot route.  ``start_method`` pins the
    ``multiprocessing`` context (``fork`` is preferred when the
    platform offers it).

    Service-runtime knobs:

    * ``shards`` — ``(host, port)`` addresses of running
      :mod:`repro.service.shard_server` processes; required by (and
      only meaningful for) the ``"socket"`` backend.
    * ``max_inflight`` — per-worker cap on unacknowledged batches; the
      driver blocks (draining acks) at the cap, which is what bounds
      worker-queue memory on unbounded feeds.
    * ``recovery`` — ``"fail"`` surfaces a worker death as a typed
      :class:`~repro.errors.WorkerCrashError`; ``"reseed"`` transparently
      restarts the worker (process respawn, socket re-dial +
      re-handshake) and replays its acked window log through the
      snapshot machinery (single patterns and shared plans alike).
    * ``pin_cpus`` — pin process-backend worker *i* to CPU ``i % ncpu``
      via ``os.sched_setaffinity`` where the platform offers it.

    Fault-tolerance knobs (see README "Fault tolerance"):

    * ``heartbeat_seconds`` — while the driver is blocked waiting on a
      silent worker, it sends a PING liveness probe at this cadence.
    * ``liveness_seconds`` — a worker that stays silent this long while
      replies are owed (no ack, no PONG, no error) is declared dead —
      frozen workers surface instead of hanging ``finish_run`` forever.
      Must comfortably exceed the worst-case processing time of one
      batch (the worker answers probes between messages, not during
      one).  ``None`` disables liveness (pipe death only).
    * ``connect_attempts`` / ``backoff_base`` / ``backoff_max`` —
      socket connect retry policy: exponential backoff with jitter,
      used both for the initial dial and for crash-recovery re-dials.
    * ``reconnect_attempts`` — respawn/reconnect attempts per crash
      before the worker is given up (the circuit-breaker threshold).
    * ``degradation`` — what to do when reconnection is exhausted on a
      reseed-recoverable run: ``"fail"`` raises the typed crash error;
      ``"local"`` demotes the shard's partitions to a local
      ``degrade_backend`` worker (``"serial"``, ``"threads"`` or
      ``"processes"``), reseeds it from the acked window log, and
      records the demotion in metrics (``shards_degraded``) and the
      pool's typed event list.
    * ``repromote_seconds`` — half-open circuit breaker: after a
      ``"local"`` demotion the pool re-probes the dead socket endpoint
      at this cadence (PING handshake, exponential backoff on failed
      probes) and, when the endpoint answers, promotes the worker's
      partitions back onto a fresh socket channel reseeded from the
      same acked window log (``shards_repromoted`` counter,
      :class:`~repro.service.session.ShardRepromoted` event).  ``None``
      (default) leaves demotions permanent.
    * ``fault_plan`` — a :class:`~repro.service.faults.FaultPlan`;
      every channel the pool creates is wrapped in a
      :class:`~repro.service.faults.FaultingChannel` executing it
      (deterministic fault injection for tests and chaos runs).

    Observability knob:

    * ``trace`` — each worker grows a plan-DAG
      :class:`~repro.observe.trace.Tracer` and attaches it to every
      engine it builds; per-node counters come back through mid-stream
      STATS polls (:meth:`~repro.service.session.Session.stats`).
      Off by default: an untraced worker never imports
      :mod:`repro.observe` and keeps the observation-free hot path.
    """

    workers: int = 0
    partitioner: str = "auto"
    backend: str = "processes"
    batch_size: int = 512
    start_method: Optional[str] = None
    shards: Sequence[Tuple[str, int]] = field(default_factory=tuple)
    max_inflight: int = 8
    recovery: str = "fail"
    pin_cpus: bool = False
    heartbeat_seconds: float = 2.0
    liveness_seconds: Optional[float] = 30.0
    connect_attempts: int = 3
    backoff_base: float = 0.05
    backoff_max: float = 2.0
    reconnect_attempts: int = 3
    degradation: str = "fail"
    degrade_backend: str = "serial"
    repromote_seconds: Optional[float] = None
    fault_plan: Optional[object] = None
    trace: bool = False

    def __post_init__(self) -> None:
        if self.partitioner in _REMOVED_PARTITIONERS:
            raise ParallelError(
                f"the {self.partitioner!r} partitioner was removed (it ran "
                "slower than the serial engine); use partitioner='auto', "
                "which key-partitions a plan it can route and runs any "
                "other plan on one worker"
            )
        if self.partitioner not in _PARTITIONERS:
            raise ParallelError(
                f"unknown partitioner {self.partitioner!r}; "
                f"choose one of {_PARTITIONERS}"
            )
        if self.backend not in _BACKENDS:
            raise ParallelError(
                f"unknown backend {self.backend!r}; choose one of {_BACKENDS}"
            )
        if self.batch_size <= 0:
            raise ParallelError("batch_size must be positive")
        if self.workers < 0:
            raise ParallelError("workers must be >= 0 (0 = one per CPU)")
        if self.max_inflight <= 0:
            raise ParallelError("max_inflight must be >= 1")
        if self.recovery not in _RECOVERY:
            raise ParallelError(
                f"unknown recovery policy {self.recovery!r}; "
                f"choose one of {_RECOVERY}"
            )
        if self.heartbeat_seconds <= 0:
            raise ParallelError("heartbeat_seconds must be positive")
        if self.liveness_seconds is not None and (
            self.liveness_seconds <= self.heartbeat_seconds
        ):
            raise ParallelError(
                "liveness_seconds must exceed heartbeat_seconds "
                "(or be None to disable liveness)"
            )
        if self.connect_attempts < 1:
            raise ParallelError("connect_attempts must be >= 1")
        if self.reconnect_attempts < 1:
            raise ParallelError("reconnect_attempts must be >= 1")
        if self.backoff_base <= 0 or self.backoff_max < self.backoff_base:
            raise ParallelError(
                "backoff_base must be positive and <= backoff_max"
            )
        if self.degradation not in _DEGRADATION:
            raise ParallelError(
                f"unknown degradation policy {self.degradation!r}; "
                f"choose one of {_DEGRADATION}"
            )
        if self.degrade_backend not in ("serial", "threads", "processes"):
            raise ParallelError(
                f"unknown degrade_backend {self.degrade_backend!r}; "
                "choose 'serial', 'threads' or 'processes'"
            )
        if self.repromote_seconds is not None and self.repromote_seconds <= 0:
            raise ParallelError(
                "repromote_seconds must be positive when given "
                "(None disables half-open re-probing)"
            )
        self.shards = tuple(tuple(address) for address in self.shards)
        if self.backend == "socket" and not self.shards:
            raise ParallelError(
                "the socket backend needs at least one shard address "
                "in ParallelConfig.shards"
            )


class ParallelExecutor:
    """Data-parallel execution of planned patterns or a shared plan.

    ``planned`` is either the :class:`~repro.optimizers.PlannedPattern`
    list a single query's planning produced (one entry per DNF
    disjunct) or a :class:`~repro.multiquery.SharedPlan` for a whole
    workload.  ``run(stream)`` returns what the equivalent
    single-process engine's ``run`` would — a match list, or a
    per-query match dict for shared plans — in canonical order.  After
    a run, ``metrics`` holds the aggregated per-worker
    :class:`~repro.engines.EngineMetrics` (``worker_count`` and
    ``events_routed`` describe the sharding itself), ``events_in`` the
    number of input events, and ``wall_seconds`` the elapsed
    feed-to-merge wall time.

    A plan key partitioning cannot route runs on one worker of the
    configured backend: ``workers`` and ``metrics.worker_count`` read 1,
    and the run keeps the pool protocol, streaming frontier and reseed
    recovery of a keyed one.

    The executor owns a lazily created :class:`repro.service.Session`
    whose worker pool persists across runs; :meth:`close` (or use as a
    context manager) tears it down.  For incremental consumption —
    feed batches, collect matches as they become safe to emit — use
    ``session().stream()`` or the :class:`repro.service.Ingestor`.

    Only ``selection="any"`` plans are supported: the restrictive
    strategies consume events globally, which contradicts sharding
    (the same reason multi-query sharing requires them).
    """

    def __init__(
        self,
        planned: Union[Sequence[PlannedPattern], SharedPlan],
        config: Optional[ParallelConfig] = None,
        max_kleene_size: Optional[int] = None,
        indexed: bool = True,
        compiled: bool = True,
        codegen: bool = True,
    ) -> None:
        self.config = config or ParallelConfig()
        self.metrics: Optional[EngineMetrics] = None
        self.events_in = 0
        self.wall_seconds = 0.0
        self._session = None

        self._shared = isinstance(planned, SharedPlan)
        if self._shared:
            self._plan: Optional[SharedPlan] = planned
            decomposeds = [root.decomposed for root in planned.roots]
            self._spec: object = SharedSpec(
                planned,
                max_kleene_size=max_kleene_size,
                indexed=indexed,
                compiled=compiled,
                codegen=codegen,
            )
        else:
            items = list(planned)
            if not items:
                raise ParallelError("no planned patterns supplied")
            for item in items:
                if item.selection != "any":
                    raise ParallelError(
                        "parallel execution requires selection='any' "
                        f"(got {item.selection!r}): restrictive "
                        "strategies consume events across the whole "
                        "stream, which sharding cannot preserve"
                    )
            self._plan = None
            decomposeds = [item.decomposed for item in items]
            self._spec = EngineSpec.from_planned(
                items,
                max_kleene_size=max_kleene_size,
                indexed=indexed,
                compiled=compiled,
                codegen=codegen,
            )
        self._window = max(d.window for d in decomposeds)
        # Whether any pattern defers matches past their completion event
        # (trailing negation): the streaming frontier must then hold
        # matches against in-flight pending releases.
        self._has_negation = any(d.negations for d in decomposeds)
        # Types any pattern can react to (positive or forbidden): the
        # one-worker router drops everything else at the driver, like
        # the key router does — unreferenced events would only be
        # pickled across worker queues to be ignored there.
        self._relevant_types = set()
        for decomposed in decomposeds:
            self._relevant_types.update(t for _, t in decomposed.positives)
            self._relevant_types.update(
                spec.event_type for spec in decomposed.negations
            )

        self._routing: Optional[Dict[str, str]] = key_routing_map(
            decomposeds
        )
        if self._routing is None:
            if self.config.partitioner == "key":
                raise ParallelError(
                    "key partitioning is inapplicable: the pattern's "
                    "equality predicates do not place every variable in "
                    "one key-equivalence class (or the pattern uses "
                    "Kleene/negation); partitioner='auto' runs it on "
                    "one worker"
                )
            self.partitioner_name = "single"
            self.workers = 1
        else:
            self.partitioner_name = "key"
            if self.config.backend == "socket":
                self.workers = self.config.workers or len(self.config.shards)
            else:
                self.workers = self.config.workers or os.cpu_count() or 1

    # -- public API ----------------------------------------------------------
    def session(self):
        """The persistent :class:`repro.service.Session` serving this
        executor's runs (created on first use, workers started on first
        run)."""
        if self._session is None:
            from ..service.session import Session

            self._session = Session(self)
        return self._session

    def run(self, stream):
        """One pass over ``stream``; canonical merged matches.

        ``stream`` may be a :class:`~repro.events.Stream`, a single-pass
        :class:`~repro.events.ChunkedStream`, or any iterable of
        sequence-stamped events.  Returns a list of
        :class:`~repro.engines.Match` (single query) or a per-query
        dict (shared plan).  Served by the persistent session pool:
        the first run starts the workers, later runs reuse them.
        """
        session = self.session()
        out = session.run(stream)
        self.metrics = session.metrics
        self.events_in = session.events_in
        self.wall_seconds = session.wall_seconds
        return out

    def close(self) -> None:
        """Stop the persistent workers (idempotent; a closed executor
        restarts them on the next run)."""
        if self._session is not None:
            self._session.close()
            self._session = None

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def throughput(self) -> float:
        """Input events per second of the last run's wall time."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.events_in / self.wall_seconds

    def __repr__(self) -> str:
        kind = "shared" if self._shared else "single"
        return (
            f"ParallelExecutor({kind} plan, {self.partitioner_name} "
            f"partitioning, {self.workers}x{self.config.backend})"
        )
