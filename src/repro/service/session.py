"""Persistent sessions: a pinned worker pool serving many runs/streams.

The one-shot :class:`~repro.parallel.ParallelExecutor` paid worker
startup (fork + plan shipping) on every ``run()``.  A :class:`Session`
starts the pool once — per-worker CPU affinity when the platform
offers ``os.sched_setaffinity`` — ships each plan spec once, and then
serves any number of runs over the persistent workers, each run being
one RESET/BATCH*/FINISH exchange of the
:mod:`repro.service.protocol`.  ``ParallelExecutor.run()`` itself
routes through the session pool, so the fork-per-run waste is gone for
existing callers with no API change.

Two consumption shapes:

* :meth:`Session.run` — one pass over a whole stream, canonical merged
  output, exactly the executor contract.
* :class:`SessionStream` — incremental: ``feed(events)`` returns the
  matches that are *safe to emit now*, in the canonical
  partition-independent merge order, long before the stream ends.  The
  safety frontier is the heart of it (see :meth:`SessionStream._frontier`):
  a held match is released only when no in-flight or future worker ack
  can produce a match that sorts before it.

Crash handling: a worker death raises a typed
:class:`~repro.errors.WorkerCrashError`, unless
``ParallelConfig(recovery="reseed")`` on a restartable backend — then
the driver respawns the worker, replays the acked window log through
the engines' ``seed_from`` machinery (replayed matches are suppressed —
they were already delivered in acks) and re-sends the unacked batches.
Every worker hosts one engine, single-pattern or shared-plan, so every
run is recoverable this way.  The combined effect is exactly-once match
delivery across the crash.
"""

from __future__ import annotations

import heapq
import itertools
import pickle
import threading
import time
import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..engines.metrics import EngineMetrics, LatencyHistogram
from ..errors import ParallelError, WorkerCrashError
from ..parallel.ordering import canonical_order, match_sort_key
from ..parallel.partitioners import KeyPartitioner, SingleWorkerRouter
from ..parallel.worker import WorkerResult
from .faults import FaultingChannel
from .protocol import (
    MSG_BATCH,
    MSG_FINISH,
    MSG_INIT,
    MSG_PING,
    MSG_RESET,
    MSG_SEED,
    MSG_STATS,
    REPLY_ACK,
    REPLY_DONE,
    REPLY_ERROR,
    REPLY_PONG,
    REPLY_READY,
    REPLY_STATS,
    STATS_SELF,
)
from .transport import (
    ProcessChannel,
    SerialChannel,
    SocketChannel,
    ThreadChannel,
    TransportDead,
    backoff_delay,
)

_NEG_INF = float("-inf")
_INF = float("inf")

#: Per-run fault-tolerance counter names, in the order they appear in
#: :class:`~repro.engines.metrics.EngineMetrics`.
FAULT_COUNTERS = (
    "worker_crashes",
    "worker_reseeds",
    "socket_reconnects",
    "heartbeats_missed",
    "shards_degraded",
    "shards_repromoted",
    "send_retries",
)


@dataclass(frozen=True)
class RuntimeEvent:
    """Base of the typed events a pool records while recovering —
    machine-readable observability for what the run survived."""

    worker_id: int
    detail: str


@dataclass(frozen=True)
class WorkerCrashed(RuntimeEvent):
    """A worker's transport died (or its liveness deadline expired)."""


@dataclass(frozen=True)
class WorkerReseeded(RuntimeEvent):
    """A replacement worker was replayed from the acked window log."""

    events_replayed: int = 0
    batches_resent: int = 0


@dataclass(frozen=True)
class SocketReconnected(RuntimeEvent):
    """A dead shard connection was re-dialed and re-handshaken."""

    address: Tuple[str, int] = ("", 0)
    attempt: int = 1


@dataclass(frozen=True)
class ShardDegraded(RuntimeEvent):
    """Reconnection was exhausted and the worker's partitions were
    demoted to a local backend (the circuit breaker opened)."""

    to_backend: str = "serial"


@dataclass(frozen=True)
class ShardRepromoted(RuntimeEvent):
    """A degraded shard's endpoint answered a half-open probe and the
    worker's partitions were promoted back onto a fresh socket channel
    (the circuit breaker closed)."""

    address: Tuple[str, int] = ("", 0)
    probes: int = 1


def merge_worker_snapshots(snapshots: Sequence[dict]) -> dict:
    """Fold per-worker STATS snapshots into one driver-side view:
    metrics merged as disjoint streams, per-node trace counters merged
    by plan node (workers run copies of the same plan, so same-node
    counters add).  ``metrics``/``nodes`` are ``None`` when no polled
    worker had an active run / an attached tracer."""
    metrics: Optional[EngineMetrics] = None
    node_dicts: list = []
    for snapshot in snapshots:
        worker_metrics = snapshot.get("metrics")
        if worker_metrics is not None:
            base = EngineMetrics() if metrics is None else metrics
            metrics = base.merge(worker_metrics)
        if snapshot.get("nodes"):
            node_dicts.extend(snapshot["nodes"])
    nodes = None
    if node_dicts:
        from ..observe.trace import merge_node_stats

        nodes = merge_node_stats(node_dicts)
    return {"workers": list(snapshots), "metrics": metrics, "nodes": nodes}


class WorkerPool:
    """A pool of persistent protocol channels for one plan's specs.

    Owns everything per-worker and per-run: channel lifecycle, epoch
    bookkeeping, in-flight batch tracking (bounded by
    ``ParallelConfig.max_inflight``), the acked window log that backs
    crash reseeding, and the ack/done collection loops.
    """

    def __init__(self, specs: Sequence, config, window: float) -> None:
        self._specs = list(specs)
        self.config = config
        self.window = window
        self.workers = len(self._specs)
        self._channels: Optional[List] = None
        self._init_payloads: Optional[List] = None
        self._epoch = 0
        self._recovery_active = False
        self._params: List[dict] = []
        self._unacked: List[Dict[int, list]] = []
        self._next_batch: List[int] = []
        self._log: List[list] = []
        self._acked_ts: List[float] = []
        self._matches: List[list] = []
        self._results: List[Optional[WorkerResult]] = []
        self._finishing: List[bool] = []
        # Liveness bookkeeping (per worker, reset per run and on
        # channel replacement): wall time of the last reply or last
        # non-PING send, last PING send time, and whether a PING is
        # outstanding.
        self._last_activity: List[float] = []
        self._ping_sent: List[float] = []
        self._ping_outstanding: List[bool] = []
        self._crash_counts: List[int] = []
        #: Per-run fault-tolerance counters (see :data:`FAULT_COUNTERS`);
        #: folded into the merged :class:`EngineMetrics` at finish.
        self.counters: Dict[str, int] = {name: 0 for name in FAULT_COUNTERS}
        #: Per-run typed :class:`RuntimeEvent` records, in order.
        self.events: List[RuntimeEvent] = []
        #: Optional driver-side :class:`~repro.observe.trace.Tracer`:
        #: when set, runtime events (crashes, reseeds, reconnects,
        #: degradations) are also recorded as instant spans correlated
        #: by worker id and epoch.
        self.tracer = None
        # Serializes all channel I/O: a mid-stream STATS poll from an
        # observer thread (Ingestor.stats, the report CLI) must not
        # interleave its frames with the feeding thread's batches.
        # Public methods never nest, so a plain Lock would do; RLock
        # keeps recovery paths reached from several entry points safe
        # against future nesting.
        self._io_lock = threading.RLock()
        self._stats_tokens = itertools.count(1)
        self._stats_replies: Dict[int, tuple] = {}
        # Half-open circuit breaker state: worker_id -> {"next_probe",
        # "probes", "thread"?, "channel"?} for shards demoted by _degrade
        # while config.repromote_seconds is set.  Persists across runs
        # until a probe succeeds (the endpoint outage does not end with
        # the run).  "thread" is the in-flight background probe; a
        # successful probe parks its live channel under "channel" for
        # the next _maybe_repromote call (under _io_lock) to swap in.
        self._degraded: Dict[int, dict] = {}

    # -- lifecycle -----------------------------------------------------------
    @property
    def started(self) -> bool:
        return self._channels is not None

    def start(self) -> None:
        if self._channels is not None:
            return
        backend = self.config.backend
        if backend in ("processes", "socket"):
            try:
                cache: Dict[int, bytes] = {}
                payloads = []
                for spec in self._specs:
                    if id(spec) not in cache:
                        cache[id(spec)] = pickle.dumps(
                            spec, protocol=pickle.HIGHEST_PROTOCOL
                        )
                    payloads.append(cache[id(spec)])
            except (pickle.PicklingError, AttributeError, TypeError) as error:
                raise ParallelError(
                    "worker spec could not be pickled for the "
                    f"{backend} backend ({error}); lambdas and other "
                    "unpicklable predicates need backend='threads' or "
                    "module-level named functions"
                ) from error
            self._init_payloads = payloads
        else:
            self._init_payloads = list(self._specs)
        channels: List = []
        try:
            for worker_id in range(self.workers):
                channels.append(self._make_channel(worker_id))
            for worker_id, channel in enumerate(channels):
                channel.send((MSG_INIT, self._init_payloads[worker_id]))
            for channel in channels:
                self._await_ready(channel)
        except TransportDead as error:
            for channel in channels:
                channel.kill()
            raise WorkerCrashError(str(error)) from None
        except BaseException:
            for channel in channels:
                channel.kill()
            raise
        self._channels = channels

    def close(self) -> None:
        channels, self._channels = self._channels, None
        self._drop_parked_probes()
        if not channels:
            return
        for channel in channels:
            try:
                channel.stop()
            except Exception:  # noqa: BLE001 — best-effort teardown
                channel.kill()

    def _teardown(self) -> None:
        """Hard teardown after an unrecovered crash: the pool restarts
        fresh on the next run instead of reusing a broken channel set."""
        channels, self._channels = self._channels, None
        self._drop_parked_probes()
        for channel in channels or ():
            channel.kill()

    def _drop_parked_probes(self) -> None:
        """Kill probe-verified channels a background probe parked but no
        run consumed (the breaker state itself persists across runs)."""
        for state in self._degraded.values():
            channel = state.pop("channel", None)
            if channel is not None:
                channel.kill()

    def _make_channel(self, worker_id: int, backend: Optional[str] = None):
        channel = self._make_raw_channel(worker_id, backend)
        plan = getattr(self.config, "fault_plan", None)
        if plan is not None:
            channel = FaultingChannel(channel, plan)
        return channel

    def _make_raw_channel(self, worker_id: int, backend: Optional[str] = None):
        config = self.config
        backend = config.backend if backend is None else backend
        if backend == "serial":
            return SerialChannel(worker_id)
        if backend == "threads":
            return ThreadChannel(worker_id)
        if backend == "socket":
            shards = list(config.shards)
            address = tuple(shards[worker_id % len(shards)])
            return SocketChannel(
                address,
                worker_id,
                connect_attempts=config.connect_attempts,
                backoff_base=config.backoff_base,
                backoff_max=config.backoff_max,
            )
        import multiprocessing
        import os

        method = config.start_method
        if method is None:
            available = multiprocessing.get_all_start_methods()
            method = "fork" if "fork" in available else "spawn"
        ctx = multiprocessing.get_context(method)
        affinity = None
        if config.pin_cpus and backend == config.backend:
            affinity = {worker_id % (os.cpu_count() or 1)}
        return ProcessChannel(ctx, worker_id, affinity)

    def _await_ready(self, channel) -> None:
        deadline = time.monotonic() + 120.0
        while True:
            reply = channel.recv(timeout=0.5)  # TransportDead -> caller
            if reply is None:
                if time.monotonic() > deadline:
                    raise ParallelError(
                        f"worker {channel.worker_id} did not initialize"
                    )
                continue
            _, tag, payload = reply
            if tag == REPLY_READY:
                return
            if tag == REPLY_ERROR:
                raise ParallelError(
                    f"worker {channel.worker_id} failed to "
                    f"initialize:\n{payload[1]}"
                )
            # Anything else is a stale reply from a previous run.

    # -- runs ----------------------------------------------------------------
    def begin_run(self, params: Sequence[dict]) -> None:
        with self._io_lock:
            self.start()
            self._epoch += 1
            for worker_id, channel in enumerate(self._channels):
                # Drop replies a previous (aborted) run left behind.
                while True:
                    try:
                        if channel.recv(timeout=0.0) is None:
                            break
                    except TransportDead:
                        break  # surfaces via _send below
            self._params = list(params)
            self._refresh_recovery()
            n = self.workers
            now = time.monotonic()
            self._unacked = [dict() for _ in range(n)]
            self._next_batch = [0] * n
            self._log = [[] for _ in range(n)]
            self._acked_ts = [_NEG_INF] * n
            self._matches = [[] for _ in range(n)]
            self._results = [None] * n
            self._finishing = [False] * n
            self._last_activity = [now] * n
            self._ping_sent = [_NEG_INF] * n
            self._ping_outstanding = [False] * n
            self._crash_counts = [0] * n
            self._stats_replies = {}
            self.counters = {name: 0 for name in FAULT_COUNTERS}
            self.events = []
            for worker_id in range(n):
                self._send(
                    worker_id,
                    (MSG_RESET, self._epoch, self._params[worker_id]),
                )

    def submit(self, worker_id: int, events: list) -> None:
        """Ship one batch; blocks (drains acks) at the in-flight cap."""
        with self._io_lock:
            if self._degraded:
                self._maybe_repromote(worker_id)
            batch_id = self._next_batch[worker_id]
            self._next_batch[worker_id] = batch_id + 1
            self._unacked[worker_id][batch_id] = events
            self._send(
                worker_id, (MSG_BATCH, self._epoch, batch_id, events)
            )
            cap = self.config.max_inflight
            unacked = self._unacked[worker_id]
            while len(unacked) > cap:
                self._pump(worker_id, lambda: len(unacked) <= cap)

    def finish_run(self) -> List[WorkerResult]:
        """FINISH every worker; returns results with the *undrained*
        matches folded back in (callers that never drained get all)."""
        with self._io_lock:
            if self._degraded:
                self._settle_probes()
            for worker_id in range(self.workers):
                self._finishing[worker_id] = True
                self._send(worker_id, (MSG_FINISH, self._epoch))
            results: List[WorkerResult] = []
            for worker_id in range(self.workers):
                self._pump(
                    worker_id,
                    lambda worker_id=worker_id: self._results[worker_id]
                    is not None,
                )
                result = self._results[worker_id]
                result.matches = self._matches[worker_id] + result.matches
                self._matches[worker_id] = []
                results.append(result)
            return results

    def drain_available(self) -> None:
        """Consume every reply that is already waiting (non-blocking)."""
        with self._io_lock:
            for worker_id, channel in enumerate(self._channels):
                while True:
                    try:
                        reply = channel.recv(timeout=0.0)
                    except TransportDead as error:
                        self._handle_crash(worker_id, error)
                        break
                    if reply is None:
                        break
                    self._note_reply(worker_id)
                    self._dispatch(worker_id, reply)

    def take_acked_matches(self) -> list:
        """Drain matches delivered by acks since the last call."""
        with self._io_lock:
            out: list = []
            for worker_id in range(self.workers):
                if self._matches[worker_id]:
                    out.extend(self._matches[worker_id])
                    self._matches[worker_id] = []
            return out

    # -- introspection (STATS) -----------------------------------------------
    def stats(self, timeout: float = 10.0) -> List[dict]:
        """Poll every worker for a read-only snapshot (merged metrics
        plus per-node trace counters when the run traces) without
        touching the epoch machinery — safe mid-stream, including from
        another thread (the I/O lock serializes frames with the feeding
        thread).  A worker that does not answer within ``timeout`` is
        skipped rather than failing the poll; a transport found dead
        during the poll goes through normal crash handling, exactly as
        the next ``feed`` would have discovered it."""
        with self._io_lock:
            if self._channels is None:
                return []
            token = next(self._stats_tokens)
            deadline = time.monotonic() + timeout
            for worker_id in range(self.workers):
                self._send(worker_id, (MSG_STATS, token, STATS_SELF))
            snapshots: List[dict] = []
            for worker_id in range(self.workers):
                self._pump(
                    worker_id,
                    lambda worker_id=worker_id: (
                        self._stats_replies.get(worker_id, (None,))[0]
                        == token
                        or time.monotonic() > deadline
                    ),
                )
                reply = self._stats_replies.get(worker_id)
                if reply is not None and reply[0] == token:
                    snapshots.extend(reply[1])
            return snapshots

    def liveness_ages(self) -> List[float]:
        """Seconds since each worker's last sign of life (reply or real
        send) — the quantity the liveness deadline polices."""
        now = time.monotonic()
        return [now - last for last in self._last_activity]

    # -- frontier accessors (SessionStream) ----------------------------------
    def first_unacked_seq(self, worker_id: int) -> Optional[int]:
        unacked = self._unacked[worker_id]
        if not unacked:
            return None
        first = next(iter(unacked.values()))
        return first[0].seq if first else None

    def last_acked_ts(self, worker_id: int) -> float:
        return self._acked_ts[worker_id]

    # -- plumbing ------------------------------------------------------------
    def _send(self, worker_id: int, message: Tuple) -> None:
        if message[0] not in (MSG_PING, MSG_STATS):
            # The liveness clock runs from the last reply *or* the last
            # real send: an idle worker owes nothing, so silence before
            # the next batch must not count against its deadline.
            # PINGs and STATS polls are excluded or each probe would
            # push the deadline it polices.
            self._last_activity[worker_id] = time.monotonic()
        try:
            self._channels[worker_id].send(message)
        except TransportDead as error:
            # Driver-side run state was updated before the send, so the
            # recovery replay below re-ships the lost message too.
            self._handle_crash(worker_id, error)

    def _pump(self, worker_id: int, until) -> None:
        while not until():
            channel = self._channels[worker_id]
            try:
                reply = channel.recv(timeout=0.25)
            except TransportDead as error:
                self._handle_crash(worker_id, error)
                continue
            if reply is None:
                if not channel.alive():
                    self._handle_crash(
                        worker_id,
                        TransportDead(f"worker {worker_id} stopped"),
                    )
                    continue
                self._check_liveness(worker_id)
                continue
            self._note_reply(worker_id)
            self._dispatch(worker_id, reply)

    def _note_reply(self, worker_id: int) -> None:
        self._last_activity[worker_id] = time.monotonic()
        self._ping_outstanding[worker_id] = False

    def _check_liveness(self, worker_id: int) -> None:
        """While blocked on a silent worker: probe at the heartbeat
        cadence, declare death at the liveness deadline."""
        if self._degraded:
            self._maybe_repromote(worker_id)
        config = self.config
        liveness = getattr(config, "liveness_seconds", None)
        heartbeat = getattr(config, "heartbeat_seconds", 2.0)
        now = time.monotonic()
        silent = now - self._last_activity[worker_id]
        if liveness is not None and silent > liveness:
            self.counters["heartbeats_missed"] += 1
            self._handle_crash(
                worker_id,
                TransportDead(
                    f"worker {worker_id} missed its liveness deadline "
                    f"({liveness}s without a reply; the worker is "
                    "hung or unreachable)"
                ),
            )
            return
        if silent >= heartbeat and now - self._ping_sent[worker_id] >= heartbeat:
            if self._ping_outstanding[worker_id]:
                self.counters["heartbeats_missed"] += 1
            self._ping_sent[worker_id] = now
            self._ping_outstanding[worker_id] = True
            self._send(worker_id, (MSG_PING, now))

    def _dispatch(self, worker_id: int, reply: Tuple) -> None:
        _, tag, payload = reply
        if tag == REPLY_PONG:
            return  # liveness already noted by _note_reply
        if tag == REPLY_STATS:
            token, snapshots = payload
            self._stats_replies[worker_id] = (token, snapshots)
            return
        if tag == REPLY_ERROR:
            epoch, trace = payload
            if epoch != self._epoch:
                return
            raise ParallelError(f"worker {worker_id} failed:\n{trace}")
        if tag == REPLY_ACK:
            epoch, batch_id, matches = payload
            if epoch != self._epoch:
                return
            events = self._unacked[worker_id].pop(batch_id, None)
            if events is None:
                return
            if events:
                last_ts = events[-1].timestamp
                if last_ts > self._acked_ts[worker_id]:
                    self._acked_ts[worker_id] = last_ts
            # A worker armed for re-promotion keeps its window log warm
            # even when every restartable channel is gone (and pool-wide
            # reseed recovery is therefore off): the half-open probe
            # seeds the returning shard from this log, so a stale log
            # would silently lose the degraded period's engine state.
            if self._recovery_active or worker_id in self._degraded:
                log = self._log[worker_id]
                log.extend(events)
                cutoff = self._acked_ts[worker_id] - self.window
                drop = 0
                while (
                    drop < len(log) and log[drop].timestamp < cutoff
                ):
                    drop += 1
                if drop:
                    del log[:drop]
            if matches:
                self._matches[worker_id].extend(matches)
            return
        if tag == REPLY_DONE:
            epoch, result = payload
            if epoch == self._epoch:
                self._results[worker_id] = result

    def _trace_event(self, name: str, worker_id: int, detail: str) -> None:
        """Mirror a runtime event into the driver-side tracer (when one
        is attached) as an instant span keyed by worker id and epoch."""
        if self.tracer is not None:
            self.tracer.instant(
                name, worker=worker_id, epoch=self._epoch, detail=detail
            )

    def _handle_crash(self, worker_id: int, error: Exception) -> None:
        config = self.config
        self.counters["worker_crashes"] += 1
        self.events.append(WorkerCrashed(worker_id, str(error)))
        self._trace_event("worker_crash", worker_id, str(error))
        self._crash_counts[worker_id] += 1
        if not self._recovery_active or not self._channels[
            worker_id
        ].restartable:
            self._teardown()
            raise WorkerCrashError(
                f"worker {worker_id} died mid-stream ({error}); "
                "matches are intact up to the last merged frontier — "
                "enable ParallelConfig(recovery='reseed') on a "
                "restartable backend for transparent failover"
            ) from None
        self._channels[worker_id].kill()
        attempts = max(1, getattr(config, "reconnect_attempts", 1))
        degradation = getattr(config, "degradation", "fail")
        # Circuit breaker: a worker that keeps crashing (each crash
        # already paid a full reconnect cycle) stops being re-dialed
        # and is demoted directly.
        if degradation == "local" and self._crash_counts[worker_id] > attempts:
            self._degrade(worker_id, error)
            return
        last_error: Exception = error
        for attempt in range(attempts):
            if attempt:
                time.sleep(
                    backoff_delay(
                        attempt - 1,
                        getattr(config, "backoff_base", 0.05),
                        getattr(config, "backoff_max", 2.0),
                    )
                )
            try:
                channel = self._make_channel(worker_id)
            except TransportDead as connect_error:
                last_error = connect_error
                continue
            try:
                self._replay(worker_id, channel)
            except TransportDead as replay_error:
                last_error = replay_error
                channel.kill()
                continue
            if config.backend == "socket":
                self.counters["socket_reconnects"] += 1
                self.counters["send_retries"] += getattr(
                    channel, "connect_retries", 0
                )
                shards = list(config.shards)
                self.events.append(
                    SocketReconnected(
                        worker_id,
                        str(error),
                        address=tuple(shards[worker_id % len(shards)]),
                        attempt=attempt + 1,
                    )
                )
                self._trace_event("socket_reconnect", worker_id, str(error))
            return
        if degradation == "local":
            self._degrade(worker_id, last_error)
            return
        self._teardown()
        raise WorkerCrashError(
            f"worker {worker_id} died and could not be replaced after "
            f"{attempts} attempt(s): {last_error}; set "
            "ParallelConfig(degradation='local') to fall back to a "
            "local worker instead of failing the run"
        ) from None

    def _degrade(self, worker_id: int, error: Exception) -> None:
        """Open the circuit breaker: demote the worker's partitions to
        a local backend channel fed from the same INIT payload.  The
        replay below re-establishes exactly the same engine state, so
        byte-identity of the merged output is preserved — the run just
        stops being distributed for this worker."""
        to_backend = getattr(self.config, "degrade_backend", "serial")
        try:
            channel = self._make_channel(worker_id, backend=to_backend)
            self._replay(worker_id, channel)
        except TransportDead as still:
            self._teardown()
            raise WorkerCrashError(
                f"worker {worker_id} could not be degraded to the "
                f"{to_backend} backend after {error}: {still}"
            ) from None
        self.counters["shards_degraded"] += 1
        self.events.append(
            ShardDegraded(worker_id, str(error), to_backend=to_backend)
        )
        self._trace_event("shard_degraded", worker_id, to_backend)
        repromote = getattr(self.config, "repromote_seconds", None)
        if repromote is not None and self.config.backend == "socket":
            # Half-open: remember the demotion and start probing the
            # dead endpoint; a successful probe promotes the partitions
            # back (see _maybe_repromote).
            self._degraded[worker_id] = {
                "next_probe": time.monotonic() + repromote,
                "probes": 0,
            }
        # A demoted serial/thread channel is not restartable.
        self._refresh_recovery()

    def _maybe_repromote(self, worker_id: int) -> None:
        """Half-open circuit breaker: when a demoted shard's probe
        interval has elapsed, dial the original endpoint, PING it, and
        — if it answers — promote the worker's partitions back onto the
        fresh socket channel via the same INIT/RESET/SEED replay that
        degradation used, so byte-identity of the merged output is
        preserved.  A failed probe backs off exponentially
        (``repromote_seconds * 2**probes``, capped at 16×) and leaves
        the local worker serving.

        The dial + PONG wait run on a background thread (see
        :meth:`_probe_endpoint`): callers hold ``_io_lock``, and a dead
        endpoint's connect retries plus pong deadline must never stall
        the live ingest path.  Only the final swap/replay — fast, the
        endpoint just answered — happens here under the lock."""
        state = self._degraded.get(worker_id)
        if state is None:
            return
        channel = state.pop("channel", None)
        if channel is not None:
            self._promote(worker_id, state, channel)
            return
        probe = state.get("thread")
        if probe is not None and probe.is_alive():
            return  # probe in flight; its outcome lands in state
        if time.monotonic() < state["next_probe"]:
            return
        state["probes"] += 1
        thread = threading.Thread(
            target=self._probe_endpoint,
            args=(worker_id, state),
            name=f"repro-probe-{worker_id}",
            daemon=True,
        )
        state["thread"] = thread
        thread.start()

    def _probe_endpoint(self, worker_id: int, state: dict) -> None:
        """Background half-open probe (no locks held): dial the original
        endpoint and wait for a PONG.  Success parks the live channel in
        ``state["channel"]`` for the next ``_maybe_repromote`` call to
        swap in; failure schedules the next probe with backoff."""
        repromote = self.config.repromote_seconds
        channel = None
        try:
            channel = self._make_channel(worker_id)
            channel.send((MSG_PING, time.monotonic()))
            self._await_pong(channel)
        except TransportDead:
            if channel is not None:
                channel.kill()
            state["next_probe"] = time.monotonic() + backoff_delay(
                min(state["probes"], 4), repromote, repromote * 16.0
            )
            return
        state["channel"] = channel

    def _settle_probes(self, timeout: float = 2.0) -> None:
        """End-of-run barrier (lock held): give in-flight probes a
        bounded window to finish and promote any that succeeded, so the
        FINISH and results of this run go through the restored socket
        channel and the run's counters reflect the repromotion.  The
        probe threads never take ``_io_lock``, so joining here cannot
        deadlock."""
        for worker_id in list(self._degraded):
            state = self._degraded[worker_id]
            probe = state.get("thread")
            if probe is not None and probe.is_alive():
                probe.join(timeout=timeout)
            self._maybe_repromote(worker_id)

    def _promote(self, worker_id: int, state: dict, channel) -> None:
        """Swap a probe-verified socket channel back in (lock held)."""
        repromote = self.config.repromote_seconds
        probes = state["probes"]
        old = self._channels[worker_id]
        try:
            self._replay(worker_id, channel)
        except TransportDead:
            channel.kill()
            state["next_probe"] = time.monotonic() + backoff_delay(
                min(probes, 4), repromote, repromote * 16.0
            )
            return
        try:
            old.stop()
        except Exception:  # noqa: BLE001 — the demoted worker is gone
            old.kill()
        del self._degraded[worker_id]
        shards = list(self.config.shards)
        address = tuple(shards[worker_id % len(shards)])
        self.counters["shards_repromoted"] += 1
        detail = f"endpoint {address} answered after {probes} probe(s)"
        self.events.append(
            ShardRepromoted(worker_id, detail, address=address, probes=probes)
        )
        self._trace_event("shard_repromoted", worker_id, detail)
        # The restored socket channel is restartable again, so reseed
        # recovery resumes for it.
        self._refresh_recovery()

    def _refresh_recovery(self) -> None:
        """Reseed recovery is on while the policy asks for it and any
        channel is restartable — "any", not "all": a pool that degraded
        a shard to a local serial worker keeps recovery for the
        restartable workers that remain."""
        self._recovery_active = self.config.recovery == "reseed" and any(
            channel.restartable for channel in self._channels
        )

    def _await_pong(self, channel) -> None:
        """Wait for the probe PONG (TransportDead on death/timeout)."""
        deadline = time.monotonic() + 5.0
        while True:
            reply = channel.recv(timeout=0.25)
            if reply is None:
                if time.monotonic() > deadline:
                    raise TransportDead(
                        f"probe PING to worker {channel.worker_id} "
                        "timed out"
                    )
                continue
            if reply[1] == REPLY_PONG:
                return
            # Anything else is a stale reply from before the crash.

    def _replay(self, worker_id: int, channel) -> None:
        """Bring a replacement channel to the crashed worker's exact
        run state: INIT -> READY -> RESET -> SEED (acked window log,
        matches suppressed) -> unacked batches -> FINISH if pending.
        Raises :class:`TransportDead` on any failure (the caller owns
        retry/degradation policy); on success the channel is installed.

        Uses ``channel.send`` directly, never ``self._send`` — a replay
        failure must surface to the retry loop, not recurse into crash
        handling."""
        channel.send((MSG_INIT, self._init_payloads[worker_id]))
        self._await_ready(channel)
        channel.send((MSG_RESET, self._epoch, self._params[worker_id]))
        log = self._log[worker_id]
        if log or self._acked_ts[worker_id] != _NEG_INF:
            events = list(log)
            channel.send(
                (MSG_SEED, self._epoch, events, self._acked_ts[worker_id])
            )
            self.counters["worker_reseeds"] += 1
            detail = (
                f"replayed {len(events)} events, resent "
                f"{len(self._unacked[worker_id])} batches"
            )
            self.events.append(
                WorkerReseeded(
                    worker_id,
                    detail,
                    events_replayed=len(events),
                    batches_resent=len(self._unacked[worker_id]),
                )
            )
            self._trace_event("worker_reseed", worker_id, detail)
        resent = 0
        for batch_id, batch in self._unacked[worker_id].items():
            channel.send((MSG_BATCH, self._epoch, batch_id, batch))
            resent += 1
        self.counters["send_retries"] += resent
        if self._finishing[worker_id]:
            channel.send((MSG_FINISH, self._epoch))
        self._channels[worker_id] = channel
        now = time.monotonic()
        self._last_activity[worker_id] = now
        self._ping_sent[worker_id] = _NEG_INF
        self._ping_outstanding[worker_id] = False


class _PoolFeeder:
    """Per-worker batching in front of :meth:`WorkerPool.submit`."""

    def __init__(self, pool: WorkerPool, batch_size: int) -> None:
        self._pool = pool
        self._batch_size = batch_size
        self._buffers: List[list] = [[] for _ in range(pool.workers)]

    def emit(self, worker_id: int, event) -> None:
        buffer = self._buffers[worker_id]
        buffer.append(event)
        if len(buffer) >= self._batch_size:
            self._pool.submit(worker_id, buffer)
            self._buffers[worker_id] = []

    def flush(self) -> None:
        for worker_id, buffer in enumerate(self._buffers):
            if buffer:
                self._pool.submit(worker_id, buffer)
                self._buffers[worker_id] = []

    def first_buffered_seq(self, worker_id: int) -> Optional[int]:
        buffer = self._buffers[worker_id]
        return buffer[0].seq if buffer else None


def _close_pool(pool: WorkerPool) -> None:
    pool.close()


class Session:
    """A persistent execution session bound to one executor's plan.

    Obtained via :meth:`ParallelExecutor.session`.  Workers start on
    the first run and persist until :meth:`close` (or garbage
    collection of the session — a ``weakref.finalize`` guards the
    pool), so repeated runs skip fork and plan shipping entirely.
    """

    def __init__(self, executor) -> None:
        self._executor = executor
        specs = [executor._spec] * executor.workers
        self.pool = WorkerPool(specs, executor.config, executor._window)
        self.metrics: Optional[EngineMetrics] = None
        self.events_in = 0
        self.wall_seconds = 0.0
        self._finalizer = weakref.finalize(self, _close_pool, self.pool)

    # -- whole-stream runs ---------------------------------------------------
    def run(self, stream):
        """One pass over ``stream``: the executor contract, served by
        the persistent pool (one streaming run fed in a single gulp)."""
        executor = self._executor
        started = time.perf_counter()
        run = SessionStream(self)
        matches = list(run.feed(stream))
        matches.extend(run.finish())
        self.metrics = run.metrics
        self.events_in = run.events_in
        self.wall_seconds = time.perf_counter() - started
        if executor._shared:
            from ..multiquery.executor import group_by_query

            return group_by_query(executor._plan.query_names, matches)
        return matches

    def stream(self) -> "SessionStream":
        """Open an incremental streaming run (see :class:`SessionStream`)."""
        return SessionStream(self)

    @property
    def runtime_events(self) -> List[RuntimeEvent]:
        """Typed record of what the most recent run survived."""
        return list(self.pool.events)

    def set_tracer(self, tracer) -> None:
        """Attach a driver-side tracer: pool runtime events (crashes,
        reseeds, reconnects, degradations) become instant spans
        correlated by worker id and epoch.  Worker-side plan-node
        tracing is switched on separately with
        ``ParallelConfig(trace=True)`` and harvested via
        :meth:`stats`."""
        self.pool.tracer = tracer

    def stats(self) -> dict:
        """Live introspection: poll every worker mid-run via the
        epoch-free STATS frame and fold the snapshots into one view —
        ``{"workers": [...], "metrics": EngineMetrics | None,
        "nodes": [...] | None}`` (``nodes`` needs
        ``ParallelConfig(trace=True)``).  Read-only and safe while a
        run or stream is in flight, including from another thread."""
        return merge_worker_snapshots(self.pool.stats())

    def close(self) -> None:
        self._finalizer.detach()
        self.pool.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "live" if self.pool.started else "cold"
        return (
            f"Session({self._executor.partitioner_name} partitioning, "
            f"{self.pool.workers}x{self.pool.config.backend}, {state})"
        )


class SessionStream:
    """One incremental run over a session's pool.

    ``feed(events)`` routes a chunk and returns every match that is now
    *safe* to emit, ``settle()`` waits for the tail a feed left in
    flight, ``finish()`` closes the run and returns the remainder.  The
    concatenation of all returned lists is byte-identical to the
    canonical batch output (:func:`~repro.parallel.ordering.canonical_order`
    of a one-shot run) — the frontier logic only ever *delays* emission,
    never reorders it.

    **The safety frontier.**  Canonical order sorts by
    ``(completion_seq, ...)`` where ``completion_seq`` is the sequence
    number of a match's latest constituent.  A held match may be
    emitted once ``completion_seq < F`` with ``F`` the minimum over
    workers of:

    * the first *outstanding* event sequence (buffered unsent, or sent
      and unacked) — any future fresh match completes on an event the
      worker has yet to process, whose seq is at least that; and
    * when patterns can defer matches (trailing negation's pending
      matches), the first routed seq with ``ts >= last_acked_ts - W``:
      a pending match released in the future has a deadline beyond the
      worker's acked time, and its completion constituent lies within
      ``W`` of that deadline (the pending-deadline bound
      ``deadline <= min_ts + W``).

    Key partitioning excludes negation, so the guard only ever runs on
    the one-worker runs of plans key routing cannot shard.
    """

    def __init__(self, session: Session) -> None:
        self._session = session
        self._pool = session.pool
        executor = session._executor
        self._executor = executor
        self._batch_size = executor.config.batch_size
        self._feeder: Optional[_PoolFeeder] = None
        self._partitioner = None
        self._started = False
        self._finished = False
        self.events_in = 0
        self.events_routed = 0
        self.metrics: Optional[EngineMetrics] = None
        self.wall_seconds = 0.0
        self._wall_started: Optional[float] = None
        self._held: list = []  # heap of (sort_key, tiebreak, match)
        self._tie = itertools.count()
        #: Events admitted but not yet past the safety frontier, as of
        #: the last ``feed`` (a gauge the ingestion front door samples
        #: into registry time series).
        self.frontier_lag = 0
        # Deferred-match guard (see class docstring); None disables the
        # timestamp term of the frontier.
        self._guard: Optional[float] = (
            executor._window if executor._has_negation else None
        )
        self._route_seqs: List[int] = []
        self._route_ts: List[float] = []
        self._arrivals: Dict[int, float] = {}
        self._arrival_seqs: List[int] = []
        self._detection = LatencyHistogram()

    # -- feeding -------------------------------------------------------------
    def feed(self, events, arrivals: Optional[Sequence[float]] = None) -> list:
        """Route a chunk of events; return the newly releasable matches.

        ``events`` is any iterable of sequence-stamped events in stream
        order.  ``arrivals`` (parallel to ``events``, wall-clock
        seconds) enables per-match detection-latency recording — the
        ingestion front door stamps them at enqueue time.
        """
        if self._finished:
            raise ParallelError("this streaming run is finished")
        if self._wall_started is None:
            self._wall_started = time.perf_counter()
        # One feed call is atomic under the pool's I/O lock: a
        # concurrent STATS poll observes the run at feed-call
        # boundaries, never inside the half-begun window between
        # begin_run and the first submitted batch (where workers would
        # answer with an empty plan DAG).
        with self._pool._io_lock:
            return self._feed_locked(events, arrivals)

    def _feed_locked(
        self, events, arrivals: Optional[Sequence[float]]
    ) -> list:
        track = self._guard is not None
        for position, event in enumerate(events):
            self.events_in += 1
            if arrivals is not None:
                self._arrivals[event.seq] = arrivals[position]
                self._arrival_seqs.append(event.seq)
            if not self._started:
                self._begin()
            target = self._partitioner.route(event)
            if target is None:
                continue
            self.events_routed += 1
            if track:
                self._note_routed(event)
            self._feeder.emit(target, event)
        if not self._started:
            return []
        self._feeder.flush()
        self._pool.drain_available()
        return self._release()

    @property
    def outstanding(self) -> bool:
        """True while a submitted batch awaits its ACK — the matches it
        completes stay unreleased until a later call collects them."""
        live = self._started and not self._finished
        return live and any(self._pool._unacked)

    def settle(self) -> list:
        """Wait for every outstanding ACK and return what that makes
        releasable: what a caller does at a lull, when no next ``feed``
        is coming to collect the tail of the last one."""
        if not self.outstanding:
            return []
        pool = self._pool
        with pool._io_lock:
            for worker_id, unacked in enumerate(pool._unacked):
                pool._pump(worker_id, lambda: not unacked)
            return self._release()

    def finish(self) -> list:
        """Close the run; returns the held remainder in canonical order
        and freezes :attr:`metrics` / :attr:`throughput`."""
        if self._finished:
            raise ParallelError("this streaming run is already finished")
        self._finished = True
        if self._wall_started is None:
            self._wall_started = time.perf_counter()
        if not self._started:
            metrics = EngineMetrics()
            metrics.worker_count = 0
            self.metrics = metrics
            self.wall_seconds = time.perf_counter() - self._wall_started
            return []
        self._feeder.flush()
        results = self._pool.finish_run()
        metrics = EngineMetrics()
        flat: list = []
        for result in results:
            metrics = metrics.merge(result.metrics)
            flat.extend(result.matches)
        metrics.worker_count = self._pool.workers
        metrics.events_routed = self.events_routed
        # Fault-tolerance counters live at the driver (workers carry
        # zeros), so the fold happens exactly once, here.
        for name in FAULT_COUNTERS:
            setattr(metrics, name, self._pool.counters[name])
        emit_wall = time.perf_counter()
        # Held matches (acked but below no frontier yet) and FINISH-time
        # matches interleave in canonical order — a deferred match can
        # arrive in DONE with a smaller completion_seq than one already
        # held — so the remainder must be sorted as one set.
        remainder = [item[2] for item in self._held]
        remainder.extend(flat)
        for match in remainder:
            self._note_latency(match, emit_wall)
        out = canonical_order(remainder)
        self._held = []
        metrics.detection_latency = metrics.detection_latency.merge(
            self._detection
        )
        self.metrics = metrics
        self.wall_seconds = time.perf_counter() - self._wall_started
        return out

    @property
    def finished(self) -> bool:
        """True once :meth:`finish` has closed the run."""
        return self._finished

    @property
    def runtime_events(self) -> List[RuntimeEvent]:
        """Typed record of what this run survived (crashes, reseeds,
        reconnects, degradations), in occurrence order."""
        return list(self._pool.events)

    def stats(self) -> dict:
        """Poll the pool mid-stream (see :meth:`Session.stats`); an
        unstarted stream reports no workers."""
        return merge_worker_snapshots(self._pool.stats())

    def liveness_ages(self) -> List[float]:
        """Seconds since each worker last showed life (see
        :meth:`WorkerPool.liveness_ages`)."""
        return self._pool.liveness_ages()

    @property
    def throughput(self) -> float:
        """Sustained input events per second of wall time so far."""
        if self._wall_started is None:
            return 0.0
        elapsed = (
            self.wall_seconds
            if self._finished
            else time.perf_counter() - self._wall_started
        )
        return self.events_in / elapsed if elapsed > 0 else 0.0

    @property
    def detection_latency(self) -> LatencyHistogram:
        """Arrival-to-emission latency histogram recorded so far."""
        return self._detection

    # -- internals -----------------------------------------------------------
    def _begin(self) -> None:
        executor = self._executor
        if executor._routing is not None:
            self._partitioner = KeyPartitioner(
                executor._routing, executor.workers
            )
        else:
            self._partitioner = SingleWorkerRouter(executor._relevant_types)
        params: dict = {}
        if getattr(executor.config, "trace", False):
            # Each worker grows its own Tracer; per-node counters come
            # back through epoch-free STATS polls.
            params["trace"] = True
        self._pool.begin_run([params] * executor.workers)
        self._feeder = _PoolFeeder(self._pool, self._batch_size)
        self._started = True

    def _note_routed(self, event) -> None:
        self._route_seqs.append(event.seq)
        self._route_ts.append(event.timestamp)

    def _frontier(self) -> float:
        pool = self._pool
        feeder = self._feeder
        frontier = _INF
        min_threshold = _INF
        # Under the pool's I/O lock: a concurrent STATS poll pumping
        # the channels may dispatch acks, and the unacked/acked state
        # read here must be a consistent cut.
        with pool._io_lock:
            for worker_id in range(pool.workers):
                for outstanding in (
                    feeder.first_buffered_seq(worker_id),
                    pool.first_unacked_seq(worker_id),
                ):
                    if outstanding is not None and outstanding < frontier:
                        frontier = outstanding
                if self._guard is not None:
                    acked_ts = pool.last_acked_ts(worker_id)
                    if acked_ts == _NEG_INF:
                        continue  # nothing processed: no deferred matches
                    threshold = acked_ts - self._guard
                    if threshold < min_threshold:
                        min_threshold = threshold
                    position = self._bisect_ts(threshold)
                    if position < len(self._route_seqs):
                        bound = self._route_seqs[position]
                        if bound < frontier:
                            frontier = bound
        if self._guard is not None and min_threshold is not _INF:
            self._prune_routed(min_threshold)
        return frontier

    def _bisect_ts(self, threshold: float) -> int:
        """First index of the routed run with ``ts >= threshold``."""
        lo, hi = 0, len(self._route_ts)
        ts = self._route_ts
        while lo < hi:
            mid = (lo + hi) // 2
            if ts[mid] < threshold:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def _prune_routed(self, min_threshold: float) -> None:
        drop = self._bisect_ts(min_threshold)
        if drop > 1024:
            del self._route_seqs[:drop]
            del self._route_ts[:drop]

    def _release(self) -> list:
        held = self._held
        for match in self._pool.take_acked_matches():
            heapq.heappush(
                held, (match_sort_key(match), next(self._tie), match)
            )
        frontier = self._frontier()
        self.frontier_lag = (
            0 if frontier == _INF else max(0, self.events_in - frontier)
        )
        if not held:
            return []
        out: list = []
        emit_wall = time.perf_counter()
        while held and held[0][0][0] < frontier:
            match = heapq.heappop(held)[2]
            self._note_latency(match, emit_wall)
            out.append(match)
        if self._arrivals:
            self._prune_arrivals(frontier)
        return out

    def _note_latency(self, match, emit_wall: float) -> None:
        if not self._arrivals:
            return
        arrived = self._arrivals.get(match_sort_key(match)[0])
        if arrived is not None:
            self._detection.record(emit_wall - arrived)

    def _prune_arrivals(self, frontier: float) -> None:
        seqs = self._arrival_seqs
        drop = 0
        while drop < len(seqs) and seqs[drop] < frontier:
            self._arrivals.pop(seqs[drop], None)
            drop += 1
        if drop:
            del seqs[:drop]
