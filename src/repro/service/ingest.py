"""Async ingestion: the service runtime's front door.

An :class:`Ingestor` bridges an :mod:`asyncio` application and a
persistent :class:`~repro.service.session.Session`: producers ``await
put(event)`` as events arrive, a pump coroutine frames them into
batches and feeds each frame to the session's streaming run on a worker
thread, and consumers read matches from the :meth:`matches` async
iterator *in the canonical partition-independent merge order*, long
before the stream ends.

Framing is **batch while busy**: the pump waits for one event, takes
whatever else is already queued — up to ``flush_events`` — and feeds
it, while the next frame accumulates.  A frame is thus cut by size
under load and as soon as the queue runs dry otherwise; if the queue is
still empty after a feed the pump waits out the remaining worker
acknowledgements, so a lull never holds matches back.  There is no
timer: ``flush_seconds`` is the bound on how long an admitted event may
wait for its frame while the pump is idle, met by construction.

Backpressure is explicit and bounded: the input queue holds at most
``max_pending`` events.  Under ``backpressure="block"`` a full queue
suspends the producer (end-to-end flow control); under ``"shed"`` the
event is dropped and counted in :attr:`Ingestor.shed` — the knob for
sources that must never stall, where the count is the honest record of
what load shedding cost.

Each accepted event is stamped with its arrival wall-clock time; when
the match it completes is emitted, the arrival-to-emission gap is
recorded into the run's
:class:`~repro.engines.metrics.LatencyHistogram`
(``metrics.detection_latency`` after :meth:`close`), which is where the
fig. 25 benchmark's p50/p95/p99 numbers come from.
"""

from __future__ import annotations

import asyncio
import time
from typing import AsyncIterator, Iterable, Optional

from ..engines.metrics import EngineMetrics
from ..errors import ParallelError
from ..events import Event
from ..streams.disorder import DisorderBuffer

_EOS = object()


class _Failure:
    """Carries a pump exception to the consumer side of the out queue."""

    __slots__ = ("error",)

    def __init__(self, error: BaseException) -> None:
        self.error = error


class Ingestor:
    """Async, bounded-queue ingestion into a persistent session.

    ``target`` is a :class:`~repro.parallel.ParallelExecutor` or its
    :class:`~repro.service.session.Session`.  Use as an async context
    manager::

        async with Ingestor(executor, flush_events=128) as ingestor:
            consumer = asyncio.create_task(consume(ingestor.matches()))
            for event in source:
                await ingestor.put(event)
            await ingestor.close()
            await consumer

    Arrival timestamps may be out of order up to ``max_delay`` seconds
    of stream time: arrivals pass through a watermarked
    :class:`~repro.streams.disorder.DisorderBuffer` and are
    sequence-stamped **at release**, so the session always sees a
    timestamp-ordered, consecutively numbered stream and the canonical
    safe-emission frontier stays watermark-aware for free.  An event
    older than the watermark (``max_seen_ts − max_delay``) follows
    ``late_policy``: ``"strict"`` (default) raises
    :class:`~repro.events.StreamOrderError` — with ``max_delay=0``
    exactly the old any-disorder rejection — and ``"drop"`` counts it
    in ``events_late_dropped`` and sheds it.  ``close`` flushes the
    reorder buffer before finishing the run.

    A frame is fed at ``flush_events`` or as soon as the queue runs dry
    (module docstring); ``flush_seconds`` starts no timer and stays as
    the stated bound on idle frame age.  ``put`` suspends only on a full
    queue under ``"block"`` or behind a producer already parked on one.
    """

    def __init__(
        self,
        target,
        *,
        max_pending: int = 1024,
        backpressure: str = "block",
        flush_events: int = 256,
        flush_seconds: float = 0.05,
        registry=None,
        max_delay: float = 0.0,
        late_policy: str = "strict",
    ) -> None:
        if backpressure not in ("block", "shed"):
            raise ParallelError(
                f"unknown backpressure policy {backpressure!r}; "
                "choose 'block' or 'shed'"
            )
        if late_policy not in ("strict", "drop"):
            raise ParallelError(
                f"unknown late policy {late_policy!r}; the ingestor "
                "supports 'strict' or 'drop' ('revise' needs a "
                "DeltaEngine, not a partitioned session)"
            )
        if max_pending <= 0:
            raise ParallelError("max_pending must be >= 1")
        if flush_events <= 0:
            raise ParallelError("flush_events must be >= 1")
        if flush_seconds <= 0:
            raise ParallelError("flush_seconds must be positive")
        session = target.session() if hasattr(target, "session") else target
        self._stream = session.stream()
        self._max_pending = max_pending
        self._policy = backpressure
        self._flush_events = flush_events
        self._inq: Optional[asyncio.Queue] = None
        self._outq: Optional[asyncio.Queue] = None
        self._pump_task: Optional[asyncio.Task] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._put_lock: Optional[asyncio.Lock] = None
        self._busy: Optional[asyncio.Future] = None
        self._failure: Optional[BaseException] = None
        self._closing = False
        self._next_seq = 0
        self._unyielded = 0  # events offered since put last yielded
        #: Disorder-layer counters (events_reordered,
        #: events_late_dropped, watermark_lag) merged into
        #: :attr:`metrics`; sampled into the registry per flush.
        self.disorder = EngineMetrics()
        self._buffer = DisorderBuffer(
            max_delay, late_policy=late_policy, metrics=self.disorder
        )
        #: Events dropped by the ``"shed"`` backpressure policy.
        self.shed = 0
        #: Of :attr:`shed`, events that :meth:`put` had already accepted
        #: into the reorder buffer (it returned True) before the full
        #: queue dropped them at watermark release — under nonzero
        #: ``max_delay`` with ``backpressure="shed"``, ``put``'s return
        #: value is *provisional* for buffered events; exactly-once
        #: accounting must reconcile against this counter.
        self.shed_at_release = 0
        #: Producer suspensions under the ``"block"`` policy (the queue
        #: was full when ``put`` arrived).
        self.blocked = 0
        # Optional MetricsRegistry (repro.observe): each flush samples
        # queue depth, backpressure blocks/sheds, streaming frontier
        # lag, and per-worker liveness age into its ring-buffer time
        # series.  Untyped and unimported when absent — observability
        # stays strictly opt-in.
        self._registry = registry

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> "Ingestor":
        if self._pump_task is not None:
            return self
        self._loop = asyncio.get_running_loop()
        self._inq = asyncio.Queue(maxsize=self._max_pending)
        self._outq = asyncio.Queue()
        self._put_lock = asyncio.Lock()
        self._pump_task = self._loop.create_task(self._pump())
        return self

    async def close(self) -> None:
        """Flush everything, finish the run, and wait for the pump.

        After it returns, :attr:`metrics` carries the merged
        :class:`~repro.engines.EngineMetrics` of the whole run and
        :meth:`matches` terminates once drained.
        """
        if self._pump_task is None:
            raise ParallelError("ingestor was never started")
        async with self._put_lock:
            if not self._closing and self._failure is None:
                self._closing = True
                # End of stream closes the disorder bound: everything
                # still held for reordering is released in timestamp
                # order and stamped before the final frame is cut.
                for released, arrived in self._buffer.flush():
                    if not await self._admit(released, arrived):
                        self.shed_at_release += 1
                await self._inq.put(_EOS)
        await self._pump_task

    async def __aenter__(self) -> "Ingestor":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        if exc_type is None and not self._closing:
            await self.close()
            return
        task = self._pump_task
        if task is not None and not task.done():
            self._closing = True
            task.cancel()
            # Await the cancellation so the pump's abort path runs to
            # completion (in-flight executor feed waited out, stream
            # run closed) and the CancelledError is retrieved instead
            # of surfacing as a destroyed-task warning.
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass  # the body's exception is already propagating

    # -- producing -----------------------------------------------------------
    def _check_open(self) -> None:
        if self._pump_task is None:
            raise ParallelError("ingestor was never started")
        if self._failure is not None:
            raise self._failure
        if self._closing or self._pump_task.done():
            raise ParallelError("ingestor is closed")

    async def put(self, event: Event) -> bool:
        """Admit one event; returns False when it is dropped (a full
        queue under ``"shed"``, or a late event under ``"drop"``).
        Safe to call from several producer coroutines.

        With ``max_delay > 0`` and ``backpressure="shed"``, True is
        *provisional* for an event the disorder buffer holds back: when
        the watermark later releases it (during another ``put`` or
        :meth:`close`) into a full queue it is still shed — counted in
        :attr:`shed` and, separately, :attr:`shed_at_release` so callers
        can reconcile earlier acceptances.
        """
        return await self.put_many((event,)) == 1

    async def put_many(self, events: Iterable[Event]) -> int:
        """Admit a chunk in order; returns how many were accepted, with
        :attr:`shed` / :attr:`shed_at_release` / :attr:`blocked`
        counted exactly as the equivalent :meth:`put` sequence would.

        The common case never suspends: disorder check, sequence stamp
        and ``put_nowait`` of every event run back to back on the event
        loop, hence atomically against other producers.  The admission
        lock is taken, once per chunk, only when the chunk may have to
        wait: under ``"block"`` when the queue might not hold all the
        chunk can release, or when a producer is already parked on a
        full queue (it holds the lock; later arrivals line up behind it
        so queue order stays sequence order).
        """
        self._check_open()
        events = tuple(events)
        if self._put_lock.locked() or (
            self._policy == "block"
            and self._inq.qsize() + len(self._buffer) + len(events)
            > self._max_pending
        ):
            async with self._put_lock:
                self._check_open()
                accepted = await self._admit_chunk(events)
        else:
            accepted = await self._admit_chunk(events)  # never suspends
        self._unyielded += len(events)
        if self._unyielded >= self._flush_events:
            # A frame's worth went in since this side last yielded: let
            # the pump cut it.  A tight producer over a never-full queue
            # has no other suspension point and would starve the run.
            self._unyielded = 0
            await asyncio.sleep(0)
        return accepted

    async def _admit_chunk(self, events: tuple) -> int:
        """Pass each event through the disorder policy — within
        ``max_delay`` the buffer reorders; beyond it ``"strict"``
        raises StreamOrderError and ``"drop"`` sheds the late event
        (``disorder.events_late_dropped``, not backpressure shed) — and
        admit what the watermark releases."""
        accepted = 0
        for event in events:
            result = self._buffer.offer(
                event.timestamp, (event, time.perf_counter())
            )
            if result.late is not None:
                continue
            accepted += 1
            for released, arrived in result.released:
                if await self._admit(released, arrived):
                    continue
                if released is event:
                    accepted -= 1
                else:
                    # A previously-accepted buffered event was shed at
                    # release: its put() already returned True.
                    self.shed_at_release += 1
        return accepted

    async def _admit(self, event: Event, arrived: float) -> bool:
        """Stamp and enqueue one watermark-released event; suspends
        only on a full queue under ``"block"`` (lock held).

        Stamp only after admission: a shed (or cancelled) event must
        not burn a sequence number, or the frontier math would wait on
        it.  No other producer can slip in between: the lock-free path
        never awaits and the lock covers the one that does.  Release
        order is timestamp order, so the fed stream stays ordered.
        """
        item = (event.with_seq(self._next_seq), arrived)
        if not self._inq.full():
            self._inq.put_nowait(item)
        elif self._policy == "shed":
            self.shed += 1
            return False
        else:
            self.blocked += 1
            await self._inq.put(item)
            if self._pump_task.done():
                # Woken by the dying pump emptying the queue, not by
                # room: nobody will ever read this item.
                self._check_open()
        self._next_seq += 1
        return True

    # -- consuming -----------------------------------------------------------
    async def matches(self) -> AsyncIterator:
        """Matches in canonical order, as they become safe to emit;
        terminates after :meth:`close` once everything is drained."""
        if self._outq is None:
            raise ParallelError("ingestor was never started")
        while True:
            item = await self._outq.get()
            if item is _EOS:
                return
            if isinstance(item, _Failure):
                raise item.error
            yield item

    # -- observability -------------------------------------------------------
    @property
    def events_in(self) -> int:
        """Events accepted so far (shed events excluded)."""
        return self._next_seq

    @property
    def metrics(self):
        """Merged run metrics (populated by :meth:`close`), including
        the ingestor's disorder counters and watermark-lag histogram."""
        base = self._stream.metrics
        if base is None:
            return None
        return base.merge(self.disorder, concurrent=False)

    @property
    def detection_latency(self):
        """Arrival-to-emission latency histogram recorded so far."""
        return self._stream.detection_latency

    @property
    def throughput(self) -> float:
        """Accepted events per second of wall time so far."""
        return self._stream.throughput

    @property
    def runtime_events(self):
        """Typed fault-tolerance events (crashes healed, reconnects,
        degradations) the underlying run has recorded so far."""
        return self._stream.runtime_events

    async def stats(self) -> dict:
        """Poll every live worker mid-stream via the epoch-free STATS
        frame (see :meth:`~repro.service.session.Session.stats`).  The
        poll runs on a worker thread; the pool's I/O lock keeps its
        frames from interleaving with an in-flight feed."""
        if self._loop is None:
            raise ParallelError("ingestor was never started")
        return await self._loop.run_in_executor(None, self._stream.stats)

    def _sample_registry(self) -> None:
        registry = self._registry
        registry.series("ingest_queue_depth").sample(self._inq.qsize())
        registry.series("ingest_shed_events").sample(self.shed)
        registry.series("ingest_shed_at_release").sample(
            self.shed_at_release
        )
        registry.series("ingest_blocked_puts").sample(self.blocked)
        registry.series("frontier_lag_events").sample(
            self._stream.frontier_lag
        )
        registry.series("ingest_disorder_buffered").sample(
            len(self._buffer)
        )
        registry.series("ingest_late_dropped").sample(
            self.disorder.events_late_dropped
        )
        for worker_id, age in enumerate(self._stream.liveness_ages()):
            registry.series(
                f"worker{worker_id}_liveness_age_seconds"
            ).sample(age)

    # -- the pump ------------------------------------------------------------
    async def _pump(self) -> None:
        try:
            await self._pump_loop()
        except asyncio.CancelledError:
            await self._abort()
            raise
        except BaseException as error:  # noqa: BLE001 — relayed to consumers
            self._failure = error
            self._outq.put_nowait(_Failure(error))
            raise
        finally:
            # Nobody reads the queue again: emptying it wakes a producer
            # (or close) parked on it full, who then raises.
            while not self._inq.empty():
                self._inq.get_nowait()

    async def _abort(self) -> None:
        """Quiesce after cancellation: wait out the feed or settle still
        running on its executor thread, then close the stream run so
        the pool is left cleanly between runs (released matches are
        dropped — the consumer abandoned the run)."""
        future, self._busy = self._busy, None
        if future is not None:
            try:
                await asyncio.shield(future)
            except Exception:  # noqa: BLE001 — aborting anyway
                pass
        if not self._stream.finished:
            try:
                await self._loop.run_in_executor(None, self._stream.finish)
            except Exception:  # noqa: BLE001 — aborting anyway
                pass
        self._outq.put_nowait(_EOS)

    async def _emit(self, func, *args) -> None:
        """Run session work on the executor and queue the matches it
        releases.  Shielded: cancelling the pump must never abandon a
        half-done feed — :meth:`_abort` waits it out via :attr:`_busy`
        instead."""
        future = self._loop.run_in_executor(None, func, *args)
        self._busy = future
        released = await asyncio.shield(future)
        self._busy = None
        for match in released:
            self._outq.put_nowait(match)

    async def _pump_loop(self) -> None:
        # Batch while busy (see the module docstring): frame size
        # follows load with no timer and no per-event task.
        inq, stream = self._inq, self._stream
        while True:
            item = await inq.get()
            events, arrivals = [], []
            while item is not _EOS:
                events.append(item[0])
                arrivals.append(item[1])
                if len(events) >= self._flush_events or inq.empty():
                    break
                item = inq.get_nowait()
            if events:
                await self._emit(stream.feed, events, arrivals)
                if self._registry is not None:
                    self._sample_registry()
            if item is _EOS:
                await self._emit(stream.finish)
                self._outq.put_nowait(_EOS)
                return
            if inq.empty() and stream.outstanding:
                # A lull: collect what the last feed left unacknowledged
                # now, not when the next event happens to arrive.
                await self._emit(stream.settle)
