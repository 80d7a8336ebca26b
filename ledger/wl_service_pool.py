"""service_pool — the keyed pattern through the front door.

``Ingestor.put`` → a two-process key-partitioned ``ParallelExecutor`` →
``matches()``.  Phase A is a closed loop (events fed as fast as they are
accepted) and gives ``throughput_eps``; phase B is an open loop on a
fixed 4 000 ev/s schedule, each match timed from when its
highest-sequence event was *due*, and gives ``detect_*``.  Latency is
measured here, from ``completion_seq`` of the match, not read from the
session's bucketed ``LatencyHistogram``.  Routing, pickling, the
canonical-order frontier and asyncio are what this workload adds over
``keyed_index``.
"""

from __future__ import annotations

import asyncio
import socket
import statistics
import time

from repro import (
    Ingestor,
    ParallelConfig,
    ParallelExecutor,
    estimate_pattern_catalog,
    parse_pattern,
)
from repro.engines import build_engines
from repro.events import Stream
from repro.parallel import (
    KeyPartitioner,
    canonical_order,
    completion_seq,
    key_routing_map,
)
from repro.service.protocol import recv_frame, send_frame

import inputs
from harness import (
    EngineRun, Pass, PlanLog, Workload, divergence, fixed_plans, identity,
    oracle_failures, percentile,
)

CLOSED_EVENTS = 32_000
OPEN_EVENTS = 16_000
RATE = 4_000.0  # open-loop events per second
KEYS = 50
WINDOW = 4
GAP = 0.02
WORKERS = 2
BATCH = 128
TIME_SLICES = 8
INGEST = dict(
    flush_events=256, flush_seconds=0.01, max_pending=4096,
    backpressure="block",
)


def pool_config(**overrides) -> ParallelConfig:
    settings = dict(
        workers=WORKERS, partitioner="key", backend="processes",
        batch_size=BATCH,
    )
    settings.update(overrides)
    return ParallelConfig(**settings)


async def ingest(executor, events, rate=None):
    """Feed ``events`` through an ``Ingestor``; closed loop when ``rate``
    is None, else open loop on a fixed schedule.

    Returns ``(matches, wall, latencies, lateness, ingestor)``: latency
    per match from the due time of its completing event (open loop
    only), and how late the generator issued each ``put``.
    """
    matches, latencies, lateness = [], [], []
    async with Ingestor(executor, **INGEST) as ingestor:
        started = time.perf_counter()
        due = (
            [started + 0.05 + i / rate for i in range(len(events))]
            if rate else None
        )

        async def consume():
            async for match in ingestor.matches():
                if due is not None:
                    latencies.append(
                        time.perf_counter() - due[completion_seq(match)]
                    )
                matches.append(match)

        consumer = asyncio.create_task(consume())
        for position, event in enumerate(events):
            if due is not None:
                while True:
                    wait = due[position] - time.perf_counter()
                    if wait <= 0:
                        break
                    await asyncio.sleep(min(wait, 0.001))
                lateness.append(time.perf_counter() - due[position])
            await ingestor.put(event)
        await ingestor.close()
        await consumer
        wall = time.perf_counter() - started
    return matches, wall, latencies, lateness, ingestor


def sliced_percentiles(latencies) -> tuple:
    """``(p50, p99)`` as the median over TIME_SLICES consecutive slices of
    the open-loop run.  A scheduler stall delays a few hundred
    consecutive matches; it lands in one slice and cannot set the p99."""
    size = len(latencies) / TIME_SLICES
    slices = [
        sorted(latencies[int(i * size):int((i + 1) * size)])
        for i in range(TIME_SLICES)
    ]
    return tuple(
        statistics.median(percentile(s, q) for s in slices)
        for q in (0.50, 0.99)
    )


class _CountingSocket:
    """``send_frame`` only calls ``sendall``; count the bytes it ships."""

    def __init__(self, sock) -> None:
        self.sock = sock
        self.sent = 0

    def sendall(self, data: bytes) -> None:
        self.sent += len(data)
        self.sock.sendall(data)


class ServicePool(Workload):
    name = "service_pool"
    pass_seconds = 8.3

    def setup(self) -> None:
        cfg, rec = self.cfg, self.rec
        gap = inputs.exponential_gap(GAP)
        with rec.span("workloads.gen"):
            # Phase A runs twice, on different data: its throughput is
            # at the mercy of how three processes share two cores.
            self.closed, self.closed_again, self.open = (
                inputs.keyed_events(
                    cfg.pass_seed(i), cfg.scaled(count), KEYS, gap
                )
                for i, count in enumerate(
                    (CLOSED_EVENTS, CLOSED_EVENTS, OPEN_EVENTS)
                )
            )
            self.prefix = Stream(self.closed[: cfg.scaled(3_000, 200)])
        with rec.span("patterns.parse"):
            pattern = parse_pattern(inputs.EQUALITY.format(w=WINDOW))
        with rec.span("stats.catalog"):
            catalog = estimate_pattern_catalog(pattern, Stream(self.closed))
        self.plans = PlanLog(rec, cfg.trace)
        self.planned = fixed_plans(pattern, catalog, self.plans)["nfa"]
        with rec.span("service.pool_start"):
            self.executor = ParallelExecutor(self.planned, pool_config())
            self.executor.run(self.prefix)  # forks the workers, ships plans

    def close(self) -> None:
        self.executor.close()

    def measure(self, rec, index: int) -> Pass:
        runs = []
        for label, events in (
            ("ingest/0", self.closed), ("ingest/1", self.closed_again)
        ):
            with rec.span("service.ingest_closed"):
                matches, wall, _, _, closed = asyncio.run(
                    ingest(self.executor, events)
                )
            runs.append(
                EngineRun(
                    label, len(events), wall,
                    closed.metrics.peak_partial_matches, (),
                    identity(matches),
                )
            )
        with rec.span("service.ingest_open"):
            opened, _, latencies, lateness, open_ = asyncio.run(
                ingest(self.executor, self.open, RATE)
            )
        self.closed_wall = runs[0].wall
        self.lateness = sorted(lateness)
        self.open_blocked = open_.blocked
        self.shed = closed.shed + open_.shed  # closed: the second run's
        self.open_identity = identity(opened)
        runs[0].latencies = latencies  # counted as the latency samples
        return Pass(runs, detect=sliced_percentiles(latencies))

    def feed_sync(self, rec, span: str, config: ParallelConfig) -> tuple:
        """Synchronous ``SessionStream.feed`` in 256-event chunks: the
        streaming machinery without asyncio.  ``(feed_s, finish_s)``."""
        with ParallelExecutor(self.planned, config) as executor:
            executor.run(self.prefix)
            run = executor.session().stream()
            stream = list(Stream(self.closed))
            with rec.span(span):
                started = time.perf_counter()
                for start in range(0, len(stream), 256):
                    run.feed(stream[start:start + 256])
                fed = time.perf_counter() - started
            with rec.span("service.finish"):
                started = time.perf_counter()
                run.finish()
                finished = time.perf_counter() - started
        return fed, finished

    def probes(self, rec, traced: Pass) -> dict:
        stream = Stream(self.closed)
        events = list(stream)

        # parallel: routing, skew, merge, and the pool without ingest.
        partitioner = KeyPartitioner(
            key_routing_map([item.decomposed for item in self.planned]),
            WORKERS,
        )
        with rec.span("parallel.route"):
            routes = [partitioner.route(event) for event in events]
        loads = [routes.count(worker) for worker in range(WORKERS)]
        with rec.span("parallel.batch_run"):
            matches = self.executor.run(stream)
        with rec.span("parallel.merge"):
            canonical_order(matches)

        # service: framing of the run's own batches over a socketpair.
        left, right = socket.socketpair()
        sender = _CountingSocket(left)
        try:
            with rec.span("service.frame"):
                for start in range(0, len(events), BATCH):
                    send_frame(sender, events[start:start + BATCH])
                    recv_frame(right)
        finally:
            left.close()
            right.close()

        fed, finished = self.feed_sync(rec, "service.feed", pool_config())
        self.feed_sync(
            rec, "service.serial_feed",
            pool_config(workers=1, backend="serial"),
        )

        # engines: the bare engine, per process() call.
        engine = build_engines(self.planned)
        calls = []
        with rec.span("engines.nfa_run"):
            for event in events:
                started = time.perf_counter()
                engine.process(event)
                calls.append(time.perf_counter() - started)
            engine.finalize()
        self.tally.add(engine.metrics)
        bare = sum(calls)
        calls.sort()

        return {
            "parallel.skew": max(loads) / (sum(loads) / WORKERS),
            "service.frame_bytes_per_event": sender.sent / len(events),
            "service.overhead_ratio": (fed + finished) / bare,
            "service.ingest_self_s": self.closed_wall - (fed + finished),
            "service.blocked_puts": float(self.open_blocked),
            "service.shed": float(self.shed),
            "service.sched_late_p99_ms": percentile(self.lateness, 0.99) * 1e3,
            "engines.process_p99_us": percentile(calls, 0.99) * 1e6,
        }

    def check(self, last: Pass) -> tuple:
        expected, failed = oracle_failures(self.planned, self.prefix)
        attempted = expected + 2 * len(self.closed) + len(self.open)
        # service_pool ≡ bare engine, on both phases' full streams.
        for events, got in (
            (self.closed, last.runs[0].identity),
            (self.closed_again, last.runs[1].identity),
            (self.open, self.open_identity),
        ):
            bare = identity(build_engines(self.planned).run(Stream(events)))
            attempted += bare[0]
            failed += divergence(bare, got)
        # An open loop that blocks its producer is not running at RATE.
        failed += self.shed + self.open_blocked
        return attempted, failed
