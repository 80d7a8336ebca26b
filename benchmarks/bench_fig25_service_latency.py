"""Figure 25 (extension): always-on service runtime latency/throughput.

Not a figure of the source paper — this sweep evaluates
:mod:`repro.service`: one keyed workload streamed incrementally
through a persistent session on four execution paths:

* **serial** — the in-frame worker (workers=1), the latency floor of
  the streaming machinery itself;
* **session-pool** — a pinned multiprocess worker pool that persists
  across runs (plans shipped once, batches streamed, acks merged
  through the canonical-order safety frontier);
* **socket-loopback** — the same protocol spoken over TCP to a
  loopback shard server (``repro.service.shard_server``), the
  distributed deployment shape measured on one machine;
* **ingestor** — the session-pool path entered through the asyncio
  front door (:class:`repro.service.Ingestor`): ``put`` per event, the
  batch-while-busy pump, ``matches()``.

The first three drive ``SessionStream.feed`` directly in ``CHUNK``-event
chunks and report sustained events/sec plus p50/p95/p99 detection
latency (arrival-to-emission, from the per-match histogram the session
records).  The ingestor row reports closed-loop events/sec (events put
as fast as they are accepted) and, from a second, open-loop run on a
fixed ``OPEN_RATE`` schedule, the latency of each match timed from when
its completing event was *due* — a stall therefore counts against every
event scheduled behind it.  Match lists are asserted byte-identical
(canonical order) to the single-threaded **interpreted** engine run for every path —
the service runtime is an execution strategy, never a semantics
change.

Acceptance (full mode): the second run on an already-warm session is
>= 1.5x faster than a cold fork-per-run executor (pool spin-up and
plan shipping amortized away), and every path's match list is exact.

Set ``REPRO_BENCH_SMOKE=1`` for a seconds-scale smoke run (CI).
Writes ``fig25_service_latency.txt`` and the machine-readable
``BENCH_fig25.json`` for the CI perf-trajectory artifact.
"""

from __future__ import annotations

import asyncio
import os
import random
import time

from repro import (
    ParallelConfig,
    ParallelExecutor,
    build_engines,
    canonical_order,
    estimate_pattern_catalog,
    parse_pattern,
    plan_pattern,
)
from repro.engines.metrics import LatencyHistogram
from repro.events import Event, Stream
from repro.parallel import completion_seq, match_records
from repro.service import Ingestor, serve_in_thread

from _common import RESULTS_DIR, BenchEnv

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
GAP = 0.02
OPEN_RATE = 4000.0  # events per second offered to the ingestor's open loop
PATTERN = "PATTERN SEQ(A a, B b, C c) WHERE a.k = b.k AND b.k = c.k WITHIN {w}"

if SMOKE:
    EVENTS, KEYS, WINDOW, CHUNK = 600, 8, 1.5, 64
    REUSE_ROUNDS = 1
else:
    EVENTS, KEYS, WINDOW, CHUNK = 6000, 50, 4.0, 128
    REUSE_ROUNDS = 3


def _stream(seed: int = 25) -> Stream:
    rng = random.Random(seed)
    events, t = [], 0.0
    for _ in range(EVENTS):
        t += rng.expovariate(1.0 / GAP)
        events.append(
            Event(
                rng.choice("ABC"),
                t,
                {"k": rng.randrange(KEYS), "v": rng.random()},
            )
        )
    return Stream(events)


def _plan(stream: Stream):
    pattern = parse_pattern(PATTERN.format(w=WINDOW))
    catalog = estimate_pattern_catalog(pattern, stream)
    return plan_pattern(pattern, catalog, algorithm="GREEDY")


def _config(mode: str, shards=()) -> ParallelConfig:
    if mode == "serial":
        return ParallelConfig(
            workers=1, partitioner="key", backend="serial", batch_size=CHUNK
        )
    if mode == "session-pool":
        return ParallelConfig(
            workers=2,
            partitioner="key",
            backend="processes",
            batch_size=CHUNK,
        )
    return ParallelConfig(
        workers=2,
        partitioner="key",
        backend="socket",
        shards=shards,
        batch_size=CHUNK,
    )


def _observability_artifacts(planned, events: list, expected, server) -> None:
    """Traced socket replay of the workload, for the CI artifact.

    One more socket-loopback run with ``ParallelConfig(trace=True)``
    and a driver-side tracer attached, polled mid-stream over the
    STATS frame.  Writes three files to ``benchmarks/results/``:

    * ``fig25_trace.json`` — report-ready snapshot
      (``python -m repro.observe.report results/fig25_trace.json``);
    * ``fig25_trace.perfetto.json`` — Chrome ``trace_event`` form,
      loadable at https://ui.perfetto.dev;
    * ``fig25_metrics.prom`` — Prometheus text-exposition snapshot.

    The traced match list is asserted byte-identical to the untraced
    baseline — the artifact run doubles as the observation-neutrality
    check at service scale.
    """
    from repro.observe import (
        MetricsRegistry,
        Tracer,
        write_chrome_trace,
        write_json,
    )

    config = ParallelConfig(
        workers=2,
        partitioner="key",
        backend="socket",
        shards=[server.address],
        batch_size=CHUNK,
        trace=True,
    )
    tracer = Tracer()
    polled = None
    with ParallelExecutor(planned, config) as executor:
        session = executor.session()
        session.set_tracer(tracer)
        run = session.stream()
        matches = []
        for start in range(0, len(events), CHUNK):
            chunk = events[start : start + CHUNK]
            now = time.perf_counter()
            with tracer.span("feed", chunk=start // CHUNK):
                matches.extend(run.feed(chunk, arrivals=[now] * len(chunk)))
        polled = run.stats()  # mid-run STATS poll: full node counters
        matches.extend(run.finish())
        assert match_records(matches) == expected, (
            "traced socket run diverges from the untraced baseline"
        )
        snap = tracer.snapshot()
        nodes = polled["nodes"] or []
        payload = {
            "run_id": snap["run_id"],
            "spans": snap["spans"],
            "nodes": nodes,
            "metrics": run.metrics.summary() if run.metrics else None,
            "workers": [
                {"worker_id": w.get("worker_id"), "epoch": w.get("epoch")}
                for w in polled["workers"]
            ],
        }
        RESULTS_DIR.mkdir(exist_ok=True)
        write_json(payload, str(RESULTS_DIR / "fig25_trace.json"))
        write_chrome_trace(
            {"run_id": snap["run_id"], "spans": snap["spans"], "nodes": nodes},
            str(RESULTS_DIR / "fig25_trace.perfetto.json"),
        )
        registry = MetricsRegistry()
        if run.metrics is not None:
            registry.bind_metrics(run.metrics, source="socket-pool")
        hist = run.detection_latency
        registry.gauge(
            "fig25_detection_latency_p95_seconds",
            hist.p95,
            help="p95 arrival-to-emission latency of the traced run",
        )
        registry.gauge(
            "fig25_throughput_events_per_second",
            run.throughput,
            help="sustained input events/s of the traced run",
        )
        (RESULTS_DIR / "fig25_metrics.prom").write_text(registry.prometheus())


def _streamed_run(executor: ParallelExecutor, events: list):
    """One incremental run: chunked feeds with arrival stamps, so the
    session's detection-latency histogram is populated."""
    run = executor.session().stream()
    matches = []
    for start in range(0, len(events), CHUNK):
        chunk = events[start : start + CHUNK]
        now = time.perf_counter()
        matches.extend(run.feed(chunk, arrivals=[now] * len(chunk)))
    matches.extend(run.finish())
    return matches, run


async def _ingested_run(executor: ParallelExecutor, events: list, rate=None):
    """One run through the asyncio front door: closed loop when ``rate``
    is None, else open loop on a fixed schedule.  Returns ``(matches,
    wall, latencies, ingestor)``; the latency histogram (open loop
    only) runs from the due time of each match's completing event."""
    matches, latencies = [], LatencyHistogram()
    async with Ingestor(
        executor, flush_events=2 * CHUNK, max_pending=4096
    ) as ingestor:
        started = time.perf_counter()
        due = rate and [
            started + 0.05 + i / rate for i in range(len(events))
        ]

        async def consume():
            async for match in ingestor.matches():
                if due:
                    latencies.record(
                        time.perf_counter() - due[completion_seq(match)]
                    )
                matches.append(match)

        consumer = asyncio.create_task(consume())
        for position, event in enumerate(events):
            if due:
                while (wait := due[position] - time.perf_counter()) > 0:
                    await asyncio.sleep(min(wait, 0.001))
            await ingestor.put(event)
        await ingestor.close()
        await consumer
        wall = time.perf_counter() - started
    return matches, wall, latencies, ingestor


def _report(mode: str, workers: int, events: list, matches: list,
            wall: float, hist: LatencyHistogram, **extra):
    """One path's table row and JSON record."""
    events_per_s = len(events) / wall if wall > 0 else 0.0
    row = [
        mode,
        workers,
        len(matches),
        f"{events_per_s:,.0f}",
        f"{hist.p50 * 1e3:.2f}",
        f"{hist.p95 * 1e3:.2f}",
        f"{hist.p99 * 1e3:.2f}",
    ]
    record = {
        "mode": mode,
        "workers": workers,
        "events": len(events),
        "matches": len(matches),
        "events_per_s": events_per_s,
        "wall_s": wall,
        "latency_p50_s": hist.p50,
        "latency_p95_s": hist.p95,
        "latency_p99_s": hist.p99,
        "latency_mean_s": hist.mean,
        "latency_samples": len(hist),
        **extra,
    }
    return row, record


def _ingestor_report(executor: ParallelExecutor, events: list, expected):
    """Row and record of the ``ingestor`` path: closed-loop throughput,
    open-loop latency."""
    asyncio.run(_ingested_run(executor, events))  # warm the pool
    closed, wall, _, _ = asyncio.run(_ingested_run(executor, events))
    opened, _, latencies, ingestor = asyncio.run(
        _ingested_run(executor, events, OPEN_RATE)
    )
    for label, matches in (("closed", closed), ("open", opened)):
        assert match_records(matches) == expected, (
            f"ingestor ({label} loop) diverges from the interpreted "
            "serial run"
        )
    assert ingestor.shed == 0
    return _report(
        "ingestor", executor.config.workers, events, closed, wall,
        latencies, open_rate_eps=OPEN_RATE,
        open_blocked_puts=ingestor.blocked,
    )


def test_fig25_service_latency(benchmark, env: BenchEnv):
    stream = _stream()
    events = list(stream)
    planned = _plan(stream)

    # The semantics baseline: single-threaded *interpreted* engines.
    baseline = build_engines(planned, compiled=False)
    expected = match_records(canonical_order(baseline.run(stream)))

    server = serve_in_thread()  # 127.0.0.1, ephemeral port
    rows, runs = [], []
    try:
        for mode in ("serial", "session-pool", "socket-loopback"):
            config = _config(mode, shards=[server.address])
            with ParallelExecutor(planned, config) as executor:
                _streamed_run(executor, events)  # warm the pool
                matches, run = _streamed_run(executor, events)
                assert match_records(matches) == expected, (
                    f"{mode} diverges from the interpreted serial run"
                )
                row, record = _report(
                    mode, config.workers, events, matches,
                    run.wall_seconds, run.detection_latency,
                )
                rows.append(row)
                runs.append(record)

        with ParallelExecutor(planned, _config("session-pool")) as executor:
            row, record = _ingestor_report(executor, events, expected)
            rows.append(row)
            runs.append(record)

        # Observability artifacts (trace + Prometheus snapshot) from a
        # traced replay of the same workload; asserts byte-identity.
        _observability_artifacts(planned, events, expected, server)

        # Session reuse vs fork-per-run: a cold executor pays pool
        # spin-up (fork + INIT + plan shipping) inside the measured
        # wall; a warm session pays none of it.  Measured on a short
        # run — the regime sessions exist for: frequent small runs
        # whose wall is otherwise dominated by per-run fixed costs.
        reuse_stream = Stream(events[:300])
        pool_config = _config("session-pool")
        cold = float("inf")
        for _ in range(REUSE_ROUNDS):
            started = time.perf_counter()
            executor = ParallelExecutor(planned, pool_config)
            executor.run(reuse_stream)
            cold = min(cold, time.perf_counter() - started)
            executor.close()
        warm = float("inf")
        with ParallelExecutor(planned, pool_config) as executor:
            executor.run(reuse_stream)  # first run starts the pool
            for _ in range(REUSE_ROUNDS):
                started = time.perf_counter()
                executor.run(reuse_stream)
                warm = min(warm, time.perf_counter() - started)
        reuse = cold / warm if warm > 0 else 1.0
    finally:
        server.close()

    env.write("fig25_service_latency.txt", _format(rows, reuse))
    env.write_json(
        "BENCH_fig25.json",
        {
            "smoke": SMOKE,
            "host": env.host_fingerprint(),
            "runs": runs,
            "session_reuse": {
                "cold_fork_per_run_s": cold,
                "warm_second_run_s": warm,
                "speedup": reuse,
            },
        },
    )

    if not SMOKE:
        # Acceptance: pool reuse beats fork-per-run by >= 1.5x.
        assert reuse >= 1.5, (cold, warm, reuse)

    benchmark.pedantic(
        lambda: _streamed_run(
            ParallelExecutor(planned, _config("serial")), events
        ),
        rounds=1,
        iterations=1,
    )


def _format(rows, reuse: float) -> str:
    from repro.bench import format_table

    return format_table(
        (
            "path",
            "workers",
            "matches",
            "events/s",
            "p50 ms",
            "p95 ms",
            "p99 ms",
        ),
        rows,
        title=(
            "Figure 25 — always-on service runtime "
            "(byte-identical to the interpreted serial run; "
            f"session reuse {reuse:.1f}x over fork-per-run)"
        ),
    )
