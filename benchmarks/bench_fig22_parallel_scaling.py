"""Figure 22 (extension): parallel partitioned execution scaling.

Not a figure of the source paper — this sweep evaluates
:mod:`repro.parallel`: one logical stream sharded across a
``multiprocessing`` worker pool, workers ∈ {1, 2, 4, 8}, against the
identical single-engine configuration.  The workload is the fig21
equi-join chain ``a.k = b.k = c.k`` under **key partitioning**,
measured twice: with linear (seed) stores, where sharding by key prunes
every probe's candidate space by the worker count — the CLASH-style
partitioned-join-store effect, real even on a single core — and with
indexed stores, where per-key hash buckets already bound probe work and
the win is parallelism itself (visible only with >= 2 physical cores).
A plan without a routing key runs on one worker and has no scaling to
sweep.

Every row records two ratios: ``speedup`` against the identical
single-engine configuration, and ``speedup_vs_default`` against the
default (indexed) serial engine — the engine a caller would run
without the parallel tier at all.

Match lists are asserted byte-identical (canonical order) to the
single-engine run for every configuration — partitioning is an
execution strategy, never a semantics change.

Acceptance (full mode): >= 2x throughput at 4 workers on the keyed
linear-store sweep.  Machines with >= 4 physical cores will also see
the indexed rows scale; on smaller hosts those rows document the
process-pool overhead honestly (``cpus`` is recorded in the JSON).

Set ``REPRO_BENCH_SMOKE=1`` for a seconds-scale smoke run (CI).
Writes ``fig22_parallel_scaling.txt`` and the machine-readable
``BENCH_fig22.json`` for the CI perf-trajectory artifact.
"""

from __future__ import annotations

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
from repro.events import Event, Stream
from repro.parallel import match_records

from _common import BenchEnv

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
#: Mean inter-arrival gap (seconds); windows below are in the same unit.
GAP = 0.02
TIMING_ROUNDS = 1 if SMOKE else 2

KEYED = "PATTERN SEQ(A a, B b, C c) WHERE a.k = b.k AND b.k = c.k WITHIN {w}"

if SMOKE:
    WORKER_COUNTS = (1, 2)
    #: (family, indexed, events, key cardinality, window)
    CONFIGS = (("keyed", False, 400, 8, 1.5),)
else:
    WORKER_COUNTS = (1, 2, 4, 8)
    CONFIGS = (
        ("keyed", False, 5000, 50, 4.0),
        ("keyed", True, 5000, 50, 4.0),
    )


def _stream(events_count: int, keys: int, seed: int = 22) -> Stream:
    rng = random.Random(seed)
    events, t = [], 0.0
    for _ in range(events_count):
        t += rng.expovariate(1.0 / GAP)
        events.append(
            Event(
                rng.choice("ABC"),
                t,
                {"k": rng.randrange(keys), "v": rng.random()},
            )
        )
    return Stream(events)


def _plan(window: float, stream: Stream):
    pattern = parse_pattern(KEYED.format(w=window))
    catalog = estimate_pattern_catalog(pattern, stream)
    return plan_pattern(pattern, catalog, algorithm="GREEDY")


def _serial_wall(planned, stream, indexed):
    best, records = float("inf"), None
    for _ in range(TIMING_ROUNDS):
        engine = build_engines(planned, indexed=indexed)
        started = time.perf_counter()
        matches = engine.run(stream)
        best = min(best, time.perf_counter() - started)
        records = match_records(canonical_order(matches))
    return best, records


def _parallel_wall(planned, stream, indexed, workers):
    config = ParallelConfig(
        workers=workers,
        partitioner="key",
        backend="processes",
        batch_size=512,
    )
    best, records, executor = float("inf"), None, None
    for _ in range(TIMING_ROUNDS):
        executor = ParallelExecutor(planned, config, indexed=indexed)
        matches = executor.run(stream)
        best = min(best, executor.wall_seconds)
        records = match_records(matches)
    return best, records, executor


def test_fig22_parallel_scaling(benchmark, env: BenchEnv):
    rows, records = [], []
    for family, indexed, events_count, keys, window in CONFIGS:
        stream = _stream(events_count, keys)
        planned = _plan(window, stream)
        serial_wall, serial_records = _serial_wall(planned, stream, indexed)
        default_wall = (
            serial_wall
            if indexed
            else _serial_wall(planned, stream, indexed=True)[0]
        )
        for workers in WORKER_COUNTS:
            par_wall, par_records, executor = _parallel_wall(
                planned, stream, indexed, workers
            )
            # Acceptance: identical canonical match lists, always.
            assert par_records == serial_records, (
                f"{family}/indexed={indexed} diverges at {workers} workers"
            )
            speedup = serial_wall / par_wall if par_wall > 0 else 1.0
            vs_default = default_wall / par_wall if par_wall > 0 else 1.0
            metrics = executor.metrics
            replication = (
                metrics.events_routed / events_count if events_count else 0.0
            )
            stores = "indexed" if indexed else "linear"
            rows.append(
                [
                    family,
                    stores,
                    workers,
                    len(par_records),
                    f"{events_count / serial_wall:,.0f}",
                    f"{events_count / par_wall:,.0f}",
                    f"{speedup:.1f}x",
                    f"{vs_default:.2f}x",
                    f"{replication:.2f}",
                ]
            )
            records.append(
                {
                    "family": family,
                    "indexed": indexed,
                    "workers": workers,
                    "events": events_count,
                    "key_cardinality": keys,
                    "window": window,
                    "matches": len(par_records),
                    "serial_wall_s": serial_wall,
                    "parallel_wall_s": par_wall,
                    "default_wall_s": default_wall,
                    "speedup": speedup,
                    "speedup_vs_default": vs_default,
                    "events_routed": metrics.events_routed,
                    "replication": replication,
                }
            )

    env.write("fig22_parallel_scaling.txt", _format(rows))
    env.write_json(
        "BENCH_fig22.json",
        {"smoke": SMOKE, "cpus": os.cpu_count(), "runs": records},
    )

    if not SMOKE:
        # Acceptance: >= 2x at 4 workers on the keyed linear-store
        # sweep (the partition-pruning effect; core-count independent).
        for record in records:
            if (
                record["family"] == "keyed"
                and not record["indexed"]
                and record["workers"] == 4
            ):
                assert record["speedup"] >= 2.0, record

    _, indexed, events_count, keys, window = CONFIGS[0]
    stream = _stream(events_count, keys)
    planned = _plan(window, stream)
    benchmark.pedantic(
        lambda: ParallelExecutor(
            planned,
            ParallelConfig(workers=2, partitioner="key", backend="processes"),
            indexed=indexed,
        ).run(stream),
        rounds=1,
        iterations=1,
    )


def _format(rows) -> str:
    from repro.bench import format_table

    return format_table(
        (
            "workload",
            "stores",
            "workers",
            "matches",
            "ev/s serial",
            "ev/s parallel",
            "speedup",
            "vs default",
            "routed/ev",
        ),
        rows,
        title=(
            "Figure 22 — parallel partitioned execution "
            "(identical canonical match lists asserted; "
            "process-pool backend)"
        ),
    )
