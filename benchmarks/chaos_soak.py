"""Seeded chaos soak: randomized fault plans, byte-identity every round.

Each round draws a fault schedule from a seeded RNG — worker kills,
torn socket writes, freezes, reply delays, shard-server crashes at
random batch positions — runs the keyed workload through the process
and socket backends under that schedule, plus a keyed three-query
shared plan through the process backend, and asserts the recovered
output is byte-identical to the interpreted single-threaded run (per
query for the shared plan).  The soak also fails unless the keyed
process entry recovers through the snapshot reseed
(``worker_reseeds >= 1``) in at least one round.  The
machine-readable fault log of every firing is written to
``benchmarks/results/chaos_soak.json`` (the artifact CI uploads), so a
failing seed is replayable verbatim: the same seed composes the same
plans and fires the same faults at the same protocol steps.

Run:  python benchmarks/chaos_soak.py --rounds 5 --seed 0
      REPRO_BENCH_SMOKE=1 python benchmarks/chaos_soak.py   # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from pathlib import Path
from typing import Optional

from repro import (
    FaultPlan,
    ParallelConfig,
    ParallelExecutor,
    Stream,
    Workload,
    build_engines,
    canonical_order,
    estimate_pattern_catalog,
    parse_pattern,
    plan_pattern,
    plan_workload,
    serve_in_thread,
)
from repro.events import Event
from repro.parallel import match_records

RESULTS_DIR = Path(__file__).parent / "results"

KEYED = "PATTERN SEQ(A a, B b, C c) WHERE a.k = b.k AND b.k = c.k WITHIN 1.5"
#: Three queries over one key class: a shared plan the key router shards.
SHARED = (
    "PATTERN SEQ(A a, B b) WHERE a.k = b.k WITHIN 1.5",
    "PATTERN SEQ(B p, C q) WHERE p.k = q.k WITHIN 1.5",
    "PATTERN SEQ(A x, C y) WHERE x.k = y.k WITHIN 1.5",
)


def make_stream(count: int, seed: int) -> Stream:
    rng = random.Random(seed)
    events, t = [], 0.0
    for _ in range(count):
        t += rng.uniform(0.01, 0.09)
        events.append(
            Event(
                rng.choice("ABCD"),
                t,
                {"k": rng.randrange(5), "v": rng.random()},
            )
        )
    return Stream(events)


def compose_plan(seed: int, max_batch: int, server_faults: bool) -> FaultPlan:
    """Draw a randomized fault schedule from the plan's seeded RNG."""
    plan = FaultPlan(seed=seed)
    rng = plan.rng
    kinds = ["kill", "tear", "freeze", "delay"]
    if server_faults:
        kinds.append("server_crash")
    for kind in rng.sample(kinds, k=rng.randint(1, 2)):
        worker = rng.randrange(2)
        batch = rng.randint(1, max_batch)
        if kind == "kill":
            plan.kill_worker(worker, at_batch=batch)
        elif kind == "tear":
            plan.tear_send(worker, at_batch=batch, tear_bytes=rng.randint(0, 40))
        elif kind == "freeze":
            plan.freeze_worker(worker, at_batch=batch)
        elif kind == "delay":
            plan.delay_replies(worker, seconds=rng.uniform(0.05, 0.3), at_batch=batch)
        else:
            plan.crash_server(after_batches=batch)
    return plan


def disorder_round(planned, stream, seed: int) -> dict:
    """One disorder + retraction round: a seeded bounded shuffle plus a
    random sprinkle of retractions and updates through a
    :class:`DeltaEngine`, net-identity asserted against a clean ordered
    run over the corrected stream.  Reports the ``events_processed``
    each correction added: replay work is bounded by the window around
    the corrected event, so no entry may approach the stream length."""
    from repro import (
        DeltaEngine,
        Retraction,
        Update,
        net_fingerprints,
    )

    rng = random.Random(seed)
    events = list(stream)
    max_delay = rng.uniform(0.05, 0.3)
    jittered = [
        (event.timestamp + rng.uniform(0.0, max_delay * 0.95), i)
        for i, event in enumerate(events)
    ]
    order = [i for _, i in sorted(jittered)]  # shuffled[uid] = events[order[uid]]
    shuffled = [events[i] for i in order]
    # Delta uids number the *arrival* order; map them back to original
    # stream positions to build the corrected reference stream.
    retracted = set(rng.sample(range(len(events)), k=3))
    updated = {}
    while len(updated) < 2:
        uid = rng.randrange(len(events))
        if uid not in retracted:
            updated[uid] = {"k": rng.randrange(5), "v": rng.random()}
    retracted_orig = {order[uid] for uid in retracted}
    updated_orig = {order[uid]: payload for uid, payload in updated.items()}
    corrected = [
        Event(e.type, e.timestamp, updated_orig[i]) if i in updated_orig else e
        for i, e in enumerate(events)
        if i not in retracted_orig
    ]
    clean_engine = build_engines(planned)
    clean = net_fingerprints(clean_engine.run(Stream(corrected)))

    build = lambda: build_engines(planned)  # noqa: E731
    delta = DeltaEngine(build, max_delay=max_delay, late_policy="strict")
    started = time.perf_counter()
    out = delta.process_batch(shuffled)
    corrections = [Retraction(uid) for uid in sorted(retracted)]
    corrections += [Update(uid, p) for uid, p in sorted(updated.items())]
    replayed = []
    for correction in corrections:
        before = delta.metrics.events_processed
        out.extend(delta.process(correction))
        replayed.append(delta.metrics.events_processed - before)
    out.extend(delta.finalize())
    metrics = delta.metrics
    return {
        "identical": net_fingerprints(out) == clean,
        "seconds": round(time.perf_counter() - started, 3),
        "max_delay": round(max_delay, 3),
        "correction_events_processed": replayed,
        "counters": {
            "events_reordered": metrics.events_reordered,
            "retractions_processed": metrics.retractions_processed,
            "matches_retracted": metrics.matches_retracted,
        },
    }


def chaos_run(planned, stream, config, settle_at: Optional[int] = None) -> list:
    """Feed the stream in two parts under ``config``'s fault plan.

    ``settle_at`` feeds that many events first and waits for every ack
    of them before the rest: a fault that fires after it finds an acked
    window log, so recovery goes through the snapshot reseed rather than
    a bare batch resend.  Without it, two halves go back to back.
    """
    with ParallelExecutor(planned, config) as executor:
        run = executor.session().stream()
        events = list(stream)
        split = len(events) // 2 if settle_at is None else settle_at
        out = list(run.feed(events[:split]))
        if settle_at is not None:
            out.extend(run.settle())
        out.extend(run.feed(events[split:]))
        out.extend(run.finish())
        return match_records(out), run.metrics


def by_query(records: list) -> dict:
    """Canonical match records fanned out per query name."""
    grouped: dict = {}
    for record in records:
        grouped.setdefault(record[0], []).append(record)
    return grouped


def soak(rounds: int, events: int, seed: int) -> dict:
    stream = make_stream(events, seed)
    pattern = parse_pattern(KEYED)
    catalog = estimate_pattern_catalog(pattern, stream)
    planned = plan_pattern(pattern, catalog, algorithm="GREEDY")
    expected = match_records(
        canonical_order(build_engines(planned).run(stream))
    )
    workload = Workload.of(*SHARED)
    shared = plan_workload(
        workload,
        {
            name: estimate_pattern_catalog(query, stream)
            for name, query in workload.items()
        },
    )
    shared_expected = {
        query: match_records(canonical_order(matches))
        for query, matches in build_engines(shared).run(stream).items()
        if matches
    }
    base = dict(
        workers=2,
        partitioner="key",
        batch_size=16,
        recovery="reseed",
        heartbeat_seconds=0.1,
        liveness_seconds=0.6,
        connect_attempts=3,
        reconnect_attempts=4,
        backoff_base=0.02,
        backoff_max=0.2,
        degradation="local",
    )
    report = {"seed": seed, "rounds": [], "failures": 0}
    for round_id in range(rounds):
        round_seed = seed * 1_000 + round_id
        entry = {"round": round_id, "seed": round_seed, "backends": {}}

        # Process backend: no server faults (no server to crash).  It
        # settles after one batch's worth of events, so each worker's
        # batch 0 is acked before any fault (they fire at batch >= 1)
        # and a kill recovers through the snapshot reseed (checked
        # below).
        plan = compose_plan(round_seed, max_batch=5, server_faults=False)
        started = time.perf_counter()
        records, metrics = chaos_run(
            planned,
            stream,
            ParallelConfig(backend="processes", fault_plan=plan, **base),
            settle_at=base["batch_size"],
        )
        entry["backends"]["processes"] = {
            "identical": records == expected,
            "seconds": round(time.perf_counter() - started, 3),
            "fault_log": plan.log,
            "counters": {
                "worker_crashes": metrics.worker_crashes,
                "worker_reseeds": metrics.worker_reseeds,
                "heartbeats_missed": metrics.heartbeats_missed,
                "send_retries": metrics.send_retries,
            },
        }

        # Shared plan on the process backend, under the same schedule:
        # each worker hosts the whole multi-query DAG for its keys.
        plan = compose_plan(round_seed, max_batch=5, server_faults=False)
        started = time.perf_counter()
        records, metrics = chaos_run(
            shared,
            stream,
            ParallelConfig(backend="processes", fault_plan=plan, **base),
            settle_at=base["batch_size"],
        )
        entry["backends"]["shared"] = {
            "identical": by_query(records) == shared_expected,
            "seconds": round(time.perf_counter() - started, 3),
            "fault_log": plan.log,
            "counters": {
                "worker_crashes": metrics.worker_crashes,
                "worker_reseeds": metrics.worker_reseeds,
                "heartbeats_missed": metrics.heartbeats_missed,
                "send_retries": metrics.send_retries,
            },
        }

        # Socket backend: the full menu, including shard-server death
        # (the degradation circuit breaker absorbs an unrestarted one).
        plan = compose_plan(round_seed + 500, max_batch=5, server_faults=True)
        server = serve_in_thread(fault_plan=plan)
        started = time.perf_counter()
        try:
            records, metrics = chaos_run(
                planned,
                stream,
                ParallelConfig(
                    backend="socket",
                    shards=[server.address],
                    fault_plan=plan,
                    **base,
                ),
            )
        finally:
            server.kill()
        entry["backends"]["socket"] = {
            "identical": records == expected,
            "seconds": round(time.perf_counter() - started, 3),
            "fault_log": plan.log,
            "counters": {
                "worker_crashes": metrics.worker_crashes,
                "socket_reconnects": metrics.socket_reconnects,
                "shards_degraded": metrics.shards_degraded,
                "heartbeats_missed": metrics.heartbeats_missed,
            },
        }
        # Disorder + retraction churn: same byte-identity bar, applied
        # to the watermarked delta path instead of a crashing backend.
        entry["disorder"] = disorder_round(planned, stream, round_seed + 900)

        for backend, result in entry["backends"].items():
            status = "ok" if result["identical"] else "DIVERGED"
            fired = [f["action"] for f in result["fault_log"]]
            print(
                f"round {round_id} {backend:>9}: {status}  "
                f"faults={fired or ['none fired']}  "
                f"{result['seconds']}s",
                flush=True,
            )
            if not result["identical"]:
                report["failures"] += 1
        disorder = entry["disorder"]
        status = "ok" if disorder["identical"] else "DIVERGED"
        print(
            f"round {round_id}  disorder: {status}  "
            f"max_delay={disorder['max_delay']}  "
            f"reordered={disorder['counters']['events_reordered']}  "
            f"retracted={disorder['counters']['matches_retracted']}  "
            f"replayed/correction={disorder['correction_events_processed']}  "
            f"{disorder['seconds']}s",
            flush=True,
        )
        if not disorder["identical"]:
            report["failures"] += 1
        report["rounds"].append(entry)
    # Reseed coverage: identity after a bare batch resend says nothing
    # about the snapshot reseed, so the single-pattern process entry
    # must exercise it in at least one round.
    report["processes_reseeded"] = any(
        entry["backends"]["processes"]["counters"]["worker_reseeds"] >= 1
        for entry in report["rounds"]
    )
    return report


def main(argv=None) -> int:
    smoke = os.environ.get("REPRO_BENCH_SMOKE") == "1"
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=1 if smoke else 5)
    parser.add_argument("--events", type=int, default=300 if smoke else 600)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    report = soak(args.rounds, args.events, args.seed)
    RESULTS_DIR.mkdir(exist_ok=True)
    artifact = RESULTS_DIR / "chaos_soak.json"
    artifact.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nfault log artifact: {artifact}")
    if report["failures"]:
        print(f"{report['failures']} round(s) DIVERGED", file=sys.stderr)
        return 1
    if not report["processes_reseeded"]:
        print(
            "the processes entry never reached the snapshot reseed "
            "(worker_reseeds = 0 in every round)",
            file=sys.stderr,
        )
        return 1
    print(f"all {args.rounds} round(s) byte-identical after recovery")
    return 0


if __name__ == "__main__":
    sys.exit(main())
