"""Figure 27 (extension): out-of-order ingestion and retraction churn.

Not a figure of the source paper — this sweep evaluates
:mod:`repro.streams.disorder`: the watermarked reorder buffer and the
retraction/update delta machinery wrapped around the compiled NFA
runtime.

Four modes:

* **disorder-sweep** — one keyed workload, shuffled with a seeded
  bounded-displacement jitter, fed through a :class:`DeltaEngine` at
  increasing ``max_delay`` bounds.  Reports sustained events/sec, the
  watermark-lag histogram (p50/p95/max of how far behind the frontier
  arrivals land), the reorder counter, and the throughput ratio
  against the plain ordered engine run (``speedup_vs_plain`` — the
  price of the buffer, machine-independent).
* **retraction-churn** — the ordered workload plus a seeded sprinkle
  of ``Retraction``/``Update`` corrections; reports corrected-stream
  throughput and the retraction counters.
* **adversarial-churn** — every tenth item is a correction of a recent
  event, interleaved with the arrivals; reports items/sec, the ratio
  against the plain run, and the events each correction replayed.
* **correction-cost** — the same number of ``Update`` corrections aimed
  at recent targets (inside the live window) and at old ones (the first
  third of the stream): per-correction wall time and replayed events.
  Corrections re-derive a window-bounded slice of the log, so neither
  row may depend on the stream's length and the old row is at most the
  full ``[t − 3W, t + 3W]`` slice.

Every configuration ends in the identity assertion: the net match
fingerprints of the disordered / corrected run must equal a clean
ordered run over the corrected stream — disorder tolerance is an
ingestion strategy, never a semantics change.

Set ``REPRO_BENCH_SMOKE=1`` for a seconds-scale smoke run (CI).
Writes ``fig27_disorder.txt`` and the machine-readable
``BENCH_fig27.json`` for the CI perf-trajectory artifact.
"""

from __future__ import annotations

import os
import random
import time

from repro import (
    DeltaEngine,
    Retraction,
    Update,
    build_engines,
    estimate_pattern_catalog,
    net_fingerprints,
    parse_pattern,
    plan_pattern,
)
from repro.events import Event, Stream

from _common import BenchEnv  # noqa: F401 — the env fixture's type

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
PATTERN = "PATTERN SEQ(A a, B b, C c) WHERE a.k = b.k AND b.k = c.k WITHIN {w}"

if SMOKE:
    EVENTS, KEYS, WINDOW = 800, 8, 1.0
    RETRACTIONS, UPDATES, COST_UPDATES = 4, 2, 6
else:
    EVENTS, KEYS, WINDOW = 6000, 50, 2.0
    RETRACTIONS, UPDATES, COST_UPDATES = 25, 10, 30

#: Disorder bounds swept, in stream-time units (mean event gap 0.05).
DELAYS = (0.0, 0.05, 0.15, 0.3)


def _events(seed: int = 27) -> list:
    rng = random.Random(seed)
    events, t = [], 0.0
    for _ in range(EVENTS):
        t += rng.uniform(0.01, 0.09)
        events.append(
            Event(
                rng.choice("ABC"),
                t,
                {"k": rng.randrange(KEYS), "v": rng.random()},
            )
        )
    return events


def _plan(events: list):
    pattern = parse_pattern(PATTERN.format(w=WINDOW))
    catalog = estimate_pattern_catalog(pattern, Stream(list(events)))
    return plan_pattern(pattern, catalog, algorithm="GREEDY")


def _shuffle_within(events: list, rng: random.Random, max_delay: float) -> list:
    jittered = [
        (event.timestamp + rng.uniform(0.0, max_delay * 0.95), i)
        for i, event in enumerate(events)
    ]
    return [events[i] for _, i in sorted(jittered)]


def _clean_fingerprints(build, events: list) -> list:
    engine = build()
    out = []
    for i, event in enumerate(events):
        out.extend(engine.process(event.with_seq(i)))
    out.extend(engine.finalize())
    return net_fingerprints(out)


def _payload(rng: random.Random) -> dict:
    return {"k": rng.randrange(KEYS), "v": rng.random()}


def _corrected(events: list, retracted=(), updated=None) -> list:
    """The stream the corrections amount to (uids = positions)."""
    updated = updated or {}
    return [
        Event(e.type, e.timestamp, updated[i]) if i in updated else e
        for i, e in enumerate(events)
        if i not in retracted
    ]


def _adversarial_churn(build, events: list) -> dict:
    """Arrivals in order, every tenth item a correction of one of the
    last 40 events (alternately a retraction and an update)."""
    rng = random.Random(273)
    items, retracted, updated = [], set(), {}
    for uid, event in enumerate(events):
        items.append(event)
        if uid % 9 != 8:
            continue
        target = rng.randrange(max(0, uid - 40), uid + 1)
        while target in retracted:
            target = rng.randrange(max(0, uid - 40), uid + 1)
        if (len(items) - uid) % 2:  # the correction count so far, plus one
            retracted.add(target)
            updated.pop(target, None)
            items.append(Retraction(target))
        else:
            updated[target] = _payload(rng)
            items.append(Update(target, updated[target]))
    corrections = len(items) - len(events)
    delta = DeltaEngine(build)
    started = time.perf_counter()
    delta.run(items)
    wall = time.perf_counter() - started
    assert delta.net_fingerprints() == _clean_fingerprints(
        build, _corrected(events, retracted, updated)
    ), "adversarial churn: net matches diverge from the corrected-stream rerun"
    metrics = delta.metrics
    return {
        "mode": "adversarial-churn",
        "label": f"{corrections} corrections in {len(items)} items",
        "events": len(events),
        "window": WINDOW,
        "key_cardinality": KEYS,
        "corrections": corrections,
        "events_per_s": len(items) / wall if wall > 0 else 0.0,
        "wall_s": wall,
        "replayed_events_per_correction": (
            (metrics.events_processed - len(events)) / corrections
        ),
        "retractions_processed": metrics.retractions_processed,
        "matches_retracted": metrics.matches_retracted,
    }


def _correction_cost(build, events: list, label: str, targets: list) -> dict:
    """``Update`` each target after the whole stream has arrived."""
    rng = random.Random(274)
    updated = {uid: _payload(rng) for uid in targets}
    delta = DeltaEngine(build)
    delta.process_batch(events)
    fed = delta.metrics.events_processed
    walls = []
    for uid, payload in updated.items():
        started = time.perf_counter()
        delta.process(Update(uid, payload))
        walls.append(time.perf_counter() - started)
    replayed = delta.metrics.events_processed - fed
    delta.finalize()
    assert delta.net_fingerprints() == _clean_fingerprints(
        build, _corrected(events, updated=updated)
    ), f"correction cost ({label}): net matches diverge from the corrected-stream rerun"
    return {
        "mode": "correction-cost",
        "label": label,
        "events": len(events),
        "window": WINDOW,
        "key_cardinality": KEYS,
        "corrections": len(targets),
        "correction_ms_p50": sorted(walls)[len(walls) // 2] * 1e3,
        "replayed_events_per_correction": replayed / len(targets),
    }


def test_fig27_disorder(env):
    events = _events()
    planned = _plan(events)
    build = lambda: build_engines(planned)  # noqa: E731

    # The semantics + throughput baseline: plain ordered engine run.
    started = time.perf_counter()
    clean = _clean_fingerprints(build, events)
    plain_wall = time.perf_counter() - started
    plain_eps = len(events) / plain_wall if plain_wall > 0 else 0.0

    rows, runs = [], []
    for max_delay in DELAYS:
        shuffled = _shuffle_within(events, random.Random(271), max_delay)
        delta = DeltaEngine(build, max_delay=max_delay, late_policy="strict")
        started = time.perf_counter()
        delta.run(shuffled)
        wall = time.perf_counter() - started
        assert delta.net_fingerprints() == clean, (
            f"max_delay={max_delay}: disordered net matches diverge "
            "from the ordered run"
        )
        metrics = delta.metrics
        eps = len(events) / wall if wall > 0 else 0.0
        lag = metrics.watermark_lag
        rows.append(
            [
                f"{max_delay:g}",
                len(clean),
                f"{eps:,.0f}",
                f"{eps / plain_eps:.2f}" if plain_eps else "-",
                metrics.events_reordered,
                f"{lag.p95:.3f}",
                f"{lag.max:.3f}",
            ]
        )
        runs.append(
            {
                "mode": "disorder-sweep",
                "label": f"max_delay={max_delay:g}",
                "events": len(events),
                "window": WINDOW,
                "key_cardinality": KEYS,
                "matches": len(clean),
                "events_per_s": eps,
                "wall_s": wall,
                "speedup_vs_plain": eps / plain_eps if plain_eps else 1.0,
                "events_reordered": metrics.events_reordered,
                "watermark_lag_p50_s": lag.p50,
                "watermark_lag_p95_s": lag.p95,
                "watermark_lag_max_s": lag.max,
            }
        )

    # Retraction/update churn on the ordered stream: corrections drawn
    # from a seeded RNG, identity asserted against a clean run over the
    # corrected stream.
    rng = random.Random(272)
    retracted = set()
    while len(retracted) < RETRACTIONS:
        retracted.add(rng.randrange(len(events)))
    updated = {}
    while len(updated) < UPDATES:
        uid = rng.randrange(len(events))
        if uid in retracted or uid in updated:
            continue
        updated[uid] = _payload(rng)
    corrected_clean = _clean_fingerprints(
        build, _corrected(events, retracted, updated)
    )

    delta = DeltaEngine(build)
    started = time.perf_counter()
    out = delta.process_batch(events)
    for uid in sorted(retracted):
        out.extend(delta.process(Retraction(uid)))
    for uid, payload in sorted(updated.items()):
        out.extend(delta.process(Update(uid, payload)))
    out.extend(delta.finalize())
    wall = time.perf_counter() - started
    assert net_fingerprints(out) == corrected_clean, (
        "retraction churn: incremental net matches diverge from the "
        "corrected-stream rerun"
    )
    metrics = delta.metrics
    churn_eps = len(events) / wall if wall > 0 else 0.0
    runs.append(
        {
            "mode": "retraction-churn",
            "label": f"{RETRACTIONS} retractions + {UPDATES} updates",
            "events": len(events),
            "window": WINDOW,
            "key_cardinality": KEYS,
            "matches": len(corrected_clean),
            "events_per_s": churn_eps,
            "wall_s": wall,
            "retractions_processed": metrics.retractions_processed,
            "matches_retracted": metrics.matches_retracted,
        }
    )

    adversarial = _adversarial_churn(build, events)
    adversarial["speedup_vs_plain"] = (
        adversarial["events_per_s"] / plain_eps if plain_eps else 1.0
    )
    runs.append(adversarial)

    # Same count of Updates on recent and on old targets: the cost of a
    # correction is set by the window around it, not by its age or by
    # how much stream there is.
    in_slice = int(6 * WINDOW / ((events[-1].timestamp - events[0].timestamp) / EVENTS))
    rng = random.Random(275)
    recent = rng.sample(range(EVENTS - in_slice // 6, EVENTS), COST_UPDATES)
    old = rng.sample(range(in_slice, EVENTS // 3), COST_UPDATES)
    cost_rows = [
        _correction_cost(build, events, "recent-target", recent),
        _correction_cost(build, events, "old-target", old),
    ]
    for row in cost_rows:
        # Slack over the mean slice population: gaps are random.
        assert row["replayed_events_per_correction"] <= 1.25 * in_slice, row
    runs.extend(cost_rows)

    header = (
        f"fig27 (extension): disorder tolerance "
        f"({EVENTS} events, {KEYS} keys, window {WINDOW:g}, "
        f"{'smoke' if SMOKE else 'full'})\n"
        f"plain ordered run: {plain_eps:,.0f} events/s\n\n"
        f"{'max_delay':>9} | {'matches':>7} | {'events/s':>10} | "
        f"{'vs plain':>8} | {'reordered':>9} | {'lag p95':>8} | "
        f"{'lag max':>8}\n" + "-" * 72
    )
    lines = [header]
    for row in rows:
        lines.append(
            f"{row[0]:>9} | {row[1]:>7} | {row[2]:>10} | {row[3]:>8} | "
            f"{row[4]:>9} | {row[5]:>8} | {row[6]:>8}"
        )
    lines.append(
        f"\nretraction churn: {RETRACTIONS} retractions + {UPDATES} "
        f"updates over {EVENTS} events -> {churn_eps:,.0f} events/s, "
        f"{metrics.matches_retracted} match retractions emitted"
    )
    lines.append(
        f"adversarial churn: {adversarial['label']} -> "
        f"{adversarial['events_per_s']:,.0f} items/s "
        f"({adversarial['speedup_vs_plain']:.2f}x plain), "
        f"{adversarial['replayed_events_per_correction']:.0f} events "
        "replayed per correction"
    )
    for row in cost_rows:
        lines.append(
            f"correction cost, {row['label']}: "
            f"{row['correction_ms_p50']:.2f} ms p50, "
            f"{row['replayed_events_per_correction']:.0f} events replayed "
            f"per Update (full slice ~{in_slice})"
        )
    env.write("fig27_disorder.txt", "\n".join(lines))
    env.write_json(
        "BENCH_fig27.json",
        {"smoke": SMOKE, "cpus": os.cpu_count(), "runs": runs},
    )
