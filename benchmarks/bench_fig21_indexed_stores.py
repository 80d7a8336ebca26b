"""Figure 21 (extension): indexed vs. linear partial-match stores.

Not a figure of the source paper — this sweep evaluates the
:mod:`repro.engines.stores` subsystem: hash equi-join probes plus
watermark-gated window expiry, against the seed's linear scans
(``indexed=False``), on both runtimes (tree and lazy NFA).

Two workload families over the same synthetic stream:

* **equality-heavy** — a three-way equi-join chain ``a.k = b.k = c.k``;
  the index replaces each O(store) sibling scan with one hash bucket,
  so throughput should grow roughly with the key cardinality;
* **pure theta** — ``a.v < b.v < c.v`` has no equality cross-predicates,
  so no hash index is built; this guards the "no regression" criterion
  (the bisect expiry and trigger bounds must not cost anything
  noticeable).  Since PR 5 the indexed mode additionally builds a
  sorted-run range index here, so the row may show a genuine speedup.

Both modes run with ``compiled=False``: this figure isolates the store
access-path win at the interpreted evaluation layer it was calibrated
against; the combined compiled+indexed measurement is fig24
(``bench_fig24_compiled_hot_path.py``).

Match sequences of the two modes are asserted identical for every run —
the store is an access path, never a semantics change.  At default
scale the table must show >= 5x indexed throughput on the equality
workload and <= 5% slowdown on theta (asserted; smoke runs only assert
equivalence, timings at tiny scale are noise).

Set ``REPRO_BENCH_SMOKE=1`` for a seconds-scale smoke run (CI).
Writes ``fig21_indexed_stores.txt`` and the machine-readable
``BENCH_fig21.json`` for the CI perf-trajectory artifact.
"""

from __future__ import annotations

import os
import random
import time

from repro.engines import NFAEngine, build_runtime
from repro.events import Event, Stream
from repro.patterns import decompose, parse_pattern
from repro.plans import OrderPlan, TreePlan

from _common import BenchEnv

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
#: Mean inter-arrival gap (seconds); windows below are in the same unit.
GAP = 0.02
TIMING_ROUNDS = 1 if SMOKE else 3

EQUALITY = "PATTERN SEQ(A a, B b, C c) WHERE a.k = b.k AND b.k = c.k WITHIN {w}"
THETA = "PATTERN SEQ(A a, B b, C c) WHERE a.v < b.v AND b.v < c.v WITHIN {w}"

#: (family, events, key cardinality, window).  The equality sweep covers
#: selectivity (1/K) x window backlog; the theta family has no equality
#: cross-predicates (so no index is built) and guards the no-regression
#: criterion — kept at one modest config because its low-selectivity
#: joins emit tens of thousands of matches, which dominates both modes
#: equally and tells us nothing more at larger scale.
if SMOKE:
    CONFIGS = (
        ("equality", 400, 8, 2.0),
        ("theta", 300, 8, 1.0),
    )
else:
    CONFIGS = (
        ("equality", 4000, 20, 2.0),
        ("equality", 4000, 50, 2.0),
        ("equality", 4000, 20, 6.0),
        ("equality", 4000, 50, 6.0),
        ("theta", 1500, 25, 2.0),
    )


def _stream(events_count: int, keys: int, seed: int = 11) -> Stream:
    """A/B/C events with an equality key ``k`` and a theta payload ``v``."""
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


def _engine(text: str, runtime: str, indexed: bool):
    d = decompose(parse_pattern(text))
    order = OrderPlan(d.positive_variables)
    if runtime == "tree":
        return build_runtime(
            d, TreePlan.left_deep(order), indexed=indexed, compiled=False
        )
    return NFAEngine(d, order, indexed=indexed, compiled=False)


def _run_pair(text: str, stream: Stream, runtime: str):
    """Best-of-N walls for linear and indexed, rounds interleaved so
    machine drift hits both modes alike; plus match keys and metrics."""
    best = {False: float("inf"), True: float("inf")}
    keys, metrics = {}, {}
    for _ in range(TIMING_ROUNDS):
        for indexed in (False, True):
            engine = _engine(text, runtime, indexed)
            started = time.perf_counter()
            matches = engine.run(stream)
            best[indexed] = min(best[indexed], time.perf_counter() - started)
            keys[indexed] = [m.key() for m in matches]
            metrics[indexed] = engine.metrics
    return best, keys, metrics


def test_fig21_indexed_stores(benchmark, env: BenchEnv):
    rows, records = [], []
    for family, events_count, keys, window in CONFIGS:
        stream = _stream(events_count, keys)
        template = EQUALITY if family == "equality" else THETA
        text = template.format(w=window)
        for runtime in ("tree", "nfa"):
            best, keys_by_mode, metrics = _run_pair(text, stream, runtime)
            lin_wall, lin_keys = best[False], keys_by_mode[False]
            idx_wall, idx_keys = best[True], keys_by_mode[True]
            idx_metrics = metrics[True]
            # Acceptance: identical match sequences, always.
            assert idx_keys == lin_keys, (
                f"{family}/{runtime} diverges at K={keys} W={window}"
            )
            speedup = lin_wall / idx_wall if idx_wall > 0 else 1.0
            probes = idx_metrics.index_probes
            hit_rate = idx_metrics.index_hits / probes if probes else 0.0
            rows.append(
                [
                    family,
                    runtime,
                    keys,
                    window,
                    len(idx_keys),
                    f"{events_count / lin_wall:,.0f}",
                    f"{events_count / idx_wall:,.0f}",
                    f"{speedup:.1f}x",
                    f"{hit_rate:.0%}",
                    idx_metrics.pm_expired,
                ]
            )
            records.append(
                {
                    "family": family,
                    "runtime": runtime,
                    "key_cardinality": keys,
                    "window": window,
                    "events": events_count,
                    "matches": len(idx_keys),
                    "linear_wall_s": lin_wall,
                    "indexed_wall_s": idx_wall,
                    "speedup": speedup,
                    "index_probes": probes,
                    "index_hit_rate": hit_rate,
                    "pm_expired": idx_metrics.pm_expired,
                }
            )

    env.write(
        "fig21_indexed_stores.txt",
        _format(rows),
    )
    env.write_json("BENCH_fig21.json", {"smoke": SMOKE, "runs": records})

    if not SMOKE:
        # Acceptance: >= 5x on every equality-heavy configuration, and
        # no >5% slowdown where no index applies (best-of-3 timings).
        for record in records:
            if record["family"] == "equality":
                assert record["speedup"] >= 5.0, record
            else:
                assert record["speedup"] >= 0.95, record

    family, events_count, keys, window = CONFIGS[-2 if not SMOKE else 0]
    stream = _stream(events_count, keys)
    text = EQUALITY.format(w=window)
    benchmark.pedantic(
        lambda: _engine(text, "tree", True).run(stream),
        rounds=1,
        iterations=1,
    )


def _format(rows) -> str:
    from repro.bench import format_table

    return format_table(
        (
            "workload",
            "runtime",
            "K",
            "window",
            "matches",
            "ev/s linear",
            "ev/s indexed",
            "speedup",
            "probe hits",
            "pm expired",
        ),
        rows,
        title=(
            "Figure 21 — indexed vs. linear partial-match stores "
            "(identical match sequences asserted)"
        ),
    )
