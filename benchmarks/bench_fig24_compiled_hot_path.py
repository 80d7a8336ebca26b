"""Figure 24 (extension): compiled kernels + range-indexed theta probes.

Not a figure of the source paper — this sweep evaluates the PR-5 hot
path: :mod:`repro.patterns.compile` predicate kernels (no per-candidate
bindings merge, no AST walk) and the sorted-run theta range probes of
:mod:`repro.engines.stores`, against the interpreted/linear seed
evaluation, on both single-query runtimes (tree and lazy NFA).

Three workload families over synthetic streams:

* **theta-heavy** — an order-based join chain ``a.v < b.v AND c.v <
  b.v`` with skewed per-type value distributions (low selectivity); the
  range run turns each sibling scan into a value bisect and the kernel
  removes the per-candidate dict merge;
* **equality-heavy** — the fig21 equi-join chain ``a.k = b.k = c.k``:
  hash buckets already prune candidates, so this family isolates the
  kernel win on bucket survivors;
* **mixed** — ``a.k = b.k AND a.v < b.v AND b.k = c.k``: hash bucket
  first, value bisect within (the composed access path).

Five modes per configuration: ``interpreted+linear`` (the baseline),
``interpreted+indexed``, ``compiled+linear``, ``compiled+indexed``
(PR-5 closure kernels) and ``codegen`` (exec-generated kernel sources —
the default engine configuration).  Match sequences of all modes
are asserted identical for every run — kernels and range runs are
access/evaluation paths, never a semantics change.  At default scale
the theta-heavy rows must reach >= 2x combined speedup (asserted; smoke
runs only assert equivalence, timings at tiny scale are noise).

Set ``REPRO_BENCH_SMOKE=1`` for a seconds-scale smoke run (CI).
Writes ``fig24_compiled_hot_path.txt`` and the machine-readable
``BENCH_fig24.json`` for the CI perf-trajectory artifact.
"""

from __future__ import annotations

import os
import random
import time

import pytest

from repro.engines import NFAEngine, build_runtime
from repro.events import Event, Stream
from repro.patterns import decompose, parse_pattern
from repro.plans import OrderPlan, TreePlan

from _common import BenchEnv

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
#: Mean inter-arrival gap (seconds); windows below are in the same unit.
GAP = 0.02
TIMING_ROUNDS = 1 if SMOKE else 3

THETA = "PATTERN SEQ(A a, B b, C c) WHERE a.v < b.v AND c.v < b.v WITHIN {w}"
EQUALITY = "PATTERN SEQ(A a, B b, C c) WHERE a.k = b.k AND b.k = c.k WITHIN {w}"
MIXED = (
    "PATTERN SEQ(A a, B b, C c) "
    "WHERE a.k = b.k AND a.v < b.v AND b.k = c.k WITHIN {w}"
)
TEMPLATES = {"theta": THETA, "equality": EQUALITY, "mixed": MIXED}

#: (indexed, compiled, codegen) per reported mode, baseline first.
#: ``compiled+indexed`` pins ``codegen=False`` — the PR-5 closure
#: kernels — so the ``codegen`` row reports the exec-generated source
#: win against it.
MODES = (
    ("interp+linear", False, False, False),
    ("interp+indexed", True, False, False),
    ("compiled+linear", False, True, False),
    ("compiled+indexed", True, True, False),
    ("codegen", True, True, True),
)

#: (family, events, key cardinality, window).
if SMOKE:
    CONFIGS = (
        ("theta", 400, 8, 1.0),
        ("equality", 400, 8, 2.0),
        ("mixed", 400, 8, 2.0),
    )
else:
    CONFIGS = (
        ("theta", 3000, 20, 2.0),
        ("theta", 3000, 20, 6.0),
        ("equality", 4000, 20, 2.0),
        ("equality", 4000, 50, 6.0),
        ("mixed", 4000, 20, 4.0),
    )


def _stream(events_count: int, keys: int, seed: int = 13) -> Stream:
    """A/B/C events with an equality key ``k`` and a skewed theta
    payload ``v``: A and C values sit in the top 5% of the unit
    interval, B spans all of it, so ``a.v < b.v`` / ``c.v < b.v`` hold
    rarely (selective theta — the sweep measures join pruning, not
    match materialization)."""
    rng = random.Random(seed)
    events, t = [], 0.0
    for _ in range(events_count):
        t += rng.expovariate(1.0 / GAP)
        name = rng.choice("ABC")
        v = rng.random() if name == "B" else 0.95 + 0.05 * rng.random()
        events.append(
            Event(name, t, {"k": rng.randrange(keys), "v": v})
        )
    return Stream(events)


def _engine(
    text: str, runtime: str, indexed: bool, compiled: bool,
    codegen: bool = True,
):
    d = decompose(parse_pattern(text))
    order = OrderPlan(d.positive_variables)
    if runtime == "tree":
        return build_runtime(
            d, TreePlan.left_deep(order), indexed=indexed,
            compiled=compiled, codegen=codegen,
        )
    return NFAEngine(
        d, order, indexed=indexed, compiled=compiled, codegen=codegen
    )


def _run_modes(text: str, stream: Stream, runtime: str):
    """Best-of-N walls per mode, rounds interleaved so machine drift
    hits every mode alike; plus match keys and metrics per mode."""
    best = {name: float("inf") for name, *_ in MODES}
    keys, metrics = {}, {}
    for _ in range(TIMING_ROUNDS):
        for name, indexed, compiled, codegen in MODES:
            engine = _engine(text, runtime, indexed, compiled, codegen)
            started = time.perf_counter()
            matches = engine.run(stream)
            best[name] = min(best[name], time.perf_counter() - started)
            keys[name] = [m.key() for m in matches]
            metrics[name] = engine.metrics
    return best, keys, metrics


# Five timed modes x three rounds outgrow the repo-wide 120s cap at
# full scale; smoke runs finish in seconds either way.
@pytest.mark.timeout(600)
def test_fig24_compiled_hot_path(benchmark, env: BenchEnv):
    rows, records = [], []
    for family, events_count, keys_card, window in CONFIGS:
        stream = _stream(events_count, keys_card)
        text = TEMPLATES[family].format(w=window)
        for runtime in ("tree", "nfa"):
            best, keys_by_mode, metrics = _run_modes(text, stream, runtime)
            base_keys = keys_by_mode["interp+linear"]
            # Acceptance: identical match sequences across all modes.
            for name, *_ in MODES:
                assert keys_by_mode[name] == base_keys, (
                    f"{family}/{runtime}/{name} diverges at "
                    f"K={keys_card} W={window}"
                )
            base_wall = best["interp+linear"]
            full = metrics["compiled+indexed"]
            speedup = lambda mode: (  # noqa: E731
                base_wall / best[mode] if best[mode] > 0 else 1.0
            )
            rows.append(
                [
                    family,
                    runtime,
                    keys_card,
                    window,
                    len(base_keys),
                    f"{events_count / base_wall:,.0f}",
                    f"{events_count / best['compiled+indexed']:,.0f}",
                    f"{speedup('interp+indexed'):.1f}x",
                    f"{speedup('compiled+linear'):.1f}x",
                    f"{speedup('compiled+indexed'):.1f}x",
                    f"{speedup('codegen'):.1f}x",
                    full.range_probes,
                    full.predicate_kernel_calls,
                ]
            )
            records.append(
                {
                    "family": family,
                    "runtime": runtime,
                    "key_cardinality": keys_card,
                    "window": window,
                    "events": events_count,
                    "matches": len(base_keys),
                    "interp_linear_wall_s": base_wall,
                    "interp_indexed_wall_s": best["interp+indexed"],
                    "compiled_linear_wall_s": best["compiled+linear"],
                    "compiled_indexed_wall_s": best["compiled+indexed"],
                    "speedup_indexed": speedup("interp+indexed"),
                    "speedup_compiled": speedup("compiled+linear"),
                    "speedup_full": speedup("compiled+indexed"),
                    "codegen_wall_s": best["codegen"],
                    "speedup_codegen": speedup("codegen"),
                    "range_probes": full.range_probes,
                    "range_hits": full.range_hits,
                    "predicate_kernel_calls": full.predicate_kernel_calls,
                }
            )

    env.write("fig24_compiled_hot_path.txt", _format(rows))
    env.write_json("BENCH_fig24.json", {"smoke": SMOKE, "runs": records})

    if not SMOKE:
        for record in records:
            # Acceptance: >= 2x combined on every theta-heavy row, and
            # no mode regresses the baseline by more than 5% anywhere.
            if record["family"] == "theta":
                assert record["speedup_full"] >= 2.0, record
            assert record["speedup_full"] >= 0.95, record
            assert record["speedup_compiled"] >= 0.95, record
            # Codegen must keep the integer-multiple speedup over the
            # interpreted baseline on every row, and stay within noise
            # of the PR-5 closure-kernel row (25% relative floor —
            # several configs have ~100ms walls, so a ratio-of-ratios
            # swings well past 15% run to run).
            assert record["speedup_codegen"] >= 2.0, record
            assert (
                record["speedup_codegen"] >= 0.75 * record["speedup_full"]
            ), record

    family, events_count, keys_card, window = CONFIGS[0]
    stream = _stream(events_count, keys_card)
    text = TEMPLATES[family].format(w=window)
    benchmark.pedantic(
        lambda: _engine(text, "tree", True, True).run(stream),
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
            "ev/s interp",
            "ev/s full",
            "idx only",
            "kern only",
            "combined",
            "codegen",
            "range probes",
            "kernel calls",
        ),
        rows,
        title=(
            "Figure 24 — compiled predicate kernels + range-indexed "
            "theta probes vs. the interpreted/linear hot path "
            "(identical match sequences asserted)"
        ),
    )
