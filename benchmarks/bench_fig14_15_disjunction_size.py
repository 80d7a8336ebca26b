"""Figures 14/15: throughput and memory vs *disjunction* pattern size.

Composite patterns: an OR of three sequences (Section 5.4); reported
size is the size of each disjunct.  Each disjunct is planned
independently, and the plans run as one plan DAG with a root per
disjunct, sharing equivalent sub-joins.  Costs add across disjuncts, so
the per-disjunct plan quality compounds — the JQPG-adapted methods keep
their edge, and the memory of the TRIVIAL baseline grows fastest with
size.
"""

from __future__ import annotations

from repro.bench import format_series

from _common import ALL_ALGS, SIZES, mean_by

CATEGORY = "disjunction"


def _series(results, metric):
    means = mean_by(results, metric, "algorithm", "pattern_size")
    return {
        algorithm: {size: means.get((algorithm, size)) for size in SIZES}
        for algorithm in ALL_ALGS
    }


def test_fig14_throughput_by_size(benchmark, env):
    results = env.sweep("by_type", (CATEGORY,), SIZES, ALL_ALGS)
    env.write(
        "fig14_disjunction_throughput_by_size.txt",
        format_series(
            "Figure 14 — disjunction patterns: throughput (events/s) by size",
            _series(results, "throughput"),
            SIZES,
        ),
    )
    # Every disjunct contributes a plan; union semantics must hold
    # regardless of the algorithm (same match counts).
    matches = mean_by(results, "matches", "algorithm", "pattern_size")
    for size in SIZES:
        values = {matches[(a, size)] for a in ALL_ALGS}
        assert len(values) == 1

    pattern = env.patterns(CATEGORY, sizes=(max(SIZES),))[0]
    benchmark.pedantic(
        lambda: env.run(pattern, "GREEDY", CATEGORY), rounds=1, iterations=1
    )


def test_fig15_memory_by_size(benchmark, env):
    results = env.sweep("by_type", (CATEGORY,), SIZES, ALL_ALGS)
    env.write(
        "fig15_disjunction_memory_by_size.txt",
        format_series(
            "Figure 15 — disjunction patterns: peak memory units by size",
            _series(results, "peak_memory_units"),
            SIZES,
        ),
    )
    memory = mean_by(results, "peak_memory_units", "algorithm")
    assert memory[("DP-LD",)] <= memory[("TRIVIAL",)] * 1.0
    assert memory[("GREEDY",)] <= memory[("TRIVIAL",)] * 1.0

    pattern = env.patterns(CATEGORY, sizes=(max(SIZES),))[0]
    benchmark.pedantic(
        lambda: env.run(pattern, "DP-LD", CATEGORY), rounds=1, iterations=1
    )
