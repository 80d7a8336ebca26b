"""Figure 16: measured performance vs model-predicted plan cost.

The paper executes 60 order-based and 60 tree-based plans and plots the
measured throughput (16a) and memory (16b) against the cost the model
assigned — finding throughput roughly inverse in cost and memory
roughly linear.  We regenerate both scatter series over the sampled
plan space of several patterns and assert the rank correlations:
negative for throughput, positive for memory.
"""

from __future__ import annotations

from repro.bench import format_table
from repro.cost import ThroughputCostModel
from repro.engines import NFAEngine, build_runtime
from repro.patterns import decompose
from repro.plans import enumerate_bushy_trees, enumerate_orders
from repro.stats import PatternStatistics

from _common import mean_by  # noqa: F401  (shared import surface)

MODEL = ThroughputCostModel()


def _spearman(xs, ys):
    """Spearman rank correlation (no scipy needed at bench scale)."""

    def ranks(values):
        order = sorted(range(len(values)), key=lambda i: values[i])
        result = [0.0] * len(values)
        for rank, index in enumerate(order):
            result[index] = float(rank)
        return result

    rx, ry = ranks(xs), ranks(ys)
    n = len(xs)
    mean = (n - 1) / 2.0
    cov = sum((a - mean) * (b - mean) for a, b in zip(rx, ry))
    var = sum((a - mean) ** 2 for a in rx)
    return cov / var if var else 0.0


def _collect(env, kind):
    """(cost, throughput, peak_memory) for sampled plans of both kinds."""
    rows = []
    for size in (3, 4):
        pattern = env.patterns("sequence", sizes=(size,))[0]
        catalog = env.catalog(pattern)
        d = decompose(pattern)
        stats = PatternStatistics.for_planning(d, catalog)
        if kind == "order":
            plans = list(enumerate_orders(d.positive_variables))
            costs = [MODEL.order_cost(p.variables, stats) for p in plans]
        else:
            plans = list(enumerate_bushy_trees(d.positive_variables))
            costs = [MODEL.tree_cost(p, stats) for p in plans]
        for plan, cost in zip(plans, costs):
            if kind == "order":
                engine = NFAEngine(d, plan)
            else:
                engine = build_runtime(d, plan)
            import time

            started = time.perf_counter()
            engine.run(env.stream)
            elapsed = time.perf_counter() - started
            rows.append(
                (
                    cost,
                    len(env.stream) / elapsed,
                    engine.metrics.peak_memory_units,
                )
            )
    return rows


def _report(env, kind, rows):
    table = format_table(
        ("model cost", "throughput (ev/s)", "peak memory"),
        [(round(c, 1), f"{t:,.0f}", m) for c, t, m in sorted(rows)],
        title=f"Figure 16 — {kind}-based plans: measured vs predicted cost",
    )
    env.write(f"fig16_cost_correlation_{kind}.txt", table)


def test_fig16_order_plans(benchmark, env):
    rows = _collect(env, "order")
    _report(env, "order", rows)
    costs = [r[0] for r in rows]
    throughputs = [r[1] for r in rows]
    memory = [float(r[2]) for r in rows]
    assert _spearman(costs, throughputs) < -0.4
    assert _spearman(costs, memory) > 0.4

    pattern = env.patterns("sequence", sizes=(3,))[0]
    benchmark.pedantic(
        lambda: env.run(pattern, "TRIVIAL", "sequence"),
        rounds=1,
        iterations=1,
    )


def test_fig16_tree_plans(benchmark, env):
    rows = _collect(env, "tree")
    _report(env, "tree", rows)
    costs = [r[0] for r in rows]
    memory = [float(r[2]) for r in rows]
    assert _spearman(costs, memory) > 0.4

    pattern = env.patterns("sequence", sizes=(3,))[0]
    benchmark.pedantic(
        lambda: env.run(pattern, "ZSTREAM", "sequence"),
        rounds=1,
        iterations=1,
    )
