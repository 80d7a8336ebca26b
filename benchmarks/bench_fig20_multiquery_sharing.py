"""Figure 20 (extension): multi-query sharing vs. independent execution.

Not a figure of the source paper — this sweep evaluates the multi-query
subsystem (:mod:`repro.multiquery`) motivated by Dossinger & Michel,
"Optimizing Multiple Multi-Way Stream Joins" (arXiv:2104.07742): N
overlapping queries over one stock stream, executed (a) independently,
one engine per query, and (b) jointly through the shared-plan DAG of
``run_workload``.

Expected shape: per-query match sets are identical by construction (the
equivalence the table asserts), while the shared run performs less
per-event work — partial-match creations and predicate evaluations grow
sublinearly in N because the common core of the workload is evaluated
once per event instead of once per query.

Set ``REPRO_BENCH_SMOKE=1`` for a seconds-scale smoke run (CI).
"""

from __future__ import annotations

import os
import time
from collections import Counter

from repro import build_engines, plan_pattern, run_workload
from repro.bench import format_table
from repro.workloads import MultiQueryWorkloadConfig, generate_overlapping_workload

from _common import WINDOW

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
QUERY_COUNTS = (2, 3) if SMOKE else (2, 4, 8)
STREAM_EVENTS = 400 if SMOKE else 2000
# A tree algorithm keeps the work comparison like-for-like: independent
# execution then runs each query on its own one-root plan DAG, whose
# partial-match accounting matches the shared DAG's (order algorithms
# would run NFA engines, which count buffered events instead of leaf
# instances).
ALGORITHM = "DP-B"


def _workload(env, queries: int):
    return generate_overlapping_workload(
        env.types,
        MultiQueryWorkloadConfig(
            queries=queries,
            core_size=2,
            suffix_size=1,
            window=WINDOW,
            seed=9,
        ),
    )


def _independent(workload, stream, catalogs):
    """One engine per query: summed wall time and work counters."""
    wall = 0.0
    pm_created = 0
    predicate_evals = 0
    keys = {}
    for name, pattern in workload.items():
        planned = plan_pattern(pattern, catalogs[name], algorithm=ALGORITHM)
        engine = build_engines(planned)
        started = time.perf_counter()
        matches = engine.run(stream)
        wall += time.perf_counter() - started
        pm_created += engine.metrics.partial_matches_created
        predicate_evals += engine.metrics.predicate_evaluations
        keys[name] = Counter(m.key() for m in matches)
    return wall, pm_created, predicate_evals, keys


def test_fig20_multiquery_sharing(benchmark, env):
    stream = env.stream.take(STREAM_EVENTS)
    rows, records = [], []
    final_workload = None
    for count in QUERY_COUNTS:
        workload = _workload(env, count)
        final_workload = workload
        catalogs = {n: env.catalog(p) for n, p in workload.items()}

        ind_wall, ind_pm, ind_preds, ind_keys = _independent(
            workload, stream, catalogs
        )
        result = run_workload(
            workload, stream, algorithm=ALGORITHM, catalogs=catalogs
        )

        # Acceptance criterion: identical per-query match sets ...
        for name in workload.names:
            shared_keys = Counter(m.key() for m in result.matches[name])
            assert shared_keys == ind_keys[name], f"{name} diverges"
        # ... with strictly less per-event work once queries overlap.
        shared_pm = result.metrics.partial_matches_created
        shared_preds = result.metrics.predicate_evaluations
        assert shared_pm < ind_pm
        assert shared_preds <= ind_preds

        events = len(stream)
        rows.append(
            [
                count,
                f"{result.report.shared_nodes}/{result.report.dag_nodes}",
                f"{result.report.cost_savings:.0%}",
                f"{ind_pm / events:.2f}",
                f"{shared_pm / events:.2f}",
                f"{1 - shared_pm / ind_pm:.0%}",
                f"{count * events / ind_wall:,.0f}",
                f"{count * events / result.wall_seconds:,.0f}",
            ]
        )
        records.append(
            {
                "queries": count,
                "events": events,
                "dag_nodes": result.report.dag_nodes,
                "shared_nodes": result.report.shared_nodes,
                "cost_savings": result.report.cost_savings,
                "pm_created_independent": ind_pm,
                "pm_created_shared": shared_pm,
                "pm_reduction": 1 - shared_pm / ind_pm,
                "independent_wall_s": ind_wall,
                "shared_wall_s": result.wall_seconds,
            }
        )

    env.write(
        "fig20_multiquery_sharing.txt",
        format_table(
            (
                "queries",
                "shared/DAG nodes",
                "model savings",
                "PMs/event indep",
                "PMs/event shared",
                "PM reduction",
                "query-events/s indep",
                "query-events/s shared",
            ),
            rows,
            title=(
                "Figure 20 — shared vs. independent execution of N "
                "overlapping queries (identical match sets asserted)"
            ),
        ),
    )
    env.write_json("BENCH_fig20.json", {"smoke": SMOKE, "runs": records})

    catalogs = {n: env.catalog(p) for n, p in final_workload.items()}
    benchmark.pedantic(
        lambda: run_workload(
            final_workload, stream, algorithm=ALGORITHM, catalogs=catalogs
        ),
        rounds=1,
        iterations=1,
    )
