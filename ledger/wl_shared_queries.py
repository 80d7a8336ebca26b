"""shared_queries — eight overlapping queries through the shared-plan DAG.

``generate_overlapping_workload(queries=8, core_size=2, suffix_size=1)``
over the tick stream, planned jointly with DP-B and run by one
``MultiQueryEngine``.  Only the shared-DAG executor runs — the evaluator
ROADMAP 2(a) wants to make the single core — so merging the other
engines into it must show here and not slow ``stock_theta`` or
``keyed_index``.
"""

from __future__ import annotations

import time

from repro import estimate_pattern_catalog, plan_pattern, plan_workload
from repro.engines import build_engines
from repro.workloads import (
    MultiQueryWorkloadConfig,
    generate_overlapping_workload,
)

import inputs
from harness import (
    EngineRun, Pass, PlanLog, Workload, divergence, identity,
    mismatches, records, segments,
)
from spans import NULL

DURATION = 7_200.0  # ~62 k events
SLICES = 12
ALGORITHM = "DP-B"


def flatten(per_query: dict) -> list:
    return [match for matches in per_query.values() for match in matches]


class SharedQueries(Workload):
    name = "shared_queries"
    pass_seconds = 4.0

    def setup(self) -> None:
        cfg, rec = self.cfg, self.rec
        with rec.span("workloads.gen"):
            streams = [
                inputs.stock_stream(cfg.pass_seed(i), DURATION * cfg.scale)
                for i in range(self.pass_count)
            ]
            self.stream = streams[0]  # statistics and plans come from it
            self.prefix = self.stream.take(cfg.scaled(2_000, 200))
            self.slices = [
                segments(stream, cfg.slices(SLICES)) for stream in streams
            ]
            self.workload = generate_overlapping_workload(
                self.stream.type_names(),
                MultiQueryWorkloadConfig(
                    queries=8, core_size=2, suffix_size=1,
                    window=inputs.WINDOW, seed=inputs.PATTERN_SEED,
                ),
            )
        with rec.span("stats.catalog"):
            self.catalogs = {
                name: estimate_pattern_catalog(pattern, self.stream, samples=400)
                for name, pattern in self.workload.items()
            }
        self.plans = PlanLog(rec, cfg.trace)
        # Eight DP-B plans alone take 0.3 ms, too little to time.
        for name, pattern in self.workload.items():
            self.plans.plan_grid(pattern, self.catalogs[name])
        with rec.span("multiquery.plan"):
            self.shared = plan_workload(
                self.workload,
                self.catalogs,
                optimizer=self.plans.optimizer(ALGORITHM),
                cost_model=self.plans.model,
            )
        with rec.span("engines.build"):
            engine = build_engines(self.shared)
        engine.run(self.prefix)  # warm-up

    def measure(self, rec, index: int) -> Pass:
        runs = []
        self.pm_created = self.predicate_evals = 0
        self.head = self.slices[index][0]  # what check() re-runs
        for part_index, part in enumerate(self.slices[index]):
            with rec.span("engines.build"):
                engine = build_engines(self.shared)
            with rec.span("multiquery.run"):
                started = time.perf_counter()
                per_query = engine.run(part)
                wall = time.perf_counter() - started
            metrics = engine.metrics
            self.pm_created += metrics.partial_matches_created
            self.predicate_evals += metrics.predicate_evaluations
            runs.append(
                EngineRun(
                    f"shared/{part_index}", len(part), wall,
                    metrics.peak_partial_matches, metrics.wall_latencies,
                    identity(flatten(per_query)),
                )
            )
        return Pass(runs)

    def independent(self, rec, stream, **flags) -> list:
        """One engine per query over ``stream``.  Costs 1.6x the shared
        run, so it only ever runs on a pass's first slice (``head``)."""
        matches = []
        for name, pattern in self.workload.items():
            planned = plan_pattern(
                pattern, self.catalogs[name], algorithm=ALGORITHM
            )
            engine = build_engines(planned, **flags)
            with rec.span("multiquery.independent_run"):
                matches.extend(engine.run(stream))
        return matches

    def probes(self, rec, traced: Pass) -> dict:
        self.independent(rec, self.head)
        report = self.shared.report
        return {
            "multiquery.sharing_ratio": report.subtrees_total / report.dag_nodes,
            "multiquery.shared_nodes": float(report.shared_nodes),
            "multiquery.cost_savings": report.cost_savings,
            "multiquery.pm_created": float(self.pm_created),
            "multiquery.predicate_evals": float(self.predicate_evals),
        }

    def check(self, last: Pass) -> tuple:
        # Per-query matches ≡ independent default engines.
        independent = identity(self.independent(NULL, self.head))
        # Prefix: the shared DAG ≡ independent interpreted linear engines.
        oracle = records(
            self.independent(
                NULL, self.prefix, indexed=False, compiled=False
            )
        )
        on_prefix = records(flatten(build_engines(self.shared).run(self.prefix)))
        attempted = len(self.stream) + independent[0] + sum(oracle.values())
        failed = divergence(independent, last.runs[0].identity) + mismatches(
            oracle, on_prefix
        )
        return attempted, failed
