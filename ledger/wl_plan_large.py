"""plan_large — the paper's own subject: generating plans for large patterns.

The timed section first plans fig17's conjunction grid with no stream at
all — DP-LD at 12–13, DP-B at 10–11, the five order heuristics at 22,
the two ZStream variants at 16 — which is where ``plan_s`` and
``plan_cost_norm`` come from and where ``optimizers`` and ``cost`` do
everything.  It then runs what two planner families' plans buy on
nine stock patterns of sizes 4–6, so that this workload, too, reports
throughput, detection latency and partial-match peak: there they move
with plan *quality*, the paper's central claim.
"""

from __future__ import annotations

from repro import estimate_pattern_catalog, plan_pattern
from repro.engines import build_engines

import inputs
from harness import (
    Pass, PlanLog, Workload, divergence, latency_probes, oracle_failures,
    run_engine, segments,
)

#: (algorithm, conjunction size) — fig17's SIZES under its DP caps.
GRID = (
    ("DP-LD", 12), ("DP-LD", 13),
    ("DP-B", 10), ("DP-B", 11),
    ("II-RANDOM", 22), ("II-GREEDY", 22), ("SA", 22), ("GREEDY", 22),
    ("KBZ", 22),
    ("ZSTREAM", 16), ("ZSTREAM-ORD", 16),
)
#: Stock patterns whose plans are then run, and by which planners: the
#: JQPG heuristic the paper recommends and the CEP-native tree planner.
#: (On these sizes DP-LD and the other order heuristics return GREEDY's
#: plan; running them would spend the budget on the same numbers.)
EXECUTED = (
    ("sequence", (4, 5, 6)), ("conjunction", (4, 5, 6)),
    ("negation", (4, 5, 6)),
)
SLICES = 9
RUN_WITH = ("GREEDY", "ZSTREAM-ORD")
DURATION = 1_350.0  # ~11.7 k events, run as nine slices: 162 runs


class PlanLarge(Workload):
    name = "plan_large"
    pass_seconds = 7.5

    def setup(self) -> None:
        cfg, rec = self.cfg, self.rec
        # At smoke scale the grid keeps its shape on smaller conjunctions.
        shrink = 0 if cfg.scale >= 1.0 else 5
        with rec.span("patterns.parse"):
            self.problems = [
                (algorithm, inputs.large_problem(size - shrink, cfg.seed))
                for algorithm, size in GRID
            ]
        with rec.span("workloads.gen"):
            self.stream = inputs.stock_stream(cfg.seed, DURATION * cfg.scale)
            self.slices = segments(self.stream, cfg.slices(SLICES))
            self.prefix = self.stream.take(cfg.scaled(600, 100))
            types = self.stream.type_names()
            patterns = [
                pattern
                for category, sizes in EXECUTED
                for pattern in inputs.stock_patterns(types, category, sizes)
            ]
        self.catalogs = []
        for pattern in patterns:
            with rec.span("stats.catalog"):
                self.catalogs.append(
                    (pattern, estimate_pattern_catalog(
                        pattern, self.stream, samples=400
                    ))
                )
        pattern, catalog = self.catalogs[0]
        with rec.span("engines.build"):
            engine = build_engines(plan_pattern(pattern, catalog))
        engine.run(self.prefix)  # warm-up

    def measure(self, rec, index: int) -> Pass:
        log = PlanLog(rec, self.cfg.trace)
        for algorithm, (decomposed, stats) in self.problems:
            log.optimizer(algorithm).generate(decomposed, stats, log.model)
        # The executed patterns' own planning is outside the grid, and so
        # outside plan_s and plan_cost_norm.
        aside = PlanLog(rec, False)
        self.planned = {}
        runs = []
        for pattern, catalog in self.catalogs:
            for algorithm in RUN_WITH:
                planned = plan_pattern(
                    pattern, catalog, optimizer=aside.optimizer(algorithm)
                )
                self.planned[pattern.name, algorithm] = planned
                runs.extend(
                    run_engine(
                        rec, self.tally,
                        f"{pattern.name}/{algorithm}/{part}", planned, stream,
                    )
                    for part, stream in enumerate(self.slices)
                )
        return Pass(runs, plans=log)

    def probes(self, rec, traced: Pass) -> dict:
        return latency_probes(traced)

    def check(self, last: Pass) -> tuple:
        attempted = sum(run.events for run in last.runs)
        failed = 0
        by_label = {run.label: run for run in last.runs}
        for pattern, _ in self.catalogs:
            # Every planner's plan detects the same matches (the paper's
            # CPG ≡ JQPG equivalence), and GREEDY's equals the interpreted
            # oracle's on the prefix.
            for index in range(len(self.slices)):
                reference = by_label[f"{pattern.name}/GREEDY/{index}"].identity
                for algorithm in RUN_WITH:
                    got = by_label[f"{pattern.name}/{algorithm}/{index}"]
                    attempted += reference[0]
                    failed += divergence(reference, got.identity)
            expected, wrong = oracle_failures(
                self.planned[pattern.name, "GREEDY"], self.prefix
            )
            attempted += expected
            failed += wrong
        return attempted, failed
