"""stock_theta — the paper's §7 workload: theta predicates only.

Five pattern categories × sizes 3, 4, 5 over the synthetic tick stream,
each planned with DP-LD (→ NFA) and DP-B (→ tree) and run over six
consecutive slices of the stream: 180 engine runs per pass.  Every
predicate compares ``difference`` attributes, so hash indexes have
nothing to key on: the join cascade, predicate kernels,
negation and Kleene do the work, and ``service``, ``parallel``,
``streams`` and ``multiquery`` do none.
"""

from __future__ import annotations

from repro import estimate_pattern_catalog, plan_pattern
from repro.engines import build_engines
from repro.observe import Tracer
from repro.workloads import CATEGORIES

import inputs
from harness import (
    Pass, PlanLog, Workload, divergence, latency_probes, mode_probes,
    oracle_failures, run_engine, segments, timed_run,
)

SIZES = (3, 4, 5)
DURATION = 630.0  # ~5.4 k events; one pass (30 plans x 6 slices) ≈ 4 s
SLICES = 6
ALGORITHMS = ("DP-LD", "DP-B")
MAX_KLEENE = 3


class StockTheta(Workload):
    name = "stock_theta"
    pass_seconds = 4.0

    def setup(self) -> None:
        cfg, rec = self.cfg, self.rec
        with rec.span("workloads.gen"):
            streams = [
                inputs.stock_stream(cfg.pass_seed(i), DURATION * cfg.scale)
                for i in range(self.pass_count)
            ]
            self.stream = streams[0]  # statistics and plans come from it
            self.slices = [
                segments(stream, cfg.slices(SLICES)) for stream in streams
            ]
            self.prefix = self.stream.take(cfg.scaled(1_000, 100))
            types = self.stream.type_names()
            patterns = [
                pattern
                for category in CATEGORIES
                for pattern in inputs.stock_patterns(types, category, SIZES)
            ]
        self.plans = PlanLog(rec, cfg.trace)
        self.planned = {}
        for pattern in patterns:
            with rec.span("stats.catalog"):
                catalog = estimate_pattern_catalog(
                    pattern, self.stream, samples=400
                )
            for algorithm in ALGORITHMS:
                self.planned[pattern.name, algorithm] = plan_pattern(
                    pattern,
                    catalog,
                    optimizer=self.plans.optimizer(algorithm),
                    cost_model=self.plans.model,
                )
        for planned in self.planned.values():
            with rec.span("engines.build"):
                engine = build_engines(planned, max_kleene_size=MAX_KLEENE)
            engine.run(self.prefix)  # warm-up: codegen + interpreter caches

    def measure(self, rec, index: int) -> Pass:
        return Pass(
            [
                run_engine(
                    rec, self.tally, f"{name}/{algorithm}/{part}", planned,
                    stream, max_kleene_size=MAX_KLEENE,
                )
                for (name, algorithm), planned in self.planned.items()
                for part, stream in enumerate(self.slices[index])
            ]
        )

    def probes(self, rec, traced: Pass) -> dict:
        nfa_plans = [
            planned
            for (_, algorithm), planned in self.planned.items()
            if algorithm == "DP-LD"
        ]
        out = mode_probes(
            rec, nfa_plans, self.prefix, max_kleene_size=MAX_KLEENE
        )
        out.update(latency_probes(traced))
        # ROADMAP 5(d): what attaching the plan-node tracer costs.
        plain = traced_wall = 0.0
        for planned in nfa_plans:
            plain += timed_run(
                rec, "observe.untraced_run",
                lambda: build_engines(planned, max_kleene_size=MAX_KLEENE),
                self.prefix,
            )
            traced_wall += timed_run(
                rec, "observe.tracer_run",
                lambda: build_engines(
                    planned, max_kleene_size=MAX_KLEENE, tracer=Tracer()
                ),
                self.prefix,
            )
        out["observe.tracer_overhead"] = traced_wall / plain
        return out

    def check(self, last: Pass) -> tuple:
        attempted = sum(run.events for run in last.runs)
        failed = 0
        by_label = {run.label: run for run in last.runs}
        for (name, algorithm), planned in self.planned.items():
            if algorithm != "DP-LD":
                continue
            expected, wrong = oracle_failures(
                planned, self.prefix, max_kleene_size=MAX_KLEENE
            )
            attempted += expected
            failed += wrong
            # Cross-path identity on the full stream: NFA ≡ tree.
            for index in range(len(self.slices[0])):
                nfa = by_label[f"{name}/DP-LD/{index}"].identity
                tree = by_label[f"{name}/DP-B/{index}"].identity
                attempted += nfa[0]
                failed += divergence(nfa, tree)
        return attempted, failed
