"""keyed_index — equality-keyed patterns on the bare engines.

fig26's ``SEQ(A a, B b, C c) WHERE a.k = b.k AND b.k = c.k`` and its
``mixed`` variant over a 50-key exponential-gap stream, default engine
on the NFA and on the left-deep tree.  Admission, index probe, window
expiry and match materialisation dominate; planners and theta kernels
do almost nothing — the mirror image of ``stock_theta``.

The engines run fixed plans (see ``harness.fixed_plans``).
"""

from __future__ import annotations

from repro import estimate_pattern_catalog, parse_pattern
from repro.engines import build_engines
from repro.events import Stream

import inputs
from harness import (
    Pass, PlanLog, Workload, divergence, fixed_plans, latency_probes,
    mode_probes, oracle_failures, run_engine,
)

EVENTS = 42_000
KEYS = 50
WINDOW = 4
GAP = 0.02
TEMPLATES = {"equality": inputs.EQUALITY, "mixed": inputs.MIXED}


class KeyedIndex(Workload):
    name = "keyed_index"
    pass_seconds = 4.0

    def setup(self) -> None:
        cfg, rec = self.cfg, self.rec
        with rec.span("workloads.gen"):
            self.streams = [
                Stream(
                    inputs.keyed_events(
                        cfg.pass_seed(i), cfg.scaled(EVENTS), KEYS,
                        inputs.exponential_gap(GAP),
                    )
                )
                for i in range(self.pass_count)
            ]
            self.stream = self.streams[0]  # statistics come from it
            self.prefix = self.stream.take(cfg.scaled(2_000, 200))
        self.plans = PlanLog(rec, cfg.trace)
        self.planned = {}
        for family, template in TEMPLATES.items():
            with rec.span("patterns.parse"):
                pattern = parse_pattern(template.format(w=WINDOW))
            with rec.span("stats.catalog"):
                catalog = estimate_pattern_catalog(pattern, self.stream)
            plans = fixed_plans(pattern, catalog, self.plans)
            for runtime, planned in plans.items():
                self.planned[f"{family}/{runtime}"] = planned
        for planned in self.planned.values():
            with rec.span("engines.build"):
                engine = build_engines(planned)
            engine.run(self.prefix)  # warm-up

    def measure(self, rec, index: int) -> Pass:
        return Pass(
            [
                run_engine(
                    rec, self.tally, label, planned, self.streams[index]
                )
                for label, planned in self.planned.items()
            ]
        )

    def probes(self, rec, traced: Pass) -> dict:
        batch_stream = self.stream.take(self.cfg.scaled(10_000, 400))
        out = mode_probes(
            rec, list(self.planned.values()), self.prefix,
            batch_stream=batch_stream,
        )
        out.update(latency_probes(traced))
        return out

    def check(self, last: Pass) -> tuple:
        attempted = sum(run.events for run in last.runs)
        failed = 0
        by_label = {run.label: run for run in last.runs}
        for family in TEMPLATES:
            for runtime in ("nfa", "tree"):
                expected, wrong = oracle_failures(
                    self.planned[f"{family}/{runtime}"], self.prefix
                )
                attempted += expected
                failed += wrong
            nfa = by_label[f"{family}/nfa"].identity
            attempted += nfa[0]
            failed += divergence(nfa, by_label[f"{family}/tree"].identity)
        return attempted, failed
