"""churn — deletes and rewrites beside inserts.

Keyed events jittered within ``max_delay`` into a ``DeltaEngine``, with
``Retraction``s and ``Update``s interleaved at seeded positions.  Today
each ``Update`` replays the whole uid log, so corrections are most of
the wall; a change that speeds inserts but slows ``retract_seq`` or
replay shows here, and ROADMAP item 4 claims its gain here.
``throughput_eps`` counts events plus corrections.
"""

from __future__ import annotations

import time
from collections import Counter

from repro import (
    DeltaEngine,
    DisorderBuffer,
    Retraction,
    estimate_pattern_catalog,
    net_fingerprints,
    parse_pattern,
)
from repro.engines import Match, build_engines
from repro.events import Event, Stream

import inputs
from harness import (
    EngineRun, Pass, PlanLog, Workload, fixed_plans, latency_probes,
    mismatches, oracle_failures, percentile,
)

EVENTS = 14_000
KEYS = 12  # few keys: enough matches for a p99, and retractions that bite
WINDOW = 3
MAX_DELAY = 0.15
RETRACTIONS = 40
UPDATES = 20


def uniform_gap(rng) -> float:
    return rng.uniform(0.01, 0.09)


class Churn(Workload):
    name = "churn"
    pass_seconds = 7.3

    def setup(self) -> None:
        cfg, rec = self.cfg, self.rec
        with rec.span("workloads.gen"):
            events = inputs.keyed_events(
                cfg.seed, cfg.scaled(EVENTS), KEYS, uniform_gap
            )
            self.items, self.corrected = inputs.churn_items(
                cfg.seed, events, KEYS, MAX_DELAY,
                cfg.scaled(RETRACTIONS, 4), cfg.scaled(UPDATES, 2),
            )
            ordered = Stream(events)
            self.prefix = ordered.take(cfg.scaled(3_000, 200))
        with rec.span("patterns.parse"):
            pattern = parse_pattern(inputs.EQUALITY.format(w=WINDOW))
        with rec.span("stats.catalog"):
            catalog = estimate_pattern_catalog(pattern, ordered)
        self.plans = PlanLog(rec, cfg.trace)
        self.planned = fixed_plans(pattern, catalog, self.plans)["nfa"]
        with rec.span("engines.build"):
            engine = self.build()
        engine.run(self.prefix)  # warm-up

    def build(self):
        return build_engines(self.planned)

    def measure(self, rec, index: int) -> Pass:
        delta = DeltaEngine(self.build, max_delay=MAX_DELAY, late_policy="strict")
        retract_walls, update_walls, outputs = [], [], []
        with rec.span("streams.delta_run"):
            began = time.perf_counter()
            for item in self.items:
                if isinstance(item, Event):
                    outputs.extend(delta.process(item))
                    continue
                started = time.perf_counter()
                outputs.extend(delta.process(item))
                walls = (
                    retract_walls if isinstance(item, Retraction)
                    else update_walls
                )
                walls.append(time.perf_counter() - started)
            outputs.extend(delta.finalize())
            wall = time.perf_counter() - began
        self.delta = delta
        self.wall = wall
        self.retract_walls = sorted(retract_walls)
        self.update_walls = sorted(update_walls)
        metrics = delta.metrics
        self.tally.add(metrics)
        return Pass(
            [
                EngineRun(
                    "delta", len(self.items), wall,
                    metrics.peak_partial_matches,
                    [m.wall_latency for m in outputs if isinstance(m, Match)],
                )
            ]
        )

    def probes(self, rec, traced: Pass) -> dict:
        buffer = DisorderBuffer(MAX_DELAY, late_policy="strict")
        arrivals = [item for item in self.items if isinstance(item, Event)]
        with rec.span("streams.buffer"):
            for uid, event in enumerate(arrivals):
                buffer.offer(event.timestamp, uid)
            buffer.flush()
        metrics = self.delta.metrics
        corrections = sum(self.retract_walls) + sum(self.update_walls)
        out = {
            "streams.reordered": float(metrics.events_reordered),
            "streams.watermark_lag_p95_s": metrics.watermark_lag.p95,
            "streams.insert_s": self.wall - corrections,
            "streams.retract_ms_p50": percentile(self.retract_walls, 0.5) * 1e3,
            "streams.update_ms_p50": percentile(self.update_walls, 0.5) * 1e3,
            "streams.corrections": float(
                len(self.retract_walls) + len(self.update_walls)
            ),
            # Every Update replays; a Retraction replays only when its
            # type can appear in a negation, and this pattern has none.
            "streams.replays": float(len(self.update_walls)),
            "streams.matches_retracted": float(metrics.matches_retracted),
            "streams.correction_share": corrections / self.wall,
        }
        out.update(latency_probes(traced))
        return out

    def check(self, last: Pass) -> tuple:
        # Net fingerprints ≡ a clean run over the corrected stream.
        clean = self.build()
        outputs = []
        for seq, event in enumerate(self.corrected):
            outputs.extend(clean.process(event.with_seq(seq)))
        outputs.extend(clean.finalize())
        expected = net_fingerprints(outputs)
        got = self.delta.net_fingerprints()
        wrong = mismatches(Counter(expected), Counter(got))
        oracle, oracle_wrong = oracle_failures(self.planned, self.prefix)
        attempted = len(self.items) + len(expected) + oracle
        return attempted, wrong + oracle_wrong
