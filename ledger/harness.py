"""What the six ledger workloads share: the run loop, the metric
arithmetic, plan timing, engine runs and the correctness diff."""

from __future__ import annotations

import dataclasses
import gc
import math
import resource
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.cost import ThroughputCostModel
from repro.engines import build_engines
from repro.optimizers import make_optimizer, plan_pattern
from repro.optimizers.base import PlanGenerator
from repro.parallel import match_records
from repro.patterns import clear_codegen_cache
from repro.plans import TreePlan

from spans import NULL, Recorder

RESULTS_DIR = Path(__file__).resolve().parent / "results"
SETUP_REPEATS = 5

#: Registry algorithm name -> per-layer metric slug (``optimizers.<slug>_s``).
ALGORITHM_SLUG = {
    "GREEDY": "greedy",
    "KBZ": "kbz",
    "II-GREEDY": "ii_greedy",
    "II-RANDOM": "ii_random",
    "SA": "sa",
    "DP-LD": "dp_ld",
    "DP-B": "dp_b",
    "ZSTREAM": "zstream",
    "ZSTREAM-ORD": "zstream_ord",
}

#: ``engines.<name>`` counter -> public ``EngineMetrics`` field.
ENGINE_COUNTERS = {
    "events": "events_processed",
    "matches": "matches_emitted",
    "pm_created": "partial_matches_created",
    "predicate_evals": "predicate_evaluations",
    "index_probes": "index_probes",
    "index_hits": "index_hits",
    "pm_expired": "pm_expired",
}


@dataclass(frozen=True)
class Config:
    seed: int
    seconds: float
    trace: bool
    scale: float = 1.0

    def scaled(self, full: float, floor: int = 1) -> int:
        return max(floor, int(full * self.scale))

    def pass_seed(self, index: int) -> int:
        """Seed of the ``index``-th pass's input: each pass of a run
        reads fresh data, so a second pass halves the seed-to-seed
        variance as well as the timing noise."""
        return self.seed * 64 + index

    def slices(self, full: int) -> int:
        """Stream slices per run: at smoke scale the whole stream is
        barely a few windows long, so it stays in one piece."""
        return full if self.scale >= 1.0 else 1


@dataclass
class EngineRun:
    """One closed-loop run; every stream metric is derived from these."""

    label: str
    events: int
    wall: float
    peak_pm: int
    latencies: Sequence[float]
    identity: tuple = (0, 0)


@dataclass
class Pass:
    """One repetition of a workload's timed section."""

    runs: List[EngineRun]
    plans: Optional["PlanLog"] = None
    #: ``(p50, p99)`` seconds when the workload measures detection
    #: latency itself (open loop); else taken from ``runs``' latencies.
    detect: Optional[tuple] = None


@dataclass
class Outcome:
    metrics: Dict[str, float]
    attempted: int
    failed: int
    samples: Dict[str, int] = field(default_factory=dict)


# -- arithmetic ---------------------------------------------------------------

def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    return ordered[min(len(ordered) - 1, int(len(ordered) * q))]


def geomean(values) -> float:
    logs = [math.log(v) for v in values]
    return math.exp(sum(logs) / len(logs))


#: A run's latency list is cut into up to CHUNKS consecutive slices of
#: at least CHUNK_FLOOR samples; the run's percentile is the median of
#: the slices' percentiles.  A workload's figure is the geometric mean
#: of its runs', each weighted by its sample count above WEIGHT_FLOOR,
#: capped at WEIGHT_CAP: a run with a handful of matches has no p99 to
#: speak of, one with 10⁵ should not own the figure, and the ramp in
#: between is continuous, so no run flips in or out on a few matches.
#: (Chosen among six estimators for the smallest seed-to-seed spread.)
CHUNKS = 8
CHUNK_FLOOR = 250
WEIGHT_FLOOR = 500
WEIGHT_CAP = 2_000


def run_percentiles(latencies: Sequence[float]) -> tuple:
    """``(p50, p99)`` of one run: medians over its time slices."""
    count = max(1, min(CHUNKS, len(latencies) // CHUNK_FLOOR))
    size = len(latencies) / count
    slices = [
        sorted(latencies[int(i * size):int((i + 1) * size)])
        for i in range(count)
    ]
    return tuple(
        statistics.median(percentile(one, q) for one in slices)
        for q in (0.50, 0.99)
    )


def workload_percentiles(runs: Sequence["EngineRun"]) -> tuple:
    """``(p50, p99)`` over every run of every pass, as described above."""
    stats = [
        (run_percentiles(run.latencies), len(run.latencies))
        for run in runs if run.latencies
    ]
    weights = [max(0, min(n, WEIGHT_CAP) - WEIGHT_FLOOR) for _, n in stats]
    if not any(weights):  # smoke scale: every run is below the floor
        weights = [n for _, n in stats]
    total = sum(weights)
    return tuple(
        math.exp(
            sum(w * math.log(both[i]) for (both, _), w in zip(stats, weights))
            / total
        )
        for i in (0, 1)
    )


def segments(stream, count: int) -> list:
    """``count`` consecutive equal time slices of ``stream``.  A run's
    partial-match peak is an extreme value and barely steadies with
    stream length; several independent slices, combined by geometric
    mean, steady it (and bound the largest match list held at once)."""
    start, step = stream[0].timestamp, stream.duration / count
    edges = [start + i * step for i in range(count)] + [float("inf")]
    return [stream.slice_time(lo, hi) for lo, hi in zip(edges, edges[1:])]


def records(matches) -> Counter:
    """Order-free identity multiset: two match lists are byte-identical
    in canonical order exactly when these are equal."""
    return Counter(match_records(matches))


def mismatches(expected: Counter, got: Counter) -> int:
    """Missing plus spurious matches."""
    return sum(((expected - got) + (got - expected)).values())


def identity(matches) -> tuple:
    """``(count, checksum)`` of a match multiset, order-free.  Full-stream
    match lists run to 10⁵ entries; holding them for the cross-path
    checks would make ``peak_rss_mb`` a function of the match count."""
    checksum = 0
    for match in matches:
        checksum += hash((match.pattern_name, match.key(), match.detection_ts))
    return len(matches), checksum & 0xFFFFFFFFFFFFFFFF


def divergence(expected: tuple, got: tuple) -> int:
    """Failed operations between two full-stream identities: 0 when
    equal, else the count gap (at least 1)."""
    if expected == got:
        return 0
    return max(1, abs(expected[0] - got[0]))


# -- planning -----------------------------------------------------------------

class CountingCostModel(ThroughputCostModel):
    """Counts and times the calls optimizers make into ``repro.cost``
    (traced pass only; ``tree_cost`` reaches the counted primitives)."""

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0

    def _counted(self, method, *args):
        self.calls += 1
        started = time.perf_counter()
        value = method(*args)
        self.seconds += time.perf_counter() - started
        return value

    def order_step_cost(self, prefix, variable, stats):
        return self._counted(super().order_step_cost, prefix, variable, stats)

    def order_cost(self, order, stats):
        return self._counted(super().order_cost, order, stats)

    def leaf_cost(self, variable, stats):
        return self._counted(super().leaf_cost, variable, stats)

    def combine_cost(self, left, right, stats):
        return self._counted(super().combine_cost, left, right, stats)


class PlanLog:
    """Accumulates ``plan_s`` (wall inside ``generate``) and the
    EFREQ-normalised plan costs of every plan generated through it."""

    def __init__(self, rec, traced: bool) -> None:
        self.rec = rec
        self.seconds = 0.0
        self.ratios: List[float] = []
        self.model = CountingCostModel() if traced else ThroughputCostModel()
        self._efreq = make_optimizer("EFREQ")
        self._plain = ThroughputCostModel()  # prices the ratio, uncounted

    def optimizer(self, algorithm: str) -> "TimedGenerator":
        return TimedGenerator(algorithm, self)

    def plan_grid(self, pattern, catalog) -> None:
        """Plan ``pattern`` with all nine algorithms: the sweep one would
        choose an optimizer from.  On the small stream patterns a single
        plan takes microseconds, too little for ``plan_s`` to time."""
        for algorithm in ALGORITHM_SLUG:
            plan_pattern(
                pattern, catalog, optimizer=self.optimizer(algorithm),
                cost_model=self.model,
            )

    @property
    def cost_norm(self) -> float:
        return geomean(self.ratios)


class TimedGenerator(PlanGenerator):
    """A registry optimizer whose ``generate`` is timed and whose plan is
    priced against EFREQ's on the same statistics (fig17a's ratio)."""

    def __init__(self, algorithm: str, log: PlanLog) -> None:
        self._inner = make_optimizer(algorithm)
        self._log = log
        self._span = "optimizers." + ALGORITHM_SLUG[algorithm]
        self.name = self._inner.name
        self.kind = self._inner.kind

    def generate(self, decomposed, stats, cost_model):
        log = self._log
        with log.rec.span(self._span):
            started = time.perf_counter()
            plan = self._inner.generate(decomposed, stats, cost_model)
            log.seconds += time.perf_counter() - started
        plain = log._plain
        baseline = self.plan_cost(
            log._efreq.generate(decomposed, stats, plain), stats, plain
        )
        log.ratios.append(baseline / self.plan_cost(plan, stats, plain))
        return plan


def fixed_plans(pattern, catalog, log: PlanLog) -> dict:
    """For the keyed A/B/C patterns, whose three types are statistically
    interchangeable: a cost-based planner flips between tied plans on
    estimation noise, so the engines run the declared order (``TRIVIAL``
    → NFA) and its left-deep tree.  The optimizer grid is still planned
    through ``log`` — ``plan_s`` and ``plan_cost_norm`` come from it."""
    log.plan_grid(pattern, catalog)
    nfa = plan_pattern(pattern, catalog, algorithm="TRIVIAL")
    tree = [
        dataclasses.replace(item, plan=TreePlan.left_deep(item.plan))
        for item in nfa
    ]
    return {"nfa": nfa, "tree": tree}


# -- engine runs --------------------------------------------------------------

class Tally(Counter):
    """Sums public ``engine.metrics`` counters over a workload's runs."""

    def add(self, metrics) -> None:
        for name, attribute in ENGINE_COUNTERS.items():
            self[name] += getattr(metrics, attribute)


def run_engine(rec, tally: Tally, label: str, planned, stream, **flags):
    """Build a fresh engine for ``planned`` and run it over ``stream``."""
    with rec.span("engines.build"):
        engine = build_engines(planned, **flags)
    span = "engines.tree_run" if planned[0].is_tree else "engines.nfa_run"
    with rec.span(span):
        started = time.perf_counter()
        matches = engine.run(stream)
        wall = time.perf_counter() - started
    metrics = engine.metrics
    tally.add(metrics)
    return EngineRun(
        label, len(stream), wall, metrics.peak_partial_matches,
        metrics.wall_latencies, identity(matches),
    )


def timed_run(rec, span: str, build, stream, batch_size=None) -> float:
    """Wall of one fresh engine's run under ``span`` (layer probes)."""
    engine = build()
    with rec.span(span):
        started = time.perf_counter()
        if batch_size:
            engine.run_batched(stream, batch_size=batch_size)
        else:
            engine.run(stream)
        return time.perf_counter() - started


#: (span, ratio metric, flags switched off) — ROADMAP 1(c)'s verdict rows.
ENGINE_MODES = (
    ("engines.interp_run", "engines.accel_ratio",
     dict(indexed=False, compiled=False)),
    ("engines.linear_run", "engines.index_ratio", dict(indexed=False)),
    ("engines.closure_run", "engines.codegen_ratio", dict(codegen=False)),
)


def mode_probes(rec, plans, prefix, batch_stream=None, **flags) -> dict:
    """Each acceleration layer switched off, ÷ the default per-event run
    on the same input; above 1 the layer pays for itself.  With
    ``batch_stream``, also ``run_batched(1024)`` ÷ per-event on it."""
    walls: Dict[str, float] = defaultdict(float)
    for planned in plans:
        walls["default"] += timed_run(
            rec, "engines.prefix_run",
            lambda: build_engines(planned, **flags), prefix,
        )
        for span, _, off in ENGINE_MODES:
            walls[span] += timed_run(
                rec, span,
                lambda: build_engines(planned, **flags, **off), prefix,
            )
        if batch_stream is not None:
            walls["per_event"] += timed_run(
                rec, "engines.per_event_run",
                lambda: build_engines(planned, **flags), batch_stream,
            )
            walls["batch"] += timed_run(
                rec, "engines.batch_run",
                lambda: build_engines(planned, **flags), batch_stream,
                batch_size=1024,
            )
    out = {
        ratio: walls[span] / walls["default"]
        for span, ratio, _ in ENGINE_MODES
    }
    if batch_stream is not None:
        out["engines.batch_ratio"] = walls["batch"] / walls["per_event"]
    return out


def latency_probes(traced: Pass) -> dict:
    """``Match.wall_latency`` percentiles of the traced pass, in µs."""
    ordered = sorted(x for run in traced.runs for x in run.latencies)
    return {
        "engines.match_latency_p50_us": percentile(ordered, 0.50) * 1e6,
        "engines.match_latency_p99_us": percentile(ordered, 0.99) * 1e6,
    }


def oracle_failures(planned, prefix, **flags) -> tuple:
    """Default engine vs the interpreted linear single-threaded oracle on
    ``prefix``: ``(expected matches, missing + spurious)``."""
    expected = records(
        build_engines(planned, indexed=False, compiled=False, **flags)
        .run(prefix)
    )
    got = records(build_engines(planned, **flags).run(prefix))
    return sum(expected.values()), mismatches(expected, got)


# -- the workload contract and the run loop -----------------------------------

class Workload:
    """One named workload.  ``setup`` is everything ``setup_s`` covers;
    ``measure`` is one repetition of the timed section; ``probes`` are
    the traced pass's standalone layer measurements; ``check`` runs
    outside every timed region."""

    name = ""
    #: What one ``measure`` costs at full scale on the reference host; a
    #: run makes ``--seconds`` ÷ this many passes (at least one).  The
    #: count depends on nothing measured, so a seed's inputs — and its
    #: exact metrics — do not change with the host's speed.
    pass_seconds = 1.0

    def __init__(self, cfg: Config, rec) -> None:
        self.cfg = cfg
        self.rec = rec
        self.tally = Tally()
        self.plans: Optional[PlanLog] = None
        self.pass_count = max(
            1, round(cfg.seconds / (self.pass_seconds * cfg.scale))
        )

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, rec, index: int) -> Pass:
        """Pass ``index`` (``< pass_count``) of the timed section."""
        raise NotImplementedError

    def probes(self, rec, traced: Pass) -> Dict[str, float]:
        return {}

    def check(self, last: Pass) -> tuple:
        """``(attempted, failed)`` for the last pass."""
        raise NotImplementedError

    def close(self) -> None:
        """Stop whatever ``setup`` started (worker pools)."""


def peak_rss_mib() -> float:
    """Peak resident set of this process plus its largest waited child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(cfg: Config, workload_cls) -> Outcome:
    """The untraced pass: every end-to-end metric of one workload."""
    setup_walls, plan_logs = [], []
    workload = None
    for _ in range(1 if cfg.scale < 1.0 else SETUP_REPEATS):
        if workload is not None:
            workload.close()
        clear_codegen_cache()
        started = time.perf_counter()
        workload = workload_cls(cfg, NULL)
        workload.setup()
        setup_walls.append(time.perf_counter() - started)
        if workload.plans is not None:
            plan_logs.append(workload.plans)
    try:
        gc.collect()
        gc.disable()  # as timeit does: a collection pause is noise in a p99
        passes = [
            workload.measure(NULL, index)
            for index in range(workload.pass_count)
        ]
        gc.enable()
        rss = peak_rss_mib()
        plan_logs.extend(p.plans for p in passes if p.plans is not None)
        attempted, failed = workload.check(passes[-1])
    finally:
        workload.close()

    # Every run of every pass is one sample (each pass reads its own
    # data); runs combine by geometric mean, so one heavy pattern does
    # not set the workload's number.
    runs = [run for one in passes for run in one.runs]
    given = [one.detect for one in passes if one.detect is not None]
    if given:
        p50 = statistics.median(d[0] for d in given)
        p99 = statistics.median(d[1] for d in given)
    else:
        p50, p99 = workload_percentiles(runs)
    metrics = {
        "setup_s": statistics.median(setup_walls),
        "throughput_eps": geomean(run.events / run.wall for run in runs),
        "detect_p50_ms": p50 * 1e3,
        "detect_p99_ms": p99 * 1e3,
        "peak_pm": geomean(max(run.peak_pm, 1) for run in runs),
        "peak_rss_mb": rss,
        "plan_s": statistics.median(log.seconds for log in plan_logs),
        "plan_cost_norm": statistics.median(
            log.cost_norm for log in plan_logs
        ),
    }
    matches = sum(len(run.latencies) for run in runs)
    samples = {
        "setup_s": len(setup_walls),
        "throughput_eps": len(passes),
        "detect_p50_ms": matches,
        "detect_p99_ms": matches,
        "plan_s": len(plan_logs),
    }
    return Outcome(metrics, attempted, failed, samples)


def per_layer(cfg: Config, workload_cls, names: Sequence[str]) -> Outcome:
    """The traced pass: per-layer metrics and ``ledger_trace`` spans.

    ``measure`` runs twice on the same state — spans off, then on — so
    ``observe.trace_overhead`` compares like with like.
    """
    rec = Recorder(f"{workload_cls.name}:seed{cfg.seed}")
    workload = workload_cls(cfg, rec)
    try:
        with rec.span("workload"):
            with rec.span("setup"):
                workload.setup()
            gc.collect()
            gc.disable()  # the regime the end-to-end pass measures under
            with rec.span("untraced_pass"):
                started = time.perf_counter()
                workload.measure(NULL, 0)
                untraced = time.perf_counter() - started
            workload.tally = Tally()
            with rec.span("traced_pass"):
                started = time.perf_counter()
                traced = workload.measure(rec, 0)
                traced_wall = time.perf_counter() - started
            gc.enable()
            with rec.span("probes"):
                probed = workload.probes(rec, traced)
        attempted, failed = workload.check(traced)
    finally:
        workload.close()

    totals = rec.totals()
    values = {name: 0.0 for name in names}
    for name in names:
        if name.endswith("_s") and name[:-2] in totals:
            values[name] = totals[name[:-2]]
    counts = workload.tally
    for name, count in counts.items():
        values["engines." + name] = float(count)
    if counts["index_probes"]:
        values["engines.index_hit_ratio"] = (
            counts["index_hits"] / counts["index_probes"]
        )
    if counts["matches"]:
        values["engines.pm_per_match"] = (
            counts["pm_created"] / counts["matches"]
        )
    plan_logs = [p for p in (workload.plans, traced.plans) if p is not None]
    values["cost.calls"] = float(sum(p.model.calls for p in plan_logs))
    values["cost.eval_s"] = sum(p.model.seconds for p in plan_logs)
    values["observe.trace_overhead"] = traced_wall / untraced
    values.update(probed)
    unknown = sorted(set(values) - set(names))
    if unknown:
        raise KeyError(f"per-layer metrics missing from BENCHMARK.json: {unknown}")

    rec.write(RESULTS_DIR / f"ledger_trace.{workload_cls.name}.json")
    self_sum = sum(rec.self_times().values())
    if abs(self_sum - rec.wall()) > 0.10 * rec.wall():
        raise AssertionError(
            f"trace self-times sum to {self_sum:.3f}s, wall {rec.wall():.3f}s"
        )
    return Outcome(values, attempted, failed)
