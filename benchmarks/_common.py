"""Shared benchmark environment (imported by conftest and bench modules).

Every figure bench draws from one synthetic stock stream and one pattern
workload (Section 7.2, scaled down per DESIGN.md).  Expensive sweeps are
computed once per session and shared between figures that plot the same
runs (Figure 4/5 share the by-type sweep; Figures 6-15 share per-category
size sweeps).  Each bench writes its table to ``benchmarks/results/`` so
the reproduced figures survive pytest's output capturing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.bench import RunResult, aggregate_mean, run_algorithm
from repro.patterns import Pattern
from repro.stats import StatisticsCatalog, estimate_pattern_catalog
from repro.workloads import (
    PatternWorkloadConfig,
    StockMarketConfig,
    generate_pattern_set,
    generate_stock_stream,
)

RESULTS_DIR = Path(__file__).parent / "results"

#: Order-based algorithms benchmarked throughout (Section 7.1).
ORDER_ALGS = ("TRIVIAL", "EFREQ", "GREEDY", "II-RANDOM", "II-GREEDY", "DP-LD")
#: Tree-based algorithms benchmarked throughout.
TREE_ALGS = ("ZSTREAM", "ZSTREAM-ORD", "DP-B")
ALL_ALGS = ORDER_ALGS + TREE_ALGS

CATEGORIES = ("sequence", "negation", "conjunction", "kleene", "disjunction")
SIZES = (3, 4, 5, 6)
WINDOW = 5.0
MAX_KLEENE = 3


@dataclass
class BenchEnv:
    """Session-wide stream, workload and caches."""

    stream: object
    types: list
    pattern_config: PatternWorkloadConfig
    _catalogs: dict = field(default_factory=dict)
    _sweeps: dict = field(default_factory=dict)

    # -- workload ----------------------------------------------------------
    def patterns(self, category: str, sizes: Sequence[int] = SIZES) -> list:
        config = PatternWorkloadConfig(
            sizes=tuple(sizes),
            patterns_per_size=self.pattern_config.patterns_per_size,
            window=self.pattern_config.window,
            seed=self.pattern_config.seed,
        )
        return generate_pattern_set(category, self.types, config)

    def catalog(self, pattern: Pattern) -> StatisticsCatalog:
        if pattern.name not in self._catalogs:
            self._catalogs[pattern.name] = estimate_pattern_catalog(
                pattern, self.stream, samples=400
            )
        return self._catalogs[pattern.name]

    # -- execution ---------------------------------------------------------
    def run(
        self,
        pattern: Pattern,
        algorithm: str,
        category: str,
        selection: str = "any",
        alpha: float = 0.0,
        stream=None,
    ) -> RunResult:
        """Execute one (pattern, algorithm) pair; cached per parameters.

        Caching at run granularity lets every figure module share the
        session's sweep results regardless of which subset it asks for.
        """
        cache_key = (pattern.name, algorithm, selection, alpha,
                     stream is None)
        if stream is None and cache_key in self._sweeps:
            return self._sweeps[cache_key]
        result = run_algorithm(
            pattern,
            stream if stream is not None else self.stream,
            self.catalog(pattern),
            algorithm,
            selection=selection,
            alpha=alpha,
            category=category,
            max_kleene_size=MAX_KLEENE,
        )
        # The harness reports the positive-variable count; the figures
        # bucket by the *declared* workload size (negation patterns have
        # one fewer positive, disjunctions 3x as many).  The generator
        # encodes the declared size in the name: "<category>_<size>_<i>".
        parts = pattern.name.rsplit("_", 2)
        if len(parts) == 3 and parts[1].isdigit():
            result.pattern_size = int(parts[1])
        if stream is None:
            self._sweeps[cache_key] = result
        return result

    def sweep(
        self,
        key: str,
        categories: Sequence[str],
        sizes: Sequence[int],
        algorithms: Sequence[str],
    ) -> list:
        """(category x size x algorithm) execution sweep (run-level cache).

        ``key`` is kept for call-site readability only; caching happens
        per individual run so overlapping sweeps never recompute or —
        worse — alias each other's results.
        """
        results = []
        for category in categories:
            for pattern in self.patterns(category, sizes):
                for algorithm in algorithms:
                    results.append(self.run(pattern, algorithm, category))
        return results

    # -- reporting ------------------------------------------------------------
    @staticmethod
    def write(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / name).write_text(text + "\n")
        print("\n" + text)

    @staticmethod
    def write_json(name: str, payload) -> None:
        """Machine-readable artifact (CI uploads these to track the
        perf trajectory across PRs)."""
        import json

        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / name).write_text(json.dumps(payload, indent=2) + "\n")

    @staticmethod
    def host_fingerprint() -> dict:
        """What a full-scale ``BENCH_*.json`` baseline was measured on."""
        import os
        import platform

        return {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "system": platform.system(),
            "cpus": os.cpu_count(),
        }


def build_env() -> BenchEnv:
    stream = generate_stock_stream(
        StockMarketConfig(
            symbols=12,
            duration=400.0,
            rate_low=0.25,
            rate_high=2.2,
            seed=42,
        )
    )
    pattern_config = PatternWorkloadConfig(
        sizes=SIZES, patterns_per_size=1, window=WINDOW, seed=9
    )
    return BenchEnv(
        stream=stream,
        types=stream.type_names(),
        pattern_config=pattern_config,
    )


def mean_by(results, metric, *attrs):
    """Group-by + mean helper mirroring the paper's averaged bars."""
    return aggregate_mean(results, metric, by=attrs)
