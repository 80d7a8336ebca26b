"""Perf-trajectory regression gate over the ``BENCH_*.json`` results.

Every figure bench writes a machine-readable ``BENCH_figNN.json`` next
to its text table (``benchmarks/results/``).  This script diffs those
against the committed baselines in ``benchmarks/baselines/`` and fails
(exit 1) when any throughput metric regresses by more than the
tolerance (default 25%):

* **ratio metrics** (``speedup*`` keys, ``session_reuse.speedup``,
  fig17's ``normalized_cost``) are machine-independent and compared
  directly;
* **absolute metrics** (``events_per_s``; ``events / *_wall_s`` derived
  where a record carries both) depend on the host, so a fresh baseline
  belongs with any hardware change (``--update`` rewrites them).

Scale-aware gating: smoke runs (``REPRO_BENCH_SMOKE=1``) have
millisecond walls where host load alone swings absolute throughput by
±40%, so when both payloads are smoke only the ratio metrics gate (at
``max(tolerance, SMOKE_RATIO_TOLERANCE)``) and absolute metrics are
reported informationally.  Full-scale runs gate every metric at the
tolerance.

Runs are paired by their configuration identity (mode/family/runtime/
workers/..., fig17's algorithm/size), so reordering records or adding
new configurations never trips the gate — new runs are reported
informationally.  A baseline
and a result taken at different scales (``smoke`` flag mismatch) are
incomparable and skipped with a warning.

Usage::

    PYTHONPATH=src python benchmarks/check_regression.py
    PYTHONPATH=src python benchmarks/check_regression.py --tolerance 0.4
    PYTHONPATH=src python benchmarks/check_regression.py --update
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

HERE = Path(__file__).parent
DEFAULT_BASELINES = HERE / "baselines"
DEFAULT_RESULTS = HERE / "results"

#: Fail when current < (1 - tolerance) * baseline for any metric.
DEFAULT_TOLERANCE = 0.25

#: Minimum tolerance applied to ratio metrics of smoke-scale runs —
#: even machine-independent speedups are noisy on millisecond walls.
SMOKE_RATIO_TOLERANCE = 0.5

#: Record fields that identify *which* run a record measures (never
#: measured quantities) — present ones form the pairing key.
IDENTITY_FIELDS = (
    "mode",
    "family",
    "runtime",
    "label",
    "workers",
    "queries",
    "events",
    "key_cardinality",
    "window",
    "indexed",
    "partitioner",
    "backend",
    "algorithm",
    "size",
)

#: Machine-independent, higher-is-better metrics beside ``speedup*``.
RATIO_METRICS = ("normalized_cost",)


def run_key(record: dict) -> Tuple:
    """Stable identity of one run record, for baseline pairing."""
    return tuple(
        (field, record[field])
        for field in IDENTITY_FIELDS
        if field in record
    )


def _is_ratio(name: str) -> bool:
    return name.startswith("speedup") or name in RATIO_METRICS


def throughput_metrics(record: dict) -> Dict[str, float]:
    """Higher-is-better throughput metrics of one run record.

    ``speedup*`` ratios and fig17's ``normalized_cost`` (EFREQ's plan
    cost over the algorithm's) come through as-is; ``events_per_s``
    directly; plan-generation seconds (``plan_s``) are recorded only;
    and every ``*_wall_s`` wall time in a record that also reports its
    ``events`` count is folded into an ``events_per_s[...]`` rate so
    wall-time-only benches (fig20/21/24) still gate on throughput.
    """
    metrics: Dict[str, float] = {}
    events = record.get("events")
    for name, value in record.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            continue
        if _is_ratio(name) or name == "events_per_s":
            metrics[name] = float(value)
        elif name.endswith("_wall_s") and events and value > 0:
            metrics[f"events_per_s[{name[: -len('_wall_s')]}]"] = (
                float(events) / float(value)
            )
    return metrics


def _records(payload: dict) -> List[Tuple[Tuple, dict]]:
    """(key, record) pairs for a BENCH payload: every entry of the
    ``runs`` list, plus any metric-bearing top-level section (e.g.
    fig25's ``session_reuse``) keyed by its section name."""
    pairs: List[Tuple[Tuple, dict]] = []
    for record in payload.get("runs", ()):
        if isinstance(record, dict):
            pairs.append((run_key(record), record))
    for name, section in payload.items():
        if name == "runs" or not isinstance(section, dict):
            continue
        if any(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            for v in section.values()
        ):
            pairs.append(((("section", name),), section))
    return pairs


def compare(
    baseline: dict, current: dict, tolerance: float = DEFAULT_TOLERANCE
) -> Tuple[List[dict], List[str]]:
    """Diff one baseline payload against its current counterpart.

    Returns ``(regressions, notes)``: each regression dict carries the
    run key, metric name, both values and the observed drop; notes are
    informational lines (new/missing runs, metric-set drift).
    """
    regressions: List[dict] = []
    notes: List[str] = []
    if bool(baseline.get("smoke")) != bool(current.get("smoke")):
        notes.append(
            "smoke-flag mismatch (baseline "
            f"smoke={bool(baseline.get('smoke'))}, current "
            f"smoke={bool(current.get('smoke'))}): scales are "
            "incomparable, skipped"
        )
        return regressions, notes
    smoke = bool(baseline.get("smoke"))
    skipped_absolute = 0
    base_runs = dict(_records(baseline))
    curr_runs = dict(_records(current))
    for key, base_record in base_runs.items():
        curr_record = curr_runs.get(key)
        if curr_record is None:
            notes.append(f"baselined run missing from results: {key}")
            continue
        base_metrics = throughput_metrics(base_record)
        curr_metrics = throughput_metrics(curr_record)
        for name, base_value in sorted(base_metrics.items()):
            curr_value = curr_metrics.get(name)
            if curr_value is None:
                notes.append(f"metric {name} gone from {key}")
                continue
            if base_value <= 0:
                continue
            if smoke and not _is_ratio(name):
                skipped_absolute += 1
                continue
            bound = max(tolerance, SMOKE_RATIO_TOLERANCE) if smoke else tolerance
            drop = 1.0 - curr_value / base_value
            if drop > bound:
                regressions.append(
                    {
                        "key": key,
                        "metric": name,
                        "baseline": base_value,
                        "current": curr_value,
                        "drop": drop,
                        "tolerance": bound,
                    }
                )
    if skipped_absolute:
        notes.append(
            f"smoke scale: {skipped_absolute} absolute throughput "
            "metrics reported informationally, not gated (ms-scale "
            "walls; ratios still gate)"
        )
    for key in curr_runs:
        if key not in base_runs:
            notes.append(f"new run (no baseline yet): {key}")
    return regressions, notes


def _key_text(key: Tuple) -> str:
    return " ".join(f"{field}={value}" for field, value in key) or "(run)"


def check(
    baselines_dir: Path,
    results_dir: Path,
    tolerance: float = DEFAULT_TOLERANCE,
    out=None,
) -> int:
    """Gate every baselined BENCH file; returns the process exit code."""
    out = out if out is not None else sys.stdout
    baseline_files = sorted(baselines_dir.glob("BENCH_*.json"))
    if not baseline_files:
        print(f"no baselines under {baselines_dir} — nothing to gate", file=out)
        return 0
    failed = False
    for baseline_path in baseline_files:
        result_path = results_dir / baseline_path.name
        name = baseline_path.name
        if not result_path.exists():
            print(f"{name}: SKIP (no current result — bench not run)", file=out)
            continue
        baseline = json.loads(baseline_path.read_text())
        current = json.loads(result_path.read_text())
        regressions, notes = compare(baseline, current, tolerance)
        for note in notes:
            print(f"{name}: note: {note}", file=out)
        if regressions:
            failed = True
            for item in regressions:
                print(
                    f"{name}: REGRESSION {item['metric']} "
                    f"{item['baseline']:,.1f} -> {item['current']:,.1f} "
                    f"(-{item['drop']:.0%}, tolerance "
                    f"{item['tolerance']:.0%}) "
                    f"[{_key_text(item['key'])}]",
                    file=out,
                )
        else:
            print(f"{name}: OK (within {tolerance:.0%} of baseline)", file=out)
    if failed:
        print(
            "\nthroughput regression beyond tolerance — if this follows a "
            "deliberate trade or a hardware change, refresh baselines with "
            "--update",
            file=out,
        )
    return 1 if failed else 0


def update(baselines_dir: Path, results_dir: Path, out=None) -> int:
    """Copy current BENCH results over the committed baselines."""
    out = out if out is not None else sys.stdout
    baselines_dir.mkdir(parents=True, exist_ok=True)
    copied = 0
    for result_path in sorted(results_dir.glob("BENCH_*.json")):
        shutil.copyfile(result_path, baselines_dir / result_path.name)
        print(f"baseline refreshed: {result_path.name}", file=out)
        copied += 1
    if not copied:
        print(f"no BENCH_*.json under {results_dir} — run the benches", file=out)
        return 1
    return 0


def main(argv: Optional[Iterable[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baselines",
        type=Path,
        default=DEFAULT_BASELINES,
        help="committed baseline dir (default benchmarks/baselines)",
    )
    parser.add_argument(
        "--results",
        type=Path,
        default=DEFAULT_RESULTS,
        help="current results dir (default benchmarks/results)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="maximum tolerated fractional drop (default 0.25)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite baselines from the current results instead of gating",
    )
    args = parser.parse_args(list(argv) if argv is not None else None)
    if args.update:
        return update(args.baselines, args.results)
    return check(args.baselines, args.results, args.tolerance)


if __name__ == "__main__":
    raise SystemExit(main())
