#!/usr/bin/env python3
"""The perf ledger: six named workloads, eight end-to-end metrics and an
outside-in layer trace — the repo's benchmark of record.

One workload, one run (what ``BENCHMARK.json``'s command invokes)::

    python3 ledger/ledger.py --workload keyed_index --seed 3 --seconds 8 --trace 0

prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.

All six workloads, each run in a fresh child process::

    python3 ledger/ledger.py [--repeat N] [--trace] [--record]
    python3 ledger/ledger.py --selfcheck
    python3 ledger/ledger.py --smoke

See ``ledger/README.md`` for the metric and workload tables.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = ROOT / "BENCHMARK.json"
SMOKE_SCALE = 0.05
#: Exact given the seed, so two runs of one seed must agree to the digit.
EXACT_END_TO_END = ("peak_pm", "plan_cost_norm")
#: ``count`` metrics that depend on thread timing, not on the input.
TIMING_COUNTS = ("service.blocked_puts", "service.shed")


def load_manifest() -> dict:
    return json.loads(MANIFEST.read_text())


# -- one workload, this process ----------------------------------------------

def run_one(args, manifest: dict) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        # Never measure some other installed copy of the package.
        sys.exit(f"ledger: no src/repro beside {HERE}; run from a checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import harness
    from wl_churn import Churn
    from wl_keyed_index import KeyedIndex
    from wl_plan_large import PlanLarge
    from wl_service_pool import ServicePool
    from wl_shared_queries import SharedQueries
    from wl_stock_theta import StockTheta

    workloads = {
        cls.name: cls
        for cls in (
            StockTheta, KeyedIndex, SharedQueries, ServicePool, Churn,
            PlanLarge,
        )
    }

    cfg = harness.Config(
        seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
        scale=args.scale,
    )
    if cfg.trace:
        names = [m["name"] for m in manifest["per_layer"]]
        outcome = harness.per_layer(cfg, workloads[args.workload], names)
        declared = manifest["per_layer"]
    else:
        outcome = harness.end_to_end(cfg, workloads[args.workload])
        declared = manifest["end_to_end"]
    print("# samples " + json.dumps(outcome.samples))
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    m["name"]: {
                        "value": outcome.metrics[m["name"]],
                        "unit": m["unit"],
                    }
                    for m in declared
                },
            }
        )
    )
    return 0


# -- all workloads, one child process each ------------------------------------

def child(workload: str, seed: int, seconds: float, trace: int, scale: float):
    """Run one workload in a fresh process; ``(result, samples)``."""
    done = subprocess.run(
        [
            sys.executable, str(HERE / "ledger.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--scale", str(scale),
        ],
        stdout=subprocess.PIPE, text=True, timeout=900,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload}: run failed ({done.returncode})")
    lines = done.stdout.strip().splitlines()
    samples = json.loads(lines[-2][len("# samples "):])
    return json.loads(lines[-1]), samples


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def run_set(args, manifest: dict, scale: float) -> dict:
    """``--repeat`` untraced runs (and one traced) of every workload.

    Returns ``{workload: {"end_to_end": {metric: [values]}, "per_layer":
    {metric: value}, "attempted": n, "failed": n, "samples": {...}}}``.
    """
    seconds = args.seconds * scale
    out = {}
    for spec in manifest["workloads"]:
        name = spec["name"]
        entry = {
            "end_to_end": {}, "per_layer": {}, "attempted": 0, "failed": 0,
            "samples": {},
        }
        for _ in range(args.repeat):
            result, samples = child(name, args.seed, seconds, 0, scale)
            for metric, cell in result["metrics"].items():
                entry["end_to_end"].setdefault(metric, []).append(cell["value"])
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            entry["samples"] = samples
        if args.trace:
            result, _ = child(name, args.seed, seconds, 1, scale)
            entry["per_layer"] = {
                metric: cell["value"]
                for metric, cell in result["metrics"].items()
            }
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
        out[name] = entry
    if args.trace:
        merge_traces([spec["name"] for spec in manifest["workloads"]])
    return out


def merge_traces(names) -> None:
    results = HERE / "results"
    runs = [
        json.loads((results / f"ledger_trace.{name}.json").read_text())
        for name in names
    ]
    (results / "ledger_trace.json").write_text(
        json.dumps({"runs": runs}) + "\n"
    )


def print_set(manifest: dict, data: dict) -> None:
    units = {
        m["name"]: m["unit"]
        for m in manifest["end_to_end"] + manifest["per_layer"]
    }
    for name, entry in data.items():
        print(f"\n== {name}   attempted={entry['attempted']} "
              f"failed={entry['failed']}")
        print(f"  {'metric':34s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
              f"{'runs':>4s} {'samples':>8s}  unit")
        for metric, values in entry["end_to_end"].items():
            q1, q3 = quartiles(values)
            print(
                f"  {metric:34s} {statistics.median(values):14.6g} "
                f"{q1:14.6g} {q3:14.6g} {len(values):4d} "
                f"{entry['samples'].get(metric, ''):>8}  {units[metric]}"
            )
        for metric, value in entry["per_layer"].items():
            print(f"  {metric:34s} {value:14.6g} {'':14s} {'':14s} "
                  f"{1:4d} {'':>8}  {units[metric]}")
    if any(entry["per_layer"] for entry in data.values()):
        print(f"\ntrace written to {HERE / 'results' / 'ledger_trace.json'}")


def sanity(data: dict) -> list:
    """Properties any healthy ledger run has (ROADMAP 1(d))."""
    problems = []
    for name, entry in data.items():
        def fail(text, name=name):
            problems.append(f"{name}: {text}")

        e2e = {m: statistics.median(v) for m, v in entry["end_to_end"].items()}
        if entry["failed"]:
            fail(f"{entry['failed']} failed operations")
        if not all(value > 0 for value in e2e.values()):
            fail("an end-to-end metric is not positive")
        if e2e["detect_p50_ms"] > e2e["detect_p99_ms"]:
            fail("detect_p50_ms above detect_p99_ms")
        layer = entry["per_layer"]
        if not layer:
            continue
        if layer["engines.index_hits"] > layer["engines.index_probes"]:
            fail("more index hits than probes")
        if name == "shared_queries" and layer["multiquery.sharing_ratio"] < 1:
            fail("sharing ratio below 1")
        if name == "service_pool" and layer["service.shed"]:
            fail("events shed")
    return problems


def selfcheck(manifest: dict, first: dict, second: dict) -> list:
    """Two sets of the same code and seed must agree within the bounds."""
    problems = []
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    exact_layers = [
        m["name"] for m in manifest["per_layer"]
        if m["unit"] == "count" and m["name"] not in TIMING_COUNTS
    ]
    for name in first:
        for metric, bound in bounds.items():
            a = statistics.median(first[name]["end_to_end"][metric])
            b = statistics.median(second[name]["end_to_end"][metric])
            limit = 0.0 if metric in EXACT_END_TO_END else bound
            if abs(a - b) > limit * min(a, b):
                problems.append(f"{name}: {metric} {a:.6g} vs {b:.6g}")
        for metric in exact_layers:
            a = first[name]["per_layer"][metric]
            b = second[name]["per_layer"][metric]
            if a != b:
                problems.append(f"{name}: {metric} {a} vs {b}")
    return problems


def record(data: dict) -> None:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    line = {
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "medians": {
            name: {
                metric: statistics.median(values)
                for metric, values in entry["end_to_end"].items()
            }
            for name, entry in data.items()
        },
    }
    with open(HERE / "history.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(line) + "\n")


def main(argv=None) -> int:
    manifest = load_manifest()
    names = [spec["name"] for spec in manifest["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=float(manifest["run_seconds"])
    )
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help=argparse.SUPPRESS)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    if args.workload:
        return run_one(args, manifest)

    if args.smoke:
        args.repeat, args.trace = 1, 1
        data = run_set(args, manifest, SMOKE_SCALE)
        print_set(manifest, data)
        problems = sanity(data)
    elif args.selfcheck:
        args.trace = 1
        data = run_set(args, manifest, 1.0)
        again = run_set(args, manifest, 1.0)
        print_set(manifest, data)
        print_set(manifest, again)
        problems = sanity(data) + selfcheck(manifest, data, again)
    else:
        data = run_set(args, manifest, 1.0)
        print_set(manifest, data)
        problems = sanity(data)
        if args.record:
            record(data)
    for problem in problems:
        print("FAIL " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
