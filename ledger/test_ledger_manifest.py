"""BENCHMARK.json is well-formed and says what ``ledger.py`` prints."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
MANIFEST = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_manifest_schema():
    assert set(MANIFEST) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert MANIFEST["paths"] == ["ledger"]
    assert MANIFEST["command"] == ["python3", "ledger/ledger.py"]
    assert isinstance(MANIFEST["run_seconds"], int)
    assert 1 <= MANIFEST["run_seconds"] <= 60
    assert len(MANIFEST["workloads"]) == 6
    assert len(MANIFEST["end_to_end"]) == 8
    assert 1 <= len(MANIFEST["per_layer"]) <= 128

    names = []
    for workload in MANIFEST["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in MANIFEST["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in MANIFEST["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in MANIFEST["end_to_end"] + MANIFEST["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(set(names)) == len(names)

    setup = [m for m in MANIFEST["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in MANIFEST["end_to_end"])
    assert (HERE.parent / "BENCHMARK.json").stat().st_size <= 64 * 1024


@pytest.mark.timeout(120)
def test_smoke_prints_the_manifest_names():
    """``--smoke`` runs all six workloads, traced and untraced, checks the
    ledger's sanity properties, and prints exactly the manifest's names
    for every workload."""
    done = subprocess.run(
        [sys.executable, str(HERE / "ledger.py"), "--smoke"],
        stdout=subprocess.PIPE, text=True, timeout=110,
    )
    assert done.returncode == 0, done.stdout
    expected = {
        m["name"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]
    }
    printed: dict = {}
    current = None
    for line in done.stdout.splitlines():
        if line.startswith("== "):
            current = line.split()[1]
            printed[current] = set()
        elif current and line.startswith("  ") and not line.startswith("  metric"):
            printed[current].add(line.split()[0])
    assert list(printed) == [w["name"] for w in MANIFEST["workloads"]]
    for workload, names in printed.items():
        assert names == expected, (workload, names ^ expected)
