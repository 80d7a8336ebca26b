"""The perf-regression gate (``benchmarks/check_regression.py``).

The gate is a standalone script (benchmarks is not a package), so it
is loaded here by file path.  These tests pin the comparison contract
CI relies on: pairing by run identity, the >tolerance failure rule,
ratio and derived-throughput metrics, and the smoke-scale guard.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = (
    Path(__file__).parent.parent / "benchmarks" / "check_regression.py"
)


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("check_regression", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _payload(
    events_per_s: float, speedup: float = 2.0, smoke: bool = False
) -> dict:
    return {
        "smoke": smoke,
        "runs": [
            {
                "mode": "socket-loopback",
                "workers": 2,
                "events": 600,
                "matches": 878,
                "events_per_s": events_per_s,
                "wall_s": 600 / events_per_s,
            }
        ],
        "session_reuse": {"speedup": speedup},
    }


class TestCompare:
    def test_within_tolerance_passes(self, gate):
        regressions, _ = gate.compare(_payload(10000.0), _payload(8000.0))
        assert regressions == []

    def test_beyond_tolerance_fails(self, gate):
        regressions, _ = gate.compare(_payload(10000.0), _payload(7000.0))
        metrics = {item["metric"] for item in regressions}
        assert "events_per_s" in metrics
        for item in regressions:
            assert item["drop"] == pytest.approx(0.3)

    def test_ratio_metrics_gate_sections(self, gate):
        regressions, _ = gate.compare(
            _payload(10000.0, speedup=2.0), _payload(10000.0, speedup=1.0)
        )
        assert [item["metric"] for item in regressions] == ["speedup"]
        assert regressions[0]["key"] == (("section", "session_reuse"),)

    def test_improvement_never_fails(self, gate):
        regressions, _ = gate.compare(_payload(10000.0), _payload(90000.0))
        assert regressions == []

    def test_wall_time_derives_throughput(self, gate):
        record = {"family": "theta", "events": 1000, "linear_wall_s": 2.0}
        metrics = gate.throughput_metrics(record)
        assert metrics == {"events_per_s[linear]": 500.0}

    def test_smoke_mismatch_is_skipped_not_failed(self, gate):
        regressions, notes = gate.compare(
            _payload(10000.0), _payload(10.0, smoke=True)
        )
        assert regressions == []
        assert any("incomparable" in note for note in notes)

    def test_smoke_scale_gates_ratios_not_absolutes(self, gate):
        # Absolute throughput on millisecond walls is load noise:
        # a 40% drop at smoke scale must not fail the gate...
        regressions, notes = gate.compare(
            _payload(10000.0, smoke=True), _payload(6000.0, smoke=True)
        )
        assert regressions == []
        assert any("not gated" in note for note in notes)
        # ...but a collapsed speedup ratio still does (widened bound).
        regressions, _ = gate.compare(
            _payload(10000.0, speedup=3.0, smoke=True),
            _payload(10000.0, speedup=1.0, smoke=True),
        )
        assert [item["metric"] for item in regressions] == ["speedup"]
        assert regressions[0]["tolerance"] == gate.SMOKE_RATIO_TOLERANCE

    def test_new_and_missing_runs_are_notes(self, gate):
        baseline, current = _payload(10000.0), _payload(10000.0)
        current["runs"][0] = dict(current["runs"][0], mode="serial")
        regressions, notes = gate.compare(baseline, current)
        assert regressions == []
        assert any("missing" in note for note in notes)
        assert any("no baseline" in note for note in notes)

    def test_pairing_ignores_record_order(self, gate):
        runs = [
            dict(mode="serial", events_per_s=100.0),
            dict(mode="socket", events_per_s=10.0),
        ]
        baseline = {"smoke": False, "runs": runs}
        current = {"smoke": False, "runs": list(reversed(runs))}
        regressions, notes = gate.compare(baseline, current)
        assert regressions == [] and notes == []


class TestPlanQualityRows:
    """fig17 rows: paired by (algorithm, size), gated on plan quality."""

    @staticmethod
    def payload(cost: float, seconds: float = 0.01) -> dict:
        return {
            "smoke": False,
            "runs": [
                {"algorithm": "DP-B", "size": 12, "plan_s": seconds,
                 "normalized_cost": cost},
                {"algorithm": "DP-B", "size": 16, "plan_s": 5.0,
                 "normalized_cost": 3.8},
            ],
        }

    def test_normalized_cost_gates_as_a_ratio(self, gate):
        regressions, _ = gate.compare(self.payload(3.3), self.payload(2.0))
        assert [(r["metric"], dict(r["key"])["size"]) for r in regressions] == [
            ("normalized_cost", 12)
        ]

    def test_plan_seconds_are_informational(self, gate):
        regressions, notes = gate.compare(
            self.payload(3.3, seconds=0.01), self.payload(3.3, seconds=10.0)
        )
        assert regressions == [] and notes == []


class TestCheckCli:
    def _write(self, directory: Path, payload: dict) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "BENCH_fig99.json").write_text(json.dumps(payload))

    def test_exit_codes(self, gate, tmp_path, capsys):
        baselines, results = tmp_path / "baselines", tmp_path / "results"
        self._write(baselines, _payload(10000.0))
        self._write(results, _payload(9000.0))
        assert gate.main([
            "--baselines", str(baselines), "--results", str(results)
        ]) == 0
        self._write(results, _payload(2000.0))
        assert gate.main([
            "--baselines", str(baselines), "--results", str(results)
        ]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_missing_result_skips(self, gate, tmp_path, capsys):
        baselines = tmp_path / "baselines"
        self._write(baselines, _payload(10000.0))
        assert gate.main([
            "--baselines", str(baselines),
            "--results", str(tmp_path / "results"),
        ]) == 0
        assert "SKIP" in capsys.readouterr().out

    def test_update_refreshes_baselines(self, gate, tmp_path):
        baselines, results = tmp_path / "baselines", tmp_path / "results"
        self._write(results, _payload(4000.0))
        assert gate.main([
            "--update",
            "--baselines", str(baselines), "--results", str(results),
        ]) == 0
        refreshed = json.loads((baselines / "BENCH_fig99.json").read_text())
        assert refreshed["runs"][0]["events_per_s"] == 4000.0
