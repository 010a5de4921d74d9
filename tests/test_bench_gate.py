"""`repro-bench --check`: a gated metric on only one side fails the gate."""

from __future__ import annotations

import json

import pytest

from repro import bench


def _snapshot(**metrics):
    return {"date": "2026-01-01",
            "metrics": {"calibration.ops_per_s": 1e6, **metrics}}


def test_metric_missing_from_baseline_fails():
    current = _snapshot(**{"core.cycles_per_s": 1e4,
                           "serve.sweeps_per_s": 10.0})
    baseline = _snapshot(**{"core.cycles_per_s": 1e4})
    assert bench.regression_failures(current, baseline) == [
        "serve.sweeps_per_s: missing from the baseline"]


def test_metric_missing_from_current_run_fails():
    current = _snapshot(**{"core.cycles_per_s": 1e4})
    baseline = _snapshot(**{"core.cycles_per_s": 1e4,
                            "serve.sweeps_per_s": 10.0})
    assert bench.regression_failures(current, baseline) == [
        "serve.sweeps_per_s: missing from the current run"]


def test_ungated_metrics_may_differ():
    current = _snapshot(**{"core.cycles_per_s": 1e4,
                           "functional.reference.instr_per_s": 1e6,
                           "stage.bbv_profile_s": 0.1})
    baseline = _snapshot(**{"core.cycles_per_s": 1e4, "peak_rss_kb": 1e5})
    assert bench.regression_failures(current, baseline) == []


@pytest.mark.parametrize("side", ["baseline", "current"])
def test_check_exits_nonzero_on_a_one_sided_metric(tmp_path, monkeypatch,
                                                   capsys, side):
    full = _snapshot(**{"core.cycles_per_s": 1e4,
                        "serve.sweeps_per_s": 10.0})
    partial = _snapshot(**{"core.cycles_per_s": 1e4})
    current, baseline = (full, partial) if side == "baseline" \
        else (partial, full)
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(baseline))
    monkeypatch.setattr(bench, "run_bench", lambda **kwargs: current)
    code = bench.main(["--baseline", str(path), "--check", "--no-write"])
    assert code == 1
    assert "serve.sweeps_per_s: missing" in capsys.readouterr().err
