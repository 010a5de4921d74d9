"""Self-tests of the benchmark, at a tiny scale.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
sys.path.insert(0, str(RUN.parent))

import digest_table  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
SCALE = "0.05"


def bench(workload: str, work: Path, trace: int = 0,
          cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "17",
         "--seconds", "0.1", "--trace", str(trace), "--scale", SCALE,
         "--workdir", str(work)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_and_no_failures(tmp_path, workload, trace):
    result = result_of(bench(workload, tmp_path, trace))
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} == \
        {metric["name"]: metric["unit"] for metric in named}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    if not trace:
        assert result["metrics"]["ok_frac"]["value"] == 1.0
    elif workload == "warm_report":
        # every result is in the store: the detailed core never runs
        assert result["metrics"]["uarch.busy_s"]["value"] == 0.0


def test_corrupted_digest_fails_an_operation(tmp_path):
    assert result_of(bench("paper_cold", tmp_path))["failed"] == 0
    reference = tmp_path / "digests" / f"scale={SCALE}-seed=17.json"
    digests = json.loads(reference.read_text())
    digests["selection/sha"] = "0" * 64
    reference.write_text(json.dumps(digests))
    result = result_of(bench("paper_cold", tmp_path))
    assert not result["correct"]
    assert result["failed"] > 0
    assert result["metrics"]["ok_frac"]["value"] < 1.0


def test_committed_table_anchors_a_fresh_work_directory(tmp_path,
                                                        monkeypatch):
    table = tmp_path / "digests.json"
    table.write_text(json.dumps({"scale=1/seed=3": {
        "result/sha/MegaBOOM": "a", "selection/sha": "b"}}))
    monkeypatch.setattr(run, "DIGEST_TABLE", table)
    verified = run.Digests(tmp_path / "work", 1.0, 3)
    produced = {"result/sha/MegaBOOM": "a", "selection/sha": "c"}
    assert verified.failures(produced, 2) == 1
    # without a table the first pass is the only reference
    unverified = run.Digests(tmp_path / "work", 1.0, 4)
    assert unverified.committed is None
    assert unverified.failures(produced, 2) == 0
    again = run.Digests(tmp_path / "work", 1.0, 4)
    assert again.failures({**produced, "selection/sha": "d"}, 2) == 1


def test_committed_tables_cover_every_listed_seed():
    tables = json.loads(run.DIGEST_TABLE.read_text())
    assert set(tables) == {f"scale={scale:g}/seed={seed}"
                           for scale, seed in digest_table.TABLES}
    for key, digests in tables.items():
        # 11 x 3 results, 11 selections and 7 report sections
        assert len(digests) == 11 * 3 + 11 + 7, key


@pytest.mark.parametrize("change", ["missing", "unnamed"])
def test_metric_names_must_match_exactly(tmp_path, change):
    spec = json.loads(json.dumps(SPEC))
    if change == "missing":
        spec["end_to_end"].append({"name": "absent_s", "unit": "s",
                                   "better": "lower", "bound": 0.1})
        culprit = "absent_s"
    else:
        spec["end_to_end"] = [metric for metric in spec["end_to_end"]
                              if metric["name"] != "cpu_s"]
        culprit = "cpu_s"
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    (tmp_path / "src").symlink_to(ROOT / "src")
    completed = bench("warm_report", tmp_path / "work", cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout == ""
    assert culprit in completed.stderr


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    completed = bench("paper_cold", tmp_path / "work", cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout == ""
