"""Warm commands load only the read path.

``repro-cli`` start-up and a report served from a filled store must not
import the compute stack: numpy, the functional executor, the detailed
core, k-means, the checkpoint creator, the invariant checker, the job
server or a process pool.  Nor may a warm report import build-side code
(the workload generators, the assembler) or the trace-only renderers.
Each check runs in a fresh interpreter, so nothing this test process
imported leaks into the answer.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.flow.experiment import FlowSettings
from repro.flow.sweep import SweepRunner

SETTINGS = FlowSettings(scale=0.05)

#: modules that only a store miss (or a server, or a parallel sweep) needs
COMPUTE_MODULES = (
    "numpy",
    "asyncio",
    "multiprocessing",
    "repro.sim.executor",
    "repro.sim.semantics",
    "repro.uarch.core",
    "repro.uarch.ftrace",
    "repro.simpoint.kmeans",
    "repro.checkpoint.creator",
    "repro.check.invariants",
    "repro.serve.server",
)

#: build-side and trace-only modules (with their submodules)
BUILD_AND_TRACE_MODULES = (
    "repro.workloads.generators",
    "repro.isa.assembler",
    "repro.obs.render",
    "repro.obs.progress",
)


def _loaded_after(code: str, modules=COMPUTE_MODULES, then: str = "") \
        -> list[str]:
    """Which of ``modules`` (or their submodules) a fresh interpreter
    holds after ``code``; ``then`` runs after the check."""
    probe = (f"{code}\nimport json, sys\n"
             f"loaded = [name for name in {modules!r} if any("
             f"module == name or module.startswith(name + '.') "
             f"for module in sys.modules)]\n{then}\n"
             f"print(json.dumps(loaded))")
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def filled_store(tmp_path_factory):
    store = tmp_path_factory.mktemp("store")
    SweepRunner(SETTINGS, cache_dir=store).run_all()
    return store


def test_cli_import_loads_no_compute_module():
    assert _loaded_after("import repro.cli") == []


def test_warm_report_loads_no_compute_module(filled_store):
    code = f"""
import repro.cli
from repro.flow import FlowSettings, SweepRunner
from repro.flow.report import generate_report

runner = SweepRunner(FlowSettings(scale={SETTINGS.scale}),
                     cache_dir={str(filled_store)!r})
report = generate_report(runner)
assert "Table II" in report
misses = sum(stats.misses for stats in runner.store.stats().values())
assert misses == 0, misses
"""
    # a cold build still works in the same interpreter afterwards
    build = """
from repro.workloads import build_program
assert build_program("sha", scale=0.05).instructions
"""
    assert _loaded_after(code, COMPUTE_MODULES + BUILD_AND_TRACE_MODULES,
                         then=build) == []


def test_config_module_does_not_load_the_core():
    assert "repro.uarch.core" not in _loaded_after("import repro.uarch.config")
