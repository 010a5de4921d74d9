"""Tests for the markdown report generator and energy metrics."""

import pytest

from repro.analysis.efficiency import (
    energy_delay_product,
    energy_delay_squared,
    energy_per_instruction_pj,
)
from repro.flow.experiment import FlowSettings
from repro.flow.report import generate_report
from repro.flow.sweep import SweepRunner


SETTINGS = FlowSettings(scale=0.06)


@pytest.fixture(scope="module")
def filled_cache(tmp_path_factory):
    cache = tmp_path_factory.mktemp("cache")
    runner = SweepRunner(SETTINGS, cache_dir=cache)
    return cache, generate_report(runner)


@pytest.fixture(scope="module")
def report_text(filled_cache):
    return filled_cache[1]


def test_report_over_filled_store_reprofiles_nothing(filled_cache):
    """Table II reads the store's profiles and selections: a report over
    a filled store computes neither stage, with the same Table II."""
    from repro.analysis.tables import format_table_ii, table_ii

    runner = SweepRunner(SETTINGS, cache_dir=filled_cache[0])
    report = generate_report(runner)
    stats = runner.store.stats()
    for stage in ("bbv_profile", "simpoint_selection"):
        assert stats[stage].misses == 0, stage
        assert stats[stage].hits > 0, stage
    assert format_table_ii(table_ii(SETTINGS)) in report


def test_report_contains_every_section(report_text):
    for heading in ("Table I", "Table II", "Figs. 5-7", "Fig. 8",
                    "Fig. 9", "Fig. 10", "Fig. 11", "Energy metrics",
                    "SimPoint speedup", "Key takeaways",
                    "Efficiency summary"):
        assert heading in report_text, heading


def test_report_mentions_all_workloads_and_configs(report_text):
    from repro.workloads.suite import workload_names

    for workload in workload_names():
        assert workload in report_text
    for config in ("MediumBOOM", "LargeBOOM", "MegaBOOM"):
        assert config in report_text


def test_report_is_markdown(report_text):
    assert report_text.startswith("# Study report")
    assert "| Benchmark |" in report_text
    assert "```" in report_text


class TestEnergyMetrics:
    def make_result(self, ipc=2.0, tile_mw=40.0):
        from repro.flow.results import ExperimentResult, SimPointRun
        from repro.power.report import ComponentPower, PowerReport

        result = ExperimentResult(
            workload="w", config_name="MegaBOOM", scale=1.0,
            total_instructions=1000, interval_size=100, num_intervals=10,
            chosen_k=1, coverage=1.0)
        report = PowerReport(config_name="MegaBOOM", workload="w",
                             cycles=100)
        report.components["x"] = ComponentPower(0.0, 0.0, tile_mw)
        result.runs = [SimPointRun(
            interval_index=0, weight=1.0, warmup_instructions=0,
            measured_instructions=200, cycles=100, ipc=ipc, report=report)]
        return result

    def test_energy_per_instruction(self):
        result = self.make_result(ipc=2.0, tile_mw=40.0)
        # 40 mW / (2 * 500 MHz) = 40 pJ per instruction.
        assert energy_per_instruction_pj(result) == pytest.approx(40.0)

    def test_edp_and_ed2p_ordering(self):
        fast = self.make_result(ipc=4.0, tile_mw=40.0)
        slow = self.make_result(ipc=1.0, tile_mw=40.0)
        assert energy_delay_product(fast) < energy_delay_product(slow)
        # ED^2P penalizes the slow design even harder.
        ratio_edp = energy_delay_product(slow) / energy_delay_product(fast)
        ratio_ed2p = energy_delay_squared(slow) / \
            energy_delay_squared(fast)
        assert ratio_ed2p > ratio_edp

    def test_zero_ipc_is_undefined(self):
        # None (not inf): the sentinel survives strict-JSON round trips.
        dead = self.make_result(ipc=0.0)
        dead.runs[0].ipc = 0.0
        assert energy_per_instruction_pj(dead) is None
        assert energy_delay_product(dead) is None
        assert energy_delay_squared(dead) is None
