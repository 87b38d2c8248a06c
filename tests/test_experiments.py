"""Unit + integration tests: aggregation, runner, figure generators."""

import math

import pytest

from repro.core.results import SimulationResult
from repro.experiments.aggregate import (
    OVERALL,
    arithmetic_mean,
    by_suite,
    geomean,
    paired_ratio_by_suite,
)
from repro.experiments.figures import (
    FIGURE_GENERATORS,
    FigureData,
    fig4_1,
    fig4_7,
    fig4_8,
    fig4_11,
    headline,
    table3_1,
    table3_2,
)
from repro.experiments.runner import ExperimentRunner


def _result(app, suite, ipc=1.0, energy=1000.0, instructions=1000):
    result = SimulationResult(app_name=app, suite=suite, model_name="X")
    result.instructions = instructions
    result.cycles = instructions / ipc
    from repro.power.energy import EnergyResult
    result.energy = EnergyResult(dynamic=energy, leakage=0.0)
    return result


class TestAggregation:
    def test_geomean_basics(self):
        assert geomean([1, 4]) == pytest.approx(2.0)
        assert geomean([]) == 0.0
        assert geomean([0, 5]) == pytest.approx(5.0)  # non-positives skipped

    def test_arithmetic_mean(self):
        assert arithmetic_mean([1, 2, 3]) == 2.0
        assert arithmetic_mean([]) == 0.0

    def test_by_suite_groups_and_overall(self):
        results = [
            _result("a", "SpecInt", ipc=1.0),
            _result("b", "SpecInt", ipc=4.0),
            _result("c", "SpecFP", ipc=2.0),
        ]
        out = by_suite(results, lambda r: r.ipc)
        assert out["SpecInt"] == pytest.approx(2.0)
        assert out["SpecFP"] == pytest.approx(2.0)
        assert out[OVERALL] == pytest.approx((1 * 4 * 2) ** (1 / 3))

    def test_paired_ratio(self):
        base = [_result("a", "SpecInt", ipc=1.0), _result("b", "SpecFP", ipc=2.0)]
        test = [_result("a", "SpecInt", ipc=1.2), _result("b", "SpecFP", ipc=2.2)]
        out = paired_ratio_by_suite(test, base, lambda r: r.ipc)
        assert out["SpecInt"] == pytest.approx(0.2)
        assert out[OVERALL] == pytest.approx(math.sqrt(1.2 * 1.1) - 1)


class TestRunner:
    def test_memoisation(self):
        runner = ExperimentRunner(length=1500, max_apps=2)
        first = runner.result("N", "gzip")
        assert runner.result("N", "gzip") is first
        assert runner.runs_cached == 1

    def test_grid_shares_cache(self):
        runner = ExperimentRunner(length=1500, max_apps=2)
        runner.grid(["N", "TON"])
        cached = runner.runs_cached
        runner.grid(["N", "TON"])
        assert runner.runs_cached == cached

    def test_unknown_model_rejected(self):
        from repro.errors import ExperimentError
        with pytest.raises(ExperimentError):
            ExperimentRunner().result("QQ", "gzip")

    def test_runner_exposes_engine_counters(self, tmp_path):
        runner = ExperimentRunner(
            length=1200, max_apps=2, cache=True, cache_dir=tmp_path
        )
        runner.result("N", "gzip")
        assert runner.simulations_run == 1 and runner.cache_hits == 0
        runner.result("N", "gzip")  # memo hit: no store read, no run
        assert runner.simulations_run == 1 and runner.cache_hits == 0

        fresh = ExperimentRunner(
            length=1200, max_apps=2, cache=True, cache_dir=tmp_path
        )
        assert fresh.result("N", "gzip") == runner.result("N", "gzip")
        assert fresh.simulations_run == 0 and fresh.cache_hits == 1


@pytest.fixture(scope="module")
def small_runner():
    return ExperimentRunner(length=4000, max_apps=5)


class TestFigures:
    def test_fig4_1_structure(self, small_runner):
        fig = fig4_1(small_runner)
        assert set(fig.series) == {"TN/N", "TON/N", "TW/W", "TOW/W"}
        assert OVERALL in fig.series["TON/N"]
        assert "Figure 4.1" in fig.format()

    def test_fig4_7_has_three_series(self, small_runner):
        fig = fig4_7(small_runner)
        assert len(fig.series) == 3
        for values in fig.series.values():
            assert all(v >= 0 for v in values.values())

    def test_fig4_8_coverage_in_unit_interval(self, small_runner):
        fig = fig4_8(small_runner)
        for value in fig.series["coverage"].values():
            assert 0.0 <= value <= 1.0

    def test_fig4_11_shares_sum_to_one(self, small_runner):
        fig = fig4_11(small_runner)
        for label, shares in fig.series.items():
            assert sum(shares.values()) == pytest.approx(1.0, abs=1e-6), label

    def test_headline_contains_three_models(self, small_runner):
        fig = headline(small_runner)
        assert set(fig.series) == {"W", "TON", "TOW"}

    def test_all_generators_run(self, small_runner):
        for name, generator in FIGURE_GENERATORS.items():
            fig = generator(small_runner)
            assert isinstance(fig, FigureData)
            assert fig.series, name
            assert fig.format()

    def test_tables_render(self):
        # The 2-D space (width x {base, +TC, +TC+opt}) plus the split TOS.
        t31 = table3_1()
        assert all(model in t31 for model in ("N", "W", "TN", "TW", "TON",
                                              "TOW", "TOS"))
        # 4K-entry predictor on N/W, 2K+2K on the trace-cache models,
        # 16K-uop trace cache.
        t32 = table3_2()
        assert "TOS" in t32
        assert all(size in t32 for size in ("4096", "2048", "16384"))

    def test_format_handles_missing_groups(self):
        fig = FigureData("F", "t")
        fig.series["a"] = {"g1": 0.5}
        fig.series["b"] = {"g2": 0.25}
        text = fig.format()
        assert "g1" in text and "g2" in text and "-" in text
