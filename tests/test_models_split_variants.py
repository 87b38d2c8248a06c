"""Unit tests: parameterised split-core variants (the §5 future-work API)."""

import pytest

from repro.core.simulator import ParrotSimulator
from repro.models.configs import model_tos
from repro.workloads.suite import application


class TestSplitVariants:
    def test_cold_width_configurable(self):
        narrow = model_tos(cold_width=2)
        assert narrow.cold_profile.rename_width == 2
        assert narrow.core.rename_width == 8  # hot core unchanged

    def test_switch_latency_configurable(self):
        config = model_tos(state_switch_latency=10)
        assert config.state_switch_latency == 10

    def test_variants_simulate(self):
        app = application("equake")
        for cold_width in (2, 4):
            config = model_tos(cold_width=cold_width, state_switch_latency=1)
            result = ParrotSimulator(config).simulate(app, length=3000)
            assert result.instructions == 3000

    def test_higher_switch_latency_never_speeds_up(self):
        app = application("equake")
        fast = ParrotSimulator(model_tos(state_switch_latency=1)).simulate(
            app, length=5000
        )
        slow = ParrotSimulator(model_tos(state_switch_latency=20)).simulate(
            app, length=5000
        )
        assert slow.cycles >= fast.cycles

    def test_narrower_cold_core_never_speeds_up(self):
        app = application("gcc")  # cold-heavy: the cold width matters
        wide_cold = ParrotSimulator(model_tos(cold_width=4)).simulate(
            app, length=5000
        )
        slim_cold = ParrotSimulator(model_tos(cold_width=2)).simulate(
            app, length=5000
        )
        assert slim_cold.ipc <= wide_cold.ipc * 1.01
