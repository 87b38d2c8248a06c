"""Integration tests: the PARROT machine simulator end to end."""

import pytest

from repro.core.simulator import ParrotSimulator, RunOptions
from repro.errors import SimulationError
from repro.models.configs import MODEL_NAMES, model_config
from repro.workloads.suite import application


class TestBasicRuns:
    @pytest.mark.parametrize("model", MODEL_NAMES)
    def test_every_model_simulates(self, model):
        result = ParrotSimulator(model_config(model)).simulate(
            application("gzip"), length=3000
        )
        assert result.instructions == 3000
        assert result.cycles > 0
        assert result.ipc > 0
        assert result.total_energy > 0
        assert result.model_name == model

    def test_zero_length_rejected(self):
        with pytest.raises(SimulationError):
            ParrotSimulator(model_config("N")).simulate(
                application("gzip"), length=0
            )

    def test_simulation_is_deterministic(self):
        sim = ParrotSimulator(model_config("TON"))
        r1 = sim.simulate(application("art"), length=4000)
        r2 = sim.simulate(application("art"), length=4000)
        assert r1.cycles == r2.cycles
        assert r1.total_energy == r2.total_energy
        assert r1.coverage == r2.coverage
        assert r1.events == r2.events

    def test_simulator_reusable_across_apps(self):
        sim = ParrotSimulator(model_config("TON"))
        r1 = sim.simulate(application("gzip"), length=2000)
        r2 = sim.simulate(application("swim"), length=2000)
        assert r1.app_name == "gzip" and r2.app_name == "swim"
        # No state leaks: rerunning gzip reproduces the first result.
        again = sim.simulate(application("gzip"), length=2000)
        assert again.cycles == r1.cycles


class TestColdOnlyModels:
    def test_no_hot_activity_without_trace_cache(self, swim_result_n):
        result = swim_result_n
        assert result.coverage == 0.0
        assert result.uops_hot == 0
        assert result.trace_stats.hot_executions == 0
        assert result.events.get("tcache_read", 0) == 0
        assert result.events.get("tpred_lookup", 0) == 0

    def test_cold_pipeline_decodes_everything(self, swim_result_n):
        assert swim_result_n.events["decode_instr"] == swim_result_n.instructions


class TestTraceCacheModels:
    def test_hot_execution_happens(self, swim_result_ton):
        result = swim_result_ton
        assert result.coverage > 0.5
        assert result.uops_hot > 0
        assert result.trace_stats.traces_constructed > 0

    def test_hot_coverage_reduces_decode(self, swim_result_ton):
        assert swim_result_ton.events["decode_instr"] < swim_result_ton.instructions

    def test_optimization_happens_on_ton(self, swim_result_ton):
        stats = swim_result_ton.trace_stats
        assert stats.traces_optimized > 0
        assert stats.optimized_executions > 0
        assert swim_result_ton.uop_reduction > 0

    def test_tn_never_optimizes(self):
        result = ParrotSimulator(model_config("TN")).simulate(
            application("swim"), length=6000
        )
        assert result.trace_stats.traces_optimized == 0
        assert result.uop_reduction == 0.0
        assert result.events.get("optimizer_uop", 0) == 0

    def test_uop_accounting_consistent(self, swim_result_ton):
        result = swim_result_ton
        # Hot + cold uops cover all committed instructions' uops, up to
        # optimization shrinking hot traces.
        assert result.uops_cold > 0
        assert result.uops_hot > 0

    def test_instruction_partition(self, swim_result_ton):
        result = swim_result_ton
        assert 0 <= result.hot_instructions <= result.instructions


class TestSplitMachine:
    def test_tos_switches_state(self):
        result = ParrotSimulator(model_config("TOS")).simulate(
            application("swim"), length=6000
        )
        assert result.events.get("state_switch", 0) > 0
        assert result.coverage > 0.3

    def test_tos_completes_on_irregular_code(self):
        result = ParrotSimulator(model_config("TOS")).simulate(
            application("gcc"), length=4000
        )
        assert result.instructions == 4000


class TestPrewarm:
    def test_prewarm_reduces_memory_traffic(self):
        sim = ParrotSimulator(model_config("N"))
        warm = sim.simulate(application("equake"), length=4000)
        cold = sim.simulate(
            application("equake"), RunOptions(prewarm=False), length=4000
        )
        assert warm.events.get("memory_access", 0) < cold.events.get("memory_access", 1)
        assert warm.ipc >= cold.ipc


class TestCustomStream:
    def test_run_stream_api(self, fp_workload):
        sim = ParrotSimulator(model_config("TON"))
        result = sim.simulate(
            fp_workload.stream(2000),
            app_name="custom-fp", suite="Custom",
            program=fp_workload.program,
        )
        assert result.app_name == "custom-fp"
        assert result.instructions == 2000


class TestEnergyAccounting:
    def test_energy_components_populated(self, swim_result_ton):
        energy = swim_result_ton.energy
        assert energy is not None
        assert energy.by_component["frontend"] > 0
        assert energy.by_component["trace_unit"] > 0
        assert energy.by_component["leakage"] > 0

    def test_core_cycles_event_matches_cycles(self, swim_result_ton):
        assert swim_result_ton.events["core_cycle"] == pytest.approx(
            swim_result_ton.cycles
        )

    def test_n_has_no_trace_unit_energy(self, swim_result_n):
        assert swim_result_n.energy.by_component["trace_unit"] == 0.0
