"""Unit + integration tests: trace capture into an artifact, and its replay.

A caller-built :class:`SyntheticWorkload` is captured with
:func:`compile_artifact` and replayed through :class:`TraceArtifact`; the
per-suite and per-model parity tests live in ``tests/test_artifacts.py``.
"""

import json
import shutil
from types import SimpleNamespace

import pytest

from repro.core.simulator import ParrotSimulator
from repro.errors import WorkloadError
from repro.models.configs import model_config
from repro.workloads.tracefile import TraceArtifact, compile_artifact

LENGTH = 3000


@pytest.fixture()
def trace_path(tmp_path, fp_workload):
    app = SimpleNamespace(name="test-fp", suite="test",
                          build=lambda: fp_workload)
    artifact = compile_artifact(app, 7, LENGTH, root=tmp_path)
    assert len(artifact) == LENGTH
    return artifact.path


class TestCapture:
    def test_roundtrip_is_exact(self, trace_path, fp_workload):
        trace = TraceArtifact.load(trace_path)
        original = fp_workload.stream(LENGTH)
        replay = trace.stream()
        for a, b in zip(original.take_batch(LENGTH), replay.take_batch(LENGTH),
                        strict=True):
            assert a.address == b.address
            assert a.taken == b.taken
            assert a.next_address == b.next_address
            assert a.mem_addr == b.mem_addr
            assert a.instr.iclass == b.instr.iclass
            assert a.instr.length == b.instr.length
        assert replay.take_batch(1) == []

    def test_uops_roundtrip(self, trace_path, fp_workload):
        trace = TraceArtifact.load(trace_path)
        by_address = {i.address: i for i in trace.instructions}
        stream = fp_workload.stream(500)
        for dyn in stream.take_batch(500):
            loaded = by_address[dyn.address]
            assert len(loaded.uops) == len(dyn.instr.uops)
            for a, b in zip(loaded.uops, dyn.instr.uops):
                assert (a.kind, a.dest, a.src1, a.src2, a.imm) == (
                    b.kind, b.dest, b.src1, b.src2, b.imm
                )

    def test_version_check(self, tmp_path, trace_path):
        bad = tmp_path / "bad"
        shutil.copytree(trace_path, bad)
        meta = json.loads((bad / "meta.json").read_text())
        meta["schema"] = 99
        (bad / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(WorkloadError, match="schema 99"):
            TraceArtifact.load(bad)


class TestReplaySimulation:
    def test_simulating_replay_matches_live_stream(self, trace_path, fp_workload):
        """A trace-driven run must reproduce the live-generated run."""
        trace = TraceArtifact.load(trace_path)
        sim = ParrotSimulator(model_config("TON"))
        live = sim.simulate(
            fp_workload.stream(LENGTH), app_name="live",
            program=fp_workload.program,
        )
        replayed = sim.simulate(trace.stream(), app_name="replay",
                                program=fp_workload.program)
        assert replayed.cycles == live.cycles
        assert replayed.coverage == live.coverage
        assert replayed.total_energy == live.total_energy

    def test_limit_truncates(self, trace_path):
        trace = TraceArtifact.load(trace_path)
        stream = trace.stream(limit=100)
        assert len(stream.take_batch(LENGTH)) == 100
        assert stream.take_batch(1) == []

    def test_trace_replay_without_program_prewarm(self, trace_path, fp_workload):
        """Replays work standalone, using the artifact's own prewarm image."""
        trace = TraceArtifact.load(trace_path)
        sim = ParrotSimulator(model_config("N"))
        result = sim.simulate(trace)
        assert result.instructions == len(trace)
        live = sim.simulate(fp_workload.stream(LENGTH), app_name="live",
                            program=fp_workload.program)
        assert result.cycles == live.cycles
        assert result.total_energy == live.total_energy
