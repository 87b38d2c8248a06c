"""Unit + property tests: whole-application synthesis and stream walking."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.isa.opcodes import InstrClass
from repro.workloads.generator import SyntheticWorkload
from repro.workloads.profiles import (
    dotnet_profile,
    multimedia_profile,
    office_profile,
    specfp_profile,
    specint_profile,
)
from repro.workloads.stream import InstructionStream


class TestProgramSynthesis:
    def test_stats_match_profile_structure(self, int_workload):
        stats = int_workload.stats
        profile = int_workload.profile
        assert stats.hot_kernels + stats.switch_kernels >= profile.n_hot_kernels - 1
        assert stats.cold_kernels == profile.n_cold_kernels
        assert stats.static_instructions > 100

    def test_program_validates(self, fp_workload, int_workload):
        fp_workload.program.validate()
        int_workload.program.validate()

    @pytest.mark.parametrize(
        "factory",
        [specint_profile, specfp_profile, office_profile,
         multimedia_profile, dotnet_profile],
    )
    def test_all_suite_profiles_synthesise_and_run(self, factory):
        workload = SyntheticWorkload(factory(), seed=3)
        stream = workload.stream(2000)
        assert len(stream.take_batch(5000)) == 2000


class TestStreamWalking:
    def test_stream_is_deterministic(self, fp_workload):
        s1 = fp_workload.stream(3000)
        s2 = fp_workload.stream(3000)
        for a, b in zip(s1.take_batch(3000), s2.take_batch(3000),
                        strict=True):
            assert a.address == b.address
            assert a.taken == b.taken
            assert a.mem_addr == b.mem_addr

    def test_different_stream_seeds_diverge(self, int_workload):
        s1 = int_workload.stream(3000, stream_seed=1)
        s2 = int_workload.stream(3000, stream_seed=2)
        diffs = sum(
            a.address != b.address
            for a, b in zip(s1.take_batch(3000), s2.take_batch(3000))
        )
        assert diffs > 0

    def test_control_flow_is_consistent(self, int_workload):
        """Each instruction's next_address must be the successor's address."""
        stream = int_workload.stream(5000)
        prev = None
        for dyn in stream.take_batch(5000):
            if prev is not None:
                assert dyn.address == prev.next_address
            prev = dyn

    def test_taken_semantics(self, int_workload):
        stream = int_workload.stream(5000)
        for dyn in stream.take_batch(5000):
            iclass = dyn.instr.iclass
            if iclass is InstrClass.COND_BRANCH:
                if dyn.taken:
                    assert dyn.next_address == dyn.instr.taken_target
                else:
                    assert dyn.next_address == dyn.instr.fallthrough
            elif dyn.is_cti:
                assert dyn.taken
            else:
                assert not dyn.taken
                assert dyn.next_address == dyn.instr.fallthrough

    def test_memory_instructions_carry_addresses(self, fp_workload):
        stream = fp_workload.stream(5000)
        seen_mem = 0
        for dyn in stream.take_batch(5000):
            has_mem_uop = any(u.is_mem for u in dyn.instr.uops)
            if dyn.mem_addr is not None:
                assert has_mem_uop
                seen_mem += 1
        assert seen_mem > 100

    def test_hot_cold_skew(self, fp_workload):
        """The hot/cold (90/10) paradigm: a small static footprint carries
        nearly all dynamic execution."""
        from collections import Counter
        stream = fp_workload.stream(10000)
        counts = Counter(dyn.address for dyn in stream.take_batch(10000))
        static_total = fp_workload.stats.static_instructions
        touched = len(counts)
        # Most static instructions (the cold region) were never executed.
        assert touched < static_total * 0.5
        # And among touched code, the hottest few dominate the stream.
        top_share = sum(c for _, c in counts.most_common(30)) / 10000
        assert top_share > 0.5


class TestInstructionStream:
    @given(st.integers(-5, 0))
    def test_nonpositive_limit_rejected(self, limit):
        with pytest.raises(WorkloadError):
            InstructionStream(iter([]), limit)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 400))
    def test_stream_yields_exactly_limit(self, limit):
        workload = SyntheticWorkload(specint_profile("prop"), seed=5)
        stream = workload.stream(limit)
        count = 0
        while batch := stream.take_batch(64):
            count += len(batch)
        assert count == stream.consumed == limit
        assert stream.take_batch(1) == []
