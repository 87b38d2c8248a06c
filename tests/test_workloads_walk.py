"""The fused-block walker against a per-instruction oracle, and the
shared-record contract of both walkers.

:class:`~repro.workloads.stream.StreamWalker` steps whole compiled blocks
in ``next_batch``, ``skip`` and ``warm_skip``.  The oracle here is the
instruction-at-a-time interpreter it replaced, stepping the same
``_compile_plan`` plans on a second walker of the same program and seed:
every ragged interleaving of the three operations must yield the
oracle's records, skip profiles and warming effects, and leave the RNG,
the call stack and the pc bit-identical.

Records with a static outcome are prebuilt once and shared across visits
(``DynamicInstruction`` docstring): the generating walker keeps them in
its plans, the artifact walker in a per-artifact table.  Nothing the
simulator runs may mutate them.
"""

from __future__ import annotations

from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.simulator import ParrotSimulator, RunOptions
from repro.errors import WorkloadError
from repro.isa.opcodes import FLOW_SOFTWARE_INT, InstrClass
from repro.models.configs import MODEL_NAMES, model_config
from repro.sampling.config import SamplingConfig
from repro.workloads.program import ProgramBuilder
from repro.workloads.stream import (
    _DYN_CTI_FLOWS,
    InstructionStream,
    StreamWalker,
)
from repro.workloads.suite import application
from repro.workloads.tracefile import compile_artifact

#: Call-heavy integer codes (gcc, parser), a loop-dominated FP code and
#: an office app.
APPS = ("gcc", "parser", "swim", "crafty", "excel")

#: Splits around the block cap, a typical batch and one instruction.
SPLITS = (1, 7, 127, 128, 129, 4096)

LINE_SHIFT = 6


def reference_step(walker: StreamWalker, count: int) -> list[tuple]:
    """Step ``walker`` ``count`` instructions one at a time.

    The per-instruction interpreter over the walker's ``_compile_plan``
    plans: control draw, then address draw, per instruction.  Returns
    ``(instr, taken, next_address, mem_addr)`` per instruction.
    """
    out = []
    call_stack = walker._call_stack
    pc = walker._pc
    try:
        for _ in range(count):
            plan = walker._plans.get(pc)
            if plan is None:
                instr = walker.program.instructions.get(pc)
                if instr is None:
                    raise walker._unmapped_error(pc)
                plan = walker._compile_plan(instr)
            (instr, code, taken_target, fallthrough, next_taken,
             next_mem, next_index, switch_targets) = plan[:8]
            taken = code != 0
            if code == 1:
                taken = next_taken()
                next_address = taken_target if taken else fallthrough
            elif code == 2:
                next_address = taken_target
            elif code == 3:
                call_stack.append(fallthrough)
                next_address = taken_target
            elif code == 4:
                if not call_stack:
                    raise walker._empty_stack_error(pc)
                next_address = call_stack.pop()
            elif code == 5:
                next_address = switch_targets[next_index()]
            else:
                next_address = fallthrough
            mem_addr = next_mem() if next_mem is not None else None
            out.append((instr, taken, next_address, mem_addr))
            pc = next_address
    finally:
        walker._pc = pc
    return out


def warm_log(rows) -> list[tuple]:
    """The warming effects ``warm_skip`` makes over ``rows``, in order."""
    log = []
    last_line = -1
    for instr, taken, next_address, mem_addr in rows:
        line = instr.address >> LINE_SHIFT
        if line != last_line:
            log.append(("fetch", instr.address))
            last_line = line
        if 0 < instr.flow_code < FLOW_SOFTWARE_INT:
            log.append(("train", instr.address, taken, next_address))
        if mem_addr is not None:
            log.append(("touch", mem_addr))
    return log


def walker_pair(app_name: str, stream_seed: int | None):
    workload = application(app_name).build()
    seed = workload.seed ^ 0xC0FFEE if stream_seed is None else stream_seed
    return (StreamWalker(workload.program, seed),
            StreamWalker(workload.program, seed))


def as_rows(records) -> list[tuple]:
    return [(r.instr, r.taken, r.next_address, r.mem_addr) for r in records]


walks = st.tuples(
    st.sampled_from(APPS),
    st.one_of(st.none(), st.integers(0, 2**32 - 1)),
    st.lists(
        st.tuples(
            st.sampled_from(("next_batch", "skip", "warm_skip")),
            st.one_of(st.sampled_from(SPLITS), st.integers(1, 600)),
        ),
        min_size=1, max_size=12,
    ),
)


class TestFusedWalkMatchesOracle:
    @settings(max_examples=40, deadline=None)
    @given(walks)
    def test_ragged_interleavings(self, walk):
        app_name, stream_seed, ops = walk
        fused, oracle = walker_pair(app_name, stream_seed)
        for op, count in ops:
            want = reference_step(oracle, count)
            if op == "next_batch":
                assert as_rows(fused.next_batch(count)) == want
            elif op == "skip":
                profile = {}
                assert fused.skip(count, profile) == count
                expected = defaultdict(int)
                for instr, _, next_address, _ in want:
                    if instr.flow_code in _DYN_CTI_FLOWS:
                        expected[next_address] += 1
                assert profile == expected
            else:
                log = []
                skipped = fused.warm_skip(
                    count,
                    lambda a: log.append(("fetch", a)),
                    lambda m: log.append(("touch", m)),
                    lambda i, t, n: log.append(("train", i.address, t, n)),
                    LINE_SHIFT,
                )
                assert skipped == count
                assert log == warm_log(want)
            assert fused.rng.getstate() == oracle.rng.getstate()
            assert fused._call_stack == oracle._call_stack
            assert fused._pc == oracle._pc


def _fall_off_program():
    """Four plain instructions whose last falls through to an unmapped
    address; returns ``(program, unmapped_address)``."""
    builder = ProgramBuilder("fall-off", seed=1)
    entry = builder.place(builder.label("entry"))
    for _ in range(4):
        builder.emit(InstrClass.SIMPLE_ALU, dest=0, src1=1, src2=2)
    program = builder.finish(entry)
    last = program.instructions[max(program.instructions)]
    return program, last.fallthrough


class TestWalkFaults:
    @pytest.mark.parametrize("op", ["next_batch", "skip"])
    def test_flowing_to_an_unmapped_address_names_it(self, op):
        program, unmapped = _fall_off_program()
        walker = StreamWalker(program, seed=0)
        # Stopping inside the block never reaches the unmapped address.
        if op == "next_batch":
            assert len(walker.next_batch(3)) == 3
        else:
            assert walker.skip(3) == 3
        with pytest.raises(WorkloadError, match=f"{unmapped:#x}"):
            getattr(walker, op)(5)
        oracle = StreamWalker(program, seed=0)
        with pytest.raises(WorkloadError, match=f"{unmapped:#x}"):
            reference_step(oracle, 8)
        assert walker._pc == oracle._pc == unmapped

    def test_return_with_empty_stack_names_the_return(self):
        builder = ProgramBuilder("bare-return", seed=1)
        entry = builder.place(builder.label("entry"))
        builder.emit(InstrClass.SIMPLE_ALU, dest=0, src1=1, src2=2)
        ret = builder.ret()
        walker = StreamWalker(builder.finish(entry), seed=0)
        with pytest.raises(WorkloadError, match=f"empty call stack at {ret:#x}"):
            walker.next_batch(2)


def _static_rows(records):
    """Records of memory-free instructions grouped by their outcome."""
    groups = defaultdict(set)
    for record in records:
        if record.mem_addr is None and record.instr.flow_code != 4:
            key = (record.instr.address, record.taken, record.next_address)
            groups[key].add(id(record))
    return groups


def _fields(record) -> tuple:
    return (record.instr, record.taken, record.next_address, record.mem_addr)


LENGTH = 20_000


class TestSharedRecords:
    @pytest.mark.parametrize("app_name", ["gcc", "swim"])
    def test_generating_walker_shares_static_records(self, app_name):
        walker, _ = walker_pair(app_name, None)
        records = []
        for _ in range(10):
            records += walker.next_batch(2000)
        groups = _static_rows(records)
        assert groups
        for key, ids in groups.items():
            assert len(ids) == 1, key
        # Memory instructions allocate per visit.
        with_mem = [r for r in records if r.mem_addr is not None]
        assert with_mem
        assert len({id(r) for r in with_mem}) == len(with_mem)

    def test_artifact_walker_shares_static_records(self, tmp_path):
        app = application("gcc")
        artifact = compile_artifact(app, app.seed, LENGTH, root=tmp_path)
        walker = artifact.walker()
        records = walker.next_batch(LENGTH // 2)
        records += walker.next_batch(LENGTH)
        generated, _ = walker_pair("gcc", None)
        assert as_rows(records) == as_rows(generated.next_batch(LENGTH))
        assert as_rows(walker.materialize(0, LENGTH)) == as_rows(records)
        groups = _static_rows(
            r for r in records if r.instr.flow_code in (0, 2, 3, 6)
        )
        assert groups
        for key, ids in groups.items():
            assert len(ids) == 1, key

    @pytest.mark.filterwarnings("ignore::repro.errors.SamplingWarning")
    @pytest.mark.parametrize("app_name", ["gcc", "swim"])
    def test_simulation_never_mutates_shared_records(self, app_name,
                                                     tmp_path):
        app = application(app_name)
        workload = app.build()
        artifact = compile_artifact(app, app.seed, LENGTH, root=tmp_path)
        shared = [r for r in artifact._shared_records() if r is not None]
        walker = StreamWalker(workload.program, workload.seed ^ 0xC0FFEE)
        walker.skip(LENGTH)
        shared += [record for plan in walker._plans.values()
                   if plan[8] is not None for record in plan[8]]
        before = [_fields(record) for record in shared]
        for name in MODEL_NAMES:
            sim = ParrotSimulator(model_config(name))
            sim.simulate(artifact)
            sim.simulate(InstructionStream(walker, LENGTH),
                         program=workload.program)
        sampled = RunOptions(sampling=SamplingConfig.adaptive(),
                             estimate=True)
        ParrotSimulator(model_config("TON")).simulate(artifact, sampled)
        ParrotSimulator(model_config("TON")).simulate(
            InstructionStream(walker, 200_000), sampled, length=200_000,
            program=workload.program,
        )
        assert [_fields(record) for record in shared] == before
