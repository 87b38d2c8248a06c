"""Unit + integration tests: deterministic trace selection (§2.2)."""

import pytest

from repro.core.simulator import segment_stream
from repro.isa.decoder import decode_template
from repro.isa.instruction import DynamicInstruction, MacroInstruction
from repro.isa.opcodes import InstrClass
from repro.trace.selection import TraceSelector
from repro.trace.trace import TRACE_CAPACITY_UOPS


def _dyn(address, iclass=InstrClass.SIMPLE_ALU, taken=False, target=None,
         length=4, next_address=None):
    instr = MacroInstruction(
        address=address, length=length, iclass=iclass,
        uops=decode_template(iclass, dest=0, src1=1, src2=2, imm=3),
        taken_target=target,
    )
    if next_address is None:
        next_address = target if taken else instr.fallthrough
    return DynamicInstruction(instr, taken=taken, next_address=next_address)


def _feed_all(selector, instrs):
    segments = []
    for dyn in instrs:
        segments.extend(selector.advance(dyn) or ())
    segments.extend(selector.flush())
    return segments


class TestTermination:
    def test_backward_taken_branch_terminates(self):
        instrs = [
            _dyn(0x1000),
            _dyn(0x1004, InstrClass.COND_BRANCH, taken=True, target=0x1000),
            _dyn(0x1000),
        ]
        segments = _feed_all(TraceSelector(), instrs)
        assert len(segments) == 2
        assert segments[0].num_instructions == 2
        assert segments[0].tid.direction_string() == "T"

    def test_forward_taken_branch_continues(self):
        instrs = [
            _dyn(0x1000, InstrClass.COND_BRANCH, taken=True, target=0x2000),
            _dyn(0x2000),
        ]
        segments = _feed_all(TraceSelector(), instrs)
        assert len(segments) == 1
        assert segments[0].num_instructions == 2

    def test_indirect_jump_terminates(self):
        instrs = [
            _dyn(0x1000),
            _dyn(0x1004, InstrClass.INDIRECT_JUMP, taken=True, target=None,
                 next_address=0x3000),
            _dyn(0x3000),
        ]
        segments = _feed_all(TraceSelector(), instrs)
        assert segments[0].num_instructions == 2
        assert TraceSelector().terminations is not None

    def test_software_interrupt_terminates(self):
        instrs = [
            _dyn(0x1000, InstrClass.SOFTWARE_INT, taken=False, target=None),
            _dyn(0x1002),
        ]
        selector = TraceSelector()
        segments = _feed_all(selector, instrs)
        assert segments[0].num_instructions == 1
        assert selector.terminations["exception"] == 1

    def test_return_inside_context_is_inlined(self):
        """CALL then RETURN stays in one trace (the context counter)."""
        instrs = [
            _dyn(0x1000, InstrClass.CALL_DIRECT, taken=True, target=0x5000),
            _dyn(0x5000),
            _dyn(0x5004, InstrClass.RETURN_NEAR, taken=True, target=None,
                 next_address=0x1005),
            _dyn(0x1005),
        ]
        selector = TraceSelector()
        segments = _feed_all(selector, instrs)
        assert len(segments) == 1
        assert segments[0].num_instructions == 4

    def test_return_exiting_outermost_context_terminates(self):
        instrs = [
            _dyn(0x5000),
            _dyn(0x5004, InstrClass.RETURN_NEAR, taken=True, target=None,
                 next_address=0x1005),
            _dyn(0x1005),
        ]
        selector = TraceSelector()
        segments = _feed_all(selector, instrs)
        assert segments[0].num_instructions == 2
        assert selector.terminations["return_exit"] == 1

    def test_capacity_limit(self):
        # 70 single-uop instructions with no CTIs: must split at 64 uops.
        instrs = [_dyn(0x1000 + i * 4) for i in range(70)]
        segments = _feed_all(TraceSelector(), instrs)
        assert segments[0].uop_count <= TRACE_CAPACITY_UOPS
        assert sum(s.num_instructions for s in segments) == 70

    def test_multi_uop_capacity_respected(self):
        instrs = [_dyn(0x1000 + i * 4, InstrClass.RMW) for i in range(30)]
        segments = _feed_all(TraceSelector(), instrs)
        assert all(s.uop_count <= TRACE_CAPACITY_UOPS for s in segments)


class TestJoining:
    def _loop_iteration(self, taken=True):
        return [
            _dyn(0x1000),
            _dyn(0x1004),
            _dyn(0x1008, InstrClass.COND_BRANCH, taken=taken, target=0x1000),
        ]

    def test_identical_iterations_join(self):
        instrs = []
        for _ in range(4):
            instrs += self._loop_iteration()
        segments = _feed_all(TraceSelector(), instrs)
        assert any(s.join_count >= 2 for s in segments)
        assert sum(s.num_instructions for s in segments) == 12

    def test_joined_tid_concatenates_directions(self):
        instrs = self._loop_iteration() + self._loop_iteration()
        segments = _feed_all(TraceSelector(), instrs)
        joined = [s for s in segments if s.join_count == 2]
        assert joined
        assert joined[0].tid.direction_string() == "TT"

    def test_joining_respects_capacity(self):
        # Iterations of ~22 uops: at most 2 fit a 64-uop frame.
        iteration = [_dyn(0x1000 + i * 4, InstrClass.RMW) for i in range(7)]
        iteration.append(
            _dyn(0x1000 + 7 * 4, InstrClass.COND_BRANCH, taken=True, target=0x1000)
        )
        instrs = []
        for _ in range(6):
            instrs += iteration
        segments = _feed_all(TraceSelector(), instrs)
        assert all(s.uop_count <= TRACE_CAPACITY_UOPS for s in segments)
        assert any(s.join_count >= 2 for s in segments)

    def test_different_paths_do_not_join(self):
        instrs = self._loop_iteration(taken=True)
        # Same start, different internal direction on the final branch.
        instrs += [
            _dyn(0x1000),
            _dyn(0x1004),
            _dyn(0x1008, InstrClass.COND_BRANCH, taken=False, target=0x1000),
        ]
        segments = _feed_all(TraceSelector(), instrs)
        assert all(s.join_count == 1 for s in segments)


class TestDeterminism:
    def test_same_stream_same_partition(self, fp_workload):
        seg1 = [s.tid for s in segment_stream(fp_workload.stream(4000))]
        seg2 = [s.tid for s in segment_stream(fp_workload.stream(4000))]
        assert seg1 == seg2

    def test_partition_covers_stream_exactly(self, int_workload):
        segments = list(segment_stream(int_workload.stream(4000)))
        assert sum(s.num_instructions for s in segments) == 4000
        # Segment boundaries are contiguous in the dynamic stream.
        flat = [d for s in segments for d in s.instructions]
        for prev, nxt in zip(flat, flat[1:]):
            assert nxt.address == prev.next_address

    def test_tid_identifies_path(self, int_workload):
        """Two segments with equal TIDs must have identical address paths."""
        segments = list(segment_stream(int_workload.stream(6000)))
        by_tid = {}
        for segment in segments:
            path = tuple(d.address for d in segment.instructions)
            if segment.tid in by_tid:
                assert by_tid[segment.tid] == path
            else:
                by_tid[segment.tid] = path
