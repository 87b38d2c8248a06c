"""Unit + integration tests: deterministic trace selection (§2.2)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    segments = [segment for segment, _ in selector.feed(list(instrs))]
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


def _mixed_stream(fragments=600, seed=7):
    """A committed stream that exercises every selection rule: joined
    loop iterations, inlined call/return pairs, outermost returns,
    software interrupts, indirect jumps, backward direct jumps and
    single- and multi-uop capacity closes, in a seeded random order."""
    rng = random.Random(seed)
    loop = [
        _dyn(0x1000),
        _dyn(0x1004, InstrClass.COND_BRANCH, taken=True, target=0x1010),
        _dyn(0x1010, InstrClass.COND_BRANCH, taken=False, target=0x1000),
        _dyn(0x1014, InstrClass.COND_BRANCH, taken=True, target=0x1000),
    ]
    inlined = [
        _dyn(0x2000, InstrClass.CALL_DIRECT, taken=True, target=0x5000),
        _dyn(0x5000, InstrClass.LOAD),
        _dyn(0x5004, InstrClass.RETURN_NEAR, taken=True, target=None,
             next_address=0x2005),
        _dyn(0x2005),
    ]
    outer_return = [
        _dyn(0x5000),
        _dyn(0x5004, InstrClass.RETURN_NEAR, taken=True, target=None,
             next_address=0x1000),
    ]
    fragments_by_kind = [
        loop,
        inlined,
        outer_return,
        [_dyn(0x3000, InstrClass.SOFTWARE_INT)],
        [_dyn(0x3100, InstrClass.INDIRECT_JUMP, taken=True, target=None,
              next_address=0x1000)],
        [_dyn(0x3200), _dyn(0x3204, InstrClass.DIRECT_JUMP, taken=True,
                            target=0x3200)],
        [_dyn(0x4000 + i * 4) for i in range(70)],
        [_dyn(0x6000 + i * 4, InstrClass.RMW) for i in range(23)],
    ]
    stream = []
    for _ in range(fragments):
        kind = rng.randrange(len(fragments_by_kind))
        stream.extend(fragments_by_kind[kind] * rng.choice((1, 1, 2, 5)))
    return stream


class TestFeedSplitInvariance:
    """Selection is a pure function of the stream, not of its batching."""

    @pytest.fixture(scope="class", params=["gcc", "mixed"])
    def committed(self, request):
        if request.param == "mixed":
            return _mixed_stream()
        from repro.workloads.suite import application

        # A real stream: calls, returns, indirect jumps and joined loops.
        return application("gcc").build().stream(30_000).take_batch(30_000)

    @staticmethod
    def _run(stream, sizes):
        """Feed ``stream`` in consecutive batches of ``sizes`` (the last
        size repeats until the stream is spent)."""
        selector = TraceSelector()
        emitted = []
        fed = 0
        i = 0
        while fed < len(stream):
            size = sizes[min(i, len(sizes) - 1)]
            batch = stream[fed:fed + size]
            emitted.extend(selector.feed(batch, fed))
            fed += len(batch)
            i += 1
        carried = (
            [id(dyn) for dyn in selector._instructions],
            selector._uops,
            selector._start,
            selector._directions,
            selector._num_branches,
            selector._context_depth,
            selector._pending.tid if selector._pending else None,
            selector._pending.join_count if selector._pending else None,
            selector._pending_base_tid,
        )
        segments = [
            (seg.tid, seg.join_count, seg.complete, seg.num_instructions,
             seg.uop_count, position)
            for seg, position in emitted
        ]
        flushed = [(seg.tid, seg.join_count, seg.complete)
                   for seg in selector.flush()]
        return segments, dict(selector.terminations), carried, flushed

    @pytest.mark.parametrize("sizes", [[1], [7], [4096], [3, 1, 4096, 7, 64]],
                             ids=["ones", "sevens", "4096", "ragged"])
    def test_splits_match_one_batch(self, committed, sizes):
        whole = self._run(committed, [len(committed)])
        assert whole[0], "the stream must complete segments"
        assert whole[1]["joined"] > 0
        assert self._run(committed, sizes) == whole

    @settings(max_examples=10, deadline=None)
    @given(sizes=st.lists(st.integers(1, 5000), min_size=1, max_size=30))
    def test_random_splits_match_one_batch(self, committed, sizes):
        assert (self._run(committed, sizes)
                == self._run(committed, [len(committed)]))
