"""The plan executors against the per-uop reference.

Hot traces replay through :meth:`TimingCore.run_hot_plan` and cold
segments through :meth:`TimingCore.run_cold_plan`; both hold the whole
per-uop state in locals and charge static event totals once per plan.
:meth:`TimingCore.run_uop` is the reference those fast paths must match.
These Hypothesis properties drive both sides with the same random uops,
back to back from the dirty state earlier segments left (dispatch
backlog, populated rings and slot tables), and compare the full core
state, value types included.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.simulator import compile_hot_plan
from repro.isa.instruction import Uop
from repro.isa.opcodes import FuClass, UopKind
from repro.isa.registers import REG_NONE
from repro.pipeline.core import TimingCore, compile_plan_stats, compile_uop_row
from repro.pipeline.resources import CoreParams


def _units(count: int) -> dict[FuClass, int]:
    return {fu: count for fu in FuClass if fu is not FuClass.NONE}


#: A wide machine (mostly uncontended issue), a narrow one whose single
#: unit per FU class makes issue contend, one whose ROB is as small as
#: its window (so the ROB gate binds) and one with a tiny window.
_GEOMETRIES = (
    CoreParams(
        name="wide-test", rename_width=4, issue_width=16, commit_width=4,
        rob_size=128, window_size=48,
        fu_counts=_units(16),
    ),
    CoreParams(
        name="narrow-test", rename_width=3, issue_width=2, commit_width=3,
        rob_size=24, window_size=6,
        fu_counts=_units(1),
    ),
    CoreParams(
        name="rob-test", rename_width=4, issue_width=4, commit_width=2,
        rob_size=6, window_size=6,
        fu_counts=_units(4),
    ),
    CoreParams(
        name="window-test", rename_width=4, issue_width=4, commit_width=4,
        rob_size=64, window_size=3,
        fu_counts=_units(4),
    ),
)
_PER_CYCLE = 8

#: Uop kinds covering every FU class but the branch unit, plus FU-less
#: uops, with latencies from 1 to 20.
_KINDS = (
    UopKind.NOP, UopKind.ALU, UopKind.MUL, UopKind.DIV, UopKind.FP_ADD,
    UopKind.FP_MUL, UopKind.LOAD, UopKind.STORE, UopKind.SIMD2,
)
_REGS = st.integers(min_value=REG_NONE, max_value=15)


def _core_state(core: TimingCore) -> tuple:
    return (
        list(core.reg_ready), core.fetch_cycle, core._last_dispatch,
        core._disp_cycle, core._disp_used, list(core._rob_ring),
        core._rob_idx, list(core._win_ring), core._win_idx,
        core._commit_time, dict(core._issue_slots),
        {fu: dict(slots) for fu, slots in core._fu_slots.items()},
        core.uops_executed, core._since_prune, core._n_src_reads,
        core._n_dest_writes, dict(core._n_exec),
    )


def _types(state) -> list:
    return ([type(v) for v in state[0]] + [type(v) for v in state[5]]
            + [type(v) for v in state[7]]
            + [type(v) for v in state[1:5]] + [type(state[9])])


def _assert_same(plan_core: TimingCore, reference: TimingCore) -> None:
    after_plan = _core_state(plan_core)
    after_reference = _core_state(reference)
    assert after_plan == after_reference
    # Bit-identity includes types: ints stay ints, commits floats.
    assert _types(after_plan) == _types(after_reference)


class _Instr:
    address = 0


class _Dyn:
    """The fields a plan replay reads from a dynamic instruction."""

    instr = _Instr()

    def __init__(self, mem_addr):
        self.mem_addr = mem_addr


@st.composite
def _uops(draw, origin: int) -> Uop:
    extra = draw(st.one_of(st.none(), st.tuples(_REGS),
                           st.tuples(_REGS, _REGS)))
    return Uop(
        kind=draw(st.sampled_from(_KINDS)),
        dest=draw(_REGS),
        src1=draw(_REGS),
        src2=draw(_REGS),
        origin=origin,
        dest2=draw(st.sampled_from((REG_NONE, REG_NONE, 7))),
        extra_srcs=extra,
    )


#: Load latencies the memory hierarchy reports: 0 keeps the uop's static
#: latency, as an L1 hit does.
_LATENCIES = st.sampled_from((0, 0, 12, 30))


@st.composite
def _hot_segments(draw):
    """Random trace uops plus each uop's load latency.

    Uop ``k`` carries origin ``k`` and reads memory address ``k``.
    """
    n = draw(st.integers(min_value=1, max_value=24))
    uops = [draw(_uops(k)) for k in range(n)]
    latencies = [draw(_LATENCIES) for _ in range(n)]
    return uops, latencies


@settings(max_examples=100, deadline=None)
@given(geometry=st.sampled_from(_GEOMETRIES),
       segments=st.lists(_hot_segments(), min_size=1, max_size=3))
def test_hot_plan_equals_run_uop_loop(geometry, segments):
    """run_hot_plan == one fetch group per cycle of run_uop calls."""
    planned = TimingCore(geometry)
    reference = TimingCore(geometry)
    for uops, latencies in segments:
        plan = compile_hot_plan([compile_uop_row(u) for u in uops],
                                _PER_CYCLE)
        stores = []
        planned.run_hot_plan(plan, [_Dyn(k) for k in range(len(uops))],
                             latencies.__getitem__, stores.append)

        for start in range(0, len(uops), _PER_CYCLE):
            group = reference.begin_fetch_group()
            for k in range(start, min(start + _PER_CYCLE, len(uops))):
                kind = uops[k].kind
                latency = latencies[k] if kind is UopKind.LOAD else 0
                reference.run_uop(uops[k], group, latency)
        _assert_same(planned, reference)
        assert stores == [k for k, u in enumerate(uops)
                          if u.kind is UopKind.STORE]


@st.composite
def _cold_segments(draw):
    """Random fetch groups of CTI-free instructions, each 1-4 uops.

    Instruction ``i`` reads memory address ``i``; every load of it sees
    that address's latency.
    """
    groups = []
    index = 0
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        entries = []
        for _ in range(draw(st.integers(min_value=1, max_value=4))):
            n = draw(st.integers(min_value=1, max_value=4))
            entries.append((index, [draw(_uops(-1)) for _ in range(n)]))
            index += 1
        groups.append(entries)
    latencies = [draw(_LATENCIES) for _ in range(index)]
    return groups, latencies


@settings(max_examples=100, deadline=None)
@given(geometry=st.sampled_from(_GEOMETRIES),
       fetch_latency=st.integers(min_value=0, max_value=3),
       segments=st.lists(_cold_segments(), min_size=1, max_size=3))
def test_cold_plan_equals_run_uop_loop(geometry, fetch_latency, segments):
    """run_cold_plan without CTIs == per-group run_uop calls."""
    planned = TimingCore(geometry)
    reference = TimingCore(geometry)
    for groups, latencies in segments:
        plan_groups = [
            (0, [(idx, tuple(compile_uop_row(u) for u in uops), False)
                 for idx, uops in entries])
            for entries in groups
        ]
        rows = [row for _address, entries in plan_groups
                for _idx, uop_rows, _cti in entries for row in uop_rows]
        plan = (plan_groups, *compile_plan_stats(rows), 0)
        instructions = [_Dyn(i) for i in range(len(latencies))]
        misses = planned.run_cold_plan(
            plan, instructions, lambda _address: fetch_latency,
            latencies.__getitem__, lambda _address: None,
            lambda *_cti: False,
        )
        assert misses == 0

        for entries in groups:
            group = reference.begin_fetch_group(fetch_latency)
            for idx, uops in entries:
                for uop in uops:
                    latency = latencies[idx] if uop.kind is UopKind.LOAD else 0
                    reference.run_uop(uop, group, latency)
        _assert_same(planned, reference)
