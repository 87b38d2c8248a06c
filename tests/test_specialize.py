"""Compiled execution backend: specialization, caching, parity.

The compiled backend (:mod:`repro.pipeline.specialize`) generates a
dedicated Python replay function per hot trace.  Its contract is exact
agreement with the scalar reference, pinned here against the goldens,
across machine models, across the sampled/adaptive regimes and over the
shared artifact stack.  On top of the parity gates this file covers the
backend's own machinery — that only hot traces load generated code
(cold segments replay the scalar plan), the compile-time dependency
links, the content-keyed loader stack (memory LRU, disk cache), the
whole-plan memo, the shared :class:`ColdPlanCache` contract, profiler
phase attribution for generated frames, and a Hypothesis property test
that a generated hot replay equals the scalar hot-plan executor on
random segments and dirty entry states.
"""

from __future__ import annotations

import json
import pathlib
from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

import repro.pipeline.specialize as sp
from repro.core.simulator import ColdPlanCache, ParrotSimulator, RunOptions
from repro.errors import SimulationError
from repro.isa.opcodes import FuClass
from repro.isa.registers import NUM_ARCH_REGS, REG_NONE
from repro.models.configs import model_config
from repro.pipeline.columnar import ExecutionBackend
from repro.pipeline.core import TimingCore, compile_plan_stats
from repro.pipeline.resources import CoreParams
from repro.profiling import classify_function
from repro.sampling.config import SamplingConfig
from repro.workloads.suite import application
from repro.workloads.tracefile import compile_artifact

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

#: The same pinned runs the scalar parity gate uses.
PARITY_RUNS = [
    ("swim", "TON", 4000),
    ("gcc", "N", 4000),
    ("eon", "TOW", 4000),
]

COMPILED = RunOptions(backend=ExecutionBackend.COMPILED)


def _simulate(app_name: str, model_name: str, length: int,
              options: RunOptions) -> dict:
    simulator = ParrotSimulator(model_config(model_name))
    result = simulator.simulate(
        application(app_name), options, length=length
    )
    return result.to_dict()


# --------------------------------------------------------------------------
# Parity gates.
# --------------------------------------------------------------------------

@pytest.mark.parametrize("app_name,model_name,length", PARITY_RUNS)
def test_compiled_matches_golden(app_name, model_name, length):
    """The compiled backend reproduces the scalar goldens bit-for-bit."""
    golden_path = GOLDEN_DIR / f"{app_name}_{model_name}_{length}.json"
    golden = json.loads(golden_path.read_text())
    produced = json.loads(
        json.dumps(_simulate(app_name, model_name, length, COMPILED))
    )
    assert produced == golden, (
        f"compiled run of {app_name}/{model_name}/{length} diverged from "
        f"the golden result — the backends must stay bit-identical"
    )


@pytest.mark.parametrize("app_name,model_name", [
    ("gzip", "TOS"),   # split pipeline: state switches between cores
    ("swim", "W"),     # wide baseline, no trace unit at all
    ("mesa", "TN"),    # narrow trace machine, no optimizer
])
def test_compiled_matches_scalar_across_models(app_name, model_name):
    scalar = _simulate(app_name, model_name, 3000, RunOptions())
    compiled = _simulate(app_name, model_name, 3000, COMPILED)
    assert compiled == scalar


def test_compiled_matches_scalar_sampled():
    sampling = SamplingConfig(detail=500, gap=1500, warmup=300,
                              func_warm=500)
    scalar = _simulate("swim", "TON", 20_000, RunOptions(sampling=sampling))
    compiled = _simulate(
        "swim", "TON", 20_000,
        RunOptions(sampling=sampling, backend=ExecutionBackend.COMPILED),
    )
    assert compiled == scalar


def test_compiled_matches_scalar_adaptive():
    """Adaptive sampling is backend-independent, estimate included.

    The phase classifier's decisions (which periods re-measure, which
    reuse) and the resulting per-phase estimate must be bit-identical
    across backends, not just the machine counters and pooled means.
    """
    sampling = SamplingConfig(mode="adaptive", detail=500, gap=1500,
                              warmup=300, func_warm=500,
                              phase_threshold=0.3)
    runs = {}
    for backend in (ExecutionBackend.SCALAR, ExecutionBackend.COMPILED):
        simulator = ParrotSimulator(model_config("TON"))
        runs[backend] = simulator.simulate(
            application("swim"),
            RunOptions(sampling=sampling, backend=backend, estimate=True),
            length=30_000,
        )
    scalar, compiled = (runs[ExecutionBackend.SCALAR],
                        runs[ExecutionBackend.COMPILED])
    assert compiled.result.to_dict() == scalar.result.to_dict()
    assert compiled.estimate.intervals == scalar.estimate.intervals
    assert compiled.estimate.ipc.mean == scalar.estimate.ipc.mean
    assert compiled.estimate.epi.mean == scalar.estimate.epi.mean
    assert len(compiled.estimate.phases) == len(scalar.estimate.phases)
    for c_phase, s_phase in zip(compiled.estimate.phases,
                                scalar.estimate.phases):
        assert (c_phase.phase, c_phase.periods, c_phase.measured,
                c_phase.closed, c_phase.reused) == (
            s_phase.phase, s_phase.periods, s_phase.measured,
            s_phase.closed, s_phase.reused)
        assert c_phase.ipc.mean == s_phase.ipc.mean
        assert c_phase.epi.mean == s_phase.epi.mean


def test_compiled_artifact_with_shared_caches(tmp_path):
    """Artifact + shared segments + ColdPlanCache, both backends.

    Two models with equal fetch parameters share one cache across both
    backends; each combination must match the generator-path scalar run.
    swim/TON at 20k is the hot-trace-dominated golden pair.
    """
    for app_name, model_names, length in (("gcc", ("N", "TON"), 3000),
                                          ("swim", ("TON",), 20_000)):
        app = application(app_name)
        artifact = compile_artifact(app, app.seed, length, root=tmp_path)
        segments = artifact.segments()
        cache = ColdPlanCache(segments)
        for model_name in model_names:
            reference = _simulate(model_name=model_name, app_name=app_name,
                                  length=length, options=RunOptions())
            for backend in ExecutionBackend:
                result = ParrotSimulator(model_config(model_name)).simulate(
                    artifact,
                    RunOptions(backend=backend, segments=segments,
                               cold_plans=cache),
                )
                assert result.to_dict() == reference, (
                    app_name, model_name, backend
                )


# --------------------------------------------------------------------------
# ColdPlanCache contract (shared by scalar and compiled cold plans).
# --------------------------------------------------------------------------

class TestColdPlanCache:

    def test_refuses_foreign_segment_list(self, tmp_path):
        app = application("gcc")
        artifact = compile_artifact(app, app.seed, 2000, root=tmp_path)
        segments = artifact.segments()
        cache = ColdPlanCache(segments)
        simulator = ParrotSimulator(model_config("TON"))
        foreign = list(segments)  # equal content, different identity
        with pytest.raises(SimulationError, match="different segment list"):
            simulator.simulate(
                artifact,
                RunOptions(backend=ExecutionBackend.COMPILED,
                           segments=foreign, cold_plans=cache),
            )

    def test_backends_share_one_cold_plan_dict(self, tmp_path):
        """Both backends replay the same cold plans from one cache."""
        app = application("gcc")
        artifact = compile_artifact(app, app.seed, 2000, root=tmp_path)
        segments = artifact.segments()
        cache = ColdPlanCache(segments)
        plans = cache.plans_for(segments, model_config("TON").fetch)
        results = {}
        for backend in (ExecutionBackend.SCALAR, ExecutionBackend.COMPILED):
            before = dict(plans)
            results[backend] = ParrotSimulator(model_config("TON")).simulate(
                artifact,
                RunOptions(backend=backend, segments=segments,
                           cold_plans=cache),
            ).to_dict()
        assert before, "the scalar run cached no cold plan"
        # The compiled run found every plan it needed: no new key, and
        # each cached plan is the very object the scalar run built.
        assert plans.keys() == before.keys()
        assert all(plans[tid] is plan for tid, plan in before.items())
        assert (results[ExecutionBackend.COMPILED]
                == results[ExecutionBackend.SCALAR])


# --------------------------------------------------------------------------
# Only hot traces are specialized: cold segments load no generated code.
# --------------------------------------------------------------------------

def _loads() -> dict:
    return {key: sp.LOADER_STATS[key]
            for key in ("compiles", "memory_hits", "disk_hits")}


def test_compiled_cold_only_run_loads_no_replay_function(monkeypatch,
                                                         tmp_path):
    """Model N has no trace cache, so a compiled run of it is all cold."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    before = _loads()
    result = _simulate("gcc", "N", 3000, COMPILED)
    assert result["uops_cold"] > 0
    assert _loads() == before


def test_compiled_run_loads_replay_functions_for_hot_plans_only(
        monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(sp, "_PLAN_MEMO", OrderedDict())
    sources = []
    load_replay = sp.load_replay

    def recording_load(source):
        sources.append(source)
        return load_replay(source)

    monkeypatch.setattr(sp, "load_replay", recording_load)
    before = _loads()
    result = _simulate("swim", "TON", 4000, COMPILED)
    assert result["uops_hot"] > 0 and result["uops_cold"] > 0
    assert sources, "no hot plan was compiled"
    assert all(source.startswith("def replay(core, mem_lats):\n")
               for source in sources)
    assert sum(_loads().values()) - sum(before.values()) == len(sources)


# --------------------------------------------------------------------------
# Loader stack: memory LRU, whole-plan memo, disk cache.
# --------------------------------------------------------------------------

def _nop_source(tag: int) -> str:
    return f"def replay(core, mem_lats):\n    core.extra = {tag}\n"


class TestLoaderStack:

    def test_memory_lru_eviction_order(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(sp, "_MEMORY_LIMIT", 2)
        sp._MEMORY.clear()
        fn0 = sp.load_replay(_nop_source(0))
        sp.load_replay(_nop_source(1))
        # Touch 0 so it is most-recently used, then overflow with 2:
        # the least-recently-used entry (1) must be the one evicted.
        assert sp.load_replay(_nop_source(0)) is fn0
        sp.load_replay(_nop_source(2))
        keys = list(sp._MEMORY)
        assert sp.source_key(_nop_source(1)) not in keys
        assert sp.source_key(_nop_source(0)) in keys
        assert sp.source_key(_nop_source(2)) in keys

    def test_disk_cache_round_trip(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        sp._MEMORY.clear()
        before = dict(sp.LOADER_STATS)
        source = _nop_source(7)
        sp.load_replay(source)
        assert sp.LOADER_STATS["compiles"] == before["compiles"] + 1
        sp._MEMORY.clear()  # force the next load through the disk layer
        fn = sp.load_replay(source)
        assert sp.LOADER_STATS["disk_hits"] == before["disk_hits"] + 1

        class Core:
            pass

        core = Core()
        fn(core, [])
        assert core.extra == 7

    def test_plan_memo_eviction_order(self, monkeypatch):
        monkeypatch.setattr(sp, "_PLAN_MEMO_LIMIT", 2)
        sp._PLAN_MEMO.clear()
        params = CoreParams(name="memo-test", rename_width=4, issue_width=4,
                            commit_width=4, rob_size=128, window_size=48)

        def rows(latency):
            return [(FuClass.INT, latency, -1, -1, (), 3, -1, 0, 0)]

        plan0 = sp.compile_hot_specialized(rows(1), 8, params)
        sp.compile_hot_specialized(rows(2), 8, params)
        hits = sp.LOADER_STATS["plan_hits"]
        # Touch plan 0, then overflow with a third plan: 2 must be evicted.
        assert sp.compile_hot_specialized(rows(1), 8, params) is plan0
        assert sp.LOADER_STATS["plan_hits"] == hits + 1
        sp.compile_hot_specialized(rows(3), 8, params)
        assert len(sp._PLAN_MEMO) == 2
        sp.compile_hot_specialized(rows(2), 8, params)  # re-derived, no hit
        assert sp.LOADER_STATS["plan_hits"] == hits + 1


def test_generated_frames_bucket_as_compiled_replay():
    """Profiler attribution folds exec'd frames into one phase."""
    assert classify_function("<repro-compiled:deadbeef>") == "replay(compiled)"
    assert (classify_function("/x/src/repro/pipeline/specialize.py")
            == "replay(compiled)")


# --------------------------------------------------------------------------
# Dependency links: the compile-time wake-up resolution of generated code.
# --------------------------------------------------------------------------

class TestDependencyLinks:
    """The compile-time wake-up resolution the replay functions rely on."""

    @staticmethod
    def _row(src1=REG_NONE, src2=REG_NONE, extra=(), dest=REG_NONE,
             dest2=REG_NONE):
        return (FuClass.INT, 1, src1, src2, tuple(extra), dest, dest2,
                0, 0)

    def test_in_segment_producers_and_carried_reads(self):
        rows = [
            self._row(dest=3),            # uop 0 writes r3
            self._row(src1=3, src2=4),    # uop 1: r3 in-segment, r4 carried
        ]
        producers, carried, last_writers = sp._dependency_links(rows)
        assert producers == [None, (0,)]
        assert carried == [None, (4,)]
        assert dict(last_writers) == {3: 0}

    def test_last_writer_wins(self):
        rows = [self._row(dest=5), self._row(dest=5)]
        _producers, _carried, last_writers = sp._dependency_links(rows)
        assert dict(last_writers) == {5: 1}

    def test_negative_extra_sources_alias_like_the_scalar_loop(self):
        # The scalar executor reads ``reg_ready[src]`` unguarded for
        # packed extra sources, so REG_NONE (-1) wraps to the register
        # file's last cell in CPython; the links must alias identically.
        rows = [self._row(extra=(REG_NONE,))]
        _producers, carried, _last_writers = sp._dependency_links(rows)
        assert carried == [(REG_NONE + NUM_ARCH_REGS,)]


# --------------------------------------------------------------------------
# Generated hot replay vs the scalar hot-plan executor (property-based).
# --------------------------------------------------------------------------

#: A wide machine (mostly uncontended issue), a narrow one whose single
#: unit per FU class makes issue contend, one whose ROB is as small as
#: its window (so the ROB gate binds) and one with a tiny window.
_GEOMETRIES = (
    CoreParams(
        name="wide-test", rename_width=4, issue_width=16, commit_width=4,
        rob_size=128, window_size=48,
        fu_counts={FuClass.INT: 16, FuClass.MEM_LOAD: 16, FuClass.FP: 16},
    ),
    CoreParams(
        name="narrow-test", rename_width=3, issue_width=2, commit_width=3,
        rob_size=24, window_size=6,
        fu_counts={FuClass.INT: 1, FuClass.MEM_LOAD: 1, FuClass.FP: 1},
    ),
    CoreParams(
        name="rob-test", rename_width=4, issue_width=4, commit_width=2,
        rob_size=6, window_size=6,
        fu_counts={FuClass.INT: 4, FuClass.MEM_LOAD: 4, FuClass.FP: 4},
    ),
    CoreParams(
        name="window-test", rename_width=4, issue_width=4, commit_width=4,
        rob_size=64, window_size=3,
        fu_counts={FuClass.INT: 4, FuClass.MEM_LOAD: 4, FuClass.FP: 4},
    ),
)
_PER_CYCLE = 8
_FUS = (FuClass.INT, FuClass.MEM_LOAD, FuClass.FP)


def _core_state(core: TimingCore) -> tuple:
    return (
        list(core.reg_ready), core.fetch_cycle, core._last_dispatch,
        core._disp_cycle, core._disp_used, list(core._rob_ring),
        core._rob_idx, list(core._win_ring), core._win_idx,
        core._commit_time, dict(core._issue_slots),
        {fu: dict(slots) for fu, slots in core._fu_slots.items()},
        core.uops_executed, core._n_src_reads, core._n_dest_writes,
        dict(core._n_exec),
    )


def _types(state) -> list:
    return [type(v) for v in state[0]] + [type(v) for v in state[5]]


class _Instr:
    address = 0


class _Dyn:
    """The two fields a hot replay reads from a dynamic instruction."""

    instr = _Instr()

    def __init__(self, mem_addr):
        self.mem_addr = mem_addr


@st.composite
def _segments(draw):
    """A random planned-row segment plus each uop's load-latency override.

    Uop ``k`` carries origin ``k`` and reads memory address ``k``; an
    override of 0 keeps the row's static latency, as an L1 hit does.
    """
    n = draw(st.integers(min_value=1, max_value=24))
    rows = []
    overrides = []
    for k in range(n):
        fu = draw(st.sampled_from(_FUS))
        is_load = fu is FuClass.MEM_LOAD
        latency = draw(st.integers(min_value=1, max_value=4))
        src1 = draw(st.integers(min_value=-1, max_value=15))
        src2 = draw(st.integers(min_value=-1, max_value=15))
        dest = draw(st.integers(min_value=-1, max_value=15))
        rows.append((fu, latency, src1, src2, (), dest, -1,
                     1 if is_load else 0, k))
        overrides.append(draw(st.sampled_from((0, 0, 12, 30))))
    return rows, overrides


def _replay_scalar(core, rows, overrides):
    groups = [tuple(rows[i:i + _PER_CYCLE])
              for i in range(0, len(rows), _PER_CYCLE)]
    plan = (groups, *compile_plan_stats(rows))
    core.run_hot_plan(plan, [_Dyn(k) for k in range(len(rows))],
                      overrides.__getitem__, lambda addr: None)


def _replay_compiled(core, rows, overrides):
    plan = sp.compile_hot_specialized(rows, _PER_CYCLE, core.params)
    sp.run_hot_compiled(core, plan, [_Dyn(k) for k in range(len(rows))],
                        overrides.__getitem__, lambda addr: None)


@settings(max_examples=100, deadline=None)
@given(geometry=st.sampled_from(_GEOMETRIES), segments=st.lists(
    _segments(), min_size=1, max_size=3))
def test_compiled_hot_replay_equals_scalar_plan(geometry, segments):
    """Back-to-back hot replays leave bit-identical core state.

    Later segments start from the dirty state the earlier ones left
    (dispatch backlog, populated rings and slot tables) — the steady
    state of consecutive hot executions.
    """
    scalar = TimingCore(geometry)
    compiled = TimingCore(geometry)
    for rows, overrides in segments:
        _replay_scalar(scalar, rows, overrides)
        _replay_compiled(compiled, rows, overrides)
        after_scalar = _core_state(scalar)
        after_compiled = _core_state(compiled)
        assert after_compiled == after_scalar
        # Bit-identity includes types: ints stay ints, commits floats.
        assert _types(after_compiled) == _types(after_scalar)
