"""Sampled simulation: config, scheduler, estimator, warmup, end-to-end.

The end-to-end contract (ISSUE 4): sampled runs at 200k instructions must
reproduce the full-detail IPC and energy of the golden (app, model) pairs
within the reported confidence interval, while ``sampling=None`` remains
the historical, bit-identical full-detail path.
"""

import math
from collections import Counter

import pytest

from repro.core.simulator import ParrotSimulator, RunOptions, SampledRun
from repro.errors import ConfigurationError, SimulationError, WorkloadError
from repro.isa.opcodes import (
    FLOW_COND_BRANCH,
    FLOW_INDIRECT_JUMP,
    FLOW_RETURN,
    InstrClass,
)
from repro.models.configs import model_config
from repro.sampling import (
    Interval,
    IntervalMeasurement,
    SamplingConfig,
    build_estimate,
    estimate_metric,
    plan_intervals,
    student_t,
)
from repro.workloads.behaviors import BiasedBranchSpec, RandomMemSpec
from repro.workloads.program import ProgramBuilder
from repro.workloads.stream import InstructionStream, StreamWalker
from repro.workloads.suite import application

#: The golden pairs of the acceptance criteria.
GOLDEN_PAIRS = (("swim", "TON"), ("gcc", "N"), ("eon", "TOW"))


# -- SamplingConfig -----------------------------------------------------------


class TestSamplingConfig:
    def test_defaults_are_valid_and_describe_the_period(self):
        cfg = SamplingConfig()
        assert cfg.period == cfg.detail + cfg.gap
        assert cfg.detail_fraction == pytest.approx(cfg.detail / cfg.period)
        assert 0 < cfg.detail_fraction < 0.10

    @pytest.mark.parametrize("kwargs", [
        dict(detail=0),
        dict(gap=0),
        dict(warmup=-1),
        dict(gap=100, warmup=101),
        dict(func_warm=-1),
        dict(gap=1000, warmup=600, func_warm=500),
        dict(confidence=0.5),
        dict(min_intervals=1),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            SamplingConfig(**kwargs)

    def test_fingerprint_covers_every_knob(self):
        base = SamplingConfig()
        assert base.fingerprint() == SamplingConfig().fingerprint()
        for other in (
            SamplingConfig(detail=2000),
            SamplingConfig(gap=15000),
            SamplingConfig(warmup=2000),
            SamplingConfig(func_warm=3000),
            SamplingConfig(confidence=0.99),
            SamplingConfig(min_intervals=8),
        ):
            assert other.fingerprint() != base.fingerprint()

    @pytest.mark.parametrize("spec", ["off", "none", "0", "false", "", None])
    def test_parse_off(self, spec):
        assert SamplingConfig.parse(spec) is None

    @pytest.mark.parametrize("spec", ["on", "default", "ON"])
    def test_parse_on_is_defaults(self, spec):
        assert SamplingConfig.parse(spec) == SamplingConfig()

    def test_parse_explicit_knobs(self):
        assert SamplingConfig.parse("2000:18000:1000") == SamplingConfig(
            detail=2000, gap=18000, warmup=1000
        )
        assert SamplingConfig.parse("1000:14000:1500:3000") == SamplingConfig(
            func_warm=3000
        )
        assert SamplingConfig.parse("1000:14000:1500:3000:0.99") == (
            SamplingConfig(func_warm=3000, confidence=0.99)
        )
        assert SamplingConfig.parse("2000:18000:1000:0.90") == SamplingConfig(
            detail=2000, gap=18000, warmup=1000, confidence=0.90
        )

    def test_parse_clamps_func_warm_to_short_gaps(self):
        cfg = SamplingConfig.parse("500:2000:500")
        assert cfg.func_warm == 1500  # default 4000 cannot fit a 2000 gap

    @pytest.mark.parametrize("spec", ["1:2", "a:b:c", "1:2:3:4:5:6", "zzz"])
    def test_parse_rejects_bad_specs(self, spec):
        with pytest.raises(ConfigurationError):
            SamplingConfig.parse(spec)


# -- the interval scheduler ---------------------------------------------------


class TestScheduler:
    def test_periodic_plan(self):
        cfg = SamplingConfig(detail=1000, gap=9000, warmup=500, func_warm=2000)
        plan = plan_intervals(100_000, cfg)
        assert len(plan) == 10
        assert all(
            iv == Interval(skip=8500, funcwarm=2000, warmup=500, detail=1000)
            for iv in plan
        )

    def test_funcwarm_clamped_to_lead(self):
        cfg = SamplingConfig(detail=1000, gap=9000, warmup=5000,
                             func_warm=4000)
        plan = plan_intervals(100_000, cfg)
        assert plan[0].skip == 4000 and plan[0].funcwarm == 4000

    def test_short_run_falls_back_to_full_detail(self):
        cfg = SamplingConfig(min_intervals=4)
        plan = plan_intervals(3 * cfg.period, cfg)
        assert plan == [Interval(skip=0, funcwarm=0, warmup=0, detail=3 * cfg.period)]

    def test_trailing_partial_period_dropped(self):
        cfg = SamplingConfig()
        plan = plan_intervals(10 * cfg.period + cfg.period // 2, cfg)
        assert len(plan) == 10

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            plan_intervals(0, SamplingConfig())


# -- the estimator ------------------------------------------------------------


class TestEstimator:
    def test_student_t_monotonic_in_dof(self):
        assert student_t(0.95, 1) > student_t(0.95, 5) > student_t(0.95, 500)

    def test_student_t_conservative_between_rows(self):
        # dof 11 is not tabulated: falls back to dof 10's (wider) value.
        assert student_t(0.95, 11) == student_t(0.95, 10)

    def test_student_t_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            student_t(0.42, 5)
        with pytest.raises(ValueError):
            student_t(0.95, 0)

    def test_estimate_metric_contains(self):
        est = estimate_metric("ipc", [1.0, 1.2, 0.8, 1.1], 0.95)
        assert est.contains(est.mean)
        assert not est.contains(est.upper + 1.0)
        assert est.lower < est.mean < est.upper

    def test_single_sample_has_unbounded_width(self):
        est = estimate_metric("ipc", [2.0], 0.95)
        assert math.isinf(est.half_width)

    def test_exact_mode_has_zero_width(self):
        est = estimate_metric("ipc", [2.0], 0.95, exact=True)
        assert est.half_width == 0.0 and est.mean == 2.0

    def test_build_estimate_energy_scales_epi(self):
        measurements = [
            IntervalMeasurement(instructions=1000, cycles=500.0, energy=3000.0),
            IntervalMeasurement(instructions=1000, cycles=400.0, energy=2800.0),
        ]
        est = build_estimate(
            measurements, total_instructions=50_000, confidence=0.95
        )
        assert est.detail_instructions == 2000
        assert est.detail_fraction == pytest.approx(0.04)
        assert est.energy.mean == pytest.approx(est.epi.mean * 50_000)

    def test_build_estimate_rejects_empty(self):
        with pytest.raises(ValueError):
            build_estimate([], total_instructions=1, confidence=0.95)


# -- fast-forward state identity ---------------------------------------------


#: A non-default dynamic-path seed (the benchmark derives one per pair
#: for its seeds >= 1).
OTHER_STREAM_SEED = 0x5EED_F00D


def _walks(*app_names):
    """Parameters ``(app_name, stream_seed)``: each app on its default
    stream (id ``app``) and on :data:`OTHER_STREAM_SEED` (``app-seed``)."""
    return [
        pytest.param(app, seed, id=app if seed is None else f"{app}-seed")
        for app in app_names
        for seed in (None, OTHER_STREAM_SEED)
    ]


def _fall_off_program():
    """A loop whose exit falls through three plain instructions into an
    unmapped address; returns ``(program, unmapped_address)``."""
    builder = ProgramBuilder("fall-off", seed=1)
    entry = builder.place(builder.label("entry"))
    builder.emit(InstrClass.LOAD, dest=0, src1=1, mem=RandomMemSpec(
        base=builder.alloc_data(4096), extent=4096))
    builder.cond_branch(entry, BiasedBranchSpec(0.9))
    for _ in range(3):
        builder.emit(InstrClass.SIMPLE_ALU, dest=0, src1=1, src2=2)
    program = builder.finish(entry)
    last = program.instructions[max(program.instructions)]
    return program, last.fallthrough


class TestSkipIdentity:
    """The block-compiled skip paths must be bit-identical to a full walk."""

    @pytest.mark.parametrize("app_name,stream_seed", _walks("swim", "gcc", "eon"))
    def test_plain_skip_matches_materialised_walk(self, app_name, stream_seed):
        workload = application(app_name).build()
        skipping = workload.stream(60_000, stream_seed=stream_seed)
        walking = workload.stream(60_000, stream_seed=stream_seed)
        for size in (1, 7, 500, 3, 4096, 999, 64):
            skipping.skip(size)
            walking.take_batch(size)
            for got, want in zip(skipping.take_batch(333), walking.take_batch(333)):
                assert got.instr.address == want.instr.address
                assert got.taken == want.taken
                assert got.next_address == want.next_address
                assert got.mem_addr == want.mem_addr

    @pytest.mark.parametrize("app_name,stream_seed", _walks("swim", "gcc", "eon"))
    def test_skip_profile_counts_dynamic_cti_successors(
        self, app_name, stream_seed
    ):
        """``skip(profile=...)`` — the adaptive sampler's phase-signature
        input — counts exactly the resolved successors of the window's
        conditional branches, returns and indirect jumps."""
        workload = application(app_name).build()
        skipping = workload.stream(60_000, stream_seed=stream_seed)
        walking = workload.stream(60_000, stream_seed=stream_seed)
        dynamic = (FLOW_COND_BRANCH, FLOW_RETURN, FLOW_INDIRECT_JUMP)
        for size in (1, 7, 500, 3, 4096, 999, 20_000):
            profile = {}
            assert skipping.skip(size, profile=profile) == size
            want = Counter(
                dyn.next_address for dyn in walking.take_batch(size)
                if dyn.instr.flow_code in dynamic
            )
            assert profile == dict(want)

    @pytest.mark.parametrize("app_name,stream_seed", _walks("gcc", "eon"))
    def test_warm_skip_effects_match_reference(self, app_name, stream_seed):
        workload = application(app_name).build()
        line_shift = 6
        # Short counts end mid-block and so pin the record-walking tail.
        for count in (1, 7, 7000):
            reference = workload.stream(20_000, stream_seed=stream_seed)
            log_ref, last_line = [], -1
            for dyn in reference.take_batch(count):
                instr = dyn.instr
                line = instr.address >> line_shift
                if line != last_line:
                    log_ref.append(("fetch", instr.address))
                    last_line = line
                if instr.is_cti:
                    log_ref.append(("train", instr.address, dyn.taken,
                                    dyn.next_address))
                if dyn.mem_addr is not None:
                    log_ref.append(("touch", dyn.mem_addr))

            warmed = workload.stream(20_000, stream_seed=stream_seed)
            log = []
            assert warmed.skip(count, warm=(
                lambda a: log.append(("fetch", a)),
                lambda a: log.append(("touch", a)),
                lambda i, t, n: log.append(("train", i.address, t, n)),
                line_shift,
            )) == count
            assert log == log_ref
            # The walker itself must end in the identical state too.
            for got, want in zip(warmed.take_batch(500),
                                 reference.take_batch(500), strict=True):
                assert got.instr.address == want.instr.address
                assert got.mem_addr == want.mem_addr

    @pytest.mark.parametrize("warm", [False, True], ids=["plain", "warm"])
    def test_flow_to_unmapped_address_raises_naming_it(self, warm):
        """A skipped block whose exit is unmapped has no terminator plan;
        the fast-forward must still fail loudly, naming the address."""
        program, unmapped = _fall_off_program()
        stream = InstructionStream(StreamWalker(program, 3), 100_000)
        effects = None
        if warm:
            effects = (lambda a: None, lambda a: None,
                       lambda i, t, n: None, 6)
        with pytest.raises(WorkloadError, match=f"unmapped address {unmapped:#x}"):
            stream.skip(50_000, warm=effects)


# -- end-to-end sampled simulation -------------------------------------------


class TestSampledRuns:
    def test_sampling_none_is_the_historical_path(self):
        sim = ParrotSimulator(model_config("TON"))
        app = application("swim")
        assert sim.simulate(app, length=20_000) == sim.simulate(
            app, RunOptions(sampling=None), length=20_000
        )

    def test_sampled_run_is_deterministic(self):
        sim = ParrotSimulator(model_config("N"))
        app = application("gzip")
        cfg = SamplingConfig()
        options = RunOptions(sampling=cfg, estimate=True)
        first = sim.simulate(app, options, length=120_000)
        second = sim.simulate(app, options, length=120_000)
        assert first.result == second.result
        assert first.estimate.ipc.mean == second.estimate.ipc.mean

    def test_config_level_sampling_flows_through_run(self):
        import dataclasses

        cfg = dataclasses.replace(
            model_config("N"), sampling=SamplingConfig()
        )
        sim = ParrotSimulator(cfg)
        result = sim.simulate(application("gzip"), length=120_000)
        assert result.instructions == 120_000
        # Sampled extrapolation differs from the bit-exact full walk.
        full = ParrotSimulator(model_config("N")).simulate(
            application("gzip"), length=120_000
        )
        assert result.cycles != full.cycles

    def test_short_run_degenerates_to_exact_full_detail(self):
        sim = ParrotSimulator(model_config("N"))
        app = application("gzip")
        sampled = sim.simulate(
            app, RunOptions(sampling=SamplingConfig(), estimate=True),
            length=20_000,
        )
        assert isinstance(sampled, SampledRun)
        assert sampled.estimate.exact
        assert sampled.estimate.ipc.half_width == 0.0
        assert sampled.result == sim.simulate(app, length=20_000)

    def test_run_sampled_rejects_nonpositive_length(self):
        sim = ParrotSimulator(model_config("N"))
        with pytest.raises(SimulationError):
            sim.simulate(
                application("gzip"), RunOptions(estimate=True), length=0
            )

    @pytest.mark.parametrize("app_name,model_name", GOLDEN_PAIRS)
    def test_parity_with_full_detail_at_200k(self, app_name, model_name):
        """The acceptance bar: sampled tracks full detail on the goldens.

        IPC and energy-per-instruction of the full-detail run must fall
        inside the sampled run's reported 95% confidence intervals, and
        the point estimates must be close (well under 10% error).
        """
        length = 200_000
        sim = ParrotSimulator(model_config(model_name))
        app = application(app_name)
        full = sim.simulate(app, length=length)
        sampled = sim.simulate(
            app, RunOptions(sampling=SamplingConfig(), estimate=True),
            length=length,
        )
        estimate = sampled.estimate

        assert not estimate.exact
        assert len(estimate.intervals) >= SamplingConfig().min_intervals
        assert sampled.result.instructions == length

        full_ipc = full.instructions / full.cycles
        full_epi = full.energy.total / full.instructions
        assert estimate.ipc.contains(full_ipc), (
            f"full IPC {full_ipc:.4f} outside {estimate.ipc.format()}"
        )
        assert estimate.epi.contains(full_epi), (
            f"full EPI {full_epi:.4f} outside {estimate.epi.format()}"
        )
        assert abs(estimate.ipc.mean - full_ipc) / full_ipc < 0.10
        assert (
            abs(sampled.result.energy.total - full.energy.total)
            / full.energy.total
            < 0.10
        )
