"""Adaptive (phase-aware) sampling: scheduling, plumbing and fault injection.

The scheduler's happy path is pinned by the accuracy-regression suite
(``tests/test_sampling_accuracy.py``); this module covers everything
around it:

* config plumbing — the ``adaptive`` parse grammar, the tuned defaults,
  store-key separation from fixed mode, and the engine's spec parsing
  (:func:`~repro.experiments.engine.resolve_run_options`);
* scheduling behaviour — recurring phases actually reuse measurements,
  and the estimate reports its per-phase breakdown;
* fault injection — the scheduler's edge cases (stream shorter than the
  minimum interval budget, a phase that never recurs, confidence targets
  unreachable within the stream) must degrade to fixed-interval
  behaviour with a :class:`~repro.errors.SamplingWarning`, never crash
  and never silently extrapolate.
"""

from __future__ import annotations

import math
import warnings

import pytest

from repro.core.simulator import ParrotSimulator, RunOptions
from repro.errors import ConfigurationError, SamplingWarning
from repro.experiments.engine import resolve_run_options, run_key
from repro.models.configs import model_config
from repro.sampling.config import SamplingConfig
from repro.workloads.suite import application

#: Small, fast interval regime reused by every scheduling test.
SMALL = dict(detail=500, gap=1500, warmup=300, func_warm=500)


def _simulate(app_name, model_name, length, sampling, **opt_kwargs):
    return ParrotSimulator(model_config(model_name)).simulate(
        application(app_name),
        RunOptions(sampling=sampling, estimate=True, **opt_kwargs),
        length=length,
    )


class TestAdaptiveConfig:
    def test_parse_bare_adaptive_selects_tuned_defaults(self):
        assert SamplingConfig.parse("adaptive") == SamplingConfig.adaptive()
        assert SamplingConfig.parse("adaptive:on") == SamplingConfig.adaptive()

    def test_tuned_defaults(self):
        cfg = SamplingConfig.adaptive()
        assert cfg.mode == "adaptive"
        assert (cfg.warmup, cfg.func_warm) == (3000, 4000)
        assert cfg.confidence == 0.90
        assert (cfg.ipc_target, cfg.epi_target) == (0.2, 0.15)
        assert cfg.phase_refresh == 4
        # Overrides apply; the mode cannot be overridden away.
        assert SamplingConfig.adaptive(detail=2000).detail == 2000
        assert SamplingConfig.adaptive(mode="fixed").mode == "adaptive"

    def test_parse_positional_adaptive_spec(self):
        cfg = SamplingConfig.parse("adaptive:2000:18000:1000")
        assert cfg == SamplingConfig.adaptive(
            detail=2000, gap=18000, warmup=1000
        )
        # An unspecified confidence takes the tuned 0.90, not the fixed
        # default; an explicit one wins.
        assert cfg.confidence == 0.90
        explicit = SamplingConfig.parse("adaptive:2000:18000:1000:0.99")
        assert explicit.confidence == 0.99

    def test_parse_fixed_grammar_is_unchanged(self):
        assert SamplingConfig.parse("on") == SamplingConfig()
        assert SamplingConfig.parse("2000:18000:1000").confidence == 0.95
        assert SamplingConfig.parse("off") is None

    def test_fixed_fingerprint_has_no_phase_knobs(self):
        fixed = SamplingConfig()
        assert "mode=" not in fixed.fingerprint()
        adaptive = SamplingConfig.adaptive()
        assert "mode=adaptive" in adaptive.fingerprint()
        assert "phase_threshold=" in adaptive.fingerprint()

    def test_as_fixed_round_trip(self):
        adaptive = SamplingConfig.adaptive()
        fixed = adaptive.as_fixed()
        assert fixed.mode == "fixed"
        assert (fixed.detail, fixed.gap, fixed.warmup, fixed.func_warm) == (
            adaptive.detail, adaptive.gap, adaptive.warmup,
            adaptive.func_warm,
        )
        assert fixed.as_fixed() is fixed

    def test_adaptive_and_fixed_never_share_a_store_key(self):
        config = model_config("TON")
        adaptive = SamplingConfig.adaptive()
        assert run_key(config, "swim", 200_000, adaptive) != run_key(
            config, "swim", 200_000, adaptive.as_fixed()
        )

    def test_engine_resolves_adaptive_specs(self):
        options = resolve_run_options("adaptive")
        assert options.sampling == SamplingConfig.adaptive()

    def test_rejects_bad_phase_knobs(self):
        with pytest.raises(ConfigurationError, match="phase_threshold"):
            SamplingConfig(mode="adaptive", phase_threshold=3.0)
        with pytest.raises(ConfigurationError, match="targets"):
            SamplingConfig(mode="adaptive", ipc_target=0.0)
        with pytest.raises(ConfigurationError, match="min_phase_intervals"):
            SamplingConfig(mode="adaptive", min_phase_intervals=1)
        with pytest.raises(ConfigurationError, match="phase_refresh"):
            SamplingConfig(mode="adaptive", phase_refresh=-1)
        with pytest.raises(ConfigurationError, match="mode"):
            SamplingConfig(mode="dynamic")


class TestAdaptiveScheduling:
    def test_recurring_phases_reuse_measurements(self):
        cfg = SamplingConfig(mode="adaptive", phase_threshold=0.3, **SMALL)
        periods = 30_000 // cfg.period
        run = _simulate("swim", "TON", 30_000, cfg)
        estimate = run.estimate
        assert estimate.mode == "adaptive"
        assert estimate.phases
        # Reuse is the whole point: fewer detailed intervals than periods.
        assert len(estimate.intervals) < periods
        covered = sum(p.periods for p in estimate.phases)
        assert covered == periods
        assert math.isclose(sum(p.weight for p in estimate.phases), 1.0)
        # The extrapolated result still represents the whole stream.
        assert run.result.instructions == 30_000

    def test_single_sample_phase_reports_unbounded_interval(self):
        cfg = SamplingConfig(mode="adaptive", phase_threshold=0.3, **SMALL)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SamplingWarning)
            run = _simulate("gcc", "N", 30_000, cfg)
        singles = [p for p in run.estimate.phases if p.measured == 1]
        assert singles, "expected at least one single-sample phase"
        for phase in singles:
            assert not phase.closed
            assert phase.ipc.half_width == math.inf

    def test_deterministic_across_repeats(self):
        cfg = SamplingConfig(mode="adaptive", phase_threshold=0.3, **SMALL)
        first = _simulate("swim", "TON", 30_000, cfg)
        second = _simulate("swim", "TON", 30_000, cfg)
        assert first.result.to_dict() == second.result.to_dict()
        assert first.estimate.ipc.mean == second.estimate.ipc.mean


class TestAdaptiveFaultInjection:
    """Edge cases degrade to fixed behaviour with a warning — no crashes."""

    def test_short_stream_falls_back_to_fixed(self):
        cfg = SamplingConfig(mode="adaptive", **SMALL)
        with pytest.warns(SamplingWarning,
                          match="falling back to fixed-interval sampling"):
            run = _simulate("swim", "TON", 5000, cfg)
        assert run.estimate.mode == "fixed"
        assert not run.estimate.phases
        # Bit-identical to running the fixed twin directly.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SamplingWarning)
            fixed = _simulate("swim", "TON", 5000, cfg.as_fixed())
        assert run.result.to_dict() == fixed.result.to_dict()

    def test_never_recurring_phases_degrade_with_warning(self):
        # threshold 0: signatures only merge when exactly identical, so
        # every period founds a new phase and nothing is ever reusable.
        cfg = SamplingConfig(mode="adaptive", phase_threshold=0.0, **SMALL)
        with pytest.warns(SamplingWarning,
                          match="degraded to fixed-interval behaviour"):
            run = _simulate("gcc", "N", 20_000, cfg)
        periods = 20_000 // cfg.period
        # Degraded means fixed-equivalent detail spend: every period paid.
        assert len(run.estimate.intervals) == periods
        assert len(run.estimate.phases) == periods
        assert run.result.instructions == 20_000

    def test_unreachable_confidence_target_degrades_with_warning(self):
        cfg = SamplingConfig(mode="adaptive", ipc_target=1e-9,
                             epi_target=1e-9, **SMALL)
        with pytest.warns(SamplingWarning,
                          match="degraded to fixed-interval behaviour"):
            run = _simulate("swim", "TON", 20_000, cfg)
        # The targets can never close, so every period measured.
        assert len(run.estimate.intervals) == 20_000 // cfg.period
        assert all(not p.closed for p in run.estimate.phases)

    def test_open_phases_at_end_warn_instead_of_silently_extrapolating(self):
        cfg = SamplingConfig(mode="adaptive", phase_threshold=0.3, **SMALL)
        with pytest.warns(SamplingWarning,
                          match="confidence targets unmet"):
            run = _simulate("gcc", "N", 30_000, cfg)
        open_phases = [p for p in run.estimate.phases if not p.closed]
        assert open_phases
        # Reuse did happen for the closed phases...
        assert len(run.estimate.intervals) < 30_000 // cfg.period
        # ...and the open ones still carry their honest (wide) intervals.
        assert run.result.instructions == 30_000

    def test_fault_paths_never_crash_either_backend(self):
        from repro.pipeline.columnar import ExecutionBackend
        cfg = SamplingConfig(mode="adaptive", phase_threshold=0.0, **SMALL)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SamplingWarning)
            scalar = _simulate("eon", "TOW", 20_000, cfg)
            compiled = _simulate(
                "eon", "TOW", 20_000, cfg,
                backend=ExecutionBackend.COMPILED,
            )
        assert scalar.result.to_dict() == compiled.result.to_dict()
