"""Differential accuracy regression: full detail vs fixed vs adaptive.

The promoted ``tools/validate_sampling.py`` harness: every golden pair
(``repro.sampling.accuracy.GOLDEN_PAIRS``) runs at full detail, under
fixed-interval sampling and under the tuned adaptive regime, on both
execution backends, over the same compiled artifact stream.  The suite
enforces the acceptance criteria directly:

* adaptive point errors stay under 2% IPC / 5% EPI against full detail
  (``ERROR_BOUNDS``), with the full-detail values inside the reported
  confidence intervals — overall and per phase;
* the tuned adaptive regime stays an order of magnitude faster than full
  detail across the golden pairs (pooled wall-clock ratio, like-for-like
  source/backend; the full-strength 12× frontier floor is gated by the
  fresh-process surfaces — see ``TestSpeedupFrontier``);
* both backends produce bit-identical adaptive estimates.

Estimates are deterministic, so every accuracy assertion is exact; only
the wall-clock gate measures time, and it pools across pairs and
backends (best-of-2 each) to stay robust against scheduler noise.  The
full-detail baselines are timed with ``cold_reference=True`` — each in a
fresh interpreter — because inside this long-lived pytest process
earlier modules have already built the prewarm/plan memos, which makes
an in-process reference ~40% faster than any standalone full-detail run
and silently shifts the protocol every quoted sampling speedup (PR 4's
fixed table included) was measured under.
"""

from __future__ import annotations

import math
import warnings

import pytest

from repro.errors import SamplingWarning
from repro.pipeline.columnar import ExecutionBackend
from repro.sampling.accuracy import (
    ADAPTIVE_SPEEDUP_FLOOR,
    ERROR_BOUNDS,
    GOLDEN_LENGTH,
    GOLDEN_PAIRS,
    AccuracyHarness,
    aggregate_speedup,
    format_report,
    parse_pairs,
)
from repro.sampling.config import SamplingConfig

BACKENDS = (ExecutionBackend.SCALAR, ExecutionBackend.COMPILED)


@pytest.fixture(scope="module")
def frontier(tmp_path_factory):
    """Fixed + adaptive sweeps over the golden pairs, per backend."""
    root = tmp_path_factory.mktemp("accuracy-artifacts")
    results = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SamplingWarning)
        for backend in BACKENDS:
            harness = AccuracyHarness(
                length=GOLDEN_LENGTH, backend=backend,
                source="artifact", root=root, repeat=2,
                cold_reference=True,
            )
            results[backend] = {
                "fixed": harness.sweep(SamplingConfig()),
                "adaptive": harness.sweep(SamplingConfig.adaptive()),
            }
    return results


class TestAdaptiveAccuracy:
    def test_point_errors_within_bounds_on_both_backends(self, frontier):
        for backend in BACKENDS:
            for result in frontier[backend]["adaptive"]:
                assert result.ipc_error < ERROR_BOUNDS["ipc"], (
                    f"{result.app}/{result.model} [{backend.value}] IPC "
                    f"error {result.ipc_error:.3%} exceeds "
                    f"{ERROR_BOUNDS['ipc']:.0%}"
                )
                assert result.epi_error < ERROR_BOUNDS["epi"], (
                    f"{result.app}/{result.model} [{backend.value}] EPI "
                    f"error {result.epi_error:.3%} exceeds "
                    f"{ERROR_BOUNDS['epi']:.0%}"
                )

    def test_full_detail_inside_reported_intervals(self, frontier):
        for backend in BACKENDS:
            for result in frontier[backend]["adaptive"]:
                assert result.ipc_in_ci and result.epi_in_ci, (
                    f"{result.app}/{result.model} [{backend.value}]: "
                    f"full-detail value outside the adaptive CI"
                )

    def test_per_phase_ci_coverage(self, frontier):
        """The per-phase breakdown is complete, weighted and honest."""
        adaptive = SamplingConfig.adaptive()
        for backend in BACKENDS:
            for result in frontier[backend]["adaptive"]:
                phases = result.estimate.phases
                assert phases, f"{result.app}: adaptive run reported no phases"
                assert math.isclose(sum(p.weight for p in phases), 1.0)
                assert (
                    sum(p.measured for p in phases)
                    == result.measured_intervals
                )
                periods = GOLDEN_LENGTH // adaptive.period
                assert sum(p.periods for p in phases) == periods
                for phase in phases:
                    assert 1 <= phase.measured <= phase.periods
                    if phase.closed:
                        # A closed phase met its targets by construction.
                        assert (phase.ipc.relative_half_width
                                <= adaptive.ipc_target)
                        assert (phase.epi.relative_half_width
                                <= adaptive.epi_target)
                    elif phase.measured == 1:
                        # Single samples honestly report unbounded CIs.
                        assert phase.ipc.half_width == math.inf
                # Reuse happened: detail was not spent on every period.
                assert result.measured_intervals < periods

    def test_adaptive_spends_less_detail_than_fixed(self, frontier):
        for backend in BACKENDS:
            for fixed, adaptive in zip(frontier[backend]["fixed"],
                                       frontier[backend]["adaptive"]):
                assert (adaptive.measured_intervals
                        < fixed.measured_intervals)

    def test_fixed_mode_errors_stay_reasonable(self, frontier):
        # The PR 4 regime is the fallback target; it has looser bounds
        # (it spends detail uniformly) but must not drift unnoticed.
        for backend in BACKENDS:
            for result in frontier[backend]["fixed"]:
                assert result.ipc_error < 0.05
                assert result.epi_error < 0.08
                assert result.ipc_in_ci and result.epi_in_ci


class TestBackendParity:
    def test_adaptive_estimates_bit_identical_across_backends(self, frontier):
        for scalar, compiled in zip(
            frontier[ExecutionBackend.SCALAR]["adaptive"],
            frontier[ExecutionBackend.COMPILED]["adaptive"],
        ):
            s_est, c_est = scalar.estimate, compiled.estimate
            assert s_est.ipc.mean == c_est.ipc.mean
            assert s_est.epi.mean == c_est.epi.mean
            assert s_est.ipc.half_width == c_est.ipc.half_width
            assert s_est.intervals == c_est.intervals
            assert len(s_est.phases) == len(c_est.phases)
            for s_phase, c_phase in zip(s_est.phases, c_est.phases):
                assert s_phase.phase == c_phase.phase
                assert s_phase.periods == c_phase.periods
                assert s_phase.measured == c_phase.measured
                assert s_phase.ipc.mean == c_phase.ipc.mean
                assert s_phase.closed == c_phase.closed
            assert scalar.full_ipc == compiled.full_ipc
            assert scalar.full_epi == compiled.full_epi


class TestSpeedupFrontier:
    def test_adaptive_speedup_floor(self, frontier):
        """The pooled wall-clock ratio never regresses toward fixed spend.

        Under the canonical protocol the frontier measures 12–15×
        (``ADAPTIVE_SPEEDUP_FLOOR`` is enforced at full strength in a
        fresh process: the ``adaptive-sampling-smoke`` CI job gates
        ``tools/validate_sampling.py --min-speedup``).  A
        wall-clock assert inside a shared test process has to leave
        headroom for machine variance (±40% observed run-to-run on this
        container class), so the hard floor here is 2/3 of the frontier
        value — still far above what any scheduler regression can reach:
        degrading to fixed-equivalent detail spend lands at ≤6×.
        """
        pooled = [
            result
            for backend in BACKENDS
            for result in frontier[backend]["adaptive"]
        ]
        speedup = aggregate_speedup(pooled)
        hard_floor = ADAPTIVE_SPEEDUP_FLOOR * 2 / 3
        assert speedup >= hard_floor, (
            f"adaptive aggregate speedup {speedup:.2f}x fell below the "
            f"{hard_floor:.0f}x regression floor (frontier value "
            f"{ADAPTIVE_SPEEDUP_FLOOR:.0f}x)\n" + format_report(pooled)
        )
        # Per-backend regression guard (looser: single-backend pools are
        # noisier, but a real regression collapses them far below this).
        for backend in BACKENDS:
            per_backend = aggregate_speedup(frontier[backend]["adaptive"])
            assert per_backend >= ADAPTIVE_SPEEDUP_FLOOR / 2, (
                f"{backend.value} adaptive speedup {per_backend:.2f}x"
            )

    def test_adaptive_faster_than_fixed(self, frontier):
        for backend in BACKENDS:
            fixed = aggregate_speedup(frontier[backend]["fixed"])
            adaptive = aggregate_speedup(frontier[backend]["adaptive"])
            assert adaptive > fixed


class TestHarnessPlumbing:
    def test_parse_pairs(self):
        assert parse_pairs("swim:TON,gcc:N") == [("swim", "TON"),
                                                 ("gcc", "N")]
        with pytest.raises(Exception, match="bad pair"):
            parse_pairs("swim")

    def test_golden_pairs_are_the_documented_ones(self):
        assert GOLDEN_PAIRS == (("swim", "TON"), ("gcc", "N"),
                                ("eon", "TOW"))

    def test_rows_are_json_ready(self, frontier):
        import json
        rows = [
            result.to_row()
            for backend in BACKENDS
            for mode in ("fixed", "adaptive")
            for result in frontier[backend][mode]
        ]
        encoded = json.loads(json.dumps(rows))
        assert len(encoded) == 2 * 2 * len(GOLDEN_PAIRS)
        adaptive_rows = [r for r in encoded if r["mode"] == "adaptive"]
        assert all(r["phases"] >= 1 for r in adaptive_rows)
        assert all(r["ipc_error"] < ERROR_BOUNDS["ipc"]
                   for r in adaptive_rows)
