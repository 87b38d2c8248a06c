"""Online phase classification for adaptive sampling (Pac-Sim direction).

Programs revisit phases, and a fixed-interval sampler pays a detailed
interval for every period regardless.  This module supplies the three
pieces that let the sampler spend detail *per phase* instead:

* :class:`PhaseSignature` — a basic-block-vector-style signature of one
  sampling period, collected for free over the block-compiled fast-forward
  path: the count of dynamic control transfers per resolved target address
  (conditional branches, returns, indirect jumps — exactly the
  instructions whose outcome consumes dynamic state, so the vector is a
  pure function of the instruction sequence and bit-identical between the
  generating walker and artifact replay).
* :class:`PhaseClassifier` — an incremental nearest-centroid classifier
  over an LRU-bounded phase table: a period joins the nearest known phase
  within a normalized-Manhattan distance threshold, or founds a new one.
* :class:`PhaseTracker` — the per-phase measurement ledger and the
  confidence-target budget: a phase needs another detailed interval until
  it has ``min_phase_intervals`` samples *and* its IPC/EPI confidence
  intervals close within the configured targets; afterwards recurrences
  reuse the phase's measurements, and a later escalation (an interval that
  reopens the CI) sends it back to detail.

The package-level import-light rule applies (``repro.core.config`` imports
this package's config module): nothing here may import machine modules.
Everything arrives as plain measurements from the simulator.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

from repro.sampling.estimator import (
    IntervalMeasurement,
    MetricEstimate,
    SampledEstimate,
    estimate_metric,
    student_t,
)


class PhaseSignature:
    """The branch-target vector of one sampling period.

    ``targets`` maps the resolved successor address of each dynamic CTI
    executed in the period's profiling window to its occurrence count;
    ``total`` is the window's dynamic-CTI count.  Signatures compare by
    normalized Manhattan distance over target *frequencies* — the range is
    ``[0, 2]``, with 0 for identical distributions and 2 for disjoint
    target sets.
    """

    __slots__ = ("targets", "total")

    def __init__(self, targets: dict[int, int]):
        self.targets = targets
        self.total = sum(targets.values())

    @classmethod
    def from_profile(cls, profile: dict[int, int]) -> "PhaseSignature":
        """Adopt a profile dict filled by a profiled ``skip``."""
        return cls(dict(profile))

    def distance(self, other: "PhaseSignature") -> float:
        """Normalized Manhattan distance between two signatures.

        Computed with an exact integer numerator (one float division at
        the end), so the value is independent of dict insertion order —
        the generating walker observes targets in first-execution order
        while artifact replay accumulates them sorted, and both must
        classify identically.
        """
        st, ot = self.total, other.total
        if not st and not ot:
            return 0.0
        if not st or not ot:
            return 2.0
        a, b = self.targets, other.targets
        b_get = b.get
        num = 0
        for target, count in a.items():
            num += abs(count * ot - b_get(target, 0) * st)
        for target, count in b.items():
            if target not in a:
                num += count * st
        return num / (st * ot)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PhaseSignature):
            return NotImplemented
        return self.targets == other.targets

    def __repr__(self) -> str:
        return (f"PhaseSignature(targets={len(self.targets)}, "
                f"total={self.total})")


class PhaseClassifier:
    """Incremental nearest-centroid phase classifier with an LRU table.

    ``classify`` assigns a signature to the nearest known phase when its
    distance is within ``threshold``, else founds a new phase; the table
    keeps at most ``max_phases`` representatives, evicting the least
    recently matched.  Representatives are the *founding* signature of
    each phase (never updated), so the classification sequence is a pure
    function of the signature sequence — the determinism the store-key
    contract needs.
    """

    __slots__ = ("threshold", "max_phases", "evictions", "_table", "_next_id")

    def __init__(self, threshold: float = 0.5, max_phases: int = 32):
        if not 0.0 <= threshold <= 2.0:
            raise ValueError(
                f"phase threshold must lie in [0, 2], got {threshold}"
            )
        if max_phases < 1:
            raise ValueError(f"max_phases must be >= 1, got {max_phases}")
        self.threshold = threshold
        self.max_phases = max_phases
        self.evictions = 0
        self._table: OrderedDict[int, PhaseSignature] = OrderedDict()
        self._next_id = 0

    def __len__(self) -> int:
        return len(self._table)

    def classify(self, signature: PhaseSignature) -> int:
        """The phase id of ``signature`` (existing on a match, else new).

        Ties resolve to the least recently matched candidate (stable:
        table iteration order is LRU order, itself deterministic).
        """
        best_id = None
        best_distance = math.inf
        for phase_id, representative in self._table.items():
            d = representative.distance(signature)
            if d < best_distance:
                best_id, best_distance = phase_id, d
        if best_id is not None and best_distance <= self.threshold:
            self._table.move_to_end(best_id)
            return best_id
        phase_id = self._next_id
        self._next_id += 1
        self._table[phase_id] = signature
        while len(self._table) > self.max_phases:
            self._table.popitem(last=False)
            self.evictions += 1
        return phase_id


@dataclass(frozen=True, slots=True)
class PhaseEstimate:
    """One phase's contribution to an adaptive estimate.

    ``periods`` is how many sampling periods the classifier assigned to
    the phase (its weight numerator), ``measured`` how many of those ran a
    detailed interval; the rest reused the phase's measurements.
    ``closed`` records whether the phase met its confidence targets by the
    end of the run (an open phase widens the combined interval honestly —
    it is never silently extrapolated).
    """

    phase: int
    periods: int
    measured: int
    weight: float
    ipc: MetricEstimate
    epi: MetricEstimate
    cmpw: MetricEstimate
    closed: bool

    @property
    def reused(self) -> int:
        """Periods served from the phase's existing measurements."""
        return self.periods - self.measured


def _stratum_mean(samples: list[float], counts: list[int] | None) -> float:
    """Coverage-weighted mean of one stratum's samples."""
    if counts is None:
        return sum(samples) / len(samples)
    total = sum(counts)
    return sum(c * v for c, v in zip(counts, samples)) / total


def combine_phase_metric(
    metric: str,
    strata: list[tuple],
    confidence: float,
) -> MetricEstimate:
    """Stratified-sampling estimate of one metric across phases.

    ``strata`` is ``[(weight, samples), ...]`` or
    ``[(weight, samples, counts), ...]`` with weights summing to 1.
    ``counts`` are per-sample coverage counts (how many sampling periods
    each measurement stands for — its reuse run length): the stratum mean
    is then the coverage-weighted mean, so a measurement reused for five
    periods carries five periods' worth of the phase, not one.  The
    half-width follows the stratified variance ``sum(w_k^2 * s_k^2 /
    n_k)`` on the *unweighted* sample variance (coverage reuses a
    measurement, it does not re-observe it) with the pooled within-phase
    variance standing in for single-sample phases, and the pooled degrees
    of freedom feeding the t quantile.  When *no* phase has two samples
    the half-width falls back to the unstratified spread of all samples —
    across-phase variance then dominates, which can only widen the
    interval.  A single phase with all the weight and unit counts reduces
    exactly to :func:`~repro.sampling.estimator.estimate_metric`.
    """
    if not strata or any(not stratum[1] for stratum in strata):
        raise ValueError(f"every phase stratum of {metric!r} needs samples")
    strata = [
        (stratum[0], stratum[1], stratum[2] if len(stratum) > 2 else None)
        for stratum in strata
    ]
    total_n = sum(len(samples) for _, samples, _ in strata)
    mean = sum(
        weight * _stratum_mean(samples, counts)
        for weight, samples, counts in strata
    )
    if total_n < 2:
        return MetricEstimate(metric, mean, math.inf, confidence, total_n)
    pooled_num = 0.0
    pooled_dof = 0
    for _, samples, _ in strata:
        n = len(samples)
        if n >= 2:
            m = sum(samples) / n
            pooled_num += sum((v - m) ** 2 for v in samples)
            pooled_dof += n - 1
    if pooled_dof == 0:
        flat = estimate_metric(
            metric,
            [v for _, samples, _ in strata for v in samples],
            confidence,
        )
        return MetricEstimate(
            metric, mean, flat.half_width, confidence, total_n
        )
    pooled_var = pooled_num / pooled_dof
    var_of_mean = 0.0
    for weight, samples, _ in strata:
        n = len(samples)
        if n >= 2:
            m = sum(samples) / n
            var = sum((v - m) ** 2 for v in samples) / (n - 1)
        else:
            var = pooled_var
        var_of_mean += weight * weight * var / n
    half = student_t(confidence, pooled_dof) * math.sqrt(var_of_mean)
    return MetricEstimate(metric, mean, half, confidence, total_n)


class PhaseTracker:
    """Per-phase measurement ledger and confidence-target budget."""

    __slots__ = (
        "confidence", "ipc_target", "epi_target", "min_phase_intervals",
        "phase_refresh", "reused",
        "_periods", "_samples", "_counts", "_measurements",
    )

    def __init__(self, *, confidence: float, ipc_target: float,
                 epi_target: float, min_phase_intervals: int,
                 phase_refresh: int = 0):
        self.confidence = confidence
        self.ipc_target = ipc_target
        self.epi_target = epi_target
        self.min_phase_intervals = min_phase_intervals
        self.phase_refresh = phase_refresh
        self.reused = 0
        self._periods: dict[int, int] = {}
        self._samples: dict[int, list[IntervalMeasurement]] = {}
        # Parallel to _samples: how many periods each measurement covers
        # (itself plus the reuses served from it before the next
        # measurement of the phase) — the coverage weights of the
        # stratified estimate.
        self._counts: dict[int, list[int]] = {}
        self._measurements: list[IntervalMeasurement] = []

    def observe(self, phase: int) -> None:
        """Count one sampling period classified into ``phase``."""
        self._periods[phase] = self._periods.get(phase, 0) + 1

    def closed(self, phase: int) -> bool:
        """True when the phase's IPC and EPI intervals meet their targets."""
        samples = self._samples.get(phase)
        if samples is None or len(samples) < self.min_phase_intervals:
            return False
        ipc = estimate_metric(
            "ipc", [m.ipc for m in samples], self.confidence
        )
        if ipc.relative_half_width > self.ipc_target:
            return False
        epi = estimate_metric(
            "epi", [m.epi for m in samples], self.confidence
        )
        return epi.relative_half_width <= self.epi_target

    def needs_detail(self, phase: int) -> bool:
        """Whether this recurrence must run a detailed interval.

        True until the phase's confidence intervals close, and again every
        ``phase_refresh``-th recurrence once they have (``0`` disables
        refresh).  The refresh sample is what keeps escalation live: a
        phase that drifts after closing gets fresh evidence, its variance
        grows, the interval reopens, and the phase is back on detail — a
        closed phase that was never re-measured could never escalate.
        """
        if not self.closed(phase):
            return True
        if not self.phase_refresh:
            return False
        # The latest measurement already covers ``phase_refresh`` periods:
        # this recurrence is due for a fresh sample.
        return self._counts[phase][-1] >= self.phase_refresh

    def record(self, phase: int, measurement: IntervalMeasurement) -> None:
        """Attach one detailed-interval measurement to ``phase``."""
        self._samples.setdefault(phase, []).append(measurement)
        self._counts.setdefault(phase, []).append(1)
        self._measurements.append(measurement)

    def reuse(self, phase: int) -> None:
        """Count one period served from the phase's latest measurement."""
        self._counts[phase][-1] += 1
        self.reused += 1

    # -- inspection --------------------------------------------------------

    def phases(self) -> list[int]:
        """Phase ids in first-observed order."""
        return list(self._periods)

    def coverage(self, phase: int) -> list[int]:
        """Per-measurement coverage counts of ``phase``, in record order.

        ``coverage(p)[i]`` is how many sampling periods the phase's
        ``i``-th measurement stands for: itself plus every reuse served
        before the next measurement.  Sums to the phase's covered periods
        (its observed periods minus any whose detailed interval measured
        zero instructions).
        """
        return list(self._counts.get(phase, ()))

    def open_phases(self) -> list[int]:
        """Phases whose confidence targets were not met."""
        return [phase for phase in self._periods if not self.closed(phase)]

    def build_estimate(
        self, *, total_instructions: int
    ) -> SampledEstimate:
        """The run's adaptive :class:`SampledEstimate`.

        Phase weights are covered-period shares among the phases that hold
        measurements (in a completed adaptive run that is all of them);
        per-phase estimates use each phase's own samples with their
        coverage counts — a single-sample phase honestly reports an
        unbounded interval — while the combined metrics come from the
        stratified estimator.
        """
        if not self._measurements:
            raise ValueError("an adaptive run recorded no measurements")
        sampled = [
            phase for phase in self._periods if self._samples.get(phase)
        ]
        covered = sum(sum(self._counts[phase]) for phase in sampled)
        phases = []
        strata: dict[str, list[tuple]] = {"ipc": [], "epi": [], "cmpw": []}
        for phase in sampled:
            samples = self._samples[phase]
            counts = self._counts[phase]
            weight = sum(counts) / covered
            ipc_values = [m.ipc for m in samples]
            epi_values = [m.epi for m in samples]
            cmpw_values = [m.cmpw for m in samples]
            strata["ipc"].append((weight, ipc_values, counts))
            strata["epi"].append((weight, epi_values, counts))
            strata["cmpw"].append((weight, cmpw_values, counts))
            phases.append(PhaseEstimate(
                phase=phase,
                periods=self._periods[phase],
                measured=len(samples),
                weight=weight,
                ipc=combine_phase_metric(
                    "ipc", [(1.0, ipc_values, counts)], self.confidence
                ),
                epi=combine_phase_metric(
                    "epi", [(1.0, epi_values, counts)], self.confidence
                ),
                cmpw=combine_phase_metric(
                    "cmpw", [(1.0, cmpw_values, counts)], self.confidence
                ),
                closed=self.closed(phase),
            ))
        return SampledEstimate(
            intervals=tuple(self._measurements),
            total_instructions=total_instructions,
            confidence=self.confidence,
            ipc=combine_phase_metric("ipc", strata["ipc"], self.confidence),
            epi=combine_phase_metric("epi", strata["epi"], self.confidence),
            cmpw=combine_phase_metric(
                "cmpw", strata["cmpw"], self.confidence
            ),
            exact=False,
            mode="adaptive",
            phases=tuple(phases),
        )
