"""Sampled-simulation configuration.

One :class:`SamplingConfig` describes the statistical interval-sampling
regime of a run: how many instructions each **detailed interval** simulates
at full fidelity (timing core + energy accounting), how many instructions
are **fast-forwarded** between intervals (architectural state only), how
long the **functionally warmed** tail of the fast-forward is (caches and
branch predictor train while skipping), and how long the **trace warmup**
window before each detailed interval is (the trace machinery — selection,
prediction, filters, background phases — replays functionally).  ``None``
everywhere in the code base means *full detail* — the historical,
bit-identical simulation mode.

The config is a frozen, hashable dataclass so it can ride inside
:class:`~repro.experiments.engine.Scale`, key the shared-runner registry,
and fingerprint the persistent result store (sampled and full-detail runs
must never collide under one store key).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.errors import ConfigurationError

#: Confidence levels with a Student-t table in the estimator.
SUPPORTED_CONFIDENCES = (0.90, 0.95, 0.99)

#: Spellings accepted by :meth:`SamplingConfig.parse`.
_OFF_WORDS = ("off", "none", "no", "false", "0", "full")
_ON_WORDS = ("on", "default", "yes", "true", "1")

#: Sampling modes: ``fixed`` measures every period (PR 4 behaviour),
#: ``adaptive`` classifies execution phases online and reuses one
#: representative detailed interval per recurring phase.
SAMPLING_MODES = ("fixed", "adaptive")


@dataclass(frozen=True, slots=True)
class SamplingConfig:
    """Interval-sampling knobs of one sampled simulation.

    ``detail`` instructions are simulated in full detail out of every
    ``detail + gap`` instruction period.  Each gap ends in up to
    ``func_warm`` instructions of functionally warmed fast-forward
    (icache/dcache/branch-predictor training while skipping) followed by
    ``warmup`` instructions of trace-machinery warmup (segment selection,
    trace prediction, filters and background phases replayed without
    timing).  ``confidence`` selects the confidence level of the reported
    per-metric intervals, and ``min_intervals`` is the smallest number of
    detailed intervals worth estimating from — shorter runs fall back to
    full detail.

    The defaults were tuned on the golden apps (see EXPERIMENTS.md): at
    200k instructions they measure ~6.5% of the stream in detail and land
    within a few percent of the full-detail IPC and energy at ~5x the
    speed.

    ``mode="adaptive"`` layers phase-aware scheduling on the same period
    structure: each period's fast-forward lead collects a branch-target
    signature, an online classifier groups periods into phases
    (``phase_threshold`` normalized-Manhattan distance, ``max_phases``-deep
    LRU table), and a phase only spends detail until its IPC/EPI
    confidence intervals close — ``min_phase_intervals`` samples minimum,
    then reuse while the relative half-widths stay within ``ipc_target``
    and ``epi_target``.  Recurring phases therefore skip their warmup and
    detail windows entirely, which is where the adaptive speedup over
    fixed-interval sampling comes from.  A closed phase is still
    re-measured every ``phase_refresh``-th recurrence (``0`` disables the
    refresh): the fresh sample both bounds the bias of reuse under slow
    behavioural drift the signature cannot see (cache warm-up, working-set
    growth) and is what lets a drifted phase's interval reopen and
    escalate the phase back to detail.

    The adaptive-only knob defaults (``ipc_target``, ``epi_target``,
    ``phase_refresh``) carry the values tuned on the golden pairs; the
    shared interval knobs keep the fixed-mode defaults, so prefer
    :meth:`adaptive` over ``SamplingConfig(mode="adaptive")`` — the
    classmethod also applies the tuned warmup and confidence level.
    """

    detail: int = 1000
    gap: int = 14000
    warmup: int = 1500
    func_warm: int = 4000
    confidence: float = 0.95
    min_intervals: int = 4
    mode: str = "fixed"
    phase_threshold: float = 0.5
    max_phases: int = 32
    ipc_target: float = 0.2
    epi_target: float = 0.15
    min_phase_intervals: int = 2
    phase_refresh: int = 4

    def __post_init__(self) -> None:
        if self.detail < 1:
            raise ConfigurationError(
                f"sampling detail interval must be >= 1, got {self.detail}"
            )
        if self.gap < 1:
            raise ConfigurationError(
                f"sampling gap must be >= 1, got {self.gap}"
            )
        if not 0 <= self.warmup <= self.gap:
            raise ConfigurationError(
                f"sampling warmup must lie within the gap "
                f"(0 <= {self.warmup} <= {self.gap})"
            )
        if self.func_warm < 0:
            raise ConfigurationError(
                f"sampling func_warm must be >= 0, got {self.func_warm}"
            )
        if self.warmup + self.func_warm > self.gap:
            raise ConfigurationError(
                f"sampling warmup ({self.warmup}) + func_warm "
                f"({self.func_warm}) must fit in the gap ({self.gap})"
            )
        if self.confidence not in SUPPORTED_CONFIDENCES:
            raise ConfigurationError(
                f"sampling confidence must be one of "
                f"{SUPPORTED_CONFIDENCES}, got {self.confidence}"
            )
        if self.min_intervals < 2:
            raise ConfigurationError(
                f"min_intervals must be >= 2 (a confidence interval needs "
                f"at least two samples), got {self.min_intervals}"
            )
        if self.mode not in SAMPLING_MODES:
            raise ConfigurationError(
                f"sampling mode must be one of {SAMPLING_MODES}, "
                f"got {self.mode!r}"
            )
        if not 0.0 <= self.phase_threshold <= 2.0:
            raise ConfigurationError(
                f"phase_threshold must lie in [0, 2] (normalized Manhattan "
                f"distance range), got {self.phase_threshold}"
            )
        if self.max_phases < 1:
            raise ConfigurationError(
                f"max_phases must be >= 1, got {self.max_phases}"
            )
        if self.ipc_target <= 0 or self.epi_target <= 0:
            raise ConfigurationError(
                f"confidence targets must be positive, got "
                f"ipc_target={self.ipc_target}, epi_target={self.epi_target}"
            )
        if self.min_phase_intervals < 2:
            raise ConfigurationError(
                f"min_phase_intervals must be >= 2 (a per-phase confidence "
                f"interval needs at least two samples), "
                f"got {self.min_phase_intervals}"
            )
        if self.phase_refresh < 0:
            raise ConfigurationError(
                f"phase_refresh must be >= 0 (0 disables refresh), "
                f"got {self.phase_refresh}"
            )

    @property
    def period(self) -> int:
        """Instructions covered by one (gap + detail) sampling period."""
        return self.detail + self.gap

    @property
    def detail_fraction(self) -> float:
        """Fraction of the stream simulated in full detail."""
        return self.detail / self.period

    def fingerprint(self) -> str:
        """Deterministic text form, mixed into the result-store key.

        Fixed-mode fingerprints are byte-identical to the pre-adaptive
        format, so existing store entries stay valid; adaptive mode
        appends every knob the phase scheduler's output depends on.
        """
        base = (
            f"detail={self.detail},gap={self.gap},warmup={self.warmup},"
            f"func_warm={self.func_warm},confidence={self.confidence},"
            f"min_intervals={self.min_intervals}"
        )
        if self.mode == "fixed":
            return base
        return (
            f"{base},mode={self.mode},"
            f"phase_threshold={self.phase_threshold},"
            f"max_phases={self.max_phases},"
            f"ipc_target={self.ipc_target},epi_target={self.epi_target},"
            f"min_phase_intervals={self.min_phase_intervals},"
            f"phase_refresh={self.phase_refresh}"
        )

    def as_fixed(self) -> "SamplingConfig":
        """This regime with the phase scheduler disabled.

        The fallback target when an adaptive run degrades: same intervals,
        same confidence — plain periodic sampling.
        """
        if self.mode == "fixed":
            return self
        return dataclasses.replace(self, mode="fixed")

    @classmethod
    def adaptive(cls, **overrides) -> "SamplingConfig":
        """The tuned phase-aware regime (see EXPERIMENTS.md).

        Tuned on the golden pairs at 200k instructions: a longer trace
        warmup (3000) than the fixed defaults buys per-phase accuracy,
        while the 90% confidence level and the relaxed per-phase targets
        (20% IPC / 15% EPI relative half-width) let recurring phases close
        after ``min_phase_intervals`` samples — which is where the >12x
        speedup over full detail comes from.  Keyword arguments override
        individual knobs; ``mode`` stays ``"adaptive"``.
        """
        tuned = dict(mode="adaptive", warmup=3000, confidence=0.90)
        tuned.update(overrides)
        tuned["mode"] = "adaptive"
        return cls(**tuned)

    @classmethod
    def parse(cls, text: str | None) -> "SamplingConfig | None":
        """Parse a CLI sampling spec.

        ``off``/``none``/``0`` (or ``None``) disable sampling; ``on`` (and
        friends) select the defaults; ``DETAIL:GAP:WARMUP`` sets the main
        knobs explicitly, optionally followed by ``:FUNC_WARM`` (an
        integer) and/or ``:CONFIDENCE`` (a float containing a dot), e.g.
        ``2000:18000:1000``, ``1000:14000:1500:4000`` or
        ``1000:14000:1500:4000:0.99``.

        An ``adaptive`` prefix selects phase-aware scheduling: bare
        ``adaptive`` takes the tuned :meth:`adaptive` defaults,
        ``adaptive:DETAIL:GAP:WARMUP...`` accepts the same interval
        grammar as above (an unspecified confidence defaults to the tuned
        0.90 rather than the fixed-mode 0.95).  The phase knobs
        (``phase_threshold``, ``max_phases``, confidence targets) have no
        positional spelling — construct a :class:`SamplingConfig` directly
        to tune them.
        """
        if text is None:
            return None
        spec = text.strip().lower()
        if spec in _OFF_WORDS or not spec:
            return None
        if spec in _ON_WORDS:
            return cls()
        mode = "fixed"
        if spec == "adaptive":
            return cls.adaptive()
        if spec.startswith("adaptive:"):
            mode = "adaptive"
            spec = spec[len("adaptive:"):]
            if spec in _ON_WORDS:
                return cls.adaptive()
        parts = spec.split(":")
        if len(parts) not in (3, 4, 5):
            raise ConfigurationError(
                f"bad sampling spec {text!r}: expected 'on', 'off', "
                f"'[adaptive:]DETAIL:GAP:WARMUP[:FUNC_WARM][:CONFIDENCE]' "
                f"or 'adaptive'"
            )
        try:
            detail, gap, warmup = (int(p) for p in parts[:3])
            func_warm = cls.__dataclass_fields__["func_warm"].default
            confidence = 0.90 if mode == "adaptive" else 0.95
            rest = parts[3:]
            if rest and "." in rest[-1]:
                confidence = float(rest[-1])
                rest = rest[:-1]
            if rest:
                func_warm = int(rest[0])
                if len(rest) > 1:
                    raise ValueError(f"unexpected trailing part {rest[1]!r}")
        except ValueError as exc:
            raise ConfigurationError(
                f"bad sampling spec {text!r}: {exc}"
            ) from exc
        # A short explicit gap must not inherit an oversized default
        # warming tail: clamp to whatever the gap can hold.
        func_warm = min(func_warm, gap - warmup)
        if mode == "adaptive":
            return cls.adaptive(detail=detail, gap=gap, warmup=warmup,
                                func_warm=func_warm, confidence=confidence)
        return cls(detail=detail, gap=gap, warmup=warmup,
                   func_warm=func_warm, confidence=confidence, mode=mode)
