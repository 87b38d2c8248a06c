"""Declarative branch and memory behaviours for synthetic programs.

A static program annotates every conditional branch, indirect jump and
memory instruction with a *spec* describing how that site behaves
dynamically.  Specs are immutable and declarative; the stream walker
instantiates a fresh mutable *state* per spec at stream start, which makes
streams replayable and fully deterministic under a fixed seed.

The spec vocabulary is chosen to span the predictability spectrum the paper
relies on: loop-exit branches (predictable by counters and by gshare),
biased branches (predictable), short periodic patterns (predictable with
history) and data-dependent branches (essentially random, the "irregular"
SpecInt behaviour).
"""

from __future__ import annotations

import random
from bisect import bisect
from dataclasses import dataclass
from itertools import accumulate


# --------------------------------------------------------------------------
# Branch specs
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class LoopBranchSpec:
    """A loop back-edge: taken ``trip - 1`` times, then not-taken once.

    When ``trip_hi > trip_lo`` the trip count is drawn uniformly from
    ``[trip_lo, trip_hi]``.  With ``fixed=True`` the draw happens once and
    every re-entry reuses it (compile-time loop bounds, typical of regular
    FP/multimedia kernels); otherwise the count is redrawn per entry
    (data-dependent bounds, typical of irregular integer code).
    """

    trip_lo: int
    trip_hi: int
    fixed: bool = False


@dataclass(frozen=True, slots=True)
class BiasedBranchSpec:
    """Taken with fixed probability ``p_taken``, independently per execution."""

    p_taken: float


@dataclass(frozen=True, slots=True)
class PatternBranchSpec:
    """Deterministic periodic direction pattern (e.g. TTNT repeating).

    ``period`` directions are drawn once (seeded) and then repeat forever —
    highly predictable for a history-based predictor.
    """

    period: int
    p_taken: float = 0.5


@dataclass(frozen=True, slots=True)
class DataDependentBranchSpec:
    """Effectively random direction — models data-dependent SpecInt branches."""

    p_taken: float = 0.5


@dataclass(frozen=True, slots=True)
class SwitchSpec:
    """An indirect jump choosing among ``n_targets`` with Zipf-ish skew."""

    n_targets: int
    skew: float = 1.0


BranchSpec = (
    LoopBranchSpec | BiasedBranchSpec | PatternBranchSpec | DataDependentBranchSpec
)


# Runtime states.  Each draw is the innermost call of the stream walker's
# fast-forward, so every state binds its constants and RNG methods into a
# closure once: one draw is one Python frame.  The closures make exactly
# the RNG calls the stdlib would (``randrange``/``randint`` through the
# ``getrandbits`` rejection loop of ``Random._randbelow_with_getrandbits``,
# ``choices`` through one ``bisect`` over the cumulative weights), so the
# shared RNG stream is the one ``random.Random`` itself produces; a
# property test pins the equivalence (tests/test_workloads_behaviors.py).


class _LoopState:
    """Loop back-edge: ``next_taken()`` is taken while iterations remain."""

    __slots__ = ("next_taken",)

    def __init__(self, spec: LoopBranchSpec, rng: random.Random):
        lo = spec.trip_lo
        width = spec.trip_hi + 1 - lo
        getrandbits = rng.getrandbits
        bits = width.bit_length()

        def _draw() -> int:
            # ``rng.randint(lo, hi)`` inlined: ``lo + _randbelow(width)``.
            r = getrandbits(bits)
            while r >= width:
                r = getrandbits(bits)
            return lo + r

        variable = width > 1
        trip = _draw() if variable else lo
        remaining = trip

        if variable and not spec.fixed:
            def next_taken() -> bool:
                nonlocal remaining
                remaining -= 1
                if remaining > 0:
                    return True
                remaining = _draw()  # data-dependent bound: redraw per entry
                return False
        else:
            def next_taken() -> bool:
                nonlocal remaining
                remaining -= 1
                if remaining > 0:
                    return True
                remaining = trip
                return False

        self.next_taken = next_taken


class _BiasedState:
    """Taken with probability ``p_taken``: one ``rng.random()`` per
    execution (biased and data-dependent branches alike)."""

    __slots__ = ("next_taken",)

    def __init__(self, spec: BiasedBranchSpec | DataDependentBranchSpec,
                 rng: random.Random):
        draw = rng.random
        p = spec.p_taken

        def next_taken() -> bool:
            return draw() < p

        self.next_taken = next_taken


class _PatternState:
    """A periodic direction pattern drawn once at construction."""

    __slots__ = ("next_taken",)

    def __init__(self, spec: PatternBranchSpec, rng: random.Random):
        pattern = [rng.random() < spec.p_taken for _ in range(spec.period)]
        if not any(pattern):
            pattern[0] = True
        period = len(pattern)
        index = 0

        def next_taken() -> bool:
            nonlocal index
            taken = pattern[index]
            index = (index + 1) % period
            return taken

        self.next_taken = next_taken


class _SwitchState:
    """Indirect jump: ``next_index()`` draws a target index by weight."""

    __slots__ = ("next_index",)

    def __init__(self, spec: SwitchSpec, rng: random.Random):
        weights = [1.0 / (i + 1) ** spec.skew for i in range(spec.n_targets)]
        # ``rng.choices(range(n), weights=weights, k=1)[0]`` with its
        # cumulative weights built once instead of per draw.
        cum = list(accumulate(weights))
        total = cum[-1] + 0.0
        hi = len(cum) - 1
        draw = rng.random

        def next_index() -> int:
            return bisect(cum, draw() * total, 0, hi)

        self.next_index = next_index


def make_branch_state(spec: BranchSpec, rng: random.Random):
    """Instantiate the mutable runtime state for a branch spec."""
    if isinstance(spec, LoopBranchSpec):
        return _LoopState(spec, rng)
    if isinstance(spec, (BiasedBranchSpec, DataDependentBranchSpec)):
        return _BiasedState(spec, rng)
    if isinstance(spec, PatternBranchSpec):
        return _PatternState(spec, rng)
    raise TypeError(f"unknown branch spec {spec!r}")


def make_switch_state(spec: SwitchSpec, rng: random.Random) -> _SwitchState:
    """Instantiate the mutable runtime state for an indirect-jump spec."""
    return _SwitchState(spec, rng)


# --------------------------------------------------------------------------
# Memory specs
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class StrideMemSpec:
    """Sequential access: ``base + (k * stride) % extent`` on the k-th access.

    Models array streaming (SpecFP / multimedia).  ``extent`` bounds the
    touched region so the working set is controllable.
    """

    base: int
    stride: int
    extent: int


@dataclass(frozen=True, slots=True)
class RandomMemSpec:
    """Uniform random access within ``[base, base + extent)``.

    Models pointer-chasing / hash-table behaviour (SpecInt, office apps).
    """

    base: int
    extent: int


MemSpec = StrideMemSpec | RandomMemSpec


class _StrideMemState:
    """Sequential access: ``base + offset``, the offset wrapping at ``extent``."""

    __slots__ = ("next_address",)

    def __init__(self, spec: StrideMemSpec):
        base = spec.base
        stride = spec.stride
        extent = max(spec.extent, 1)
        offset = 0

        def next_address() -> int:
            nonlocal offset
            addr = base + offset
            offset = (offset + stride) % extent
            return addr

        self.next_address = next_address


class _RandomMemState:
    """Uniform random 8-byte-aligned access within the spec's region."""

    __slots__ = ("next_address",)

    def __init__(self, spec: RandomMemSpec, rng: random.Random):
        base = spec.base
        # ``rng.randrange(n)`` inlined: the ``_randbelow`` rejection loop.
        n = max(spec.extent, 8)
        bits = n.bit_length()
        getrandbits = rng.getrandbits

        def next_address() -> int:
            r = getrandbits(bits)
            while r >= n:
                r = getrandbits(bits)
            # Align to 8 bytes like typical scalar accesses.
            return base + (r & ~7)

        self.next_address = next_address


def make_mem_state(spec: MemSpec, rng: random.Random):
    """Instantiate the mutable runtime state for a memory spec."""
    if isinstance(spec, StrideMemSpec):
        return _StrideMemState(spec)
    if isinstance(spec, RandomMemSpec):
        return _RandomMemState(spec, rng)
    raise TypeError(f"unknown memory spec {spec!r}")
