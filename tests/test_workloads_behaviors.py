"""Unit + property tests: branch and memory behaviour specs."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.behaviors import (
    BiasedBranchSpec,
    DataDependentBranchSpec,
    LoopBranchSpec,
    PatternBranchSpec,
    RandomMemSpec,
    StrideMemSpec,
    SwitchSpec,
    make_branch_state,
    make_mem_state,
    make_switch_state,
)


class TestLoopBranch:
    def test_fixed_trip_count_sequence(self):
        state = make_branch_state(LoopBranchSpec(4, 4), random.Random(1))
        # Taken trip-1 times, then not taken; repeats.
        directions = [state.next_taken() for _ in range(8)]
        assert directions == [True, True, True, False] * 2

    def test_trip_of_one_never_takes(self):
        state = make_branch_state(LoopBranchSpec(1, 1), random.Random(1))
        assert [state.next_taken() for _ in range(3)] == [False] * 3

    def test_variable_trips_redrawn_per_entry(self):
        state = make_branch_state(LoopBranchSpec(2, 50), random.Random(3))
        trips = []
        count = 1
        for _ in range(500):
            if state.next_taken():
                count += 1
            else:
                trips.append(count)
                count = 1
        assert len(set(trips)) > 3  # trip count actually varies

    def test_fixed_flag_freezes_trip_count(self):
        state = make_branch_state(LoopBranchSpec(2, 50, fixed=True), random.Random(3))
        trips = []
        count = 1
        for _ in range(500):
            if state.next_taken():
                count += 1
            else:
                trips.append(count)
                count = 1
        assert len(set(trips)) == 1

    @given(st.integers(2, 20), st.integers(0, 1000))
    def test_trips_within_bounds(self, trip, seed):
        state = make_branch_state(LoopBranchSpec(2, trip), random.Random(seed))
        count = 1
        for _ in range(200):
            if state.next_taken():
                count += 1
                assert count <= trip
            else:
                assert 2 <= count
                count = 1


class TestBiasedBranch:
    def test_extreme_bias(self):
        always = make_branch_state(BiasedBranchSpec(1.0), random.Random(1))
        never = make_branch_state(BiasedBranchSpec(0.0), random.Random(1))
        assert all(always.next_taken() for _ in range(50))
        assert not any(never.next_taken() for _ in range(50))

    def test_bias_approximates_probability(self):
        state = make_branch_state(BiasedBranchSpec(0.2), random.Random(5))
        taken = sum(state.next_taken() for _ in range(5000))
        assert 0.15 < taken / 5000 < 0.25


class TestPatternBranch:
    def test_pattern_repeats_exactly(self):
        state = make_branch_state(PatternBranchSpec(period=3), random.Random(9))
        first = [state.next_taken() for _ in range(3)]
        for _ in range(5):
            assert [state.next_taken() for _ in range(3)] == first

    def test_pattern_never_all_not_taken(self):
        for seed in range(30):
            state = make_branch_state(
                PatternBranchSpec(period=4, p_taken=0.01), random.Random(seed)
            )
            assert any(state.next_taken() for _ in range(4))


class TestDataDependentBranch:
    def test_roughly_balanced(self):
        state = make_branch_state(DataDependentBranchSpec(0.5), random.Random(2))
        taken = sum(state.next_taken() for _ in range(4000))
        assert 0.4 < taken / 4000 < 0.6


class TestSwitch:
    def test_indices_in_range(self):
        state = make_switch_state(SwitchSpec(5, skew=1.0), random.Random(3))
        assert all(0 <= state.next_index() < 5 for _ in range(200))

    def test_skew_favours_low_indices(self):
        state = make_switch_state(SwitchSpec(6, skew=2.0), random.Random(3))
        draws = [state.next_index() for _ in range(3000)]
        assert draws.count(0) > draws.count(5) * 3


class TestMemSpecs:
    def test_stride_wraps_within_extent(self):
        state = make_mem_state(StrideMemSpec(base=0x1000, stride=8, extent=64),
                               random.Random(1))
        addresses = [state.next_address() for _ in range(20)]
        assert all(0x1000 <= a < 0x1000 + 64 for a in addresses)
        assert addresses[0] == 0x1000 and addresses[1] == 0x1008
        assert addresses[8] == 0x1000  # wrapped

    def test_random_stays_in_region_and_aligned(self):
        state = make_mem_state(RandomMemSpec(base=0x2000, extent=4096),
                               random.Random(1))
        for _ in range(200):
            address = state.next_address()
            assert 0x2000 <= address < 0x2000 + 4096
            assert address % 8 == 0


# -- the single-frame draws make the stdlib's RNG calls ---------------------

_SEEDS = st.integers(0, 2**32 - 1)
_DRAWS = 300


def _same_rngs(seed):
    return random.Random(seed), random.Random(seed)


class TestStdlibDrawEquivalence:
    """Every state's draw sequence is the one ``random.Random`` produces.

    The states inline ``randrange``/``randint``/``choices`` for speed; a
    CPython change to those methods must fail here rather than silently
    move every simulated result.  Both RNGs must also end in the same
    state, so later draws from the shared walker RNG stay aligned too.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        seed=_SEEDS,
        base=st.integers(0, 2**32),
        extent=st.one_of(
            st.integers(0, 8),
            st.integers(9, 5000),
            st.integers(3, 24).map(lambda k: 1 << k),
            st.integers(2**20, 2**40),
        ),
    )
    def test_random_memory_matches_randrange(self, seed, base, extent):
        rng, ref = _same_rngs(seed)
        state = make_mem_state(RandomMemSpec(base=base, extent=extent), rng)
        got = [state.next_address() for _ in range(_DRAWS)]
        n = max(extent, 8)
        want = [base + (ref.randrange(n) & ~7) for _ in range(_DRAWS)]
        assert got == want
        assert rng.getstate() == ref.getstate()

    @settings(max_examples=60, deadline=None)
    @given(
        seed=_SEEDS,
        trip_lo=st.integers(1, 40),
        span=st.integers(1, 300),
        fixed=st.booleans(),
    )
    def test_loop_trips_match_randint(self, seed, trip_lo, span, fixed):
        spec = LoopBranchSpec(trip_lo, trip_lo + span, fixed=fixed)
        rng, ref = _same_rngs(seed)
        state = make_branch_state(spec, rng)
        got = [state.next_taken() for _ in range(_DRAWS)]

        def draw():
            return ref.randint(spec.trip_lo, spec.trip_hi)

        trip = draw() if fixed else None
        remaining = trip if fixed else draw()
        want = []
        for _ in range(_DRAWS):
            remaining -= 1
            if remaining > 0:
                want.append(True)
            else:
                remaining = trip if fixed else draw()
                want.append(False)
        assert got == want
        assert rng.getstate() == ref.getstate()

    @settings(max_examples=60, deadline=None)
    @given(
        seed=_SEEDS,
        n_targets=st.integers(1, 40),
        skew=st.floats(0.0, 3.0, allow_nan=False),
    )
    def test_switch_matches_weighted_choices(self, seed, n_targets, skew):
        rng, ref = _same_rngs(seed)
        state = make_switch_state(SwitchSpec(n_targets, skew=skew), rng)
        got = [state.next_index() for _ in range(_DRAWS)]
        weights = [1.0 / (i + 1) ** skew for i in range(n_targets)]
        want = [
            ref.choices(range(n_targets), weights=weights, k=1)[0]
            for _ in range(_DRAWS)
        ]
        assert got == want
        assert rng.getstate() == ref.getstate()

    @settings(max_examples=30, deadline=None)
    @given(seed=_SEEDS, p=st.floats(0.0, 1.0, allow_nan=False))
    def test_probability_branches_match_random(self, seed, p):
        for spec in (BiasedBranchSpec(p), DataDependentBranchSpec(p)):
            rng, ref = _same_rngs(seed)
            state = make_branch_state(spec, rng)
            got = [state.next_taken() for _ in range(_DRAWS)]
            assert got == [ref.random() < p for _ in range(_DRAWS)]
            assert rng.getstate() == ref.getstate()
