"""Property tests for the adaptive sampler's phase machinery.

Three contracts, in the style of ``tests/test_optimizer_property.py``:

* :class:`~repro.sampling.phases.PhaseSignature` is a pure function of
  the profiled window — identical block sequences yield identical
  signatures, and the distance metric is insertion-order independent
  (the generating walker observes targets in first-execution order while
  artifact replay accumulates them sorted; both must classify alike);
* profiled fast-forward is bit-identical across both profiled skip
  paths — the block-compiled walk of the generating walker and artifact
  replay produce the same profile for the same window as counting a
  ``take_batch`` walk of it, so classifier state round-trips through
  ``skip`` without divergence;
* :class:`~repro.trace.selection.ColumnarSelector`'s boundary-jumping
  scan segments a recorded stream exactly like the reference
  :class:`TraceSelector`, including the in-progress state handed over
  by ``transfer``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.sampling.phases import PhaseClassifier, PhaseSignature
from repro.trace.selection import TraceSelector
from repro.workloads.suite import application
from repro.workloads.stream import _DYN_CTI_FLOWS
from repro.workloads.tracefile import compile_artifact

#: Stream length of the recorded fixtures (compiled once per module).
REPLAY_LENGTH = 6000

APPS = ("swim", "gcc", "eon")

_profiles = st.dictionaries(
    keys=st.integers(min_value=0, max_value=(1 << 32) - 1),
    values=st.integers(min_value=1, max_value=64),
    max_size=24,
)


@pytest.fixture(scope="module")
def replay(tmp_path_factory):
    """Compiled artifacts of the property apps, keyed by name."""
    root = tmp_path_factory.mktemp("phase-artifacts")
    artifacts = {}
    for name in APPS:
        app = application(name)
        artifacts[name] = compile_artifact(app, app.seed, REPLAY_LENGTH,
                                           root=root)
    return artifacts


class TestSignatureProperties:
    @given(profile=_profiles)
    def test_identical_profiles_yield_identical_signatures(self, profile):
        a = PhaseSignature.from_profile(profile)
        b = PhaseSignature.from_profile(dict(profile))
        assert a == b
        assert a.distance(b) == 0.0
        assert a.total == sum(profile.values())

    @given(p=_profiles, q=_profiles)
    def test_distance_is_symmetric_bounded_and_order_independent(self, p, q):
        a, b = PhaseSignature.from_profile(p), PhaseSignature.from_profile(q)
        d = a.distance(b)
        assert 0.0 <= d <= 2.0
        assert b.distance(a) == d
        # Reversed insertion order must not move the value by even one
        # ulp: the numerator is computed in exact integer arithmetic.
        ra = PhaseSignature.from_profile(
            dict(reversed(list(p.items())))
        )
        rb = PhaseSignature.from_profile(
            dict(reversed(list(q.items())))
        )
        assert ra.distance(rb) == d

    @given(p=_profiles, q=_profiles)
    def test_disjoint_and_empty_extremes(self, p, q):
        a = PhaseSignature.from_profile(p)
        empty = PhaseSignature.from_profile({})
        assert empty.distance(empty) == 0.0
        if p:
            assert a.distance(empty) == 2.0
        disjoint = PhaseSignature.from_profile(
            {target + (1 << 40): count for target, count in p.items()}
        )
        if p:
            assert a.distance(disjoint) == 2.0

    @given(
        signatures=st.lists(_profiles, min_size=1, max_size=16),
        threshold=st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0]),
        max_phases=st.integers(min_value=1, max_value=6),
    )
    def test_classification_is_a_pure_function_of_the_sequence(
        self, signatures, threshold, max_phases
    ):
        first = PhaseClassifier(threshold=threshold, max_phases=max_phases)
        second = PhaseClassifier(threshold=threshold, max_phases=max_phases)
        ids_first = [
            first.classify(PhaseSignature.from_profile(p))
            for p in signatures
        ]
        ids_second = [
            second.classify(PhaseSignature.from_profile(p))
            for p in signatures
        ]
        assert ids_first == ids_second
        assert len(first) <= max_phases
        assert first.evictions == second.evictions


def _noop(*_args) -> None:
    return None


def _profile_windows(stream, windows):
    """Profile successive skip windows; returns one dict per window."""
    profiles = []
    for window in windows:
        profile: dict[int, int] = {}
        stream.skip(window, profile=profile)
        profiles.append(profile)
    return profiles


def _count_windows(stream, windows):
    """Ground truth: count each window's dynamic-CTI successors from a
    materialised ``take_batch`` walk."""
    profiles = []
    for window in windows:
        profile: dict[int, int] = {}
        for dyn in stream.take_batch(window):
            if dyn.instr.flow_code in _DYN_CTI_FLOWS:
                target = dyn.next_address
                profile[target] = profile.get(target, 0) + 1
        profiles.append(profile)
    return profiles


class TestProfiledSkipRoundTrip:
    @settings(max_examples=10, deadline=None)
    @given(
        app_name=st.sampled_from(APPS),
        windows=st.lists(
            st.integers(min_value=100, max_value=2200),
            min_size=1, max_size=4,
        ),
    )
    def test_profiles_identical_across_all_skip_paths(
        self, replay, app_name, windows
    ):
        walked = _count_windows(
            application(app_name).build().stream(REPLAY_LENGTH), windows,
        )
        plain = _profile_windows(
            application(app_name).build().stream(REPLAY_LENGTH), windows,
        )
        replayed = _profile_windows(replay[app_name].stream(), windows)
        assert plain == replayed == walked

    def test_warmed_skip_rejects_profile(self):
        stream = application("gcc").build().stream(REPLAY_LENGTH)
        with pytest.raises(WorkloadError):
            stream.skip(100, warm=(_noop, _noop, _noop, 6), profile={})
        assert stream.consumed == 0

    @settings(max_examples=6, deadline=None)
    @given(
        app_name=st.sampled_from(APPS),
        windows=st.lists(
            st.integers(min_value=100, max_value=1500),
            min_size=2, max_size=4,
        ),
    )
    def test_classifier_state_round_trips_bit_identically(
        self, replay, app_name, windows
    ):
        """The classification sequence is path-independent.

        Feeding the per-window signatures from the generating walker and
        from artifact replay into fresh classifiers must visit the exact
        same phase ids — the adaptive scheduler's decisions (and so its
        results) cannot depend on which fast-forward path ran.
        """
        walker_side = _profile_windows(
            application(app_name).build().stream(REPLAY_LENGTH), windows,
        )
        replay_side = _profile_windows(replay[app_name].stream(), windows)
        left = PhaseClassifier(threshold=0.5, max_phases=4)
        right = PhaseClassifier(threshold=0.5, max_phases=4)
        left_ids = [
            left.classify(PhaseSignature.from_profile(p))
            for p in walker_side
        ]
        right_ids = [
            right.classify(PhaseSignature.from_profile(p))
            for p in replay_side
        ]
        assert left_ids == right_ids


def _reference_scan(stream, total):
    """Feed ``total`` replayed instructions through a fresh TraceSelector."""
    selector = TraceSelector()
    segments = []
    seen = 0
    while seen < total:
        batch = stream.take_batch(min(512, total - seen))
        if not batch:
            break
        segments.extend(selector.feed(batch, seen))
        seen += len(batch)
    return selector, segments, seen


def _columnar_scan(stream, total):
    """Mirror ``_reference_scan`` through a ColumnarSelector + transfer."""
    selector = TraceSelector()
    scanner = None
    segments = []
    consumed = 0
    def on_segment(segment, position):
        segments.append((segment, position))
    while consumed < total:
        raw = stream.consume_raw(total - consumed)
        if raw is None:
            break
        walker, lo, index = raw
        if not index:
            break
        if scanner is None:
            scanner = selector.columnar_scanner(
                walker.materialize, *walker.select_tables()
            )
        scanner.consume(lo, index, consumed, on_segment)
        consumed += len(index)
    if scanner is not None:
        scanner.transfer(selector)
    return selector, segments, consumed


def _segment_key(segment, position):
    return (
        segment.tid,
        segment.num_instructions,
        segment.uop_count,
        segment.join_count,
        segment.complete,
        [dyn.instr.address for dyn in segment.instructions],
        position,
    )


class TestColumnarSelectorEquivalence:
    """ColumnarSelector mirrors TraceSelector.feed bit-for-bit."""

    @settings(max_examples=8, deadline=None)
    @given(
        app_name=st.sampled_from(APPS),
        total=st.integers(min_value=64, max_value=REPLAY_LENGTH),
    )
    def test_segments_and_transferred_state_match_reference(
        self, replay, app_name, total
    ):
        artifact = replay[app_name]
        ref_stream = artifact.stream()
        col_stream = artifact.stream()
        ref_sel, ref_segments, ref_seen = _reference_scan(ref_stream, total)
        col_sel, col_segments, col_seen = _columnar_scan(col_stream, total)
        assert col_seen == ref_seen
        assert (
            [_segment_key(s, p) for s, p in col_segments]
            == [_segment_key(s, p) for s, p in ref_segments]
        )
        assert col_sel.terminations == ref_sel.terminations

        # The transferred in-progress state must continue identically:
        # feed both selectors the same object tail and compare everything
        # that completes (including the final flush).
        tail_ref = [s for s, _ in ref_sel.feed(ref_stream.take_batch(600))]
        tail_col = [s for s, _ in col_sel.feed(col_stream.take_batch(600))]
        tail_ref.extend(ref_sel.flush())
        tail_col.extend(col_sel.flush())
        assert (
            [_segment_key(s, 0) for s in tail_col]
            == [_segment_key(s, 0) for s in tail_ref]
        )

    def test_scan_and_row_paths_agree_on_the_whole_record(self, replay):
        """The boundary-jumping scan equals the row-by-row reference
        selector over every app's whole record."""
        for app_name in APPS:
            artifact = replay[app_name]
            ref_sel, rows, ref_seen = _reference_scan(
                artifact.stream(), REPLAY_LENGTH
            )
            scan_sel, scan, scan_seen = _columnar_scan(
                artifact.stream(), REPLAY_LENGTH
            )
            assert scan_seen == ref_seen
            assert (
                [_segment_key(s, p) for s, p in scan]
                == [_segment_key(s, p) for s, p in rows]
            )
            assert scan_sel.terminations == ref_sel.terminations
