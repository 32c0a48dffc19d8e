"""Calibration curves: the ratio-to-surprise measurement device."""

import random
from math import log

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surprise_engine import (
    CalibrationCurve,
    DuplicateRatio,
    MonotonicityViolation,
    RatioOutOfRange,
    build_curve,
)

BILLION = 10 ** 9


class TestBuildCurve:
    def test_single_interior_entry(self):
        curve = build_curve([(51, 43, 4)])
        assert curve.anchors[0] == (0.0, 0.0)
        assert curve.anchors[-1] == (log(BILLION), 1.0)
        r, s = curve.anchors[1]
        assert r == pytest.approx(log(51 / 43))
        assert s == 0.4

    def test_empty_entries_gives_two_anchors(self):
        curve = build_curve([])
        assert len(curve.anchors) == 2

    def test_monotonicity_violation_names_pair(self):
        with pytest.raises(MonotonicityViolation, match="2 versus 1"):
            build_curve([(2, 1, 9), (3, 1, 1)])

    def test_duplicate_ratio_rejected(self):
        with pytest.raises(DuplicateRatio):
            build_curve([(2, 1, 3), (4, 2, 5)])

    def test_ratio_beyond_saturation(self):
        with pytest.raises(RatioOutOfRange):
            build_curve([(10 ** 10, 1, 5)])

    def test_conflicting_endpoint_entry(self):
        with pytest.raises(MonotonicityViolation):
            build_curve([(1, 1, 5)])
        # harmless restatement of an endpoint passes
        build_curve([(1, 1, 0), (BILLION, 1, 10)])

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            build_curve([(0, 1, 5)])
        with pytest.raises(ValueError):
            build_curve([(2, 1, 11)])


class TestToSurprise:
    @pytest.fixture
    def curve(self):
        return build_curve([(51, 43, 4)])

    def test_anchor_values_exact(self, curve):
        assert curve.to_surprise(1, 1) == 0.0
        assert curve.to_surprise(51, 43) == 0.4
        assert curve.to_surprise(BILLION, 1) == 1.0

    def test_unreduced_ratio_hits_anchor(self, curve):
        assert curve.to_surprise(102, 86) == 0.4

    def test_symmetry(self, curve):
        rng = random.Random(17)
        for _ in range(200):
            x, y = rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6)
            assert curve.to_surprise(x, y) == curve.to_surprise(y, x)

    def test_out_of_range(self, curve):
        with pytest.raises(RatioOutOfRange):
            curve.to_surprise(2 * BILLION, 1)

    def test_interpolation_between_anchors(self):
        # two interior anchors, query between them in log space
        curve = build_curve([(2, 1, 2), (8, 1, 6)])
        mid = curve.to_surprise(4, 1)  # log 4 is midway between log 2 and log 8
        assert mid == pytest.approx(0.4, abs=1e-12)


class TestMonotonicityProperty:
    def test_thousand_random_ratios_nondecreasing(self):
        rng = random.Random(23)
        curve = build_curve([(51, 43, 4), (7, 2, 6), (1000, 1, 8)])
        pairs = []
        for _ in range(1000):
            x, y = rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6)
            hi, lo = max(x, y), min(x, y)
            pairs.append((hi / lo, curve.to_surprise(x, y)))
        pairs.sort()
        values = [s for _, s in pairs]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


@st.composite
def entry_sets(draw):
    count = draw(st.integers(0, 4))
    ratios = draw(st.lists(
        st.tuples(st.integers(1, 10 ** 6), st.integers(1, 10 ** 6)),
        min_size=count, max_size=count))
    degrees = sorted(draw(st.lists(
        st.floats(0.01, 9.99, allow_nan=False), min_size=count, max_size=count)))
    from math import gcd
    normalized = []
    seen = set()
    for (x, y) in ratios:
        hi, lo = max(x, y), min(x, y)
        g = gcd(hi, lo)
        key = (hi // g, lo // g)
        if key == (1, 1) or key in seen:
            continue
        seen.add(key)
        normalized.append(key)
    normalized.sort(key=lambda p: p[0] / p[1])
    return [(x, y, s) for (x, y), s in zip(normalized, degrees)]


@given(entry_sets())
@settings(max_examples=200)
def test_round_trip_reproduces_every_entry(entries):
    curve = build_curve(entries)
    for x, y, s in entries:
        assert curve.to_surprise(x, y) == s / 10.0
