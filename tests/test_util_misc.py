"""Tests for RNG plumbing, timers and exact ratio arithmetic."""

import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro._util import (
    Timer,
    as_rng,
    ceil_div,
    floor_div,
    ratio_cmp,
    ratio_le,
    ratio_lt,
    spawn_rng,
)


class TestRng:
    def test_seed_determinism(self):
        a = as_rng(7).integers(0, 100, 10)
        b = as_rng(7).integers(0, 100, 10)
        assert np.array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(3)
        assert as_rng(gen) is gen

    def test_spawn_children_independent_of_consumption(self):
        parent1 = np.random.default_rng(5)
        children1 = spawn_rng(parent1, 3)
        parent2 = np.random.default_rng(5)
        _ = parent2.random(100)  # consume entropy before spawning
        # spawn() keys derive from the seed sequence, not the stream state,
        # but spawning twice from the same parent gives different children;
        # the contract we rely on: same seed + same spawn call = same streams.
        children2 = spawn_rng(np.random.default_rng(5), 3)
        for c1, c2 in zip(children1, children2):
            assert np.array_equal(c1.integers(0, 1000, 5), c2.integers(0, 1000, 5))


class TestTimer:
    def test_accumulates_and_counts(self):
        t = Timer()
        for _ in range(3):
            with t.section("work"):
                time.sleep(0.001)
        with t.section("other"):
            pass
        totals = t.as_dict()
        assert set(totals) == {"work", "other"}
        assert totals["work"] >= 0.003  # every entry accumulated
        totals["work"] = -1.0  # a copy: the timer is unchanged
        assert t.as_dict()["work"] >= 0.003


nonzero = st.integers(-50, 50).filter(lambda v: v != 0)


class TestRatio:
    @given(st.integers(-50, 50), nonzero, st.integers(-50, 50), nonzero)
    def test_matches_fraction(self, n1, d1, n2, d2):
        f1, f2 = Fraction(n1, d1), Fraction(n2, d2)
        expected = -1 if f1 < f2 else (1 if f1 > f2 else 0)
        assert ratio_cmp(n1, d1, n2, d2) == expected
        assert ratio_le(n1, d1, n2, d2) == (f1 <= f2)
        assert ratio_lt(n1, d1, n2, d2) == (f1 < f2)

    def test_zero_denominator_raises(self):
        with pytest.raises(ZeroDivisionError):
            ratio_cmp(1, 0, 1, 1)
        with pytest.raises(ZeroDivisionError):
            ratio_cmp(1, 1, 1, 0)

    def test_negative_denominators(self):
        # -3/-2 = 1.5 > 1/1
        assert ratio_cmp(-3, -2, 1, 1) == 1
        # 3/-2 = -1.5 < 1/1
        assert ratio_cmp(3, -2, 1, 1) == -1


class TestIntDiv:
    @given(st.integers(-1000, 1000), st.integers(1, 100))
    def test_floor_ceil_consistency(self, a, b):
        assert floor_div(a, b) == a // b
        assert ceil_div(a, b) == -((-a) // b)
        assert floor_div(a, b) <= ceil_div(a, b)
        if a % b == 0:
            assert floor_div(a, b) == ceil_div(a, b)

    def test_nonpositive_divisor_rejected(self):
        with pytest.raises(ValueError):
            floor_div(5, 0)
        with pytest.raises(ValueError):
            ceil_div(5, -2)
