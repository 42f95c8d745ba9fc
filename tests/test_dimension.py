"""Moran similarity-dimension solver and the box-counting oracle."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sadicsets import (
    InvalidBaseError,
    MoranEquation,
    ScaleMismatchError,
    box_count_estimate,
    box_count_for_alphabet,
    dim_S,
    dim_alphabet,
    dim_tilde,
    induced_alphabet,
    moran_solve,
    sprime3_alphabet,
    tilde_alphabet,
)

PHI = (math.sqrt(5.0) + 1.0) / 2.0


def _P(eq, t):
    # P(t) = sum_k N_k t**k in Fraction arithmetic
    return sum(n * Fraction(t) ** k for k, n in eq.counts)


def _assert_certified(eq, r):
    t_lo, t_hi = r.t_bracket
    if t_lo == t_hi:  # the exact alpha = 0 and alpha = 1 regimes
        assert _P(eq, t_lo) == 1
    else:
        assert _P(eq, t_lo) < 1 <= _P(eq, t_hi)
    assert r.bracket[0] <= r.alpha <= r.bracket[1]


class TestMoranSolve:
    def test_marker_zero_base_three(self):
        r = dim_S(3, 0)
        assert abs(r.alpha - math.log(PHI) / math.log(3)) < 1e-9
        assert r.closed_form == "log((sqrt(5)+1)/2)/log(3)"

    def test_sprime3(self):
        r = dim_alphabet(sprime3_alphabet())
        assert abs(r.alpha - math.log(2) / (3 * math.log(3))) < 1e-9
        assert r.closed_form == "log(2)/(3*log(3))"

    def test_tilde_three(self):
        r = dim_tilde(3)
        assert abs(r.alpha - math.log(2) / math.log(3)) < 1e-9

    def test_single_word_zero(self):
        r = moran_solve(MoranEquation(3, {2: 1}))
        assert r.alpha == 0.0
        assert r.closed_form == "0"

    def test_full_one_digit_cover_is_one(self):
        r = moran_solve(MoranEquation(4, {1: 4}))
        assert r.alpha == 1.0
        assert r.closed_form == "1"

    def test_marker_one_base_three_degenerate(self):
        assert dim_S(3, 1).alpha == 0.0

    @pytest.mark.parametrize(
        "s,u,coeffs",
        [
            # t**3 + t**2 + t - 1 = 0
            (4, 0, [1.0, 1.0, 1.0, -1.0]),
            # t**3 + t**2 - 1 = 0
            (4, 1, [1.0, 1.0, 0.0, -1.0]),
        ],
    )
    def test_against_polynomial_roots(self, s, u, coeffs):
        # np.roots is the independent route to the same Moran root;
        # coeffs are descending powers of t = s**-alpha
        roots = np.roots(coeffs)
        t = min(
            r.real for r in roots if abs(r.imag) < 1e-12 and 0 < r.real < 1
        )
        expected = -math.log(t) / math.log(s)
        assert abs(dim_S(s, u).alpha - expected) < 1e-9

    def test_bracket_sandwiches_root(self):
        eq = MoranEquation(5, {1: 2, 3: 1})
        r = moran_solve(eq)
        t_lo, t_hi = r.t_bracket
        assert _P(eq, t_lo) < 1 <= _P(eq, t_hi)
        lo, hi = r.bracket
        assert lo <= r.alpha <= hi
        assert abs(r.residual) < 1e-9

    @given(
        st.integers(2, 12),
        st.dictionaries(
            st.integers(1, 60), st.integers(1, 10**40), min_size=1, max_size=5
        ),
    )
    @settings(deadline=None, max_examples=80)
    def test_certificate(self, s, counts):
        eq = MoranEquation(s, counts)
        _assert_certified(eq, moran_solve(eq))

    def test_huge_counts_do_not_overflow(self):
        # a float solver overflows on 10**320
        eq = MoranEquation(10, ((1, 1), (400, 10**320)))
        r = moran_solve(eq)
        _assert_certified(eq, r)
        assert 0 < r.alpha < 1 and r.residual < 1e-9

    def test_long_words_hit_the_root(self):
        # 2 t**2000 = 1 in base 2 is alpha = 1/2000 on the nose
        eq = MoranEquation(2, ((2000, 2),))
        r = moran_solve(eq)
        _assert_certified(eq, r)
        assert r.alpha == 0.0005

    def test_closed_forms_to_the_last_bit(self):
        for r, want in [
            (dim_S(3, 0), math.log(PHI) / math.log(3)),
            (dim_alphabet(sprime3_alphabet()), math.log(2) / (3 * math.log(3))),
            (dim_tilde(3), math.log(2) / math.log(3)),
        ]:
            assert abs(r.alpha - want) <= math.ulp(want)

    def test_dyadic_root_is_the_upper_end(self):
        # t + 2 t**2 = 1 has the root t = 1/2: P(1/2) = 1 keeps it as t_hi
        eq = MoranEquation.from_alphabet(tilde_alphabet(3))
        r = moran_solve(eq)
        _assert_certified(eq, r)
        assert r.t_bracket[1] == Fraction(1, 2)

    def test_exact_regimes_are_certified(self):
        for eq in (MoranEquation(3, {2: 1}), MoranEquation(4, {1: 4})):
            r = moran_solve(eq)
            _assert_certified(eq, r)
            assert r.residual == 0.0

    def test_rejects_empty_counts(self):
        with pytest.raises(InvalidBaseError):
            MoranEquation(3, {})

    @given(
        st.integers(3, 8),
        st.dictionaries(
            st.integers(1, 6), st.integers(1, 4), min_size=1, max_size=4
        ),
    )
    @settings(deadline=None)
    def test_solution_solves_equation(self, s, counts):
        r = moran_solve(MoranEquation(s, counts))
        value = sum(n * s ** (-k * r.alpha) for k, n in counts.items())
        assert abs(value - 1.0) < 1e-8

    @given(
        st.integers(3, 8),
        st.dictionaries(
            st.integers(1, 6), st.integers(1, 4), min_size=1, max_size=3
        ),
        st.integers(1, 6),
    )
    @settings(deadline=None, max_examples=60)
    def test_adding_words_never_shrinks_alpha(self, s, counts, extra_len):
        a1 = moran_solve(MoranEquation(s, counts)).alpha
        bigger = dict(counts)
        bigger[extra_len] = bigger.get(extra_len, 0) + 1
        a2 = moran_solve(MoranEquation(s, bigger)).alpha
        assert a2 >= a1 - 1e-12


class TestMoranEquation:
    def test_from_alphabet(self):
        eq = MoranEquation.from_alphabet(tilde_alphabet(4))
        assert eq.counts == ((1, 1), (2, 3), (3, 3))

    def test_value_at_one_exact(self):
        eq = MoranEquation(4, {1: 4})
        assert eq.value_at_one() == Fraction(1)

    def test_rejects_non_int_values(self):
        cases = ((2.5, {1: 1}), (3, {True: 1}), (3, {1: 1.0}), (3, {1: False, 2: 1}))
        for s, counts in cases:
            with pytest.raises(InvalidBaseError):
                MoranEquation(s, counts)
        with pytest.raises(InvalidBaseError):
            dim_S(3.5, 0)

    def test_zero_counts_dropped(self):
        assert MoranEquation(3, {1: 1, 2: 0}).counts == ((1, 1),)


class TestBoxCounting:
    def _grid(self, s, j):
        return [Fraction(1, s**e) for e in range(4, 4 + j)]

    def test_marker_zero_base_three_counts(self):
        # frontier hull counts at these scales follow the Fibonacci law
        r = box_count_for_alphabet(induced_alphabet(3, 0), 12, range(4, 11))
        assert [n for _, n in r.counts] == [8, 13, 21, 34, 55, 89, 144]

    def test_slope_matches_root(self):
        r = box_count_for_alphabet(induced_alphabet(3, 0), 12, range(4, 11))
        assert abs(r.slope - dim_S(3, 0).alpha) < 0.05

    def test_tilde_slope(self):
        r = box_count_for_alphabet(tilde_alphabet(3), 12, range(4, 11))
        assert abs(r.slope - dim_tilde(3).alpha) < 0.05

    def test_single_point_slope_zero(self):
        hulls = [(Fraction(1, 3), Fraction(1, 3))]
        r = box_count_estimate(hulls, self._grid(2, 5))
        assert abs(r.slope) < 0.05

    def test_full_interval_slope_one(self):
        step = Fraction(1, 2**8)
        hulls = [(i * step, (i + 1) * step) for i in range(2**8)]
        r = box_count_estimate(hulls, self._grid(2, 5))
        assert abs(r.slope - 1.0) < 0.05

    def test_rejects_few_scales(self):
        with pytest.raises(ScaleMismatchError):
            box_count_estimate(
                [(Fraction(0), Fraction(1, 100))], self._grid(2, 2)
            )

    def test_rejects_wide_hulls(self):
        # hull wider than the finest scale cannot be box-counted honestly
        with pytest.raises(ScaleMismatchError):
            box_count_estimate([(Fraction(0), Fraction(1))], self._grid(2, 5))

    def test_rejects_bad_scale_exponent(self):
        for exponents in ([-3, 4, 5, 6], [4, 5, 6, 1.5], [4, 5, True]):
            with pytest.raises(ScaleMismatchError):
                box_count_for_alphabet(induced_alphabet(3, 0), 8, exponents)

    def test_counts_are_coarse_to_fine(self):
        r = box_count_for_alphabet(induced_alphabet(3, 0), 12, range(4, 11))
        eps = [e for e, _ in r.counts]
        assert eps == sorted(eps, reverse=True)
