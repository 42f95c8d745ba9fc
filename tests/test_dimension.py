"""Moran similarity-dimension solver and box counting, with the
prefix-frontier and `Fraction`-hull box counters as its oracles."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sadicsets import (
    BoxCountResult,
    ComboAlphabet,
    SOLVE_BUDGET,
    InvalidBaseError,
    MoranEquation,
    ResourceBudgetError,
    SadicError,
    ScaleMismatchError,
    block_alphabet,
    box_count_for_alphabet,
    dim_S,
    dim_alphabet,
    dim_tilde,
    enumerate_prefixes,
    induced_alphabet,
    moran_solve,
    sprime3_alphabet,
    tilde_alphabet,
)
from sadicsets import dimension
from sadicsets.combos import _extrema_q
from sadicsets.dimension import (
    DimensionResult,
    _alpha,
    _check_exponent,
    _check_finest,
    _closed_form,
    _fit,
    _scaled_sum,
    _seed_bracket,
    _solve_cost,
)
from test_combos import _cylinder_count, _frontier, _frontier_size

PHI = (math.sqrt(5.0) + 1.0) / 2.0


def _box_count_estimate(hulls, scales):
    """Oracle of `box_count_for_alphabet`: count the zero-aligned
    half-open boxes [i*eps, (i+1)*eps) met by any `Fraction` hull, one
    scale at a time, and fit log N against log 1/eps.

    Every hull must be no wider than the finest eps, so it meets the
    boxes floor(lo/eps)..floor(hi/eps), at most two.  With five or more
    scales the two coarsest are left out of the fit.
    """
    if len(scales) < 3:
        raise ScaleMismatchError(f"need at least 3 scales, got {len(scales)}")
    scales = sorted((Fraction(e) for e in scales), reverse=True)
    if any(e <= 0 for e in scales):
        raise ScaleMismatchError("scales must be positive")
    if len(set(scales)) != len(scales):
        raise ScaleMismatchError("scales must be distinct")
    if not hulls:
        raise ScaleMismatchError("no hulls to count")
    widest = max(hi - lo for lo, hi in hulls)
    if widest > scales[-1]:
        raise ScaleMismatchError(
            f"hull width {widest} exceeds finest scale {scales[-1]}; "
            "enumerate deeper or coarsen the scales"
        )
    counts = []
    for eps in scales:
        boxes = set()
        for lo, hi in hulls:
            boxes.update(range(math.floor(lo / eps), math.floor(hi / eps) + 1))
        counts.append((eps, len(boxes)))
    fit = counts[2:] if len(counts) >= 5 else counts
    xs = [-math.log(float(eps)) for eps, _ in fit]
    ys = [math.log(n) for _, n in fit]
    return BoxCountResult(float(np.polyfit(xs, ys, 1)[0]), tuple(counts), len(fit))


def _frontier_box_count(a, depth, scale_exponents):
    """Oracle of `box_count_for_alphabet`: the boxes the depth-`depth`
    frontier hulls meet, taken from the integer prefix frontier by
    digit truncation, within the frontier budget.  Every hull must be
    no wider than the finest scale s**-J, as at any depth >= J + L - 1.

    The frontier hull of y / s**n has the endpoints (y*q + p) /
    (q * s**n), p in {p_lo, p_hi}, and meets box
    floor((y*q + p) / (q * s**(n-J))) at the finest exponent J.  For
    n >= J that box is (y + (p == q)) // s**(n-J), as 0 <= p <= q; a
    prefix with n < J keeps the exact (y*q + p) * s**(J-n) // q.  Box i
    at exponent J lies in box i // s**(J-j) at exponent j.
    """
    for j in scale_exponents:
        _check_exponent(j)
    frontier = _frontier(a, depth, "depth")
    exps = sorted(scale_exponents)
    if len(exps) < 3:
        raise ScaleMismatchError(f"need at least 3 scales, got {len(exps)}")
    if len(set(exps)) != len(exps):
        raise ScaleMismatchError("scales must be distinct")
    s, fine = a.s, exps[-1]
    _check_finest(s, fine)
    q, p_lo, p_hi = _extrema_q(a)
    levels = [(n, nums) for n, nums, _ in frontier if nums]
    n_min = levels[0][0]
    if (p_hi - p_lo) * s**fine > q * s**n_min:
        raise ScaleMismatchError(
            f"hull width {Fraction(p_hi - p_lo, q * s**n_min)} exceeds finest "
            f"scale {Fraction(1, s**fine)}; enumerate deeper or coarsen the scales"
        )
    boxes = set()
    for n, nums in levels:
        if n >= fine:
            d = s ** (n - fine)
            if p_lo < q:  # unless the set is {1}
                boxes.update([y // d for y in nums])
            if p_hi == q:  # the endpoint 1 carries into the next box
                boxes.update([(y + 1) // d for y in nums])
        else:
            m = s ** (fine - n)
            for p in (p_lo, p_hi):
                boxes.update([(y * q + p) * m // q for y in nums])
    counts = [len(boxes)]
    for j, coarser in zip(reversed(exps), reversed(exps[:-1])):
        m = s ** (j - coarser)
        boxes = {i // m for i in boxes}
        counts.append(len(boxes))
    return _fit([(Fraction(1, s**j), n) for j, n in zip(exps, reversed(counts))])


def _bisect_from_zero(eq):
    """Oracle of `moran_solve`: the plain bisection, every level from
    the bracket (0, 1], with no float seed and no budget."""
    if eq.m == 1:
        return DimensionResult(0.0, 0.0, (0.0, 0.0), "0", (Fraction(1),) * 2)
    if eq.value_at_one() == 1:
        return DimensionResult(1.0, 0.0, (1.0, 1.0), "1", (Fraction(1, eq.s),) * 2)
    top = eq.counts[-1][0]
    m, b = 0, 0
    while m * ((1 << b) - m - 1) < 1 << (b + 55):
        m, b = 2 * m + 1, b + 1
        if _scaled_sum(eq.counts, top, m, b) >= 1 << (b * top):
            m -= 1
    one = 1 << ((b + 1) * top)
    residual = abs(_scaled_sum(eq.counts, top, 2 * m + 1, b + 1) - one) / one
    bracket = (_alpha(m + 1, b, eq.s), _alpha(m, b, eq.s))
    t_bracket = (Fraction(m, 1 << b), Fraction(m + 1, 1 << b))
    alpha = _alpha(2 * m + 1, b + 1, eq.s)
    return DimensionResult(alpha, residual, bracket, _closed_form(eq), t_bracket)


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

    def test_long_word_within_budget_solves(self):
        # one-digit words 1 and 2 plus one 2,000-digit word: t = 1/2 - tiny
        eq = MoranEquation(3, {1: 2, 2000: 1})
        r = moran_solve(eq)
        _assert_certified(eq, r)
        assert abs(r.alpha - math.log(2) / math.log(3)) < 1e-12

    def test_long_word_over_budget_is_refused_up_front(self):
        a = ComboAlphabet(3, ((1,), (2,), (1,) * 20000))
        t0 = time.perf_counter()
        with pytest.raises(ResourceBudgetError) as exc:
            dim_alphabet(a)
        assert time.perf_counter() - t0 < 0.01
        assert f"budget is {SOLVE_BUDGET}" in str(exc.value)
        assert "74 bisection steps over 1480002-bit sums" in str(exc.value)

    def test_marker_budget_from_s_and_u_alone(self, monkeypatch):
        # At a budget one below the built equation's cost, dim_S refuses
        # with the same message before any block is listed; at the cost
        # itself it admits.
        def unbuilt(s, u):
            raise AssertionError("block alphabet built before the budget check")

        for s in range(3, 41):
            for u in range(s):
                eq = MoranEquation(s, {c: 1 for c in block_alphabet(s, u)})
                if eq.m == 1:
                    continue  # alpha = 0, with no solve to budget
                cost = _solve_cost(eq.counts, eq.m)[2]
                with monkeypatch.context() as m:
                    m.setattr(dimension, "SOLVE_BUDGET", cost - 1)
                    with pytest.raises(ResourceBudgetError) as built:
                        moran_solve(eq)
                    m.setattr(dimension, "block_alphabet", unbuilt)
                    with pytest.raises(ResourceBudgetError) as closed:
                        dim_S(s, u)
                    assert str(closed.value) == str(built.value)
                    m.setattr(dimension, "SOLVE_BUDGET", cost)
                    m.setattr(dimension, "block_alphabet", block_alphabet)
                    m.setattr(dimension, "moran_solve", lambda eq: "admitted")
                    assert dim_S(s, u) == "admitted"

    def test_huge_marker_base_refused_at_once(self):
        t0 = time.perf_counter()
        with pytest.raises(ResourceBudgetError, match="bit-steps; budget is"):
            dim_S(10**6, 0)
        assert time.perf_counter() - t0 < 0.01

    def test_trivial_regimes_skip_the_budget(self):
        # a single word is alpha = 0 whatever its length
        assert moran_solve(MoranEquation(3, {10**6: 1})).alpha == 0.0

    @given(
        st.integers(2, 12),
        st.dictionaries(
            st.integers(1, 80), st.integers(1, 10**60), min_size=2, max_size=6
        ),
    )
    @settings(deadline=None, max_examples=100)
    def test_step_estimate_bounds_the_bisection(self, s, counts):
        eq = MoranEquation(s, counts)
        if eq.value_at_one() == 1:
            return
        t_lo, t_hi = moran_solve(eq).t_bracket
        steps = t_hi.denominator.bit_length() - 1
        assert steps <= _solve_cost(eq.counts, eq.m)[0]

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


class TestFloatSeed:
    """`moran_solve` starts its bisection at a float-checked bracket of
    level 44; the result is that of the bisection from (0, 1]."""

    @given(
        st.integers(2, 12),
        st.dictionaries(
            st.integers(1, 60),
            st.integers(1, 1000) | st.integers(1, 10**400),
            min_size=1,
            max_size=6,
        ),
    )
    @example(3, {1: 1, 2: 2})  # tilde:3, the dyadic root t = 1/2
    @example(3, {1: 2, 2000: 1})  # a 2,000-digit word
    @example(5, {1: 3, 7: 10, 2000: 10**300})
    @example(2, {2000: 2})  # t = 2**(-1/2000), next to 1
    @example(10, {1: 1, 400: 10**320})  # counts past the doubles
    @example(2, {1: 10**400, 3: 1})  # a root far below 2**-44
    @settings(deadline=None, max_examples=150)
    def test_result_is_the_plain_bisection(self, s, counts):
        eq = MoranEquation(s, counts)
        try:
            r = moran_solve(eq)
        except ResourceBudgetError:
            return
        assert r == _bisect_from_zero(eq)

    def test_every_marker_set(self):
        for s in range(3, 9):
            for u in range(s):
                eq = MoranEquation(s, {c: 1 for c in block_alphabet(s, u)})
                assert moran_solve(eq) == _bisect_from_zero(eq), (s, u)

    def test_seed_brackets(self):
        # a root on the grid rounds up to it: m - 1 is the bracket
        eq = MoranEquation.from_alphabet(tilde_alphabet(3))
        assert _seed_bracket(eq.counts, 2) == ((1 << 43) - 1, 44)
        # an irrational root: the bracket around the float root
        eq = MoranEquation(3, {1: 1, 2: 1})
        m, b = _seed_bracket(eq.counts, 2)
        assert b == 44 and _P(eq, Fraction(m, 1 << b)) < 1 <= _P(eq, Fraction(m + 1, 1 << b))
        # a count past the doubles starts from (0, 1]
        assert _seed_bracket(((1, 10**400), (3, 1)), 3) == (0, 0)

    @pytest.mark.parametrize("steps", [-3, -2, 2, 3])
    @pytest.mark.parametrize(
        "eq",
        [
            MoranEquation(3, {1: 1, 2: 1}),
            MoranEquation(7, {1: 1, 3: 1, 4: 1, 5: 1, 6: 1}),
            MoranEquation(3, {1: 2}),
        ],
        ids=["golden-mean", "marker-2-base-7", "dyadic-root"],
    )
    def test_seed_bracket_falls_back_from_an_off_float_root(self, monkeypatch, eq, steps):
        # a float root a few grid steps below the root fails the second
        # sign test, one above it fails the first even after m - 1: both
        # start from (0, 1] and end on the bracket of the plain bisection.
        # The dyadic root t = 1/2 lies on the grid, where P(m - 1) = 1
        # exactly: m - 1 must be refused there, as P is not below 1
        top = eq.counts[-1][0]
        m, b = _seed_bracket(eq.counts, top)
        assert b == dimension._SEED_LEVEL
        off = (m + steps + 0.5) / (1 << b)
        monkeypatch.setattr(dimension, "_float_root", lambda counts: off)
        assert _seed_bracket(eq.counts, top) == (0, 0)
        assert moran_solve(eq) == _bisect_from_zero(eq)


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
        # 01 repeated in base 2 is the one point 1/3
        r = box_count_for_alphabet(ComboAlphabet(2, ("01",)), 2, range(4, 9))
        assert [n for _, n in r.counts] == [1] * 5
        assert abs(r.slope) < 0.05

    def test_full_interval_slope_one(self):
        r = box_count_for_alphabet(ComboAlphabet(2, ("0", "1")), 8, range(4, 9))
        assert abs(r.slope - 1.0) < 0.05

    def test_rejects_few_scales(self):
        with pytest.raises(ScaleMismatchError, match="need at least 3 scales, got 2"):
            box_count_for_alphabet(ComboAlphabet(2, ("0", "1")), 8, [4, 5])

    @pytest.mark.parametrize("s,word,last", [(3, "2", 678), (2, "1", 1074)])
    def test_finest_scale_must_not_underflow(self, s, word, last):
        # The one point {1} meets one box at every scale.  The slope is
        # fitted to log(float(s**-j)), and s**-last is the smallest of
        # these scales that a double holds above 0.0.
        a = ComboAlphabet(s, (word,))
        r = box_count_for_alphabet(a, 3, [1, 2, last])
        scales = (Fraction(1, s), Fraction(1, s**2), Fraction(1, s**last))
        assert r == BoxCountResult(0.0, tuple((eps, 1) for eps in scales), 3)
        with pytest.raises(ScaleMismatchError) as exc:
            box_count_for_alphabet(a, 3, [1, 2, last + 1])
        assert str(exc.value) == (
            f"finest scale {s}**-{last + 1} rounds to 0.0 as a double, "
            "and the slope is fitted in doubles"
        )

    def test_rejects_bad_scale_exponent(self):
        for exponents in ([-3, 4, 5, 6], [4, 5, 6, 1.5], [4, 5, True]):
            with pytest.raises(ScaleMismatchError):
                box_count_for_alphabet(induced_alphabet(3, 0), 8, exponents)

    @given(
        st.integers(2, 5),
        st.data(),
        st.integers(0, 7),
        st.lists(st.integers(0, 9), min_size=2, max_size=5),
    )
    @settings(deadline=None, max_examples=150)
    def test_integer_counts_match_fraction_hulls(self, s, data, extra, exponents):
        word = st.lists(st.integers(0, s - 1), min_size=1, max_size=3).map(tuple)
        words = data.draw(st.sets(word, min_size=1, max_size=4))
        a = ComboAlphabet(s, tuple(sorted(words)))
        depth = a.max_len + extra
        hulls = [h for h, _ in enumerate_prefixes(a, depth)]
        scales = [Fraction(1, s**j) for j in exponents]

        def outcome(count):
            try:
                return count()
            except ScaleMismatchError as e:
                return str(e)

        got = outcome(lambda: box_count_for_alphabet(a, depth, exponents))
        want = outcome(lambda: _box_count_estimate(hulls, scales))
        if isinstance(want, str) and "exceeds finest scale" in want:
            # the depth changes no count: every hull at depth J + L - 1
            # fits in the finest box
            depth = max(exponents) + a.max_len - 1
            assume(_cylinder_count(a, depth) <= 20_000)
            hulls = [h for h, _ in enumerate_prefixes(a, depth)]
            want = outcome(lambda: _box_count_estimate(hulls, scales))
        assert got == want
        if isinstance(got, str):
            return
        # the same boxes, counted from the Fraction hulls one scale at a time
        for eps, n in got.counts:
            boxes = set()
            for lo, hi in hulls:
                boxes.update(range(math.floor(lo / eps), math.floor(hi / eps) + 1))
            assert n == len(boxes)

    def test_hulls_as_wide_as_the_finest_scale(self):
        # {0, 1} base 2 fills [0, 1]: each depth-6 hull is exactly one
        # finest box wide, and its upper end meets the next box
        a = ComboAlphabet(2, ("0", "1"))
        r = box_count_for_alphabet(a, 6, [4, 5, 6])
        assert [n for _, n in r.counts] == [17, 33, 65]
        hulls = [h for h, _ in enumerate_prefixes(a, 6)]
        assert r == _box_count_estimate(hulls, [Fraction(1, 2**j) for j in (4, 5, 6)])

    @pytest.mark.parametrize(
        "a,depth,exponents",
        [
            pytest.param(ComboAlphabet(2, ("0", "1")), 1, range(4, 9), id="binary-depth-1"),
            pytest.param(ComboAlphabet(2, ("0", "1")), 6, [4, 5, 7], id="binary-depth-6"),
            pytest.param(induced_alphabet(5, 0), 12, range(4, 11), id="marker-5-0-depth-12"),
        ],
    )
    def test_depth_changes_no_count(self, a, depth, exponents):
        # frontier hulls at these depths are wider than the finest
        # scale, but the counts are the boxes the set meets: the boxes
        # the hulls at depth J + L - 1, none wider than s**-J, meet
        exponents = list(exponents)
        deep = max(exponents) + a.max_len - 1
        assert depth < deep
        r = box_count_for_alphabet(a, depth, exponents)
        assert r == box_count_for_alphabet(a, deep, exponents)
        assert r == _frontier_box_count(a, deep, exponents)
        with pytest.raises(ScaleMismatchError, match="exceeds finest scale"):
            _frontier_box_count(a, depth, exponents)

    @pytest.mark.parametrize(
        "a,depth,exponents",
        [
            # sup = 1: the upper endpoint carries into the next box
            (ComboAlphabet(3, ("0", "22")), 10, range(4, 9)),
            (ComboAlphabet(4, ("3", "10", "2")), 8, range(3, 7)),
            # the one-point set {1}
            (ComboAlphabet(3, ("2",)), 8, range(4, 9)),
            (ComboAlphabet(2, ("1",)), 6, [2, 4, 6]),
            # J = 12 > n_min = 11: a hull narrow enough for the finest
            # scale though coarser than its digits
            (induced_alphabet(3, 0), 12, range(4, 13)),
            # not prefix-free: frontier numerators repeat
            (tilde_alphabet(3), 10, range(4, 9)),
        ],
    )
    def test_truncated_counts_match_fraction_hulls(self, a, depth, exponents):
        exponents = list(exponents)
        hulls = [h for h, _ in enumerate_prefixes(a, depth)]
        scales = [Fraction(1, a.s**j) for j in exponents]
        assert box_count_for_alphabet(a, depth, exponents) == _box_count_estimate(
            hulls, scales
        )

    @pytest.mark.parametrize(
        "a,depth,counts",
        [
            (induced_alphabet(3, 0), 16, [8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987]),
            (induced_alphabet(4, 0), 16, [13, 24, 44, 81, 149, 274, 504, 927, 1705, 3136]),
            (tilde_alphabet(3), 16, [2**j for j in range(4, 15)]),
            (tilde_alphabet(4), 12, [56, 142, 373, 967, 2512, 6532]),
        ],
    )
    def test_deep_counts_are_pinned(self, a, depth, counts):
        # the scales s**-4 .. s**-(depth - longest word) of the deep box
        # jobs of perfbench's enumerate workload
        r = box_count_for_alphabet(a, depth, list(range(4, depth - a.max_len + 1)))
        assert [n for _, n in r.counts] == counts

    @given(
        st.integers(2, 6),
        st.data(),
        st.integers(0, 12),
        st.lists(st.integers(0, 12), max_size=5),
    )
    @settings(deadline=None, max_examples=300)
    def test_transfer_counts_match_the_frontier(self, s, data, extra, exponents):
        word = st.lists(st.integers(0, s - 1), min_size=1, max_size=4).map(tuple)
        words = data.draw(st.sets(word, min_size=1, max_size=5))
        a = ComboAlphabet(s, tuple(sorted(words)))
        depth = a.max_len + extra
        assume(_frontier_size(a, depth) <= 20_000)

        def outcome(count):
            try:
                return count()
            except SadicError as e:
                return type(e), str(e)

        got = outcome(lambda: box_count_for_alphabet(a, depth, exponents))
        want = outcome(lambda: _frontier_box_count(a, depth, exponents))
        if isinstance(want, tuple) and "exceeds finest scale" in want[1]:
            # the depth changes no count: every hull at depth J + L - 1
            # fits in the finest box
            depth = max(exponents) + a.max_len - 1
            assume(_frontier_size(a, depth) <= 20_000)
            want = outcome(lambda: _frontier_box_count(a, depth, exponents))
        assert got == want

    @pytest.mark.parametrize(
        "words,counts",
        [
            # sup = 1, reached by 2 repeated: carries into the next box
            (("0", "2", "12"), [50, 120, 289, 697, 1682]),
            # the one point {1}, in box 3**j
            (("2",), [1] * 5),
            # not uniquely decodable: the streams over {0, 1}
            (("0", "1", "01"), [16, 32, 64, 128, 256]),
        ],
    )
    def test_base_three_examples_match_the_frontier(self, words, counts):
        a = ComboAlphabet(3, words)
        r = box_count_for_alphabet(a, 10, range(4, 9))
        assert [n for _, n in r.counts] == counts
        assert r == _frontier_box_count(a, 10, range(4, 9))

    def test_deep_scales_recover_the_root(self):
        # the depth-501 frontier, over 2**249 prefixes, is refused; the
        # transfer counts the boxes to 3**-500 exactly
        a = induced_alphabet(3, 0)
        with pytest.raises(ResourceBudgetError):
            _frontier_box_count(a, 501, [300, 400, 500])
        r = box_count_for_alphabet(a, 501, [300, 400, 500])
        assert abs(r.slope - dim_S(3, 0).alpha) < 1e-9

    def test_transfer_refused_over_budget(self):
        # tilde:64's word automaton reads about 34,000 trie edges a
        # level: 30 levels fit in the budget, 31 do not, and the refusal
        # comes as soon as the edges found so far exceed it
        a = tilde_alphabet(64)
        box_count_for_alphabet(a, 10**9, [4, 5, 29])
        with pytest.raises(ResourceBudgetError) as err:
            box_count_for_alphabet(a, 10**9, [4, 5, 30])
        assert str(err.value) == (
            "box counting over 31 digit levels would read at least 33827 "
            "trie edges per level, 1048637 in all, budget is 1048576"
        )

    def test_counts_are_coarse_to_fine(self):
        r = box_count_for_alphabet(induced_alphabet(3, 0), 12, range(4, 11))
        eps = [e for e, _ in r.counts]
        assert eps == sorted(eps, reverse=True)
