"""Covering-stage lengths and the geometric decay of the marker sets."""

import math
import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sadicsets import measure
from sadicsets import (
    STAGE_BUDGET,
    CoverStage,
    RangeError,
    ResourceBudgetError,
    SadicError,
    block_alphabet,
    cover_stage,
    cylinder,
    induced_alphabet,
    measure_decay_report,
    set_extrema,
    sigma,
)
from sadicsets.combos import _hull, _word_steps
from sadicsets.cylinders import _set_extrema_q


def _sorted_stage(s, u, k):
    """`cover_stage` as built by sorting: every rank-k prefix in
    alphabet order, its hull over q * s**top, one sort of the hulls,
    then the disjointness and length checks."""
    steps = _word_steps(s, induced_alphabet(s, u).combos)
    prefixes = [(0, 0)]
    for _ in range(k):
        prefixes = [
            (num * step + v, n + m) for num, n in prefixes for m, step, v in steps
        ]
    ext = q, p_lo, p_hi = _set_extrema_q(s, u)
    top = max(n for _, n in prefixes)
    pw = [s**n for n in range(top + 1)]
    hulls = sorted(
        ((num * q + p_lo) * pw[top - n], (num * q + p_hi) * pw[top - n], num, n)
        for num, n in prefixes
    )
    for (_, hi_a, _, _), (lo_b, _, _, _) in zip(hulls, hulls[1:]):
        assert hi_a < lo_b
    total = Fraction(sum(hi - lo for lo, hi, _, _ in hulls), q * pw[top])
    assert total == sigma(s, u) ** k * Fraction(p_hi - p_lo, q)
    intervals = tuple(_hull(num, pw[n], ext) for _, _, num, n in hulls)
    return CoverStage(s, u, k, intervals, total)


class TestSigma:
    @pytest.mark.parametrize(
        "s,u,value",
        [
            (3, 0, Fraction(4, 9)),
            (4, 0, Fraction(21, 64)),
            (3, 1, Fraction(1, 9)),
        ],
    )
    def test_known_ratios(self, s, u, value):
        assert sigma(s, u) == value

    @given(st.integers(3, 10))
    @settings(deadline=None)
    def test_contraction(self, s):
        for u in range(s):
            assert 0 < sigma(s, u) < 1


class TestCoverStage:
    def test_first_stage_base_three(self):
        stage = cover_stage(3, 0, 1)
        assert stage.intervals == (
            (Fraction(1, 4), Fraction(5, 18)),
            (Fraction(5, 12), Fraction(1, 2)),
        )
        assert stage.total_length == Fraction(1, 9)

    def test_rejects_zero_stage(self):
        with pytest.raises(RangeError):
            cover_stage(3, 0, 0)

    def test_budget_refusal(self):
        with pytest.raises(ResourceBudgetError):
            cover_stage(4, 0, 12)

    @pytest.mark.parametrize(
        "s,u,k", [(3, 0, 1030), (3, 0, 10**9), (40, 0, 200), (10**7, 0, 1)]
    )
    def test_huge_stage_refused_at_once(self, s, u, k):
        # the exact digit total has hundreds of decimal digits (or is a
        # power with a billion-bit exponent): no float and no huge power;
        # the block count and sum come in closed form, so base 10**7
        # lists no block alphabet
        t0 = time.perf_counter()
        with pytest.raises(ResourceBudgetError) as err:
            cover_stage(s, u, k)
        assert time.perf_counter() - t0 < 0.01
        assert str(err.value).endswith(f"budget is {STAGE_BUDGET}")
        assert len(str(err.value)) < 120

    def test_verdicts_match_the_float_estimate(self, monkeypatch):
        # The estimate it replaces: ceil(digits * log2(s)) bits against
        # the budget, digits = k * |A|**(k-1) * sum(A).  A stage that
        # passes the check reaches `_word_steps`, stubbed out here so no
        # stage is built.
        class Admitted(Exception):
            pass

        def admitted(*args):
            raise Admitted

        monkeypatch.setattr(measure, "_word_steps", admitted)
        for s in range(3, 13):
            for u in range(s):
                alphabet = block_alphabet(s, u)
                for k in range(1, 61):
                    digits = k * len(alphabet) ** (k - 1) * sum(alphabet)
                    refused = math.ceil(digits * math.log2(s)) > STAGE_BUDGET
                    expected = ResourceBudgetError if refused else Admitted
                    with pytest.raises(expected):
                        cover_stage(s, u, k)
        for s, k in ((3, 14), (4, 9), (5, 7), (6, 6)):
            with pytest.raises(Admitted):
                cover_stage(s, 0, k)
        for s, k in ((3, 15), (4, 12)):
            with pytest.raises(ResourceBudgetError):
                cover_stage(s, 0, k)

    @given(st.integers(3, 5), st.integers(1, 4))
    @settings(deadline=None, max_examples=30)
    def test_stage_length_recursion(self, s, k):
        for u in range(s):
            stage = cover_stage(s, u, k)
            lo, hi = set_extrema(s, u)
            assert stage.total_length == sigma(s, u) ** k * (hi - lo)

    def test_stage_eight_below_milli(self):
        stage = cover_stage(3, 0, 8)
        assert stage.total_length == Fraction(4, 9) ** 8 * Fraction(1, 4)
        assert stage.total_length < Fraction(1, 1000)

    @given(st.integers(3, 5), st.integers(1, 3))
    @settings(deadline=None, max_examples=20)
    def test_intervals_are_cylinder_hulls(self, s, k):
        for u in range(s):
            bases = product(block_alphabet(s, u), repeat=k)
            hulls = sorted(
                (c.inf, c.sup) for c in (cylinder(s, u, base) for base in bases)
            )
            assert cover_stage(s, u, k).intervals == tuple(hulls)

    def test_hull_order_build_equals_the_sorted_one(self):
        for s in range(3, 9):
            for u in range(s):
                for k in range(1, 4):
                    assert cover_stage(s, u, k) == _sorted_stage(s, u, k)

    def test_reversed_child_order_is_caught(self, monkeypatch):
        # children built against hull order break the linear check
        monkeypatch.setattr(
            measure, "_word_steps", lambda s, words: _word_steps(s, words)[::-1]
        )
        with pytest.raises(SadicError, match="not disjoint"):
            cover_stage(3, 0, 2)

    def test_intervals_disjoint_and_sorted(self):
        stage = cover_stage(3, 0, 5)
        assert len(stage.intervals) == 2**5
        for (a, b), (c, d) in zip(stage.intervals, stage.intervals[1:]):
            assert a <= b < c <= d

    def test_degenerate_marker_zero_length(self):
        # single-block sets have width-0 stage intervals
        stage = cover_stage(3, 1, 3)
        assert stage.total_length == 0


class TestDecayReport:
    def test_matches_direct_stages(self):
        rows = measure_decay_report(3, 0, 6)
        for k, length in rows:
            assert length == cover_stage(3, 0, k).total_length

    def test_row_shape(self):
        rows = measure_decay_report(4, 0, 5)
        assert [k for k, _ in rows] == [1, 2, 3, 4, 5]
