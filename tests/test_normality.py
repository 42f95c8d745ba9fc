"""Digit statistics: forced marker frequency and the balance identity."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sadicsets import (
    BlockSequence,
    DigitString,
    NotAMemberError,
    RangeError,
    ResourceBudgetError,
    SadicError,
    block_alphabet,
    block_encode,
    digit_frequencies,
    normal_candidate_exists,
    normality_dimension_bounds,
    structural_identity_residual,
    structural_zero_frequency,
    uniform_stream_zero_frequency,
)
from sadicsets.normality import PROFILE_BUDGET, ResidualReport
from sadicsets.sadic import _block_words, _split_blocks


def _residual_reference(d, u, k):
    # structural_identity_residual as it was before its split was bounded:
    # split and count all k digits.  The oracle of the bounded version.
    if k < 1:
        raise RangeError("prefix length must be >= 1")
    s = d.base
    closers = block_alphabet(s, u)  # checks the marker before any digit
    digits = d.digits(k)
    _, run = _split_blocks(digits, u, closers[-1] - 1)
    counts = [0] * s
    for dig in digits:
        counts[dig] += 1
    residual = counts[u] - sum((c - 1) * counts[c] for c in closers)
    at_boundary = run == 0
    note = (
        "cut on a block boundary"
        if at_boundary
        else f"cut inside a block; residual is the pending run (<= {s - 2})"
    )
    return ResidualReport(k, residual, at_boundary, run, note)


def _outcome(fn, d, u, k):
    try:
        return fn(d, u, k)
    except SadicError as e:
        return type(e).__name__, getattr(e, "offset", None), str(e)


def _near_member_word(rng, s, u, n_blocks):
    # the digits of n_blocks random blocks, one digit sometimes replaced
    if not 0 <= u < s:
        return tuple(rng.randrange(s) for _ in range(n_blocks))
    word = list(_block_words(rng.choices(block_alphabet(s, u), k=n_blocks), u))
    if word and rng.random() < 0.3:
        word[rng.randrange(len(word))] = rng.randrange(s)
    return tuple(word)


class TestForcedFrequencies:
    @pytest.mark.parametrize(
        "s,value",
        [(3, Fraction(1, 3)), (4, Fraction(3, 4)), (5, Fraction(6, 5))],
    )
    def test_structural_values(self, s, value):
        assert structural_zero_frequency(s) == value

    def test_closed_form(self):
        for s in range(3, 12):
            assert structural_zero_frequency(s) == Fraction(
                (s - 2) * (s - 1), 2 * s
            )

    def test_uniform_stream_values(self):
        assert uniform_stream_zero_frequency(3) == Fraction(1, 3)
        assert uniform_stream_zero_frequency(4) == Fraction(1, 2)

    def test_rejects_small_base(self):
        with pytest.raises(RangeError):
            structural_zero_frequency(2)

    def test_dichotomy(self):
        assert normal_candidate_exists(3).exists
        for s in range(4, 11):
            v = normal_candidate_exists(s)
            assert not v.exists
            assert v.forced_zero != Fraction(1, s)


class TestDigitFrequencies:
    def test_periodic_word_balance(self):
        # 021 repeated forever has every digit at exactly 1/3
        d = DigitString(3, (), (0, 2, 1))
        prof = digit_frequencies(d, 3000)
        assert prof.freqs == (Fraction(1, 3),) * 3

    def test_partial_cycle_counts(self):
        d = DigitString(3, (), (0, 2, 1))
        prof = digit_frequencies(d, 4)
        assert prof.counts == (2, 1, 1)

    def test_finite_exhaustion(self):
        from sadicsets import InsufficientDigitsError

        with pytest.raises(InsufficientDigitsError):
            digit_frequencies(DigitString(3, (0, 1)), 5)

    def test_rejects_zero_length(self):
        with pytest.raises(RangeError):
            digit_frequencies(DigitString(3, (), (1,)), 0)

    def test_profile_budget(self):
        # the largest base admitted counts; the next is refused, with
        # the residual that reads the profile
        prof = digit_frequencies(DigitString(PROFILE_BUDGET, (1,)), 1)
        assert len(prof.counts) == PROFILE_BUDGET
        d = DigitString(PROFILE_BUDGET + 1, (1,))
        message = f"would hold {PROFILE_BUDGET + 1} digit counts, budget is {PROFILE_BUDGET}"
        with pytest.raises(ResourceBudgetError, match=message):
            digit_frequencies(d, 1)
        with pytest.raises(ResourceBudgetError, match=message):
            structural_identity_residual(d, 0, 1)
        # the residual lists no closer before the profile is refused
        t0 = time.perf_counter()
        with pytest.raises(ResourceBudgetError, match="budget is"):
            structural_identity_residual(DigitString(10**7, (1,)), 0, 1)
        assert time.perf_counter() - t0 < 0.1

    @given(st.integers(3, 7), st.data())
    @settings(deadline=None, max_examples=30)
    def test_frequencies_sum_to_one(self, s, data):
        period = tuple(
            data.draw(
                st.lists(st.integers(0, s - 1), min_size=1, max_size=6)
            )
        )
        prof = digit_frequencies(DigitString(s, (), period), 100)
        assert sum(prof.freqs) == 1
        assert len(prof.freqs) == s


class TestBalanceIdentity:
    def test_zero_at_boundaries(self):
        b = BlockSequence(3, 0, (1, 2, 2, 1), None)
        d = block_encode(b)
        rep = structural_identity_residual(d, 0, b.digit_length)
        assert rep.at_boundary
        assert rep.residual == 0

    def test_nonzero_mid_block(self):
        # cutting inside a marker run leaves pending markers unmatched
        d = DigitString(3, (0, 2, 0, 2))
        rep = structural_identity_residual(d, 0, 3)
        assert not rep.at_boundary
        assert rep.pending_run == 1
        assert rep.residual == 1

    def test_rejects_non_members(self):
        with pytest.raises(NotAMemberError):
            structural_identity_residual(DigitString(3, (0, 0, 1)), 0, 3)

    @given(st.integers(3, 7), st.data())
    @settings(deadline=None, max_examples=40)
    def test_identity_at_every_boundary(self, s, data):
        u = data.draw(st.integers(0, s - 1), label="u")
        alphabet = list(block_alphabet(s, u))
        blocks = tuple(
            data.draw(
                st.lists(st.sampled_from(alphabet), min_size=1, max_size=8),
                label="blocks",
            )
        )
        b = BlockSequence(s, u, blocks, None)
        d = block_encode(b)
        cut = 0
        for c in blocks:
            cut += c
            rep = structural_identity_residual(d, u, cut)
            assert rep.at_boundary
            assert rep.residual == 0


    def test_bounded_split_matches_full_split(self):
        # Seeded near-member streams: finite and periodic, all-marker
        # periods, out-of-range markers, and cuts before, inside and far
        # past the split bound.  Same report, or same class, offset and
        # message.
        rng = random.Random(20240)
        for _ in range(30_000):
            s = rng.randint(3, 8)
            u = rng.randint(0, s - 1) if rng.random() < 0.95 else rng.choice((-1, s))
            pre = _near_member_word(rng, s, u, rng.randint(0, 4))
            if rng.random() < 0.25:
                per = None
                k = rng.randint(1, len(pre) + 2)
            else:
                if rng.random() < 0.15:
                    per = (u % s,) * rng.randint(1, 3)
                else:
                    per = _near_member_word(rng, s, u, rng.randint(1, 3)) or (1,)
                k = rng.randint(1, len(pre) + 9 * len(per) + 20)
            d = DigitString(s, pre, per)
            assert _outcome(structural_identity_residual, d, u, k) == _outcome(
                _residual_reference, d, u, k
            ), (d, u, k)

    def test_huge_prefix(self):
        # 10**9 digits would take gigabytes to build; the split is bounded
        d = DigitString(3, (0, 2), (0, 2, 1))
        rep = structural_identity_residual(d, 0, 10**9 + 2)
        assert (rep.k, rep.residual, rep.pending_run) == (10**9 + 2, 1, 1)
        d = DigitString(5, (), (1, 2, 2, 2, 4))
        assert structural_identity_residual(d, 2, 10**9).at_boundary
        rep = structural_identity_residual(d, 2, 10**9 + 3)
        assert (rep.residual, rep.pending_run, rep.at_boundary) == (2, 2, False)


class TestDimensionBounds:
    def test_ordered_pair(self):
        lo, hi = normality_dimension_bounds()
        assert 0.21 < lo.alpha < 0.2104
        assert 0.438 < hi.alpha < 0.4381
        assert lo.alpha < hi.alpha


class TestLongStream:
    def test_thirty_thousand_digit_run(self):
        # words 021/102 both contain one of each digit, so any mix is
        # exactly balanced at multiples of three
        rng = random.Random(7)
        words = [(0, 2, 1), (1, 0, 2)]
        digits = []
        for _ in range(10000):
            digits.extend(rng.choice(words))
        d = DigitString(3, tuple(digits))
        prof = digit_frequencies(d, 30000)
        assert prof.freqs == (Fraction(1, 3),) * 3
        assert "00" not in "".join(map(str, digits))
