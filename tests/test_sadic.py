"""Digit strings, the run-length block codec, and exact evaluation."""

import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sadicsets import (
    BlockSequence,
    DigitString,
    InsufficientDigitsError,
    InvalidBaseError,
    InvalidBlockError,
    InvalidDigitError,
    NotAMemberError,
    RangeError,
    SadicError,
    block_alphabet,
    block_decode,
    block_encode,
    cover_stage,
    digit_frequencies,
    digits_to_rational,
    element_value,
    extension_value_bounds,
    measure_decay_report,
    normal_candidate_exists,
    point_locate,
    rational_to_digits,
    structural_identity_residual,
    structural_zero_frequency,
    tilde_alphabet,
    uniform_stream_zero_frequency,
)


@st.composite
def block_sequences(draw, with_tail=None):
    s = draw(st.integers(3, 8))
    u = draw(st.integers(0, s - 1))
    alphabet = list(block_alphabet(s, u))
    blocks = tuple(draw(st.lists(st.sampled_from(alphabet), max_size=6)))
    if with_tail is None:
        with_tail = draw(st.booleans())
    tail = None
    if with_tail:
        tail = tuple(
            draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=3))
        )
    return BlockSequence(s, u, blocks, tail)


# SHA-256 of the outcomes of the decode corpus below; a change to the
# decoder must reproduce every block and every error message.
DECODE_DIGEST = "dea70934e25200f09e179694b423e8db79b631d2f97ebb62901de58f00d17e07"


def _decode_corpus(n: int, seed: int):
    """Seeded near-member digit strings with the marker they are decoded
    against: encoded block streams with a few digits mutated, split into
    preperiod and period at random; some periods are all markers and
    some markers lie outside 0..s-1."""
    rng = random.Random(seed)
    for _ in range(n):
        s = rng.randint(3, 8)
        u = rng.randint(0, s - 1)
        alphabet = block_alphabet(s, u)
        digits = []
        for _ in range(rng.randint(0, 8)):
            c = rng.choice(alphabet)
            digits.extend([u] * (c - 1) + [c])
        for _ in range(rng.choice((0, 0, 0, 0, 1, 2))):
            if digits:
                digits[rng.randrange(len(digits))] = rng.randrange(s)
        cut = rng.randint(0, len(digits))
        pre, per = tuple(digits[:cut]), tuple(digits[cut:])
        shape = rng.random()
        if shape < 0.1:
            per = (u,) * rng.randint(1, 4)
        elif shape < 0.4 or not per:
            per = None
        if rng.random() < 0.02:
            u = rng.choice((-1, s, s + 3))
        yield DigitString(s, pre, per), u


def _decode_outcome(d: DigitString, u: int) -> list:
    try:
        return block_decode(d, u).to_json()
    except SadicError as exc:
        return [type(exc).__name__, getattr(exc, "offset", None), str(exc)]


class TestDigitString:
    def test_finite_value(self):
        d = DigitString(3, (1, 0, 2))
        assert digits_to_rational(d) == Fraction(1, 3) + Fraction(2, 27)

    def test_periodic_value(self):
        # 0.(1) base 3 = 1/2
        d = DigitString(3, (), (1,))
        assert digits_to_rational(d) == Fraction(1, 2)

    def test_digit_range_checked(self):
        with pytest.raises(InvalidDigitError):
            DigitString(3, (0, 3))

    def test_rejects_non_int_values(self):
        # bools and floats are refused, not truncated
        for base, pre, per in (
            (3, (True,), None),
            (3, (1.5,), None),
            (3, (), (2.0,)),
            (3.0, (1,), None),
        ):
            with pytest.raises(InvalidDigitError):
                DigitString(base, pre, per)
        for obj in (
            {"s": 3.9, "preperiod": [1.5, True], "period": None},
            {"s": 3, "preperiod": [1, True], "period": None},
            {"s": 3, "preperiod": [1], "period": [2.0]},
            {"s": "3", "preperiod": [1], "period": None},
        ):
            with pytest.raises(InvalidDigitError):
                DigitString.from_json(obj)

    def test_digits_prefix(self):
        d = DigitString(3, (0, 2), (1, 0))
        assert d.digits(6) == (0, 2, 1, 0, 1, 0)

    def test_digits_finite_exhausted(self):
        d = DigitString(3, (0, 2))
        with pytest.raises(InsufficientDigitsError):
            d.digits(3)

    def test_digits_negative(self):
        with pytest.raises(RangeError):
            DigitString(3, (0, 2)).digits(-1)

    def test_twin_pair(self):
        # 0.1 base 3 and 0.0(2) base 3 name the same rational
        d = DigitString(3, (1,))
        t = d.twin()
        assert t.preperiod == (0,)
        assert t.period == (2,)
        assert digits_to_rational(t) == digits_to_rational(d) == Fraction(1, 3)

    def test_twin_of_twin_is_canonical(self):
        d = DigitString(3, (1,))
        assert d.twin().twin().canonical() == d.canonical()

    def test_zero_has_no_twin(self):
        with pytest.raises(RangeError):
            DigitString(3, ()).twin()

    def test_str_form(self):
        assert str(DigitString(3, (0, 2), (1,))) == "0.02(1)_3"

    def test_json_roundtrip(self):
        d = DigitString(5, (0, 4), (1, 3))
        assert DigitString.from_json(d.to_json()) == d


class TestRationalConversion:
    def test_one_keeps_period(self):
        d = rational_to_digits(Fraction(1), 3)
        assert d.period == (2,)
        assert digits_to_rational(d) == 1

    def test_out_of_unit_interval(self):
        with pytest.raises(RangeError):
            rational_to_digits(Fraction(3, 2), 3)

    def test_truncation_mode(self):
        d = rational_to_digits(Fraction(5, 12), 3, n=5)
        assert d.is_finite
        assert len(d.preperiod) == 5
        assert digits_to_rational(d) <= Fraction(5, 12)

    @pytest.mark.parametrize(
        "num,den,s",
        [(1, 2, 3), (5, 12, 3), (7, 26, 3), (1, 7, 4), (22, 63, 4), (0, 1, 5)],
    )
    def test_exact_roundtrip(self, num, den, s):
        x = Fraction(num, den)
        assert digits_to_rational(rational_to_digits(x, s)) == x

    @given(
        st.fractions(min_value=0, max_value=1, max_denominator=5000),
        st.integers(3, 8),
    )
    @settings(deadline=None)
    def test_roundtrip_random(self, x, s):
        assert digits_to_rational(rational_to_digits(x, s)) == x


class TestBlockCodec:
    def test_block_values_respect_marker(self):
        with pytest.raises(InvalidBlockError):
            BlockSequence(3, 0, (0,))
        with pytest.raises(InvalidBlockError):
            BlockSequence(4, 2, (2,))
        with pytest.raises(InvalidBlockError):
            BlockSequence(3, 0, (True,))

    def test_marker_params_must_be_ints(self):
        block_alphabet(3, 0)
        block_alphabet(3, 1)  # cached entries 3.0 or True must not hit
        for s, u in ((3.0, 0), (3, 0.5), (True, 0), (3, True)):
            with pytest.raises(InvalidBaseError):
                block_alphabet(s, u)
            with pytest.raises(InvalidBaseError):
                BlockSequence(s, u, (2,))

    def test_encode_words(self):
        # block c becomes marker repeated c-1 times, then digit c
        d = block_encode(BlockSequence(3, 0, (2, 1)))
        assert d.preperiod == (0, 2, 1)
        d = block_encode(BlockSequence(4, 1, (3,), (2,)))
        assert d.preperiod == (1, 1, 3)
        assert d.period == (1, 2)

    def test_decode_rejects_long_run(self):
        cases = [
            # marker run of 2 cannot be closed by any block over base 3
            (DigitString(3, (0, 0, 1)), 2),
            # markers that no period digit ever closes
            (DigitString(4, (1,), (0,)), 4),
            (DigitString(4, (0,), (0,)), 3),
            # a run that spans the period's wrap-around
            (DigitString(3, (1,), (0, 2, 0)), 5),
        ]
        for d, offset in cases:
            with pytest.raises(NotAMemberError) as exc:
                block_decode(d, 0)
            assert exc.value.offset == offset

    def test_decode_corpus_digest(self):
        # Outcomes (blocks, or error class, offset and message) of 20000
        # near-member strings, pinned so that any change to the decoder
        # must reproduce every result and every error exactly.
        outcomes = [_decode_outcome(d, u) for d, u in _decode_corpus(20000, 4)]
        blob = json.dumps(outcomes, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(blob.encode()).hexdigest() == DECODE_DIGEST

    def test_decode_rejects_wrong_closer(self):
        d = DigitString(4, (1, 1, 1, 2))
        with pytest.raises(NotAMemberError) as exc:
            block_decode(d, 1)
        assert exc.value.offset == 3

    def test_decode_rejects_dangling_run(self):
        d = DigitString(3, (1, 0))
        with pytest.raises(NotAMemberError):
            block_decode(d, 0)

    def test_decode_periodic_phase_fold(self):
        # period written mid-block folds back to a block-aligned tail
        d = DigitString(3, (0,), (2, 0))
        b = block_decode(d, 0)
        assert b.tail is not None
        assert element_value(b) == digits_to_rational(d)

    @given(block_sequences())
    @settings(deadline=None)
    def test_roundtrip(self, b):
        assert block_decode(block_encode(b), b.marker) == b

    @given(block_sequences(with_tail=True))
    @settings(deadline=None)
    def test_encode_value_matches_element_value(self, b):
        assert digits_to_rational(block_encode(b)) == element_value(b)

    @given(block_sequences(with_tail=False))
    @settings(deadline=None)
    def test_finite_value_is_all_marker_extension(self, b):
        # a finite prefix evaluates as its digits followed by markers forever
        prefix = digits_to_rational(block_encode(b)) if b.blocks else Fraction(0)
        tail = Fraction(b.marker, b.base - 1) * Fraction(1, b.base**b.digit_length)
        assert element_value(b) == prefix + tail


class TestElementValue:
    def test_pure_period_one(self):
        # 0.(1) base 3
        assert element_value(BlockSequence(3, 0, (), (1,))) == Fraction(1, 2)

    def test_pure_period_two(self):
        # 0.(02) base 3
        assert element_value(BlockSequence(3, 0, (), (2,))) == Fraction(1, 4)

    def test_marker_one_period(self):
        # 0.(112) base 4, plus the 1/3 series constant
        assert element_value(BlockSequence(4, 1, (), (2,))) == Fraction(2, 5)

    def test_word_stream_value(self):
        # (021)^inf base 3 as a digit string
        d = DigitString(3, (), (0, 2, 1))
        assert digits_to_rational(d) == Fraction(7, 26)


_PERIODIC = DigitString(3, (1,), (2,))

# (function, leading arguments, a valid int for the last argument)
_INT_ARGUMENTS = [
    (tilde_alphabet, (), 3),
    (normal_candidate_exists, (), 3),
    (structural_zero_frequency, (), 3),
    (uniform_stream_zero_frequency, (), 3),
    (cover_stage, (3, 0), 2),
    (measure_decay_report, (3, 0), 2),
    (extension_value_bounds, (3, 0, ()), 2),
    (point_locate, (Fraction(1, 3), 3, 0), 2),
    (rational_to_digits, (Fraction(1, 3), 3), 2),
    (_PERIODIC.digits, (), 2),
    (digit_frequencies, (_PERIODIC,), 2),
    (structural_identity_residual, (DigitString(3, (), (0, 2)), 0), 2),
]


@pytest.mark.parametrize(
    "func,args,good", _INT_ARGUMENTS, ids=[f.__name__ for f, _, _ in _INT_ARGUMENTS]
)
def test_int_arguments_reject_floats_and_bools(func, args, good):
    func(*args, good)
    for bad in (float(good) + 0.5, float(good), True):
        with pytest.raises(SadicError):
            func(*args, bad)
