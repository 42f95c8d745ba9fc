"""Digit strings, the run-length block codec, and exact evaluation."""

import dataclasses
import hashlib
import json
import random
import sys
import time
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sadicsets
from sadicsets import (
    BlockSequence,
    DigitString,
    InsufficientDigitsError,
    InvalidBaseError,
    InvalidBlockError,
    InvalidDigitError,
    NotAMemberError,
    RangeError,
    ResourceBudgetError,
    SadicError,
    block_alphabet,
    block_decode,
    block_encode,
    box_count_for_alphabet,
    cover_stage,
    cylinder_order,
    digit_frequencies,
    digits_to_rational,
    element_value,
    enumerate_prefixes,
    extension_value_bounds,
    gap_interval,
    induced_alphabet,
    measure_decay_report,
    normal_candidate_exists,
    point_locate,
    rational_json,
    rational_to_digits,
    sprime3_alphabet,
    structural_identity_residual,
    structural_zero_frequency,
    tilde_alphabet,
    uniform_stream_zero_frequency,
)
from sadicsets.sadic import _fraction


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


# SHA-256 of the outcomes of the construction corpus below, recorded
# from the generated dataclass constructors; a change to the public
# constructors must raise the same error, in the same order of checks,
# or build a value with the same repr.
CONSTRUCTION_DIGEST = "ce5b111c7592e0b7aa94a082b5e67786791cc90d864739703ff8b3171c50e0ce"

_PARAMS = (3, 4, 2, 1, 0, -1, True, 3.0, "3", None)
_SEQS = (
    (), (1,), (2,), (3,), (1, 2), [2, 1], range(1, 3), "12",
    (0,), (-1,), (4,), (True,), (False,), (2.0,), ("1",), (None,), 5, None,
)


def _construction_corpus():
    """Calls of the public constructors: each parameter an int in or out
    of range, a bool, a float, a string or None; blocks, tails and digit
    words empty or not, holding the marker, bad entries, or not
    iterable at all; and calls with the wrong arguments."""
    for s in _PARAMS:
        for u in (0, 1, 2, 3, -1, True, 1.0, None):
            for blocks in _SEQS:
                for tail in _SEQS:
                    yield BlockSequence, (s, u, blocks, tail), {}
        for pre in _SEQS:
            for per in _SEQS:
                yield DigitString, (s, pre, per), {}
    yield BlockSequence, (3, 0), {"tail": (1,)}
    yield BlockSequence, (3,), {}
    yield BlockSequence, (3, 0, (), None, 1), {}
    yield DigitString, (3,), {"period": (1,)}
    yield DigitString, (), {}
    yield DigitString, (3,), {"digits": ()}


def _construction_outcome(cls, args, kwargs) -> list:
    try:
        return ["ok", repr(cls(*args, **kwargs))]
    except (SadicError, TypeError) as exc:
        return [type(exc).__name__, str(exc)]


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


    def test_json_refuses_unprintable_integers(self):
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("int-to-str conversion is unlimited here")
        assert rational_json(Fraction(1, 10**limit - 1))["den"] == "9" * limit
        for digits in (limit + 1, limit + 2, 2 * limit, 3 * limit + 7):
            for den in (10 ** (digits - 1), 10**digits - 1):
                with pytest.raises(ResourceBudgetError, match=f" {digits}-digit integer"):
                    rational_json(Fraction(1, den))

    @given(st.integers(0, 10**40), st.integers(1, 10**40))
    def test_trusted_fraction_is_a_fraction(self, num, den):
        x, want = _fraction(num, den), Fraction(num, den)
        assert type(x) is Fraction
        assert (x.numerator, x.denominator) == (want.numerator, want.denominator)
        assert x == want
        assert hash(x) == hash(want)
        assert repr(x) == repr(want)

    def test_fraction_keeps_the_slots_the_trusted_constructor_sets(self):
        assert Fraction.__slots__ == ("_numerator", "_denominator")


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
        block_alphabet(3, 1)  # 3.0 or True must not pass as 3 or 1
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

    def test_construction_corpus_digest(self):
        # Outcomes (repr, or error class and message) of 29,166 public
        # constructions, pinned so that the constructors keep their
        # checks, messages and the order they run in: BlockSequence(2,
        # 0, (), 5) fails on its tail before its base is checked.
        outcomes = [_construction_outcome(*call) for call in _construction_corpus()]
        assert outcomes[-1] == [
            "TypeError", "DigitString.__init__() got an unexpected keyword argument 'digits'"
        ]
        assert _construction_outcome(BlockSequence, (2, 0, (), 5), {}) == [
            "TypeError", "'int' object is not iterable"
        ]
        blob = json.dumps(outcomes, separators=(",", ":"))
        assert hashlib.sha256(blob.encode()).hexdigest() == CONSTRUCTION_DIGEST

    def test_decode_rejects_wrong_closer(self):
        d = DigitString(4, (1, 1, 1, 2))
        with pytest.raises(NotAMemberError) as exc:
            block_decode(d, 1)
        assert exc.value.offset == 3

    def test_decode_rejects_dangling_run(self):
        d = DigitString(3, (1, 0))
        with pytest.raises(NotAMemberError):
            block_decode(d, 0)

    def test_decode_huge_base_lists_no_alphabet(self):
        # the longest marker run comes from a closed form, so base 10**7
        # decodes without listing its 10**7 - 1 block values
        t0 = time.perf_counter()
        b = block_decode(DigitString(10**7, (1, 0, 2)), 0)
        assert time.perf_counter() - t0 < 0.1
        assert b.blocks == (1, 2)

    def test_encode_is_linear_in_the_blocks(self):
        # the digit words are joined in one pass, not re-copied per block
        blocks = (1, 2) * 50_000
        t0 = time.perf_counter()
        d = block_encode(BlockSequence(3, 0, blocks))
        assert time.perf_counter() - t0 < 0.5
        assert d.preperiod == (1, 0, 2) * 50_000

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

    @given(block_sequences())
    @settings(deadline=None)
    def test_codec_values_match_public_construction(self, b):
        # encode and decode skip re-validation of what they build; the
        # values must still equal, hash and print as publicly built ones
        d = block_encode(b)
        public_d = DigitString(d.base, d.preperiod, d.period)
        back = block_decode(d, b.marker)
        public_b = BlockSequence(b.base, b.marker, back.blocks, back.tail)
        for got, want in ((d, public_d), (back, public_b), (back, b)):
            assert got == want
            assert hash(got) == hash(want)
            assert repr(got) == repr(want)
        assert type(d.preperiod) is tuple and type(back.blocks) is tuple

    def test_codec_values_stay_frozen(self):
        d = block_encode(BlockSequence(4, 1, (3,), (2,)))
        b = block_decode(d, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            d.base = 5
        with pytest.raises(dataclasses.FrozenInstanceError):
            b.blocks = (2,)

    def test_public_construction_still_validates(self):
        cases = [
            (lambda: BlockSequence(3, 0, (0,)), InvalidBlockError,
             "block 0 out of range 1..2"),
            (lambda: DigitString(3, (3,)), InvalidDigitError,
             "digit 3 out of range for base 3"),
            (lambda: BlockSequence(3, 0, (True,)), InvalidBlockError,
             "block True out of range 1..2"),
            (lambda: BlockSequence(4, 2, (1, 2)), InvalidBlockError,
             "block 2 equals the marker digit"),
            # the tail takes the same check as the blocks
            (lambda: BlockSequence(3, 0, (1,), (0,)), InvalidBlockError,
             "block 0 out of range 1..2"),
            (lambda: BlockSequence(3, 0, (), (1, 3)), InvalidBlockError,
             "block 3 out of range 1..2"),
            (lambda: BlockSequence(5, 2, (1,), (3, 2)), InvalidBlockError,
             "block 2 equals the marker digit"),
            (lambda: BlockSequence(3, 0, (), (2.0,)), InvalidBlockError,
             "block 2.0 out of range 1..2"),
            (lambda: BlockSequence(3, 0, (1,), (False,)), InvalidBlockError,
             "block False out of range 1..2"),
        ]
        block_decode(block_encode(BlockSequence(3, 0, (1, 2))), 0)
        for build, error, message in cases:
            with pytest.raises(error) as exc:
                build()
            assert type(exc.value) is error
            assert str(exc.value) == message

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


def _series_value(b: BlockSequence) -> Fraction:
    """The defining series u/(s-1) + sum_k (c_k - u) s**-(c_1+...+c_k),
    summed term by term in `Fraction`s (the evaluation `element_value`
    used before its integer Horner form)."""
    s, u = b.base, b.marker
    val = Fraction(u, s - 1)
    depth = 0
    for c in b.blocks:
        depth += c
        val += Fraction(c - u, s**depth)
    if b.tail is not None:
        cycle = Fraction(0)
        off = 0
        for c in b.tail:
            off += c
            cycle += Fraction(c - u, s**off)
        val += Fraction(1, s**depth) * cycle * Fraction(s**off, s**off - 1)
    return val


def _words(blocks, u):
    out = []
    for c in blocks or ():
        out += [u] * (c - 1) + [c]
    return tuple(out)


class TestElementValue:
    def test_matches_series_and_digits(self):
        # 30,000 seeded sequences: every base 3..9, every marker, 0-8
        # blocks, finite and periodic
        rng = random.Random(9)
        n = 0
        while n < 30000:
            for s in range(3, 10):
                for u in range(s):
                    alphabet = block_alphabet(s, u)
                    blocks = tuple(
                        rng.choice(alphabet) for _ in range(rng.randint(0, 8))
                    )
                    tail = None
                    if rng.random() < 0.5:
                        tail = tuple(
                            rng.choice(alphabet) for _ in range(rng.randint(1, 4))
                        )
                    b = BlockSequence(s, u, blocks, tail)
                    value = element_value(b)
                    assert value == _series_value(b), b
                    digits = DigitString(s, _words(blocks, u), _words(tail, u) or (u,))
                    assert value == digits_to_rational(digits), b
                    n += 1

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
_SPRIME3 = sprime3_alphabet()


def box_count_at_depth(depth):
    return box_count_for_alphabet(induced_alphabet(3, 0), depth, [4, 5, 6])


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
    (gap_interval, (3, ()), 1),
    (cylinder_order, (3, 0, ()), 1),
    (enumerate_prefixes, (_SPRIME3,), 6),
    (box_count_at_depth, (), 8),
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


def test_all_lists_exactly_the_package_api():
    # Every public name the package binds, its submodules aside, is in
    # __all__ and vice versa; each comes from a package module except
    # the `Rational` alias of `fractions.Fraction`.
    bound = {
        name
        for name, obj in vars(sadicsets).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert len(sadicsets.__all__) == len(set(sadicsets.__all__)) == 70
    assert set(sadicsets.__all__) == bound
    for name in sadicsets.__all__:
        obj = getattr(sadicsets, name)
        if name == "Rational":
            assert obj is Fraction
        elif callable(obj):
            assert obj.__module__.startswith("sadicsets."), name
