"""Exact base-s digit expansions and the marker-run block codec.

Numbers in [0, 1] are handled as exact rationals (`fractions.Fraction`).
Two finite descriptions of a digit stream are used throughout:

* `DigitString` -- leading digits plus an optional repeating tail, i.e.
  an eventually periodic expansion  x = sum(d_k * s**-k).
* `BlockSequence` -- the run-length form of streams built from blocks
  "marker digit u repeated c-1 times, then the digit c".  A stream of
  blocks c_1, c_2, ... has value

      u/(s-1) + sum_k (c_k - u) * s**-(c_1 + ... + c_k),

  and `element_value` evaluates exactly that, including the constant
  u/(s-1) for finite prefixes (the partial sum of the series).

Values with a terminating expansion have a second representation ending
in the digit s-1 repeated; `DigitString.twin` converts between the two
and `canonical` picks the terminating one (x = 1 is the lone value whose
only in-range expansion is the repeating s-1 tail).

The block values of (s, u) are 1..s-1 without the marker u.
`block_alphabet` lists them, and nothing caches the list; whoever needs
only their count, sum, least or largest value (the codec's longest
marker run, stage and solve budgets) reads `_block_stats`, which
states them in closed form, so a huge base lists nothing before its
budget check.  `_hull_order` lists them in the order of their sibling
cylinders (see `cylinders`).  `_check_blocks` is the one check of block
entries, for `BlockSequence` and for cylinder bases alike.

The public constructors `DigitString(...)` and `BlockSequence(...)`
check every field exactly once and then write the instance dict once.
The codec builds its values directly, without those checks:
`block_encode` reads a checked `BlockSequence`, and `block_decode`
checks every digit while it splits the marker runs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    InsufficientDigitsError,
    InvalidBaseError,
    InvalidBlockError,
    InvalidDigitError,
    NotAMemberError,
    RangeError,
    ResourceBudgetError,
    SadicError,
)

Rational = Fraction


def rational_json(x: Rational) -> dict:
    """Serialize an exact rational with a convenience double field.

    An integer past the interpreter's limit on int-to-str conversion
    (4,300 digits by default; the conversion is quadratic) is refused
    with `ResourceBudgetError` naming its digit count.
    """
    x = Fraction(x)
    try:
        num, den = str(x.numerator), str(x.denominator)
    except ValueError:
        big = max(abs(x.numerator), x.denominator)
        # big >= 2**(bit_length - 1) and 0.30102 < log10(2): a lower
        # bound on the digit count, then count up
        digits = (big.bit_length() - 1) * 30102 // 100000
        while big >= 10**digits:
            digits += 1
        raise ResourceBudgetError(
            f"exact value holds a {digits}-digit integer, over the "
            f"{sys.get_int_max_str_digits()}-digit limit for printing one"
        ) from None
    return {"num": num, "den": den, "approx": float(x)}


def _digits_int(digits, s: int) -> int:
    # Integer value of a digit word read as a base-s numeral.
    acc = 0
    for d in digits:
        acc = acc * s + d
    return acc


def _validate_marker(s: int, u: int) -> None:
    """Reject a marker-run parameter pair unless both are ints (a bool
    is not one), s >= 3 and 0 <= u < s."""
    if type(s) is not int or type(u) is not int:
        raise InvalidBaseError(f"s and u must be ints, got {s!r} and {u!r}")
    if s < 3:
        raise InvalidBaseError(f"s must be >= 3, got {s}")
    if not 0 <= u < s:
        raise InvalidBaseError(f"marker {u} out of range for base {s}")


def _require_int(value, least: int, error: type[SadicError], what: str) -> None:
    """Reject ``value`` with ``error`` unless it is an int (a bool is not
    one) and at least ``least``."""
    if type(value) is not int or value < least:
        raise error(f"{what} must be an int >= {least}, got {value!r}")


def block_alphabet(s: int, u: int) -> tuple[int, ...]:
    """Block values available for (s, u): 1..s-1 with the marker removed."""
    _validate_marker(s, u)
    return tuple(c for c in range(1, s) if c != u)


def _block_stats(s: int, u: int) -> tuple[int, int, int, int]:
    """Check (s, u), then return the count, sum, least and largest value
    of `block_alphabet(s, u)` in closed form, without listing it."""
    _validate_marker(s, u)
    count, total = s - 1 - (u > 0), s * (s - 1) // 2 - u
    return count, total, 1 + (u == 1), s - 1 - (u == s - 1)


def _hull_order(s: int, u: int) -> tuple[int, ...]:
    """`block_alphabet(s, u)` in the order of the sibling hulls, lowest
    first: the values below the marker ascending, then those above it
    descending."""
    return (*range(1, u), *range(s - 1, u, -1))


def _check_blocks(s: int, u: int, blocks, error: type[SadicError], what: str) -> None:
    """Reject with ``error`` the first entry of ``blocks`` that is not a
    block value for (s, u): an int (a bool is not one) in 1..s-1 other
    than the marker.  ``what`` names an entry in the message."""
    for c in blocks:
        if type(c) is not int or not 1 <= c < s:
            raise error(f"{what} {c!r} out of range 1..{s - 1}")
        if c == u:
            raise error(f"{what} {c} equals the marker digit")


def _primitive(word: tuple) -> tuple:
    # Shortest unit whose repetition gives `word`.
    n = len(word)
    for length in range(1, n + 1):
        if n % length == 0 and word == word[:length] * (n // length):
            return word[:length]
    return word


@dataclass(frozen=True, init=False)
class DigitString:
    """A base-s digit word, optionally followed by a repeating tail.

    ``preperiod`` holds the leading digits; ``period``, when present,
    holds digits that repeat forever after them.  ``period=None`` means
    the expansion terminates (implicit zero tail).
    """

    base: int
    preperiod: tuple[int, ...] = ()
    period: tuple[int, ...] | None = None

    def __init__(self, base: int, preperiod=(), period=None):
        # Each field is checked once, then the instance dict is written
        # once; a generated frozen __init__ would set each field through
        # object.__setattr__.
        preperiod = tuple(preperiod)
        if period is not None:
            period = tuple(period)
        if type(base) is not int:
            raise InvalidDigitError(f"base must be an int, got {base!r}")
        if base < 2:
            raise InvalidDigitError(f"base must be >= 2, got {base}")
        if period is not None and not period:
            raise InvalidDigitError("period, when given, must be nonempty")
        for d in preperiod + (period or ()):
            if type(d) is not int or not 0 <= d < base:
                raise InvalidDigitError(f"digit {d!r} out of range for base {base}")
        self.__dict__.update(base=base, preperiod=preperiod, period=period)

    @property
    def is_finite(self) -> bool:
        return self.period is None

    def digits(self, k: int) -> tuple[int, ...]:
        """First k digits of the stream.

        Raises `InsufficientDigitsError` for a finite string shorter
        than k; a terminating value has no digits beyond its word.
        """
        _require_int(k, 0, RangeError, "digit count")
        if k <= len(self.preperiod):
            return self.preperiod[:k]
        if self.period is None:
            raise InsufficientDigitsError(
                f"only {len(self.preperiod)} digits available, {k} requested"
            )
        need = k - len(self.preperiod)
        reps = -(-need // len(self.period))
        return self.preperiod + (self.period * reps)[:need]

    def canonical(self) -> DigitString:
        """Equivalent normal form: primitive minimal tail, no tail of
        zeros, terminating form preferred over a repeating s-1 tail.

        The value 1 keeps its repeating form: no terminating expansion
        of 1 exists inside [0, 1].
        """
        s = self.base
        pre = list(self.preperiod)
        per = list(self.period) if self.period else []
        if per:
            per = list(_primitive(tuple(per)))
            while pre and pre[-1] == per[-1]:
                per = [per[-1]] + per[:-1]
                pre.pop()
            if all(d == 0 for d in per):
                per = []
            elif all(d == s - 1 for d in per):
                if not pre:
                    return DigitString(s, (), (s - 1,))
                pre[-1] += 1  # < s-1 after the roll above
                per = []
        if not per:
            while pre and pre[-1] == 0:
                pre.pop()
            return DigitString(s, tuple(pre), None)
        return DigitString(s, tuple(pre), tuple(per))

    def twin(self) -> DigitString:
        """The other representation of the same value.

        Defined exactly for values whose expansion terminates (or ends
        in the repeating digit s-1): swaps the terminating form and the
        s-1-tail form.  Raises `RangeError` for 0 and 1 and for values
        with a unique expansion.
        """
        s = self.base
        c = self.canonical()
        if c.period is None:
            digits = list(c.preperiod)
            if not digits:
                raise RangeError("0 has a unique expansion in [0, 1]")
            digits[-1] -= 1  # canonical form never ends in 0
            return DigitString(s, tuple(digits), (s - 1,))
        if c.period == (s - 1,) and not c.preperiod:
            raise RangeError("1 has a unique expansion in [0, 1]")
        raise RangeError("value has a unique expansion; no twin exists")

    def to_json(self) -> dict:
        return {
            "s": self.base,
            "preperiod": list(self.preperiod),
            "period": list(self.period) if self.period is not None else None,
        }

    @staticmethod
    def from_json(obj: dict) -> DigitString:
        return DigitString(obj["s"], obj["preperiod"], obj.get("period"))

    def __str__(self) -> str:
        body = "".join(str(d) for d in self.preperiod)
        tail = f"({''.join(str(d) for d in self.period)})" if self.period else ""
        return f"0.{body}{tail}_{self.base}"


@dataclass(frozen=True, init=False)
class BlockSequence:
    """Run-length description of a digit stream over marker digit u.

    Each entry c stands for the digit word "u repeated c-1 times, then
    c"; entries lie in 1..s-1 and never equal the marker.  ``tail``,
    when present, repeats forever after ``blocks``.
    """

    base: int
    marker: int
    blocks: tuple[int, ...] = ()
    tail: tuple[int, ...] | None = None

    def __init__(self, base: int, marker: int, blocks=(), tail=None):
        # As `DigitString.__init__`: one check, one write.
        blocks = tuple(blocks)
        if tail is not None:
            tail = tuple(tail)
        _validate_marker(base, marker)
        if tail is not None and not tail:
            raise InvalidBlockError("tail, when given, must be nonempty")
        _check_blocks(base, marker, blocks + (tail or ()), InvalidBlockError, "block")
        self.__dict__.update(base=base, marker=marker, blocks=blocks, tail=tail)

    @property
    def digit_length(self) -> int:
        """Digits consumed by the finite part."""
        return sum(self.blocks)

    def to_json(self) -> dict:
        return {
            "s": self.base,
            "u": self.marker,
            "blocks": list(self.blocks),
            "tail": list(self.tail) if self.tail is not None else None,
        }


def digits_to_rational(d: DigitString) -> Rational:
    """Exact value sum(d_k * s**-k) of an eventually periodic expansion."""
    s = d.base
    n = len(d.preperiod)
    val = Fraction(_digits_int(d.preperiod, s), s**n)
    if d.period is not None:
        m = len(d.period)
        val += Fraction(_digits_int(d.period, s), s**n * (s**m - 1))
    return val


def rational_to_digits(x: Rational, s: int, n: int | None = None) -> DigitString:
    """Base-s expansion of x in [0, 1], in terminating-preferred form.

    With ``n`` given, returns exactly the first n digits (a finite
    DigitString; trailing zeros are kept).  With ``n=None``, returns the
    full eventually periodic expansion found by long division, which
    `digits_to_rational` maps back to x exactly.
    """
    _require_int(s, 2, InvalidDigitError, "base")
    if n is not None:
        _require_int(n, 0, RangeError, "digit count")
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise RangeError(f"{x} lies outside [0, 1]")
    if x == 1:
        # The only in-range expansion of 1 repeats the top digit.
        if n is None:
            return DigitString(s, (), (s - 1,))
        return DigitString(s, (s - 1,) * n, None)
    num, den = x.numerator, x.denominator
    if n is not None:
        digits = []
        r = num
        for _ in range(n):
            r *= s
            d, r = divmod(r, den)
            digits.append(d)
        return DigitString(s, tuple(digits), None)
    seen: dict[int, int] = {}
    digits = []
    r = num
    while r and r not in seen:
        seen[r] = len(digits)
        r *= s
        d, r = divmod(r, den)
        digits.append(d)
    if not r:
        return DigitString(s, tuple(digits), None)
    start = seen[r]
    return DigitString(s, tuple(digits[:start]), tuple(digits[start:]))


def _fraction(num: int, den: int) -> Fraction:
    # Trusted construction of num/den in lowest terms, for ints
    # num >= 0 and den > 0: one gcd, then the two slots set directly, as
    # `Fraction`'s own arithmetic builds its results, skipping the
    # argument checks of `Fraction(num, den)`.
    g = math.gcd(num, den)
    x = object.__new__(Fraction)
    x._numerator, x._denominator = num // g, den // g
    return x


def _block_words(blocks: tuple[int, ...], u: int) -> tuple[int, ...]:
    """The digit words u^(c-1) c of the blocks c, concatenated."""
    out: list[int] = []
    for c in blocks:
        out.extend((u,) * (c - 1))
        out.append(c)
    return tuple(out)


def block_encode(b: BlockSequence) -> DigitString:
    """Digit stream of a block sequence: each block c becomes the word
    u^(c-1) c; a repeating block tail becomes a repeating digit tail."""
    pre = _block_words(b.blocks, b.marker)
    per = _block_words(b.tail, b.marker) if b.tail is not None else None
    # The words of checked blocks are checked digits: the value is
    # built without `DigitString.__init__`.
    d = object.__new__(DigitString)
    d.__dict__.update(base=b.base, preperiod=pre, period=per)
    return d


def _split_blocks(digits, u: int, max_run: int, pos: int = 0):
    """Blocks closed by ``digits`` and the marker run left pending, for
    marker ``u`` and marker runs of at most ``max_run`` digits.

    The first digit of ``digits`` opens a block and sits at 1-based
    offset ``pos + 1``.  Every digit other than the marker closes a
    block, so a violation (marker run too long, a wrong closing digit,
    a stray zero) raises `NotAMemberError` at the offset of the digit
    where it shows: each block c read so far took c digits, and the
    pending run the rest.
    """
    blocks: list[int] = []
    run = 0
    for digit in digits:
        if digit == u:
            run += 1
            if run > max_run:
                raise NotAMemberError(
                    pos + sum(blocks) + run,
                    f"run of marker digit {u} exceeds {max_run}",
                )
        elif digit == run + 1:
            blocks.append(digit)
            run = 0
        elif digit == 0:
            raise NotAMemberError(
                pos + sum(blocks) + run + 1, "digit 0 cannot close a block"
            )
        else:
            raise NotAMemberError(
                pos + sum(blocks) + run + 1,
                f"block of {run} markers must close with {run + 1},"
                f" found {digit}",
            )
    return blocks, run


def block_decode(d: DigitString, u: int) -> BlockSequence:
    """Inverse of `block_encode`: recover the block sequence of a digit
    string, validating the marker-run pattern digit by digit.

    Raises `NotAMemberError` carrying the 1-based offset of the first
    digit at which the pattern fails (marker run too long, a wrong
    closing digit, a stray zero, or a stream that terminates mid-block).
    For a periodic digit string whose block split is not aligned with
    the digit period, the repeating part found is folded so that the
    result encodes the identical stream.
    """
    s = d.base
    largest = _block_stats(s, u)[3]
    max_run = largest - 1
    pre, per = d.preperiod, d.period
    if per is None:
        blocks, run = _split_blocks(pre, u, max_run)
        if run:
            raise NotAMemberError(len(pre), "stream ends inside an unfinished block")
        tail = None
    else:
        # Past the period's first closer the run restarts at 0 on every
        # pass, so the block tail is the period rotated to start there.
        # When the preperiod ends a block (or is empty) and the period
        # ends with a closer, the period is already block-aligned and
        # needs no rotation.
        j = 0
        if (pre and pre[-1] == u) or per[-1] == u:
            for digit in per:
                j += 1
                if digit != u:
                    break
            else:
                # No closer ever comes: `largest` markers overflow any
                # run, so this raises.
                _split_blocks(pre + per * largest, u, max_run)
        blocks, _ = _split_blocks(pre + per[:j], u, max_run)
        tail, _ = _split_blocks(per[j:] + per[:j], u, max_run, len(pre) + j)
        tail = tuple(tail)
    # Every block passed `_split_blocks`: the value is built without
    # `BlockSequence.__init__`.
    b = object.__new__(BlockSequence)
    b.__dict__.update(base=s, marker=u, blocks=tuple(blocks), tail=tail)
    return b


def element_value(b: BlockSequence) -> Rational:
    """Exact value of the stream described by b.

    Includes the constant marker/(s-1) term of the defining series, so a
    finite b yields the partial sum of its (eventual) completions; a b
    with a repeating tail yields the exact limit.

    Evaluated in integers by Horner's rule: over the blocks,
    acc = acc * s**c + (c - u) gives sum_k (c_k - u) s**(D - D_k) with
    D = sum(blocks) and D_k the k-th partial sum; over the tail the same
    recurrence gives cyc, and with r = s**off - 1 (off = sum(tail),
    r = 1 and cyc = 0 without a tail) the value is

        (u s**D r + (s-1)(acc r + cyc)) / ((s-1) s**D r).
    """
    s, u = b.base, b.marker
    acc = 0
    depth = 0
    for c in b.blocks:
        acc = acc * s**c + (c - u)
        depth += c
    r, cyc = 1, 0
    if b.tail is not None:
        off = 0
        for c in b.tail:
            cyc = cyc * s**c + (c - u)
            off += c
        r = s**off - 1
    scale = s**depth
    return Fraction(
        u * scale * r + (s - 1) * (acc * r + cyc), (s - 1) * scale * r
    )
