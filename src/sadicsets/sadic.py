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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import (
    InsufficientDigitsError,
    InvalidBaseError,
    InvalidBlockError,
    InvalidDigitError,
    NotAMemberError,
    RangeError,
    SadicError,
)

Rational = Fraction


def rational_json(x: Rational) -> dict:
    """Serialize an exact rational with a convenience double field."""
    x = Fraction(x)
    return {"num": str(x.numerator), "den": str(x.denominator), "approx": float(x)}


def rational_from_json(obj: dict) -> Rational:
    return Fraction(int(obj["num"]), int(obj["den"]))


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


# Cached: the block split asks for it on every call, and building the
# tuple would cost more than splitting a short stream.  Typed, so that
# 3.0 or True never hits the entry cached for 3 or 1.
@lru_cache(maxsize=256, typed=True)
def block_alphabet(s: int, u: int) -> tuple[int, ...]:
    """Block values available for (s, u): 1..s-1 with the marker removed."""
    _validate_marker(s, u)
    return tuple(c for c in range(1, s) if c != u)


def _primitive(word: tuple) -> tuple:
    # Shortest unit whose repetition gives `word`.
    n = len(word)
    for length in range(1, n + 1):
        if n % length == 0 and word == word[:length] * (n // length):
            return word[:length]
    return word


@dataclass(frozen=True)
class DigitString:
    """A base-s digit word, optionally followed by a repeating tail.

    ``preperiod`` holds the leading digits; ``period``, when present,
    holds digits that repeat forever after them.  ``period=None`` means
    the expansion terminates (implicit zero tail).
    """

    base: int
    preperiod: tuple[int, ...] = ()
    period: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "preperiod", tuple(self.preperiod))
        if self.period is not None:
            object.__setattr__(self, "period", tuple(self.period))
        if type(self.base) is not int:
            raise InvalidDigitError(f"base must be an int, got {self.base!r}")
        if self.base < 2:
            raise InvalidDigitError(f"base must be >= 2, got {self.base}")
        if self.period is not None and not self.period:
            raise InvalidDigitError("period, when given, must be nonempty")
        for d in self.preperiod + (self.period or ()):
            if type(d) is not int or not 0 <= d < self.base:
                raise InvalidDigitError(
                    f"digit {d!r} out of range for base {self.base}"
                )

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


@dataclass(frozen=True)
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

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if self.tail is not None:
            object.__setattr__(self, "tail", tuple(self.tail))
        _validate_marker(self.base, self.marker)
        if self.tail is not None and not self.tail:
            raise InvalidBlockError("tail, when given, must be nonempty")
        for c in self.blocks + (self.tail or ()):
            if type(c) is not int or not 1 <= c < self.base:
                raise InvalidBlockError(
                    f"block {c!r} out of range 1..{self.base - 1}"
                )
            if c == self.marker:
                raise InvalidBlockError(f"block {c} equals the marker digit")

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


def _block_words(blocks: tuple[int, ...], u: int) -> tuple[int, ...]:
    out: list[int] = []
    for c in blocks:
        out.extend([u] * (c - 1))
        out.append(c)
    return tuple(out)


def block_encode(b: BlockSequence) -> DigitString:
    """Digit stream of a block sequence: each block c becomes the word
    u^(c-1) c; a repeating block tail becomes a repeating digit tail."""
    pre = _block_words(b.blocks, b.marker)
    per = _block_words(b.tail, b.marker) if b.tail is not None else None
    return DigitString(b.base, pre, per)


def _split_blocks(digits, s: int, u: int, run: int = 0, pos: int = 0):
    """Blocks closed by ``digits`` and the marker run left pending.

    ``run`` markers are already pending before ``digits``, whose first
    digit sits at 1-based offset ``pos + 1``.  Every digit other than
    the marker closes a block, so a violation (marker run too long, a
    wrong closing digit, a stray zero) raises `NotAMemberError` at the
    offset of the digit where it shows.
    """
    max_run = block_alphabet(s, u)[-1] - 1
    blocks: list[int] = []
    for pos, digit in enumerate(digits, pos + 1):
        if digit == u:
            run += 1
            if run > max_run:
                raise NotAMemberError(
                    pos, f"run of marker digit {u} exceeds {max_run}"
                )
            continue
        if digit == 0:
            raise NotAMemberError(pos, "digit 0 cannot close a block")
        if digit != run + 1:
            raise NotAMemberError(
                pos,
                f"block of {run} markers must close with {run + 1},"
                f" found {digit}",
            )
        blocks.append(digit)
        run = 0
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
    npre = len(d.preperiod)
    blocks, run = _split_blocks(d.preperiod, s, u)
    per = d.period
    if per is None:
        if run:
            raise NotAMemberError(npre, "stream ends inside an unfinished block")
        return BlockSequence(s, u, tuple(blocks), None)

    # Past the period's first closer the run restarts at 0 on every
    # pass, so the block tail is the period rotated to start there.  When
    # the preperiod ends a block and the period ends with a closer, the
    # period is already block-aligned and needs no rotation.
    j = next((i + 1 for i, digit in enumerate(per) if digit != u), None)
    if j is None:
        # No closer ever comes: max_block markers overflow any run.
        _split_blocks(per * block_alphabet(s, u)[-1], s, u, run, npre)
    if run == 0 and per[-1] != u:
        j = 0
    head, _ = _split_blocks(per[:j], s, u, run, npre)
    tail, _ = _split_blocks(per[j:] + per[:j], s, u, 0, npre + j)
    return BlockSequence(s, u, tuple(blocks + head), tuple(tail))


def element_value(b: BlockSequence) -> Rational:
    """Exact value of the stream described by b.

    Includes the constant marker/(s-1) term of the defining series, so a
    finite b yields the partial sum of its (eventual) completions; a b
    with a repeating tail yields the exact limit.
    """
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
