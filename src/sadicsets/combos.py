"""Sets built from a finite alphabet of digit words ("combinations").

A `ComboAlphabet` over base s is a finite collection of nonempty digit
words; the associated set holds every value whose digit stream is an
infinite concatenation of alphabet words.  Fixing a prefix of n words
with N total digits pins the stream's first N digits, so the prefix
cylinder is value(prefix) + s**-N * E, where E is the whole set; its
hull therefore scales the whole-set extrema by s**-N exactly.

Every prefix hull in the package, marker-run cylinders and covering
stages included, is computed here in one way: the prefix is carried as
an integer numerator over s**N (`_extend`), and each hull endpoint
becomes a single `Fraction` only at the end (`_hull`).

Whole-set extrema follow the single-word periodic rule: the least and
greatest element are attained by repeating one alphabet word forever.
`comboset_extrema` always re-checks that rule by brute force against
every prefix hull up to a configurable digit depth and raises
`ExtremaFalsificationError` with a witness if any hull pokes outside.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import InvalidDigitError, ExtremaFalsificationError, RangeError, WordError
from .sadic import (
    DigitString,
    Rational,
    _block_words,
    _digits_int,
    _require_int,
    block_alphabet,
    digits_to_rational,
)

Interval = tuple[Rational, Rational]


def parse_word(word) -> tuple[int, ...]:
    """Accept a word as a digit string like "021" or a list of ints."""
    if isinstance(word, str):
        if not word or not word.isdigit():
            raise WordError(f"malformed word {word!r}")
        return tuple(int(ch) for ch in word)
    out = tuple(word)
    if not out:
        raise WordError("empty word")
    for d in out:
        # a float or bool digit is malformed, not something to truncate
        if isinstance(d, bool) or not isinstance(d, int):
            raise WordError(f"malformed digit {d!r} in word {list(out)}")
    return out


def word_str(word: tuple[int, ...]) -> str:
    if all(d < 10 for d in word):
        return "".join(str(d) for d in word)
    return "[" + ",".join(str(d) for d in word) + "]"


@dataclass(frozen=True)
class ComboAlphabet:
    """A base plus a finite set of distinct nonempty digit words."""

    s: int
    combos: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if isinstance(self.combos, str):
            raise WordError("combos must be a list of words, not one string")
        object.__setattr__(
            self, "combos", tuple(parse_word(w) for w in self.combos)
        )
        _require_int(self.s, 2, InvalidDigitError, "base")
        if not self.combos:
            raise WordError("alphabet needs at least one word")
        if len(set(self.combos)) != len(self.combos):
            raise WordError("alphabet words must be distinct")
        for w in self.combos:
            for d in w:
                if not isinstance(d, int) or not 0 <= d < self.s:
                    raise InvalidDigitError(
                        f"digit {d!r} out of range for base {self.s}"
                    )

    @property
    def m(self) -> int:
        return len(self.combos)

    @property
    def max_len(self) -> int:
        return max(len(w) for w in self.combos)

    @property
    def length_counts(self) -> dict[int, int]:
        """Histogram: word length -> how many alphabet words have it."""
        return dict(sorted(Counter(len(w) for w in self.combos).items()))

    def is_prefix_free(self) -> bool:
        """True when no word is a proper prefix of another.

        Without this, distinct word sequences can spell the same digit
        stream, so combo-cylinder disjointness may fail; the dimension
        equation still only sees the length histogram.
        """
        words = sorted(self.combos)
        return not any(
            b[: len(a)] == a for a, b in zip(words, words[1:])
        )

    def to_json(self) -> dict:
        return {"s": self.s, "combos": [word_str(w) if all(d < 10 for d in w) else list(w) for w in self.combos]}

    @staticmethod
    def from_json(obj: dict) -> ComboAlphabet:
        return ComboAlphabet(obj["s"], obj["combos"])


def tilde_alphabet(s: int) -> ComboAlphabet:
    """All marker-run block words pooled over every marker digit:
    u^(c-1) c for c in 1..s-1, u in 0..s-1, u != c.

    Every c = 1 choice collapses to the single word "1", so the alphabet
    holds exactly 1 + (s-2)(s-1) = s*s - 3s + 3 distinct words: one of
    length 1 and s-1 of each length 2..s-1.
    """
    _require_int(s, 3, InvalidDigitError, "s")
    words = []
    seen = set()
    for c in range(1, s):
        for u in range(s):
            if u == c:
                continue
            w = (u,) * (c - 1) + (c,)
            if w not in seen:
                seen.add(w)
                words.append(w)
    assert len(words) == s * s - 3 * s + 3  # 1 + (s-1)(s-2) after dedupe
    return ComboAlphabet(s, tuple(words))


def sprime3_alphabet() -> ComboAlphabet:
    """The two-word base-3 alphabet {021, 102} whose set realizes the
    lower bound in the normality dimension bracket."""
    return ComboAlphabet(3, ((0, 2, 1), (1, 0, 2)))


def induced_alphabet(s: int, u: int) -> ComboAlphabet:
    """The (s, u) marker-run set expressed as a combination alphabet:
    words u^(c-1) c for the usable block values c."""
    words = tuple(_block_words((c,), u) for c in block_alphabet(s, u))
    return ComboAlphabet(s, words)


def _extend(s: int, words, num: int = 0, scale: int = 1) -> tuple[int, int]:
    """Prefix num / scale (scale = s**N) followed by ``words``, returned
    in the same integer form."""
    for w in words:
        step = s ** len(w)
        num, scale = num * step + _digits_int(w, s), scale * step
    return num, scale


def _hull(num: int, scale: int, extrema) -> Interval:
    """Hull num/scale + [inf E, sup E]/scale of the prefix num/scale,
    given the whole-set ``extrema`` (inf E, sup E)."""
    return tuple(
        Fraction(num * e.denominator + e.numerator, e.denominator * scale)
        for e in extrema
    )


def _word_value(a: ComboAlphabet, w: tuple[int, ...]) -> Rational:
    """Exact value of the word repeated forever."""
    return digits_to_rational(DigitString(a.s, (), w))


@lru_cache(maxsize=256)
def _extrema_raw(a: ComboAlphabet) -> tuple[Rational, Rational, tuple, tuple]:
    lo = hi = None
    wlo = whi = None
    for w in a.combos:
        v = _word_value(a, w)
        if lo is None or v < lo:
            lo, wlo = v, w
        if hi is None or v > hi:
            hi, whi = v, w
    return lo, hi, wlo, whi


@dataclass(frozen=True)
class ComboExtrema:
    inf: Rational
    sup: Rational
    arg_inf: tuple[int, ...]
    arg_sup: tuple[int, ...]


def _frontier(a: ComboAlphabet, max_digits: int):
    """Yield (num, scale, prefix) for every word sequence whose digit
    total lands in (max_digits - max word length, max_digits]; the
    prefix value is num / scale, scale = s**(digit total).

    Each infinite stream of alphabet words passes through exactly one
    such frontier prefix, so the frontier hulls cover the whole set.
    """
    low = max_digits - a.max_len
    stack = [(0, 1, 0, ())]
    while stack:
        num, scale, n, prefix = stack.pop()
        for w in a.combos:
            n2 = n + len(w)
            if n2 > max_digits:
                continue
            num2, scale2 = _extend(a.s, (w,), num, scale)
            pre2 = prefix + (w,)
            if n2 > low:
                yield num2, scale2, pre2
            else:
                stack.append((num2, scale2, n2, pre2))


def audit_extrema(
    a: ComboAlphabet, inf: Rational, sup: Rational, max_digits: int
) -> int:
    """Check the claimed extrema against every frontier prefix hull at
    the given digit depth; return how many hulls were checked.

    A prefix of N digits confines its continuations to
    value + s**-N * [inf, sup], so a violation of
    inf <= hull.lower and hull.upper <= sup falsifies the claim; the
    offending prefix is reported in the raised error.
    """
    if max_digits < a.max_len:
        raise RangeError("audit depth must cover the longest word")
    checked = 0
    for num, scale, prefix in _frontier(a, max_digits):
        lo_hull, hi_hull = _hull(num, scale, (inf, sup))
        if lo_hull < inf or hi_hull > sup:
            words = " ".join(word_str(w) for w in prefix)
            raise ExtremaFalsificationError(
                f"prefix {words} yields hull [{lo_hull}, {hi_hull}] outside "
                f"claimed extrema [{inf}, {sup}]"
            )
        checked += 1
    return checked


def comboset_extrema(
    a: ComboAlphabet, audit_digits: int | None = None
) -> ComboExtrema:
    """Least and greatest element of the set, with the single repeated
    words attaining them.

    The periodic rule is always audited by brute force over every
    frontier prefix at ``audit_digits`` total digits (default: longest
    word plus three); a violation raises `ExtremaFalsificationError`
    rather than being absorbed.
    """
    lo, hi, wlo, whi = _extrema_raw(a)
    depth = audit_digits if audit_digits is not None else a.max_len + 3
    audit_extrema(a, lo, hi, depth)
    return ComboExtrema(lo, hi, wlo, whi)


@dataclass(frozen=True)
class ComboCylinder:
    """Hull data of the set of streams starting with ``base`` words."""

    alphabet: ComboAlphabet
    base: tuple[tuple[int, ...], ...]
    total_digits: int
    inf: Rational
    sup: Rational

    @property
    def diameter(self) -> Rational:
        return self.sup - self.inf

    def to_json(self) -> dict:
        from .sadic import rational_json

        return {
            "s": self.alphabet.s,
            "base": [word_str(w) for w in self.base],
            "total_digits": self.total_digits,
            "inf": rational_json(self.inf),
            "sup": rational_json(self.sup),
            "diameter": rational_json(self.diameter),
        }


def combo_cylinder(a: ComboAlphabet, base) -> ComboCylinder:
    """Cylinder of streams whose leading words are ``base``; its hull is
    value(base) + s**-N * [inf E, sup E] with N the digits fixed."""
    base = tuple(parse_word(w) for w in base)
    for w in base:
        if w not in a.combos:
            raise WordError(f"word {word_str(w)} not in the alphabet")
    lo, hi = _hull(*_extend(a.s, base), _extrema_raw(a)[:2])
    return ComboCylinder(a, base, sum(len(w) for w in base), lo, hi)


def enumerate_prefixes(
    a: ComboAlphabet, max_digits: int
) -> list[tuple[Interval, tuple[tuple[int, ...], ...]]]:
    """All frontier prefixes at the given digit depth with their hulls.

    Returns (hull, prefix) pairs whose digit totals lie in
    (max_digits - max word length, max_digits]; their hulls cover the
    set and feed the box-counting estimator.
    """
    if max_digits < a.max_len:
        raise RangeError(
            f"max_digits must be >= the longest word ({a.max_len})"
        )
    extrema = _extrema_raw(a)[:2]
    out = [
        (_hull(num, scale, extrema), prefix)
        for num, scale, prefix in _frontier(a, max_digits)
    ]
    out.sort(key=lambda item: (item[0][0], item[1]))
    return out
