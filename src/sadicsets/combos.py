"""Sets built from a finite alphabet of digit words ("combinations").

A `ComboAlphabet` over base s is a finite collection of nonempty digit
words; the associated set holds every value whose digit stream is an
infinite concatenation of alphabet words.  Fixing a prefix of n words
with N total digits pins the stream's first N digits, so the prefix
cylinder is value(prefix) + s**-N * E, where E is the whole set; its
hull therefore scales the whole-set extrema by s**-N exactly.

Every prefix hull in the package, marker-run cylinders and covering
stages included, is computed here in one integer form.  A prefix of N
digits is the integer numerator num = `_digits_int` of its digits over
s**N (`_word_steps` extends it a word at a time), and the whole-set
extrema are put over one common denominator q as (q, p_lo, p_hi)
(`_over_one_denominator`; `_extrema_q` for an alphabet), so the prefix
hull is

    [num*q + p_lo, num*q + p_hi] / (q * s**N).

Layers that only compare or sum hulls (covering stages, point
location) stay in these integers; a hull endpoint becomes a `Fraction`
only when an API returns it, in `_hull`, which builds it with the
trusted constructor `sadic._fraction`: one gcd and no argument checks.

The digit cylinders of depth D (`_digit_cylinders`) are the D-digit
paths of the word automaton (`_word_automaton`, the subset
construction of the word trie, which box counting and the extrema read
too), however many word sequences spell each.  A path t ending in
state q has the hull (t + [inf_q, sup_q]) / s**D, inf_q and sup_q the
least and greatest stream from q (`_extreme_values`).  Expanded in
digit order, the hulls come out sorted, neighbours sharing at most an
endpoint, as t (s-1)^inf = (t+1) 0^inf.  They are refused with
`ResourceBudgetError` at the first level whose path count
(`_path_counts`) exceeds `FRONTIER_BUDGET`; every state is live, so
the count never falls with depth.  So is a built-in alphabet whose
words, counted in closed form, would hold more than `FRONTIER_BUDGET`
digits.

Whole-set extrema follow the single-word periodic rule: the least and
greatest element are attained by repeating one alphabet word forever.
`comboset_extrema` checks that rule exactly against the word
automaton, whose streams it orders digit by digit (Lind & Marcus,
1995): always reading the least digit spells the least stream, always
reading the greatest the greatest, and each walk closes a cycle within
as many steps as there are states.  A claim that differs from those
values raises `ExtremaFalsificationError` naming the stream.  The
check runs there alone, for tests and the extrema cross-check row of
`acceptance` (s <= 8): the hull layers read their extrema unchecked,
`combo_cylinder` from `_extrema_q`, `enumerate_prefixes` from the same
walks taken from every state, and the marker-set `cylinder`,
`cylinder_order`, `point_locate` and `cover_stage` from the closed
forms of `set_extrema`.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    ExtremaFalsificationError,
    InvalidDigitError,
    RangeError,
    ResourceBudgetError,
    WordError,
)
from .sadic import (
    DigitString,
    Rational,
    _block_stats,
    _block_words,
    _digits_int,
    _fraction,
    _hull_order,
    _require_int,
    digits_to_rational,
)

Interval = tuple[Rational, Rational]

# Most digit cylinders one enumeration may list, most trie-edge reads
# one pass over the word automaton may make (`_word_automaton`; a
# box-counting transfer or a cylinder enumeration reads it once per
# digit level), and most digits a built-in alphabet may hold.  At the
# budget ({0, 1} in base 2 at depth 20), `enumerate_prefixes`, which
# returns a `Fraction` hull and a digit tuple per cylinder, takes 7-10 s
# and about 700 MB above the interpreter; a transfer near it (tilde:20 to
# exponent 248, tilde:40 to 79) 0.1-0.2 s and under 5 MB (2 cores,
# Python 3.11).
FRONTIER_BUDGET = 1 << 20


def _check_alphabet_digits(digits: int, what: str) -> None:
    # Refuse, before a word is built, an alphabet of more digits than
    # one pass over its word trie could be allowed to read.
    if digits > FRONTIER_BUDGET:
        raise ResourceBudgetError(
            f"{what} would hold {digits} digits, budget is {FRONTIER_BUDGET}"
        )


def parse_word(word) -> tuple[int, ...]:
    """Accept a word as a digit string like "021" or a list of ints."""
    if isinstance(word, str):
        # ASCII only: str.isdigit also admits "²" and "١"
        if not word or not (word.isascii() and word.isdigit()):
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
            for d in w:  # an int already: `parse_word` checked it
                if not 0 <= d < self.s:
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
        stream, so combo cylinders of distinct bases may overlap and the
        Moran root is only an upper bound on the dimension; the digit
        cylinders of `enumerate_prefixes` are the set's either way.
        """
        words = sorted(self.combos)
        return not any(
            b[: len(a)] == a for a, b in zip(words, words[1:])
        )

    def to_json(self) -> dict:
        return {"s": self.s, "combos": [word_str(w) if all(d < 10 for d in w) else list(w) for w in self.combos]}

    @staticmethod
    def from_json(obj: object) -> ComboAlphabet:
        expected = "expected a JSON object with keys 's' and 'combos'"
        if not isinstance(obj, dict):
            raise WordError(f"{expected}, got {obj!r:.40}")
        missing = [repr(key) for key in ("s", "combos") if key not in obj]
        if missing:
            raise WordError(f"{expected}, missing {' and '.join(missing)}")
        return ComboAlphabet(obj["s"], obj["combos"])


def tilde_alphabet(s: int) -> ComboAlphabet:
    """All marker-run block words pooled over every marker digit:
    u^(c-1) c for c in 1..s-1, u in 0..s-1, u != c.

    Every c = 1 choice collapses to the single word "1", so the alphabet
    holds exactly 1 + (s-2)(s-1) = s*s - 3s + 3 distinct words: one of
    length 1 and s-1 of each length 2..s-1.
    """
    _require_int(s, 3, InvalidDigitError, "s")
    _check_alphabet_digits(1 + (s - 1) * ((s - 1) * s // 2 - 1), f"tilde:{s}")
    words = dict.fromkeys(
        _block_words((c,), u) for c in range(1, s) for u in range(s) if u != c
    )
    assert len(words) == s * s - 3 * s + 3  # 1 + (s-1)(s-2) after dedupe
    return ComboAlphabet(s, tuple(words))


def sprime3_alphabet() -> ComboAlphabet:
    """The two-word base-3 alphabet {021, 102} whose set realizes the
    lower bound in the normality dimension bracket."""
    return ComboAlphabet(3, ((0, 2, 1), (1, 0, 2)))


def induced_alphabet(s: int, u: int) -> ComboAlphabet:
    """The (s, u) marker-run set expressed as a combination alphabet:
    words u^(c-1) c for the usable block values c, listed in the order
    of their sibling hulls (`_hull_order`), lowest first."""
    _, digits, _, _ = _block_stats(s, u)
    _check_alphabet_digits(digits, f"alphabet of (s={s}, u={u})")
    words = tuple(_block_words((c,), u) for c in _hull_order(s, u))
    return ComboAlphabet(s, words)


def _word_steps(s: int, words) -> list[tuple[int, int, int]]:
    """(len(w), step = s**len(w), integer value v of w) per word:
    appending w to the prefix num / s**n gives the prefix
    (num*step + v) / s**(n + len(w))."""
    return [(len(w), s ** len(w), _digits_int(w, s)) for w in words]


def _over_one_denominator(lo: Rational, hi: Rational) -> tuple[int, int, int]:
    """(q, p_lo, p_hi) with lo = p_lo / q and hi = p_hi / q, q the lcm
    of the two denominators."""
    lo, hi = Fraction(lo), Fraction(hi)
    q = math.lcm(lo.denominator, hi.denominator)
    return q, lo.numerator * (q // lo.denominator), hi.numerator * (q // hi.denominator)


def _hull(num: int, scale: int, extrema_q: tuple[int, int, int]) -> Interval:
    """Hull [num*q + p_lo, num*q + p_hi] / (q*scale) of the prefix
    num/scale, given the whole-set extrema (q, p_lo, p_hi) over one
    denominator; the one place a hull becomes `Fraction`s, through the
    trusted `_fraction`."""
    q, p_lo, p_hi = extrema_q
    top, den = num * q, q * scale
    return _fraction(top + p_lo, den), _fraction(top + p_hi, den)


def _word_value(a: ComboAlphabet, w: tuple[int, ...]) -> Rational:
    """Exact value of the word repeated forever."""
    return digits_to_rational(DigitString(a.s, (), w))


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


def _extrema_q(a: ComboAlphabet) -> tuple[int, int, int]:
    """The alphabet's whole-set extrema as (q, p_lo, p_hi)."""
    return _over_one_denominator(*_extrema_raw(a)[:2])


@dataclass(frozen=True)
class ComboExtrema:
    inf: Rational
    sup: Rational
    arg_inf: tuple[int, ...]
    arg_sup: tuple[int, ...]


def _word_automaton(
    a: ComboAlphabet, levels: int, what: str
) -> list[dict[int, int]]:
    """The subset automaton of the alphabet's word trie, as one row
    {digit: next state} per state, in digit order; state 0 is the start.

    A state is the set of trie nodes a digit string can have reached:
    the proper word prefixes still being read, and the root once a word
    has just closed.  A digit with no entry leads to the empty set, which
    no stream passes.  Every listed state is live, as each prefix
    completes to a word and each word to a stream.

    A state's row is built from the trie edges out of its nodes, and a
    caller that reads the automaton ``levels`` times reads at most those
    edges again each time, so the edges read are counted as states are
    found: once they times ``levels`` exceed `FRONTIER_BUDGET`, the work
    (``what``) is refused with `ResourceBudgetError`.
    """
    children: list[dict[int, int]] = [{}]
    closes = [False]
    for w in a.combos:
        node = 0
        for d in w:
            if d not in children[node]:
                children[node][d] = len(children)
                children.append({})
                closes.append(False)
            node = children[node][d]
        closes[node] = True
    # the nodes reached through trie node c: the root if c closes a
    # word, and c itself if some word runs on past it
    enter = [
        (0,) * close + (c,) * bool(kids)
        for c, (kids, close) in enumerate(zip(children, closes))
    ]
    index = {frozenset((0,)): 0}
    states = list(index)
    rows = []
    edges = 0
    for state in states:  # grows as new states are found
        out: dict[int, set[int]] = {}
        for node in state:
            edges += len(children[node])
            for d, c in children[node].items():
                out.setdefault(d, set()).update(enter[c])
        if edges * levels > FRONTIER_BUDGET:
            raise ResourceBudgetError(
                f"{what} would read at least {edges} trie edges per level, "
                f"{edges * levels} in all, budget is {FRONTIER_BUDGET}"
            )
        row = {}
        for d, nodes in sorted(out.items()):
            key = frozenset(nodes)
            if key not in index:
                index[key] = len(states)
                states.append(key)
            row[d] = index[key]
        rows.append(row)
    return rows


def _extreme_stream(
    s: int, rows: list[dict[int, int]], pick, start: int = 0
) -> DigitString:
    """The stream the word automaton spells from state ``start`` by
    always reading the digit ``pick`` (min or max) takes from a state's
    row; the automaton is deterministic, so the walk closes a cycle
    within len(rows) steps."""
    digits: list[int] = []
    seen: dict[int, int] = {}  # state -> digits read before it
    state = start
    while state not in seen:
        seen[state] = len(digits)
        digits.append(pick(rows[state]))
        state = rows[state][digits[-1]]
    cut = seen[state]
    return DigitString(s, digits[:cut], digits[cut:])


def _extreme_values(s: int, rows: list[dict[int, int]], pick) -> list[Fraction]:
    """Per state, the value of its `_extreme_stream`, each state walked
    once: a cycle's value is read from its stream, and a state before
    it has the value (d + next) / s of its digit d and next state."""
    value: list = [None] * len(rows)  # False: on the current walk
    for first in range(len(rows)):
        walk, state = [], first
        while value[state] is None:
            value[state] = False
            walk.append(state)
            state = rows[state][pick(rows[state])]
        if value[state] is False:  # the walk closed a cycle at state
            value[state] = digits_to_rational(_extreme_stream(s, rows, pick, state))
        for state in reversed(walk):
            if value[state] is False:
                d = pick(rows[state])
                value[state] = (d + value[rows[state][d]]) / s
    return value


def _path_counts(rows: list[dict[int, int]], levels: int):
    """Per level j = 0..levels, how many j-digit paths of the word
    automaton from its start end in each state."""
    paths = [1] + [0] * (len(rows) - 1)
    yield paths
    for _ in range(levels):
        step = [0] * len(rows)
        for i, n in enumerate(paths):
            if n:
                for nxt in rows[i].values():
                    step[nxt] += n
        paths = step
        yield paths


def _digit_cylinders(a: ComboAlphabet, depth: int):
    """The set's ``depth``-digit cylinders in integer form, (paths, ext):
    each path of the word automaton from its start, in digit order, as
    (t, q), t its digits read as an integer and q its end state, and
    ext[q] = (Q, p_lo, p_hi), the least and greatest stream from q over
    one denominator Q, so (t, q) has the hull (t*Q + [p_lo, p_hi]) /
    (Q * s**depth).  Refused at the first level whose path count
    exceeds `FRONTIER_BUDGET`, before any hull is built."""
    _require_int(depth, 1, RangeError, "max_digits")
    rows = _word_automaton(a, depth, f"max_digits {depth}")
    for level, paths in enumerate(_path_counts(rows, depth)):
        if sum(paths) > FRONTIER_BUDGET:
            raise ResourceBudgetError(
                f"max_digits {depth} would enumerate at least {sum(paths)} digit "
                f"cylinders, the count at depth {level}; budget is {FRONTIER_BUDGET}"
            )
    ends = list(zip(_extreme_values(a.s, rows, min), _extreme_values(a.s, rows, max)))
    q = math.lcm(*(v.denominator for end in ends for v in end))
    ext = [(q, int(lo * q), int(hi * q)) for lo, hi in ends]
    paths = [(0, 0)]
    for _ in range(depth):
        paths = [(t * a.s + d, nxt) for t, i in paths for d, nxt in rows[i].items()]
    return paths, ext


def comboset_extrema(a: ComboAlphabet) -> ComboExtrema:
    """Least and greatest element of the set, with the single repeated
    words attaining them.

    The single-word periodic rule (`_extrema_raw`) is checked exactly
    against the word automaton: value respects the digit-by-digit order
    of its streams, every state is live and the set of streams is
    closed, so the walks that always read the least or the greatest
    digit spell the true extrema.  A claim that differs raises
    `ExtremaFalsificationError` naming the stream.
    """
    lo, hi, wlo, whi = _extrema_raw(a)
    rows = _word_automaton(a, 1, "the extrema walk")
    for name, claim, pick in (("inf", lo, min), ("sup", hi, max)):
        stream = _extreme_stream(a.s, rows, pick)
        value = digits_to_rational(stream)
        if value != claim:
            spelled = f"{word_str(stream.preperiod)}({word_str(stream.period)})"
            raise ExtremaFalsificationError(
                f"stream {spelled} of the word automaton has value {value}, "
                f"but the claimed {name} is {claim}"
            )
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
    digits = [d for w in base for d in w]
    lo, hi = _hull(_digits_int(digits, a.s), a.s ** len(digits), _extrema_q(a))
    return ComboCylinder(a, base, len(digits), lo, hi)


def enumerate_prefixes(
    a: ComboAlphabet, max_digits: int
) -> list[tuple[Interval, tuple[int, ...]]]:
    """The set's digit cylinders of ``max_digits`` digits, with their hulls.

    Returns one (hull, digits) pair per distinct ``max_digits``-digit
    prefix of the set's streams, in digit order: the hulls are sorted,
    neighbours share at most an endpoint, and together they cover the
    set.  An alphabet whose word sequences spell some stream twice
    still gives each prefix once.  Refused with `ResourceBudgetError`
    when more than `FRONTIER_BUDGET` prefixes would be listed.
    """
    paths, ext = _digit_cylinders(a, max_digits)
    s, scale, out = a.s, a.s**max_digits, []
    for t, q in paths:
        digits, rest = [0] * max_digits, t
        for i in reversed(range(max_digits)):
            rest, digits[i] = divmod(rest, s)
        out.append((_hull(t, scale, ext[q]), tuple(digits)))
    return out
