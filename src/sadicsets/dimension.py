"""Dimension machinery for word-alphabet Cantor sets.

An alphabet with N_k words of digit length k over base s has the
Moran root alpha >= 0 of

    F(alpha) = sum_k N_k * s**(-k * alpha) = 1.

The root is the set's dimension when distinct word sequences spell
distinct streams, as in a prefix-free alphabet (every induced (s, u)
alphabet, sprime3); otherwise it is only an upper bound: {0, 1, 01} in
base 3 gives 0.8023, but its set holds exactly the {0, 1} streams, of
dimension log 2/log 3 = 0.6309.

In t = s**-alpha it reads P(t) = sum_k N_k t**k = 1, P increasing, so
bisecting t on dyadic rationals with integer sign tests certifies the
root by an exact bracket P(t_lo) < 1 <= P(t_hi).  m = 1 gives alpha = 0
and sum_k N_k s**-k = 1 (words tiling the interval) gives alpha = 1.
The bisection starts at level 44, at the bracket read off a float root
and checked by two integer sign tests, and falls back to (0, 1] when
the check fails or the counts overflow the doubles.  P is increasing,
so each level has one bracket, and no level below 58 can stop the
bisection: the result is that of bisecting from (0, 1], and the cost
budget still bounds that whole bisection.

`box_count_for_alphabet` measures the covering exponent of the set and
serves as the empirical cross-check on the algebraic root; it never
looks at the equation.  It counts the boxes [i, i+1) / s**j the set
meets by transfer over the alphabet's word automaton, the subset
construction of its word trie (Lind & Marcus, 1995): the j-digit
prefixes of the set's streams are the j-step paths from the start, so
each scale costs one integer vector step, and the counts grow at the
automaton's spectral radius, whose log over log s is the dimension
(Furstenberg, 1967).  The carry rule: a point whose stream is
t (s-1)^inf lies in box t+1, not t, so each such prefix t whose
successor t+1 is no prefix adds one box, counted by the same transfer.
These are exactly the boxes the set meets, whatever the enumeration
depth, and no prefix frontier is walked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np

from .combos import ComboAlphabet, _word_automaton, tilde_alphabet
from .errors import (
    InvalidBaseError,
    RangeError,
    ResourceBudgetError,
    ScaleMismatchError,
)
from .sadic import (
    Rational,
    _block_stats,
    _require_int,
    block_alphabet,
    rational_json,
)


# Most bit-steps one `moran_solve` may take (`_solve_cost`).  At the
# budget, a base-3 alphabet of one-digit words and one 6,000-digit word
# takes about 0.3 s (2 cores, Python 3.11); a 2,000-digit word costs
# under a third of it, a 20,000-digit word over three times it.
SOLVE_BUDGET = 1 << 25


@dataclass(frozen=True)
class MoranEquation:
    """sum_k counts[k] * s**(-k*alpha) = 1, with counts[k] words of
    digit length k; stored as sorted (k, N_k) pairs, zeros dropped."""

    s: int
    counts: tuple[tuple[int, int], ...]

    def __post_init__(self):
        _require_int(self.s, 2, InvalidBaseError, "base")
        items = dict(self.counts) if not isinstance(self.counts, dict) else self.counts
        norm = []
        for k, n in sorted(items.items()):
            if type(k) is not int or type(n) is not int or k < 1 or n < 0:
                raise InvalidBaseError(f"bad count entry {k!r}: {n!r}")
            if n:
                norm.append((k, n))
        if not norm:
            raise InvalidBaseError("all word counts are zero")
        object.__setattr__(self, "counts", tuple(norm))

    @staticmethod
    def from_alphabet(a: ComboAlphabet) -> MoranEquation:
        return MoranEquation(a.s, tuple(a.length_counts.items()))

    @property
    def m(self) -> int:
        return sum(n for _, n in self.counts)

    def value_at_one(self) -> Rational:
        """Exact F(1); equal to 1 only for interval-tiling alphabets."""
        top = self.counts[-1][0]
        return Fraction(
            sum(n * self.s ** (top - k) for k, n in self.counts), self.s**top
        )


@dataclass(frozen=True)
class DimensionResult:
    """Root of a dimension equation with its certificate.

    ``t_bracket`` holds exact rationals t_lo, t_hi around t = s**-alpha
    with P(t_lo) < 1 <= P(t_hi), or t_lo = t_hi with P(t) = 1 for the
    exact alpha = 0 and alpha = 1 regimes; ``bracket`` is the same
    interval in alpha, as floats, and ``residual`` is |P(t) - 1| at the
    reported t.  ``closed_form`` carries an exact expression when the
    equation is a monomial or quadratic in t.
    """

    alpha: float
    residual: float
    bracket: tuple[float, float]
    closed_form: str | None
    t_bracket: tuple[Fraction, Fraction]

    def to_json(self) -> dict:
        return {
            "alpha": self.alpha,
            "residual": self.residual,
            "bracket": list(self.bracket),
            "closed_form": self.closed_form,
        }


def _closed_form(eq: MoranEquation) -> str | None:
    # Monomial: N * t**k = 1 -> alpha = log(N)/(k log s).
    if len(eq.counts) == 1:
        k, n = eq.counts[0]
        return f"log({n})/({k}*log({eq.s}))" if k > 1 else f"log({n})/log({eq.s})"
    # Quadratic in t: N1 t + N2 t**2 = 1 -> 1/t = (sqrt(N1^2+4N2)+N1)/2.
    if [k for k, _ in eq.counts] == [1, 2]:
        n1, n2 = eq.counts[0][1], eq.counts[1][1]
        d = n1 * n1 + 4 * n2
        top = f"(sqrt({d})+{n1})/2" if n1 else f"sqrt({d})/2"
        return f"log({top})/log({eq.s})" if n2 == 1 else (
            f"log(2*{n2}/(sqrt({d})-{n1}))/log({eq.s})"
        )
    return None


def _scaled_sum(counts, top: int, m: int, b: int) -> int:
    # 2**(b*top) * P(m / 2**b), by Horner from the longest word down
    acc, j = 0, top
    for k, n in reversed(counts):
        acc = acc * m ** (j - k) + (n << b * (top - k))
        j = k
    return acc * m**j


def _alpha(m: int, b: int, s: int) -> float:
    # -log_s(t) for t = m / 2**b in [2**(e-1), 2**e): log1p keeps t near 1
    # exact, and the split-off exponent keeps tiny t from underflowing.
    e = m.bit_length() - b
    frac = math.log1p((m - (1 << b)) / (1 << b)) if e == 0 else math.log(m / (1 << (b + e)))
    return -(frac + e * math.log(2)) / math.log(s)


def _solve_cost(counts, m: int) -> tuple[int, int, int]:
    """Estimated (steps, bits, cost) of bisecting P(t) = 1 for m >= 2
    words, from the counts alone (`_bisection_cost`)."""
    c = len(counts)
    return _bisection_cost(
        m,
        c,
        max(-(-(c * n).bit_length() // k) for k, n in counts),
        sum(k * n for k, n in counts),
        counts[-1][0],
        max(n for _, n in counts),
    )


def _bisection_cost(
    m: int, c: int, near_zero: int, moment: int, longest: int, most: int
) -> tuple[int, int, int]:
    """(steps, bits, cost) of bisecting P(t) = 1 for m >= 2 words of c
    distinct lengths, the longest ``longest`` digits, at most ``most``
    words of one length, ``moment`` = sum_k k N_k, and ``near_zero`` =
    max_k ceil(bits(c N_k) / k).

    Some term of P(t) = 1 is at least 1/c, so log2(1/t) <= near_zero;
    and m - 1 = P(1) - P(t) <= P'(1) (1 - t), so log2(1/(1-t)) <=
    bits(moment // (m-1)).  The bisection stops once t (1-t) >=
    2**(55-b), which bounds its steps.  Each step multiplies integers of
    up to ``bits`` = steps*K + bits(most), K the longest word, once in
    full and once per distinct length by a factor of a word or two:
    ``cost`` counts steps * bits * (1 + c/64) bit-steps.
    """
    near_one = (moment // (m - 1)).bit_length()
    steps = 57 + near_zero + near_one
    bits = steps * longest + most.bit_length()
    return steps, bits, steps * bits * (64 + c) // 64


def _check_solve_cost(steps: int, bits: int, cost: int) -> None:
    if cost > SOLVE_BUDGET:
        raise ResourceBudgetError(
            f"solving would take about {steps} bisection steps over "
            f"{bits}-bit sums, {cost} bit-steps; budget is {SOLVE_BUDGET}"
        )


# The level at which the bisection starts from the float root: below
# level 58 no bracket meets the stopping rule, so none is skipped.
_SEED_LEVEL = 44


def _float_root(counts) -> float:
    """The root of P(t) = 1 in doubles, by Newton's method kept inside
    the bracket its evaluations have found.

    It starts at t = min_k N_k**(-1/k), where one term alone is 1, so
    P(t) >= 1; P is convex, so the steps fall towards the root.  Raises
    OverflowError for a count past the doubles.
    """
    terms = [(k, float(n)) for k, n in counts]
    lo, hi = 0.0, 1.0
    t = min(n ** (-1 / k) for k, n in terms)
    for _ in range(100):
        p = dp = 0.0
        for k, n in terms:
            x = n * t ** (k - 1)
            p += x * t
            dp += k * x
        if p < 1:
            lo = t
        else:
            hi = t
        step = (p - 1) / dp
        # a step that barely moves t ends Newton before the bracket is
        # consulted: near the root, rounding can put a step on its ends
        if abs(step) <= t * 2**-48:
            return t - step
        t -= step
        if not lo < t < hi:
            t = (lo + hi) / 2
    return t


def _seed_bracket(counts, top: int) -> tuple[int, int]:
    """(m, b) with P(m / 2**b) < 1 <= P((m+1) / 2**b) at b = `_SEED_LEVEL`,
    m read off the float root and checked by two exact sign tests; when
    the first fails, m - 1 is tried, as the float root can round up past
    a grid point.  Otherwise (0, 0), the bracket (0, 1]."""
    b = _SEED_LEVEL
    try:
        m = int(_float_root(counts) * (1 << b))
    except OverflowError:
        return 0, 0
    one = 1 << (b * top)
    if _scaled_sum(counts, top, m, b) >= one:
        # P(0) = 0, so m >= 1 here, and P(m / 2**b) >= 1 is known
        m -= 1
        return (m, b) if _scaled_sum(counts, top, m, b) < one else (0, 0)
    return (m, b) if _scaled_sum(counts, top, m + 1, b) >= one else (0, 0)


def moran_solve(eq: MoranEquation) -> DimensionResult:
    """Certified root of F(alpha) = 1, by bisection on t = s**-alpha.

    The bracket (m/2**b, (m+1)/2**b) halves each step on the integer
    test P(mid) >= 1: sum_k N_k m**k 2**(b(K-k)) >= 2**(bK), K the
    longest word length.  Relative to alpha its width is at most
    2**-b / (t |ln t|), so stopping at m (2**b - m - 1) >= 2**(b+55)
    pins alpha, read off the midpoint, to double precision.  That needs
    b >= 58, so the bracket starts at level 44 when the float root's
    bracket there passes its sign tests (`_seed_bracket`), and at (0, 1)
    otherwise; the bracket of each level is unique, so either start
    ends at the same one.
    A single word gives alpha = 0, an interval-tiling alphabet alpha = 1.
    Any other equation is refused with `ResourceBudgetError`, before any
    big-integer work, when its estimated cost exceeds `SOLVE_BUDGET`.
    """
    if eq.m == 1:
        return DimensionResult(0.0, 0.0, (0.0, 0.0), "0", (Fraction(1),) * 2)
    _check_solve_cost(*_solve_cost(eq.counts, eq.m))
    if eq.value_at_one() == 1:
        return DimensionResult(1.0, 0.0, (1.0, 1.0), "1", (Fraction(1, eq.s),) * 2)
    top = eq.counts[-1][0]
    m, b = _seed_bracket(eq.counts, top)
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


def dim_S(s: int, u: int) -> DimensionResult:
    """Dimension of the (s, u) marker-run set: one word per usable block
    value c, of digit length c.

    The solve cost is checked against `SOLVE_BUDGET` from s and u alone,
    before the block alphabet or the equation is built: the m usable
    blocks are m distinct lengths of one word each, and `_block_stats`
    gives their count, sum and extremes in closed form.
    """
    m, total, shortest, longest = _block_stats(s, u)
    if m >= 2:
        near_zero = -(-m.bit_length() // shortest)
        _check_solve_cost(*_bisection_cost(m, m, near_zero, total, longest, 1))
    counts = {c: 1 for c in block_alphabet(s, u)}
    return moran_solve(MoranEquation(s, tuple(counts.items())))


def dim_tilde(s: int) -> DimensionResult:
    """Dimension of the pooled-marker set: length histogram
    {1: 1} union {k: s-1 for k = 2..s-1}."""
    return moran_solve(MoranEquation.from_alphabet(tilde_alphabet(s)))


def dim_alphabet(a: ComboAlphabet) -> DimensionResult:
    """Dimension of the set generated by an arbitrary word alphabet."""
    return moran_solve(MoranEquation.from_alphabet(a))


@dataclass(frozen=True)
class BoxCountResult:
    """Box counts per scale plus the fitted log-log slope."""

    slope: float
    counts: tuple[tuple[Rational, int], ...]  # (scale, N(scale)), coarse first
    fitted: int  # scales actually used in the fit

    def to_json(self) -> dict:
        return {
            "slope": self.slope,
            "fitted_scales": self.fitted,
            "counts": [
                {"scale": rational_json(eps), "boxes": n}
                for eps, n in self.counts
            ],
        }


def _fit(counts: list[tuple[Rational, int]]) -> BoxCountResult:
    fit = counts[2:] if len(counts) >= 5 else counts
    xs = [-math.log(float(eps)) for eps, _ in fit]
    ys = [math.log(n) for _, n in fit]
    slope = float(np.polyfit(xs, ys, 1)[0])
    return BoxCountResult(slope, tuple(counts), len(fit))


def _check_exponent(j) -> None:
    if type(j) is not int or j < 0:
        raise ScaleMismatchError(f"scale exponent {j!r} must be an int >= 0")


def _check_finest(s: int, fine: int) -> None:
    # s**-J <= 2**-(J * (bits(s) - 1)), and 2**-1075, half the least
    # subnormal, rounds to 0.0; short of that bound s**J has < 2150 bits.
    if fine * (s.bit_length() - 1) >= 1075 or 1 / s**fine == 0.0:
        raise ScaleMismatchError(
            f"finest scale {s}**-{fine} rounds to 0.0 as a double, "
            "and the slope is fitted in doubles"
        )


def _lifetimes(rows: list[dict[int, int]], digit: int) -> list[int | None]:
    """Per state, how many copies of ``digit`` in a row lead it to the
    empty set; None when it reads them forever."""
    follow = [row.get(digit) for row in rows]
    life: list = [-1] * len(rows)  # -1 unknown, -2 on the current walk
    for first in range(len(rows)):
        walk, i = [], first
        while i is not None and life[i] == -1:
            life[i] = -2
            walk.append(i)
            i = follow[i]
        # a walk that closes on itself never dies
        tail = 0 if i is None else (None if life[i] == -2 else life[i])
        for j in reversed(walk):
            tail = None if tail is None else tail + 1
            life[j] = tail
    return life


def _transfer_counts(a: ComboAlphabet, fine: int) -> list[int]:
    """The boxes [i, i+1) / s**j the alphabet's set meets, for j = 0..fine.

    A point with the digit stream t x_{j+1} x_{j+2} ... lies in box t,
    t read as an integer, unless the digits after t are all s-1: then
    it lies in box t+1.  Let P_j be the j-digit prefixes of the set's
    streams, the j-step paths of the word automaton from its start, and
    C_j those t for which t (s-1)^inf is a stream.  After any word some
    stream has a digit below s-1, so unless the set is {1} its boxes
    are P_j union (C_j + 1): |P_j| boxes plus one carry box per t in C_j
    with t+1 not in P_j.

    Such a t is (s-1)^j, when (s-1)^inf is a stream, or x d (s-1)^r
    with d < s-1.  Then x d (s-1)^inf is a stream, and t+1 = x (d+1) 0^r
    leaves P_j once r reaches the zeros that the state after x (d+1)
    reads before it dies.  So when the transfer reads x, each such d of
    x's state adds its paths to the carries of every level from
    |x| + 1 + r on.
    """
    s = a.s
    if all(d == s - 1 for w in a.combos for d in w):
        return [1] * (fine + 1)  # the one point 1, in box s**j
    rows = _word_automaton(
        a, fine + 1, f"box counting over {fine + 1} digit levels"
    )
    tops, zeros = _lifetimes(rows, s - 1), _lifetimes(rows, 0)
    waits = []  # per state, the zeros r of each carry x d (s-1)^r
    for row in rows:
        wait = [
            zeros[row[d + 1]] if d + 1 in row else 0
            for d, nxt in row.items()
            if d < s - 1 and tops[nxt] is None
        ]
        waits.append([r for r in wait if r is not None])
    paths = [1] + [0] * (len(rows) - 1)
    sizes, carries = [], [0] * (fine + 1)
    carries[0] = int(tops[0] is None)  # (s-1)^j, at every level
    for j in range(fine + 1):
        sizes.append(sum(paths))
        if j == fine:
            break
        step = [0] * len(rows)
        for i, n in enumerate(paths):
            if n:
                for nxt in rows[i].values():
                    step[nxt] += n
                for r in waits[i]:
                    if j + 1 + r <= fine:
                        carries[j + 1 + r] += n
        paths = step
    return [size + carry for size, carry in zip(sizes, accumulate(carries))]


def box_count_for_alphabet(
    a: ComboAlphabet, depth: int, scale_exponents: list[int]
) -> BoxCountResult:
    """Box-count the alphabet's set at scales s**-j for the given
    exponents j: the boxes [i, i+1) / s**j the set meets, counted by
    transfer over the word automaton (`_transfer_counts`), in integers,
    for every j <= J at once.  They are also the boxes the prefix hulls
    of any depth D >= J + L - 1 meet, L the longest word, as each such
    hull is no wider than s**-J and its endpoints lie in the set.

    ``depth`` must be an int no less than the longest word and changes
    no count.  It stays because the benchmark's workloads pass it
    positionally and `boxcount` echoes it; dropping it waits for a
    change to the benchmark.  The transfer is refused with
    `ResourceBudgetError` when the trie edges its automaton reads,
    times J + 1 levels, exceed `FRONTIER_BUDGET`
    (`combos._word_automaton`).

    The exponents must be ints >= 0, at least 3 and distinct; as the
    slope is fitted in doubles, s**-J must not round to 0.0.  With five
    or more scales the two coarsest are left out of the fit; their
    counts are still reported.
    """
    for j in scale_exponents:
        _check_exponent(j)
    _require_int(depth, a.max_len, RangeError, "depth")
    exps = sorted(scale_exponents)  # coarse first
    if len(exps) < 3:
        raise ScaleMismatchError(f"need at least 3 scales, got {len(exps)}")
    if len(set(exps)) != len(exps):
        raise ScaleMismatchError("scales must be distinct")
    s, fine = a.s, exps[-1]
    _check_finest(s, fine)
    counts = _transfer_counts(a, fine)
    return _fit([(Fraction(1, s**j), counts[j]) for j in exps])
