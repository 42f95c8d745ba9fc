"""Dimension machinery for word-alphabet Cantor sets.

An alphabet with N_k words of digit length k over base s has
self-similar (here also Hausdorff) dimension equal to the unique root
alpha >= 0 of

    F(alpha) = sum_k N_k * s**(-k * alpha) = 1.

In t = s**-alpha it reads P(t) = sum_k N_k t**k = 1, P increasing, so
bisecting t on dyadic rationals with integer sign tests certifies the
root by an exact bracket P(t_lo) < 1 <= P(t_hi).  m = 1 gives alpha = 0
and sum_k N_k s**-k = 1 (words tiling the interval) gives alpha = 1.

`box_count_for_alphabet` measures the covering exponent of the
alphabet's prefix hulls and serves as the empirical cross-check on the
algebraic root; it never looks at the equation.  It counts the boxes
straight from the integer prefix frontier of `combos`, by digit
truncation.  A frontier prefix y / s**n has the hull
[y*q + p_lo, y*q + p_hi] / (q * s**n), with 0 <= p_lo <= p_hi <= q; for
n >= J, s**-J the finest scale, it lies in [y, y+1] / s**n, and its
endpoints meet the boxes (y + (p == q)) // s**(n-J): one floor division
of a small integer per prefix, the box after y's only for an endpoint
equal to 1.  A prefix with n < J, admitted when its hull is no wider
than s**-J, keeps the exact (y*q + p) * s**(J-n) // q.  Every coarser
box index follows by nesting, floor(x s**j) = floor(x s**J) // s**(J-j).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .combos import ComboAlphabet, _extrema_q, _frontier, tilde_alphabet
from .errors import InvalidBaseError, ResourceBudgetError, ScaleMismatchError
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
        return sum(
            (Fraction(n, self.s**k) for k, n in self.counts), Fraction(0)
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


def moran_solve(eq: MoranEquation) -> DimensionResult:
    """Certified root of F(alpha) = 1, by bisection on t = s**-alpha.

    The bracket (m/2**b, (m+1)/2**b) starts at (0, 1) and halves each
    step on the integer test P(mid) >= 1: sum_k N_k m**k 2**(b(K-k)) >=
    2**(bK), K the longest word length.  Relative to alpha its width is
    at most 2**-b / (t |ln t|), so stopping at m (2**b - m - 1) >=
    2**(b+55) pins alpha, read off the midpoint, to double precision.
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


def box_count_for_alphabet(
    a: ComboAlphabet, depth: int, scale_exponents: list[int]
) -> BoxCountResult:
    """Box-count the alphabet's set from its depth-`depth` prefix hulls
    at scales s**-j for the given exponents j.

    The boxes are those the `enumerate_prefixes` hulls meet, counted in
    integers.  The frontier hull of y / s**n has the endpoints
    (y*q + p) / (q * s**n), p in {p_lo, p_hi}, and meets box
    floor((y*q + p) / (q * s**(n-J))) at the finest exponent J.  For
    n >= J that box is (y + (p == q)) // s**(n-J), as 0 <= p <= q:
    digit truncation, with no q at all, and an endpoint reaches the
    next box only when it is 1.
    A prefix with n < J, which the width check admits when its hull is
    narrow enough, keeps the exact (y*q + p) * s**(J-n) // q.  Box i at
    exponent J lies in box i // s**(J-j) at exponent j.

    The exponents must be ints >= 0, at least 3 and distinct; as the
    slope is fitted in doubles, s**-J must not round to 0.0.  With five
    or more scales the two coarsest are left out of the fit; their
    counts are still reported.
    """
    for j in scale_exponents:
        _check_exponent(j)
    frontier = _frontier(a, depth, "depth")
    exps = sorted(scale_exponents)  # coarse first
    if len(exps) < 3:
        raise ScaleMismatchError(f"need at least 3 scales, got {len(exps)}")
    if len(set(exps)) != len(exps):
        raise ScaleMismatchError("scales must be distinct")
    s, fine = a.s, exps[-1]
    _check_finest(s, fine)
    q, p_lo, p_hi = _extrema_q(a)
    levels = [(n, nums) for n, nums, _ in frontier if nums]
    n_min = levels[0][0]
    # the widest hull, (p_hi - p_lo) / (q * s**n_min), is at most s**-J
    if (p_hi - p_lo) * s**fine > q * s**n_min:
        resolved = n_min  # p_hi - p_lo <= q, so exponent n_min is resolved
        while (p_hi - p_lo) * s ** (resolved + 1) <= q * s**n_min:
            resolved += 1
        raise ScaleMismatchError(
            f"hull width {Fraction(p_hi - p_lo, q * s**n_min)} exceeds finest "
            f"scale {Fraction(1, s**fine)}; enumerate deeper or coarsen the "
            f"scales; the finest exponent depth {depth} resolves is {resolved}"
        )
    boxes: set[int] = set()
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
