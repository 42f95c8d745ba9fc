"""Dimension machinery for word-alphabet Cantor sets.

An alphabet with N_k words of digit length k over base s has
self-similar (here also Hausdorff) dimension equal to the unique root
alpha >= 0 of

    F(alpha) = sum_k N_k * s**(-k * alpha) = 1.

In t = s**-alpha it reads P(t) = sum_k N_k t**k = 1, P increasing, so
bisecting t on dyadic rationals with integer sign tests certifies the
root by an exact bracket P(t_lo) < 1 <= P(t_hi).  m = 1 gives alpha = 0
and sum_k N_k s**-k = 1 (words tiling the interval) gives alpha = 1.

`box_count_estimate` measures the covering exponent of actual interval
hulls and serves as the empirical cross-check on the algebraic root; it
never looks at the equation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .combos import ComboAlphabet, Interval, enumerate_prefixes, tilde_alphabet
from .errors import InvalidBaseError, ScaleMismatchError
from .sadic import Rational, _require_int, block_alphabet, rational_json


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


def moran_solve(eq: MoranEquation) -> DimensionResult:
    """Certified root of F(alpha) = 1, by bisection on t = s**-alpha.

    The bracket (m/2**b, (m+1)/2**b) starts at (0, 1) and halves each
    step on the integer test P(mid) >= 1: sum_k N_k m**k 2**(b(K-k)) >=
    2**(bK), K the longest word length.  Relative to alpha its width is
    at most 2**-b / (t |ln t|), so stopping at m (2**b - m - 1) >=
    2**(b+55) pins alpha, read off the midpoint, to double precision.
    A single word gives alpha = 0, an interval-tiling alphabet alpha = 1.
    """
    if eq.m == 1:
        return DimensionResult(0.0, 0.0, (0.0, 0.0), "0", (Fraction(1),) * 2)
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
    value c, of digit length c."""
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


def _floor_div(x: Rational, eps: Rational) -> int:
    return (x.numerator * eps.denominator) // (x.denominator * eps.numerator)


def box_count_estimate(
    hulls: list[Interval], scales: list[Rational]
) -> BoxCountResult:
    """Count zero-aligned half-open boxes [i*eps, (i+1)*eps) met by any
    hull, per scale, and fit log N against log 1/eps.

    The hulls must be a cover of the set that is fine relative to the
    scales (every hull no wider than the finest eps), so box indices of
    a hull are just floor(lo/eps)..floor(hi/eps) -- at most two boxes.
    With five or more scales the two coarsest are dropped from the fit
    to damp transient bias; counts for them are still reported.
    """
    if len(scales) < 3:
        raise ScaleMismatchError(f"need at least 3 scales, got {len(scales)}")
    scales = sorted((Fraction(e) for e in scales), reverse=True)
    if any(e <= 0 for e in scales):
        raise ScaleMismatchError("scales must be positive")
    if len(set(scales)) != len(scales):
        raise ScaleMismatchError("scales must be distinct")
    if not hulls:
        raise ScaleMismatchError("no hulls to count")
    widest = max(hi - lo for lo, hi in hulls)
    if widest > scales[-1]:
        raise ScaleMismatchError(
            f"hull width {widest} exceeds finest scale {scales[-1]}; "
            "enumerate deeper or coarsen the scales"
        )
    counts = []
    for eps in scales:
        boxes: set[int] = set()
        for lo, hi in hulls:
            i0 = _floor_div(lo, eps)
            i1 = _floor_div(hi, eps)
            boxes.update(range(i0, i1 + 1))
        counts.append((eps, len(boxes)))
    fit = counts[2:] if len(counts) >= 5 else counts
    xs = [-math.log(float(eps)) for eps, _ in fit]
    ys = [math.log(n) for _, n in fit]
    slope = float(np.polyfit(xs, ys, 1)[0])
    return BoxCountResult(slope, tuple(counts), len(fit))


def box_count_for_alphabet(
    a: ComboAlphabet, depth: int, scale_exponents: list[int]
) -> BoxCountResult:
    """Box-count the alphabet's set from its depth-`depth` prefix hulls
    at scales s**-j for the given exponents j."""
    for j in scale_exponents:
        if type(j) is not int or j < 0:
            raise ScaleMismatchError(f"scale exponent {j!r} must be an int >= 0")
    hulls = [h for h, _ in enumerate_prefixes(a, depth)]
    scales = [Fraction(1, a.s**j) for j in scale_exponents]
    return box_count_estimate(hulls, scales)
