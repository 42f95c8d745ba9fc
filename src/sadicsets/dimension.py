"""Dimension machinery for word-alphabet Cantor sets.

An alphabet with N_k words of digit length k over base s has
self-similar (here also Hausdorff) dimension equal to the unique root
alpha >= 0 of

    F(alpha) = sum_k N_k * s**(-k * alpha) = 1.

F is strictly decreasing with F(0) = m (the word count) and F -> 0, so
bisection certifies the root with an explicit bracket.  Two regimes
admit exact answers: m = 1 gives alpha = 0, and sum_k N_k s**-k = 1
(the words tile the whole interval) gives alpha = 1.

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
from .errors import InvalidBaseError, RangeError, ScaleMismatchError
from .sadic import Rational, block_alphabet, rational_json


@dataclass(frozen=True)
class MoranEquation:
    """sum_k counts[k] * s**(-k*alpha) = 1, with counts[k] words of
    digit length k; stored as sorted (k, N_k) pairs, zeros dropped."""

    s: int
    counts: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if type(self.s) is not int:
            raise InvalidBaseError(f"base must be an int, got {self.s!r}")
        if self.s < 2:
            raise InvalidBaseError(f"base must be >= 2, got {self.s}")
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

    def value(self, alpha: float) -> float:
        return sum(n * self.s ** (-k * alpha) for k, n in self.counts)

    def value_at_one(self) -> Rational:
        """Exact F(1); equal to 1 only for interval-tiling alphabets."""
        return sum(
            (Fraction(n, self.s**k) for k, n in self.counts), Fraction(0)
        )


@dataclass(frozen=True)
class DimensionResult:
    """Root of a dimension equation with its certificate.

    ``bracket`` is the final bisection interval (degenerate for the
    exact alpha = 0 and alpha = 1 regimes); ``closed_form`` carries an
    exact expression when the equation is a monomial or quadratic in
    t = s**-alpha.
    """

    alpha: float
    residual: float
    bracket: tuple[float, float]
    closed_form: str | None = None

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


def moran_solve(eq: MoranEquation, tol: float = 1e-12) -> DimensionResult:
    """Certified root of F(alpha) = 1.

    Bisection on the strictly decreasing F keeps F(lo) >= 1 >= F(hi) at
    every step; the initial bracket [0, 1] is extended upward when the
    counts exceed the base's capacity (F(1) > 1).  The two exact regimes
    short-circuit: a single word gives alpha = 0, an interval-tiling
    alphabet gives alpha = 1.
    """
    if not 0 < tol < math.inf:  # also rejects NaN
        raise RangeError("tolerance must be positive and finite")
    if eq.m == 1:
        return DimensionResult(0.0, abs(eq.value(0.0) - 1.0), (0.0, 0.0), "0")
    if eq.value_at_one() == 1:
        return DimensionResult(1.0, abs(eq.value(1.0) - 1.0), (1.0, 1.0), "1")
    lo, hi = 0.0, 1.0
    while eq.value(hi) > 1.0:
        lo, hi = hi, hi * 2.0
    # Width well below tol so the midpoint residual stays ~10*tol even
    # for steep F (|F'| <= k_max * log s near the root).
    width = min(tol, 1e-13)
    for _ in range(200):
        if hi - lo <= width:
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if eq.value(mid) >= 1.0:
            lo = mid
        else:
            hi = mid
    alpha = 0.5 * (lo + hi)
    return DimensionResult(
        alpha, abs(eq.value(alpha) - 1.0), (lo, hi), _closed_form(eq)
    )


def dim_S(s: int, u: int, tol: float = 1e-12) -> DimensionResult:
    """Dimension of the (s, u) marker-run set: one word per usable block
    value c, of digit length c."""
    counts = {c: 1 for c in block_alphabet(s, u)}
    return moran_solve(MoranEquation(s, tuple(counts.items())), tol)


def dim_tilde(s: int) -> DimensionResult:
    """Dimension of the pooled-marker set: length histogram
    {1: 1} union {k: s-1 for k = 2..s-1}."""
    return moran_solve(MoranEquation.from_alphabet(tilde_alphabet(s)))


def dim_alphabet(a: ComboAlphabet, tol: float = 1e-12) -> DimensionResult:
    """Dimension of the set generated by an arbitrary word alphabet."""
    return moran_solve(MoranEquation.from_alphabet(a), tol)


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
