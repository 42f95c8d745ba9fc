"""Stage-wise covering measure of the marker-run sets.

Stage k covers the set with the hulls of all rank-k cylinders.  Each
block value c shrinks its parent hull by the factor s**-c, so a stage
keeps exactly

    sigma = sum over usable blocks c of s**-c

of its predecessor's length, and

    length(stage k) = sigma**k * d0,    d0 = whole-set hull diameter,

an exact geometric decay witnessing zero Lebesgue measure.  Stage k is
built level by level, extending each prefix numerator by every block
word with the integer prefix kernel of `combos`; its interval-by-interval
length is checked against the closed form as exact rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .combos import Interval, _extend, _hull, induced_alphabet
from .cylinders import set_extrema
from .errors import RangeError, ResourceBudgetError, SadicError
from .sadic import Rational, _require_int, block_alphabet, rational_json

DEFAULT_BIT_BUDGET = 1 << 20


def sigma(s: int, u: int) -> Rational:
    """Per-stage length ratio: sum of s**-c over usable block values."""
    return sum(
        (Fraction(1, s**c) for c in block_alphabet(s, u)), Fraction(0)
    )


@dataclass(frozen=True)
class CoverStage:
    """All rank-k cylinder hulls, sorted, with their exact total length."""

    s: int
    u: int
    k: int
    intervals: tuple[Interval, ...]
    total_length: Rational

    def to_json(self) -> dict:
        return {
            "s": self.s,
            "u": self.u,
            "k": self.k,
            "count": len(self.intervals),
            "total_length": rational_json(self.total_length),
            "intervals": [
                [rational_json(lo), rational_json(hi)]
                for lo, hi in self.intervals
            ],
        }


def _stage_bits(s: int, u: int, k: int) -> int:
    # Total denominator bits across the stage: each base contributes
    # log2(s) * (sum of its blocks); summed over all |A|**k bases.
    alphabet = block_alphabet(s, u)
    digit_total = k * len(alphabet) ** (k - 1) * sum(alphabet)
    return math.ceil(digit_total * math.log2(s))


def cover_stage(
    s: int, u: int, k: int, bit_budget: int = DEFAULT_BIT_BUDGET
) -> CoverStage:
    """Build stage k: every rank-k hull, plus the dual length check.

    The direct interval-by-interval sum and the closed form
    sigma**k * d0 are both computed; any disagreement raises.  Work is
    bounded by the total denominator bit count of the stage, not by k
    itself (cost scales with the digit totals of the bases).
    """
    _require_int(k, 1, RangeError, "stage rank")
    bits = _stage_bits(s, u, k)
    if bits > bit_budget:
        raise ResourceBudgetError(
            f"stage {k} for (s={s}, u={u}) needs ~{bits} denominator bits, "
            f"budget is {bit_budget}"
        )
    words = induced_alphabet(s, u).combos
    prefixes = [(0, 1)]
    for _ in range(k):
        prefixes = [
            _extend(s, (w,), num, scale) for num, scale in prefixes for w in words
        ]
    extrema = set_extrema(s, u)
    hulls = sorted(_hull(num, scale, extrema) for num, scale in prefixes)
    total = sum((hi - lo for lo, hi in hulls), Fraction(0))
    for (_, hi_a), (lo_b, _) in zip(hulls, hulls[1:]):
        if hi_a >= lo_b:
            raise SadicError("internal: stage intervals are not disjoint")
    lo0, hi0 = extrema
    closed = sigma(s, u) ** k * (hi0 - lo0)
    if total != closed:
        raise SadicError(
            "internal: direct stage length disagrees with sigma**k * d0"
        )
    return CoverStage(s, u, k, tuple(hulls), total)


def measure_decay_report(s: int, u: int, k_max: int) -> list[tuple[int, Rational]]:
    """(k, stage length) for k = 1..k_max via the closed form, checking
    the exact ratio sigma between consecutive stages."""
    _require_int(k_max, 1, RangeError, "k_max")
    lo0, hi0 = set_extrema(s, u)
    d0 = hi0 - lo0
    r = sigma(s, u)
    out = []
    val = d0
    for k in range(1, k_max + 1):
        val = val * r
        out.append((k, val))
    for (_, a), (_, b) in zip(out, out[1:]):
        if b != a * r:
            raise SadicError("internal: decay ratio drifted")
    return out
