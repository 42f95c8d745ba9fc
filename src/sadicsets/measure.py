"""Stage-wise covering measure of the marker-run sets.

Stage k covers the set with the hulls of all rank-k cylinders.  Each
block value c shrinks its parent hull by the factor s**-c, so a stage
keeps exactly

    sigma = sum over usable blocks c of s**-c

of its predecessor's length, and

    length(stage k) = sigma**k * d0,    d0 = whole-set hull diameter,

an exact geometric decay witnessing zero Lebesgue measure.  Stage k is
built level by level, extending each prefix numerator by every block
word with the integer prefix kernel of `combos`, and already in hull
order: `induced_alphabet` lists the words in the sibling order of
`cylinders`, and each parent is followed by its children in that order.
Rank-k hulls are disjoint and nest in their parents', so the list comes
out sorted.  Its hulls are
put over the one denominator q * s**N, N the largest digit total of the
stage, where one linear pass certifies the order: each hull's top lies
strictly below the next hull's bottom, which proves sorted and disjoint
at once.  The interval-by-interval length is checked against the closed
form exactly, and the intervals become `Fraction`s last.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .combos import Interval, _hull, _word_steps, induced_alphabet
from .cylinders import _set_extrema_q, set_extrema
from .errors import RangeError, ResourceBudgetError, SadicError
from .sadic import Rational, _block_stats, _require_int, block_alphabet, rational_json

# Most denominator bits one stage may hold.  The largest stages it
# admits, (3,0,14), (4,0,9), (5,0,7) and (6,0,6), each hold about 16,000
# hulls and take about 0.1 s (2 cores, Python 3.11); the next stage of
# each base holds 2 to 5 times as many.
STAGE_BUDGET = 1 << 20


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


def _stage_digits(s: int, u: int, k: int) -> int:
    # Digit total of the stage: its |A|**k bases have k positions each,
    # and each block value c fills |A|**(k-1) of them per position.
    # Both k past STAGE_BUDGET and a power past |A|**21 (>= 2**21 when
    # |A| >= 2) are over budget already, so each stops there: the total
    # is exact for every admitted stage and a small lower bound otherwise.
    count, total, _, _ = _block_stats(s, u)
    k_capped = min(k, STAGE_BUDGET + 1)
    power = count ** min(k - 1, STAGE_BUDGET.bit_length())
    return k_capped * power * total


def cover_stage(s: int, u: int, k: int) -> CoverStage:
    """Build stage k: every rank-k hull, plus the dual length check.

    The direct interval-by-interval sum and the closed form
    sigma**k * d0 are both computed; any disagreement raises.  A stage
    whose denominators would hold more than `STAGE_BUDGET` bits in
    total (log2(s) per digit of every base) is refused with
    `ResourceBudgetError` before any hull is built.
    """
    _require_int(k, 1, RangeError, "stage rank")
    digits = _stage_digits(s, u, k)
    # an int compares with a float exactly, so no huge int becomes one
    if digits > STAGE_BUDGET / math.log2(s):
        raise ResourceBudgetError(
            f"stage {k} for (s={s}, u={u}) needs at least "
            f"{math.ceil(digits * math.log2(s))} denominator bits, "
            f"budget is {STAGE_BUDGET}"
        )
    ext = q, p_lo, p_hi = _set_extrema_q(s, u)
    steps = _word_steps(s, induced_alphabet(s, u).combos)  # in hull order
    # (num, n): the prefix value num / s**n, parents in hull order and
    # each parent's children in word order
    prefixes = [(0, 0)]
    for _ in range(k):
        prefixes = [
            (num * step + v, n + m) for num, n in prefixes for m, step, v in steps
        ]
    top = max(n for _, n in prefixes)
    pw = [s**n for n in range(top + 1)]
    # each hull as integers over q * s**top
    los = [(num * q + p_lo) * pw[top - n] for num, n in prefixes]
    his = [(num * q + p_hi) * pw[top - n] for num, n in prefixes]
    # each hull's top strictly below the next hull's bottom: sorted and
    # disjoint at once
    if any(hi_a >= lo_b for hi_a, lo_b in zip(his, los[1:])):
        raise SadicError("internal: stage intervals are not disjoint")
    total = Fraction(sum(hi - lo for lo, hi in zip(los, his)), q * pw[top])
    closed = sigma(s, u) ** k * Fraction(p_hi - p_lo, q)
    if total != closed:
        raise SadicError(
            "internal: direct stage length disagrees with sigma**k * d0"
        )
    intervals = tuple(_hull(num, pw[n], ext) for num, n in prefixes)
    return CoverStage(s, u, k, intervals, total)


def measure_decay_report(s: int, u: int, k_max: int) -> list[tuple[int, Rational]]:
    """(k, stage length) for k = 1..k_max via the closed form
    sigma**k * d0, built by one exact multiplication per stage."""
    _require_int(k_max, 1, RangeError, "k_max")
    lo0, hi0 = set_extrema(s, u)
    d0 = hi0 - lo0
    r = sigma(s, u)
    out = []
    val = d0
    for k in range(1, k_max + 1):
        val = val * r
        out.append((k, val))
    return out
