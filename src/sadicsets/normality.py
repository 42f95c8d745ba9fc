"""Digit-frequency statistics of marker-run streams.

Counting digits inside blocks (marker repeated c-1 times, then c) pins
the marker's share of positions: if each closing digit c is to appear
with frequency 1/s, the marker digit is forced to frequency
(s-2)(s-1)/(2s).  That matches 1/s only at s = 3, so digit-balanced
(normal) members of the marker-0 sets exist in base 3 alone; the
two-word base-3 alphabet {021, 102} generates balanced witnesses, and
its dimension brackets the normal subset from below.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import RangeError, ResourceBudgetError, SadicError
from .sadic import (
    DigitString,
    Rational,
    _block_stats,
    _require_int,
    _split_blocks,
    block_alphabet,
    rational_json,
)

if TYPE_CHECKING:
    from .dimension import DimensionResult


# Most digit values a frequency profile may count.  The profile holds
# one count and one exact frequency per digit value, about 90 bytes of
# `freq` JSON each: at the budget, `freq --k 1` prints 5.8 MB in 0.7 s
# (2 cores, Python 3.11).
PROFILE_BUDGET = 1 << 16


@dataclass(frozen=True)
class FrequencyProfile:
    """Exact digit counts over the first k digits of a stream."""

    s: int
    k: int
    counts: tuple[int, ...]

    @property
    def freqs(self) -> tuple[Rational, ...]:
        return tuple(Fraction(c, self.k) for c in self.counts)

    def to_json(self) -> dict:
        return {
            "s": self.s,
            "k": self.k,
            "counts": list(self.counts),
            "freqs": [rational_json(f) for f in self.freqs],
        }


def digit_frequencies(d: DigitString, k: int) -> FrequencyProfile:
    """Count each digit over the first k digits.

    Periodic tails are counted cycle-wise, so k may be far larger than
    the stored description; a finite string shorter than k raises.
    A base above `PROFILE_BUDGET` is refused with `ResourceBudgetError`
    before any count is built.
    """
    _require_int(k, 1, RangeError, "prefix length")
    if d.base > PROFILE_BUDGET:
        raise ResourceBudgetError(
            f"frequency profile of base {d.base} would hold {d.base} digit"
            f" counts, budget is {PROFILE_BUDGET}"
        )
    counts = [0] * d.base
    if d.period is None or k <= len(d.preperiod):
        for dig in d.digits(k):  # raises when the finite word is short
            counts[dig] += 1
    else:
        for dig in d.preperiod:
            counts[dig] += 1
        full, part = divmod(k - len(d.preperiod), len(d.period))
        per = Counter(d.period)
        for dig, n in per.items():
            counts[dig] += n * full
        for dig in d.period[:part]:
            counts[dig] += 1
    return FrequencyProfile(d.base, k, tuple(counts))


def structural_zero_frequency(s: int) -> Rational:
    """Forced asymptotic frequency of the digit 0 for a marker-0 stream
    whose closing digits each appear with frequency 1/s.

    Each block with closer c carries c-1 zeros, so the zero share is
    sum over c of (c-1)/s = (s-2)(s-1)/(2s).  Values above 1 (s >= 5)
    are impossible frequencies: the premise is vacuous there, which
    rules balanced streams out a fortiori.
    """
    _require_int(s, 3, RangeError, "s")
    return Fraction((s - 2) * (s - 1), 2 * s)


def uniform_stream_zero_frequency(s: int) -> Rational:
    """Long-run zero share of a uniformly random block stream
    (marker 0): mean zeros per block over mean block length,
    ((s-2)/2) / (s/2) = (s-2)/s.

    Differs from `structural_zero_frequency` for every s > 3: typical
    streams are even further from digit balance than forced ones.
    """
    _require_int(s, 3, RangeError, "s")
    return Fraction(s - 2, s)


@dataclass(frozen=True)
class NormalVerdict:
    """Whether digit-balanced members of the marker-0 set can exist."""

    s: int
    exists: bool
    forced_zero: Rational
    uniform: Rational
    explanation: str

    def to_json(self) -> dict:
        return {
            "s": self.s,
            "exists": self.exists,
            "forced_zero_frequency": rational_json(self.forced_zero),
            "uniform_frequency": rational_json(self.uniform),
            "explanation": self.explanation,
        }


def normal_candidate_exists(s: int) -> NormalVerdict:
    """Digit-balanced members exist iff the forced zero frequency
    (s-2)(s-1)/(2s) equals the balanced value 1/s, i.e. iff s = 3."""
    forced = structural_zero_frequency(s)
    uniform = Fraction(1, s)
    exists = forced == uniform
    rel = "equals" if exists else "differs from"
    explanation = (
        f"a digit-balanced stream forces zero-frequency {forced} "
        f"which {rel} the balanced value 1/{s}"
    )
    return NormalVerdict(s, exists, forced, uniform, explanation)


def normality_dimension_bounds() -> tuple[DimensionResult, DimensionResult]:
    """Dimension bracket for the digit-balanced subset in base 3.

    Lower bound: the two-word set over {021, 102} (all its members are
    balanced), alpha = log(2)/(3 log 3).  Upper bound: the whole
    marker-0 base-3 set, alpha = log((sqrt(5)+1)/2)/log(3).  Both are
    solved numerically and checked against the closed forms.
    """
    # the one use of `dimension` here, so counting digits loads no numpy
    from .dimension import MoranEquation, dim_S, moran_solve

    lower = moran_solve(MoranEquation(3, ((3, 2),)))
    upper = dim_S(3, 0)
    lo_exact = math.log(2) / (3 * math.log(3))
    hi_exact = math.log((math.sqrt(5) + 1) / 2) / math.log(3)
    if abs(lower.alpha - lo_exact) > 1e-9 or abs(upper.alpha - hi_exact) > 1e-9:
        raise SadicError("internal: dimension bounds drifted from closed forms")
    if not lower.alpha < upper.alpha:
        raise SadicError("internal: dimension bounds are not ordered")
    return lower, upper


@dataclass(frozen=True)
class ResidualReport:
    """Block-count balance at a prefix cut.

    ``residual`` is  N_u(k) - sum over closers c of (c-1) * N_c(k);
    every completed block contributes c-1 markers per closer, so the
    residual equals the pending (unclosed) marker run: 0 exactly at
    block boundaries, between 1 and s-2 inside a block.
    """

    k: int
    residual: int
    at_boundary: bool
    pending_run: int
    note: str

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "residual": self.residual,
            "at_boundary": self.at_boundary,
            "pending_run": self.pending_run,
            "note": self.note,
        }


def structural_identity_residual(d: DigitString, u: int, k: int) -> ResidualReport:
    """Check the marker-count identity over the first k digits.

    The prefix is validated as a marker-run stream (a pattern violation
    raises with its offset).  The residual is computed from raw digit
    counts, independently of the pending marker run the block split
    leaves, so the two agreeing is a real check rather than bookkeeping.
    A periodic stream is split only up to a bound set by its period, so
    the cost does not grow with k.
    """
    _require_int(k, 1, RangeError, "prefix length")
    s = d.base
    largest = _block_stats(s, u)[3]  # checks the marker before any digit
    max_run = largest - 1
    cut = k
    if d.period is not None:
        npre, p = len(d.preperiod), len(d.period)
        horizon = npre + max(2, largest) * p
        if k > horizon:
            # From its second pass on, the period starts from the same
            # pending run (the markers after its last closer) and so splits
            # alike; an all-marker period overflows within max_block passes.
            # So the horizon holds the first violation, and the run at k is
            # the run at the same phase of the second pass.
            _split_blocks(d.digits(horizon), u, max_run)
            cut = npre + p + (k - npre - 1) % p + 1
    _, run = _split_blocks(d.digits(cut), u, max_run)
    counts = digit_frequencies(d, k).counts
    # the closers are listed only once the profile is within its budget
    residual = counts[u] - sum((c - 1) * counts[c] for c in block_alphabet(s, u))
    at_boundary = run == 0
    note = (
        "cut on a block boundary"
        if at_boundary
        else f"cut inside a block; residual is the pending run (<= {s - 2})"
    )
    return ResidualReport(k, residual, at_boundary, run, note)
