"""Interval algebra for the sets carved out by marker-run block streams.

For base s and marker digit u, the set of values whose digit stream is
an infinite run of blocks (marker repeated c-1 times, then the digit c,
with c in 1..s-1 and c != u) is a Cantor-type set.  Fixing the first n
blocks c_1..c_n yields a cylinder; its smallest covering interval (the
hull) has exact rational endpoints

    inf = tau + s**-C * inf0,    sup = tau + s**-C * sup0,

where C = c_1 + ... + c_n, tau is the value of the fixed digit prefix,
and (inf0, sup0) are the extrema of the whole set:

    inf0 = (s-u-1)/(s**(s-1) - 1) + u/(s-1)   for u in {0, 1}
         = 1/(s-1)                            for u >= 2
    sup0 = 1/(s-1)                            for u = 0
         = 1/(s**(u+1) - 1) + u/(s-1)         for 1 <= u <= s-2
         = 1 - 1/(s**(s-2) - 1)               for u = s-1

The cylinder is the word-alphabet prefix cylinder of the induced
alphabet {u^(c-1) c}, so its hull comes from the integer prefix kernel
of `combos`, with (inf0, sup0) over one denominator cached per (s, u)
(`_set_extrema_q`).  `point_locate` descends in that integer form too
and builds `Fraction`s only for the hull or gap it returns.

The children of a prefix, one per block value c, have disjoint hulls in
one fixed order, lowest first: the values below the marker ascending,
then the values above it descending (`sadic._hull_order`, the word
order of `induced_alphabet`).  Children c < c' first differ at their
c-th digit, the closing digit c against the marker u, so child c lies
below child c' exactly when c < u.  `cylinder_order` checks its
endpoint verdict against this order, `point_locate` scans the children
in it, and `measure.cover_stage` builds its stages in it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .combos import _hull, _over_one_denominator, _word_steps, induced_alphabet
from .errors import InvalidBaseError, RangeError, ResourceBudgetError, SadicError
from .sadic import (
    BlockSequence,
    Rational,
    _block_words,
    _check_blocks,
    _digits_int,
    _require_int,
    _validate_marker,
    block_alphabet,
    element_value,
    rational_json,
)

_ORDER_INCREASING = "increasing"
_ORDER_DECREASING = "decreasing"


def _validate_base(s: int, u: int, base: tuple[int, ...]) -> None:
    _validate_marker(s, u)
    _check_blocks(s, u, base, InvalidBaseError, "base entry")


def set_extrema(s: int, u: int) -> tuple[Rational, Rational]:
    """Exact least and greatest element of the whole (s, u) set."""
    _validate_marker(s, u)
    if u <= 1:
        lo = Fraction(s - u - 1, s ** (s - 1) - 1) + Fraction(u, s - 1)
    else:
        lo = Fraction(1, s - 1)
    if u == 0:
        hi = Fraction(1, s - 1)
    elif u <= s - 2:
        hi = Fraction(1, s ** (u + 1) - 1) + Fraction(u, s - 1)
    else:
        hi = 1 - Fraction(1, s ** (s - 2) - 1)
    return lo, hi


# Typed, so that 3.0 or True never hits the entry cached for 3 or 1 and
# skips the (s, u) check of `set_extrema`.
@lru_cache(maxsize=256, typed=True)
def _set_extrema_q(s: int, u: int) -> tuple[int, int, int]:
    """`set_extrema` over one denominator, as (q, p_lo, p_hi)."""
    return _over_one_denominator(*set_extrema(s, u))


@dataclass(frozen=True)
class Cylinder:
    """Hull data of the cylinder fixing the block prefix ``base``."""

    s: int
    u: int
    base: tuple[int, ...]
    inf: Rational
    sup: Rational

    @property
    def diameter(self) -> Rational:
        return self.sup - self.inf

    def to_json(self) -> dict:
        return {
            "s": self.s,
            "u": self.u,
            "base": list(self.base),
            "inf": rational_json(self.inf),
            "sup": rational_json(self.sup),
            "diameter": rational_json(self.diameter),
        }


def cylinder(s: int, u: int, base) -> Cylinder:
    """Build the cylinder for the block prefix ``base`` (exact)."""
    base = tuple(base)
    _validate_base(s, u, base)
    word = _block_words(base, u)
    inf, sup = _hull(_digits_int(word, s), s ** len(word), _set_extrema_q(s, u))
    return Cylinder(s, u, base, inf, sup)


def cylinder_diameter(s: int, u: int, base) -> Rational:
    """Exact hull diameter; always equals sup - inf.

    Also checks the scaled whole-set form d0 * s**-C and, for u = 0, the
    closed form (s**(s-1) - 1 - (s-1)**2) / ((s-1)(s**(s-1)-1) s**C).
    """
    cyl = cylinder(s, u, base)
    d = cyl.sup - cyl.inf
    lo0, hi0 = set_extrema(s, u)
    depth = sum(cyl.base)
    if d != (hi0 - lo0) * Fraction(1, s**depth):
        raise SadicError("internal: diameter scaling identity failed")
    if u == 0:
        closed = Fraction(
            s ** (s - 1) - 1 - (s - 1) ** 2,
            (s - 1) * (s ** (s - 1) - 1) * s**depth,
        )
        if d != closed:
            raise SadicError("internal: closed-form diameter disagrees")
    return d


def cylinder_order(s: int, u: int, base, p: int) -> str:
    """Relative position of the sibling cylinders with last blocks p and
    p+1: "increasing" when child p lies wholly below child p+1,
    "decreasing" when wholly above.

    The verdict is computed from exact endpoints and asserted against
    the sibling order of the module docstring, in which child p comes
    before child p+1 exactly when p+1 < u.
    """
    base = tuple(base)
    alphabet = block_alphabet(s, u)
    _require_int(p, 1, InvalidBaseError, "label p")
    if p not in alphabet or p + 1 not in alphabet:
        raise InvalidBaseError(
            f"labels {p} and {p + 1} must both be usable blocks for (s={s}, u={u})"
        )
    _validate_base(s, u, base)
    q, p_lo, p_hi = _set_extrema_q(s, u)
    low = _digits_int(_block_words(base + (p,), u), s)
    high = _digits_int(_block_words(base + (p + 1,), u), s)
    # child p+1 is one digit longer: over its denominator, the endpoints
    # of child p gain a factor s
    lower_inf, lower_sup = (low * q + p_lo) * s, (low * q + p_hi) * s
    upper_inf, upper_sup = high * q + p_lo, high * q + p_hi
    if lower_inf > upper_sup:
        verdict = _ORDER_DECREASING
    elif lower_sup < upper_inf:
        verdict = _ORDER_INCREASING
    else:
        raise SadicError("internal: adjacent children are not separated")
    expected = _ORDER_INCREASING if p + 1 < u else _ORDER_DECREASING
    if verdict != expected:
        raise SadicError(
            f"internal: ordering regime predicts {expected}, endpoints give {verdict}"
        )
    return verdict


def _rational(x) -> Fraction:
    """x as an exact `Fraction`, or `RangeError` if it is not a number."""
    try:
        return Fraction(x)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise RangeError(f"point {x!r} is not a rational number") from None


@dataclass(frozen=True)
class GapInterval:
    """Open interval strictly between two adjacent marker-0 sibling
    hulls; it meets the set in no point."""

    s: int
    base: tuple[int, ...]
    p: int
    lower: Rational  # sup of the child with last block p+1
    upper: Rational  # inf of the child with last block p

    def __contains__(self, x) -> bool:
        return self.lower < _rational(x) < self.upper

    def to_json(self) -> dict:
        return {
            "s": self.s,
            "base": list(self.base),
            "p": self.p,
            "lower": rational_json(self.lower),
            "upper": rational_json(self.upper),
        }


def _validate_gap(s: int, p: int) -> None:
    _validate_marker(s, 0)
    _require_int(p, 1, InvalidBaseError, "p")
    if p > s - 2:
        raise InvalidBaseError(f"p must lie in 1..{s - 2}, got {p}")


def gap_interval(s: int, base, p: int) -> GapInterval:
    """The open gap between the marker-0 children p (above) and p+1
    (below) of ``base``; nonempty for every 1 <= p <= s-2."""
    base = tuple(base)
    _validate_gap(s, p)
    above = cylinder(s, 0, base + (p,))
    below = cylinder(s, 0, base + (p + 1,))
    if below.sup >= above.inf:
        raise SadicError("internal: expected a nonempty gap")
    return GapInterval(s, base, p, below.sup, above.inf)


def _check_printable(s: int, u: int, base: tuple[int, ...], p: int | None = None) -> None:
    """Refuse with `ResourceBudgetError` the `cylinder` (``p`` None) or
    the `gap_interval` (``p`` given, u = 0) whose JSON must print an
    integer of more digits than ``sys.get_int_max_str_digits()``, before
    any power of s is built.  `rational_json` refuses the same output,
    but only after seconds of big-integer work when s is large.

    The estimate is a lower bound on the digits of one printed integer:
    - over s**C, C = sum(base), the denominator of each hull endpoint is
      a multiple of that of inf0 or sup0, which exceeds s**e: e = s - 2
      for u = 0, e = u for 2 <= u <= s - 2, else e = s - 3;
    - the diameter is d0 / s**C, with 0 < d0 < 1 once the alphabet has
      two blocks, so its denominator exceeds s**C;
    - s**n has more than n (bit_length(s) - 1) / 4 digits.
    So nothing `rational_json` would print is refused.  A quarter digit
    per bit is coarse on purpose: near the limit the exact work takes
    milliseconds, and `rational_json` then names the exact digit count.
    A call about to be refused is first checked as the library call
    checks it, so a bad parameter is still reported as such.
    """
    if u == 0:
        e = s - 2
    elif 1 < u < s - 1:
        e = u
    else:
        e = s - 3
    if p is None and (u == 0 or s > 3) and sum(base) > e:
        e = sum(base)
    digits = e * (s.bit_length() - 1) // 4 + 1
    limit = sys.get_int_max_str_digits()
    if limit and digits > limit:
        if p is not None:
            _validate_gap(s, p)
        _validate_base(s, u, base)
        what = "cylinder" if p is None else "gap"
        raise ResourceBudgetError(
            f"{what} of s={s}, u={u} prints an integer of at least {digits} "
            f"digits, over the {limit}-digit limit for printing one"
        )


@dataclass(frozen=True)
class LocateResult:
    """Outcome of a depth-limited cylinder descent for a point.

    status is one of "inside" (x survived the full descent and equals a
    hull endpoint, hence is the periodic element of that chain),
    "excluded" (x certified outside: hull violation or inside a gap), or
    "undecided-at-depth" (x strictly interior to the final hull; deeper
    descent would be needed to decide membership).
    """

    status: str
    chain: tuple[int, ...] | None = None
    hull: tuple[Rational, Rational] | None = None
    gap: tuple[Rational, Rational] | None = None
    detail: str = ""

    def to_json(self) -> dict:
        out: dict = {"status": self.status, "detail": self.detail}
        if self.chain is not None:
            out["chain"] = list(self.chain)
        if self.hull is not None:
            out["hull"] = [rational_json(self.hull[0]), rational_json(self.hull[1])]
        if self.gap is not None:
            out["gap"] = [rational_json(self.gap[0]), rational_json(self.gap[1])]
        return out


def point_locate(x, s: int, u: int, depth: int) -> LocateResult:
    """Locate x relative to the (s, u) set by descending ``depth``
    levels of the cylinder tree with exact comparisons.

    With x = xn/xd and the parent prefix num/scale, the integer
    y = xn*scale - num*xd is x's offset inside the parent, scaled by
    scale*xd; the child appending a word (step, v) holds x exactly when
    p_lo*xd <= (y*step - v*xd)*q <= p_hi*xd.  So each level compares
    integers whose size does not grow with the depth, and `Fraction`s
    are built only for the hull or gap returned.  The children are
    scanned in hull order: x lies above each child before the one that
    holds it, unless it lies below one first, in the gap under it.
    """
    _require_int(depth, 1, InvalidBaseError, "depth")
    x = _rational(x)
    ext = q, p_lo, p_hi = _set_extrema_q(s, u)
    xn, xd = x.numerator, x.denominator
    lo_x, hi_x = p_lo * xd, p_hi * xd
    if not lo_x <= xn * q <= hi_x:
        return LocateResult(
            "excluded",
            hull=set_extrema(s, u),
            detail="outside the hull of the whole set",
        )
    words = induced_alphabet(s, u).combos
    kids = [
        (step, v, v * xd, w[-1])
        for (_, step, v), w in zip(_word_steps(s, words), words)
    ]
    num, scale, y = 0, 1, xn
    chain: list[int] = []
    for _ in range(depth):
        lower = None  # the child below x, if any
        for kid in kids:
            step, v, vx, c = kid
            ky = y * step - vx
            kq = ky * q
            if kq <= hi_x:
                break
            lower = kid
        if kq < lo_x and lower is not None:
            step_a, v_a, _, c_a = lower
            gap = (
                _hull(num * step_a + v_a, scale * step_a, ext)[1],
                _hull(num * step + v, scale * step, ext)[0],
            )
            return LocateResult(
                "excluded",
                chain=tuple(chain),
                gap=gap,
                detail=f"in the gap between sibling blocks {c_a} and {c}",
            )
        if not lo_x <= kq <= hi_x:
            raise SadicError("internal: point lost between children")
        num, scale, y = num * step + v, scale * step, ky
        chain.append(c)
    lo, hi = _hull(num, scale, ext)
    yq = y * q
    if yq == lo_x or yq == hi_x:
        which = "inf" if yq == lo_x else "sup"
        return LocateResult(
            "inside",
            chain=tuple(chain),
            hull=(lo, hi),
            detail=f"equals the {which} of its depth-{depth} cylinder",
        )
    return LocateResult(
        "undecided-at-depth",
        chain=tuple(chain),
        hull=(lo, hi),
        detail=f"interior to its depth-{depth} hull; membership unresolved",
    )


def extension_value_bounds(
    s: int, u: int, base, n_blocks: int
) -> tuple[Rational, Rational]:
    """Exact min and max of `element_value` over all extensions of
    ``base`` by exactly ``n_blocks`` further blocks.

    Equivalent to enumerating every extension; computed by dynamic
    programming over the digit offset in integer arithmetic, so it stays
    feasible at depths where plain enumeration is not.  Serves as the
    independent bracket oracle for `cylinder`: both extrema of
    the cylinder lie within s**-(C + n_blocks) of these partial values.
    The dynamic programme never reads ``base``, so it runs once per
    (s, u, n_blocks) (`_extension_bounds_q`); the prefix value and its
    scale are added per call.
    """
    base = tuple(base)
    _validate_base(s, u, base)
    _require_int(n_blocks, 1, InvalidBaseError, "n_blocks")
    lo_int, hi_int, mdim = _extension_bounds_q(s, u, n_blocks)
    prefix = element_value(BlockSequence(s, u, base, None))
    scale = Fraction(1, s ** sum(base))
    den = s**mdim
    return prefix + scale * Fraction(lo_int, den), prefix + scale * Fraction(hi_int, den)


# Typed, as `_set_extrema_q` is; the callers check (s, u, n_blocks) first.
@lru_cache(maxsize=64, typed=True)
def _extension_bounds_q(s: int, u: int, n_blocks: int) -> tuple[int, int, int]:
    """(lo_int, hi_int, mdim): the least and greatest scaled tail sum
    of ``n_blocks`` blocks, each over s**mdim, mdim = n_blocks times
    the largest block."""
    alphabet = block_alphabet(s, u)
    lo_c, hi_c = alphabet[0], alphabet[-1]
    mdim = n_blocks * hi_c
    pw = [s**i for i in range(mdim + 1)]
    # bounds[off]: scaled (min, max) over the blocks still to place once
    # the digit offset off is consumed.  Built one layer at a time, from
    # no blocks left up to n_blocks; with `done` blocks placed the offset
    # lies in done * [lo_c, hi_c].
    bounds = {off: (0, 0) for off in range(n_blocks * lo_c, mdim + 1)}
    for done in reversed(range(n_blocks)):
        layer = {}
        for off in range(done * lo_c, done * hi_c + 1):
            best_lo = best_hi = None
            for c in alphabet:
                sub_lo, sub_hi = bounds[off + c]
                term = (c - u) * pw[mdim - off - c]
                lo, hi = term + sub_lo, term + sub_hi
                if best_lo is None or lo < best_lo:
                    best_lo = lo
                if best_hi is None or hi > best_hi:
                    best_hi = hi
            layer[off] = (best_lo, best_hi)
        bounds = layer
    lo_int, hi_int = bounds[0]
    return lo_int, hi_int, mdim
