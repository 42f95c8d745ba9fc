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
of `combos`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .combos import _extend, _hull, induced_alphabet
from .errors import InvalidBaseError, SadicError
from .sadic import (
    BlockSequence,
    Rational,
    _block_words,
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
    for c in base:
        if type(c) is not int or not 1 <= c < s:
            raise InvalidBaseError(f"base entry {c!r} out of range 1..{s - 1}")
        if c == u:
            raise InvalidBaseError(f"base entry {c} equals the marker digit")


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


@dataclass(frozen=True)
class Cylinder:
    """Hull data of the cylinder fixing the block prefix ``base``.

    ``tau`` is the exact value of the fixed digit prefix.
    """

    s: int
    u: int
    base: tuple[int, ...]
    tau: Rational
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
    num, scale = _extend(s, (_block_words(base, u),))
    inf, sup = _hull(num, scale, set_extrema(s, u))
    return Cylinder(s, u, base, Fraction(num, scale), inf, sup)


def cylinder_endpoints(s: int, u: int, base) -> tuple[Rational, Rational]:
    """Exact (inf, sup) of the cylinder hull for the block prefix."""
    cyl = cylinder(s, u, base)
    return cyl.inf, cyl.sup


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


def children(s: int, u: int, base) -> list[Cylinder]:
    """Direct refinements of ``base``, one per usable block value,
    returned in block-value order."""
    base = tuple(base)
    _validate_base(s, u, base)
    return [cylinder(s, u, base + (c,)) for c in block_alphabet(s, u)]


def cylinder_order(s: int, u: int, base, p: int) -> str:
    """Relative position of the sibling cylinders with last blocks p and
    p+1: "increasing" when child p lies wholly below child p+1,
    "decreasing" when wholly above.

    The verdict is computed from exact endpoints and asserted against
    the marker-regime layout (u <= 1 decreasing; u >= s-2 increasing;
    in between, increasing below the marker and decreasing above it).
    """
    base = tuple(base)
    alphabet = block_alphabet(s, u)
    if p not in alphabet or p + 1 not in alphabet:
        raise InvalidBaseError(
            f"labels {p} and {p + 1} must both be usable blocks for (s={s}, u={u})"
        )
    lower = cylinder(s, u, base + (p,))
    upper = cylinder(s, u, base + (p + 1,))
    if lower.inf > upper.sup:
        verdict = _ORDER_DECREASING
    elif lower.sup < upper.inf:
        verdict = _ORDER_INCREASING
    else:
        raise SadicError("internal: adjacent children are not separated")
    if u <= 1:
        expected = _ORDER_DECREASING
    elif u >= s - 2:
        expected = _ORDER_INCREASING
    else:
        expected = _ORDER_INCREASING if p + 1 < u else _ORDER_DECREASING
    if verdict != expected:
        raise SadicError(
            f"internal: ordering regime predicts {expected}, endpoints give {verdict}"
        )
    return verdict


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
        return self.lower < Fraction(x) < self.upper

    def to_json(self) -> dict:
        return {
            "s": self.s,
            "base": list(self.base),
            "p": self.p,
            "lower": rational_json(self.lower),
            "upper": rational_json(self.upper),
        }


def gap_interval(s: int, base, p: int) -> GapInterval:
    """The open gap between the marker-0 children p (above) and p+1
    (below) of ``base``; nonempty for every 1 <= p <= s-2."""
    base = tuple(base)
    if not 1 <= p <= s - 2:
        raise InvalidBaseError(f"p must lie in 1..{s - 2}, got {p}")
    above = cylinder(s, 0, base + (p,))
    below = cylinder(s, 0, base + (p + 1,))
    if below.sup >= above.inf:
        raise SadicError("internal: expected a nonempty gap")
    return GapInterval(s, base, p, below.sup, above.inf)


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
    levels of the cylinder tree with exact comparisons."""
    _require_int(depth, 1, InvalidBaseError, "depth")
    x = Fraction(x)
    extrema = set_extrema(s, u)
    lo, hi = extrema
    if not lo <= x <= hi:
        return LocateResult(
            "excluded",
            hull=extrema,
            detail="outside the hull of the whole set",
        )
    words = induced_alphabet(s, u).combos
    num, scale = 0, 1
    chain: list[int] = []
    for _ in range(depth):
        # (inf, sup, last block, numerator, scale) of each child: the
        # parent's numerator extended by one block word
        kids = []
        for w in words:
            knum, kscale = _extend(s, (w,), num, scale)
            kids.append((*_hull(knum, kscale, extrema), w[-1], knum, kscale))
        kids.sort(key=lambda k: k[0])
        nxt = next((k for k in kids if k[0] <= x <= k[1]), None)
        if nxt is None:
            for a, b in zip(kids, kids[1:]):
                if a[1] < x < b[0]:
                    return LocateResult(
                        "excluded",
                        chain=tuple(chain),
                        gap=(a[1], b[0]),
                        detail=(
                            f"in the gap between sibling blocks "
                            f"{a[2]} and {b[2]}"
                        ),
                    )
            raise SadicError("internal: point lost between children")
        lo, hi, c, num, scale = nxt
        chain.append(c)
    if x == lo or x == hi:
        which = "inf" if x == lo else "sup"
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
    independent bracket oracle for `cylinder_endpoints`: both extrema of
    the cylinder lie within s**-(C + n_blocks) of these partial values.
    """
    base = tuple(base)
    _validate_base(s, u, base)
    _require_int(n_blocks, 1, InvalidBaseError, "n_blocks")
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
    prefix = element_value(BlockSequence(s, u, base, None))
    scale = Fraction(1, s ** sum(base))
    return (
        prefix + scale * Fraction(lo_int, pw[mdim]),
        prefix + scale * Fraction(hi_int, pw[mdim]),
    )
