"""Cylinder hulls, sibling ordering, gaps, and point location."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sadicsets import (
    BlockSequence,
    DigitString,
    InvalidBaseError,
    NotAMemberError,
    RangeError,
    block_alphabet,
    cylinder,
    cylinder_diameter,
    cylinder_order,
    digits_to_rational,
    element_value,
    extension_value_bounds,
    gap_interval,
    point_locate,
    set_extrema,
)
from sadicsets.cylinders import LocateResult
from sadicsets.sadic import _hull_order


def _reference_locate(x, s, u, depth):
    """`point_locate` by `Fraction` arithmetic alone: each child hull is
    tau + s**-C * [inf0, sup0], tau the value of the C digits of its
    block words; children are sorted by inf and the first one holding x
    is taken."""
    x = Fraction(x)
    lo0, hi0 = set_extrema(s, u)
    if not lo0 <= x <= hi0:
        return LocateResult(
            "excluded", hull=(lo0, hi0), detail="outside the hull of the whole set"
        )
    chain = ()
    for _ in range(depth):
        kids = []
        for c in block_alphabet(s, u):
            digits = sum(((u,) * (b - 1) + (b,) for b in chain + (c,)), ())
            tau = digits_to_rational(DigitString(s, digits))
            scale = Fraction(1, s ** len(digits))
            kids.append((tau + scale * lo0, tau + scale * hi0, c))
        kids.sort(key=lambda k: k[0])
        nxt = next((k for k in kids if k[0] <= x <= k[1]), None)
        if nxt is None:
            a, b = next((a, b) for a, b in zip(kids, kids[1:]) if a[1] < x < b[0])
            return LocateResult(
                "excluded",
                chain=chain,
                gap=(a[1], b[0]),
                detail=f"in the gap between sibling blocks {a[2]} and {b[2]}",
            )
        lo, hi, c = nxt
        chain += (c,)
    if x in (lo, hi):
        which = "inf" if x == lo else "sup"
        return LocateResult(
            "inside",
            chain=chain,
            hull=(lo, hi),
            detail=f"equals the {which} of its depth-{depth} cylinder",
        )
    return LocateResult(
        "undecided-at-depth",
        chain=chain,
        hull=(lo, hi),
        detail=f"interior to its depth-{depth} hull; membership unresolved",
    )


_STATUS = {
    "endpoint": "inside",
    "gap": "excluded",
    "interior": "undecided-at-depth",
}


@st.composite
def located_points(draw):
    """(kind, x, s, u, depth): x a random rational, a member value, the
    inf or sup of a depth-`depth` cylinder (inside), the midpoint of one
    (undecided), or a point in a gap between sibling hulls (excluded)."""
    s = draw(st.integers(3, 7))
    u = draw(st.integers(0, s - 1))
    depth = draw(st.integers(1, 12))
    alphabet = list(block_alphabet(s, u))
    kinds = ["rational", "member", "endpoint"]
    if len(alphabet) > 1:  # a one-block set is a point: no interior, no gaps
        kinds += ["gap", "interior"]
    kind = draw(st.sampled_from(kinds))
    blocks = st.lists(st.sampled_from(alphabet), min_size=depth, max_size=depth)
    if kind == "rational":
        den = draw(st.integers(1, 10**9))
        x = Fraction(draw(st.integers(0, den)), den)
    elif kind == "member":
        pre = tuple(draw(st.lists(st.sampled_from(alphabet), max_size=8)))
        tail = tuple(draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=3)))
        x = element_value(BlockSequence(s, u, pre, tail))
    elif kind == "gap":
        base = tuple(draw(blocks))[: draw(st.integers(0, depth - 1))]
        kids = sorted(
            (k.inf, k.sup) for k in (cylinder(s, u, base + (c,)) for c in alphabet)
        )
        i = draw(st.integers(0, len(kids) - 2))
        x = (kids[i][1] + kids[i + 1][0]) / 2
    else:
        c = cylinder(s, u, tuple(draw(blocks)))
        lo, hi = c.inf, c.sup
        x = (lo + hi) / 2 if kind == "interior" else draw(st.sampled_from([lo, hi]))
    return kind, x, s, u, depth


@st.composite
def marked_bases(draw, max_rank=5):
    s = draw(st.integers(3, 8))
    u = draw(st.integers(0, s - 1))
    alphabet = list(block_alphabet(s, u))
    base = tuple(draw(st.lists(st.sampled_from(alphabet), max_size=max_rank)))
    return s, u, base


class TestSetExtrema:
    @pytest.mark.parametrize(
        "s,u,lo,hi",
        [
            (3, 0, Fraction(1, 4), Fraction(1, 2)),
            (4, 0, Fraction(1, 21), Fraction(1, 3)),
            (4, 1, Fraction(23, 63), Fraction(2, 5)),
            (4, 3, Fraction(1, 3), Fraction(14, 15)),
            (3, 1, Fraction(5, 8), Fraction(5, 8)),
            (3, 2, Fraction(1, 2), Fraction(1, 2)),
        ],
    )
    def test_known_extrema(self, s, u, lo, hi):
        assert set_extrema(s, u) == (lo, hi)

    def test_degenerate_iff_single_block(self):
        for s in range(3, 9):
            for u in range(s):
                lo, hi = set_extrema(s, u)
                if len(block_alphabet(s, u)) == 1:
                    assert lo == hi
                else:
                    assert lo < hi

    def test_rejects_bad_params(self):
        with pytest.raises(InvalidBaseError):
            set_extrema(2, 0)
        with pytest.raises(InvalidBaseError):
            set_extrema(3, 3)
        for s, u in ((3.0, 0), (3, 0.5), (True, 0)):
            with pytest.raises(InvalidBaseError):
                set_extrema(s, u)
        with pytest.raises(InvalidBaseError):
            cylinder(3.5, 0, ())


class TestCylinder:
    def test_root_is_whole_set(self):
        c = cylinder(3, 0, ())
        assert (c.inf, c.sup) == (Fraction(1, 4), Fraction(1, 2))
        assert c.diameter == Fraction(1, 4)

    def test_worked_base_one(self):
        c = cylinder(3, 0, (1,))
        assert (c.inf, c.sup) == (Fraction(5, 12), Fraction(1, 2))
        assert cylinder_diameter(3, 0, (1,)) == Fraction(1, 12)

    def test_worked_base_two(self):
        c = cylinder(3, 0, (2,))
        assert (c.inf, c.sup) == (Fraction(1, 4), Fraction(5, 18))

    def test_worked_base_one_one(self):
        assert cylinder_diameter(3, 0, (1, 1)) == Fraction(1, 36)

    def test_rejects_marker_block(self):
        with pytest.raises(InvalidBaseError):
            cylinder(4, 2, (2,))

    @given(st.integers(3, 12), st.data())
    @settings(deadline=None)
    def test_marker_zero_partial_sum_form(self, s, data):
        # independent u = 0 derivation: with g = sum c_k s**-(c_1+..+c_k)
        # and C = sum(base), the hull is
        # [g + (s-1)/((s**(s-1)-1) s**C), g + 1/((s-1) s**C)]
        base = tuple(
            data.draw(st.lists(st.integers(1, s - 1), max_size=40), label="base")
        )
        g = Fraction(0)
        depth = 0
        for c in base:
            depth += c
            g += Fraction(c, s**depth)
        c = cylinder(s, 0, base)
        assert c.inf == g + Fraction(s - 1, (s ** (s - 1) - 1) * s**depth)
        assert c.sup == g + Fraction(1, (s - 1) * s**depth)

    @given(marked_bases())
    @settings(deadline=None)
    def test_diameter_is_width(self, params):
        s, u, base = params
        c = cylinder(s, u, base)
        assert c.sup - c.inf == c.diameter == cylinder_diameter(s, u, base)

    @given(marked_bases(max_rank=4))
    @settings(deadline=None)
    def test_children_nest_and_scale(self, params):
        s, u, base = params
        parent = cylinder(s, u, base)
        kids = [cylinder(s, u, base + (c,)) for c in block_alphabet(s, u)]
        for kid in kids:
            c = kid.base[-1]
            assert parent.inf <= kid.inf <= kid.sup <= parent.sup
            assert kid.diameter * s**c == parent.diameter

    @given(marked_bases(max_rank=3), st.integers(1, 4))
    @settings(deadline=None, max_examples=40)
    def test_endpoints_bracket_extension_bounds(self, params, depth):
        s, u, base = params
        c = cylinder(s, u, base)
        lo, hi = c.inf, c.sup
        blo, bhi = extension_value_bounds(s, u, base, depth)
        slack = Fraction(1, s ** (sum(base) + depth))
        assert blo - slack <= lo <= blo + slack
        assert bhi - slack <= hi <= bhi + slack


class TestOrdering:
    def test_low_marker_decreasing(self):
        assert cylinder_order(3, 0, (), 1) == "decreasing"
        assert cylinder_order(4, 1, (2,), 2) == "decreasing"

    def test_high_marker_increasing(self):
        assert cylinder_order(4, 3, (), 1) == "increasing"
        assert cylinder_order(5, 3, (), 1) == "increasing"

    def test_middle_marker_splits_on_block(self):
        # middle markers order adjacent pairs by which side of u they sit on
        assert cylinder_order(6, 3, (), 1) == "increasing"
        assert cylinder_order(6, 3, (), 4) == "decreasing"

    @pytest.mark.parametrize("s", range(3, 13))
    def test_hull_order_sorts_the_rank_one_hulls(self, s):
        # the one statement of the sibling order, against `Fraction`
        # hulls tau + s**-c * [inf0, sup0] of the children of the root
        for u in range(s):
            lo0, hi0 = set_extrema(s, u)
            hulls = []
            for c in block_alphabet(s, u):
                tau = digits_to_rational(DigitString(s, (u,) * (c - 1) + (c,)))
                hulls.append((tau + lo0 / s**c, tau + hi0 / s**c, c))
            hulls.sort()
            assert all(a[1] < b[0] for a, b in zip(hulls, hulls[1:]))
            assert _hull_order(s, u) == tuple(c for _, _, c in hulls)

    def test_rejects_missing_sibling(self):
        with pytest.raises(InvalidBaseError):
            cylinder_order(3, 0, (), 2)

    # floats and bools are rows of test_sadic's _INT_ARGUMENTS
    @pytest.mark.parametrize("p", [None, "1"])
    def test_rejects_non_int_label(self, p):
        with pytest.raises(InvalidBaseError, match="label p must be an int"):
            cylinder_order(3, 0, (), p)

    @pytest.mark.parametrize(
        "s,u,base,p,message",
        [
            (3, 0, (3,), 1, "base entry 3 out of range 1..2"),
            (5, 2, (2,), 3, "base entry 2 equals the marker digit"),
            (5, 2, (1.0,), 3, "base entry 1.0 out of range 1..4"),
            (3, 0, (0,), 1, "base entry 0 out of range 1..2"),
            (4, 0, (1, 2, 3, 4), 1, "base entry 4 out of range 1..3"),
            (3, 0, (2, 1.0), 1, "base entry 1.0 out of range 1..2"),
            (3, 0, (True,), 1, "base entry True out of range 1..2"),
            (4, 1, (2, 1), 2, "base entry 1 equals the marker digit"),
            (5, 4, (3, False), 1, "base entry False out of range 1..4"),
        ],
    )
    def test_rejects_bad_base_entries(self, s, u, base, p, message):
        # every entry that takes a block prefix shares one check, with
        # the same class and text; gaps exist for the marker 0 only
        calls = [
            lambda: cylinder_order(s, u, base, p),
            lambda: cylinder(s, u, base),
            lambda: extension_value_bounds(s, u, base, 1),
        ]
        if u == 0:
            calls.append(lambda: gap_interval(s, base, p))
        for call in calls:
            with pytest.raises(InvalidBaseError) as exc:
                call()
            assert type(exc.value) is InvalidBaseError
            assert str(exc.value) == message

    @given(marked_bases(max_rank=3))
    @settings(deadline=None)
    def test_adjacent_siblings_disjoint(self, params):
        s, u, base = params
        kids = {c: cylinder(s, u, base + (c,)) for c in block_alphabet(s, u)}
        for p in sorted(kids):
            if p + 1 not in kids:
                continue
            verdict = cylinder_order(s, u, base, p)
            a, b = kids[p], kids[p + 1]
            if verdict == "increasing":
                assert a.sup < b.inf
            else:
                assert b.sup < a.inf


class TestGaps:
    def test_root_gap(self):
        g = gap_interval(3, (), 1)
        assert (g.lower, g.upper) == (Fraction(5, 18), Fraction(5, 12))

    def test_gap_sits_between_children(self):
        g = gap_interval(3, (1,), 1)
        kids = {c: cylinder(3, 0, (1, c)) for c in block_alphabet(3, 0)}
        assert g.lower == kids[2].sup
        assert g.upper == kids[1].inf

    def test_contains_is_strict(self):
        g = gap_interval(3, (), 1)
        assert Fraction(1, 3) in g
        assert g.lower not in g
        assert g.upper not in g

    def test_rejects_bad_rank(self):
        with pytest.raises(InvalidBaseError):
            gap_interval(3, (), 2)

    @pytest.mark.parametrize("p", [None, "1", 0])
    def test_rejects_non_int_or_low_rank(self, p):
        with pytest.raises(InvalidBaseError, match="p must be an int >= 1"):
            gap_interval(4, (), p)

    @pytest.mark.parametrize("x", ["x", None, "1/0", float("nan"), float("inf")])
    def test_non_rational_membership_is_a_range_error(self, x):
        with pytest.raises(RangeError):
            x in gap_interval(3, (), 1)

    @given(st.integers(3, 8), st.data())
    @settings(deadline=None)
    def test_gap_avoids_all_children(self, s, data):
        base = tuple(
            data.draw(st.lists(st.integers(1, s - 1), max_size=3), label="base")
        )
        p = data.draw(st.integers(1, s - 2), label="p")
        g = gap_interval(s, base, p)
        assert g.lower < g.upper
        for kid in (cylinder(s, 0, base + (c,)) for c in block_alphabet(s, 0)):
            assert kid.sup <= g.lower or kid.inf >= g.upper


class TestPointLocate:
    def test_supremum_is_member(self):
        r = point_locate(Fraction(1, 2), 3, 0, depth=8)
        assert r.status == "inside"

    def test_gap_point_excluded(self):
        r = point_locate(Fraction(1, 3), 3, 0, depth=8)
        assert r.status == "excluded"
        assert r.gap == (Fraction(5, 18), Fraction(5, 12))

    def test_outside_hull_excluded(self):
        assert point_locate(Fraction(9, 10), 3, 0, depth=4).status == "excluded"

    def test_chain_deepens(self):
        r = point_locate(Fraction(1, 2), 3, 0, depth=6)
        assert len(r.chain) == 6

    def test_locate_respects_decoder(self):
        # 5/12 starts 0.11 base 3, inside the base-(1,1,...) chain
        r = point_locate(Fraction(5, 12), 3, 0, depth=4)
        assert r.status in ("inside", "undecided-at-depth")

    @given(st.integers(3, 6), st.integers(1, 5))
    @settings(deadline=None, max_examples=30)
    def test_members_never_excluded(self, s, c):
        if c >= s:
            c = s - 1
        # 0.(word for block c) repeated is a genuine member for marker 0;
        # descent may only certify it, never exclude it
        from sadicsets import BlockSequence, element_value

        x = element_value(BlockSequence(s, 0, (), (c,)))
        r = point_locate(x, s, 0, depth=10)
        assert r.status != "excluded"
        hull = cylinder(s, 0, r.chain)
        assert r.hull == (hull.inf, hull.sup)

    @given(located_points())
    @settings(deadline=None, max_examples=300)
    def test_matches_fraction_descent(self, case):
        kind, x, s, u, depth = case
        got = point_locate(x, s, u, depth)
        assert got == _reference_locate(x, s, u, depth)
        if kind in _STATUS:
            assert got.status == _STATUS[kind]
        if kind == "gap":
            assert got.gap is not None
        if kind == "member":
            assert got.status != "excluded"

    @pytest.mark.parametrize("x", ["x", None, "1/0", float("nan"), float("inf")])
    def test_non_rational_point_is_a_range_error(self, x):
        with pytest.raises(RangeError):
            point_locate(x, 3, 0, 5)

    def test_extremal_members_certified(self):
        # repeating block 1 and block 2 attain sup and inf for s=3
        from sadicsets import BlockSequence, element_value

        for c in (1, 2):
            x = element_value(BlockSequence(3, 0, (), (c,)))
            assert point_locate(x, 3, 0, depth=10).status == "inside"


class TestExtensionBounds:
    def test_depth_one_enumerates_children(self):
        # depth-1 bounds are the min/max single-block partial values
        alphabet = block_alphabet(3, 0)
        vals = [Fraction(c, 3**c) for c in alphabet]
        assert extension_value_bounds(3, 0, (), 1) == (min(vals), max(vals))

    def test_matches_enumeration(self):
        # every (s, u) with s <= 6, gapped alphabets such as {1, 3} for
        # (4, 2) included, against every extension of up to 4 blocks
        for s in range(3, 7):
            for u in range(s):
                alphabet = block_alphabet(s, u)
                for base in ((), alphabet[-1:]):
                    for n in range(1, 5):
                        values = [
                            element_value(BlockSequence(s, u, base + ext))
                            for ext in product(alphabet, repeat=n)
                        ]
                        assert extension_value_bounds(s, u, base, n) == (
                            min(values),
                            max(values),
                        ), (s, u, base, n)

    def test_rejects_zero_depth(self):
        with pytest.raises(InvalidBaseError):
            extension_value_bounds(3, 0, (), 0)

    def test_overshoot_regime(self):
        # large markers overshoot: the 1-block partial exceeds the sup
        _, hi = set_extrema(4, 3)
        _, bhi = extension_value_bounds(4, 3, (), 1)
        assert bhi > hi

    def test_deep_extension_needs_no_recursion(self):
        # 1500 blocks over the single-block alphabet {2}: one DP layer per
        # block, far deeper than the interpreter's recursion limit
        lo, hi = set_extrema(3, 1)
        blo, bhi = extension_value_bounds(3, 1, (), 1500)
        assert abs(blo - lo) <= Fraction(1, 3**3000)
        assert abs(bhi - hi) <= Fraction(1, 3**3000)
