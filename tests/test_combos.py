"""Finite-word alphabets, their set extrema, and prefix cylinders."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sadicsets import (
    FRONTIER_BUDGET,
    ComboAlphabet,
    DigitString,
    ExtremaFalsificationError,
    InvalidDigitError,
    ResourceBudgetError,
    WordError,
    combo_cylinder,
    comboset_extrema,
    enumerate_prefixes,
    induced_alphabet,
    set_extrema,
    sprime3_alphabet,
    tilde_alphabet,
    digits_to_rational,
)
from sadicsets import combos
from sadicsets.combos import _frontier_size


@st.composite
def small_alphabets(draw):
    """Alphabets of 1-4 words of length 1-3 over base 2-5, prefix-free
    or not."""
    s = draw(st.integers(2, 5))
    word = st.lists(st.integers(0, s - 1), min_size=1, max_size=3).map(tuple)
    words = draw(st.sets(word, min_size=1, max_size=4))
    return ComboAlphabet(s, tuple(sorted(words)))


def _reference_prefixes(a, depth):
    """Every (hull, prefix) of the depth window, by recursion over word
    tuples with `Fraction` values, sorted by (hull.lower, prefix)."""
    tails = [digits_to_rational(DigitString(a.s, (), w)) for w in a.combos]
    lo, hi = min(tails), max(tails)
    out = []

    def grow(prefix, n):
        for w in a.combos:
            pre, m = prefix + (w,), n + len(w)
            if m <= depth - a.max_len:
                grow(pre, m)
                continue
            v = digits_to_rational(DigitString(a.s, sum(pre, ())))
            out.append(((v + lo / a.s**m, v + hi / a.s**m), pre))

    grow((), 0)
    return sorted(out, key=lambda item: (item[0][0], item[1]))


def _frontier_extrema(a, depth):
    """Oracle of `comboset_extrema`: the extrema the depth-`depth`
    frontier attests.  Each hull of `enumerate_prefixes` is
    v + s**-N * [inf, sup] for the prefix value v of N digits, which
    gives back the inf and sup it was built from; every hull must lie
    inside [inf, sup], and the least lower and the greatest upper hull
    endpoint must attain them."""
    pairs = enumerate_prefixes(a, depth)
    claims = set()
    for (lower, upper), prefix in pairs:
        digits = sum(prefix, ())
        v, scale = digits_to_rational(DigitString(a.s, digits)), a.s ** len(digits)
        claims.add(((lower - v) * scale, (upper - v) * scale))
    assert len(claims) == 1
    ((inf, sup),) = claims
    assert all(inf <= lower and upper <= sup for (lower, upper), _ in pairs)
    assert min(lower for (lower, _), _ in pairs) == inf
    assert max(upper for (_, upper), _ in pairs) == sup
    return inf, sup


class TestAlphabets:
    def test_sprime3_words(self):
        a = sprime3_alphabet()
        assert a.s == 3
        assert set(a.combos) == {(0, 2, 1), (1, 0, 2)}

    def test_tilde_three(self):
        a = tilde_alphabet(3)
        assert set(a.combos) == {(1,), (0, 2), (1, 2)}

    @pytest.mark.parametrize(
        "s,count,lengths",
        [
            (3, 3, {1: 1, 2: 2}),
            (4, 7, {1: 1, 2: 3, 3: 3}),
            (5, 13, {1: 1, 2: 4, 3: 4, 4: 4}),
        ],
    )
    def test_tilde_census(self, s, count, lengths):
        a = tilde_alphabet(s)
        assert a.m == count == s * s - 3 * s + 3
        assert a.length_counts == lengths

    def test_induced_matches_block_words(self):
        # listed in hull order: 0.(02) = 1/4 lies below 0.(1) = 1/2
        a = induced_alphabet(3, 0)
        assert a.combos == ((0, 2), (1,))

    def test_string_and_list_words_agree(self):
        assert ComboAlphabet(3, ("021",)) == ComboAlphabet(3, ([0, 2, 1],))

    def test_rejects_duplicates(self):
        with pytest.raises(WordError):
            ComboAlphabet(3, ("01", "01"))

    def test_rejects_digit_out_of_base(self):
        with pytest.raises(InvalidDigitError):
            ComboAlphabet(3, ("03",))

    def test_prefix_freedom(self):
        assert sprime3_alphabet().is_prefix_free()
        assert not ComboAlphabet(3, ("0", "01")).is_prefix_free()

    def test_json_roundtrip(self):
        a = tilde_alphabet(4)
        assert ComboAlphabet.from_json(a.to_json()) == a

    def test_closed_form_digit_counts(self):
        def digits(a):
            return sum(len(w) for w in a.combos)

        for s in range(3, 13):
            assert digits(tilde_alphabet(s)) == 1 + (s - 1) * ((s - 1) * s // 2 - 1)
            for u in range(s):
                assert digits(induced_alphabet(s, u)) == s * (s - 1) // 2 - u

    def test_largest_alphabets_within_budget_build(self):
        assert sum(len(w) for w in tilde_alphabet(128).combos) == 1_032_130
        assert sum(len(w) for w in induced_alphabet(1448, 0).combos) == 1_047_628

    @pytest.mark.parametrize(
        "build,digits",
        [
            (lambda: tilde_alphabet(129), 1_056_641),
            (lambda: tilde_alphabet(2000), 3_995_999_002),
            (lambda: induced_alphabet(1449, 0), 1_049_076),
            (lambda: induced_alphabet(30000, 7), 449_984_993),
        ],
    )
    def test_oversized_alphabet_refused_before_building(self, build, digits):
        t0 = time.perf_counter()
        with pytest.raises(ResourceBudgetError) as err:
            build()
        assert time.perf_counter() - t0 < 0.01
        assert f"would hold {digits} digits, budget is {FRONTIER_BUDGET}" in str(err.value)


class TestExtrema:
    def test_sprime3(self):
        e = comboset_extrema(sprime3_alphabet())
        assert (e.inf, e.sup) == (Fraction(7, 26), Fraction(11, 26))
        assert e.arg_inf == (0, 2, 1)
        assert e.arg_sup == (1, 0, 2)

    def test_tilde_three(self):
        e = comboset_extrema(tilde_alphabet(3))
        assert (e.inf, e.sup) == (Fraction(1, 4), Fraction(5, 8))

    def test_tilde_four(self):
        e = comboset_extrema(tilde_alphabet(4))
        assert (e.inf, e.sup) == (Fraction(1, 21), Fraction(14, 15))

    def test_wrong_claim_names_the_stream(self, monkeypatch):
        a = sprime3_alphabet()
        raw = combos._extrema_raw(a)
        lo, hi = raw[:2]
        for wrong, stream in (
            ((lo + Fraction(1, 10**6), hi, *raw[2:]), "(021)"),
            ((lo, hi - Fraction(1, 10**6), *raw[2:]), "(102)"),
        ):
            monkeypatch.setattr(combos, "_extrema_raw", lambda _a: wrong)
            with pytest.raises(ExtremaFalsificationError) as err:
                comboset_extrema(a)
            assert f"stream {stream} of the word automaton" in str(err.value)
            # the frontier oracle rejects the same claim, which the hulls
            # of `enumerate_prefixes` now carry
            with pytest.raises(AssertionError):
                _frontier_extrema(a, 9)

    def test_deeper_audit_passes(self):
        a = sprime3_alphabet()
        e = comboset_extrema(a)
        assert (e.inf, e.sup) == (Fraction(7, 26), Fraction(11, 26))
        assert _frontier_extrema(a, 12) == (e.inf, e.sup)

    @given(small_alphabets(), st.integers(0, 4))
    @settings(deadline=None, max_examples=150)
    def test_matches_the_frontier_oracle(self, a, extra):
        e = comboset_extrema(a)
        assert (e.inf, e.sup) == _frontier_extrema(a, a.max_len + extra)
        assert digits_to_rational(DigitString(a.s, (), e.arg_inf)) == e.inf
        assert digits_to_rational(DigitString(a.s, (), e.arg_sup)) == e.sup

    def test_walks_no_frontier(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the frontier was walked")

        monkeypatch.setattr(combos, "_frontier", refuse)
        e = comboset_extrema(tilde_alphabet(64))
        assert (e.inf, e.sup) == combos._extrema_raw(tilde_alphabet(64))[:2]

    def test_automaton_over_budget_refused(self, monkeypatch):
        # a single 12-digit word: its automaton is a 12-state cycle with
        # one trie edge per state
        monkeypatch.setattr(combos, "FRONTIER_BUDGET", 10)
        with pytest.raises(ResourceBudgetError) as err:
            comboset_extrema(ComboAlphabet(3, ("012012012012",)))
        assert str(err.value) == (
            "the extrema walk would read at least 11 trie edges per level, "
            "11 in all, budget is 10"
        )

    @pytest.mark.parametrize("s", range(3, 9))
    def test_matches_marker_sets(self, s):
        for u in range(s):
            e = comboset_extrema(induced_alphabet(s, u))
            assert (e.inf, e.sup) == set_extrema(s, u)

    def test_brute_force_agreement(self):
        # depth-10 prefix values bracket the true extrema within 3**-10
        a = sprime3_alphabet()
        e = comboset_extrema(a)
        vals = [h for h, _ in enumerate_prefixes(a, 10)]
        lo = min(h[0] for h in vals)
        hi = max(h[1] for h in vals)
        assert lo == e.inf  # frontier hulls start at the true inf
        assert hi == e.sup


class TestComboCylinder:
    def test_single_word_base(self):
        c = combo_cylinder(sprime3_alphabet(), [(0, 2, 1)])
        assert c.diameter == Fraction(2, 351)
        assert c.total_digits == 3

    def test_string_base(self):
        c = combo_cylinder(sprime3_alphabet(), ["021", "102"])
        assert c.total_digits == 6

    def test_rejects_foreign_word(self):
        with pytest.raises(WordError):
            combo_cylinder(sprime3_alphabet(), [(0, 1)])

    def test_nesting(self):
        a = tilde_alphabet(3)
        outer = combo_cylinder(a, [(1, 2)])
        inner = combo_cylinder(a, [(1, 2), (0, 2)])
        assert outer.inf <= inner.inf <= inner.sup <= outer.sup

    def test_scaling(self):
        a = sprime3_alphabet()
        outer = combo_cylinder(a, [])
        inner = combo_cylinder(a, [(0, 2, 1)])
        assert inner.diameter * 27 == outer.diameter


class TestEnumeratePrefixes:
    def test_sprime3_window_counts(self):
        # words have length 3, so depth 6 captures exactly the 4 two-word
        # prefixes and depth 3 the 2 one-word prefixes
        assert len(enumerate_prefixes(sprime3_alphabet(), 6)) == 4
        assert len(enumerate_prefixes(sprime3_alphabet(), 3)) == 2

    def test_mixed_length_window(self):
        a = tilde_alphabet(3)
        pre = enumerate_prefixes(a, 4)
        totals = {sum(len(w) for w in p) for _, p in pre}
        assert totals == {3, 4}

    def test_hulls_sorted_and_disjoint(self):
        hulls = [h for h, _ in enumerate_prefixes(induced_alphabet(3, 0), 10)]
        for (lo1, hi1), (lo2, hi2) in zip(hulls, hulls[1:]):
            assert lo1 <= lo2
            assert hi1 < lo2  # marker-0 frontier hulls never touch

    @given(st.integers(3, 6), st.integers(6, 10))
    @settings(deadline=None, max_examples=20)
    def test_every_stream_has_one_frontier_prefix(self, s, depth):
        a = induced_alphabet(s, 0)
        pre = enumerate_prefixes(a, depth)
        # prefix totals all land in the window (depth - max word, depth]
        for _, p in pre:
            total = sum(len(w) for w in p)
            assert depth - a.max_len < total <= depth
            # minimality: the parent prefix had not yet entered the window
            assert total - len(p[-1]) <= depth - a.max_len

    @given(small_alphabets(), st.integers(0, 6))
    @settings(deadline=None, max_examples=150)
    def test_matches_fraction_reference(self, a, extra):
        depth = a.max_len + extra
        pre = enumerate_prefixes(a, depth)
        assert pre == _reference_prefixes(a, depth)
        assert len(pre) == _frontier_size(a, depth)

    def test_budget_refuses_before_enumerating(self):
        a = tilde_alphabet(9)
        assert _frontier_size(a, 40) == 171_774_086_543_076_382_009
        with pytest.raises(ResourceBudgetError) as err:
            enumerate_prefixes(a, 40)
        assert "171774086543076382009" in str(err.value)
        assert str(FRONTIER_BUDGET) in str(err.value)

    def test_deep_frontier_refused_from_its_bound(self):
        # (3, 0) has the words 1 and 02, so j = (D - 2) // 2: through
        # j = 21 the exact count is stated, past it the bound 2**j
        a = induced_alphabet(3, 0)
        for depth, stated in ((44, f"{_frontier_size(a, 44)} "), (46, "at least 2**22 ")):
            with pytest.raises(ResourceBudgetError) as err:
                enumerate_prefixes(a, depth)
            assert str(err.value) == (
                f"max_digits {depth} would enumerate {stated}frontier prefixes, "
                f"budget is {FRONTIER_BUDGET}"
            )
        # the exact count would take seconds and have too many digits
        # to print
        for depth, j in ((100_000, 49_999), (1_000_000, 499_999)):
            t0 = time.perf_counter()
            with pytest.raises(ResourceBudgetError) as err:
                enumerate_prefixes(a, depth)
            assert time.perf_counter() - t0 < 0.1
            assert str(err.value) == (
                f"max_digits {depth} would enumerate at least 2**{j} "
                f"frontier prefixes, budget is {FRONTIER_BUDGET}"
            )

    def test_budget_admits_the_cli_default(self):
        # tilde:5 at the CLI's default depth 12
        assert _frontier_size(tilde_alphabet(5), 12) == 55_789 <= FRONTIER_BUDGET
