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
from sadicsets.combos import _extrema_q, _hull, _word_steps
from sadicsets.errors import RangeError
from sadicsets.sadic import _require_int


@st.composite
def small_alphabets(draw):
    """Alphabets of 1-4 words of length 1-3 over base 2-5, prefix-free
    or not."""
    s = draw(st.integers(2, 5))
    word = st.lists(st.integers(0, s - 1), min_size=1, max_size=3).map(tuple)
    words = draw(st.sets(word, min_size=1, max_size=4))
    return ComboAlphabet(s, tuple(sorted(words)))


def _frontier_size(a, max_digits):
    """Exact number of frontier prefixes at ``max_digits``, from the
    length histogram alone.

    f[n] = sum_k N_k f[n-k] counts the word sequences of digit total n.
    Each of them with n <= max_digits - L (L the longest word) is a
    parent, and gives one frontier prefix per word whose length carries
    it past that bound.
    """
    low = max_digits - a.max_len
    counts = a.length_counts.items()
    f = [1]
    for n in range(1, low + 1):
        f.append(sum(c * f[n - k] for k, c in counts if k <= n))
    return sum(
        f[p] * sum(c for k, c in counts if p + k > low) for p in range(low + 1)
    )


def _frontier(a, max_digits, what):
    """The word-sequence frontier, oracle of the digit cylinders of
    `enumerate_prefixes`: check ``max_digits`` (named ``what`` in errors)
    and the frontier budget, then list the frontier prefixes, one group
    (n, nums, paths) per digit total n in (max_digits - L, max_digits],
    L the longest word: the prefixes of total n are num / s**n for num
    in ``nums``, spelled by the word sequences in ``paths``, in step.

    Each infinite sequence of alphabet words passes through exactly one
    such frontier prefix, so the frontier hulls cover the whole set.
    """
    _require_int(max_digits, a.max_len, RangeError, what)
    # Each of the m**j sequences of j words, j*L <= max_digits - L, is a
    # parent with frontier prefixes of its own, and m**j > 2**j exceeds
    # the budget: refuse from that bound before the exact count, whose
    # DP grows with max_digits.
    j = (max_digits - a.max_len) // a.max_len
    if a.m >= 2 and j > FRONTIER_BUDGET.bit_length():
        raise ResourceBudgetError(
            f"{what} {max_digits} would enumerate at least {a.m}**{j} "
            f"frontier prefixes, budget is {FRONTIER_BUDGET}"
        )
    size = _frontier_size(a, max_digits)
    if size > FRONTIER_BUDGET:
        raise ResourceBudgetError(
            f"{what} {max_digits} would enumerate {size} frontier prefixes, "
            f"budget is {FRONTIER_BUDGET}"
        )
    # Level by level over digit totals: every prefix of total n <= low
    # is a parent, extended by each word into level n + len(word); the
    # levels above low are the frontier.
    low = max_digits - a.max_len
    steps = _word_steps(a.s, a.combos)
    nums = [[0]] + [[] for _ in range(max_digits)]
    paths = [[()]] + [[] for _ in range(max_digits)]
    for n in range(low + 1):
        for (k, step, v), w in zip(steps, a.combos):
            nums[n + k] += [num * step + v for num in nums[n]]
            paths[n + k] += [path + (w,) for path in paths[n]]
    return [(n, nums[n], paths[n]) for n in range(low + 1, max_digits + 1)]


def _frontier_prefixes(a, depth):
    """Every (hull, word sequence) of the depth-`depth` frontier, the
    hulls built from the claimed whole-set extrema (`_extrema_q`),
    sorted by (hull.lower, word sequence)."""
    ext = _extrema_q(a)
    pairs = [
        (_hull(num, a.s**n, ext), prefix)
        for n, nums, paths in _frontier(a, depth, "max_digits")
        for num, prefix in zip(nums, paths)
    ]
    return sorted(pairs, key=lambda item: (item[0][0], item[1]))


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


def _brute_cylinders(a, depth):
    """Oracle of `enumerate_prefixes`: each `depth`-digit prefix of the
    set's streams with its hull, by recursion over word sequences with
    `Fraction` values.  The streams through a prefix are those of the
    word sequences that first reach `depth` digits through it, each
    value(sequence) + s**-n * E for its n digits, so the prefix's hull
    runs from the least to the greatest of their hulls."""
    tails = [digits_to_rational(DigitString(a.s, (), w)) for w in a.combos]
    lo, hi = min(tails), max(tails)
    hulls = {}

    def grow(digits):
        for w in a.combos:
            longer = digits + w
            if len(longer) < depth:
                grow(longer)
                continue
            v = digits_to_rational(DigitString(a.s, longer))
            scale = a.s ** len(longer)
            low, high = v + lo / scale, v + hi / scale
            key = longer[:depth]
            if key in hulls:
                low, high = min(low, hulls[key][0]), max(high, hulls[key][1])
            hulls[key] = (low, high)

    grow(())
    return [(hulls[key], key) for key in sorted(hulls)]


def _cylinder_count(a, depth):
    """How many digit cylinders `enumerate_prefixes(a, depth)` lists:
    the depth-digit paths of the word automaton, counted in integers."""
    *_, last = combos._path_counts(combos._word_automaton(a, depth, "depth"), depth)
    return sum(last)


def _frontier_extrema(a, depth):
    """Oracle of `comboset_extrema`: the extrema the depth-`depth`
    frontier attests.  Each frontier hull is v + s**-N * [inf, sup] for
    the prefix value v of N digits, which gives back the inf and sup it
    was built from; every hull must lie inside [inf, sup], and the least
    lower and the greatest upper hull endpoint must attain them."""
    pairs = _frontier_prefixes(a, depth)
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


# Alphabets that are not uniquely decodable: {0, 1, 01} spells every
# stream over {0, 1}, {0, 00} only 0^inf.
_PROBES = [ComboAlphabet(3, ("0", "1", "01")), ComboAlphabet(2, ("0", "00"))]


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
            # the frontier oracle, whose hulls carry the claim, rejects it
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
        # no word-sequence frontier is left in the package, and the
        # extrema walk lists no digit cylinders either
        assert not hasattr(combos, "_frontier")

        def refuse(*args):
            raise AssertionError("the digit paths were counted")

        monkeypatch.setattr(combos, "_path_counts", refuse)
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
        # words have length 3 and the alphabet is prefix-free, so the 6-
        # and 3-digit cylinders are the 4 two-word and 2 one-word prefixes
        assert len(enumerate_prefixes(sprime3_alphabet(), 6)) == 4
        assert len(enumerate_prefixes(sprime3_alphabet(), 3)) == 2

    def test_mixed_length_window(self):
        # the frontier oracle's prefixes end at 3 or 4 digits; the digit
        # cylinders all have exactly 4
        a = tilde_alphabet(3)
        totals = {sum(len(w) for w in p) for _, p in _frontier_prefixes(a, 4)}
        assert totals == {3, 4}
        assert {len(p) for _, p in enumerate_prefixes(a, 4)} == {4}

    def test_hulls_sorted_and_disjoint(self):
        hulls = [h for h, _ in enumerate_prefixes(induced_alphabet(3, 0), 10)]
        for (lo1, hi1), (lo2, hi2) in zip(hulls, hulls[1:]):
            assert lo1 <= lo2
            assert hi1 < lo2  # marker-0 digit cylinders never touch

    @given(st.integers(3, 6), st.integers(6, 10))
    @settings(deadline=None, max_examples=20)
    def test_every_stream_has_one_frontier_prefix(self, s, depth):
        # each stream passes through exactly one digit cylinder, inside
        # the hull of the one frontier prefix it passes through
        a = induced_alphabet(s, 0)
        pre = enumerate_prefixes(a, depth)
        assert all(len(p) == depth for _, p in pre)
        assert len({p for _, p in pre}) == len(pre)
        frontier = {sum(p, ()): h for h, p in _frontier_prefixes(a, depth)}
        for (lo, hi), p in pre:
            [(flo, fhi)] = [h for d, h in frontier.items() if p[: len(d)] == d]
            assert flo <= lo <= hi <= fhi

    @given(small_alphabets(), st.integers(0, 6))
    @settings(deadline=None, max_examples=150)
    def test_matches_fraction_reference(self, a, extra):
        # the frontier oracle against its own `Fraction` reference
        depth = a.max_len + extra
        pre = _frontier_prefixes(a, depth)
        assert pre == _reference_prefixes(a, depth)
        assert len(pre) == _frontier_size(a, depth)

    @given(small_alphabets(), st.integers(1, 6))
    @settings(deadline=None, max_examples=150)
    def test_matches_the_brute_force(self, a, depth):
        got = enumerate_prefixes(a, depth)
        assert got == _brute_cylinders(a, depth)
        assert len(got) == _cylinder_count(a, depth)

    @pytest.mark.parametrize("a", _PROBES, ids=["0-1-01", "0-00"])
    def test_undecodable_probes_match_the_brute_force(self, a):
        got = enumerate_prefixes(a, 8)
        assert got == _brute_cylinders(a, 8)
        # every 8-digit stream over {0, 1}, or the one 0^8
        assert len(got) == len({h for h, _ in got}) == (256 if a.m == 3 else 1)

    @given(small_alphabets(), st.integers(1, 7))
    @settings(deadline=None, max_examples=150)
    def test_sorted_touching_at_most_at_an_end(self, a, depth):
        hulls = [h for h, _ in enumerate_prefixes(a, depth)]
        assert all(lo <= hi for lo, hi in hulls)
        assert all(h1[1] <= h2[0] for h1, h2 in zip(hulls, hulls[1:]))

    @given(small_alphabets(), st.integers(0, 4))
    @settings(deadline=None, max_examples=150)
    def test_digit_cylinders_refine_the_frontier(self, a, extra):
        # Each stream through a digit cylinder passes a frontier prefix
        # of its digits, so the cylinder's hull spans no more than those
        # frontier hulls, and its ends, both members, lie in one each.
        # It need not lie in one: {10, 101} in base 2 spells 101 both
        # as 101 and as 10 then a word, and its 3-digit cylinder 101
        # spans both frontier hulls.  For a prefix-free alphabet each
        # frontier hull is the hull of the digit cylinders inside it.
        depth = a.max_len + extra
        cylinders = enumerate_prefixes(a, depth)
        frontier = [(h, sum(p, ())) for h, p in _frontier_prefixes(a, depth)]
        for (lo, hi), p in cylinders:
            above = [h for h, digits in frontier if p[: len(digits)] == digits]
            assert min(flo for flo, _ in above) <= lo and hi <= max(fhi for _, fhi in above)
            for end in (lo, hi):
                assert any(flo <= end <= fhi for flo, fhi in above)
        if not a.is_prefix_free():
            return
        for hull, digits in frontier:
            inside = [h for h, p in cylinders if p[: len(digits)] == digits]
            assert hull == (min(lo for lo, _ in inside), max(hi for _, hi in inside))

    @given(small_alphabets(), st.integers(1, 7))
    @settings(deadline=None, max_examples=150)
    def test_ends_are_the_extrema(self, a, depth):
        hulls = [h for h, _ in enumerate_prefixes(a, depth)]
        e = comboset_extrema(a)
        assert (hulls[0][0], hulls[-1][1]) == (e.inf, e.sup)

    def test_depths_below_the_longest_word(self):
        # a depth shorter than a word lists the digit prefixes of the
        # words' streams; a bool or float depth is refused
        a = sprime3_alphabet()
        assert [p for _, p in enumerate_prefixes(a, 1)] == [(0,), (1,)]
        assert enumerate_prefixes(a, 2) == _brute_cylinders(a, 2)
        for bad in (0, True, 2.0):
            with pytest.raises(RangeError):
                enumerate_prefixes(a, bad)

    def test_budget_refuses_before_enumerating(self):
        a = tilde_alphabet(9)
        with pytest.raises(ResourceBudgetError) as err:
            enumerate_prefixes(a, 40)
        assert str(err.value) == (
            "max_digits 40 would enumerate at least 1249006 digit cylinders, "
            f"the count at depth 10; budget is {FRONTIER_BUDGET}"
        )
        assert _cylinder_count(a, 9) <= FRONTIER_BUDGET < _cylinder_count(a, 10) == 1249006

    def test_deep_frontier_refused_from_its_bound(self):
        # (3, 0) has the words 1 and 02: its digit paths grow as the
        # Fibonacci numbers, and 1346269 at depth 29 is the first count
        # past the budget
        a = induced_alphabet(3, 0)
        for depth in (44, 46, 100_000):
            t0 = time.perf_counter()
            with pytest.raises(ResourceBudgetError) as err:
                enumerate_prefixes(a, depth)
            assert time.perf_counter() - t0 < 0.1
            assert str(err.value) == (
                f"max_digits {depth} would enumerate at least 1346269 digit "
                f"cylinders, the count at depth 29; budget is {FRONTIER_BUDGET}"
            )
        # so deep that the automaton's two edges, read once per level,
        # already pass the budget
        t0 = time.perf_counter()
        with pytest.raises(ResourceBudgetError) as err:
            enumerate_prefixes(a, 1_000_000)
        assert time.perf_counter() - t0 < 0.1
        assert str(err.value) == (
            "max_digits 1000000 would read at least 2 trie edges per level, "
            f"2000000 in all, budget is {FRONTIER_BUDGET}"
        )

    def test_budget_admits_the_cli_default(self):
        # tilde:5 at the CLI's default depth 12
        assert _cylinder_count(tilde_alphabet(5), 12) == 629_030 <= FRONTIER_BUDGET
