"""End-to-end checks tying the exact algebra, the dimension solvers and
the digit statistics together.

Each check returns a `CriterionResult` row with observed and expected
values; `run_all` executes them (optionally filtered) and
`format_table` renders the pass/fail table.  The
checks recompute everything from scratch: frozen constants here were
produced by independent derivations (geometric series by hand, direct
root isolation on the polynomial form) rather than by the code under
test.
"""

from __future__ import annotations

import math
import random
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .combos import (
    ComboAlphabet,
    _digit_cylinders,
    comboset_extrema,
    induced_alphabet,
    sprime3_alphabet,
    tilde_alphabet,
)
from .cylinders import (
    cylinder,
    cylinder_diameter,
    cylinder_order,
    extension_value_bounds,
    gap_interval,
    set_extrema,
)
from .dimension import box_count_for_alphabet, dim_S, dim_alphabet, dim_tilde
from .measure import cover_stage, sigma
from .normality import (
    digit_frequencies,
    normal_candidate_exists,
    structural_identity_residual,
    structural_zero_frequency,
)
from .sadic import (
    BlockSequence,
    DigitString,
    block_alphabet,
    block_decode,
    block_encode,
    element_value,
)


@dataclass
class CriterionResult:
    name: str
    passed: bool
    observed: str
    expected: str
    tolerance: str
    runtime_s: float
    detail: str = ""

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        out = (
            f"{mark} {self.name}: observed {self.observed}, "
            f"expected {self.expected} (tol {self.tolerance}, "
            f"{self.runtime_s:.2f}s)"
        )
        return out + (f" -- {self.detail}" if self.detail else "")

    def to_json(self) -> dict:
        # runtime is reported separately (table/stderr); the payload
        # stays byte-identical across runs of the same inputs.
        return {
            "name": self.name,
            "passed": self.passed,
            "observed": self.observed,
            "expected": self.expected,
            "tolerance": self.tolerance,
            "detail": self.detail,
        }


def _result(name, passed, observed, expected, tolerance, t0, detail=""):
    return CriterionResult(
        name, passed, observed, expected, tolerance, time.perf_counter() - t0, detail
    )


def _sampler(rng: random.Random):
    """``randint(a, b)`` and ``choices(seq, n)`` for ``rng``: the first
    draws what ``rng.randint(a, b)`` draws, the second what ``n``
    successive ``rng.choice(seq)`` calls draw, as a tuple.

    Both take a value below n from ``rng.getrandbits`` as CPython's
    ``Random._randbelow_with_getrandbits`` does: draw k = n.bit_length()
    bits, again while the draw is n or more.  So they make the same
    draws and leave ``rng`` in the same state as the stdlib calls, in
    about half the time: `choices` makes one Python call for all its
    draws, where ``rng.choice`` makes two per draw and ``rng.randint``
    three (`tests/test_acceptance.py` pins the draws to the stdlib's).
    """
    getrandbits = rng.getrandbits

    def randint(a: int, b: int) -> int:
        n = b - a + 1
        if n < 1:
            raise ValueError(f"empty range for randint({a}, {b})")
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return a + r

    def choices(seq, count: int) -> tuple:
        n = len(seq)
        if not n and count:
            raise IndexError("cannot choose from an empty sequence")
        k = n.bit_length()
        out = []
        for _ in range(count):
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            out.append(seq[r])
        return tuple(out)

    return randint, choices


def check_closed_form_dimensions() -> CriterionResult:
    """Marker-0 base-3 dimension and the two-word base-3 dimension hit
    their closed forms within 1e-9, each in under 0.1 s."""
    t0 = time.perf_counter()
    want_main = math.log((math.sqrt(5) + 1) / 2) / math.log(3)
    want_pair = math.log(2) / (3 * math.log(3))
    t1 = time.perf_counter()
    got_main = dim_S(3, 0).alpha
    dt_main = time.perf_counter() - t1
    t1 = time.perf_counter()
    got_pair = dim_alphabet(sprime3_alphabet()).alpha
    dt_pair = time.perf_counter() - t1
    ok = (
        abs(got_main - want_main) <= 1e-9
        and abs(got_pair - want_pair) <= 1e-9
        and dt_main < 0.1
        and dt_pair < 0.1
    )
    return _result(
        "closed-form-dimensions",
        ok,
        f"{got_main:.12f}, {got_pair:.12f}",
        f"{want_main:.12f}, {want_pair:.12f}",
        "1e-9; <0.1s each",
        t0,
    )


def check_moran_edge_cases() -> CriterionResult:
    """Single-word alphabets give alpha = 0 exactly; all one-digit words
    of a base give alpha = 1 within 1e-12."""
    t0 = time.perf_counter()
    failures = []
    for s, word in [(3, "1"), (4, "02"), (5, "1302"), (7, "0000061")]:
        a = ComboAlphabet(s, (tuple(int(ch) for ch in word),))
        r = dim_alphabet(a)
        if r.alpha != 0.0:
            failures.append(f"single word {word} base {s}: alpha {r.alpha}")
    for s in range(3, 7):
        a = ComboAlphabet(s, tuple((d,) for d in range(s)))
        r = dim_alphabet(a)
        if abs(r.alpha - 1.0) > 1e-12:
            failures.append(f"all {s} one-digit words: alpha {r.alpha}")
    return _result(
        "moran-edge-cases",
        not failures,
        failures[0] if failures else "alpha = 0 and alpha = 1 on the nose",
        "alpha = 0 exact; alpha = 1 within 1e-12",
        "exact / 1e-12",
        t0,
    )


def check_cylinder_identities(seed: int = 0) -> CriterionResult:
    """1000 random (s, u, base): diameter identity, child/parent ratio,
    and endpoint agreement with depth-10 partial-value bounds.

    The partial values of every exactly-10-block extension bracket the
    true endpoints to within s**-(C+10), C the base's digit count: each
    finite extension sits within that distance of the members extending
    it, and the extremal member's own depth-10 prefix is enumerated.
    """
    t0 = time.perf_counter()
    rng = random.Random(seed)
    depth = 10
    failures = []
    for trial in range(1000):
        s = rng.randint(3, 8)
        u = rng.randint(0, s - 1)
        alphabet = block_alphabet(s, u)
        base = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))
        cyl = cylinder(s, u, base)
        d = cylinder_diameter(s, u, base)
        if d != cyl.sup - cyl.inf:
            failures.append(f"{trial}: diameter mismatch at {(s, u, base)}")
            continue
        c_next = rng.choice(alphabet)
        child = cylinder(s, u, base + (c_next,))
        if child.sup - child.inf != d * Fraction(1, s**c_next):
            failures.append(f"{trial}: child ratio broken at {(s, u, base, c_next)}")
            continue
        lo10, hi10 = extension_value_bounds(s, u, base, depth)
        slack = Fraction(1, s ** (sum(base) + depth))
        if not (abs(cyl.inf - lo10) <= slack and abs(cyl.sup - hi10) <= slack):
            failures.append(f"{trial}: endpoint bracket broken at {(s, u, base)}")
    return _result(
        "cylinder-identities",
        not failures and time.perf_counter() - t0 < 60,
        failures[0] if failures else "1000/1000 exact",
        "zero failures in under 60s",
        "exact rational / s**-(C+10)",
        t0,
    )


def check_ordering_and_gaps() -> CriterionResult:
    """All adjacent sibling pairs at ranks <= 3 for s in 3..8, every u:
    exact separation matching the marker regime; and every marker-0 gap
    at those ranks contains no member value from the depth-12 digit
    cylinders and, where they refine the gap's children, overlaps none
    of their hulls."""
    t0 = time.perf_counter()
    failures = []
    orders = 0
    gaps_checked = 0
    for s in range(3, 9):
        for u in range(s):
            alphabet = block_alphabet(s, u)
            bases = [b for r in range(4) for b in product(alphabet, repeat=r)]
            for base in bases:
                for p in alphabet:
                    if p + 1 not in alphabet:
                        continue
                    try:
                        cylinder_order(s, u, base, p)  # raises on any regime break
                        orders += 1
                    except Exception as e:  # noqa: BLE001 - report, not crash
                        failures.append(f"order s={s} u={u} base={base} p={p}: {e}")
        # The depth-12 digit cylinders in digit order, as integers over
        # one denominator den: their endpoints come out sorted, and the
        # bisections compare ints, not `Fraction`s.
        paths, ext = _digit_cylinders(induced_alphabet(s, 0), 12)
        q = ext[0][0]
        den = q * s**12
        scaled = [(t * q + ext[i][1], t * q + ext[i][2]) for t, i in paths]
        hull_infs = [lo for lo, _ in scaled]
        # Hull endpoints are attained by eventually periodic continuations,
        # so they are genuine member values reached at depth 12.
        values = [e for h in scaled for e in h]
        bases0 = [
            b for r in range(4) for b in product(range(1, s), repeat=r)
        ]
        for base in bases0:
            for p in range(1, s - 1):
                gap = gap_interval(s, base, p)
                gaps_checked += 1
                # v / den > a / b exactly when v > a * den // b, and
                # v / den >= c / d exactly when v >= ceil(c * den / d)
                a, b = gap.lower.numerator, gap.lower.denominator
                c, d = gap.upper.numerator, gap.upper.denominator
                i = bisect_right(values, a * den // b)
                if i < len(values) and values[i] * d < c * den:
                    failures.append(
                        f"gap s={s} base={base} p={p} contains member value "
                        f"{Fraction(values[i], den)}"
                    )
                if sum(base) + p > 12:
                    # a 12-digit cylinder within base 0^(p-1), the common
                    # prefix of children p and p+1, may contain this gap;
                    # only the member-value check applies
                    continue
                j = bisect_left(hull_infs, -(-c * den // d)) - 1
                if j >= 0 and scaled[j][1] * b > a * den:
                    hull = tuple(Fraction(e, den) for e in scaled[j])
                    failures.append(
                        f"gap s={s} base={base} p={p} overlaps hull {hull}"
                    )
    return _result(
        "ordering-and-gaps",
        not failures,
        failures[0] if failures else f"{orders} orders, {gaps_checked} gaps clean",
        "zero failures",
        "exact rational",
        t0,
    )


def check_measure_recursion() -> CriterionResult:
    """Stages for s in {3,4}, u=0, k <= 8: direct interval sums equal
    sigma**k * d0 exactly; the base-3 stage-8 length is below 1e-3."""
    t0 = time.perf_counter()
    failures = []
    for s in (3, 4):
        lo0, hi0 = set_extrema(s, 0)
        d0 = hi0 - lo0
        r = sigma(s, 0)
        for k in range(1, 9):
            stage = cover_stage(s, 0, k)
            if stage.total_length != r**k * d0:
                failures.append(f"s={s} k={k}: stage length mismatch")
    e8 = cover_stage(3, 0, 8).total_length
    want = Fraction(4, 9) ** 8 * Fraction(1, 4)
    if e8 != want:
        failures.append(f"stage-8 length {e8} != (4/9)^8/4")
    if not e8 < Fraction(1, 1000):
        failures.append(f"stage-8 length {e8} not below 1e-3")
    ok = not failures and time.perf_counter() - t0 < 30
    return _result(
        "measure-recursion",
        ok,
        failures[0] if failures else f"all stages exact; stage-8 = {float(e8):.3e}",
        "exact equality; < 1e-3 at k=8; under 30s",
        "exact rational",
        t0,
    )


def check_extrema_cross() -> CriterionResult:
    """Whole-set extrema from the closed formulas equal the word-
    alphabet extrema of the induced alphabet for all s in 3..8, all u,
    and sit within s**-10 of the depth-10 partial-value bounds."""
    t0 = time.perf_counter()
    failures = []
    for s in range(3, 9):
        for u in range(s):
            lo, hi = set_extrema(s, u)
            ext = comboset_extrema(induced_alphabet(s, u))
            if (ext.inf, ext.sup) != (lo, hi):
                failures.append(
                    f"s={s} u={u}: formulas ({lo},{hi}) vs alphabet "
                    f"({ext.inf},{ext.sup})"
                )
                continue
            lo10, hi10 = extension_value_bounds(s, u, (), 10)
            slack = Fraction(1, s**10)
            if not (abs(lo - lo10) <= slack and abs(hi - hi10) <= slack):
                failures.append(f"s={s} u={u}: depth-10 bracket broken")
    return _result(
        "extrema-cross-check",
        not failures,
        failures[0] if failures else "33 (s,u) pairs agree exactly",
        "exact equality + s**-10 bracket",
        "exact / s**-10",
        t0,
    )


def check_box_count_oracle() -> CriterionResult:
    """Box-count slopes at depth 12, scales s**-4..s**-10, land within
    0.05 of the equation roots for the three reference sets."""
    t0 = time.perf_counter()
    cases = [
        ("marker-0 base 3", induced_alphabet(3, 0), dim_S(3, 0).alpha),
        ("marker-0 base 4", induced_alphabet(4, 0), dim_S(4, 0).alpha),
        ("pooled base 3", tilde_alphabet(3), dim_tilde(3).alpha),
    ]
    failures = []
    report = []
    for label, alphabet, target in cases:
        t1 = time.perf_counter()
        r = box_count_for_alphabet(alphabet, 12, list(range(4, 11)))
        dt = time.perf_counter() - t1
        report.append(f"{label}: slope {r.slope:.4f} vs {target:.4f}")
        if abs(r.slope - target) > 0.05:
            failures.append(
                f"{label}: slope {r.slope:.4f} off target {target:.4f}"
            )
        if dt >= 10:
            failures.append(f"{label}: took {dt:.1f}s (budget 10s)")
    return _result(
        "box-count-oracle",
        not failures,
        failures[0] if failures else "; ".join(report),
        "|slope - root| <= 0.05, under 10s per set",
        "0.05",
        t0,
    )


def check_normality_dichotomy(seed: int = 0) -> CriterionResult:
    """Forced zero-frequency equals 1/s only at s=3; a 30000-digit
    two-word stream is digit-balanced within 0.01 with zero residual at
    every block boundary."""
    t0 = time.perf_counter()
    failures = []
    if structural_zero_frequency(3) != Fraction(1, 3):
        failures.append("s=3 forced frequency is not 1/3")
    for s in range(4, 11):
        v = normal_candidate_exists(s)
        if structural_zero_frequency(s) == Fraction(1, s) or v.exists:
            failures.append(f"s={s} wrongly admits balanced members")
    _, choices = _sampler(random.Random(seed))
    words = [(0, 2, 1), (1, 0, 2)]
    stream: list[int] = []
    for word in choices(words, 10000):
        stream.extend(word)
    d = DigitString(3, tuple(stream))
    prof = digit_frequencies(d, 30000)
    for i, f in enumerate(prof.freqs):
        if abs(f - Fraction(1, 3)) > Fraction(1, 100):
            failures.append(f"digit {i} frequency {float(f):.4f} off 1/3")
    # incremental residual check at every block boundary, one pass;
    # for u=0 any nonzero digit closes a block
    counts = [0, 0, 0]
    boundaries = 0
    for pos, dig in enumerate(stream, start=1):
        counts[dig] += 1
        if dig != 0:
            residual = counts[0] - counts[2]  # (c-1)N_c has only the c=2 term
            if residual != 0:
                failures.append(f"nonzero residual {residual} at boundary {pos}")
                break
            boundaries += 1
    for pos in (3, 300, 29998 if stream[29997] != 0 else 29997):
        rep = structural_identity_residual(d, 0, pos)
        if not rep.at_boundary or rep.residual != 0:
            failures.append(f"public residual check failed at {pos}: {rep}")
    return _result(
        "normality-dichotomy",
        not failures,
        failures[0] if failures else f"{boundaries} boundaries, residual 0",
        "s=3 balanced only; freq within 0.01; residual 0",
        "0.01 / exact",
        t0,
    )


def check_codec_bijection(seed: int = 0) -> CriterionResult:
    """Encode/decode roundtrip for 10000 random block sequences per
    (s, u), and distinct periodic streams map to distinct values."""
    t0 = time.perf_counter()
    rng = random.Random(seed)
    randint, choices = _sampler(rng)
    rand = rng.random
    failures = []
    roundtrips = 0
    pairs = 0
    for s in range(3, 9):
        for u in range(s):
            alphabet = block_alphabet(s, u)
            for _ in range(10000):
                blocks = choices(alphabet, randint(0, 6))
                tail = choices(alphabet, randint(1, 3)) if rand() < 0.5 else None
                b = BlockSequence(s, u, blocks, tail)
                back = block_decode(block_encode(b), u)
                if back != b:
                    failures.append(f"roundtrip broke: {b.to_json()} -> {back.to_json()}")
                    break
                roundtrips += 1

            def unroll(b: BlockSequence, n: int) -> tuple[int, ...]:
                out = list(b.blocks)
                while len(out) < n:
                    out.extend(b.tail)
                return tuple(out[:n])

            for _ in range(500):
                b1 = BlockSequence(
                    s, u, choices(alphabet, randint(0, 4)), choices(alphabet, randint(1, 3))
                )
                b2 = BlockSequence(
                    s, u, choices(alphabet, randint(0, 4)), choices(alphabet, randint(1, 3))
                )
                if unroll(b1, 24) == unroll(b2, 24):
                    continue  # same stream, same value: not an injectivity case
                pairs += 1
                if element_value(b1) == element_value(b2):
                    failures.append(
                        f"distinct streams share a value: {b1.to_json()} vs {b2.to_json()}"
                    )
                    break
    return _result(
        "codec-bijection",
        not failures,
        failures[0] if failures else f"{roundtrips} roundtrips, {pairs} distinct pairs",
        "identity roundtrip; injective on samples",
        "exact",
        t0,
    )


CRITERIA = (
    ("closed-form-dimensions", check_closed_form_dimensions),
    ("moran-edge-cases", check_moran_edge_cases),
    ("cylinder-identities", check_cylinder_identities),
    ("ordering-and-gaps", check_ordering_and_gaps),
    ("measure-recursion", check_measure_recursion),
    ("extrema-cross-check", check_extrema_cross),
    ("box-count-oracle", check_box_count_oracle),
    ("normality-dichotomy", check_normality_dichotomy),
    ("codec-bijection", check_codec_bijection),
)


def run_all(only: str | None = None, seed: int = 0) -> list[CriterionResult]:
    """Run the acceptance rows (name-filtered by substring when ``only``
    is given), in declaration order."""
    results = []
    for name, fn in CRITERIA:
        if only is not None and only not in name:
            continue
        try:
            results.append(fn(seed) if "seed" in fn.__code__.co_varnames else fn())
        except Exception as e:  # noqa: BLE001 - a crashed row is a failed row
            results.append(
                CriterionResult(name, False, f"exception: {e}", "clean run", "-", 0.0)
            )
    return results


def format_table(results: list[CriterionResult]) -> str:
    lines = [r.line() for r in results]
    passed = sum(r.passed for r in results)
    lines.append(f"{passed}/{len(results)} criteria passed")
    return "\n".join(lines)
