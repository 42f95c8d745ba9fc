"""Workload inputs, one timed pass over them, and the output checks.

Three workloads, each a fixed list of operations drawn from the seed:

* ``reproduce`` -- one in-process ``run_all(seed=...)`` over all nine
  acceptance rows: what a reader of the paper runs; the block codec
  does most of the work.
* ``enumerate`` -- bulk exact geometry with no codec work: covering
  stages and box counts over deep prefix frontiers.  The seed permutes
  the job order.
* ``queries`` -- a closed loop with one client sending small queries
  (500 a pass, several passes a run), each through ``cli.dispatch(RunConfig(...))`` or one library
  call.  Hulls are built one at a time with large denominators, and the
  deep ``point_locate`` calls set the tail latency.

The query mix is stratified: every pass holds the same number of
queries of each kind and cycles the bases evenly, so the seed changes
the parameters but not the amount of work.

The checks recompute what they can without the library (digit words,
stage lengths ``sigma**k * d0``, Moran roots, expected locate chains)
and run on the first pass; later passes must reproduce the first
pass's canonical outputs exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter, process_time

WORKLOADS = ("reproduce", "enumerate", "queries")
SIZES = ("full", "tiny")

# (kind, queries of that kind per pass) for the full query mix: 500
# queries, 1 in 20 a `point_locate` (9 at each depth).
# The tiny mix divides every count by 10.
QUERY_MIX = (
    ("cylinder", 135),
    ("gaps", 65),
    ("generate", 65),
    ("dim", 30),
    ("dim-alphabet", 15),
    ("dim-words", 10),
    ("freq", 50),
    ("decode", 75),
    ("measure", 12),
    ("normal", 5),
    ("locate", 27),
    ("invalid", 11),
)
LOCATE_DEPTHS = (10, 50, 200)
BRACKET_EVERY = 10  # every 10th cylinder query is checked by the DP oracle

STAGE_JOBS = {
    "full": [(3, k) for k in range(1, 13)] + [(4, k) for k in range(1, 9)] + [(5, 6), (6, 5)],
    "tiny": [(3, k) for k in range(1, 5)],
}
# (label, base, digit depth); words come from `marker_words` or `tilde_words`.
BOX_JOBS = {
    "full": [("induced:3", 3, 16), ("induced:4", 4, 16), ("tilde:3", 3, 16), ("tilde:4", 4, 12)],
    "tiny": [("induced:3", 3, 10)],
}
SLOPE_TOL = 0.05


# -- independent arithmetic used by the checks -------------------------


def marker_words(s: int, u: int) -> list[tuple[int, ...]]:
    """Digit words u^(c-1) c of the usable block values c."""
    return [(u,) * (c - 1) + (c,) for c in range(1, s) if c != u]


def tilde_words(s: int) -> list[tuple[int, ...]]:
    words: list[tuple[int, ...]] = []
    for c in range(1, s):
        for u in range(s):
            w = (u,) * (c - 1) + (c,)
            if u != c and w not in words:
                words.append(w)
    return words


def word_int(w, s: int) -> int:
    acc = 0
    for d in w:
        acc = acc * s + d
    return acc


def digits_value(s: int, pre, per) -> Fraction:
    val = Fraction(word_int(pre, s), s ** len(pre))
    if per:
        val += Fraction(word_int(per, s), s ** len(pre) * (s ** len(per) - 1))
    return val


def set_hull(s: int, words) -> tuple[Fraction, Fraction]:
    """Whole-set extrema: the least and greatest word repeated forever."""
    vals = [Fraction(word_int(w, s), s ** len(w) - 1) for w in words]
    return min(vals), max(vals)


def moran_root(s: int, lengths) -> float:
    """Root alpha of sum over words of s**(-len * alpha) = 1, by float
    bisection (the benchmark's own, independent of the library)."""
    if len(lengths) == 1:
        return 0.0

    def f(a):
        return sum(s ** (-n * a) for n in lengths) - 1.0

    lo, hi = 0.0, 1.0
    while f(hi) > 0:
        lo, hi = hi, 2 * hi
    for _ in range(100):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if f(mid) > 0 else (lo, mid)
    return (lo + hi) / 2


def encode(blocks, u: int) -> tuple[int, ...]:
    out: list[int] = []
    for c in blocks:
        out.extend((u,) * (c - 1) + (c,))
    return tuple(out)


def canonical(value) -> object:
    """Exact content of an output: floats and the version field dropped,
    so the digest pins the exact rationals, counts and digits."""
    if isinstance(value, dict):
        return {k: canonical(v) for k, v in value.items() if k != "version" and not isinstance(v, float)}
    if isinstance(value, list):
        return [canonical(v) for v in value if not isinstance(v, float)]
    return value


def _rat(obj) -> Fraction:
    return Fraction(int(obj["num"]), int(obj["den"]))


# -- operations --------------------------------------------------------


@dataclass
class Op:
    """One request: ``kind`` names it, ``target`` is ``(module, function)``
    looked up at call time (so traced runs see the patched names) and
    ``args`` are its arguments; ``expect`` feeds the check."""

    kind: str
    target: tuple[str, str]
    args: tuple
    expect: object = None


@dataclass
class Pass:
    """Times of one pass (summed over its ops), the latency of each
    request, the hash of each canonical output, and failed checks."""

    wall_s: float
    cpu_s: float
    labels: list[str]
    latencies_s: list[float]
    outputs: list[str]
    failures: list[str]

    @property
    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.outputs).encode()).hexdigest()


def _blocks(rng: random.Random, s: int, u: int, n: int) -> tuple[int, ...]:
    alphabet = [c for c in range(1, s) if c != u]
    return tuple(rng.choice(alphabet) for _ in range(n))


def _cli(subcommand: str, **params) -> tuple[tuple[str, str], tuple]:
    return ("cli", "dispatch"), (dict(subcommand=subcommand, **params),)


def _query(kind: str, i: int, rng: random.Random, api) -> Op:
    s = 3 + i % 6
    u = rng.randrange(s)
    if kind == "cylinder":
        base = _blocks(rng, s, u, rng.randint(0, 40))
        return Op(kind, *_cli("cylinder", s=s, u=u, base=base), expect=(s, u, base, i % BRACKET_EVERY == 0))
    if kind == "gaps":
        base = _blocks(rng, s, 0, rng.randint(0, 40))
        return Op(kind, *_cli("gaps", s=s, base=base, p=rng.randint(1, s - 2)))
    if kind == "generate":
        blocks = _blocks(rng, s, u, rng.randint(0, 40))
        tail = _blocks(rng, s, u, rng.randint(1, 4)) if rng.random() < 0.5 else None
        n = rng.randint(1, 60)
        return Op(kind, *_cli("generate", s=s, u=u, blocks=blocks, tail=tail, n=n), expect=(u, blocks, tail, n))
    if kind == "dim":
        return Op(kind, *_cli("dim", s=s, u=u), expect=moran_root(s, [len(w) for w in marker_words(s, u)]))
    if kind == "dim-alphabet":
        if i % 7 == 0:
            return Op(kind, *_cli("dim", alphabet="sprime3"), expect=moran_root(3, [3, 3]))
        return Op(kind, *_cli("dim", alphabet=f"tilde:{s}"), expect=moran_root(s, [len(w) for w in tilde_words(s)]))
    if kind == "dim-words":
        words = sorted({tuple(rng.randrange(s) for _ in range(rng.randint(1, 4))) for _ in range(rng.randint(2, 5))})
        alphabet = api.ComboAlphabet(s, tuple(words))
        return Op(kind, ("dimension", "dim_alphabet"), (alphabet,), expect=moran_root(s, [len(w) for w in words]))
    if kind == "freq":
        pre = encode(_blocks(rng, s, u, rng.randint(0, 20)), u)
        per = encode(_blocks(rng, s, u, rng.randint(1, 5)), u)
        k = rng.randint(100, 3000)
        return Op(kind, *_cli("freq", s=s, u=u, preperiod=pre, period=per, k=k), expect=(u, pre, per, k))
    if kind == "decode":
        blocks = _blocks(rng, s, u, rng.randint(100, 1000))
        tail = _blocks(rng, s, u, rng.randint(1, 4)) if rng.random() < 0.5 else None
        stream = api.DigitString(s, encode(blocks, u), encode(tail, u) if tail else None)
        return Op(kind, ("sadic", "block_decode"), (stream, u), expect=(blocks, tail))
    if kind == "measure":
        s = 3 + i % 2
        k = rng.randint(1, 4)
        return Op(kind, *_cli("measure", s=s, u=u % s, k=k, fmt="json"), expect=(s, u % s))
    if kind == "normal":
        s = 3 + i % 8
        return Op(kind, *_cli("normal", s=s), expect=s == 3)
    if kind == "locate":
        # Marker 0 and a period holding every block once, so the descent
        # cost depends on (s, depth) and hardly on the draw.  All depth-200
        # descents share s = 4, so a pass's p99 is the middle one of nine
        # alike queries rather than the edge between two bases.
        depth = LOCATE_DEPTHS[i % 3]
        s = 4 if depth == 200 else 3 + (i // 3) % 3
        pre = _blocks(rng, s, 0, rng.randint(0, 5))
        tail = tuple(rng.sample(range(1, s), s - 1))
        x = digits_value(s, encode(pre, 0), encode(tail, 0))
        chain = (pre + tail * (depth // len(tail) + 1))[:depth]
        return Op(kind, ("cylinders", "point_locate"), (x, s, 0, depth), expect=chain)
    if kind == "invalid":
        return _invalid(i % 7, rng, api)
    raise ValueError(f"unknown query kind {kind!r}")


def _invalid(variant: int, rng: random.Random, api) -> Op:
    """Queries whose correct outcome is a `SadicError`."""
    s = rng.randint(4, 8)
    u = rng.randint(1, s - 2)
    if variant == 0:  # a base entry equal to the marker
        return Op("invalid", *_cli("cylinder", s=s, u=u, base=(u,)))
    if variant == 1:  # gap label out of range
        return Op("invalid", *_cli("gaps", s=s, base=(), p=s - 1))
    if variant == 2:  # a block equal to the marker
        return Op("invalid", *_cli("generate", s=s, u=u, blocks=(u,), n=5))
    if variant == 3:  # a marker run longer than any block allows
        stream = api.DigitString(s, (0,) * s)
        return Op("invalid", ("sadic", "block_decode"), (stream, 0))
    if variant == 4:  # a digit out of range for the base
        return Op("invalid", *_cli("freq", s=s, preperiod=(s,), k=1))
    if variant == 5:  # base below 3
        return Op("invalid", *_cli("dim", s=2, u=0))
    return Op("invalid", *_cli("cylinder", s=s, u=u, depth=0))  # depth below 1


def make_ops(workload: str, seed: int, size: str, api) -> list[Op]:
    """The operations of one pass, drawn from ``seed``."""
    rng = random.Random(seed)
    if workload == "reproduce":
        only = None if size == "full" else "closed-form"
        return [Op("run_all", ("acceptance", "run_all"), (only, seed), expect=1 if only else 9)]
    if workload == "enumerate":
        ops = [
            Op("stage", ("measure", "cover_stage"), (s, 0, k), expect=(s, k))
            for s, k in STAGE_JOBS[size]
        ]
        for label, s, depth in BOX_JOBS[size]:
            words = marker_words(s, 0) if label.startswith("induced") else tilde_words(s)
            scales = list(range(4, depth - max(map(len, words)) + 1))
            alphabet = api.ComboAlphabet(s, tuple(words))
            ops.append(
                Op("box", ("dimension", "box_count_for_alphabet"), (alphabet, depth, scales),
                   expect=moran_root(s, [len(w) for w in words]))
            )
        rng.shuffle(ops)
        return ops
    ops = []
    for kind, count in QUERY_MIX:
        n = count if size == "full" else max(1, count // 10)
        ops.extend(_query(kind, i, rng, api) for i in range(n))
    rng.shuffle(ops)
    return ops


# -- running -----------------------------------------------------------


def _call(op: Op, api):
    module, name = op.target
    fn = getattr(getattr(api, module), name)
    if module == "cli":
        return fn(api.cli.RunConfig(**op.args[0]))
    return fn(*op.args)


def _render(result) -> str:
    if isinstance(result, BaseException):
        return type(result).__name__
    if isinstance(result, tuple):  # (exit code, document) from cli.dispatch
        code, text = result
        return json.dumps([code, canonical(json.loads(text))], sort_keys=True)
    if isinstance(result, list):  # acceptance rows; "detail" may carry timings
        return json.dumps([{**r.to_json(), "detail": None} for r in result], sort_keys=True)
    return json.dumps(canonical(result.to_json()), sort_keys=True)


def run_pass(ops: list[Op], api, tracer=None, check: bool = False) -> Pass:
    """Run every op once.  Only the op itself is timed; its result is
    hashed (and checked, with ``check``) and dropped before the next op,
    so no op runs with earlier results still alive."""
    p = Pass(0.0, 0.0, [], [], [], [])
    for op in ops:
        c0 = process_time()
        t0 = perf_counter()
        try:
            if tracer is None:
                result = _call(op, api)
            else:
                result = tracer.root(op.kind, _call, op, api)
        except Exception as e:  # noqa: BLE001 - recorded and checked per op
            result = e
        latency = perf_counter() - t0
        p.cpu_s += process_time() - c0
        p.wall_s += latency
        if op.kind == "run_all" and isinstance(result, list):
            # a reproduce pass is one call; its latencies are the rows' own
            p.labels += [r.name for r in result]
            p.latencies_s += [r.runtime_s for r in result]
        else:
            p.labels.append(op.kind)
            p.latencies_s.append(latency)
        p.outputs.append(hashlib.sha256(_render(result).encode()).hexdigest())
        if check:
            try:
                problem = _check(op, result, api)
            except Exception as e:  # noqa: BLE001 - a malformed output is a failure
                problem = f"check raised {type(e).__name__}: {e}"
            if problem:
                p.failures.append(f"{op.kind} {op.args!r:.120}: {problem}")
        del result
    return p


# -- checks ------------------------------------------------------------


def _check(op: Op, result, api) -> str | None:
    if op.kind == "invalid":
        if isinstance(result, api.SadicError):
            return None
        return f"expected SadicError, got {type(result).__name__}"
    if isinstance(result, BaseException):
        return f"raised {type(result).__name__}: {result}"
    if op.target[0] == "cli":
        code, text = result
        if code != 0:
            return f"exit code {code}"
        return _check_doc(op, json.loads(text), api)
    kind = op.kind
    if kind == "run_all":
        bad = [r.name for r in result if not r.passed]
        if len(result) != op.expect or bad:
            return f"{len(result)} rows, failed: {bad}"
    elif kind == "stage":
        s, k = op.expect
        words = marker_words(s, 0)
        lo, hi = set_hull(s, words)
        sigma = sum(Fraction(1, s ** len(w)) for w in words)
        iv = result.intervals
        if len(iv) != len(words) ** k:
            return f"{len(iv)} hulls, expected {len(words) ** k}"
        if any(a[1] >= b[0] for a, b in zip(iv, iv[1:])):
            return "hulls not sorted and disjoint"
        want = sigma**k * (hi - lo)
        if result.total_length != want or sum(b - a for a, b in iv) != want:
            return "stage length differs from sigma**k * d0"
    elif kind == "box":
        if abs(result.slope - op.expect) > SLOPE_TOL:
            return f"slope {result.slope:.4f} vs root {op.expect:.4f}"
    elif kind == "dim-words":
        if abs(result.alpha - op.expect) > 1e-9:
            return f"alpha {result.alpha} vs root {op.expect}"
    elif kind == "decode":
        blocks, tail = op.expect
        if result.blocks != blocks or result.tail != tail:
            return "decoded blocks differ from the encoded ones"
    elif kind == "locate":
        if result.status == "excluded" or result.chain != op.expect:
            return f"member located as {result.status} via {result.chain}"
    return None


def _check_doc(op: Op, doc: dict, api) -> str | None:
    kind = op.kind
    if kind == "cylinder":
        s, u, base, bracket = op.expect
        lo, hi = _rat(doc["inf"]), _rat(doc["sup"])
        words = marker_words(s, u)
        lo0, hi0 = set_hull(s, words)
        if hi - lo != (hi0 - lo0) / s ** sum(base):
            return "hull width is not d0 * s**-C"
        if bracket:
            lo10, hi10 = api.cylinders.extension_value_bounds(s, u, base, 10)
            slack = Fraction(1, s ** (sum(base) + 10))
            if abs(lo - lo10) > slack or abs(hi - hi10) > slack:
                return "hull outside the extension_value_bounds bracket"
    elif kind == "gaps":
        if not _rat(doc["lower"]) < _rat(doc["upper"]):
            return "empty gap"
    elif kind == "generate":
        u, blocks, tail, n = op.expect
        digits = encode(blocks, u)
        if tail:
            period = encode(tail, u)
            digits += period * (n // len(period) + 1)
        if doc["digits"] != list(digits[:n]):
            return "digits differ from the block words"
    elif kind in ("dim", "dim-alphabet"):
        if abs(doc["alpha"] - op.expect) > 1e-9:
            return f"alpha {doc['alpha']} vs root {op.expect}"
    elif kind == "freq":
        u, pre, per, k = op.expect
        stream = (pre + per * (k // len(per) + 1))[:k]
        counts = [stream.count(d) for d in range(len(doc["profile"]["counts"]))]
        run = 0
        for d in stream:
            run = run + 1 if d == u else 0
        if doc["profile"]["counts"] != counts or doc["residual"]["residual"] != run:
            return "digit counts or residual differ"
    elif kind == "measure":
        s, u = op.expect
        words = marker_words(s, u)
        lo0, hi0 = set_hull(s, words)
        sigma = sum(Fraction(1, s ** len(w)) for w in words)
        for st in doc["stages"]:
            if _rat(st["total_length"]) != sigma ** st["k"] * (hi0 - lo0):
                return f"stage {st['k']} length differs from sigma**k * d0"
    elif kind == "normal":
        if doc["exists"] != op.expect:
            return f"exists={doc['exists']}"
    return None


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 1]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
