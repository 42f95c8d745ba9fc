"""Command-line front end.

Every subcommand validates its parameters into a `RunConfig`, runs the
corresponding library call, and emits one deterministic document (JSON
by default, CSV where tabular).  No state is kept between runs and no
timestamps enter the payloads, so identical inputs give byte-identical
outputs.

Exit codes: 0 success, 1 domain errors (bad parameters, malformed
files, pattern violations), 2 resource-budget refusals.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .acceptance import format_table, run_all
from .combos import (
    ComboAlphabet,
    induced_alphabet,
    sprime3_alphabet,
    tilde_alphabet,
)
from .cylinders import cylinder, gap_interval
from .dimension import (
    _check_exponent,
    _check_finest,
    box_count_for_alphabet,
    dim_S,
    dim_alphabet,
)
from .errors import ResourceBudgetError, SadicError
from .measure import cover_stage
from .normality import (
    digit_frequencies,
    normal_candidate_exists,
    structural_identity_residual,
)
from .sadic import (
    BlockSequence,
    DigitString,
    block_encode,
    digits_to_rational,
    rational_json,
)

_FORMATS = ("json", "csv", "table")


@dataclass(frozen=True)
class RunConfig:
    """Validated parameters of one invocation."""

    subcommand: str
    s: int | None = None
    u: int | None = None
    alphabet: str | None = None
    base: tuple[int, ...] = ()
    blocks: tuple[int, ...] = ()
    tail: tuple[int, ...] | None = None
    p: int | None = None
    depth: int = 12
    k: int | None = None
    n: int = 12
    scales: tuple[int, ...] | range = tuple(range(4, 11))
    preperiod: tuple[int, ...] = ()
    period: tuple[int, ...] | None = None
    fmt: str = "json"
    output: str | None = None
    only: str | None = None
    seed: int = 0

    def __post_init__(self):
        if self.subcommand not in _COMMANDS:
            raise SadicError(f"unknown subcommand {self.subcommand!r}")
        if self.depth < 1:
            raise SadicError("depth must be >= 1")
        if self.fmt not in _FORMATS:
            raise SadicError(f"unknown output format {self.fmt!r}")


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        # A flag that is not given stays out of the namespace, so the
        # field defaults of RunConfig are the only defaults.
        super().__init__(argument_default=argparse.SUPPRESS, **kwargs)

    # argparse exits 2 on usage errors by default; 2 is reserved for
    # resource refusals here, so usage problems become exit 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _ascii_int(text: str) -> int:
    # int() also reads non-ASCII digits, "١٢" as 12
    if not text.isascii():
        raise ValueError(f"non-ASCII digits in {text!r}")
    return int(text)


def _parse_digits(text: str) -> tuple[int, ...]:
    # "021" for single-character digits, "0,2,1" for any base; each part
    # ASCII digits alone, as int() also reads "1_0", "+2" and " 2"
    stripped = text.strip()
    parts = stripped.split(",") if "," in stripped else list(stripped)
    if not all(part.isascii() and part.isdigit() for part in parts):
        raise argparse.ArgumentTypeError(
            f"expected digits like 021 or 0,2,1, got {text!r}"
        )
    return tuple(int(part) for part in parts)


def _parse_scales(text: str) -> tuple[int, ...] | range:
    # "4..10" for a span, kept a range until `_boxcount` checks its
    # ends; "4,6,8" for a list
    stripped = text.strip()
    try:
        if not stripped:
            return ()
        if ".." in stripped:
            lo, hi = stripped.split("..", 1)
            return range(_ascii_int(lo), _ascii_int(hi) + 1)
        return tuple(_ascii_int(part) for part in stripped.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected scales like 4..10 or 4,6,8, got {text!r}"
        ) from None


def _load_alphabet(source: str) -> ComboAlphabet:
    """Named builtin ("sprime3", "tilde:4") or a JSON alphabet file."""
    if source == "sprime3":
        return sprime3_alphabet()
    if source.startswith("tilde:"):
        try:
            s = int(source.split(":", 1)[1])
        except ValueError as e:
            raise SadicError(f"bad alphabet spec {source!r}: expected tilde:<s>") from e
        return tilde_alphabet(s)
    try:
        data = json.loads(Path(source).read_text())
    except OSError as e:
        raise SadicError(f"cannot read alphabet file {source!r}: {e}") from e
    except json.JSONDecodeError as e:
        raise SadicError(f"malformed alphabet file {source!r}: {e}") from e
    try:
        return ComboAlphabet.from_json(data)
    except (KeyError, TypeError, ValueError) as e:
        raise SadicError(f"bad alphabet structure in {source!r}: {e}") from e


def build_parser() -> _Parser:
    parser = _Parser(prog="sadicsets", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    def common(p, fmt_default="json"):
        p.add_argument("--format", dest="fmt", default=fmt_default, choices=_FORMATS)
        p.add_argument("--output", help="write here instead of stdout")

    p = sub.add_parser("dim", help="dimension-equation root")
    p.add_argument("--s", type=int)
    p.add_argument("--u", type=int)
    p.add_argument("--alphabet", help="JSON file, 'sprime3', or 'tilde:<s>'")
    common(p)

    p = sub.add_parser("cylinder", help="exact hull of a block prefix")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--base", type=_parse_digits, help="comma-separated blocks, e.g. 1,2")
    common(p)

    p = sub.add_parser("gaps", help="open gap between adjacent marker-0 children")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--base", type=_parse_digits)
    p.add_argument("--p", type=int, required=True)
    common(p)

    p = sub.add_parser("generate", help="emit element digits from a block spec")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--blocks", type=_parse_digits)
    p.add_argument("--tail", type=_parse_digits)
    p.add_argument("--n", type=int, help="digits to emit")
    common(p)

    p = sub.add_parser("boxcount", help="box-counting slope of a set")
    p.add_argument("--s", type=int)
    p.add_argument("--u", type=int)
    p.add_argument("--alphabet")
    p.add_argument("--depth", type=int)
    p.add_argument("--scales", type=_parse_scales, help="'4..10' or '4,6,8'")
    common(p)

    p = sub.add_parser("measure", help="stage lengths of the covering recursion")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--k", type=int, required=True, help="largest stage rank")
    common(p, fmt_default="csv")

    p = sub.add_parser("freq", help="digit frequencies of a digit stream")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--u", type=int)
    p.add_argument("--preperiod", type=_parse_digits)
    p.add_argument("--period", type=_parse_digits)
    p.add_argument("--k", type=int, required=True)
    common(p)

    p = sub.add_parser("normal", help="digit-balance verdict for a base")
    p.add_argument("--s", type=int, required=True)
    common(p)

    p = sub.add_parser("reproduce", help="run the acceptance criteria")
    p.add_argument("--only", help="substring filter on row names")
    p.add_argument("--seed", type=int)
    common(p, fmt_default="table")

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """The flags given, as a RunConfig; the flags left out take its defaults."""
    return RunConfig(**vars(args))


# Each handler returns the command's params and body, plus its CSV or
# table text when the format asks for one instead of JSON.
_Result = tuple[dict, dict, str | None]


def _need_su(config: RunConfig) -> tuple[int, int]:
    if config.s is None or config.u is None:
        raise SadicError(f"{config.subcommand} needs --s and --u")
    return config.s, config.u


def _dim(config: RunConfig) -> _Result:
    if config.alphabet is not None:
        a = _load_alphabet(config.alphabet)
        r = dim_alphabet(a)
        body = {
            "s": a.s,
            "m": a.m,
            "length_counts": {str(k): v for k, v in a.length_counts.items()},
            "prefix_free": a.is_prefix_free(),
            **r.to_json(),
        }
        return {"alphabet": config.alphabet}, body, None
    s, u = _need_su(config)
    return {"s": s, "u": u}, dim_S(s, u).to_json(), None


def _cylinder(config: RunConfig) -> _Result:
    s, u = _need_su(config)
    params = {"s": s, "u": u, "base": list(config.base)}
    return params, cylinder(s, u, config.base).to_json(), None


def _gaps(config: RunConfig) -> _Result:
    if config.s is None or config.p is None:
        raise SadicError("gaps needs --s and --p")
    gap = gap_interval(config.s, config.base, config.p)
    return {"s": config.s, "base": list(config.base), "p": config.p}, gap.to_json(), None


def _generate(config: RunConfig) -> _Result:
    s, u = _need_su(config)
    d = block_encode(BlockSequence(s, u, config.blocks, config.tail))
    n = config.n if d.period is not None else min(config.n, len(d.preperiod))
    params = {"s": s, "u": u, "blocks": list(config.blocks),
              "tail": list(config.tail) if config.tail is not None else None,
              "n": config.n}
    body = {
        "digits": list(d.digits(n)),
        "digit_string": d.to_json(),
        "value": rational_json(digits_to_rational(d)),
        "is_member_value": d.period is not None,
    }
    return params, body, None


def _boxcount(config: RunConfig) -> _Result:
    if config.alphabet is not None:
        a = _load_alphabet(config.alphabet)
        params = {"alphabet": config.alphabet}
    else:
        s, u = _need_su(config)
        a = induced_alphabet(s, u)
        params = {"s": s, "u": u}
    scales = config.scales
    if isinstance(scales, range) and scales:
        # a span is checked at its ends before it is listed
        _check_exponent(scales[0])
        _check_finest(a.s, scales[-1])
    params.update({"depth": config.depth, "scales": list(scales)})
    r = box_count_for_alphabet(a, config.depth, list(scales))
    body = {"alpha_equation": dim_alphabet(a).alpha, **r.to_json()}
    if config.fmt != "csv":
        return params, body, None
    csv = ["eps_num,eps_den,eps_approx,boxes"]
    for eps, nbox in r.counts:
        csv.append(f"{eps.numerator},{eps.denominator},{float(eps)!r},{nbox}")
    csv.append(f"# slope,{r.slope!r}")
    return params, body, "\n".join(csv)


def _measure(config: RunConfig) -> _Result:
    s, u = _need_su(config)
    if config.k is None or config.k < 1:
        raise SadicError("measure needs --k >= 1")
    # The stage budget grows with k, so stage k goes first: a refusal
    # comes before any stage is built, and names stage k.
    last = cover_stage(s, u, config.k)
    stages = [cover_stage(s, u, k) for k in range(1, config.k)] + [last]
    params = {"s": s, "u": u, "k": config.k}
    body = {
        "stages": [
            {
                "k": st.k,
                "count": len(st.intervals),
                "total_length": rational_json(st.total_length),
            }
            for st in stages
        ]
    }
    if config.fmt != "csv":
        return params, body, None
    csv = ["k,num,den,approx"]
    for st in stages:
        t = st.total_length
        csv.append(f"{st.k},{t.numerator},{t.denominator},{float(t)!r}")
    return params, body, "\n".join(csv)


def _freq(config: RunConfig) -> _Result:
    if config.s is None or config.k is None:
        raise SadicError("freq needs --s and --k")
    d = DigitString(config.s, config.preperiod, config.period)
    body = {"profile": digit_frequencies(d, config.k).to_json()}
    if config.u is not None:
        body["residual"] = structural_identity_residual(d, config.u, config.k).to_json()
    params = {"s": config.s, "u": config.u, "k": config.k,
              "preperiod": list(config.preperiod),
              "period": list(config.period) if config.period else None}
    return params, body, None


def _normal(config: RunConfig) -> _Result:
    if config.s is None:
        raise SadicError("normal needs --s")
    return {"s": config.s}, normal_candidate_exists(config.s).to_json(), None


def _reproduce(config: RunConfig) -> _Result:
    results = run_all(only=config.only, seed=config.seed)
    if not results:
        raise SadicError(f"no acceptance row matches {config.only!r}")
    body = {
        "results": [r.to_json() for r in results],
        "passed": all(r.passed for r in results),
    }
    table = None if config.fmt == "json" else format_table(results)
    return {"only": config.only, "seed": config.seed}, body, table


_COMMANDS = {
    "dim": _dim,
    "cylinder": _cylinder,
    "gaps": _gaps,
    "generate": _generate,
    "boxcount": _boxcount,
    "measure": _measure,
    "freq": _freq,
    "normal": _normal,
    "reproduce": _reproduce,
}


def dispatch(config: RunConfig) -> tuple[int, str]:
    """Run one validated invocation; returns (exit code, document)."""
    params, body, text = _COMMANDS[config.subcommand](config)
    # A failed acceptance row exits 1.
    code = 1 if config.subcommand == "reproduce" and not body["passed"] else 0
    if text is None:
        doc = {"version": __version__, "command": config.subcommand, "params": params, **body}
        text = json.dumps(doc, sort_keys=True, indent=2)
    return code, text


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse help/version exit 0; usage errors already exit 1
        return e.code if isinstance(e.code, int) else 1
    try:
        config = config_from_args(args)
        code, text = dispatch(config)
        if config.output:
            Path(config.output).write_text(text + "\n")
        else:
            print(text)
    except ResourceBudgetError as e:
        print(f"resource budget exceeded: {e}", file=sys.stderr)
        return 2
    except SadicError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
