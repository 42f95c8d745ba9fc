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
import math
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
from .dimension import box_count_for_alphabet, dim_S, dim_alphabet
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

SUBCOMMANDS = (
    "dim",
    "cylinder",
    "gaps",
    "generate",
    "boxcount",
    "measure",
    "freq",
    "normal",
    "reproduce",
)


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
    scales: tuple[int, ...] = ()
    preperiod: tuple[int, ...] = ()
    period: tuple[int, ...] | None = None
    tol: float = 1e-12
    fmt: str = "json"
    output: str | None = None
    only: str | None = None
    seed: int = 0

    def __post_init__(self):
        if self.subcommand not in SUBCOMMANDS:
            raise SadicError(f"unknown subcommand {self.subcommand!r}")
        if not 0 < self.tol < math.inf:  # also rejects NaN
            raise SadicError("tolerance must be positive and finite")
        if self.depth < 1:
            raise SadicError("depth must be >= 1")
        if self.fmt not in ("json", "csv", "table"):
            raise SadicError(f"unknown output format {self.fmt!r}")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is reserved for
    # resource refusals here, so usage problems become exit 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_int_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(part) for part in text.split(","))


def _parse_digits(text: str) -> tuple[int, ...]:
    # "021" for single-character digits, "0,2,1" for any base
    text = text.strip()
    if not text:
        return ()
    if "," in text:
        return tuple(int(part) for part in text.split(","))
    return tuple(int(ch) for ch in text)


def _parse_scales(text: str) -> tuple[int, ...]:
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        return tuple(range(int(lo), int(hi) + 1))
    return _parse_int_list(text)


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
        p.add_argument("--format", default=fmt_default, choices=("json", "csv", "table"))
        p.add_argument("--output", default=None, help="write here instead of stdout")

    p = sub.add_parser("dim", help="dimension-equation root")
    p.add_argument("--s", type=int)
    p.add_argument("--u", type=int)
    p.add_argument("--alphabet", help="JSON file, 'sprime3', or 'tilde:<s>'")
    p.add_argument("--tol", type=float, default=1e-12)
    common(p)

    p = sub.add_parser("cylinder", help="exact hull of a block prefix")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--base", default="", help="comma-separated blocks, e.g. 1,2")
    common(p)

    p = sub.add_parser("gaps", help="open gap between adjacent marker-0 children")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--base", default="")
    p.add_argument("--p", type=int, required=True)
    common(p)

    p = sub.add_parser("generate", help="emit element digits from a block spec")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--blocks", default="")
    p.add_argument("--tail", default=None)
    p.add_argument("--n", type=int, default=12, help="digits to emit")
    common(p)

    p = sub.add_parser("boxcount", help="box-counting slope of a set")
    p.add_argument("--s", type=int)
    p.add_argument("--u", type=int)
    p.add_argument("--alphabet")
    p.add_argument("--depth", type=int, default=12)
    p.add_argument("--scales", default="4..10", help="'4..10' or '4,6,8'")
    common(p)

    p = sub.add_parser("measure", help="stage lengths of the covering recursion")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--k", type=int, required=True, help="largest stage rank")
    common(p, fmt_default="csv")

    p = sub.add_parser("freq", help="digit frequencies of a digit stream")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--u", type=int, default=None)
    p.add_argument("--preperiod", default="")
    p.add_argument("--period", default=None)
    p.add_argument("--k", type=int, required=True)
    common(p)

    p = sub.add_parser("normal", help="digit-balance verdict for a base")
    p.add_argument("--s", type=int, required=True)
    common(p)

    p = sub.add_parser("reproduce", help="run the acceptance criteria")
    p.add_argument("--only", default=None, help="substring filter on row names")
    p.add_argument("--seed", type=int, default=0)
    common(p, fmt_default="table")

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    def get(name, default=None):
        value = getattr(args, name, None)
        return default if value is None else value

    tail = getattr(args, "tail", None)
    period = getattr(args, "period", None)
    try:
        return RunConfig(
            subcommand=args.subcommand,
            s=get("s"),
            u=get("u"),
            alphabet=get("alphabet"),
            base=_parse_digits(get("base", "")),
            blocks=_parse_digits(get("blocks", "")),
            tail=_parse_digits(tail) if tail is not None else None,
            p=get("p"),
            depth=get("depth", 12),
            k=get("k"),
            n=get("n", 12),
            scales=_parse_scales(get("scales", "")) if get("scales") else (),
            preperiod=_parse_digits(get("preperiod", "")),
            period=_parse_digits(period) if period is not None else None,
            tol=get("tol", 1e-12),
            fmt=get("format", "json"),
            output=get("output"),
            only=get("only"),
            seed=get("seed", 0),
        )
    except ValueError as e:
        raise SadicError(f"bad numeric argument: {e}") from e


def _payload(command: str, params: dict, body: dict) -> dict:
    return {"version": __version__, "command": command, "params": params, **body}


def _need_su(config: RunConfig) -> tuple[int, int]:
    if config.s is None or config.u is None:
        raise SadicError(f"{config.subcommand} needs --s and --u")
    return config.s, config.u


def _dispatch_dim(config: RunConfig) -> dict:
    if config.alphabet is not None:
        a = _load_alphabet(config.alphabet)
        r = dim_alphabet(a, config.tol)
        return _payload(
            "dim",
            {"alphabet": config.alphabet, "tol": config.tol},
            {
                "s": a.s,
                "m": a.m,
                "length_counts": {str(k): v for k, v in a.length_counts.items()},
                "prefix_free": a.is_prefix_free(),
                **r.to_json(),
            },
        )
    s, u = _need_su(config)
    r = dim_S(s, u, config.tol)
    return _payload("dim", {"s": s, "u": u, "tol": config.tol}, r.to_json())


def _dispatch_boxcount(config: RunConfig) -> tuple[dict, list[str]]:
    if config.alphabet is not None:
        a = _load_alphabet(config.alphabet)
        params = {"alphabet": config.alphabet}
    else:
        s, u = _need_su(config)
        a = induced_alphabet(s, u)
        params = {"s": s, "u": u}
    params.update({"depth": config.depth, "scales": list(config.scales)})
    r = box_count_for_alphabet(a, config.depth, list(config.scales))
    alpha = dim_alphabet(a).alpha
    body = _payload("boxcount", params, {"alpha_equation": alpha, **r.to_json()})
    csv = ["eps_num,eps_den,eps_approx,boxes"]
    for eps, nbox in r.counts:
        csv.append(f"{eps.numerator},{eps.denominator},{float(eps)!r},{nbox}")
    csv.append(f"# slope,{r.slope!r}")
    return body, csv


def dispatch(config: RunConfig) -> tuple[int, str]:
    """Run one validated invocation; returns (exit code, document)."""
    cmd = config.subcommand
    if cmd == "dim":
        return 0, _to_json(_dispatch_dim(config))

    if cmd == "cylinder":
        s, u = _need_su(config)
        cyl = cylinder(s, u, config.base)
        return 0, _to_json(_payload("cylinder", {"s": s, "u": u, "base": list(config.base)}, cyl.to_json()))

    if cmd == "gaps":
        if config.s is None or config.p is None:
            raise SadicError("gaps needs --s and --p")
        gap = gap_interval(config.s, config.base, config.p)
        return 0, _to_json(
            _payload(
                "gaps",
                {"s": config.s, "base": list(config.base), "p": config.p},
                gap.to_json(),
            )
        )

    if cmd == "generate":
        s, u = _need_su(config)
        b = BlockSequence(s, u, config.blocks, config.tail)
        d = block_encode(b)
        n = config.n if d.period is not None else min(config.n, len(d.preperiod))
        return 0, _to_json(
            _payload(
                "generate",
                {"s": s, "u": u, "blocks": list(config.blocks),
                 "tail": list(config.tail) if config.tail is not None else None,
                 "n": config.n},
                {
                    "digits": list(d.digits(n)),
                    "digit_string": d.to_json(),
                    "value": rational_json(digits_to_rational(d)),
                    "is_member_value": d.period is not None,
                },
            )
        )

    if cmd == "boxcount":
        body, csv = _dispatch_boxcount(config)
        if config.fmt == "csv":
            return 0, "\n".join(csv)
        return 0, _to_json(body)

    if cmd == "measure":
        s, u = _need_su(config)
        if config.k is None or config.k < 1:
            raise SadicError("measure needs --k >= 1")
        stages = [cover_stage(s, u, k) for k in range(1, config.k + 1)]
        if config.fmt == "csv":
            rows = ["k,num,den,approx"]
            for st in stages:
                t = st.total_length
                rows.append(f"{st.k},{t.numerator},{t.denominator},{float(t)!r}")
            return 0, "\n".join(rows)
        return 0, _to_json(
            _payload(
                "measure",
                {"s": s, "u": u, "k": config.k},
                {
                    "stages": [
                        {
                            "k": st.k,
                            "count": len(st.intervals),
                            "total_length": rational_json(st.total_length),
                        }
                        for st in stages
                    ]
                },
            )
        )

    if cmd == "freq":
        if config.s is None or config.k is None:
            raise SadicError("freq needs --s and --k")
        d = DigitString(config.s, config.preperiod, config.period)
        prof = digit_frequencies(d, config.k)
        body = {"profile": prof.to_json()}
        if config.u is not None:
            body["residual"] = structural_identity_residual(
                d, config.u, config.k
            ).to_json()
        return 0, _to_json(
            _payload(
                "freq",
                {"s": config.s, "u": config.u, "k": config.k,
                 "preperiod": list(config.preperiod),
                 "period": list(config.period) if config.period else None},
                body,
            )
        )

    if cmd == "normal":
        if config.s is None:
            raise SadicError("normal needs --s")
        v = normal_candidate_exists(config.s)
        return 0, _to_json(_payload("normal", {"s": config.s}, v.to_json()))

    if cmd == "reproduce":
        results = run_all(only=config.only, seed=config.seed)
        if not results:
            raise SadicError(f"no acceptance row matches {config.only!r}")
        code = 0 if all(r.passed for r in results) else 1
        if config.fmt == "json":
            doc = _payload(
                "reproduce",
                {"only": config.only, "seed": config.seed},
                {"results": [r.to_json() for r in results],
                 "passed": all(r.passed for r in results)},
            )
            return code, _to_json(doc)
        return code, format_table(results)

    raise SadicError(f"unknown subcommand {cmd!r}")


def _to_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)


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
    except ResourceBudgetError as e:
        print(f"resource budget exceeded: {e}", file=sys.stderr)
        return 2
    except SadicError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 1
    if config.output:
        Path(config.output).write_text(text + "\n")
    else:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
