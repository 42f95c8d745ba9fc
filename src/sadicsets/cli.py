"""Command-line front end.

Every subcommand validates its parameters into a `RunConfig`, runs the
corresponding library call, and emits one deterministic document (JSON
by default, CSV where tabular).  No state is kept between runs and no
timestamps enter the payloads, so identical inputs give byte-identical
outputs.  The JSON is exactly ``json.dumps(doc, sort_keys=True,
indent=2)``, written mostly by json's C encoder (`_dumps`).

Exit codes: 0 success, 1 domain errors (bad parameters, malformed
files, pattern violations), 2 resource-budget refusals.

At start-up the CLI imports no library layer but `errors`.  Each
handler calls the library through the package's attributes
(`sadicsets.cylinder`), which import a layer on its first use and bind
the name for later calls.  So only `dim`, `boxcount` and `reproduce`
load `dimension`, and with it numpy.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections.abc import Callable
from dataclasses import dataclass
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path

import sadicsets

from . import __version__
from .errors import ResourceBudgetError, SadicError, WordError

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
        required = _COMMANDS[self.subcommand].required
        if any(getattr(self, flag) is None for flag in required):
            *rest, last = (f"--{flag}" for flag in required)
            listed = f"{', '.join(rest)} and {last}" if rest else last
            raise SadicError(f"{self.subcommand} needs {listed}")
        # Checked for every subcommand, though only boxcount reads the
        # depth, and raised as SadicError itself: perfbench's invalid
        # `cylinder` query with depth=0 hashes this class name.
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


def _parse_int(text: str) -> int:
    # ASCII digits after at most one "-"; int() also reads "+3", "1_2",
    # " 3" and non-ASCII digits
    digits = text.removeprefix("-")
    if digits.isascii() and digits.isdigit():
        try:
            return int(text)
        except ValueError as e:  # past the interpreter's int-to-str limit
            raise argparse.ArgumentTypeError(f"{len(digits)}-digit integer is too long") from e
    raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")


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
    # ends; "4,6,8" for a list.  A "-" is kept for `_check_exponent`
    # to refuse by name.
    stripped = text.strip()
    if not stripped:
        return ()
    span = ".." in stripped
    parts = stripped.split("..", 1) if span else stripped.split(",")
    try:
        values = [_parse_int(part) for part in parts]
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(
            f"expected scales like 4..10 or 4,6,8, got {text!r}"
        ) from None
    return range(values[0], values[1] + 1) if span else tuple(values)


def _load_alphabet(source: str) -> sadicsets.ComboAlphabet:
    """Named builtin ("sprime3", "tilde:4") or a JSON alphabet file."""
    if source == "sprime3":
        return sadicsets.sprime3_alphabet()
    if source.startswith("tilde:"):
        try:
            s = _parse_int(source.removeprefix("tilde:"))
        except argparse.ArgumentTypeError as e:
            raise SadicError(f"bad alphabet spec {source!r}: expected tilde:<s>") from e
        return sadicsets.tilde_alphabet(s)
    try:
        data = json.loads(Path(source).read_text())
    except OSError as e:
        raise SadicError(f"cannot read alphabet file {source!r}: {e}") from e
    except json.JSONDecodeError as e:
        raise SadicError(f"malformed alphabet file {source!r}: {e}") from e
    try:
        return sadicsets.ComboAlphabet.from_json(data)
    except (TypeError, ValueError, WordError) as e:
        raise SadicError(f"bad alphabet structure in {source!r}: {e}") from e


# Each flag's type and help; `_COMMANDS` lists the flags of each subcommand.
_FLAGS = {
    "s": (_parse_int, None),
    "u": (_parse_int, None),
    "alphabet": (str, "JSON file, 'sprime3', or 'tilde:<s>'"),
    "base": (_parse_digits, "comma-separated blocks, e.g. 1,2"),
    "blocks": (_parse_digits, None),
    "tail": (_parse_digits, None),
    "p": (_parse_int, None),
    "n": (_parse_int, "digits to emit"),
    "depth": (_parse_int, None),
    "scales": (_parse_scales, "'4..10' or '4,6,8'"),
    "k": (_parse_int, "largest stage rank (measure), digits counted (freq)"),
    "preperiod": (_parse_digits, None),
    "period": (_parse_digits, None),
    "only": (str, "substring filter on row names"),
    "seed": (_parse_int, None),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="sadicsets", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag in command.flags:
            kind, text = _FLAGS[flag]
            p.add_argument(f"--{flag}", type=kind, help=text, required=flag in command.required)
        p.add_argument("--format", dest="fmt", default=command.fmt, choices=_FORMATS)
        p.add_argument("--output", help="write here instead of stdout")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """The flags given, as a RunConfig; the flags left out take its defaults."""
    return RunConfig(**vars(args))


# Each handler returns the command's body, plus its CSV or table text
# when the format asks for one instead of JSON.
_Result = tuple[dict, str | None]


def _need_su(config: RunConfig) -> tuple[int, int]:
    if config.s is None or config.u is None:
        raise SadicError(f"{config.subcommand} needs --s and --u")
    return config.s, config.u


def _dim(config: RunConfig) -> _Result:
    if config.alphabet is not None:
        a = _load_alphabet(config.alphabet)
        r = sadicsets.dim_alphabet(a)
        body = {
            "s": a.s,
            "m": a.m,
            "length_counts": {str(k): v for k, v in a.length_counts.items()},
            "prefix_free": a.is_prefix_free(),
            **r.to_json(),
        }
        return body, None
    return sadicsets.dim_S(*_need_su(config)).to_json(), None


def _cylinder(config: RunConfig) -> _Result:
    return sadicsets.cylinder(config.s, config.u, config.base).to_json(), None


def _gaps(config: RunConfig) -> _Result:
    return sadicsets.gap_interval(config.s, config.base, config.p).to_json(), None


def _generate(config: RunConfig) -> _Result:
    blocks = sadicsets.BlockSequence(config.s, config.u, config.blocks, config.tail)
    d = sadicsets.block_encode(blocks)
    n = config.n if d.period is not None else min(config.n, len(d.preperiod))
    body = {
        "digits": list(d.digits(n)),
        "digit_string": d.to_json(),
        "value": sadicsets.rational_json(sadicsets.digits_to_rational(d)),
        "is_member_value": d.period is not None,
    }
    return body, None


def _boxcount(config: RunConfig) -> _Result:
    if config.alphabet is not None:
        a = _load_alphabet(config.alphabet)
    else:
        a = sadicsets.induced_alphabet(*_need_su(config))
    scales = config.scales
    if isinstance(scales, range) and scales:
        # a span is checked at its ends before it is listed
        sadicsets.dimension._check_exponent(scales[0])
        sadicsets.dimension._check_finest(a.s, scales[-1])
    r = sadicsets.box_count_for_alphabet(a, config.depth, list(scales))
    body = {"alpha_equation": sadicsets.dim_alphabet(a).alpha, **r.to_json()}
    if config.fmt != "csv":
        return body, None
    csv = ["eps_num,eps_den,eps_approx,boxes"]
    for eps, nbox in r.counts:
        csv.append(f"{eps.numerator},{eps.denominator},{float(eps)!r},{nbox}")
    csv.append(f"# slope,{r.slope!r}")
    return body, "\n".join(csv)


def _measure(config: RunConfig) -> _Result:
    s, u = config.s, config.u
    # The stage budget grows with k, so stage k goes first: a refusal
    # comes before any stage is built, and names stage k.
    last = sadicsets.cover_stage(s, u, config.k)
    stages = [sadicsets.cover_stage(s, u, k) for k in range(1, config.k)] + [last]
    body = {
        "stages": [
            {
                "k": st.k,
                "count": len(st.intervals),
                "total_length": sadicsets.rational_json(st.total_length),
            }
            for st in stages
        ]
    }
    if config.fmt != "csv":
        return body, None
    csv = ["k,num,den,approx"]
    for st in stages:
        t = st.total_length
        csv.append(f"{st.k},{t.numerator},{t.denominator},{float(t)!r}")
    return body, "\n".join(csv)


def _freq(config: RunConfig) -> _Result:
    d = sadicsets.DigitString(config.s, config.preperiod, config.period)
    body = {"profile": sadicsets.digit_frequencies(d, config.k).to_json()}
    if config.u is not None:
        body["residual"] = sadicsets.structural_identity_residual(d, config.u, config.k).to_json()
    return body, None


def _normal(config: RunConfig) -> _Result:
    return sadicsets.normal_candidate_exists(config.s).to_json(), None


def _reproduce(config: RunConfig) -> _Result:
    results = sadicsets.run_all(only=config.only, seed=config.seed)
    if not results:
        raise SadicError(f"no acceptance row matches {config.only!r}")
    body = {
        "results": [r.to_json() for r in results],
        "passed": all(r.passed for r in results),
    }
    return body, None if config.fmt == "json" else sadicsets.format_table(results)


@dataclass(frozen=True)
class _Command:
    handler: Callable[[RunConfig], _Result]
    help: str
    flags: tuple[str, ...]
    required: tuple[str, ...] = ()
    fmt: str = "json"


# The one statement of each subcommand's flags: argparse, RunConfig's
# required-flag check and the params echo all read it.
_COMMANDS = {
    "dim": _Command(_dim, "dimension-equation root", ("s", "u", "alphabet")),
    "cylinder": _Command(
        _cylinder, "exact hull of a block prefix", ("s", "u", "base"), ("s", "u")
    ),
    "gaps": _Command(
        _gaps, "open gap between adjacent marker-0 children", ("s", "base", "p"), ("s", "p")
    ),
    "generate": _Command(
        _generate, "emit element digits from a block spec",
        ("s", "u", "blocks", "tail", "n"), ("s", "u"),
    ),
    "boxcount": _Command(
        _boxcount, "box-counting slope of a set", ("s", "u", "alphabet", "depth", "scales")
    ),
    "measure": _Command(
        _measure, "stage lengths of the covering recursion", ("s", "u", "k"), ("s", "u", "k"),
        fmt="csv",
    ),
    "freq": _Command(
        _freq, "digit frequencies of a digit stream",
        ("s", "u", "preperiod", "period", "k"), ("s", "k"),
    ),
    "normal": _Command(_normal, "digit-balance verdict for a base", ("s",), ("s",)),
    "reproduce": _Command(
        _reproduce, "run the acceptance criteria", ("only", "seed"), fmt="table"
    ),
}


# The value types a flat container may hold: the C encoder writes them
# exactly as the indenting encoder does.
_SCALARS = frozenset((str, int, float, bool, type(None)))
_STR = frozenset((str,))


def _dumps(doc) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2)``, byte for byte.

    With ``indent``, json runs its pure-Python encoder.  Here only the
    containers that hold containers are walked in Python; each flat one,
    a list, tuple or str-keyed dict of scalars, is written by the C
    encoder in one call, its item separator carrying the newline and
    indent.  Any other subtree, such as a dict with non-str keys, is
    written by ``json.dumps`` itself and indented by replacing its
    newlines, which is exact as json escapes every newline in a string.
    """
    return _encode(doc, "\n")


def _encode(value, pad: str) -> str:
    # `pad` is the newline and indent of the line `value` ends on
    kind = type(value)
    if kind is dict and _STR.issuperset(map(type, value)):
        items = value.values()
    elif kind is list or kind is tuple:
        items = value
    elif kind in _SCALARS:
        return _flat_writer(pad)(value)
    else:
        return json.dumps(value, sort_keys=True, indent=2).replace("\n", pad)
    if not value:
        return "{}" if kind is dict else "[]"
    inner = pad + "  "
    if _SCALARS.issuperset(map(type, items)):
        text = _flat_writer(inner)(value)
        return text[0] + inner + text[1:-1] + pad + text[-1]
    if kind is dict:
        parts = [
            f"{encode_basestring_ascii(key)}: {_encode(value[key], inner)}"
            for key in sorted(value)
        ]
        return "{" + inner + ("," + inner).join(parts) + pad + "}"
    parts = [_encode(item, inner) for item in value]
    return "[" + inner + ("," + inner).join(parts) + pad + "]"


@functools.lru_cache(maxsize=32)
def _flat_writer(inner: str) -> Callable[[object], str]:
    """The compact encoder whose item separator is "," + ``inner``.

    ``JSONEncoder.encode`` builds a new C encoder on every call, so the
    one it would build is made here once per indent level, with the
    arguments ``JSONEncoder.iterencode`` passes.  A flat container holds
    no container, so there is no cycle to check.
    """
    encoder = json.JSONEncoder(
        check_circular=False, sort_keys=True, separators=("," + inner, ": ")
    )
    if c_make_encoder is None:  # an interpreter without json's C accelerator
        return encoder.encode
    write = c_make_encoder(
        None, encoder.default, encode_basestring_ascii, encoder.indent,
        encoder.key_separator, encoder.item_separator, encoder.sort_keys,
        encoder.skipkeys, encoder.allow_nan,
    )
    return lambda value: "".join(write(value, 0))


def dispatch(config: RunConfig) -> tuple[int, str]:
    """Run one validated invocation; returns (exit code, document)."""
    command = _COMMANDS[config.subcommand]
    body, text = command.handler(config)
    # A failed acceptance row exits 1.
    code = 1 if config.subcommand == "reproduce" and not body["passed"] else 0
    if text is None:
        # the params echo the subcommand's flags, where an alphabet takes
        # the place of --s and --u
        given = config.alphabet is not None and "alphabet" in command.flags
        dropped = ("s", "u") if given else ("alphabet",)
        params = {}
        for flag in command.flags:
            if flag not in dropped:
                value = getattr(config, flag)
                params[flag] = list(value) if isinstance(value, (tuple, range)) else value
        doc = {"version": __version__, "command": config.subcommand, "params": params, **body}
        text = _dumps(doc)
    return code, text


def _refused(e: SadicError) -> int:
    """Report a library refusal on one stderr line and return its exit
    code: 2 for a resource budget, 1 for any other domain error."""
    if isinstance(e, ResourceBudgetError):
        print(f"resource budget exceeded: {e}", file=sys.stderr)
        return 2
    print(f"error: {e}", file=sys.stderr)
    return 1


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
    except SadicError as e:
        return _refused(e)
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
