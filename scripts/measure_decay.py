#!/usr/bin/env python3
"""Tabulate the geometric decay of the covering stages.

For each requested (s, u) pair, prints stage lengths k = 1..k_max two
ways: the closed form sigma**k * d0 and, where the stage is small enough
to enumerate, the direct interval sum.  The columns must match exactly;
the script exits nonzero if they ever differ.

    python3 scripts/measure_decay.py --pairs 3:0,4:0 --k-max 8
"""

import argparse
import sys

from sadicsets import (
    ResourceBudgetError,
    SadicError,
    cover_stage,
    measure_decay_report,
    sigma,
)
from sadicsets.cli import _Parser, _parse_int, _refused


def _parse_pairs(text: str) -> list[tuple[int, int]]:
    # "3:0,4:0"; each s and u by the CLI's integer rule
    pairs = [pair.split(":") for pair in text.split(",")]
    if all(len(pair) == 2 for pair in pairs):
        try:
            return [(_parse_int(s), _parse_int(u)) for s, u in pairs]
        except argparse.ArgumentTypeError:
            pass
    raise argparse.ArgumentTypeError(f"expected s:u pairs like 3:0,4:0, got {text!r}")


def parse_args(argv=None):
    # the CLI's parser: a usage error exits 1, as in `sadicsets`
    ap = _Parser(description=__doc__.splitlines()[0])
    ap.add_argument("--pairs", type=_parse_pairs, default="3:0,4:0", help="s:u pairs, comma list")
    ap.add_argument("--k-max", type=_parse_int, default=8)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    bad = 0
    try:
        for s, u in args.pairs:
            print(f"# s={s} u={u} sigma={sigma(s, u)}")
            print("k,closed_num,closed_den,closed_approx,enumerated")
            for k, length in measure_decay_report(s, u, args.k_max):
                try:
                    direct = cover_stage(s, u, k).total_length
                    enumerated = "match" if direct == length else "MISMATCH"
                    bad += direct != length
                except ResourceBudgetError:
                    enumerated = "skipped"
                print(
                    f"{k},{length.numerator},{length.denominator},"
                    f"{float(length):.6e},{enumerated}"
                )
    except SadicError as e:
        return _refused(e)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
