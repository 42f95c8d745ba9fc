#!/usr/bin/env python3
"""Sweep box-counting slopes against the equation roots as the scales get finer.

Writes one CSV row per (set, finest exponent J): the slope fitted over
the scales s**-lo .. s**-J, the exact root, and the gap between them.
The gap shrinking as J grows is the visual check that the two dimension
routes agree.  The counts are the boxes the set meets, so no depth is
swept.

    python3 scripts/boxcount_sweep.py --fines 10,20,50 --lo 4
"""

import argparse
import csv
import sys

from sadicsets import (
    SadicError,
    box_count_for_alphabet,
    dim_alphabet,
    induced_alphabet,
    sprime3_alphabet,
    tilde_alphabet,
)
from sadicsets.cli import _Parser, _parse_int, _refused

SETS = {
    "marker0-base3": induced_alphabet(3, 0),
    "marker0-base4": induced_alphabet(4, 0),
    "pooled-base3": tilde_alphabet(3),
    "interleaved-base3": sprime3_alphabet(),
}


def _parse_fines(text: str) -> list[int]:
    return [_parse_int(part) for part in text.split(",")]


def _parse_sets(text: str) -> list[str]:
    names = text.split(",")
    for name in names:
        if name not in SETS:
            raise argparse.ArgumentTypeError(
                f"unknown set {name!r}, expected a comma list of {', '.join(SETS)}"
            )
    return names


def parse_args(argv=None):
    # the CLI's parser: a usage error exits 1, as in `sadicsets`
    ap = _Parser(description=__doc__.splitlines()[0])
    ap.add_argument("--fines", type=_parse_fines, default="10,20,50", help="finest exponents, comma list")
    ap.add_argument("--lo", type=_parse_int, default=4, help="coarsest exponent")
    ap.add_argument("--sets", type=_parse_sets, default=",".join(SETS), help="comma list")
    ap.add_argument("--output", default=None, help="CSV path, default stdout")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if min(args.fines) < args.lo + 2:
        sys.exit(f"every fine must be at least lo + 2 = {args.lo + 2}, for 3 scales")
    fh = open(args.output, "w", newline="") if args.output else sys.stdout
    w = csv.writer(fh)
    w.writerow(["set", "fine", "slope", "root", "gap"])
    try:
        for name in args.sets:
            a = SETS[name]
            root = dim_alphabet(a).alpha
            for fine in args.fines:
                r = box_count_for_alphabet(a, a.max_len, list(range(args.lo, fine + 1)))
                w.writerow(
                    [name, fine, f"{r.slope:.6f}", f"{root:.6f}",
                     f"{abs(r.slope - root):.2e}"]
                )
    except SadicError as e:
        return _refused(e)
    finally:
        if args.output:
            fh.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
