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
    box_count_for_alphabet,
    dim_alphabet,
    induced_alphabet,
    sprime3_alphabet,
    tilde_alphabet,
)

SETS = {
    "marker0-base3": induced_alphabet(3, 0),
    "marker0-base4": induced_alphabet(4, 0),
    "pooled-base3": tilde_alphabet(3),
    "interleaved-base3": sprime3_alphabet(),
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--fines", default="10,20,50", help="finest exponents, comma list")
    ap.add_argument("--lo", type=int, default=4, help="coarsest exponent")
    ap.add_argument("--sets", default=",".join(SETS), help="comma list")
    ap.add_argument("--output", default=None, help="CSV path, default stdout")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    fines = [int(p) for p in args.fines.split(",")]
    if min(fines) < args.lo + 2:
        sys.exit(f"every fine must be at least lo + 2 = {args.lo + 2}, for 3 scales")
    fh = open(args.output, "w", newline="") if args.output else sys.stdout
    w = csv.writer(fh)
    w.writerow(["set", "fine", "slope", "root", "gap"])
    for name in args.sets.split(","):
        a = SETS[name]
        root = dim_alphabet(a).alpha
        for fine in fines:
            r = box_count_for_alphabet(a, a.max_len, list(range(args.lo, fine + 1)))
            w.writerow(
                [name, fine, f"{r.slope:.6f}", f"{root:.6f}",
                 f"{abs(r.slope - root):.2e}"]
            )
    if args.output:
        fh.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
