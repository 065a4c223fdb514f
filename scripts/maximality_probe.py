#!/usr/bin/env python3
"""Randomized check that no geodesic simplex beats the regular ideal one.

Draws random simplices with mixed finite/ideal vertices, computes their
volumes exactly (no sampling), and reports the largest against v_n.

Example:
    python scripts/maximality_probe.py --n 2 3 --trials 500
"""

import argparse

from hypstab.cli import int_at_least
from hypstab.volume import maximality_probe


def main():
    ap = argparse.ArgumentParser(description=__doc__, allow_abbrev=False)
    ap.add_argument("--n", type=int, nargs="+", default=[2, 3], choices=range(2, 6))
    ap.add_argument("--trials", type=int_at_least(1), default=500)
    ap.add_argument("--seed", type=int_at_least(0), default=0)
    args = ap.parse_args()

    for n in args.n:
        rep = maximality_probe(n, trials=args.trials, seed=args.seed)
        print(f"n={n}: {rep.trials} trials, {rep.degenerate_rejected} degenerate "
              f"draws rejected")
        print(f"  v_{n} = {rep.v_ref:.6f}, max observed {rep.max_value:.6f} "
              f"({rep.violations} above v_{n})")
        print(f"  vertex Gram of the maximizer:\n{rep.max_gram.round(4)}")


if __name__ == "__main__":
    main()
