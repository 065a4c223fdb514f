#!/usr/bin/env python3
"""Random-cover census over the built-in complexes.

Builds random admissible covers, checks exact multiplicativity of the
f-vector and Euler characteristic, says whether the cover is connected
(most random covers are not), and verifies the alternated fundamental
cycle on every orientable cover; a nonorientable one has none.

Example:
    python scripts/cover_census.py --fixture torus --count 10 --max-degree 8
"""

import argparse

import numpy as np

from hypstab.cli import int_at_least
from hypstab.complexes import (
    _components,
    build_cover,
    cell_counts,
    fundamental_cycle,
    orientability,
    random_cover_spec,
    verify_cycle,
)
from hypstab.fixtures import ALIASES, fixture_names, load_fixture


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--fixture", default="torus", choices=sorted([*fixture_names(), *ALIASES]))
    ap.add_argument("--count", type=int_at_least(1), default=10)
    ap.add_argument("--max-degree", type=int_at_least(2), default=8)
    ap.add_argument("--seed", type=int_at_least(0), default=0)
    args = ap.parse_args()

    T = load_fixture(args.fixture)
    base = cell_counts(T)
    rng = np.random.default_rng(args.seed)
    print(f"{args.fixture}: t={T.simplex_count}, f={base.f_vector}, chi={base.euler}")
    for i in range(args.count):
        d = int(rng.integers(2, args.max_degree + 1))
        cov = build_cover(T, random_cover_spec(T, d, rng))
        counts = cell_counts(cov)
        mult = counts.f_vector == tuple(d * f for f in base.f_vector)
        partner = cov._gluing[0]
        slot = np.flatnonzero(partner >= 0)
        n1 = cov.dim + 1
        # every simplex labelled by the least simplex of its dual component
        connected = not _components(slot // n1, partner[slot] // n1, cov.simplex_count).any()
        if orientability(cov).orientable:
            z = fundamental_cycle(cov)
            cycle = f"cycle={'ok' if verify_cycle(cov, z) else 'FAIL'}, L1={z.l1()}"
        else:
            cycle = "cycle=n/a (nonorientable)"
        print(f"  degree {d}: t~={cov.simplex_count} (t~/d = {cov.simplex_count // d}), "
              f"f={counts.f_vector} multiplicative={mult} connected={connected}, {cycle}")


if __name__ == "__main__":
    main()
