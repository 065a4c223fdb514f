#!/usr/bin/env python3
"""Random-cover census over the built-in complexes.

Builds random connected cyclic covers, checks that the f-vector of a
degree-d cover is d times the base's, says whether the cover is
connected, and verifies the alternated fundamental cycle on every
orientable cover; a nonorientable one has none.  A degree with no
connected cyclic cover gets a one-line note that names H_1.

Vertices are compared only when every vertex link of the base is a
sphere: always in dimension 2, and in dimension 3 when each link's
Euler characteristic is 2.  Otherwise a vertex may have fewer than d
preimages (the figure-eight's cusp has one, since its peripheral group
maps onto Z_d), so the check starts at the edges and the line says so.

Example:
    python scripts/cover_census.py --fixture torus --count 10 --max-degree 8
"""

import argparse

import numpy as np

from hypstab.cli import int_at_least
from hypstab.complexes import (
    ComplexError,
    _dual_forest,
    build_cover,
    cell_counts,
    fundamental_cycle,
    links,
    orientability,
    random_cover_spec,
    verify_cycle,
)
from hypstab.fixtures import ALIASES, fixture_names, load_fixture


def main():
    ap = argparse.ArgumentParser(description=__doc__, allow_abbrev=False)
    ap.add_argument("--fixture", default="torus", choices=sorted([*fixture_names(), *ALIASES]))
    ap.add_argument("--count", type=int_at_least(1), default=10)
    ap.add_argument("--max-degree", type=int_at_least(2), default=8)
    ap.add_argument("--seed", type=int_at_least(0), default=0)
    args = ap.parse_args()

    T = load_fixture(args.fixture)
    base = cell_counts(T)
    rng = np.random.default_rng(args.seed)
    print(f"{args.fixture}: t={T.simplex_count}, f={base.f_vector}, chi={base.euler}")
    spheres = T.dim == 2 or all(info.euler == 2 for info in links(T).vertex_links)
    lo, skipped = (0, "") if spheres else (1, " (from the edges: a vertex link is not a sphere)")
    for i in range(args.count):
        d = int(rng.integers(2, args.max_degree + 1))
        try:
            spec = random_cover_spec(T, d, rng)
        except ComplexError as exc:
            print(f"  degree {d}: {exc}")
            continue
        cov = build_cover(T, spec)
        counts = cell_counts(cov)
        mult = counts.f_vector[lo:] == tuple(d * f for f in base.f_vector[lo:])
        # the dual forest has one root per component
        connected = _dual_forest(cov)[0].count(-1) == 1
        if orientability(cov).orientable:
            z = fundamental_cycle(cov)
            cycle = f"cycle={'ok' if verify_cycle(cov, z) else 'FAIL'}, L1={z.l1()}"
        else:
            cycle = "cycle=n/a (nonorientable)"
        print(f"  degree {d}: t~={cov.simplex_count} (t~/d = {cov.simplex_count // d}), "
              f"f={counts.f_vector} multiplicative={mult}{skipped} connected={connected}, {cycle}")


if __name__ == "__main__":
    main()
