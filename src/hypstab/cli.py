"""Batch command-line front end.

Subcommands and the flags each one reads::

    hypstab constants      per-dimension constants table (C_n pipeline)
        --n-min --n-max --restarts --depth --climb-iters
        --seed --format text|json|csv --out
    hypstab volume         hyperbolic simplex volume (file or regular ideal)
        FILE --seed --samples --tolerance --format text|json --out
        --regular-ideal N --format text|json --out
    hypstab triangulation  info | cycle | cover | dashboard on gluing data
        --format text|json --out
        cover only: one of --spec --characteristic
    hypstab bounds         seifert | jsj | filling calculators
        --e --chi --d --va --vb --vc --vd --h --n --figure-eight
        --format text|json --out

Every emitted number carries a flag saying how it was computed.  v_n,
the volume of the regular ideal simplex, is exact (computed, not
sampled), so --regular-ideal reads no --seed, --samples or --tolerance;
a simplex file's volume is Monte Carlo.  --seed of constants seeds the
eps_n search.  Identical configurations (including --seed) produce
byte-identical JSON.  The exit code is 0 only when all requested checks
pass: 1 for failed checks, 2 for bad input (one "error:" line on
stderr).

Triangulation targets are file paths in the wire format or built-in
fixture names (sphere, torus, klein, figure-eight/fig8,
boundary-4-simplex/s3).  Simplex files use Klein coordinates::

    { "dim": n, "vertices": [ {"x": [...], "ideal": false}, ... ] }

Cover specs assign a one-line permutation of {1..d} to each pairing
index::

    { "degree": d, "perms": { "0": [2, 1, ...], ... } }

The environment variable HYPSTAB_THREADS caps row-level parallelism of
the constants table (results are bit-identical at any thread count).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import bounds as bounds_mod
from . import complexes as cx
from .constants import constants_row, row_as_dict, rows_to_csv, rows_to_text
from .fixtures import load_fixture, fixture_names, ALIASES, FIXTURE_WIRES
from .minkowski import DEFAULT_TOL, GeometryError, lift_klein
from .simplex import GeodesicSimplex
from .volume import DEFAULT_BUDGET, EXACT, FORMULA, ideal_regular_volume, simplex_volume


def _fail(msg: str) -> SystemExit:
    print(f"error: {msg}", file=sys.stderr)
    return SystemExit(2)


def _emit(args, payload, text: str):
    """Write the result: ``payload`` as JSON under --format json, else ``text``."""
    if args.fmt == "json":
        text = json.dumps(payload, sort_keys=True, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise _fail(f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise _fail(f"parse error in {path} at line {exc.lineno} "
                    f"column {exc.colno}: {exc.msg}")


def _load_triangulation(target: str) -> cx.Triangulation:
    """A built-in complex by name, or a wire-format file; the JSON output
    of ``triangulation cover`` is read through its ``wire`` member."""
    if target in FIXTURE_WIRES or target in ALIASES:
        return load_fixture(target)
    data = _load_json(target)
    if isinstance(data, dict) and "wire" in data:
        data = data["wire"]
    try:
        return cx.from_wire(data, name=os.path.basename(target))
    except cx.ComplexError as exc:
        raise _fail(str(exc))


def _load_simplex(path: str, tol: float) -> GeodesicSimplex:
    data = _load_json(path)
    try:
        dim = int(data["dim"])
        verts = [lift_klein(np.asarray(rec["x"], dtype=float),
                            ideal=bool(rec.get("ideal", False)), tol=tol)
                 for rec in data["vertices"]]
    except GeometryError as exc:
        raise _fail(f"invalid vertex in {path}: {exc}")
    except (KeyError, TypeError, ValueError) as exc:
        raise _fail(f"malformed simplex file {path}: {exc}")
    return GeodesicSimplex(tuple(verts), dim)


# ---------------------------------------------------------------------------
# constants


def cmd_constants(args) -> int:
    if not (4 <= args.n_min <= args.n_max <= 8):
        raise _fail("need 4 <= n-min <= n-max <= 8")
    dims = list(range(args.n_min, args.n_max + 1))
    try:
        threads = max(1, int(os.environ.get("HYPSTAB_THREADS", "1")))
    except ValueError:
        raise _fail(f"HYPSTAB_THREADS must be an integer, got {os.environ['HYPSTAB_THREADS']!r}")

    def job(n):
        try:
            row, _ = constants_row(
                n, seed=args.seed, restarts=args.restarts,
                bisection_depth=args.depth, climb_iters=args.climb_iters)
            return n, row, None
        except Exception as exc:  # row-level failure; other rows still emitted
            return n, None, str(exc)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        results = list(pool.map(job, dims))
    rows = [row for _, row, _ in results if row is not None]
    errors = {n: err for n, _, err in results if err is not None}

    payload = {"rows": [row_as_dict(r) for r in rows],
               "errors": {str(n): e for n, e in errors.items()},
               "seed": args.seed}
    if args.fmt == "csv":
        text = rows_to_csv(rows) + "".join(f"# error n={n}: {e}\n" for n, e in errors.items())
    else:
        text = "\n".join([rows_to_text(rows)] + [f"{n:>2} ERROR: {e}" for n, e in errors.items()])
    _emit(args, payload, text)
    if errors or any(not r.C_n < 1.0 for r in rows):
        return 1
    return 0


# ---------------------------------------------------------------------------
# volume


def cmd_volume(args) -> int:
    if (args.regular_ideal is None) == (args.simplex is None):
        raise _fail("give exactly one of --regular-ideal N or a simplex file")
    file_flags = (args.seed, args.samples, args.tolerance)
    if args.regular_ideal is not None and file_flags != (None, None, None):
        raise _fail("--seed, --samples and --tolerance apply to a simplex file, "
                    "not to --regular-ideal")
    seed = 0 if args.seed is None else args.seed
    try:
        if args.regular_ideal is not None:
            est = ideal_regular_volume(args.regular_ideal)
            label = f"regular ideal {args.regular_ideal}-simplex"
        else:
            K = _load_simplex(args.simplex,
                              DEFAULT_TOL if args.tolerance is None else args.tolerance)
            est = simplex_volume(K, seed=seed,
                                 budget=DEFAULT_BUDGET if args.samples is None else args.samples)
            label = args.simplex
    except GeometryError as exc:
        raise _fail(str(exc))
    payload = {"input": label, "volume": {"value": est.value, "flag": est.method},
               "std_error": est.std_error, "samples": est.samples}
    text = f"{label}: vol = {est.value:.9f} +- {est.std_error:.2e} [{est.method}"
    if args.simplex is not None:
        payload["seed"] = seed
        text += f", {est.samples} samples, seed {seed}"
    _emit(args, payload, text + "]")
    return 0


# ---------------------------------------------------------------------------
# triangulation


def _links_payload(T):
    rep = cx.links(T)
    return {
        "vertex_links": [{"faces": v.faces, "euler": v.euler} for v in rep.vertex_links],
        "edge_valences": [e.valence for e in rep.edges],
    }


def cmd_triangulation(args) -> int:
    if args.action != "cover" and (args.spec, args.characteristic) != (None, None):
        raise _fail(f"--spec and --characteristic apply to cover, not to {args.action}")
    if args.action == "cover" and (args.spec is None) == (args.characteristic is None):
        raise _fail("cover needs exactly one of --spec FILE or --characteristic X")
    T = _load_triangulation(args.target)
    name = (T.labels or {}).get("name", args.target)
    report = cx.validate(T)

    if args.action == "info":
        counts = cx.cell_counts(T)
        orient = cx.orientability(T)
        payload = {
            "name": name, "dim": T.dim, "simplices": T.simplex_count,
            "valid": report.valid, "closed": report.closed,
            "f_vector": list(counts.f_vector), "euler": counts.euler,
            "orientable": orient.orientable,
        }
        lines = [f"{name}: dim {T.dim}, {T.simplex_count} simplices, "
                 f"{'closed' if report.closed else 'bounded'}, "
                 f"{'orientable' if orient.orientable else 'nonorientable'}",
                 f"  f-vector {counts.f_vector}, chi = {counts.euler}"]
        if T.dim == 3 and report.closed:
            payload["links"] = _links_payload(T)
            for i, v in enumerate(payload["links"]["vertex_links"]):
                lines.append(f"  vertex {i}: link chi = {v['euler']} ({v['faces']} faces)")
            lines.append(f"  edge valences: {payload['links']['edge_valences']}")
        _emit(args, payload, "\n".join(lines))
        return 0 if report.valid else 1

    if args.action == "cycle":
        if not report.closed:
            print("error: fundamental cycle needs a closed complex", file=sys.stderr)
            return 1
        try:
            z = cx.fundamental_cycle(T)
        except cx.ComplexError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        ok = cx.verify_cycle(T, z)
        l1 = z.l1()
        _emit(args, {"name": name, "cycle_verified": ok,
                     "l1": {"value": str(l1), "flag": EXACT},
                     "simplices": T.simplex_count},
              f"{name}: cycle {'verified' if ok else 'FAILED'}, "
              f"L1 = {l1} ({EXACT}), t = {T.simplex_count}")
        return 0 if ok else 1

    if args.action == "cover":
        try:
            if args.characteristic is not None:
                spec = cx.characteristic_cover_spec(T, args.characteristic)
            else:
                spec = cx.cover_spec_from_wire(_load_json(args.spec))
        except cx.ComplexError as exc:
            raise _fail(str(exc))
        try:
            cover = cx.build_cover(T, spec)
        except cx.ComplexError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        counts = cx.cell_counts(cover)
        payload = {"name": name, "degree": spec.degree,
                   "cover_simplices": cover.simplex_count,
                   "f_vector": list(counts.f_vector), "euler": counts.euler,
                   "wire": cx.to_wire(cover)}
        _emit(args, payload, f"{name}: degree-{spec.degree} cover with "
                             f"{cover.simplex_count} simplices, f {counts.f_vector}, "
                             f"chi = {counts.euler}")
        return 0

    # dashboard: argparse admits no other action
    dash = cx.inequality_dashboard(T)
    payload = {
        "name": dash.name, "dim": dash.dim,
        "simplices": {"value": dash.simplices, "flag": EXACT},
        "f_vector": list(dash.f_vector), "euler": dash.euler,
        "euler_bound": dash.euler_bound, "euler_bound_ok": dash.euler_bound_ok,
        "orientable": dash.orientable,
        "cycle_l1": None if dash.cycle_l1 is None else str(dash.cycle_l1),
        "cycle_ok": dash.cycle_ok,
        "annotations": list(dash.annotations),
    }
    lines = [f"{dash.name}: t = {dash.simplices} (upper bound for the "
             f"Delta-complexity), chi = {dash.euler}",
             f"  |chi| <= 2^(n+1) t = {dash.euler_bound}: "
             f"{'ok' if dash.euler_bound_ok else 'VIOLATED'}"]
    if dash.cycle_l1 is not None:
        lines.append(f"  alternated cycle: L1 = {dash.cycle_l1} <= t, "
                     f"boundary {'vanishes' if dash.cycle_ok else 'NONZERO'}")
    lines += [f"  note: {a}" for a in dash.annotations]
    _emit(args, payload, "\n".join(lines))
    ok = dash.euler_bound_ok and dash.cycle_ok is not False
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# bounds


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x]
    except ValueError:
        raise _fail(f"expected a comma-separated integer list, got {text!r}")


def _sweep_table(text: str, bound) -> tuple[dict, list[str]]:
    """Payload rows and limit, and the text lines, of a jsj or filling
    table: ``bound(n)`` for each n of the --n list ``text``."""
    sweep = _parse_int_list(text)
    if not sweep:
        raise _fail("--n needs at least one value")
    seq = [bound(n) for n in sweep]
    rows = [{"n": n, "degree": cb.degree, "bound": cb.bound,
             "normalized": {"value": cb.normalized, "flag": FORMULA}}
            for n, cb in zip(sweep, seq)]
    lines = [f"  n={n}: degree {cb.degree}, bound {cb.bound}, "
             f"normalized {float(cb.normalized):.6g} [{FORMULA}]"
             for n, cb in zip(sweep, seq)]
    lines.append(f"  limit -> v_A = {seq[0].limit}")
    return {"rows": rows, "limit": {"value": seq[0].limit, "flag": FORMULA}}, lines


def cmd_bounds(args) -> int:
    try:
        if args.calculator == "seifert":
            degs = _parse_int_list(args.d)
            seq = bounds_mod.seifert_bound(args.e, args.chi, degs)
            rows = [{"d": d, "bound": cb.bound,
                     "normalized": {"value": cb.normalized, "flag": FORMULA}}
                    for d, cb in zip(degs, seq)]
            payload = {"calculator": "seifert", "e": args.e, "chi": args.chi,
                       "rows": rows, "limit": {"value": 0, "flag": FORMULA},
                       "decreasing": all(seq[i].normalized >= seq[i + 1].normalized
                                         for i in range(len(seq) - 1))}
            lines = ([f"seifert e={args.e} chi={args.chi}"] +
                     [f"  fiber-unwrap degree d^2={cb.degree}: bound {cb.bound}, "
                      f"normalized {float(cb.normalized):.6g} [{FORMULA}]"
                      for cb in seq] + ["  limit -> 0"])
        elif args.calculator == "jsj":
            table, sweep_lines = _sweep_table(args.n, lambda n: bounds_mod.jsj_cover_bound(
                args.va, args.vb, args.vc, args.vd, args.h, n))
            payload = {"calculator": "jsj", **table}
            lines = [f"jsj v_A={args.va} v_B={args.vb} v_C={args.vc} "
                     f"v_D={args.vd} h={args.h}"] + sweep_lines
        else:  # filling
            if args.figure_eight:
                preset = bounds_mod.FIGURE_EIGHT_FILLING
                va, vb, vd = preset["v_a"], preset["v_b"], preset["v_d"]
            else:
                va, vb, vd = args.va, args.vb, args.vd
            table, sweep_lines = _sweep_table(
                args.n, lambda n: bounds_mod.filling_bound(va, vb, vd, n))
            payload = {"calculator": "filling", "v_a": va, "v_b": vb, "v_d": vd, **table}
            label = " (figure-eight preset: v_A = c(N) = 2)" if args.figure_eight else ""
            lines = [f"filling v_A={va} v_B={vb} v_D={vd}{label}"] + sweep_lines
    except bounds_mod.BoundsError as exc:
        raise _fail(str(exc))
    _emit(args, payload, "\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# parser


def _sample_count(text: str) -> int:
    """Type of --samples: a count written as an integer or a float, at least
    1e3 and at most 2**63 - 1, the largest the sampler's int64 counts hold."""
    try:
        count = int(float(text))
    except (ValueError, OverflowError):
        raise argparse.ArgumentTypeError(f"not a sample count: {text!r}")
    if count < 1000:
        raise argparse.ArgumentTypeError("must be at least 1000")
    if count > np.iinfo(np.int64).max:
        raise argparse.ArgumentTypeError("must be at most 2**63 - 1")
    return count


def int_at_least(low: int):
    """An argparse type: an integer >= low.  --seed takes 0, as numpy's
    generators require; the eps_n search counts take 1 (a search with no
    restart, bisection step or climb step evaluates no simplex)."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}")
        return value
    return parse


def _tolerance(text: str) -> float:
    """Type of --tolerance: a finite number >= 0 (a NaN would pass every vertex check)."""
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not (math.isfinite(tol) and tol >= 0):
        raise argparse.ArgumentTypeError("must be a finite number >= 0")
    return tol


def _add_output(p: argparse.ArgumentParser, formats=("text", "json")):
    p.add_argument("--format", dest="fmt", choices=formats, default="text")
    p.add_argument("--out", default=None, help="write output to a file")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hypstab", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("constants", help="per-dimension constants table (4 <= n <= 8)")
    c.add_argument("--seed", type=int_at_least(0), default=0,
                   help="seed of the eps search (default 0; identical seeds give identical output)")
    _add_output(c, ("text", "json", "csv"))
    c.add_argument("--n-min", type=int, default=4)
    c.add_argument("--n-max", type=int, default=5)
    c.add_argument("--restarts", type=int_at_least(1), default=64,
                   help="optimizer restarts in the eps search (at least 1)")
    c.add_argument("--depth", type=int_at_least(1), default=20,
                   help="bisection step budget (at least 1)")
    c.add_argument("--climb-iters", type=int_at_least(1), default=12,
                   help="hill-climb steps per restart (at least 1)")
    c.set_defaults(func=cmd_constants)

    v = sub.add_parser("volume", help="volume of a geodesic simplex")
    v.add_argument("--seed", type=int_at_least(0), default=None,
                   help="random seed of a simplex file's volume (default 0; "
                        "identical seeds give identical output)")
    v.add_argument("--samples", type=_sample_count, default=None,
                   help="Monte Carlo sample budget of a simplex file's volume "
                        "(default 2e6, min 1e3)")
    v.add_argument("--tolerance", type=_tolerance, default=None,
                   help="validation tolerance for the vertices of a simplex file "
                        f"(default {DEFAULT_TOL:g})")
    _add_output(v)
    v.add_argument("simplex", nargs="?", default=None,
                   help="simplex file in Klein coordinates")
    v.add_argument("--regular-ideal", type=int, default=None, metavar="N",
                   help="use the regular ideal N-simplex")
    v.set_defaults(func=cmd_volume)

    t = sub.add_parser("triangulation", help="operations on face-pairing gluing data")
    _add_output(t)
    t.add_argument("action", choices=("info", "cycle", "cover", "dashboard"))
    t.add_argument("target", help="wire-format file or fixture name "
                                  f"({', '.join(fixture_names())})")
    t.add_argument("--spec", default=None, help="cover-spec JSON file")
    t.add_argument("--characteristic", type=int, default=None, metavar="X",
                   help="use the x-characteristic cover of a torus complex")
    t.set_defaults(func=cmd_triangulation)

    b = sub.add_parser("bounds", help="covering-degree bound calculators")
    _add_output(b)
    b.add_argument("calculator", choices=("seifert", "jsj", "filling"))
    b.add_argument("--e", type=int, default=0, help="Euler number (seifert)")
    b.add_argument("--chi", type=int, default=-2, help="chi of the base surface (seifert)")
    b.add_argument("--d", default="1,10,100,1000", help="degree list (seifert)")
    b.add_argument("--va", type=int, default=0)
    b.add_argument("--vb", type=int, default=0)
    b.add_argument("--vc", type=int, default=0)
    b.add_argument("--vd", type=int, default=0)
    b.add_argument("--h", type=int, default=1)
    b.add_argument("--n", default="1,10,100,1000", help="characteristic parameter sweep")
    b.add_argument("--figure-eight", action="store_true",
                   help="use the figure-eight filling preset (v_A = c(N) = 2)")
    b.set_defaults(func=cmd_bounds)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
