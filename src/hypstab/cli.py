"""Batch command-line front end.

Subcommands and the flags each one reads after its action or calculator,
besides --format text|json (constants also csv) and --out; any other
flag, and any abbreviation, is bad input::

    hypstab constants          --n-min --n-max --restarts --depth --climb-iters --seed
    hypstab volume FILE        --seed --samples --tolerance
    hypstab volume --regular-ideal N
    hypstab triangulation info|cycle|dashboard TARGET
    hypstab triangulation cover TARGET  --spec FILE | --characteristic X (H_1 = Z^2)
    hypstab bounds seifert     --e --chi --d
    hypstab bounds jsj         --va --vb --vc --vd --h --n
    hypstab bounds filling     --va --vb --vd --h --n --figure-eight

Every emitted number carries a flag saying how it was computed.  v_n,
the volume of the regular ideal simplex, is exact (computed, not
sampled), so --regular-ideal reads no --seed, --samples or --tolerance;
a simplex file's volume is Monte Carlo.  --seed of constants seeds the
eps_n search.  Identical configurations (including --seed) produce
byte-identical JSON.  The constants table computes its rows in order,
one after another; a row that raises is reported under "errors" while
the other rows still print.  The exit code is 0 only when all requested
checks pass: 1 for failed checks, 2 for bad input (one "error:" line on
stderr).

Triangulation targets are file paths in the wire format or built-in
fixture names (sphere, torus, klein, figure-eight/fig8,
boundary-4-simplex/s3).  Simplex files use Klein coordinates::

    { "dim": n, "vertices": [ {"x": [...], "ideal": false}, ... ] }

Cover specs assign a one-line permutation of {1..d} to each pairing
index::

    { "degree": d, "perms": { "0": [2, 1, ...], ... } }
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import bounds as bounds_mod
from . import complexes as cx
from .constants import SEARCH_DEFAULTS, constants_row, row_as_dict, rows_to_csv, rows_to_text
from .fixtures import load_fixture, fixture_names, ALIASES, FIXTURE_WIRES
from .minkowski import DEFAULT_TOL, GeometryError, lift_klein
from .simplex import GeodesicSimplex
from .volume import DEFAULT_BUDGET, EXACT, FORMULA, ideal_regular_volume, simplex_volume


def _fail(msg: str) -> SystemExit:
    print(f"error: {msg}", file=sys.stderr)
    return SystemExit(2)


def _emit(args, payload, text: str):
    """Write the result, ending in one newline, to --out or stdout:
    ``payload`` as JSON under --format json, else ``text``."""
    if args.fmt == "json":
        text = json.dumps(payload, sort_keys=True, indent=2)
    if not text.endswith("\n"):
        text += "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise _fail(f"cannot write {args.out}: {exc.strerror or exc}")
    else:
        sys.stdout.write(text)


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise _fail(f"no such file: {path}")
    except (OSError, UnicodeDecodeError) as exc:
        raise _fail(f"cannot read {path}: {exc}")
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
    """A simplex file: ``dim`` a JSON integer, every coordinate a JSON
    number and ``ideal``, when given, a JSON bool (JSON tells true from 1)."""
    data = _load_json(path)
    try:
        dim = cx._wire_int(data["dim"])
        verts = []
        for rec in data["vertices"]:
            x, ideal = rec["x"], rec.get("ideal", False)
            numbers = all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in x)
            if not (numbers and isinstance(ideal, bool)):
                raise TypeError(f"expected numbers x and a true or false ideal, got {rec!r}")
            verts.append(lift_klein(np.asarray(x, dtype=float), ideal=ideal, tol=tol))
    except GeometryError as exc:
        raise _fail(f"invalid vertex in {path}: {exc}")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise _fail(f"malformed simplex file {path}: {exc}")
    return GeodesicSimplex(tuple(verts), dim)


# ---------------------------------------------------------------------------
# constants


def cmd_constants(args) -> int:
    if not (4 <= args.n_min <= args.n_max <= 8):
        raise _fail("need 4 <= n-min <= n-max <= 8")
    rows, errors = [], {}
    for n in range(args.n_min, args.n_max + 1):
        try:
            rows.append(constants_row(
                n, seed=args.seed, restarts=args.restarts,
                bisection_depth=args.depth, climb_iters=args.climb_iters)[0])
        except Exception as exc:  # row-level failure; other rows still emitted
            errors[n] = str(exc)

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


def _sweep_table(sweep: list[int], bound) -> tuple[dict, list[str]]:
    """Payload rows and limit, and the text lines, of a jsj or filling
    table: ``bound(n)`` for each n of the --n list ``sweep``."""
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
            seq = bounds_mod.seifert_bound(args.e, args.chi, args.d)
            rows = [{"d": d, "bound": cb.bound,
                     "normalized": {"value": cb.normalized, "flag": FORMULA}}
                    for d, cb in zip(args.d, seq)]
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
            counts = (args.va, args.vb, args.vd)
            va, vb, vd = (0 if v is None else v for v in counts)
            if args.figure_eight:
                if counts != (None, None, None):
                    raise _fail("--figure-eight sets v_A, v_B and v_D; "
                                "give it without --va, --vb or --vd")
                preset = bounds_mod.FIGURE_EIGHT_FILLING
                va, vb, vd = preset["v_a"], preset["v_b"], preset["v_d"]
            table, sweep_lines = _sweep_table(
                args.n, lambda n: bounds_mod.filling_bound(va, vb, vd, n, h=args.h))
            payload = {"calculator": "filling", "v_a": va, "v_b": vb, "v_d": vd, "h": args.h,
                       **table}
            label = " (figure-eight preset: v_A = c(N) = 2)" if args.figure_eight else ""
            lines = [f"filling v_A={va} v_B={vb} v_D={vd} h={args.h}{label}"] + sweep_lines
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


def _int_list(text: str) -> list[int]:
    """Type of --d and --n: a comma-separated list of at least one integer."""
    try:
        values = [int(x) for x in text.split(",") if x]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"not a nonempty integer list: {text!r}")
    return values


def _leaf(sub, name: str, func, formats=("text", "json"), **kwargs):
    """A command's parser: it reads --format and --out, runs ``func``,
    takes no abbreviated flag (else ``bounds seifert --h`` reads as --help)
    and records itself as ``leaf``, so that `main` reports a flag the
    command does not read with the command's own usage line."""
    p = sub.add_parser(name, allow_abbrev=False, **kwargs)
    p.add_argument("--format", dest="fmt", choices=formats, default="text")
    p.add_argument("--out", default=None, help="write output to a file")
    p.set_defaults(func=func, leaf=p)
    return p


class _FlagBeforeCommand(argparse.Action):
    """A command's flag given before the command's name, which argparse
    would report as the flag's value being an invalid command
    (``invalid choice: 'json'``): say where the flag goes instead."""

    def __init__(self, option_strings, dest, command, noun, **kwargs):
        super().__init__(option_strings, dest, default=argparse.SUPPRESS,
                         help=argparse.SUPPRESS, **kwargs)
        self.command, self.noun = command, noun

    def __call__(self, parser, namespace, values, option_string=None):
        value = f" {values}" if isinstance(values, str) else ""  # none after --figure-eight
        parser.error(f"{option_string} must follow the {self.noun}: "
                     f"{parser.prog} {self.command} {option_string}{value} ...")


def _flags_follow_command(group, commands, noun: str):
    """Teach ``group`` every flag of its ``commands`` (a subparsers action)
    as a `_FlagBeforeCommand`, named after the first command that reads it."""
    seen = {"-h", "--help"}
    for name, leaf in commands.choices.items():
        for action in leaf._actions:
            for flag in action.option_strings:
                if flag in seen:
                    continue
                seen.add(flag)
                group.add_argument(flag, action=_FlagBeforeCommand, command=name, noun=noun,
                                   nargs=0 if action.nargs == 0 else None)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hypstab", description=__doc__, allow_abbrev=False,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    c = _leaf(sub, "constants", cmd_constants, ("text", "json", "csv"),
              help="per-dimension constants table (4 <= n <= 8)")
    c.add_argument("--seed", type=int_at_least(0), default=0,
                   help="seed of the eps search (default 0; identical seeds give identical output)")
    c.add_argument("--n-min", type=int, default=4)
    c.add_argument("--n-max", type=int, default=5)
    c.add_argument("--restarts", type=int_at_least(1), default=SEARCH_DEFAULTS["restarts"],
                   help="optimizer restarts in the eps search (at least 1)")
    c.add_argument("--depth", type=int_at_least(1), default=SEARCH_DEFAULTS["bisection_depth"],
                   help="bisection step budget (at least 1)")
    c.add_argument("--climb-iters", type=int_at_least(1), default=SEARCH_DEFAULTS["climb_iters"],
                   help="hill-climb steps per restart (at least 1)")

    v = _leaf(sub, "volume", cmd_volume, help="volume of a geodesic simplex")
    v.add_argument("--seed", type=int_at_least(0), default=None,
                   help="random seed of a simplex file's volume (default 0; "
                        "identical seeds give identical output)")
    v.add_argument("--samples", type=_sample_count, default=None,
                   help="Monte Carlo sample budget of a simplex file's volume "
                        "(default 2e6, min 1e3)")
    v.add_argument("--tolerance", type=_tolerance, default=None,
                   help="validation tolerance for the vertices of a simplex file "
                        f"(default {DEFAULT_TOL:g})")
    one = v.add_mutually_exclusive_group(required=True)
    one.add_argument("simplex", nargs="?", help="simplex file in Klein coordinates")
    one.add_argument("--regular-ideal", type=int, metavar="N",
                     help="use the regular ideal N-simplex")

    triangulation = sub.add_parser("triangulation", help="operations on face-pairing gluing data",
                                   allow_abbrev=False)
    actions = triangulation.add_subparsers(dest="action", required=True)
    for action in ("info", "cycle", "cover", "dashboard"):
        a = _leaf(actions, action, cmd_triangulation)
        a.add_argument("target", help="wire-format file or fixture name "
                                      f"({', '.join(fixture_names())})")
        if action == "cover":
            one = a.add_mutually_exclusive_group(required=True)
            one.add_argument("--spec", help="cover-spec JSON file")
            one.add_argument("--characteristic", type=int, metavar="X",
                             help="use the x-characteristic cover of a complex with H_1 = Z^2")
    _flags_follow_command(triangulation, actions, "action")

    bounds = sub.add_parser("bounds", help="covering-degree bound calculators",
                            allow_abbrev=False)
    calculators = bounds.add_subparsers(dest="calculator", required=True)
    s = _leaf(calculators, "seifert", cmd_bounds, help="Seifert pieces")
    s.add_argument("--e", type=int, default=0, help="Euler number")
    s.add_argument("--chi", type=int, default=-2, help="chi of the base surface")
    s.add_argument("--d", type=_int_list, default="1,10,100,1000", help="degree list")
    j = _leaf(calculators, "jsj", cmd_bounds, help="JSJ gluings")
    f = _leaf(calculators, "filling", cmd_bounds, help="Dehn fillings")
    # filling's counts stay None when not given, so --figure-eight can tell
    for p, count in ((j, 0), (f, None)):
        for flag in ("--va", "--vb", "--vd"):
            p.add_argument(flag, type=int, default=count,
                           help=f"{flag[3].upper()}-vertex count (default 0)")
        p.add_argument("--h", type=int, default=1)
        p.add_argument("--n", type=_int_list, default="1,10,100,1000",
                       help="characteristic parameter sweep")
    j.add_argument("--vc", type=int, default=0)
    f.add_argument("--figure-eight", action="store_true",
                   help="use the figure-eight filling preset (v_A = c(N) = 2)")
    _flags_follow_command(bounds, calculators, "calculator")
    return ap


def main(argv=None) -> int:
    # argparse hands a leaf's leftover arguments back to the root parser,
    # whose error would print the root's usage line
    args, extra = build_parser().parse_known_args(argv)
    if extra:
        args.leaf.error(f"unrecognized arguments: {' '.join(extra)}")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
