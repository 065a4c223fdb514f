"""Which calls the traced run wraps, and the per-layer metrics made from them.

Layers are hypstab's modules.  The hot path runs cli -> constants ->
volume, simplex and minkowski; complexes is the combinatorics side.
Each wrapped attribute is the name the caller looks up, so
``hypstab.constants.min_face_clearance`` sees the search's calls and
not those made inside ``simplex``.
"""

from __future__ import annotations

import inspect
import statistics

import hypstab.cli as cli
import hypstab.complexes as cx
import hypstab.constants as constants
import hypstab.volume as volume

COMPLEXES = ("check_cover_spec", "build_cover", "cell_counts", "orientability",
             "fundamental_cycle", "verify_cycle")


_DEFICIT = inspect.signature(volume.volume_deficit_vs_regular)


def deficit_arguments(args, kwargs) -> dict:
    """The arguments of a ``volume_deficit_vs_regular`` call by name, defaults included."""
    call = _DEFICIT.bind(*args, **kwargs)
    call.apply_defaults()
    return call.arguments


def _deficit_budget(args, kwargs) -> int:
    return deficit_arguments(args, kwargs)["budget"]


def _deficit_kind(args, kwargs):
    # verify calls are the ones above the search's cheap budget
    verify = _deficit_budget(args, kwargs) > constants.SEARCH_DEFAULTS["cheap_budget"]
    return "volume.deficit_verify" if verify else "volume.deficit_cheap"


def _row_info(args, kwargs, result):
    steps = result[1].steps
    return (len(steps), sum(s.counterexample for s in steps))


#: (module, attribute, span name, info) for every wrapped call.
WRAPS = [
    (cli, "main", "cli.main", None),
    (cli, "constants_row", "cli.constants_row", _row_info),
    (constants, "estimate_a_eps", "constants.search", None),
    (constants, "volume_deficit_vs_regular", _deficit_kind,
     lambda a, k, r: _deficit_budget(a, k)),
    (constants, "ideal_regular_volume", "volume.ideal_regular_volume", None),
    (constants, "min_face_clearance", "simplex.min_face_clearance", None),
    (constants, "is_degenerate", "simplex.is_degenerate", lambda a, k, r: bool(r)),
    (constants, "lift_klein", "minkowski.lift_klein", None),
    (volume, "simplex_volume", "volume.simplex_volume", lambda a, k, r: r.samples),
] + [(cx, f, f"complexes.{f}", None) for f in COMPLEXES]


def install(tracer, names=None):
    """Wrap every call in WRAPS, or only those whose span name is in ``names``."""
    for module, attr, name, info in WRAPS:
        if names is None or name in names:
            tracer.wrap(module, attr, name, info)


def pass_metrics(tracer, z_scores) -> dict:
    """Per-layer numbers of one traced pass (trace_overhead_frac excluded)."""
    self_s = tracer.self_seconds()
    spans = list(zip(tracer.spans, self_s))

    def of(name):
        return [(s, own) for s, own in spans if s.name == name]

    def ms_p50(name):
        d = [s.seconds * 1e3 for s, _ in of(name)]
        return statistics.median(d) if d else 0.0

    out = {}
    for name in ("volume.deficit_verify", "volume.deficit_cheap",
                 "simplex.min_face_clearance"):
        out[f"{name}.calls"] = len(of(name))
        out[f"{name}.self_s"] = sum(own for _, own in of(name))
        out[f"{name}.ms_p50"] = ms_p50(name)
    deficits = of("volume.deficit_verify") + of("volume.deficit_cheap")
    out["volume.deficit.samples"] = sum(s.info for s, _ in deficits)
    vols = of("volume.simplex_volume")
    vol_seconds = sum(s.seconds for s, _ in vols)
    out["volume.simplex_volume.calls"] = len(vols)
    out["volume.simplex_volume.self_s"] = sum(own for _, own in vols)
    out["volume.simplex_volume.samples_per_s"] = (
        sum(s.info for s, _ in vols) / vol_seconds if vols else 0.0)
    out["volume.ideal_regular_volume.s"] = sum(
        s.seconds for s, _ in of("volume.ideal_regular_volume"))
    out["volume.oracle_z_abs_p50"] = (
        statistics.median(abs(z) for z in z_scores) if z_scores else 0.0)
    degenerate = of("simplex.is_degenerate")
    out["simplex.is_degenerate.calls"] = len(degenerate)
    out["simplex.is_degenerate.rejects"] = sum(bool(s.info) for s, _ in degenerate)
    out["minkowski.lift_klein.calls"] = len(of("minkowski.lift_klein"))
    out["minkowski.lift_klein.self_s"] = sum(own for _, own in of("minkowski.lift_klein"))
    out["constants.search.self_s"] = sum(own for _, own in of("constants.search"))
    rows = [s.info for s, _ in of("cli.constants_row") if s.info is not None]
    found = sum(r[1] for r in rows)
    verify_calls = out["volume.deficit_verify.calls"]
    out["constants.bisection_steps"] = sum(r[0] for r in rows)
    out["constants.verify_found"] = found
    out["constants.verify_useful_ratio"] = found / verify_calls if verify_calls else 0.0
    out["cli.self_s"] = sum(own for _, own in of("cli.main"))
    for f in COMPLEXES:
        out[f"complexes.{f}.self_s"] = sum(own for _, own in of(f"complexes.{f}"))
    return out
