"""The hypstab benchmark: one workload per process, one JSON result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload constants --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` with ``HYPSTAB_THREADS=1``.  After
set-up the workload repeats whole passes while the next one is expected
to end within ``--seconds`` (at least one; a constants table takes
longer than a run, so a run makes one).  Each constants table's sha256
must equal the first one made by the same program sources in this
checkout (kept in ``perfbench/out/``).  Times are wall seconds spent
in the program's calls.  Every operation is checked; the last line of
standard output is
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics when ``--trace 0`` and the per-layer metrics when ``--trace 1``.
A traced run alternates untraced and traced passes, so that it also
measures the tracing overhead, and writes its spans to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
#: Units of the numbers on the ``detail`` line: the workload-specific
#: metrics, which cannot be end-to-end metrics because not every
#: workload has them.
DETAIL_UNITS = {
    "row_s.n4": "s", "row_s.n5": "s", "v_rse.n4": "frac", "v_rse.n5": "frac",
    "vol_samples_per_s": "1/s", "vol_t_rse1e-4_s.p50": "s", "vol_t_rse1e-4_s.p90": "s",
    "cover_simplices_per_s": "1/s", "fail_frac": "frac",
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("constants", "volumes", "covers"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def setup_seconds(workload) -> float:
    """Set-up time: importing the CLI in a fresh interpreter, plus the
    workload's input generation and warm-up; the median of SETUP_REPEATS
    timings of each."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    imports, prepares = [], []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import hypstab.cli"], env=env, cwd=ROOT,
                       check=True, timeout=120)
        t1 = perf_counter()
        workload.setup()
        workload.warm_up()
        imports.append(t1 - t0)
        prepares.append(perf_counter() - t1)
    return statistics.median(imports) + statistics.median(prepares)


def program_digest() -> str:
    """A short hash of the program's sources, to tell program versions apart."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def reference_digest(first: str, out_dir: Path) -> str:
    """The constants digest that every run of this program version must
    reproduce: the one stored by the first such run in ``out_dir``, or
    ``first`` when this run is that first one."""
    path = out_dir / f"constants-sha256-{program_digest()}.txt"
    out_dir.mkdir(exist_ok=True)
    try:
        with open(path, "x") as fh:
            fh.write(first)
        return first
    except FileExistsError:
        return path.read_text().strip()


def run_passes(workload, seconds, trace):
    """Repeat passes; with tracing, odd passes run under the full tracer."""
    import layers
    from spans import Tracer

    min_passes = 2 if trace else 1
    passes = []  # (traced, PassResult, Tracer)
    durations = []
    start = perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        gc.collect()  # do not bill this pass for the previous pass's garbage
        t0 = perf_counter()
        with Tracer() as tracer:
            layers.install(tracer, None if traced else workload.timing_wraps)
            result = workload.run_pass(tracer)
        passes.append((traced, result, tracer))
        durations.append(perf_counter() - t0)
        if (len(passes) >= min_passes
                and perf_counter() - start + statistics.median(durations) > seconds):
            return passes


def stamp(args, workload) -> dict:
    import numpy
    import scipy
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "HYPSTAB_THREADS": os.environ["HYPSTAB_THREADS"],
            "config": workload.config()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hypstab" / "__init__.py").is_file():
        print(f"error: no hypstab sources under {SRC}", file=sys.stderr)
        return 2
    os.environ["HYPSTAB_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import layers
    import spans
    import workloads

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = setup_seconds(workload)
    workload.prepare_checks()

    passes = run_passes(workload, args.seconds, args.trace)
    plain = [p for traced, p, _ in passes if not traced]
    verdicts = [ok for _, p, _ in passes for ok in p.ok]
    digests = [p.digest for _, p, _ in passes if p.digest is not None]
    reference = reference_digest(digests[0], HERE / "out") if digests else None
    # each table is one more operation: reproducing the reference digest
    verdicts += [d == reference for d in digests]
    attempted, failed = len(verdicts), verdicts.count(False)

    print(json.dumps({"stamp": stamp(args, workload)}, sort_keys=True))
    if digests:
        print(json.dumps({"constants_sha256": sorted(set(digests)), "reference": reference}))
    detail = {k: statistics.median(p.detail[k] for p in plain) for k in plain[0].detail}
    detail["fail_frac"] = failed / attempted
    wall_s = statistics.median(p.seconds for p in plain)
    print(json.dumps({"detail": {k: {"value": v, "unit": DETAIL_UNITS[k]} for k, v in detail.items()},
                      "passes": len(passes)}, sort_keys=True))

    if args.trace:
        traced = [(p, tr) for is_traced, p, tr in passes if is_traced]
        per_pass = [layers.pass_metrics(tr, p.z_scores) for p, tr in traced]
        values = {k: statistics.fmean(m[k] for m in per_pass) for k in per_pass[0]}
        values["trace_overhead_frac"] = (
            statistics.median(p.seconds for p, _ in traced) / wall_s - 1.0)
        (HERE / "out").mkdir(exist_ok=True)
        spans.write_spans(HERE / "out" / f"spans-{args.workload}-{args.seed}.json",
                          [tr.spans for _, tr in traced])
    else:
        values = {
            "wall_s": wall_s,
            "ok_frac": 1.0 - failed / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": setup_s,
        }
    listed = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
