"""Tests of the benchmark itself: oracles, tracing and a tiny run of each workload.

Run from the root of the repository with ``python3 -m pytest perfbench/tests``.
"""

import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import layers
import oracles
import run
import spans
import workloads
import hypstab.complexes as cx
from hypstab.simplex import random_nondegenerate_simplex, regular_ideal_simplex

ROOT = Path(__file__).resolve().parents[2]


def regular(n):
    K = regular_ideal_simplex(n)
    return K.klein_vertices(), K.ideal_flags()


def test_oracles_on_regular_ideal_simplices():
    assert oracles.exact_volume(*regular(2)) == pytest.approx(math.pi, abs=1e-6)
    assert oracles.exact_volume(*regular(3)) == pytest.approx(1.0149416064, abs=1e-10)
    assert oracles.exact_volume(*regular(4)) == pytest.approx(0.2688956602, abs=1e-10)
    assert oracles.V4 == pytest.approx(0.2688956602, abs=1e-10)
    assert 3 * oracles.lobachevsky(math.pi / 3) == pytest.approx(oracles.V3, abs=1e-12)
    theta = oracles.dihedral_angles(*regular(5))
    assert theta[0, 1] == pytest.approx(math.acos(1 / 4), abs=1e-12)
    assert oracles.exact_volume(*regular(5)) is None


def test_oracles_cover_the_intended_classes():
    rng = np.random.default_rng(0)
    finite3 = random_nondegenerate_simplex(3, rng, ideal_prob=0.0)
    assert oracles.exact_volume(finite3.klein_vertices(), finite3.ideal_flags()) is None
    ideal3 = random_nondegenerate_simplex(3, rng, ideal_prob=1.0)
    v = oracles.exact_volume(ideal3.klein_vertices(), ideal3.ideal_flags())
    assert 0 < v <= oracles.V3 + 1e-12
    # Milnor: opposite edges of an ideal tetrahedron carry equal angles
    theta = oracles.dihedral_angles(ideal3.klein_vertices(), ideal3.ideal_flags())
    assert theta[2, 3] == pytest.approx(theta[0, 1], abs=1e-9)
    assert oracles.below_regular(5, oracles.V5_MC, 1e-5)
    assert not oracles.below_regular(4, 1.1 * oracles.V4, 1e-5)


def test_tracer_nests_spans_and_restores_attributes():
    calls = []
    mod = types.SimpleNamespace()
    mod.inner = lambda x: calls.append(x) or x
    mod.outer = lambda x: mod.inner(x) + 1
    original = mod.inner
    with spans.Tracer() as tr:
        tr.wrap(mod, "inner", "inner", info=lambda a, k, r: r)
        tr.wrap(mod, "outer", "outer")
        assert mod.outer(3) == 4
    assert mod.inner is original
    outer, inner = tr.by_name("outer")[0], tr.by_name("inner")[0]
    assert inner.parent == tr.spans.index(outer) and inner.info == 3
    own = dict(zip((s.name for s in tr.spans), tr.self_seconds()))
    assert own["outer"] == pytest.approx(outer.seconds - inner.seconds)


def test_plain_monte_carlo_matches_the_triangle_formula():
    rng = np.random.default_rng(1)
    K = random_nondegenerate_simplex(2, rng, ideal_prob=0.0)
    klein, ideal = K.klein_vertices(), K.ideal_flags()
    value, se = oracles.plain_mc_volume(klein, 100_000, 0)
    assert 0 < se < 0.01 * value
    assert abs(value - oracles.exact_volume(klein, ideal)) <= oracles.Z_MAX * se


def test_reference_digest_is_kept_per_program_version(tmp_path):
    assert run.reference_digest("aa", tmp_path) == "aa"
    assert run.reference_digest("bb", tmp_path) == "aa"
    (stored,) = tmp_path.iterdir()
    assert stored.name == f"constants-sha256-{run.program_digest()}.txt"


def run_workload(wl, trace=False):
    wl.setup()
    wl.warm_up()
    wl.prepare_checks()
    with spans.Tracer() as tr:
        layers.install(tr, None if trace else wl.timing_wraps)
        result = wl.run_pass(tr)
    return result, tr


def test_covers_smoke():
    wl = workloads.Covers(7)
    wl.TORUS_X, wl.FIG8_DEGREES = (2, 3), (4, 6)
    result, tr = run_workload(wl, trace=True)
    assert result.ok == [True] * 4
    assert result.detail["cover_simplices_per_s"] > 0
    metrics = layers.pass_metrics(tr, result.z_scores)
    assert metrics["complexes.verify_cycle.self_s"] > 0


def test_covers_check_catches_a_wrong_f_vector():
    wl = workloads.Covers(7)
    wl.TORUS_X, wl.FIG8_DEGREES = (2,), (4,)
    wl.setup()
    base, spec = wl.covers[0]
    assert workloads.expected_f_vector(base, spec.degree, (4, 12, 8))
    assert not workloads.expected_f_vector(base, spec.degree, (3, 12, 8))


def test_cycle_check_does_not_trust_the_program():
    wl = workloads.Covers(7)
    wl.TORUS_X, wl.FIG8_DEGREES = (2,), (4,)
    wl.setup()
    for base, spec in wl.covers:
        cover = cx.build_cover(base, spec)
        z = cx.fundamental_cycle(cover)
        assert workloads.is_fundamental_cycle(cover, z)
        key, c = next(iter(z.terms.items()))
        z.terms[key] = -c  # still mass 1 everywhere, but no longer a cycle
        assert not workloads.is_fundamental_cycle(cover, z)
        z.terms[key] = 2 * c
        assert not workloads.is_fundamental_cycle(cover, z)


def test_volumes_smoke():
    wl = workloads.Volumes(7)
    wl.DIMS, wl.PER_CLASS = (2, 3), 1
    result, _ = run_workload(wl)
    assert result.ok == [True] * 6
    # three triangles, one ideal and one finite tetrahedron
    assert len(result.z_scores) == 5
    assert result.detail["vol_t_rse1e-4_s.p90"] >= result.detail["vol_t_rse1e-4_s.p50"] > 0


def test_constants_smoke():
    wl = workloads.Constants(7)
    wl.DIMS = (4,)
    result, tr = run_workload(wl, trace=True)
    assert result.ok == [True]
    metrics = layers.pass_metrics(tr, result.z_scores)
    assert metrics["constants.bisection_steps"] >= wl.DEPTH
    assert metrics["volume.deficit_cheap.calls"] > metrics["volume.deficit_verify.calls"] > 0
    assert 0 < metrics["constants.verify_useful_ratio"] <= 1
    assert len(result.z_scores) > 10  # v_4 and the all-ideal deficits


def test_deficit_check_rejects_a_wrong_deficit():
    K4, K5 = regular_ideal_simplex(4), regular_ideal_simplex(5)
    log = workloads.DeficitLog()
    log.calls = [(K4, oracles.V4, 1e-5, 1e-4)]
    assert log.check() == {4: True}
    log.calls.append((K4, oracles.V4, 0.3, 1e-4))  # too large
    assert log.check() == {4: False}
    log.calls = [(K5, oracles.V5_MC, 1e-4, 1e-3)]  # cross-checked: the first other call
    assert log.check() == {5: True}
    log.calls = [(K5, oracles.V5_MC, 0.3, 1e-3)]
    assert log.check() == {5: False}
    log.calls = [(K5, oracles.V5_MC, 1e-4, 1e-3), (K5, oracles.V5_MC, -1e-2, 1e-4)]
    assert log.check() == {5: False}  # not cross-checked, but bigger than v_5


def test_eps_band_rejects_a_search_that_finds_nothing():
    wl = workloads.Constants(0)
    for n in wl.DIMS:
        lo, hi = wl.EPS_BAND[n]
        assert wl.eps_in_band({"n": n, "eps_n": {"value": (lo * hi) ** 0.5}})
        assert not wl.eps_in_band({"n": n, "eps_n": {"value": 0.45}})


def test_check_row_rejects_a_wrong_constant():
    row = {"n": 4, "v_n": {"value": oracles.V4, "std_error": 5e-5},
           "alpha_n": {"value": math.acos(1 / 3)}, "k_n": {"value": 5},
           "eps_n": {"value": 1e-4, "flag": "empirical-search"},
           "eta_n": {"value": 1e-3}, "a_n": {"value": 0.01},
           "C_n": {"value": 1 - 1e-4 / 12}}
    assert workloads.check_row(row)
    row["C_n"] = {"value": 1 - 1e-4 / 11}
    assert not workloads.check_row(row)


def result_line(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_run_prints_every_metric():
    cmd = [sys.executable, "perfbench/run.py", "--workload", "covers", "--seed", "3",
           "--seconds", "1", "--trace"]
    proc = subprocess.run(cmd + ["0"], cwd=ROOT, capture_output=True, text=True, check=True,
                          timeout=170)
    plain = result_line(proc)
    detail = json.loads(proc.stdout.strip().splitlines()[-2])["detail"]
    assert detail["cover_simplices_per_s"]["unit"] == "1/s"
    assert detail["fail_frac"] == {"value": 0.0, "unit": "frac"}
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(plain) == {"correct", "attempted", "failed", "metrics"}
    assert plain["correct"] and plain["failed"] == 0
    for m in bench["end_to_end"]:
        assert plain["metrics"][m["name"]]["unit"] == m["unit"]
        assert plain["metrics"][m["name"]]["value"] > 0
    traced = result_line(subprocess.run(cmd + ["1"], cwd=ROOT, capture_output=True,
                                        text=True, check=True, timeout=170))
    assert [m["name"] for m in bench["per_layer"]] == list(traced["metrics"])


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "covers",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0 and proc.stdout == ""
