"""Acceptance suite: one criterion per test, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Criterion 4 runs the
full constants pipeline at default budgets and takes a few minutes; all
stated runtime ceilings are asserted.
"""

import functools
import math
import time
from fractions import Fraction as F

import numpy as np

from hypstab import bounds, lattices as lat
from hypstab.complexes import (
    CoverSpec,
    build_cover,
    cell_counts,
    characteristic_cover_spec,
    check_cover_spec,
    fundamental_cycle,
    inequality_dashboard,
    links,
    random_cover_spec,
    trivial_cover_spec,
    verify_cycle,
)
from hypstab.constants import (
    BudgetReport,
    LemmaConstants,
    alpha_k_table,
    budget_check,
    compute_Cn,
    constants_row,
    estimate_a_eps,
    regular_simplex_passes_lemmas,
)
from hypstab.fixtures import load_fixture
from hypstab.minkowski import mink, random_isometry
from hypstab.simplex import (
    all_facet_duals,
    apply_isometry,
    barycentric_coords,
    incenter_inradius,
    random_nondegenerate_simplex,
    regular_ideal_simplex,
)
from hypstab.volume import (
    ball_volume,
    ideal_regular_volume,
    lobachevsky,
    maximality_probe,
    simplex_volume,
)

TWO_PI = 2.0 * math.pi
V3 = 3.0 * lobachevsky(math.pi / 3.0)


def criterion(num, title, limit_s):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            start = time.monotonic()
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {num} ({title}): FAIL "
                      f"[{time.monotonic() - start:.1f}s]")
                raise
            elapsed = time.monotonic() - start
            assert elapsed < limit_s, f"runtime {elapsed:.1f}s over the {limit_s}s limit"
            print(f"ACCEPTANCE {num} ({title}): PASS [{elapsed:.1f}s]")
        return run
    return wrap


@criterion(1, "dihedral table", 1.0)
def test_criterion_1_dihedral_table():
    rows = {r.n: r for r in alpha_k_table(3, 8)}
    for n in range(3, 9):
        assert abs(rows[n].alpha - math.acos(1.0 / (n - 1))) < 1e-10
    assert rows[4].k == 5
    for n in range(5, 9):
        assert rows[n].k == 4
    for n in range(4, 9):
        r = rows[n]
        assert r.k * r.alpha < TWO_PI < (r.k + 1) * r.alpha
    assert abs(rows[3].ratio - 6.0) < 1e-12
    assert rows[3].integer_exception


@criterion(2, "volumes", 120.0)
def test_criterion_2_volumes():
    v2 = ideal_regular_volume(2)
    assert v2.value == math.pi and v2.std_error == 0.0
    est = simplex_volume(regular_ideal_simplex(3))  # default budget
    assert est.std_error <= 1e-3
    assert abs(est.value - V3) < 3.0 * est.std_error
    assert abs(V3 - 1.014942) < 1e-6
    probe = maximality_probe(3, trials=1000, seed=0)
    assert probe.violations == 0
    assert probe.degenerate_rejected >= 0


@criterion(3, "incenter correctness", 60.0)
def test_criterion_3_incenters():
    rng = np.random.default_rng(2024)
    for n in (3, 4, 5):
        for trial in range(200):
            K = random_nondegenerate_simplex(n, rng)
            res = incenter_inradius(K)
            sr = math.sinh(res.inradius)
            for d in all_facet_duals(K):
                assert abs(sr + mink(res.incenter.rep, d.q)) < 1e-9
            assert np.min(barycentric_coords(K, res.incenter)) > 0.0
            if trial % 10 == 0:
                g = random_isometry(n, seed=trial)
                r2 = incenter_inradius(apply_isometry(g, K)).inradius
                assert abs(r2 - res.inradius) < 1e-8


@criterion(4, "constants pipeline", 3600.0)
def test_criterion_4_constants_pipeline():
    for n in (4, 5):
        row, audit = constants_row(n, seed=0)
        assert row.delta_n > 0
        assert row.eta_n == ball_volume(n, row.delta_n)  # re-checked, not assumed
        assert row.eps_n > 0 and row.a_n > 0
        # verbatim formula
        c = max(1 - row.eps_n / 12,
                1 - row.eta_n / (3 * row.v_n.value),
                1 - row.a_n * row.eta_n / (2 * row.v_n.value))
        assert row.C_n == c
        assert row.C_n < 1.0
        assert compute_Cn(row.eps_n, row.eta_n, row.a_n, row.v_n.value) == c
        # the regular ideal simplex passes both lemma brackets at eps = 0
        assert regular_simplex_passes_lemmas(n, row.a_n, row.delta_n)
        assert audit.final_eps == row.eps_n
        assert audit.halved_eps_confirmed
        if n == 4:
            # audit trail replays to identical verdicts
            a2, eps2, audit2 = estimate_a_eps(n, seed=0, delta=row.delta_n,
                                              v_n=row.v_n.value)
            assert (a2, eps2) == (row.a_n, row.eps_n)
            assert [(s.eps, s.counterexample) for s in audit.steps] == \
                   [(s.eps, s.counterexample) for s in audit2.steps]


@criterion(5, "budget inequalities", 1.0)
def test_criterion_5_budget_identities():
    consts = LemmaConstants(F(3, 25), F(1, 80), F(1, 49), F(2689, 10000), 5)
    # stima1a at t_s = t/12: exact identity with the stated bound
    out = budget_check(BudgetReport(4, F(24), F(22), F(2), F(12), F(72)), consts)
    v = out["stima1a"]
    assert v.hypothesis_holds
    assert v.derived_bound == v.stated_bound == (1 - consts.eps_n / 12) * 24 * consts.v_n
    # stima2 at e_f = t/2 with N = 5t
    out = budget_check(BudgetReport(4, F(24), F(24), F(0), F(12), F(120)), consts)
    v = out["stima2"]
    assert v.hypothesis_holds
    assert v.derived_bound == v.stated_bound == 24 * consts.v_n * (1 - consts.eta_n / (3 * consts.v_n))
    assert out["stimaN"].claim_holds  # N >= 5t under t_s <= t/12, n >= 4
    # stima3 at N = (k_n+1) e_f with e_f = t/2
    out = budget_check(BudgetReport(4, F(24), F(24), F(0), F(12), F(72)), consts)
    v = out["stima3"]
    assert v.hypothesis_holds
    assert v.derived_bound == v.stated_bound == 24 * consts.v_n - consts.a_n * consts.eta_n * F(24) / 2


@criterion(6, "fundamental cycles", 10.0)
def test_criterion_6_fundamental_cycles():
    rng = np.random.default_rng(99)
    complexes = []
    for name in ("sphere", "torus", "boundary-4-simplex", "figure-eight"):
        T = load_fixture(name)
        complexes.append(T)
        if name == "torus":
            complexes.append(build_cover(T, characteristic_cover_spec(T, 2)))
            complexes.append(build_cover(T, random_cover_spec(T, 5, rng)))
        elif name == "sphere":
            # simply connected: every unbranched cover is trivial
            complexes.append(build_cover(T, trivial_cover_spec(T, 3)))
        elif name == "figure-eight":
            complexes.append(build_cover(T, random_cover_spec(T, 2, rng)))
        else:
            complexes.append(build_cover(T, trivial_cover_spec(T, 2)))
    for T in complexes:
        z = fundamental_cycle(T)
        assert verify_cycle(T, z)
        assert z.l1() <= F(T.simplex_count)


@criterion(7, "coverings", 30.0)
def test_criterion_7_coverings():
    T = load_fixture("torus")
    base = cell_counts(T)
    rng = np.random.default_rng(777)
    for _ in range(20):
        d = int(rng.integers(2, 9))
        cov = build_cover(T, random_cover_spec(T, d, rng))
        counts = cell_counts(cov)
        assert counts.f_vector == tuple(d * f for f in base.f_vector)
        assert counts.euler == d * base.euler
    for x in (2, 3):
        spec = characteristic_cover_spec(T, x)
        assert spec.degree == x * x
        assert build_cover(T, spec).simplex_count == x * x * T.simplex_count
    branched = CoverSpec(3, {0: (1, 2, 0), 1: (1, 0, 2), 2: (0, 1, 2)})
    offending = check_cover_spec(T, branched)
    assert offending and offending[0].steps  # named codim-2 cycle
    for m in range(1, 13):
        subs = lat.subgroups_of_index(m)
        assert len(subs) == lat.sigma_1(m)
        assert all(lat.contains(s, lat.x_characteristic(m)) for s in subs)


@criterion(8, "figure-eight fixture", 5.0)
def test_criterion_8_figure_eight():
    T = load_fixture("figure-eight")
    counts = cell_counts(T)
    assert counts.f_vector == (1, 2, 4, 2)
    rep = links(T)
    assert len(rep.vertex_links) == 1 and rep.vertex_links[0].euler == 0
    valences = sorted(e.valence for e in rep.edges)
    assert valences == [6, 6]
    alpha3 = alpha_k_table(3, 3)[0]
    assert abs(valences[0] - alpha3.ratio) < 1e-12  # 6 = 2 pi / alpha_3
    dash = inequality_dashboard(T)
    assert any("2 v_3" in a and "2.029883" in a for a in dash.annotations)
    assert any("||N|| = 2" in a for a in dash.annotations)
    assert abs(2 * V3 - 2.029883) < 1e-6


@criterion(9, "bound calculators", 1.0)
def test_criterion_9_bounds():
    # formula values at d = 100 and d = 1000 for e = 0, chi = -2; the
    # sequence dips below 0.02 at d = 1000 (see the decisions ledger on
    # the d = 100 figure)
    seq = bounds.seifert_bound(0, -2, [100, 1000])
    assert seq[0].normalized == F(1206, 10000) if isinstance(seq[0].normalized, F) \
        else abs(seq[0].normalized - 0.1206) < 1e-12
    assert seq[1].normalized < 0.02
    vals = [cb.normalized for cb in bounds.seifert_bound(0, -2, [1, 10, 100, 1000, 10000])]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    r = bounds.jsj_cover_bound(5, 3, 2, 1, 1, 1000)
    assert abs(r.normalized - 5) < 0.01
    preset = bounds.FIGURE_EIGHT_FILLING
    r = bounds.filling_bound(preset["v_a"], preset["v_b"], preset["v_d"], 10 ** 9)
    assert r.limit == 2
    assert abs(r.normalized - 2) < 1e-8
