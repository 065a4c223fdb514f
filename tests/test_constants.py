import json
import math
from collections import defaultdict
from fractions import Fraction as F

import pytest

from hypstab import constants
from hypstab.constants import (
    BudgetReport,
    LemmaConstants,
    alpha_k_table,
    angle_bracket,
    budget_check,
    compute_Cn,
    constants_row,
    delta_n,
    estimate_a_eps,
    margin_a,
    regular_simplex_passes_lemmas,
    row_as_dict,
    rows_to_csv,
    rows_to_text,
)
from hypstab.minkowski import GeometryError, random_isometry
from hypstab.simplex import apply_isometry, min_face_clearance, regular_ideal_simplex
from hypstab.volume import ideal_regular_volume, volume_deficit_vs_regular

TWO_PI = 2 * math.pi


def test_alpha_table_paper_values():
    rows = {r.n: r for r in alpha_k_table(3, 8)}
    assert rows[4].k == 5
    for n in range(5, 9):
        assert rows[n].k == 4
    assert rows[3].integer_exception
    assert abs(rows[3].ratio - 6.0) < 1e-12
    for n in range(3, 9):
        assert rows[n].alpha == pytest.approx(math.acos(1.0 / (n - 1)), abs=1e-10)


def test_alpha_bracket_strict():
    # interval check: margins dwarf 1e-14
    for r in alpha_k_table(4, 8):
        assert r.k * r.alpha < TWO_PI - 1e-14
        assert (r.k + 1) * r.alpha > TWO_PI + 1e-14


def test_alpha_table_rejects_low_n():
    with pytest.raises(GeometryError):
        alpha_k_table(2, 5)


def test_margin_a_values():
    # independent arithmetic: a_n = min(alpha(k+1)/2pi - 1, 1 - alpha k/2pi)/2
    for n in (4, 5, 6):
        alpha = math.acos(1.0 / (n - 1))
        k = math.floor(TWO_PI / alpha)
        expect = min(alpha * (k + 1) / TWO_PI - 1.0, 1.0 - alpha * k / TWO_PI) / 2.0
        assert margin_a(n) == pytest.approx(expect, abs=1e-15)
        lo, hi = angle_bracket(n, margin_a(n))
        assert lo < alpha < hi


def test_compute_Cn():
    assert compute_Cn(0.12, 0.03, 0.1, 1.0) == pytest.approx(0.9985, abs=1e-12)
    assert compute_Cn(F(12, 100), F(3, 100), F(1, 10), F(1)) == F(9985, 10000)
    for bad in ((0.0, 1.0, 1.0, 1.0), (0.1, -1.0, 1.0, 1.0), (0.1, 1.0, 0.0, 1.0)):
        with pytest.raises(GeometryError):
            compute_Cn(*bad)
    with pytest.raises(GeometryError):
        compute_Cn(0.12, 3.0, 0.5, 1.0)  # eta = 3 v_n boundary
    assert compute_Cn(1e-5, 2.6e-3, 1e-2, 0.27) < 1.0
    with pytest.raises(GeometryError):
        compute_Cn(1e-9, 1e-9, 1e-9, 1.0)  # gap underflows double precision


def test_delta_positive_and_stable():
    deltas = {}
    for n in (4, 5, 6):
        d = delta_n(n)
        assert d > 0
        deltas[n] = d
        assert d == pytest.approx(min_face_clearance(regular_ideal_simplex(n)) / 3.0,
                                  abs=1e-15)
    # isometry re-embedding stability
    for n in (4, 5):
        K = regular_ideal_simplex(n)
        for k in range(3):
            g = random_isometry(n, seed=60 + k)
            c = min_face_clearance(apply_isometry(g, K))
            assert c / 3.0 == pytest.approx(deltas[n], abs=1e-6)


def test_regular_simplex_passes_at_eps_zero():
    for n in (4, 5):
        assert regular_simplex_passes_lemmas(n, margin_a(n), delta_n(n))


CONSTS = LemmaConstants(F(1, 10), F(1, 100), F(1, 50), F(27, 100), 5)


def test_budget_stima1a_identity():
    rep = BudgetReport(4, F(12), F(11), F(1), F(6), F(36))
    out = budget_check(rep, CONSTS)
    v = out["stima1a"]
    assert v.hypothesis_holds
    # t_s = t/12 exactly: derivation chain meets the stated bound
    assert v.stated_bound == v.derived_bound
    assert v.stated_bound == (1 - CONSTS.eps_n / 12) * rep.t * CONSTS.v_n


def test_budget_stima2_identity():
    # e_f = t/2 with N = 5t: the proof chain value equals tv(1 - eta/(3v))
    rep = BudgetReport(4, F(12), F(12), F(0), F(6), F(60))
    out = budget_check(rep, CONSTS)
    v = out["stima2"]
    assert v.hypothesis_holds
    assert v.derived_bound == v.stated_bound
    assert out["stimaN"].claim_holds


def test_budget_stima3_identity():
    # N = (k+1) e_f at e_f = t/2: bound tv - a eta t / 2
    rep = BudgetReport(4, F(12), F(12), F(0), F(6), F(36))
    out = budget_check(rep, CONSTS)
    v = out["stima3"]
    assert v.hypothesis_holds
    assert v.stated_bound == v.derived_bound
    assert v.stated_bound == rep.t * CONSTS.v_n - CONSTS.a_n * CONSTS.eta_n * rep.t / 2


def test_budget_m_inequalities_and_implied_bound():
    rep = BudgetReport(4, F(12), F(11), F(1), F(6), F(36))
    out = budget_check(rep, CONSTS)
    assert out.m1 == rep.e_f * CONSTS.eta_n
    assert out.m3 == rep.t_s * CONSTS.v_n
    assert out.stima1 == (rep.t * CONSTS.v_n
                          + CONSTS.eta_n * (rep.e_f - (1 + CONSTS.a_n) * rep.N / 6))
    c = compute_Cn(CONSTS.eps_n, CONSTS.eta_n, CONSTS.a_n, CONSTS.v_n)
    assert out.implied_vol_bound == rep.t * CONSTS.v_n * c


def test_budget_inconsistent_counts():
    with pytest.raises(GeometryError):
        BudgetReport(4, 12, 10, 1, 6, 36)
    with pytest.raises(GeometryError):
        budget_check(BudgetReport(4, 12, 11, 1, 6, 5), CONSTS)  # N < (k+1) e_f


QUICK = dict(restarts=8, bisection_depth=8, climb_iters=6,
             cheap_budget=2048, verify_budget=65536, eps_start=2e-3)


def test_estimate_a_eps_quick():
    ref = dict(delta=delta_n(4), v_n=ideal_regular_volume(4).value)
    a, eps, audit = estimate_a_eps(4, seed=0, **QUICK, **ref)
    assert a == pytest.approx(margin_a(4), abs=1e-15)
    assert eps > 0
    assert audit.final_eps == eps
    # deterministic replay
    a2, eps2, audit2 = estimate_a_eps(4, seed=0, **QUICK, **ref)
    assert (a2, eps2) == (a, eps)
    assert [(s.eps, s.counterexample) for s in audit.steps] == \
           [(s.eps, s.counterexample) for s in audit2.steps]
    assert audit.as_dict()["n"] == 4
    # replay from the settings the audit records, and nothing else
    d = audit.as_dict()
    settings = dict(seed=d["seed"], restarts=d["restarts"], bisection_depth=d["depth"],
                    climb_iters=d["climb_iters"], cheap_budget=d["cheap_budget"],
                    verify_budget=d["verify_budget"], probe_levels=d["probe_levels"],
                    eps_start=d["eps_start"], delta=d["delta"], v_n=d["v_n"])
    assert (d["verify_budget"], d["eps_start"]) == (QUICK["verify_budget"], QUICK["eps_start"])
    a3, eps3, audit3 = estimate_a_eps(d["n"], **settings)
    assert (a3, eps3) == (a, eps)
    assert [(s.eps, s.counterexample) for s in audit3.steps] == \
           [(s.eps, s.counterexample) for s in audit.steps]
    assert audit3.as_dict() == d


#: The n = 4 QUICK search's steps when every hill-climb candidate drew a
#: cheap deficit: (eps, counterexample, best violation, best deficit) as
#: float.hex, and the number of cheap deficits.
QUICK_STEPS_N4 = [
    ('0x1.0624dd2f1a9fcp-9', True, '0x1.18ed83b8850a0p-5', '0x1.279ea429d5e6ap-10', 12),
    ('0x1.0624dd2f1a9fcp-10', True, '0x1.a5eb624a12c00p-9', '0x1.7e9bea6f3601fp-12', 6),
    ('0x1.0624dd2f1a9fcp-11', False, '0x1.88e245b5c8c00p-5', '0x1.4a72d7e0f4a34p-7', 48),
    ('0x1.89374bc6a7efap-11', False, '0x1.23ca33755fb80p-4', '0x1.9a11b0340a764p-5', 48),
    ('0x1.cac083126e979p-11', False, '0x1.49fb8eb170c00p-3', '0x1.ace6d42e3e95ap-6', 48),
    ('0x1.eb851eb851eb8p-11', True, '0x1.1a62e01092700p-8', '0x1.b409927a7f334p-11', 6),
    ('0x1.db22d0e560418p-11', False, '0x1.5e5166df452c0p-4', '0x1.9b957eca5a743p-7', 48),
    ('0x1.e353f7ced9168p-11', True, '0x1.b134f35540400p-10', '0x1.0c61959e27f41p-11', 6),
    ('0x1.db22d0e560418p-12', False, '0x1.7600e6e9b0480p-4', '0x1.055cede7ec4f0p-6', 48),
    ('0x1.db22d0e560418p-13', True, '0x1.7ec1f4e26dc00p-9', '0x1.a1a734d93c146p-13', 18),
]


def test_search_skips_deficits_that_cannot_matter():
    # a candidate whose violation cannot beat the current score gets no
    # deficit; the audit is unchanged bit for bit and the climbs draw fewer
    _, _, audit = estimate_a_eps(4, seed=0, **QUICK, delta=delta_n(4),
                                 v_n=ideal_regular_volume(4).value)
    assert [(s.eps.hex(), s.counterexample, s.best_violation.hex(), s.best_deficit.hex())
            for s in audit.steps] == [step[:4] for step in QUICK_STEPS_N4]
    cheap = [s.cheap_evals for s in audit.steps]
    assert all(now <= then[4] for now, then in zip(cheap, QUICK_STEPS_N4))
    assert sum(cheap) < sum(step[4] for step in QUICK_STEPS_N4)


@pytest.fixture(scope="module")
def verify_log():
    """A QUICK n = 5 search with every deficit call recorded.

    Returns the audit's steps by step index and the calls: (seed,
    keyword arguments, deficit, sigma).
    """
    calls, order = [], []
    deficit, search = constants.volume_deficit_vs_regular, constants._counterexample_search

    def recorded_deficit(K, **kwargs):
        result = deficit(K, **kwargs)
        calls.append((list(kwargs["seed"]), dict(kwargs, K=K), *result))
        return result

    def recorded_search(n, eps, a, delta, v_ref, seed, step_idx, *rest):
        order.append(step_idx)
        return search(n, eps, a, delta, v_ref, seed, step_idx, *rest)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(constants, "volume_deficit_vs_regular", recorded_deficit)
        mp.setattr(constants, "_counterexample_search", recorded_search)
        _, _, audit = estimate_a_eps(5, seed=0, **QUICK, delta=delta_n(5),
                                     v_n=ideal_regular_volume(5).value)
    return dict(zip(order, audit.steps)), calls


def _verify_groups(calls):
    """The verify calls (seed[3] = 0xACC) of each candidate (step index, restart)."""
    groups = defaultdict(list)
    for call in calls:
        seed = call[0]
        if seed[3] == 0xACC:
            groups[seed[1], seed[2]].append(call)
    return groups


VERIFY_STAGES = [(QUICK["verify_budget"] >> 4, [0xACC, 1]),
                 (QUICK["verify_budget"] >> 2, [0xACC, 2]),
                 (QUICK["verify_budget"], [0xACC])]


def test_verify_cascade_stages(verify_log):
    steps, calls = verify_log
    stops = defaultdict(int)
    for (step, r), group in _verify_groups(calls).items():
        eps = steps[step].eps
        # 1/16 of the budget first; the full stage keeps the seed [seed, step, r, 0xACC]
        assert [(kw["budget"], seed) for seed, kw, _, _ in group] == \
               [(budget, [0, step, r, *tag]) for budget, tag in VERIFY_STAGES[:len(group)]]
        # the next stage runs exactly when a stage is within 4 sigma of eps
        for _, _, d, sigma in group[:-1]:
            assert abs(d - eps) <= 4.0 * sigma
        _, _, d, sigma = group[-1]
        assert len(group) == 3 or abs(d - eps) > 4.0 * sigma
        stops[len(group)] += 1
    # the run covers early stops at both stages and verifies at the full budget
    assert min(stops[1], stops[2], stops[3]) > 0, dict(stops)
    # the audit counts every cheap deficit and every verify stage of its step
    for step, record in steps.items():
        mine = [seed for seed, *_ in calls if seed[1] == step]
        assert record.verify_evals == sum(seed[3] == 0xACC for seed in mine)
        assert record.cheap_evals == len(mine) - record.verify_evals


def test_verify_cascade_matches_full_budget(verify_log):
    steps, calls = verify_log
    found = defaultdict(bool)
    for (step, r), group in _verify_groups(calls).items():
        eps = steps[step].eps
        _, kwargs, d, sigma = group[-1]
        full = volume_deficit_vs_regular(**dict(kwargs, budget=QUICK["verify_budget"],
                                                seed=[0, step, r, 0xACC]))
        if len(group) == 3:
            assert (d, sigma) == full  # bit for bit the single full-budget verify
        else:
            assert abs(d - eps) > 4.0 * sigma
            assert (d <= eps) == (full[0] <= eps), (step, r, d, full)
        found[step] |= d <= eps
    for step, record in steps.items():
        assert record.counterexample == found[step]


def test_estimate_a_eps_accepted_start_is_not_bisected(monkeypatch):
    # eps_start accepted at once leaves no bracket: the two retreat checks
    # follow, not depth - 1 reruns of eps_start
    monkeypatch.setattr(constants, "_counterexample_search",
                        lambda *args: (False, -1.0, 0.0, 0, 0))
    _, eps, audit = estimate_a_eps(4, seed=0, **QUICK, delta=delta_n(4), v_n=1.0)
    start = QUICK["eps_start"]
    assert [s.eps for s in audit.steps] == [start, start / 2, start / 4]
    assert eps == start / 2 and audit.halved_eps_confirmed


def test_estimate_a_eps_rejects_low_dim():
    with pytest.raises(GeometryError):
        estimate_a_eps(3, delta=0.1, v_n=1.0)


@pytest.mark.parametrize("setting", ["restarts", "bisection_depth", "climb_iters"])
@pytest.mark.parametrize("count", [0, -3])
def test_estimate_a_eps_rejects_empty_search(setting, count):
    # a search that evaluates no simplex finds no counterexample at any eps
    with pytest.raises(GeometryError, match=setting):
        estimate_a_eps(4, **{setting: count}, delta=0.1, v_n=1.0)


def test_row_serialization_round_trip():
    # serialization only; uses a quick, deterministic row
    row, _ = constants_row(4, seed=1, restarts=4,
                           bisection_depth=6, climb_iters=4,
                           cheap_budget=1024, verify_budget=16384,
                           eps_start=1e-3)
    assert row.C_n < 1.0
    assert row.eta_n > 0 and row.delta_n > 0 and row.eps_n > 0 and row.a_n > 0
    js = json.dumps(row_as_dict(row))
    assert '"C_n"' in js and '"empirical-search"' in js
    csv_text = rows_to_csv([row])
    header, data = csv_text.strip().split("\n")
    assert header.startswith("n,v_n,v_n_flag,alpha_n")  # no always-zero std error
    assert repr(row.C_n) in data
    table, flags = rows_to_text([row]).rsplit("\n", 1)
    assert "+-" not in table and "empirical" not in table
    assert flags == ("flags: v_n:exact alpha_n:exact k_n:exact delta_n:exact eta_n:exact "
                     "a_n:exact eps_n:empirical-search C_n:empirical-search")
