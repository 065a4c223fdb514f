import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from hypstab.minkowski import GeometryError, lift_klein, random_isometry
from hypstab.simplex import (
    GeodesicSimplex,
    apply_isometry,
    barycentric_point,
    dihedral_angle,
    random_nondegenerate_simplex,
    regular_ideal_simplex,
)
from hypstab.volume import (
    ball_volume,
    ideal_regular_volume,
    lobachevsky,
    maximality_probe,
    simplex_volume,
    sphere_area,
    volume_deficit_vs_regular,
    VolumeEstimate,
    MONTE_CARLO,
)

# frozen via the quadrature oracle below: 3 * Lambda(pi/3)
V3 = 1.0149416064096536


def quad_lobachevsky(theta):
    val, _ = integrate.quad(lambda t: -math.log(abs(2.0 * math.sin(t))), 0.0, theta,
                            limit=300)
    return val


def test_lobachevsky_special_values():
    assert lobachevsky(0.0) == 0.0
    assert abs(lobachevsky(math.pi / 2)) < 1e-14
    assert abs(lobachevsky(math.pi)) < 1e-14


def test_lobachevsky_vs_quadrature():
    for theta in (math.pi / 6, math.pi / 3, 0.3, 1.2, 1.5):
        assert lobachevsky(theta) == pytest.approx(quad_lobachevsky(theta), abs=1e-11)
    assert 3.0 * lobachevsky(math.pi / 3) == pytest.approx(V3, abs=1e-13)


@settings(max_examples=40)
@given(st.floats(-3.0, 3.0, allow_nan=False))
def test_lobachevsky_odd_periodic(theta):
    assert lobachevsky(-theta) == pytest.approx(-lobachevsky(theta), abs=1e-12)
    assert lobachevsky(theta + math.pi) == pytest.approx(lobachevsky(theta), abs=1e-12)


@settings(max_examples=20)
@given(st.floats(0.05, 1.5))
def test_lobachevsky_distribution_relation(theta):
    # Lambda(2t) = 2 Lambda(t) + 2 Lambda(t + pi/2)
    lhs = lobachevsky(2 * theta)
    rhs = 2 * lobachevsky(theta) + 2 * lobachevsky(theta + math.pi / 2)
    assert lhs == pytest.approx(rhs, abs=1e-11)


def test_ball_volume_closed_forms():
    assert ball_volume(3, 0.0) == 0.0
    for r in (0.1, 0.7, 1.3, 2.0):
        assert ball_volume(2, r) == pytest.approx(2 * math.pi * (math.cosh(r) - 1),
                                                  abs=1e-10)
        assert ball_volume(3, r) == pytest.approx(math.pi * (math.sinh(2 * r) - 2 * r),
                                                  abs=1e-10)
    assert sphere_area(3) == pytest.approx(4 * math.pi, abs=1e-12)


def test_ball_volume_monotone():
    rs = np.linspace(0.05, 2.0, 15)
    for n in (2, 3, 4, 5):
        vals = [ball_volume(n, r) for r in rs]
        assert all(a < b for a, b in zip(vals, vals[1:]))


def test_volume_estimate_invariant():
    with pytest.raises(GeometryError):
        VolumeEstimate(1.0, 0.1, 0, "series")


def test_ideal_regular_volume_low_dims():
    v2 = ideal_regular_volume(2)
    assert v2.value == math.pi and v2.std_error == 0.0
    v3 = ideal_regular_volume(3)
    assert v3.value == pytest.approx(V3, abs=1e-13)
    assert v3.method == "series"


def test_mc_ideal_triangle_is_pi():
    est = simplex_volume(regular_ideal_simplex(2), budget=300_000, seed=4)
    assert est.method == MONTE_CARLO
    assert abs(est.value - math.pi) < 3 * est.std_error
    assert est.std_error < 3e-3


def test_mc_v3_matches_series():
    est = simplex_volume(regular_ideal_simplex(3), budget=300_000, seed=5)
    assert abs(est.value - V3) < 3 * est.std_error


def test_mc_matches_angle_defect_oracle():
    # area of a hyperbolic triangle = pi - sum of interior angles; vertex
    # angles come from the facet duals and vanish at ideal vertices
    rng = np.random.default_rng(31)
    for _ in range(4):
        K = random_nondegenerate_simplex(2, rng, ideal_prob=0.4)
        angles = [dihedral_angle(K, i, j) for i, j in itertools.combinations(range(3), 2)]
        defect = math.pi - sum(angles)
        est = simplex_volume(K, budget=200_000, seed=8)
        assert abs(est.value - defect) < max(4 * est.std_error, 2e-3)


def test_mc_deterministic_per_seed():
    K = regular_ideal_simplex(3)
    a = simplex_volume(K, budget=50_000, seed=9)
    b = simplex_volume(K, budget=50_000, seed=9)
    assert a == b
    c = simplex_volume(K, budget=50_000, seed=10)
    assert c.value != a.value


def test_mc_isometry_invariance():
    K = regular_ideal_simplex(3)
    a = simplex_volume(K, budget=400_000, seed=1)
    g = random_isometry(3, seed=2)
    b = simplex_volume(apply_isometry(g, K), budget=400_000, seed=3)
    assert abs(a.value - b.value) < 3 * math.hypot(a.std_error, b.std_error)


def test_mc_face_additivity():
    # subdividing at an interior point: volumes of the n+1 pieces sum to vol(K)
    rng = np.random.default_rng(17)
    K = random_nondegenerate_simplex(2, rng, ideal_prob=0.5)
    p = barycentric_point(K, [0.4, 0.3, 0.3])
    total = 0.0
    var = 0.0
    for i in range(3):
        verts = list(K.vertices)
        verts[i] = p
        piece = simplex_volume(GeodesicSimplex(tuple(verts), 2),
                               budget=150_000, seed=20 + i)
        total += piece.value
        var += piece.std_error ** 2
    whole = simplex_volume(K, budget=400_000, seed=30)
    assert abs(total - whole.value) < 3 * math.sqrt(var + whole.std_error ** 2)


def test_mc_rejects_bad_input():
    with pytest.raises(GeometryError):
        simplex_volume(regular_ideal_simplex(3, 2))  # not full-dimensional
    with pytest.raises(GeometryError):
        simplex_volume(regular_ideal_simplex(3), budget=10)
    with pytest.raises(GeometryError):
        simplex_volume(regular_ideal_simplex(3), levels=0)  # corners left unsampled


def test_deficit_estimator():
    K = regular_ideal_simplex(3)
    d, sd = volume_deficit_vs_regular(K, budget=8192, seed=0, v_ref=V3)
    assert d == 0.0 and sd == 0.0  # identical integrands, common samples
    # perturbed simplex: deficit agrees with a plain high-budget estimate
    base = K.klein_vertices()
    rng = np.random.default_rng(2)
    kv = base + 0.05 * rng.standard_normal(base.shape)
    kv /= np.linalg.norm(kv, axis=1, keepdims=True)
    Kp = GeodesicSimplex(tuple(lift_klein(x, ideal=True) for x in kv), 3)
    d, sd = volume_deficit_vs_regular(Kp, budget=120_000, seed=3, v_ref=V3)
    est = simplex_volume(Kp, budget=2_000_000, seed=4)
    plain = (V3 - est.value) / V3
    assert d > 0
    assert abs(d - plain) < 3 * math.hypot(sd, est.std_error / V3)


# Gauss-Bonnet for the regular ideal 4-simplex: (pi/3)(4 pi - 10 arccos(1/3))
V4 = 4 * math.pi ** 2 / 3 - 10 * math.pi / 3 * math.acos(1 / 3)


def exact_ideal_volume(K):
    """Milnor (n = 3) or Gauss-Bonnet (n = 4) volume of an ideal simplex."""
    if K.ambient_dim == 3:
        return sum(quad_lobachevsky(dihedral_angle(K, 0, j)) for j in (1, 2, 3))
    angles = sum(dihedral_angle(K, i, j) for i, j in itertools.combinations(range(5), 2))
    return math.pi / 3 * (4 * math.pi - angles)


@pytest.mark.parametrize("n, v_n", [(3, V3), (4, V4)])
def test_deficit_vs_exact_oracle(n, v_n):
    # the exact volumes share no code with the stratified sampler behind
    # both volume_deficit_vs_regular and simplex_volume
    base = regular_ideal_simplex(n).klein_vertices()
    rng = np.random.default_rng(40 + n)
    for i, scale in enumerate(np.linspace(0.02, 0.29, 10)):
        kv = base + scale * rng.standard_normal(base.shape)
        kv /= np.linalg.norm(kv, axis=1, keepdims=True)
        K = GeodesicSimplex(tuple(lift_klein(x, ideal=True) for x in kv), n)
        d, sd = volume_deficit_vs_regular(K, budget=32768, seed=i, levels=12, v_ref=v_n)
        exact = (v_n - exact_ideal_volume(K)) / v_n
        assert abs(d - exact) <= 4 * sd


# frozen from a 20M-sample run (0.2689044 +- 1.8e-5), cross-checked against
# the default-budget estimator at 10x budget
V4_REF = 0.2689044


def test_v4_default_budget_accuracy():
    est = ideal_regular_volume(4, seed=123)
    assert est.method == MONTE_CARLO
    assert est.std_error <= 1e-3 * est.value
    assert abs(est.value - V4_REF) < 3 * (est.std_error + 1.8e-5)


def test_vn_decreasing_in_n():
    # observed property of the v_n sequence, not a paper claim
    v4 = ideal_regular_volume(4, budget=200_000, seed=3)
    v5 = ideal_regular_volume(5, budget=200_000, seed=3)
    assert V3 > v4.value + 5 * v4.std_error
    assert v4.value - 5 * v4.std_error > v5.value + 5 * v5.std_error


def test_maximality_probe_smoke():
    rep = maximality_probe(2, trials=60, seed=0, budget_per_trial=2000, levels=8)
    assert rep.violations == 0
    assert rep.max_value < rep.v_ref + 3 * rep.max_std_error
    assert rep.max_gram.shape == (3, 3)
    rep3 = maximality_probe(3, trials=25, seed=1, budget_per_trial=2000, levels=8)
    assert rep3.violations == 0
    assert rep3.max_value < rep3.v_ref + 3 * rep3.max_std_error


def test_near_regular_volumes_increase():
    # shrinking the perturbation pushes the volume up towards v_3
    base = regular_ideal_simplex(3).klein_vertices()
    rng = np.random.default_rng(6)
    noise = rng.standard_normal(base.shape)
    vols = []
    for s in (0.4, 0.2, 0.08, 0.0):
        kv = base + s * noise
        kv /= np.linalg.norm(kv, axis=1, keepdims=True)
        K = GeodesicSimplex(tuple(lift_klein(x, ideal=True) for x in kv), 3)
        d, sd = volume_deficit_vs_regular(K, budget=60_000, seed=11, v_ref=V3)
        vols.append(V3 * (1 - d))
    assert all(b > a - 2e-3 for a, b in zip(vols, vols[1:]))
    assert vols[-1] == pytest.approx(V3, abs=1e-12)
