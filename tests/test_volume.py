import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from hypstab import volume
from hypstab.minkowski import GeometryError, lift_klein, random_isometry
from hypstab.simplex import (
    GeodesicSimplex,
    apply_isometry,
    barycentric_point,
    dihedral_angle,
    dihedral_angles,
    is_degenerate,
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
    EXACT,
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
    assert math.isnan(lobachevsky(math.nan))
    assert 0.0 < lobachevsky(5e-324) < 1e-320  # every node of a subnormal range is 0
    assert lobachevsky(-1e-20) == -lobachevsky(1e-20) < 0.0  # -1e-20 + pi rounds to pi


def test_lobachevsky_vs_quadrature():
    # 1e-8 and pi/2 - 1e-9 sit next to the ends of the reduced range
    for theta in (math.pi / 6, math.pi / 3, 0.3, 1.2, 1.5, 1e-8, math.pi / 2 - 1e-9, 1.56):
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


def quad_ball_volume(n, r):
    val, _ = integrate.quad(lambda t: math.sinh(t) ** (n - 1), 0.0, r,
                            epsabs=0.0, epsrel=1e-13, limit=200)
    return sphere_area(n) * val


#: radii inside one panel of the rule and across several
RADII = (0.1, 0.7, 1.3, 2.0, 2.5, 6.0)


def test_ball_volume_closed_forms():
    assert ball_volume(3, 0.0) == 0.0
    for r in RADII:
        c1 = 2 * math.sinh(r / 2) ** 2  # cosh r - 1 without cancellation
        assert ball_volume(2, r) == pytest.approx(2 * math.pi * c1, rel=1e-12)
        assert ball_volume(3, r) == pytest.approx(math.pi * (math.sinh(2 * r) - 2 * r),
                                                  rel=1e-12)
        # 2 pi^2 (cosh^3 r / 3 - cosh r + 2/3), factored
        assert ball_volume(4, r) == pytest.approx(
            2 * math.pi ** 2 * c1 ** 2 * (math.cosh(r) + 2) / 3, rel=1e-12)
    assert sphere_area(3) == pytest.approx(4 * math.pi, abs=1e-12)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_ball_volume_vs_quadrature(n):
    for r in RADII:
        assert ball_volume(n, r) == pytest.approx(quad_ball_volume(n, r), rel=1e-12)


@pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf, -0.5, 800.0])
def test_ball_volume_rejects_bad_radius(r):
    # non-finite, negative, or a volume beyond the largest float
    with pytest.raises(GeometryError):
        ball_volume(4, r)


def test_ball_volume_monotone():
    rs = np.linspace(0.05, 2.0, 15)
    for n in (2, 3, 4, 5):
        vals = [ball_volume(n, r) for r in rs]
        assert all(a < b for a, b in zip(vals, vals[1:]))


def test_volume_estimate_invariant():
    with pytest.raises(GeometryError):
        VolumeEstimate(1.0, 0.1, 0, EXACT)


def test_ideal_regular_volume_low_dims():
    v2 = ideal_regular_volume(2)
    assert v2.value == math.pi and v2.std_error == 0.0
    v3 = ideal_regular_volume(3)
    assert v3.value == pytest.approx(V3, abs=1e-13)
    assert v3.method == EXACT


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


def _jittered_ideal(n, scale, rng):
    """The regular ideal n-simplex with its Klein vertices moved by about
    `scale` and pushed back onto the sphere."""
    kv = regular_ideal_simplex(n).klein_vertices()
    kv = kv + scale * rng.standard_normal(kv.shape)
    kv /= np.linalg.norm(kv, axis=1, keepdims=True)
    return GeodesicSimplex(tuple(lift_klein(x, ideal=True) for x in kv), n)


@pytest.mark.parametrize("n, v_n", [(3, V3), (4, V4)])
def test_deficit_vs_exact_oracle(n, v_n):
    # the exact volumes share no code with the stratified sampler behind
    # both volume_deficit_vs_regular and simplex_volume
    rng = np.random.default_rng(40 + n)
    for i, scale in enumerate(np.linspace(0.02, 0.29, 10)):
        K = _jittered_ideal(n, scale, rng)
        d, sd = volume_deficit_vs_regular(K, budget=32768, seed=i, levels=12, v_ref=v_n)
        exact = (v_n - exact_ideal_volume(K)) / v_n
        assert abs(d - exact) <= 4 * sd


def test_deficit_sigma_is_calibrated():
    # the Neyman allocation weighs each stratum by a 16-draw pilot spread:
    # over a family of ideal simplices the reported sigma must not
    # understate the error against the exact volumes
    rng = np.random.default_rng(22)
    z = []
    for n, v_n in ((3, V3), (4, V4)):
        for i, scale in enumerate(np.geomspace(0.003, 0.1, 50)):
            K = _jittered_ideal(n, scale, rng)
            exact = (v_n - exact_ideal_volume(K)) / v_n
            for budget in (4096, 65536):
                d, sd = volume_deficit_vs_regular(K, budget, [i, budget], 14, v_ref=v_n)
                z.append((d - exact) / sd)
    z = np.array(z)
    assert np.mean(np.abs(z) <= 2.0) >= 0.9, np.std(z)
    assert abs(np.mean(z)) <= 0.3, np.std(z)


def equal_split_sigma(K, budget, seed, levels, v_ref):
    """sigma of the deficit when every stratum draws max(32, budget // k)
    and reports its sample standard deviation: the split the Neyman
    allocation replaced."""
    n = K.ambient_dim
    exponent = -(n + 1) / 2.0
    mk, volk, _ = volume._klein_form(K)
    mr, volr, ideal_idx = volume._klein_form(regular_ideal_simplex(n))
    strata = volume._strata(n, ideal_idx, levels)
    per = max(32, budget // len(strata))
    var = 0.0
    for idx, (mass, corner) in enumerate(strata):
        lam = _ref_draw(np.random.default_rng([seed, 0xD1F, idx]), per, n, corner, ideal_idx)
        g = volk * _ref_density(lam, mk, exponent) - volr * _ref_density(lam, mr, exponent)
        var += (mass * float(g.std(ddof=1))) ** 2 / g.shape[0]
    return math.sqrt(var) / v_ref


@pytest.mark.parametrize("n", [4, 5])
def test_neyman_deficit_halves_the_equal_split_sigma(n):
    rng = np.random.default_rng(23)
    v_n = ideal_regular_volume(n).value
    for i, scale in enumerate((0.01, 0.03, 0.1)):
        K = _jittered_ideal(n, scale, rng)
        for budget in (4096, 65536):
            _, sd = volume_deficit_vs_regular(K, budget, i, 14, v_ref=v_n)
            assert sd <= 0.5 * equal_split_sigma(K, budget, i, 14, v_n), (scale, budget)


# frozen from a 20M-sample run (0.2689044 +- 1.8e-5), cross-checked against
# the default-budget estimator at 10x budget
V4_REF = 0.2689044


def test_v4_default_budget_accuracy():
    est = simplex_volume(regular_ideal_simplex(4), seed=123)
    assert est.method == MONTE_CARLO
    assert est.std_error <= 1e-3 * est.value
    assert abs(est.value - V4_REF) < 3 * (est.std_error + 1.8e-5)


# v_5..v_7 by Schlafli's formula, frozen from a nested adaptive scipy quad
# of the same integrals on [0, 60] (no shared code with the tabulator;
# the two agreed to 2e-17)
V5_TO_V7 = {5: 0.057564737685178, 6: 0.010239275420177, 7: 0.0015528659365175}
# frozen 2M-sample Monte Carlo value of v_5 and its standard error
V5_MC, V5_MC_SE = 0.0575638, 1.2e-5


@pytest.mark.parametrize("n, exact", [(3, V3), (4, V4)])
def test_schlafli_matches_closed_forms(n, exact):
    # 3 Lambda(pi/3) by the series, Gauss-Bonnet by arithmetic
    assert volume._schlafli_volume(n) == pytest.approx(exact, rel=0, abs=1e-13)


def test_ideal_regular_volume_exact():
    assert ideal_regular_volume(4).value == V4  # bit for bit: the same expression
    for n in range(2, 9):
        v = ideal_regular_volume(n)
        assert v.method == EXACT and v.std_error == 0.0 and v.samples == 0
    for n, value in V5_TO_V7.items():
        assert ideal_regular_volume(n).value == pytest.approx(value, rel=0, abs=1e-12)
    assert abs(ideal_regular_volume(5).value - V5_MC) <= V5_MC_SE
    with pytest.raises(GeometryError):
        ideal_regular_volume(9)


def test_v5_matches_monte_carlo():
    # the stratified sampler shares no code with the Schlafli quadrature
    est = simplex_volume(regular_ideal_simplex(5), budget=200_000, seed=5)
    assert abs(est.value - ideal_regular_volume(5).value) <= 4 * est.std_error


def test_vn_decreasing_in_n():
    # observed property of the v_n sequence, not a paper claim
    v = [ideal_regular_volume(n).value for n in range(3, 9)]
    assert all(a > b for a, b in zip(v, v[1:]))


def test_regular_klein_form_cached_read_only():
    mmat, vol_t, ideal_idx = volume._regular_klein_form(4)
    assert volume._regular_klein_form(4)[0] is mmat
    fresh = volume._klein_form(regular_ideal_simplex(4))
    assert np.array_equal(mmat, fresh[0]) and vol_t == fresh[1]
    assert np.array_equal(ideal_idx, fresh[2])
    with pytest.raises(ValueError):
        mmat[0, 0] = 1.0
    with pytest.raises(ValueError):
        ideal_idx[0] = 1


@pytest.mark.parametrize("prefix", [
    [0], [7, 0xD1F], [0, 3, 5, 0xACC, 2, 0xD1F], [2**32 - 1, 2**32, 0xD1F],
    [2**64 + 3, 12345678901234567890, 0xD1F], [np.int64(5), np.uint32(0)],
    # 0, 1, 3, 4, 5 and 7 entropy words before idx, on both sides of
    # SeedSequence's pool of 4 words
    [], [9], [4, 5, 0xD1F], [4, 5, 6, 0xD1F], [4, 5, 6, 7, 0xD1F],
    [1, 2, 3, 4, 5, 6, 0xD1F]])
def test_substreams_match_list_seeding(prefix):
    # the entropy words built once per call give the streams of numpy's list seeding
    for idx, rng in enumerate(volume._substreams(prefix, 5)):
        expected = np.random.default_rng(list(prefix) + [idx]).random(16)
        assert np.array_equal(rng.random(16), expected), idx
    # the states hashed in one pass over many strata, checked past 8 bits of
    # idx, with draws that carry on as the Neyman pass carries on the pilot's
    rngs = volume._substreams(prefix, 301)
    for idx in (0, 255, 256, 300):
        ref = np.random.default_rng(list(prefix) + [idx])
        for shape in (16, (3, 5)):
            assert np.array_equal(rngs[idx].random(shape), ref.random(shape)), (idx, shape)


def test_substreams_reject_negative_entries():
    with pytest.raises(ValueError):
        np.random.default_rng([3, -1, 0])
    with pytest.raises(ValueError):
        volume._substreams([3, -1], 2)


#: degenerate draws the probe rejected at the parent commit, which drew the
#: same simplices and sampled their volumes: {(n, trials): [seed 0, 1, 2]}
PROBE_REJECTED = {(2, 60): [0, 0, 0], (3, 40): [0, 0, 0], (4, 20): [0, 0, 0], (5, 10): [0, 0, 0],
                  (4, 200): [1, 0, 0]}


def test_maximality_probe_smoke():
    for (n, trials), counts in PROBE_REJECTED.items():
        for seed, rejected in enumerate(counts):
            rep = maximality_probe(n, trials=trials, seed=seed)
            assert rep.violations == 0 and rep.degenerate_rejected == rejected, (n, trials, seed)
            assert rep.max_gram.shape == (n + 1, n + 1)
            if n == 2:  # an all-ideal draw is the regular ideal triangle
                assert rep.max_value == rep.v_ref == math.pi
            else:
                assert rep.max_value < rep.v_ref, (n, trials, seed)


def test_maximality_probe_samples_nothing(monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("the probe sampled a volume")

    monkeypatch.setattr(volume, "_stratified", no_sampling)
    for n in (2, 3, 4, 5):
        assert maximality_probe(n, trials=4, seed=n).violations == 0


@pytest.mark.parametrize("trials", [0, -3])
def test_maximality_probe_needs_a_trial(trials):
    with pytest.raises(GeometryError, match="at least one trial"):
        maximality_probe(2, trials=trials)


# ---------------------------------------------------------------------------
# exact volumes: volume._exact_volume


def _ideal_simplices(n, count, rng, max_angle=math.pi):
    """`count` jittered regular ideal n-simplices, then `count` random ideal
    ones whose dihedral angles lie in [0.3, max_angle]."""
    out = [_jittered_ideal(n, scale, rng) for scale in np.linspace(0.02, 0.4, count)]
    while len(out) < 2 * count:
        K = random_nondegenerate_simplex(n, rng, ideal_prob=1.0)
        angles = dihedral_angles(K)[np.triu_indices(n + 1, 1)]
        if angles.min() >= 0.3 and angles.max() <= max_angle:
            out.append(K)
    return out


def test_lobachevsky_takes_arrays():
    theta = np.linspace(-4.0, 4.0, 161)
    got = lobachevsky(theta)
    assert got.shape == theta.shape
    np.testing.assert_allclose(got, [lobachevsky(float(t)) for t in theta], rtol=0, atol=2e-16)


def test_exact_triangles_are_pi_minus_the_angle_sum():
    rng = np.random.default_rng(50)
    for _ in range(10):
        K = random_nondegenerate_simplex(2, rng, ideal_prob=0.5)
        angles = [0.0 if K.vertices[a].is_ideal else dihedral_angle(K, b, c)
                  for a, b, c in ((0, 1, 2), (1, 0, 2), (2, 0, 1))]
        assert volume._exact_volume(K) == pytest.approx(math.pi - sum(angles), rel=1e-13)
    assert volume._exact_volume(regular_ideal_simplex(2)) == math.pi


def test_exact_ideal_tetrahedra_match_milnor():
    # Milnor: Lambda(alpha) + Lambda(beta) + Lambda(gamma) over the angles at
    # the edges through one vertex; the kernel takes six right triangles
    for K in _ideal_simplices(3, 10, np.random.default_rng(51)):
        milnor = sum(lobachevsky(dihedral_angle(K, 0, j)) for j in (1, 2, 3))
        assert abs(volume._exact_volume(K) - milnor) <= 1e-13


def test_exact_compact_tetrahedra_match_quadrature():
    # the Klein density (1 - |x|^2)^-2 integrated over the Euclidean tetrahedron
    rng = np.random.default_rng(52)
    for _ in range(2):
        K = random_nondegenerate_simplex(3, rng, ideal_prob=0.0)
        x = K.klein_vertices()
        edges = x[1:] - x[0]

        def density(c, b, a):
            p = x[0] + a * edges[0] + b * edges[1] + c * edges[2]
            return (1.0 - p @ p) ** -2

        val, _ = integrate.tplquad(density, 0, 1, 0, lambda a: 1 - a, 0, lambda a, b: 1 - a - b,
                                   epsabs=0, epsrel=1e-12)
        exact = abs(np.linalg.det(edges)) * val
        assert volume._exact_volume(K) == pytest.approx(exact, rel=1e-11)


def test_exact_ideal_4_simplices_match_gauss_bonnet():
    # thin simplices, with an angle near pi, lose digits at the path's ideal
    # end: random ideal ones with angles up to 3.1 read up to 4e-8 off
    for K in _ideal_simplices(4, 8, np.random.default_rng(53), max_angle=2.6):
        exact = exact_ideal_volume(K)
        assert abs(volume._exact_volume(K) - exact) <= 1e-10 * exact


@pytest.mark.parametrize("n", [3, 4, 5])
def test_exact_volume_adds_up_over_an_edge_split(n):
    rng = np.random.default_rng(54 + n)
    for _ in range(3):
        K = random_nondegenerate_simplex(n, rng, ideal_prob=0.5)
        mid = barycentric_point(K, [0.5, 0.5] + [0.0] * (n - 1))
        halves = []
        for i in (0, 1):
            verts = list(K.vertices)
            verts[i] = mid
            halves.append(volume._exact_volume(GeodesicSimplex(tuple(verts), n)))
        assert abs(sum(halves) - volume._exact_volume(K)) <= 1e-10


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_exact_volume_is_invariant(n):
    rng = np.random.default_rng(58 + n)
    for trial in range(3):
        K = random_nondegenerate_simplex(n, rng, ideal_prob=0.5)
        v = volume._exact_volume(K)
        order = rng.permutation(n + 1)
        permuted = GeodesicSimplex(tuple(K.vertices[i] for i in order), n)
        assert abs(volume._exact_volume(permuted) - v) <= 1e-12
        moved = apply_isometry(random_isometry(n, seed=trial), K)
        assert abs(volume._exact_volume(moved) - v) <= 1e-10


@pytest.mark.parametrize("n", [3, 4, 5])
def test_exact_volume_of_the_swapped_regular_simplex(n):
    # the path from the regular simplex to its mirror image in the identity
    # order passes through a flat simplex; the order selection undoes the swap
    x = regular_ideal_simplex(n).klein_vertices()[[1, 0, *range(2, n + 1)]]
    K = GeodesicSimplex(tuple(lift_klein(v, ideal=True) for v in x), n)
    if n >= 4:
        order = volume._path_order(regular_ideal_simplex(n).klein_vertices(), x)
        assert order.tolist() != list(range(n + 1))
    assert volume._exact_volume(K) == pytest.approx(ideal_regular_volume(n).value, rel=1e-13)


@pytest.mark.parametrize("n", [4, 5])
def test_exact_volume_matches_monte_carlo(n):
    rng = np.random.default_rng(62 + n)
    for seed in range(2):
        K = random_nondegenerate_simplex(n, rng, ideal_prob=0.5)
        est = simplex_volume(K, budget=1_000_000, seed=seed)
        assert abs(est.value - volume._exact_volume(K)) <= 4 * est.std_error


def test_exact_volume_rejects_bad_input():
    with pytest.raises(GeometryError):
        volume._exact_volume(regular_ideal_simplex(6))
    with pytest.raises(GeometryError):
        volume._exact_volume(regular_ideal_simplex(4, 3))  # not full-dimensional
    flat = GeodesicSimplex(tuple(lift_klein(x) for x in ([0.1, 0.0], [0.2, 0.0], [0.3, 0.0])), 2)
    with pytest.raises(GeometryError):
        volume._exact_volume(flat)


def _calibration_simplex(n, ideal_count, rng):
    """A random n-simplex whose first `ideal_count` vertices are ideal."""
    while True:
        directions = rng.standard_normal((n + 1, n))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        K = GeodesicSimplex(tuple(
            lift_klein(d, ideal=True) if i < ideal_count
            else lift_klein(0.9 * rng.random() ** (1.0 / n) * d)
            for i, d in enumerate(directions)), n)
        if not is_degenerate(K, tol=1e-6):
            return K


def test_simplex_volume_sigma_is_calibrated():
    # z of simplex_volume against the exact volume over every vertex mix:
    # n = 3, 4, 5, none, half or all of the vertices ideal, 40 and 14 levels
    rng = np.random.default_rng(63)
    z = []
    for n in (3, 4, 5):
        for ideal_count in (0, (n + 1) // 2, n + 1):
            for i in range(16):
                K = _calibration_simplex(n, ideal_count, rng)
                exact = volume._exact_volume(K)
                for levels in (40, 14):
                    est = simplex_volume(K, budget=20_000, seed=i, levels=levels)
                    z.append((est.value - exact) / est.std_error)
    z = np.array(z)
    assert np.mean(np.abs(z) <= 2.0) >= 0.9, np.std(z)
    assert abs(np.mean(z)) <= 0.3, np.std(z)


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


# ---------------------------------------------------------------------------
# reference: the per-stratum sampling loop that the block kernel replaced.
# Same substreams, antithetic layout, rejection, corner map, pilot and
# Neyman allocation, one stratum at a time with the three-operand einsum
# density; the kernel's density and per-stratum sums round differently,
# hence the 1e-12 tolerance.


def _ref_draw(rng, count, n, corner, ideal_idx):
    half = (count + 1) // 2
    u = rng.random((half, n + 1))
    u = np.vstack([u, 1.0 - u])[:count]
    e = -np.log(np.clip(u, 1e-300, 1.0))
    lam = e / e.sum(axis=1, keepdims=True)
    if corner is None:
        return lam[np.all(lam[:, ideal_idx] < 0.5, axis=1)] if ideal_idx.size else lam
    i, scale = corner
    lam = lam[lam[:, i] < 0.5]
    glob = scale * lam
    glob[:, i] = 1.0 - scale * (1.0 - lam[:, i])
    return glob


def _ref_density(lam, mmat, exponent):
    return np.clip(np.einsum("si,ij,sj->s", lam, mmat, lam), 1e-300, None) ** exponent


def _reference_stratified(prefix, budget, n, levels, strata, ideal_idx, integrand, measure):
    """(value, std_error, accepted draws per stratum, draws spent) of the
    integrand over the strata, by a pilot and a Neyman allocation."""
    k = len(strata)
    rngs = [np.random.default_rng([*prefix, idx]) for idx in range(k)]
    n_acc, sum_f, sum_f2 = [0] * k, [0.0] * k, [0.0] * k

    def sample(idx, count):
        f = integrand(_ref_draw(rngs[idx], count, n, strata[idx][1], ideal_idx))
        n_acc[idx] += f.shape[0]
        sum_f[idx] += float(f.sum())
        sum_f2[idx] += float((f * f).sum())

    def sem(idx):
        if n_acc[idx] < 2:
            return math.inf
        mean = sum_f[idx] / n_acc[idx]
        return math.sqrt(max(sum_f2[idx] / n_acc[idx] - mean ** 2, 0.0) / n_acc[idx])

    pilot = max(16, budget // (6 * k))
    for idx in range(k):
        sample(idx, pilot)
    spent = pilot * k
    remaining = max(budget - spent, 0)
    # a stratum with fewer than 2 accepted pilot draws gets remaining // k
    alloc = [remaining // k if n_acc[idx] < 2 else 0 for idx in range(k)]
    weights = np.array([measure[idx] * (sem(idx) * math.sqrt(n_acc[idx]))
                        if n_acc[idx] >= 2 else 0.0 for idx in range(k)])
    total_w = weights.sum()
    rest = remaining - sum(alloc)
    if total_w > 0 and rest > 0:
        # shares formed first: one stratum gets all of the rest
        neyman = np.floor(rest * (weights / total_w)).astype(int)
        alloc = [a + int(extra) for a, extra in zip(alloc, neyman)]
    for idx, extra in enumerate(alloc):
        sample(idx, extra)
    spent += sum(alloc)
    value = var = 0.0
    tails = []
    for idx, (_, corner) in enumerate(strata):
        mean = sum_f[idx] / max(n_acc[idx], 1)
        value += measure[idx] * mean
        var += (measure[idx] * sem(idx)) ** 2
        if corner is not None and corner[1] == 0.5 ** levels:
            tails.append(volume._tail(n, measure[idx], mean))
    for tail in tails:
        value += tail
        var += tail ** 2
    return value, math.sqrt(var), n_acc, spent


def reference_simplex_volume(K, budget, seed, levels):
    n = K.ambient_dim
    mmat, vol_t, ideal_idx = volume._klein_form(K)
    strata = volume._strata(n, ideal_idx, levels)
    value, std_error, _, spent = _reference_stratified(
        [seed], budget, n, levels, strata, ideal_idx,
        lambda lam: _ref_density(lam, mmat, -(n + 1) / 2.0),
        [vol_t * mass for mass, _ in strata])
    return value, std_error, spent


def reference_deficit(K, budget, seed, levels, v_ref):
    n = K.ambient_dim
    exponent = -(n + 1) / 2.0
    mk, volk, _ = volume._klein_form(K)
    mr, volr, ideal_idx = volume._klein_form(regular_ideal_simplex(n))
    strata = volume._strata(n, ideal_idx, levels)
    seed_seq = list(seed) if isinstance(seed, (list, tuple)) else [seed]
    total, sigma, n_acc, _ = _reference_stratified(
        [*seed_seq, 0xD1F], budget, n, levels, strata, ideal_idx,
        lambda lam: volk * _ref_density(lam, mk, exponent) - volr * _ref_density(lam, mr, exponent),
        [mass for mass, _ in strata])
    if min(n_acc) < 2:
        raise GeometryError("stratum starved; raise the deficit budget")
    return -total / v_ref, sigma / v_ref


def _kernel_case_simplex(n, kind, rng):
    """A random simplex with all-finite, mixed or all-ideal vertices, away from regular."""
    while True:
        directions = rng.standard_normal((n + 1, n))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        verts = [lift_klein(d, ideal=True) if kind == "ideal" or (kind == "mixed" and i % 2)
                 else lift_klein(0.9 * rng.random() ** (1.0 / n) * d)
                 for i, d in enumerate(directions)]
        K = GeodesicSimplex(tuple(verts), n)
        if not is_degenerate(K, tol=1e-6):
            return K


KERNEL_CASES = [(n, kind) for n in (2, 3, 4, 5) for kind in ("finite", "mixed", "ideal")]


@pytest.mark.parametrize("n, kind", KERNEL_CASES)
def test_deficit_kernel_matches_reference(n, kind):
    K = _kernel_case_simplex(n, kind, np.random.default_rng([n, len(kind)]))
    for levels in (1, 12, 14, 40):
        strata = 1 + (n + 1) * levels
        # pilots from the floor of 16 draws to 1365; at levels 1 the core's
        # Neyman draws of the last budget span blocks
        big = (2 * volume._BLOCK_ROWS + 1) * strata if levels == 1 else 60_001
        for budget, seed in ((33 * strata, 0), (4097, [3, 1, 4]), (20_001, 7), (big, [2, 9])):
            got = volume_deficit_vs_regular(K, budget, seed, levels, v_ref=1.0)
            ref = reference_deficit(K, budget, seed, levels, v_ref=1.0)
            assert all(type(x) is float for x in got)
            assert got == pytest.approx(ref, rel=1e-12, abs=0.0), (levels, budget, seed)


@pytest.mark.parametrize("n, kind", KERNEL_CASES)
def test_simplex_volume_kernel_matches_reference(n, kind):
    K = _kernel_case_simplex(n, kind, np.random.default_rng([n, len(kind), 1]))
    for levels in (1, 12, 40):
        # 1000 is the budget floor; the Neyman draws of 200k split strata
        # across blocks
        for budget, seed in ((1000, 0), (50_001, 5), (200_000, 2)):
            est = simplex_volume(K, budget, seed, levels)
            value, std_error, samples = reference_simplex_volume(K, budget, seed, levels)
            assert est.samples == samples, (levels, budget, seed)
            assert est.value == pytest.approx(value, rel=1e-12, abs=0.0), (levels, budget, seed)
            assert est.std_error == pytest.approx(std_error, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# bit identity: the kernel's output, pinned to the last bit

#: float.hex of simplex_volume(K, budget, seed=3)'s value and std_error, its
#: samples, and float.hex of volume_deficit_vs_regular(K, budget, [5, 8])'s
#: deficit and sigma, for budget 40_000 (many blocks) and 4_097 (odd).  The
#: simplex_volume entries are as the kernel gave them before its blocks were
#: reduced to whole-column steps; the deficit entries are those of its pilot
#: and Neyman allocation, which replaced an equal split of the budget.
#: The reference tests above allow 1e-12 and cannot see a last-bit change;
#: these pin the random stream and the rounding on one numpy/OpenBLAS build.
#: The 4_097 simplex_volume entries of (2, "ideal") are those of the floor
#: share: its core accepts one of its 16 pilot draws, and before that share
#: it drew no more and its std_error was inf.
KERNEL_PINS = {
    (2, "finite"): [
        ("0x1.86ed7dd7acf01p-2", "0x1.c78f14130364dp-11", 40000,
         "0x1.60d0ee0a1aca8p+1", "0x1.3ffcb6f450132p-6"),
        ("0x1.8afa473943ab8p-2", "0x1.73fdc89cce1bep-9", 4097,
         "0x1.5f63aefb3bfffp+1", "0x1.79e91c8b2f160p-6"),
    ],
    (2, "mixed"): [
        ("0x1.0fff737eea035p-1", "0x1.33bb25399dca0p-10", 39985,
         "0x1.4dd5994710287p+1", "0x1.220bd1cea4630p-6"),
        ("0x1.10802a4b52e69p-1", "0x1.05685f03867fcp-8", 4085,
         "0x1.4ca8aab15b484p+1", "0x1.5361b0a8d233ep-6"),
    ],
    (2, "ideal"): [
        ("0x1.9027f19d64babp+1", "0x1.0f078cd6db7cap-6", 39963,
         "0x1.8728bb25fccf2p-9", "0x1.2c8aa549b4ff2p-6"),
        ("0x1.9ed20b354cd5bp+1", "0x1.5d7a37f1c6038p-4", 4069,
         "0x1.222112ea4f8b5p-5", "0x1.9d3e34548422ep-5"),
    ],
    (3, "finite"): [
        ("0x1.b728021576518p-7", "0x1.565dd890d2d95p-16", 40000,
         "0x1.009de29ada393p+0", "0x1.82023faf453b3p-10"),
        ("0x1.b8096bcc4ff05p-7", "0x1.10e26be637b4ep-14", 4097,
         "0x1.014fb65909bb9p+0", "0x1.29d95205827e6p-8"),
    ],
    (3, "mixed"): [
        ("0x1.dc0808c0ed143p-5", "0x1.0215b45e19508p-13", 39987,
         "0x1.ea3ed13a868d0p-1", "0x1.723bf278a8d1cp-10"),
        ("0x1.d89d9d0b58962p-5", "0x1.b5dcf6554b768p-12", 4086,
         "0x1.eb95708deaa7fp-1", "0x1.1e80915d3c217p-8"),
    ],
    (3, "ideal"): [
        ("0x1.9df240071cfefp-2", "0x1.e6d41ca065710p-9", 39974,
         "0x1.38a3f79d33308p-1", "0x1.e7201eedf520ep-9"),
        ("0x1.a1e582cc8a3e8p-2", "0x1.a9c6baee8c84ap-7", 4080,
         "0x1.3ba0ff9dbb170p-1", "0x1.9ad2696de0020p-7"),
    ],
    (4, "finite"): [
        ("0x1.cce07cea613a0p-11", "0x1.ec5b1378bb7e9p-19", 40000,
         "0x1.12f91e57713aep-2", "0x1.99eb0fc21a145p-12"),
        ("0x1.ce5ff1d71463fp-11", "0x1.897975f8bea41p-17", 4097,
         "0x1.121de0eb0b7bap-2", "0x1.522620070a6e4p-10"),
    ],
    (4, "mixed"): [
        ("0x1.7052252a14ebdp-6", "0x1.95d33ffcfc017p-14", 39992,
         "0x1.f9aa7975e5683p-3", "0x1.8c070d0859038p-12"),
        ("0x1.732ac7c6e20dbp-6", "0x1.65aa793c85337p-12", 4088,
         "0x1.f89c653277db6p-3", "0x1.4b79a4ca16c89p-10"),
    ],
    (4, "ideal"): [
        ("0x1.a45d120a18225p-3", "0x1.e688b322ad854p-10", 39977,
         "0x1.08eece11f4be1p-4", "0x1.d90b2de564a7fp-10"),
        ("0x1.93177288188f9p-3", "0x1.20b5c1e2ee682p-7", 4084,
         "0x1.07116d3e2074fp-4", "0x1.e1eb280e25e9dp-8"),
    ],
    (5, "finite"): [
        ("0x1.545daed654423p-13", "0x1.f84ad56bd4e92p-23", 40000,
         "0x1.d7a4e49074e1cp-5", "0x1.6308ca9d65140p-14"),
        ("0x1.556815779515ap-13", "0x1.89246f24dff85p-21", 4097,
         "0x1.d6ee267744f56p-5", "0x1.26e02b6363dc4p-12"),
    ],
    (5, "mixed"): [
        ("0x1.b287fecbf554bp-7", "0x1.60449e1291407p-15", 39988,
         "0x1.6c10b59d0cfcap-5", "0x1.44574fb9b6e98p-14"),
        ("0x1.b32d45edf8fe3p-7", "0x1.5ea59562bc4edp-13", 4091,
         "0x1.6cac0cacbc84fp-5", "0x1.0cdfdff82e371p-12"),
    ],
    (5, "ideal"): [
        ("0x1.103a1a2b2afbap-5", "0x1.1a4805ed67dd4p-13", 39979,
         "0x1.8bb9f0be355cfp-6", "0x1.180bc34bbe051p-13"),
        ("0x1.0dbbce62d2101p-5", "0x1.56f279569503dp-10", 4087,
         "0x1.957f2d274f16ep-6", "0x1.b296d805205b9p-12"),
    ],
}


def _check_kernel_pins(n, kind):
    K = _kernel_case_simplex(n, kind, np.random.default_rng([n, len(kind), 2]))
    for budget, pin in zip((40_000, 4_097), KERNEL_PINS[n, kind]):
        est = simplex_volume(K, budget, seed=3)
        deficit, sigma = volume_deficit_vs_regular(K, budget, [5, 8], v_ref=1.0)
        got = (est.value.hex(), est.std_error.hex(), est.samples, deficit.hex(), sigma.hex())
        assert got == pin, budget


@pytest.mark.parametrize("n, kind", KERNEL_CASES)
def test_kernel_output_is_pinned(n, kind):
    _check_kernel_pins(n, kind)


@pytest.mark.parametrize("block_rows", [37, 1000, 8192])
@pytest.mark.parametrize("n, kind", KERNEL_CASES)
def test_kernel_output_is_pinned_at_any_block_size(monkeypatch, block_rows, n, kind):
    # a block sets only which draws share a numpy call: every value, and
    # every per-stratum sum taken in draw order, is the same to the last
    # bit as with the default 4096-draw blocks.  37 is odd and below most
    # pilots, so most stratum pieces cross a block boundary
    monkeypatch.setattr(volume, "_BLOCK_ROWS", block_rows)
    _check_kernel_pins(n, kind)


@pytest.mark.parametrize("n, kind", KERNEL_CASES)
def test_kernel_output_is_pinned_when_every_stratum_streams(monkeypatch, n, kind):
    # every stratum of more than one or three rows of u is drawn in chunks:
    # the same draws as one chunk, summed in another order, so the output
    # stays within rounding of the pins, which the default output equals
    K = _kernel_case_simplex(n, kind, np.random.default_rng([n, len(kind), 2]))
    for draw_rows in (1, 3):
        monkeypatch.setattr(volume, "_DRAW_ROWS", draw_rows)
        for budget, pin in zip((40_000, 4_097), KERNEL_PINS[n, kind]):
            est = simplex_volume(K, budget, seed=3)
            deficit, sigma = volume_deficit_vs_regular(K, budget, [5, 8], v_ref=1.0)
            value, std_error, samples, pin_deficit, pin_sigma = pin
            assert est.samples == samples, (draw_rows, budget)
            ref = tuple(map(float.fromhex, (value, std_error, pin_deficit, pin_sigma)))
            assert (est.value, est.std_error, deficit, sigma) == pytest.approx(
                ref, rel=1e-12, abs=0.0), (draw_rows, budget)


def test_streamed_stratum_output_is_pinned():
    # float.hex of the value and std_error; the finite 5-simplex has one
    # stratum, whose 333_334 Neyman draws (166_667 rows of u) span several
    # chunks.  Drawn in one call, with 1 - u after all the rows of u, they
    # gave ("0x1.a8c1fd87b35b3p-9", "0x1.074ffbcb873b6p-19"): the same draws
    # summed in another order
    K = _kernel_case_simplex(5, "finite", np.random.default_rng([5, len("finite"), 4]))
    assert (400_000 - 400_000 // 6 + 1) // 2 > volume._DRAW_ROWS
    est = simplex_volume(K, 400_000, seed=3)
    got = (est.value.hex(), est.std_error.hex(), est.samples)
    assert got == ("0x1.a8c1fd87b3584p-9", "0x1.074ffbcb874b1p-19", 400_000)


#: float.hex of _exact_volume(K) for the KERNEL_CASES simplices, and
#: (float.hex of max_value, violations, degenerate_rejected) of
#: maximality_probe(n, trials=20, seed=1).  The exact-volume tests allow
#: 1e-10 or more and cannot see a last-bit change of the Schlafli path or
#: the tetrahedron cones; these pin their rounding on one numpy/OpenBLAS
#: build.
EXACT_PINS = {
    (2, "finite"): "0x1.df973034f0800p-5",
    (2, "mixed"): "0x1.05b1eed4efee0p-1",
    (2, "ideal"): "0x1.921fb54442d18p+1",
    (3, "finite"): "0x1.b83b5a647363ap-4",
    (3, "mixed"): "0x1.d6a5820ff59aap-2",
    (3, "ideal"): "0x1.81e7802271466p-1",
    (4, "finite"): "0x1.6c9eeee4fb540p-7",
    (4, "mixed"): "0x1.a629616771fb8p-5",
    (4, "ideal"): "0x1.8de0cbb254160p-4",
    (5, "finite"): "0x1.ef90ba6244c60p-10",
    (5, "mixed"): "0x1.2683945371540p-9",
    (5, "ideal"): "0x1.fcd52fa5d2120p-9",
    "probe 4": ("0x1.8dc71c606e7b5p-3", 0, 0),
    "probe 5": ("0x1.0a728de4f3fbep-6", 0, 0),
}


@pytest.mark.parametrize("n, kind", KERNEL_CASES)
def test_exact_volume_is_pinned(n, kind):
    K = _kernel_case_simplex(n, kind, np.random.default_rng([n, len(kind), 8]))
    assert volume._exact_volume(K).hex() == EXACT_PINS[n, kind]


@pytest.mark.parametrize("n", [4, 5])
def test_maximality_probe_is_pinned(n):
    rep = maximality_probe(n, trials=20, seed=1)
    assert (rep.max_value.hex(), rep.violations, rep.degenerate_rejected) == EXACT_PINS[f"probe {n}"]


@pytest.mark.parametrize("draw_rows", [3, None])
def test_streamed_draws_match_one_call(monkeypatch, draw_rows):
    # each stratum's rows are, chunk by chunk, u and then 1 - u of the
    # chunk's rows among the first count - half, where the chunks are
    # consecutive slices of one random((half, width)) call; the blocks are
    # full but the last, and each stratum generator ends where that call
    # leaves it, after half * width draws: no draw is made twice.  Blocks
    # are coordinate-major, so each is compared as rows.T
    if draw_rows is not None:
        monkeypatch.setattr(volume, "_DRAW_ROWS", draw_rows)
    chunk = volume._DRAW_ROWS
    width = 4
    counts = [0, 1, 2 * chunk - 1, 2 * chunk, 2 * chunk + 1, 2 * chunk + 3, 4 * chunk + 5]
    rngs = volume._substreams([6], len(counts))
    got = []
    for rows, owner in volume._uniform_blocks(rngs, counts, width):
        assert rows.shape == (width, owner.size) and rows.flags.c_contiguous
        got.append((rows.T.copy(), owner))
    assert all(owner.size == volume._BLOCK_ROWS for _, owner in got[:-1])
    rows, owner = map(np.concatenate, zip(*got))
    assert owner.tolist() == np.repeat(np.arange(len(counts)), counts).tolist()
    for idx, count in enumerate(counts):
        ref_rng = np.random.default_rng([6, idx])
        half = (count + 1) // 2
        u = ref_rng.random((half, width))
        ref = [np.empty((0, width))]
        for lo in range(0, half, chunk):
            part = u[lo:lo + chunk]
            ref += [np.maximum(part, 1e-300), 1.0 - part[:count - half - lo]]
        assert np.array_equal(rows[owner == idx], np.concatenate(ref)), idx
        assert rngs[idx].bit_generator.state == ref_rng.bit_generator.state, idx


@pytest.mark.parametrize("kind", ["finite", "ideal"])
def test_simplex_volume_memory_does_not_grow_with_the_budget(kind):
    # one default-budget call held every uniform of a stratum and every
    # accepted value before its draws were streamed: 46-64 MiB at n = 5
    K = _kernel_case_simplex(5, kind, np.random.default_rng([5, len(kind), 5]))
    tracemalloc.start()
    try:
        simplex_volume(K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_starved_stratum_draws_again():
    # the pinned ideal triangle: its core accepts 1 of 16 pilot draws at
    # budget 4_097, and the floor share gives it a variance estimate
    K = _kernel_case_simplex(2, "ideal", np.random.default_rng([2, len("ideal"), 2]))
    assert all(v.is_ideal for v in K.vertices)
    est = simplex_volume(K, 4_097, seed=3)
    assert math.isfinite(est.std_error) and est.std_error > 0
    assert abs(est.value - math.pi) < 5 * est.std_error


#: Per-stratum counts for `_sample` on an n = 3 simplex with ideal vertices
#: 1 and 3 and 3 shell levels (7 strata), in 4096-row blocks.
SAMPLE_COUNTS = [
    # no core; zero counts between shells; the second block starts inside
    # stratum 5
    [0, 33, 0, 0, 17, 5000, 1],
    # a core over three blocks; odd counts; the fourth block starts inside
    # stratum 3
    [2 * volume._BLOCK_ROWS + 101, 0, 7, 4095, 0, 3, 1],
    # only the core, ending exactly at a block boundary
    [volume._BLOCK_ROWS, 0, 0, 0, 0, 0, 0],
]


def _joined_sample(*args):
    """The values and owners of all blocks `volume._sample` yields, joined."""
    return map(np.concatenate, zip(*volume._sample(*args)))


@pytest.mark.parametrize("counts", SAMPLE_COUNTS)
def test_sample_matches_reference_per_stratum(counts):
    n = 3
    K = _kernel_case_simplex(n, "mixed", np.random.default_rng([n, 5, 3]))
    mmat, _, ideal_idx = volume._klein_form(K)
    mreg = volume._regular_klein_form(n)[0]
    strata = volume._strata(n, ideal_idx, 3)
    assert ideal_idx.tolist() == [1, 3] and len(strata) == len(counts)
    f, owner = _joined_sample(volume._substreams([4], len(strata)), counts, n, strata,
                              ideal_idx, [(1.0, mmat), (0.5, mreg)])
    assert np.all(np.diff(owner) >= 0)
    exponent = -(n + 1) / 2.0
    for idx, count in enumerate(counts):
        lam = _ref_draw(np.random.default_rng([4, idx]), count, n, strata[idx][1], ideal_idx)
        ref = _ref_density(lam, mmat, exponent) + 0.5 * _ref_density(lam, mreg, exponent)
        got = f[owner == idx]
        assert got.shape == ref.shape, idx
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)


def test_sample_without_ideal_vertices_keeps_every_row():
    n = 4
    K = _kernel_case_simplex(n, "finite", np.random.default_rng([n, 6, 3]))
    mmat, _, ideal_idx = volume._klein_form(K)
    strata = volume._strata(n, ideal_idx, 40)
    assert len(strata) == 1
    count = 2 * volume._BLOCK_ROWS + 3
    f, owner = _joined_sample(volume._substreams([9], 1), [count], n, strata, ideal_idx,
                              [(1.0, mmat)])
    lam = _ref_draw(np.random.default_rng([9, 0]), count, n, None, ideal_idx)
    assert owner.tolist() == [0] * count
    np.testing.assert_allclose(f, _ref_density(lam, mmat, -(n + 1) / 2.0), rtol=1e-12, atol=0.0)


def deficit_from_joined_rows(passes, n, levels, strata, v_ref):
    """volume_deficit_vs_regular's result from the rows of its `_sample`
    passes (pilot, then Neyman), each pass's blocks joined into one array
    and summed per stratum by np.bincount."""
    k = len(strata)

    def sums(rows):
        f, owner = map(np.concatenate, zip(*rows))
        return np.stack([np.bincount(owner, minlength=k), np.bincount(owner, f, minlength=k),
                         np.bincount(owner, f * f, minlength=k)])

    n_acc, sum_f, sum_f2 = sum(map(sums, passes[1:]), sums(passes[0]))
    mean = sum_f / n_acc
    sem = np.sqrt(np.maximum(sum_f2 / n_acc - mean * mean, 0.0) / n_acc)
    total, var = volume._combine(n, levels, strata, [mass for mass, _ in strata], mean.tolist(),
                                 sem.tolist())
    return -total / v_ref, math.sqrt(var) / v_ref


@pytest.mark.parametrize("block_rows", [1, 7, None])
@pytest.mark.parametrize("n, kind", KERNEL_CASES)
def test_deficit_per_stratum_statistics_equal_joined(monkeypatch, block_rows, n, kind):
    # the running per-stratum sums over blocks of any size agree to the
    # last bit with np.bincount over each pass's rows joined, because
    # np.add.at adds in row order as bincount does; the joined rows come
    # from the same _sample, so the BLAS build does not matter
    if block_rows is not None:
        monkeypatch.setattr(volume, "_BLOCK_ROWS", block_rows)
    passes, sizes = [], []
    sample = volume._sample

    def recording_sample(*args):
        passes.append([])
        for f, owner in sample(*args):
            sizes.append(owner.size)
            passes[-1].append((f.copy(), owner.copy()))
            yield f, owner

    monkeypatch.setattr(volume, "_sample", recording_sample)
    rows = volume._BLOCK_ROWS
    K = _kernel_case_simplex(n, kind, np.random.default_rng([n, len(kind), 7]))
    for levels in (1, 14):
        strata = volume._strata(n, np.arange(n + 1), levels)
        # every stratum's pilot of the first budget spans two blocks
        for budget, seed in (((12 * rows + 20) * len(strata), 0), (33 * len(strata), [3, 1, 4])):
            passes.clear()
            got = volume_deficit_vs_regular(K, budget, seed, levels, v_ref=1.0)
            assert len(passes) == 2
            assert got == deficit_from_joined_rows(passes, n, levels, strata, 1.0), (levels, budget)
    if block_rows == 1:
        assert 0 in sizes  # some blocks had no accepted row


@pytest.mark.parametrize("n", [4, 5])
def test_deficit_memory_does_not_grow_with_the_budget(n):
    # joining every value for the two-pass variance peaked at 30.0 MiB
    # (n = 4) and 31.1 MiB (n = 5) for this 1M-sample verify deficit
    K = _kernel_case_simplex(n, "ideal", np.random.default_rng([n, len("ideal"), 6]))
    tracemalloc.start()
    try:
        volume_deficit_vs_regular(K, 1 << 20, [2, 6], 14, v_ref=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def _starving_triangles():
    """The regular ideal triangle and an irregular one: the deficit's
    strata depend on the dimension only, and a stratum starves only when
    its pilot accepted fewer than 2 draws and its floor share, which does
    not depend on K, adds too few; so which strata starve depends on the
    dimension, the budget and the seed only."""
    return [regular_ideal_simplex(2),
            _kernel_case_simplex(2, "ideal", np.random.default_rng([2, len("ideal"), 2]))]


@pytest.mark.parametrize("block_rows", [1, 7, None])
def test_deficit_raises_on_a_starved_stratum(monkeypatch, block_rows):
    # at these seeds the core of the triangle accepts 1 draw in all from
    # its 16 pilot draws and its floor share of 9 (0 + 1 at 185 and 1169,
    # 1 + 0 at 1170)
    if block_rows is not None:
        monkeypatch.setattr(volume, "_BLOCK_ROWS", block_rows)
    for K in _starving_triangles():
        for seed in (185, 1169, 1170):
            with pytest.raises(GeometryError, match="stratum starved"):
                volume_deficit_vs_regular(K, 100, seed, 1, v_ref=math.pi)


def test_deficit_next_to_a_starved_seed_is_pinned():
    # float.hex of the deficit and sigma at seed 184, no stratum starved,
    # as the pilot and Neyman allocation give them
    got = [tuple(x.hex() for x in volume_deficit_vs_regular(K, 100, 184, 1, v_ref=math.pi))
           for K in _starving_triangles()]
    assert got == [("-0x0.0p+0", "0x0.0p+0"),
                   ("-0x1.152c0cf3d5bd8p-6", "0x1.97b31fb9b7dffp-3")]
