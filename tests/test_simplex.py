import ast
import itertools
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypstab.constants import _angle_violation, _build, _jitter, angle_bracket, margin_a
from hypstab.minkowski import (
    DEFAULT_TOL,
    GeometryError,
    _arccosh_stable,
    _mink_rows,
    distance,
    finite_point,
    ideal_point,
    lift_klein,
    mink,
    random_isometry,
)
import hypstab
from hypstab import volume
from hypstab.simplex import (
    DegenerateSimplexError,
    DualVectorError,
    GeodesicSimplex,
    SingularSystemError,
    _angle_derivatives,
    _inverse_gram,
    all_facet_duals,
    apply_isometry,
    barycentric_coords,
    barycentric_point,
    dihedral_angle,
    dihedral_angles,
    distance_point_to_simplex,
    facet_dual,
    incenter_inradius,
    is_degenerate,
    min_face_clearance,
    nearest_point_on_simplex,
    orientation_sign,
    random_nondegenerate_simplex,
    regular_ideal_simplex,
    straighten,
)


def ideal_triangle(angles=(90.0, 210.0, 330.0)):
    verts = tuple(
        ideal_point([1.0, math.cos(math.radians(a)), math.sin(math.radians(a))])
        for a in angles
    )
    return GeodesicSimplex(verts, 2)


# ---------------------------------------------------------------------------
# regular ideal simplex


def test_regular_ideal_construction_oracle():
    # pairwise Klein dot products equal -1/k
    for n, k in ((2, 2), (3, 3), (5, 3), (6, 6)):
        K = regular_ideal_simplex(n, k)
        w = K.klein_vertices()
        g = w @ w.T
        for i in range(k + 1):
            assert g[i, i] == pytest.approx(1.0, abs=1e-12)
            for j in range(i + 1, k + 1):
                assert g[i, j] == pytest.approx(-1.0 / k, abs=1e-12)


def test_regular_ideal_triangle_symmetric():
    K = regular_ideal_simplex(2)
    inc = incenter_inradius(K)
    # all three tangency values identical by symmetry
    vals = [-mink(inc.incenter.rep, d.q) for d in all_facet_duals(K)]
    assert max(vals) - min(vals) < 1e-12


def test_dihedral_regular_values():
    # n=3: all six dihedral angles pi/3; n=4: arccos(1/3)
    K3 = regular_ideal_simplex(3)
    for i, j in itertools.combinations(range(4), 2):
        assert dihedral_angle(K3, i, j) == pytest.approx(math.pi / 3, abs=1e-10)
    K4 = regular_ideal_simplex(4)
    assert dihedral_angle(K4, 0, 1) == pytest.approx(math.acos(1.0 / 3.0), abs=1e-10)
    for n in range(3, 9):
        K = regular_ideal_simplex(n)
        assert dihedral_angle(K, 0, 1) == pytest.approx(math.acos(1.0 / (n - 1)), abs=1e-10)


def test_dihedral_relabeling_invariance():
    rng = np.random.default_rng(0)
    Kp = random_nondegenerate_simplex(3, rng)
    a = dihedral_angle(Kp, 1, 2)
    # relabel vertices fixing {1, 2}
    Kswap = GeodesicSimplex((Kp.vertices[3], Kp.vertices[1], Kp.vertices[2],
                             Kp.vertices[0]), 3)
    assert dihedral_angle(Kswap, 1, 2) == pytest.approx(a, abs=1e-12)


def test_facet_index_checks():
    # a lookup in the G^-1 matrix would wrap a negative index silently
    K = regular_ideal_simplex(3)
    with pytest.raises(GeometryError):
        facet_dual(K, -1)
    with pytest.raises(GeometryError):
        facet_dual(K, K.k + 1)
    with pytest.raises(GeometryError):
        dihedral_angle(K, -1, 0)
    with pytest.raises(GeometryError):
        dihedral_angle(K, 1, 1)


# ---------------------------------------------------------------------------
# facet duals


def test_facet_dual_defining_conditions():
    rng = np.random.default_rng(42)
    for n in (3, 4, 5):
        for _ in range(200):
            K = random_nondegenerate_simplex(n, rng)
            for i in range(n + 1):
                d = facet_dual(K, i)
                assert mink(d.q, d.q) == pytest.approx(1.0, abs=1e-9)
                for j in range(n + 1):
                    val = mink(d.q, K.vertices[j].rep)
                    if j == i:
                        assert val < 1e-10
                    else:
                        assert abs(val) < 1e-10


def _facet_dual_by_solve(K, i, tol=DEFAULT_TOL):
    """Reference dual of facet i: one Gram solve G c = e_i in the span of
    the vertex representatives, q = V^T c normalized, with the sign fixed
    by <q, v_i> <= 0 for the opposite vertex."""
    rhs = np.zeros(K.k + 1)
    rhs[i] = 1.0
    q = K.rep_matrix.T @ np.linalg.solve(K.gram, rhs)
    nq = mink(q, q)
    if nq <= tol:
        raise DualVectorError(f"facet {i} has no spacelike dual (norm^2 = {nq})")
    q = q / math.sqrt(nq)
    return -q if mink(q, K.vertices[i].rep) > 0 else q


def _incenter_by_solves(K, tol=DEFAULT_TOL):
    """Reference (incenter representative, inradius): solve <c, q_i> = -1
    for the per-facet duals q_i within the span of the simplex, normalize
    c to the hyperboloid and check that every facet is tangent, with
    sinh r = -<c, q_i>."""
    duals = np.array([_facet_dual_by_solve(K, i, tol) for i in range(K.k + 1)])
    v = K.rep_matrix
    c = v.T @ np.linalg.solve(_mink_rows(duals, v), -np.ones(K.k + 1))
    nc = mink(c, c)
    assert nc < -tol
    c = c / math.sqrt(-nc)
    if c[0] < 0:
        c = -c
    sinh_r = -_mink_rows(duals, c[None, :]).ravel()
    assert np.ptp(sinh_r) <= 1e4 * tol * max(1.0, abs(sinh_r[0]))
    return c, math.asinh(sinh_r[0])


def _kernel_reference_simplices():
    """Random simplices for n = 2..5 and k = 2..n with all finite, mixed and
    all ideal vertices (20 each), and the regular ideal simplices."""
    rng = np.random.default_rng(1010)
    for n in range(2, 6):
        for k in range(2, n + 1):
            yield regular_ideal_simplex(n, k)
            for ideal_prob in (0.0, 0.5, 1.0):
                for _ in range(20):
                    yield random_nondegenerate_simplex(n, rng, ideal_prob=ideal_prob, k=k)


def test_inverse_gram_matches_solves():
    count = 0
    for K in _kernel_reference_simplices():
        ref = np.array([_facet_dual_by_solve(K, i) for i in range(K.k + 1)])
        duals = np.array([d.q for d in all_facet_duals(K)])
        assert np.max(np.abs(duals - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))
        # cosines, not angles: arccos is flat near 0 and pi; the ideal
        # vertices' zero angles clip rounding above 1
        cos_ref = np.clip(-_mink_rows(ref, ref), -1.0, 1.0)
        iu = np.triu_indices(K.k + 1, 1)
        assert np.max(np.abs(np.cos(dihedral_angles(K))[iu] - cos_ref[iu])) <= 1e-12
        c_ref, r_ref = _incenter_by_solves(K)
        res = incenter_inradius(K)
        assert np.max(np.abs(res.incenter.rep - c_ref)) <= 1e-12 * np.max(np.abs(c_ref))
        assert res.inradius == pytest.approx(r_ref, rel=1e-12)
        count += 1
    assert count >= 600


def test_angle_derivatives_match_central_differences():
    # dtheta along random symmetric Gram directions against central
    # differences of dihedral_angles, which reads only the Gram matrix.
    # k >= 3: a triangle's angle at an ideal vertex is 0, where arccos has
    # no derivative
    rng = np.random.default_rng(1012)
    step = 1e-6
    count = 0
    for K in _kernel_reference_simplices():
        if K.k < 3:
            continue
        g = np.array(K.gram)
        a = rng.standard_normal(g.shape)
        dg = (a + a.T) / 2.0 * np.max(np.abs(g))
        got = _angle_derivatives(_inverse_gram(g)[0], dg)
        iu = np.triu_indices(K.k + 1, 1)
        plus, minus = (dihedral_angles(SimpleNamespace(gram=g + sign * step * dg))[iu]
                       for sign in (1.0, -1.0))
        fd = (plus - minus) / (2.0 * step)
        assert np.max(np.abs(got - fd)) <= 1e-6 * np.max(np.abs(fd)), (K.ambient_dim, K.k)
        count += 1
    assert count >= 360


def _calls_where(matches):
    """{(module, innermost enclosing function)} of every call in the
    package's source for which ``matches(call)`` holds."""
    found = set()

    def visit(node, module, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call) and matches(node):
            found.add((module, where))
        for child in ast.iter_child_nodes(node):
            visit(child, module, where)

    for path in sorted(Path(hypstab.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, None)
    return found


def _linalg_calls(name):
    return _calls_where(lambda call: ast.unparse(call.func).split(".")[-2:] in (
        [name], ["linalg", name]))


def _is_diagonal_product(node):
    """True for a[...] * a[...] or outer(a, a): the H_ii H_jj under the
    s_ij = sqrt(H_ii H_jj) of the dihedral cosines."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        left, right = node.left, node.right
        return (isinstance(left, ast.Subscript) and isinstance(right, ast.Subscript)
                and ast.unparse(left.value) == ast.unparse(right.value))
    return (isinstance(node, ast.Call) and ast.unparse(node.func).endswith("outer")
            and len(node.args) == 2 and ast.unparse(node.args[0]) == ast.unparse(node.args[1]))


def test_gram_matrices_become_angles_in_one_place():
    # one Gram inverse behind every dihedral angle: G^-1 only in
    # _inverse_gram (besides the Legendre Vandermonde of the v_n rule and
    # the path order's B_0, neither a Gram matrix); the cosines and their
    # derivatives only in the two simplex kernels; the SVD rank rule only
    # in _degenerate (random_nondegenerate_simplex's conditioning check is
    # another rule on purpose)
    inverses = _linalg_calls("inv")
    assert ("simplex", "_inverse_gram") in inverses
    assert inverses <= {("simplex", "_inverse_gram"), ("volume", "_schlafli_volume"),
                        ("volume", "_path_order")}
    svds = _linalg_calls("svd")
    assert ("simplex", "_degenerate") in svds
    assert svds <= {("simplex", "_degenerate"), ("simplex", "random_nondegenerate_simplex")}
    assert _calls_where(lambda call: ast.unparse(call.func).endswith("sqrt")
                        and len(call.args) == 1 and _is_diagonal_product(call.args[0])) == {
        ("simplex", "_dihedral_cosines"), ("simplex", "_angle_derivatives")}
    assert not hasattr(volume, "_cosines")


def test_angle_violation_regular_and_search_candidates():
    # on the regular ideal simplex every angle is alpha_n
    for n in range(4, 9):
        lo, hi = angle_bracket(n, margin_a(n))
        alpha = math.acos(1.0 / (n - 1))
        assert _angle_violation(regular_ideal_simplex(n), lo, hi) == pytest.approx(
            -min(alpha - lo, hi - alpha), abs=1e-12)
    # candidates of the eps_n search against angles from the per-facet
    # solves; near 0 and pi a cosine error of 1e-16 moves arccos by ~1e-8
    rng = np.random.default_rng(31)
    signs = set()
    for n in (4, 5):
        lo, hi = angle_bracket(n, margin_a(n))
        base = regular_ideal_simplex(n).klein_vertices()
        made = 0
        while made < 50:
            scale = 10.0 ** rng.uniform(-3.0, -0.3)
            ideal = [True] * (n + 1)
            kv = _jitter(base, ideal, rng, scale)
            if made % 3 == 0:
                i = made % (n + 1)
                ideal[i] = False
                kv[i] *= 1.0 - abs(rng.normal(0.0, scale))
            K = _build(kv, ideal, n)
            if is_degenerate(K, tol=1e-8):
                continue
            made += 1
            q = np.array([_facet_dual_by_solve(K, j) for j in range(n + 1)])
            cos = np.clip(-_mink_rows(q, q)[np.triu_indices(n + 1, 1)], -1.0, 1.0)
            angles = np.arccos(cos)
            expect = max(np.max(lo - angles), np.max(angles - hi))
            assert _angle_violation(K, lo, hi) == pytest.approx(expect, abs=1e-7)
            signs.add(expect > 0)
    assert signs == {False, True}


def test_facet_dual_regular_3():
    # -<q_i, q_j> = 1/2 = cos(alpha_3); oracle: the direct linear solve above
    K = regular_ideal_simplex(3)
    duals = all_facet_duals(K)
    for i, j in itertools.combinations(range(4), 2):
        assert -mink(duals[i].q, duals[j].q) == pytest.approx(0.5, abs=1e-12)


def test_facet_dual_equivariance():
    rng = np.random.default_rng(5)
    for k in range(10):
        K = random_nondegenerate_simplex(3, rng)
        g = random_isometry(3, seed=500 + k)
        qg = facet_dual(apply_isometry(g, K), 2).q
        gq = g.apply_vector(facet_dual(K, 2).q)
        assert np.max(np.abs(qg - gq)) < 1e-8


# ---------------------------------------------------------------------------
# incenter


def test_incenter_regular_is_symmetric_center():
    for n in (2, 3, 4, 5):
        K = regular_ideal_simplex(n)
        inc = incenter_inradius(K)
        expect = np.zeros(n + 1)
        expect[0] = 1.0
        assert np.max(np.abs(inc.incenter.rep - expect)) < 1e-10
        assert inc.inradius == pytest.approx(math.asinh(1.0 / math.sqrt(n * n - 1)),
                                             abs=1e-12)


def test_incenter_tangency_and_interior():
    rng = np.random.default_rng(7)
    for n in (3, 4, 5):
        for _ in range(20):
            K = random_nondegenerate_simplex(n, rng)
            res = incenter_inradius(K)
            sr = math.sinh(res.inradius)
            for d in all_facet_duals(K):
                assert abs(sr + mink(res.incenter.rep, d.q)) < 1e-9
            bary = barycentric_coords(K, res.incenter)
            assert np.min(bary) > 0.0


def test_incenter_isometry_invariance():
    rng = np.random.default_rng(9)
    K = random_nondegenerate_simplex(4, rng)
    r = incenter_inradius(K).inradius
    for k in range(10):
        g = random_isometry(4, seed=900 + k)
        assert incenter_inradius(apply_isometry(g, K)).inradius == pytest.approx(r, abs=1e-8)


def _side_normal(a, b, center):
    """Independent dual construction in Minkowski 3-space: q ~ J (a x b)."""
    q = np.cross(a.rep, b.rep)
    q[0] = -q[0]
    q = q / math.sqrt(mink(q, q))
    if mink(center, q) > 0:
        q = -q
    return q


def test_ideal_triangle_inradius_bisection_oracle():
    """Independent 2-D computation: bisection on the symmetric axis for the
    point equidistant from the three sides, using J-cross-product normals."""
    K = ideal_triangle()
    v0, v1, v2 = K.vertices
    center = np.array([1.0, 0.0, 0.0])
    q_opp = _side_normal(v1, v2, center)    # side opposite the top vertex
    q_adj = _side_normal(v0, v1, center)    # an adjacent side

    def gap(t):
        p = np.array([math.cosh(t), 0.0, math.sinh(t)])
        return math.asinh(-mink(p, q_opp)) - math.asinh(-mink(p, q_adj))

    lo, hi = -1.0, 1.0
    assert gap(lo) * gap(hi) < 0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if gap(lo) * gap(mid) <= 0:
            hi = mid
        else:
            lo = mid
    t_star = 0.5 * (lo + hi)
    p = np.array([math.cosh(t_star), 0.0, math.sinh(t_star)])
    r_oracle = math.asinh(-mink(p, q_opp))

    res = incenter_inradius(K)
    assert res.inradius == pytest.approx(r_oracle, abs=1e-8)
    # classical closed form: inradius of the ideal triangle is asinh(1/sqrt 3)
    assert res.inradius == pytest.approx(math.asinh(1.0 / math.sqrt(3.0)), abs=1e-10)


# ---------------------------------------------------------------------------
# degeneracy and orientation


def test_is_degenerate():
    # two ideal endpoints of a geodesic plus a finite point on it
    K = GeodesicSimplex((lift_klein([1.0, 0.0], ideal=True),
                         lift_klein([-1.0, 0.0], ideal=True),
                         lift_klein([0.5, 0.0])), 2)
    assert is_degenerate(K)
    assert not is_degenerate(regular_ideal_simplex(3))
    v = lift_klein([0.3, 0.1, 0.0])
    K = GeodesicSimplex((v, v, lift_klein([0.0, 0.5, 0.1]),
                         lift_klein([0.0, 0.0, 0.9])), 3)
    assert is_degenerate(K)


def test_orientation_sign():
    K = regular_ideal_simplex(3)
    s = orientation_sign(K)
    assert s in (-1, 1)
    vs = list(K.vertices)
    vs[0], vs[1] = vs[1], vs[0]
    assert orientation_sign(GeodesicSimplex(tuple(vs), 3)) == -s
    deg = GeodesicSimplex((lift_klein([1.0, 0.0], ideal=True),
                           lift_klein([-1.0, 0.0], ideal=True),
                           lift_klein([0.5, 0.0])), 2)
    assert orientation_sign(deg) == 0


@settings(max_examples=30, deadline=None)
@given(st.permutations(list(range(4))))
def test_orientation_alternates(perm):
    K = regular_ideal_simplex(3)
    s0 = orientation_sign(K)
    sign = 1
    seq = list(perm)
    for i in range(4):
        for j in range(i + 1, 4):
            if seq[i] > seq[j]:
                sign = -sign
    Kp = GeodesicSimplex(tuple(K.vertices[i] for i in perm), 3)
    assert orientation_sign(Kp) == sign * s0


# ---------------------------------------------------------------------------
# straighten


def test_straighten_idempotent_and_equivariant():
    rng = np.random.default_rng(12)
    K = random_nondegenerate_simplex(3, rng)
    assert straighten(K.vertices).vertices == K.vertices
    g = random_isometry(3, seed=77)
    a = apply_isometry(g, straighten(K.vertices))
    b = straighten(tuple(g.apply(v) for v in K.vertices))
    for va, vb in zip(a.vertices, b.vertices):
        assert np.max(np.abs(va.rep - vb.rep)) < 1e-10
    # face restriction commutes with straightening
    sub = (0, 2, 3)
    assert straighten([K.vertices[i] for i in sub]).vertices == K.face(sub).vertices


# ---------------------------------------------------------------------------
# point-to-simplex distance


def test_distance_zero_inside():
    # arccosh near 1 resolves distances only to ~sqrt(eps) ~ 2e-8
    K = regular_ideal_simplex(3)
    p = barycentric_point(K, [0.25, 0.25, 0.25, 0.25])
    assert distance_point_to_simplex(p, K) == pytest.approx(0.0, abs=1e-7)
    # incenter of a facet lies on the facet
    F = K.facet(0)
    inc = incenter_inradius(F).incenter
    assert distance_point_to_simplex(inc, F) == pytest.approx(0.0, abs=1e-7)


def test_distance_on_geodesic_is_zero_and_hyperplane_case():
    p0 = finite_point([1.0, 0.0, 0.0])
    E1 = GeodesicSimplex((lift_klein([1.0, 0.0], ideal=True),
                          lift_klein([-1.0, 0.0], ideal=True)), 2)
    assert distance_point_to_simplex(p0, E1) == pytest.approx(0.0, abs=1e-12)
    # p off the y-axis geodesic: distance equals the closed-form hyperplane
    # distance because the minimum is interior
    p = lift_klein([0.5, 0.0])
    E2 = GeodesicSimplex((lift_klein([0.0, 1.0], ideal=True),
                          lift_klein([0.0, -1.0], ideal=True)), 2)
    from hypstab.minkowski import dist_to_hyperplane
    q = np.array([0.0, -1.0, 0.0])
    assert distance_point_to_simplex(p, E2) == pytest.approx(
        dist_to_hyperplane(p, q), abs=1e-12)
    assert distance_point_to_simplex(p, E2) == pytest.approx(math.log(3.0) / 2.0,
                                                             abs=1e-12)


def test_distance_project_vs_pgd_and_grid():
    rng = np.random.default_rng(21)
    for n, k in ((2, 1), (2, 2), (3, 2), (3, 3)):
        for trial in range(6):
            E = random_nondegenerate_simplex(n, rng, k=k)
            p = lift_klein(0.9 * rng.uniform(-1, 1, size=n) / math.sqrt(n))
            d_proj, foot = nearest_point_on_simplex(p, E)
            assert distance(p, foot) == pytest.approx(d_proj, abs=1e-7)
            assert distance_point_to_simplex(foot, E) == pytest.approx(0.0, abs=1e-7)
            d_pgd = _distance_by_pgd(p, E, seed=trial)
            assert d_pgd == pytest.approx(d_proj, abs=5e-6)
            # dense-grid audit: grid points lie in E, so d_proj <= every
            # grid distance, and the grid minimum converges from above
            steps = 400 if k == 1 else 60
            grid = _grid_distances(p, E, steps)
            assert d_proj <= grid + 1e-9
            assert grid - d_proj < 6.0 / steps


def _grid_distances(p, E, steps):
    m = E.k + 1
    axes = [np.linspace(0, 1, steps + 1) for _ in range(m - 1)]
    pts = np.stack(np.meshgrid(*axes), axis=-1).reshape(-1, m - 1)
    lam = np.concatenate([pts, 1.0 - pts.sum(axis=1, keepdims=True)], axis=1)
    lam = lam[lam[:, -1] >= 0]
    s = lam @ E.rep_matrix
    nrm = -(-s[:, 0] ** 2 + (s[:, 1:] ** 2).sum(axis=1))
    good = nrm > 1e-12
    s = s[good] / np.sqrt(nrm[good])[:, None]
    cosh_d = s[:, 0] * p.rep[0] - s[:, 1:] @ p.rep[1:]
    return float(np.arccosh(np.clip(cosh_d.min(), 1.0, None)))


def _project_to_std_simplex(y):
    """Euclidean projection onto { x >= 0, sum x = 1 }."""
    u = np.sort(y)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, len(y) + 1)
    cond = u - css / idx > 0
    rho = idx[cond][-1]
    theta = css[rho - 1] / rho
    return np.maximum(y - theta, 0.0)


def _distance_by_pgd(p, E, seed):
    """Independent oracle: multi-start projected gradient over barycentric
    coordinates.

    Minimizes cosh d = -<p, S(lam)> / sqrt(-<S, S>), which is continuous
    and unimodal along segments through the minimizer; refined by
    golden-section exchanges on the active face.
    """
    vmat = E.rep_matrix
    m = E.k + 1
    gp = _mink_rows(vmat, p.rep[None, :]).ravel()  # <v_i, p>
    gram = E.gram

    def fval(lam):
        a = -lam @ gp
        b = -lam @ gram @ lam
        if b <= 0:
            return math.inf
        return a / math.sqrt(b)

    def grad(lam):
        a = -lam @ gp
        b = -lam @ gram @ lam
        sb = math.sqrt(b)
        return -gp / sb + a * (gram @ lam) / (b * sb)

    rng = np.random.default_rng(seed)
    starts = [np.full(m, 1.0 / m)]
    starts += [rng.dirichlet(np.ones(m)) for _ in range(7)]
    best_f = math.inf
    for lam0 in starts:
        lam = lam0.copy()
        f = fval(lam)
        step = 1.0
        for _ in range(200):
            g = grad(lam)
            improved = False
            while step > 1e-14:
                cand = _project_to_std_simplex(lam - step * g)
                fc = fval(cand)
                if fc < f - 1e-16:
                    lam, f = cand, fc
                    improved = True
                    step *= 1.5
                    break
                step *= 0.5
            if not improved:
                break
        # golden-section polish along coordinate exchanges
        phi = (math.sqrt(5.0) - 1.0) / 2.0
        for _ in range(3):
            for i in range(m):
                for j in range(i + 1, m):
                    lo, hi = -lam[i], lam[j]
                    if hi - lo < 1e-15:
                        continue

                    def fex(t, i=i, j=j):
                        cand = lam.copy()
                        cand[i] += t
                        cand[j] -= t
                        return fval(cand)

                    a, b = lo, hi
                    c1 = b - phi * (b - a)
                    c2 = a + phi * (b - a)
                    f1, f2 = fex(c1), fex(c2)
                    for _ in range(40):
                        if f1 < f2:
                            b, c2, f2 = c2, c1, f1
                            c1 = b - phi * (b - a)
                            f1 = fex(c1)
                        else:
                            a, c1, f1 = c1, c2, f2
                            c2 = a + phi * (b - a)
                            f2 = fex(c2)
                    t = (a + b) / 2
                    if fex(t) < f:
                        lam[i] += t
                        lam[j] -= t
                        lam = np.maximum(lam, 0.0)
                        lam /= lam.sum()
                        f = fval(lam)
        if f < best_f:
            best_f = f
    return _arccosh_stable(best_f)


def _gram_nearest(gram, dots, subset, ideal, tol):
    """Reference: nearest point of the face on `subset`, given <p, v_j>
    for all vertices, by active-set recursion.

    Returns (distance, sub-face, coefficients): the nearest point is
    sum_j c_j v_j over the sub-face vertices, on the hyperboloid.  The
    orthogonal foot on the face span either lands inside the face (then
    it is the nearest point) or the nearest point lies on the boundary,
    and the recursion descends to every face of one vertex fewer.
    """
    best, best_face, best_coeffs = math.inf, None, None
    seen = set()

    def visit(s):
        nonlocal best, best_face, best_coeffs
        if s in seen:
            return
        seen.add(s)
        if len(s) == 1:
            i = s[0]
            if ideal[i]:
                return
            d = _arccosh_stable(-dots[i])
            if d < best:
                best, best_face, best_coeffs = d, s, np.ones(1)
            return
        idx = list(s)
        g = gram[np.ix_(idx, idx)]
        r = dots[idx]
        try:
            c = np.linalg.solve(g, r)
        except np.linalg.LinAlgError:
            return
        nsq = float(c @ r)
        feasible = nsq < -tol and float(np.min(c)) >= -1e-12 * max(1.0, float(np.max(np.abs(c))))
        if feasible:
            d = _arccosh_stable(math.sqrt(-nsq))
            if d < best:
                best, best_face, best_coeffs = d, s, c / math.sqrt(-nsq)
            return
        for drop in range(len(s)):
            visit(s[:drop] + s[drop + 1:])

    visit(tuple(subset))
    if best_face is None:
        raise SingularSystemError("no feasible foot found on any subface")
    return best, best_face, best_coeffs


def _nearest_by_recursion(p, E):
    """(distance, foot) from `_gram_nearest` on the whole of E."""
    dots = _mink_rows(E.rep_matrix, p.rep[None, :]).ravel()
    d, face, coeffs = _gram_nearest(E.gram, dots, tuple(range(E.k + 1)), E.ideal_flags(),
                                    DEFAULT_TOL)
    return d, finite_point(E.rep_matrix[list(face)].T @ coeffs)


def _clearance_by_recursion(K):
    """Reference clearance, pair by pair: `_gram_nearest` from the center
    of each (n-2)-face E to each face of n-1 or n vertices not containing
    E.  Centers come from `incenter_inradius`, which raises if a face has
    no incenter."""
    n = K.ambient_dim
    faces = list(itertools.combinations(range(n + 1), n - 1))
    targets = faces + list(itertools.combinations(range(n + 1), n))
    best = math.inf
    for e in faces:
        center = incenter_inradius(K.face(e)).incenter.rep
        dots = _mink_rows(K.rep_matrix, center[None, :]).ravel()
        for t in targets:
            if not set(e) <= set(t):
                best = min(best, _gram_nearest(K.gram, dots, t, K.ideal_flags(), DEFAULT_TOL)[0])
    return best


def _reference_simplices():
    """(n, simplex) pairs for the kernel-against-recursion tests: random
    draws with finite, mixed and all-ideal vertices, and candidates of the
    eps_n search (jittered regular simplices, all ideal or with one
    finite vertex)."""
    rng = np.random.default_rng(2024)
    for n, count in ((4, 36), (5, 30)):
        for i in range(count):
            yield n, random_nondegenerate_simplex(n, rng, ideal_prob=(0.0, 0.5, 1.0)[i % 3])
        base = regular_ideal_simplex(n).klein_vertices()
        made = 0
        while made < count:
            scale = 10.0 ** rng.uniform(-2.5, -0.3)
            ideal = [True] * (n + 1)
            kv = _jitter(base, ideal, rng, scale)
            if made % 2:
                i = made % (n + 1)
                ideal[i] = False
                kv[i] *= 1.0 - abs(rng.normal(0.0, scale))
            K = _build(kv, ideal, n)
            if not is_degenerate(K, tol=1e-8):
                made += 1
                yield n, K


def test_clearance_matches_recursion():
    seen = {4: set(), 5: set()}
    for n, K in _reference_simplices():
        ref = _clearance_by_recursion(K)
        # the absolute floor: an error of 1e-15 in cosh d moves a distance
        # d by 1e-15 / sinh d, above 1e-10 relative for d below 3e-3
        assert min_face_clearance(K) == pytest.approx(ref, rel=1e-10, abs=1e-10)
        seen[n].add(int(np.sum(K.ideal_flags())))
    for n, counts in seen.items():
        # all finite, mixed and all ideal vertices occur in every dimension
        assert {0, n + 1} <= counts and len(counts) >= 4


def test_nearest_point_matches_recursion():
    rng = np.random.default_rng(77)
    for n in (3, 4, 5):
        for k in range(1, n + 1):
            for i in range(12):
                E = random_nondegenerate_simplex(n, rng, ideal_prob=(0.0, 0.5, 1.0)[i % 3], k=k)
                direction = rng.standard_normal(n)
                p = lift_klein(rng.uniform(0.0, 0.95) * direction / np.linalg.norm(direction))
                d_ref, foot_ref = _nearest_by_recursion(p, E)
                d, foot = nearest_point_on_simplex(p, E)
                if d_ref < 1e-4:
                    # p in E: arccosh near 1 resolves only ~sqrt(eps)
                    assert d < 1e-7
                else:
                    assert d == pytest.approx(d_ref, rel=1e-10)
                assert distance(foot, foot_ref) < 1e-7
                assert distance(p, foot) == pytest.approx(d, abs=1e-7)


def test_distance_errors():
    p = finite_point([1.0, 0, 0])
    deg = GeodesicSimplex((lift_klein([1.0, 0.0], ideal=True),
                           lift_klein([-1.0, 0.0], ideal=True),
                           lift_klein([0.5, 0.0])), 2)
    with pytest.raises(DegenerateSimplexError):
        distance_point_to_simplex(p, deg)


# ---------------------------------------------------------------------------
# face clearance


def test_clearance_positive_and_symmetric():
    pinned = {4: 0.4554901397219446, 5: 0.3173927781509146}
    for n, value in pinned.items():
        c = min_face_clearance(regular_ideal_simplex(n))
        assert c == pytest.approx(value, rel=1e-12)
        assert c == pytest.approx(_clearance_by_recursion(regular_ideal_simplex(n)), rel=1e-12)


def test_clearance_isometry_invariance():
    for n in (4, 5):
        K = regular_ideal_simplex(n)
        c = min_face_clearance(K)
        for k in range(5):
            g = random_isometry(n, seed=40 + k)
            assert min_face_clearance(apply_isometry(g, K)) == pytest.approx(c, abs=1e-6)


def test_clearance_symmetric_pairs_equal():
    # vertex permutations are isometries of the regular simplex, so the
    # minimum and each symmetric pair distance are label-independent
    for n in (4, 5):
        K = regular_ideal_simplex(n)
        c = min_face_clearance(K)
        perms = ([1, 0] + list(range(2, n + 1)),
                 list(range(1, n + 1)) + [0])
        for perm in perms:
            Kp = GeodesicSimplex(tuple(K.vertices[i] for i in perm), n)
            assert min_face_clearance(Kp) == pytest.approx(c, abs=1e-10)
    # an explicit symmetric pair at n=4: centers of two faces related by a
    # transposition are equidistant from the corresponding facets
    K = regular_ideal_simplex(4)
    c1 = incenter_inradius(K.face((0, 1, 2))).incenter
    d1 = distance_point_to_simplex(c1, K.face((1, 2, 3, 4)))
    c2 = incenter_inradius(K.face((0, 1, 3))).incenter
    d2 = distance_point_to_simplex(c2, K.face((1, 3, 2, 4)))
    assert d1 == pytest.approx(d2, abs=1e-10)


def test_clearance_requires_full_dimension():
    # in H^3 a 2-face is an edge, which has no incenter when an end is ideal
    for K in (regular_ideal_simplex(4, 3), regular_ideal_simplex(3)):
        with pytest.raises(GeometryError):
            min_face_clearance(K)


def test_ideal_edge_has_no_incenter():
    edge = regular_ideal_simplex(3).face((0, 1))
    with pytest.raises(DualVectorError):
        incenter_inradius(edge)


def test_segment_with_one_ideal_end_has_one_dual():
    # the finite endpoint's facet keeps a spacelike dual, the ideal one's
    # is lightlike
    seg = GeodesicSimplex((lift_klein([1.0, 0.0, 0.0], ideal=True),
                           lift_klein([0.0, 0.3, 0.0])), 3)
    q = facet_dual(seg, 0).q
    assert np.max(np.abs(q - _facet_dual_by_solve(seg, 0))) < 1e-12
    with pytest.raises(DualVectorError):
        facet_dual(seg, 1)
    with pytest.raises(DualVectorError):
        incenter_inradius(seg)


def test_finite_segment_incenter_is_midpoint():
    a = lift_klein([0.0, 0.0, 0.0])
    b = lift_klein([0.6, 0.0, 0.0])
    seg = GeodesicSimplex((a, b), 3)
    res = incenter_inradius(seg)
    assert distance(a, res.incenter) == pytest.approx(distance(b, res.incenter), abs=1e-12)
    assert res.inradius == pytest.approx(distance(a, b) / 2, abs=1e-12)
