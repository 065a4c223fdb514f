import ast
import itertools
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from hypstab.constants import _angle_violation, _build, _jitter, angle_bracket, margin_a
from hypstab.minkowski import (
    DEFAULT_TOL,
    GeometryError,
    _arccosh_stable,
    _mink_rows,
    distance,
    ideal_point,
    lift_klein,
    mink,
    random_isometry,
)
import hypstab
from hypstab import simplex, volume
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
    dihedral_angles,
    incenter_inradius,
    is_degenerate,
    min_face_clearance,
    random_nondegenerate_simplex,
    regular_ideal_simplex,
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
        assert dihedral_angles(K3)[i, j] == pytest.approx(math.pi / 3, abs=1e-10)
    K4 = regular_ideal_simplex(4)
    assert dihedral_angles(K4)[0, 1] == pytest.approx(math.acos(1.0 / 3.0), abs=1e-10)
    for n in range(3, 9):
        K = regular_ideal_simplex(n)
        assert dihedral_angles(K)[0, 1] == pytest.approx(math.acos(1.0 / (n - 1)), abs=1e-10)


def test_dihedral_relabeling_invariance():
    rng = np.random.default_rng(0)
    Kp = random_nondegenerate_simplex(3, rng)
    a = dihedral_angles(Kp)[1, 2]
    # relabel vertices fixing {1, 2}
    Kswap = GeodesicSimplex((Kp.vertices[3], Kp.vertices[1], Kp.vertices[2],
                             Kp.vertices[0]), 3)
    assert dihedral_angles(Kswap)[1, 2] == pytest.approx(a, abs=1e-12)


# ---------------------------------------------------------------------------
# facet duals


def test_facet_dual_defining_conditions():
    rng = np.random.default_rng(42)
    for n in (3, 4, 5):
        for _ in range(200):
            K = random_nondegenerate_simplex(n, rng)
            for i, d in enumerate(all_facet_duals(K)):
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
    # no determinant rank rule: the one det is the Euclidean volume's
    assert _linalg_calls("det") <= {("volume", "_klein_form")}
    assert _calls_where(lambda call: ast.unparse(call.func).endswith("sqrt")
                        and len(call.args) == 1 and _is_diagonal_product(call.args[0])) == {
        ("simplex", "_dihedral_cosines"), ("simplex", "_angle_derivatives")}
    assert not hasattr(volume, "_cosines")
    assert not hasattr(simplex, "orientation_sign")


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
        qg = all_facet_duals(apply_isometry(g, K))[2].q
        gq = g.apply_vector(all_facet_duals(K)[2].q)
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
# degeneracy


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


def test_degenerate_input_raises():
    # a repeated vertex makes the Gram matrix singular
    K = regular_ideal_simplex(4)
    deg = GeodesicSimplex(K.vertices[:4] + K.vertices[:1], 4)
    with pytest.raises(DegenerateSimplexError):
        min_face_clearance(deg)
    with pytest.raises(DegenerateSimplexError):
        incenter_inradius(deg)


# ---------------------------------------------------------------------------
# face clearance against a pair-by-pair recursion


def _gram_nearest(gram, dots, subset, ideal, tol):
    """Reference: distance to the face on `subset`, given <p, v_j> for all
    vertices, by active-set recursion.

    The orthogonal foot on the face span either lands inside the face
    (then it is the nearest point) or the nearest point lies on the
    boundary, and the recursion descends to every face of one vertex
    fewer.
    """
    best = math.inf
    seen = set()

    def visit(s):
        nonlocal best
        if s in seen:
            return
        seen.add(s)
        if len(s) == 1:
            if not ideal[s[0]]:
                best = min(best, _arccosh_stable(-dots[s[0]]))
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
            best = min(best, _arccosh_stable(math.sqrt(-nsq)))
            return
        for drop in range(len(s)):
            visit(s[:drop] + s[drop + 1:])

    visit(tuple(subset))
    if best == math.inf:
        raise SingularSystemError("no feasible foot found on any subface")
    return best


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
                best = min(best, _gram_nearest(K.gram, dots, t, K.ideal_flags(), DEFAULT_TOL))
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

    def center_to_face(center_face, target):
        center = incenter_inradius(K.face(center_face)).incenter.rep
        dots = _mink_rows(K.rep_matrix, center[None, :]).ravel()
        return _gram_nearest(K.gram, dots, target, K.ideal_flags(), DEFAULT_TOL)

    d1 = center_to_face((0, 1, 2), (1, 2, 3, 4))
    d2 = center_to_face((0, 1, 3), (1, 3, 2, 4))
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
    ginv, diag, spacelike = _inverse_gram(seg.gram)
    assert list(spacelike) == [True, False]
    q = -(seg.rep_matrix.T @ ginv[:, 0]) / math.sqrt(diag[0])
    assert np.max(np.abs(q - _facet_dual_by_solve(seg, 0))) < 1e-12
    with pytest.raises(DualVectorError):
        all_facet_duals(seg)
    with pytest.raises(DualVectorError):
        incenter_inradius(seg)


def test_finite_segment_incenter_is_midpoint():
    a = lift_klein([0.0, 0.0, 0.0])
    b = lift_klein([0.6, 0.0, 0.0])
    seg = GeodesicSimplex((a, b), 3)
    res = incenter_inradius(seg)
    assert distance(a, res.incenter) == pytest.approx(distance(b, res.incenter), abs=1e-12)
    assert res.inradius == pytest.approx(distance(a, b) / 2, abs=1e-12)
