r"""Geodesic simplices with possibly ideal vertices.

A geodesic k-simplex in compactified hyperbolic n-space is the convex
hull of k+1 points, each finite (on the hyperboloid) or ideal (on the
light cone).  In the Klein model it is the Euclidean convex hull of the
vertex images, which makes the face lattice and all convexity arguments
elementary.

The central tool is the dual vector of a facet F_i: the unique unit
spacelike vector q_i in the Minkowski span of the simplex with
``<q_i, w> = 0`` on F_i and ``<q_i, w> <= 0`` on the simplex.  Duals give

* dihedral angles:  cos(angle at F_i ∩ F_j) = -<q_i, q_j>,
* hyperplane distances:  sinh d(w, H(F_i)) = -<w, q_i>,
* the incenter/inradius:  the interior point with <c, q_i> constant,
  normalized to the hyperboloid, with sinh r = -<inc, q_i>.

Point-to-simplex distances are exact: the nearest point of a convex
simplex lies in the relative interior of exactly one face, where it is
the Minkowski-orthogonal foot on the face span.  An active-set search
over the Gram matrix finds that face, descending to the boundary
whenever a foot falls outside its face.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .minkowski import (
    DEFAULT_TOL,
    FINITE,
    GeometryError,
    Isometry,
    ProjectivePoint,
    _arccosh_stable,
    _mink_rows,
    ideal_point,
    lift_klein,
    mink,
)


class DegenerateSimplexError(GeometryError):
    """The vertex representatives span too small a subspace."""


class SingularSystemError(GeometryError):
    """A linear system that should be regular is numerically singular."""


class DualVectorError(GeometryError):
    """No unit spacelike dual vector exists (ideal facet of a 1-simplex)."""


@dataclass(frozen=True)
class GeodesicSimplex:
    """Ordered vertex tuple of a geodesic simplex in H^n-bar."""

    vertices: tuple
    ambient_dim: int

    def __post_init__(self):
        if len(self.vertices) < 2:
            raise GeometryError("a simplex needs at least 2 vertices")
        for v in self.vertices:
            if v.dim != self.ambient_dim:
                raise GeometryError("vertex dimension does not match ambient dimension")
        if self.k > self.ambient_dim:
            raise GeometryError(f"{self.k}-simplex cannot live in H^{self.ambient_dim}")

    @property
    def k(self) -> int:
        return len(self.vertices) - 1

    @cached_property
    def rep_matrix(self) -> np.ndarray:
        """(k+1) x (n+1) matrix whose rows are the vertex representatives."""
        m = np.array([v.rep for v in self.vertices])
        m.setflags(write=False)
        return m

    @cached_property
    def gram(self) -> np.ndarray:
        """Minkowski Gram matrix of the vertex representatives."""
        g = _mink_rows(self.rep_matrix, self.rep_matrix)
        g.setflags(write=False)
        return g

    def klein_vertices(self) -> np.ndarray:
        v = self.rep_matrix
        return v[:, 1:] / v[:, :1]

    def ideal_flags(self) -> np.ndarray:
        return np.array([p.is_ideal for p in self.vertices])

    def face(self, indices) -> "GeodesicSimplex":
        idx = tuple(indices)
        return GeodesicSimplex(tuple(self.vertices[i] for i in idx), self.ambient_dim)

    def facet(self, i: int) -> "GeodesicSimplex":
        """The facet opposite vertex i."""
        return self.face([j for j in range(self.k + 1) if j != i])


def straighten(vertex_images) -> GeodesicSimplex:
    """The geodesic simplex spanned by a tuple of vertex images.

    This is the combinatorial shadow of straightening a singular simplex
    with these vertices by barycentric coordinates: the map itself is not
    materialized, only its image and orientation data.
    """
    pts = tuple(vertex_images)
    return GeodesicSimplex(pts, pts[0].dim)


def apply_isometry(g: Isometry, K: GeodesicSimplex) -> GeodesicSimplex:
    return GeodesicSimplex(tuple(g.apply(v) for v in K.vertices), K.ambient_dim)


def regular_ideal_simplex(n: int, k: int | None = None) -> GeodesicSimplex:
    """The regular ideal k-simplex in H^n (k = n by default).

    Vertices are (1, u_i) with unit vectors u_i in a k-plane satisfying
    u_i . u_j = -1/k for i != j, so every vertex permutation is realized
    by a Euclidean rotation of the spatial part.
    """
    if k is None:
        k = n
    if not (2 <= k <= n):
        raise GeometryError(f"need 2 <= k <= n, got k={k}, n={n}")
    # orthonormal basis of the complement of (1,...,1) in R^{k+1}
    ones = np.ones((k + 1, 1))
    q_full, _ = np.linalg.qr(np.hstack([ones, np.eye(k + 1)[:, :k]]))
    q = q_full[:, 1 : k + 1]
    u = math.sqrt(1.0 + 1.0 / k) * q  # rows: u_i in R^k
    verts = []
    for i in range(k + 1):
        x = np.zeros(n)
        x[:k] = u[i]
        verts.append(ideal_point(np.concatenate(([1.0], x))))
    return GeodesicSimplex(tuple(verts), n)


def is_degenerate(K: GeodesicSimplex, tol: float = 1e-10) -> bool:
    """True iff the vertex representatives are linearly dependent.

    Tolerance-thresholded singular values of the Minkowski Gram matrix;
    the span of a nondegenerate simplex is a Lorentzian (k+1)-subspace,
    so Gram rank deficiency is equivalent to linear dependence.
    """
    s = np.linalg.svd(K.gram, compute_uv=False)
    return bool(s[-1] <= tol * max(s[0], 1.0))


def orientation_sign(K: GeodesicSimplex, tol: float = 1e-10) -> int:
    """Sign of det of the vertex representative matrix; 0 iff degenerate.

    Equals the sign of the algebraic volume of the straight simplex with
    these ordered vertices, and alternates under vertex transpositions.
    """
    if K.k != K.ambient_dim:
        raise GeometryError("orientation sign needs a full-dimensional simplex")
    v = K.rep_matrix
    det = np.linalg.det(v)
    scale = float(np.prod(np.linalg.norm(v, axis=1)))
    if abs(det) <= tol * max(scale, 1.0):
        return 0
    return 1 if det > 0 else -1


@dataclass(frozen=True)
class FacetDual:
    """Unit spacelike vector Minkowski-orthogonal to facet ``facet_index``."""

    q: np.ndarray
    facet_index: int


def facet_dual(K: GeodesicSimplex, i: int, tol: float = DEFAULT_TOL) -> FacetDual:
    """Dual vector of the facet opposite vertex i.

    Solved as a linear system in the span of the vertex representatives;
    the sign is fixed by <q, v_i> <= 0 for the opposite vertex.
    """
    kk = K.k
    if not (0 <= i <= kk):
        raise GeometryError(f"facet index {i} out of range")
    a = K.gram
    rhs = np.zeros(kk + 1)
    rhs[i] = 1.0
    try:
        c = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise DegenerateSimplexError(f"singular Gram matrix: {exc}") from exc
    q = K.rep_matrix.T @ c
    nq = mink(q, q)
    if nq <= tol:
        raise DualVectorError(
            f"facet {i} has no spacelike dual (norm^2 = {nq}); "
            "this happens for ideal facets of 1-simplices"
        )
    q = q / math.sqrt(nq)
    if mink(q, K.vertices[i].rep) > 0:
        q = -q
    return FacetDual(q, i)


def all_facet_duals(K: GeodesicSimplex, tol: float = DEFAULT_TOL):
    return [facet_dual(K, i, tol) for i in range(K.k + 1)]


def dihedral_angle(K: GeodesicSimplex, i: int, j: int) -> float:
    """Interior dihedral angle at the codimension-2 face F_i ∩ F_j.

    cos(angle) = -<q_i, q_j>, which agrees with the angle of the polygon
    cut by a 2-plane meeting the face orthogonally.
    """
    if i == j:
        raise GeometryError("need two distinct facets")
    qi = facet_dual(K, i).q
    qj = facet_dual(K, j).q
    return math.acos(min(1.0, max(-1.0, -mink(qi, qj))))


@dataclass(frozen=True)
class IncenterResult:
    incenter: ProjectivePoint
    inradius: float


def incenter_inradius(K: GeodesicSimplex, tol: float = DEFAULT_TOL) -> IncenterResult:
    """Center and radius of the largest inscribed ball.

    Solves <c, q_i> = -1 for all facet duals q_i within the span of the
    simplex and normalizes c to the hyperboloid; the inscribed sphere is
    tangent to every facet, with sinh r = -<inc, q_i>.
    """
    if is_degenerate(K):
        raise DegenerateSimplexError("incenter of a degenerate simplex")
    duals = all_facet_duals(K, tol)
    v = K.rep_matrix
    qmat = np.array([d.q for d in duals])
    b = _mink_rows(qmat, v)  # b[i, m] = <q_i, v_m>
    try:
        d = np.linalg.solve(b, -np.ones(K.k + 1))
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"incenter system is singular: {exc}") from exc
    c = v.T @ d
    nc = mink(c, c)
    if nc >= -tol:
        raise SingularSystemError(f"incenter candidate is not timelike (<c,c> = {nc})")
    c = c / math.sqrt(-nc)
    if c[0] < 0:
        c = -c
    p = ProjectivePoint(c, FINITE)
    sinh_r = [-mink(c, dual.q) for dual in duals]
    r = math.asinh(sinh_r[0])
    if r <= 0 or max(sinh_r) - min(sinh_r) > 1e4 * tol * max(1.0, abs(sinh_r[0])):
        raise SingularSystemError(f"inconsistent tangency values {sinh_r}")
    return IncenterResult(p, r)


def barycentric_point(K: GeodesicSimplex, weights) -> ProjectivePoint:
    """Hyperboloid-normalized barycentric combination sum(w_i v_i)."""
    w = np.asarray(weights, dtype=float)
    s = K.rep_matrix.T @ w
    ns = mink(s, s)
    if ns >= 0:
        raise GeometryError("barycentric combination is not timelike")
    s = s / math.sqrt(-ns)
    if s[0] < 0:
        s = -s
    return ProjectivePoint(s, FINITE)


def barycentric_coords(K: GeodesicSimplex, p: ProjectivePoint) -> np.ndarray:
    """Coefficients of p's representative in the vertex representatives.

    Normalized to sum 1 when the sum is nonzero; only meaningful for
    points in the span of the simplex.
    """
    rhs = _mink_rows(K.rep_matrix, p.rep[None, :]).ravel()
    try:
        c = np.linalg.solve(K.gram, rhs)
    except np.linalg.LinAlgError as exc:
        raise DegenerateSimplexError(f"singular Gram matrix: {exc}") from exc
    t = c.sum()
    return c / t if abs(t) > 1e-300 else c


# ---------------------------------------------------------------------------
# point-to-simplex distance


def _gram_nearest(gram: np.ndarray, dots: np.ndarray, subset: tuple,
                  ideal: np.ndarray, tol: float):
    """Nearest point of the face on `subset`, given <p, v_j> for all vertices.

    Returns (distance, sub-face, coefficients): the nearest point is
    sum_j c_j v_j over the sub-face vertices, on the hyperboloid.
    Active-set recursion: the orthogonal foot on the face span either
    lands inside the face (then it is the nearest point) or the nearest
    point lies on the boundary.  Gram entries and the products <p, v_j>
    are all it needs, never the ambient coordinates, which keeps the
    clearance scan fast enough to sit inside optimization loops.
    """
    best, best_face, best_coeffs = math.inf, None, None
    seen = set()

    def visit(s: tuple):
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


def nearest_point_on_simplex(p: ProjectivePoint, E: GeodesicSimplex,
                             tol: float = DEFAULT_TOL):
    """(distance, nearest point) from a finite point to a geodesic simplex."""
    if p.kind != FINITE:
        raise GeometryError("distance from an ideal point is not defined")
    if is_degenerate(E):
        raise DegenerateSimplexError("distance to a degenerate simplex")
    dots = _mink_rows(E.rep_matrix, p.rep[None, :]).ravel()
    d, face, coeffs = _gram_nearest(E.gram, dots, tuple(range(E.k + 1)),
                                    E.ideal_flags(), tol)
    foot = E.rep_matrix[list(face)].T @ coeffs
    return d, ProjectivePoint(foot, FINITE)


def distance_point_to_simplex(p: ProjectivePoint, E: GeodesicSimplex) -> float:
    """min over x in E of d(p, x)."""
    return nearest_point_on_simplex(p, E)[0]


# ---------------------------------------------------------------------------
# face clearances
#
# Face centers are computed from the Minkowski Gram matrix alone: writing
# the incenter of a face F as sum_i d_i v_i over its vertices, the
# tangency system <x, q_i> = -1 diagonalizes and gives the closed form
# d_i = sqrt((G_F^{-1})_{ii}).


def _gram_incenter_coeffs(gram_face: np.ndarray) -> np.ndarray:
    """Vertex coefficients of the face incenter, normalized to the hyperboloid."""
    ginv = np.linalg.inv(gram_face)
    diag = np.diag(ginv)
    # duals of ideal facets of 1-simplices are lightlike; their inverse-Gram
    # diagonal is an exact zero polluted by rounding, hence the relative cut
    if np.min(diag) <= 1e-8 * max(1.0, float(np.max(np.abs(ginv)))):
        raise DualVectorError("a facet dual of this face is not spacelike")
    d = np.sqrt(diag)
    nx = d @ gram_face @ d
    if nx >= 0:
        raise SingularSystemError("incenter candidate is not timelike")
    return d / math.sqrt(-nx)


def min_face_clearance(K: GeodesicSimplex, tol: float = DEFAULT_TOL) -> float:
    """Minimal distance from an (n-2)-face center to a non-containing face.

    The minimum runs over pairs (E an (n-2)-face, E' a face of dimension
    n-2 or n-1 with E not contained in E').  The center of E is its
    incenter; 1-dimensional faces with ideal endpoints have none (the
    inscribed-ball radius degenerates), and for those the foot of the
    ambient incenter on the edge is used instead, which is isometry
    equivariant and agrees with the symmetric midpoint on the regular
    ideal simplex.
    """
    n = K.ambient_dim
    if K.k != n or n < 3:
        raise GeometryError("clearance needs a full-dimensional simplex in dimension >= 3")
    if is_degenerate(K):
        raise DegenerateSimplexError("clearance of a degenerate simplex")
    gram = K.gram
    ideal = K.ideal_flags()
    ambient = np.zeros(n + 1)
    ambient[:] = _gram_incenter_coeffs(gram)
    codim2 = list(itertools.combinations(range(n + 1), n - 1))
    facets = list(itertools.combinations(range(n + 1), n))
    best = math.inf
    for e_idx in codim2:
        idx = list(e_idx)
        g_face = gram[np.ix_(idx, idx)]
        s = np.linalg.svd(g_face, compute_uv=False)
        if s[-1] <= 1e-10 * max(s[0], 1.0):
            raise DegenerateSimplexError(f"degenerate face {e_idx}")
        coeffs = np.zeros(n + 1)
        try:
            coeffs[idx] = _gram_incenter_coeffs(g_face)
        except DualVectorError:
            # ideal edge: foot of the ambient incenter on its geodesic
            rhs = gram[np.ix_(idx, range(n + 1))] @ ambient
            c = np.linalg.solve(g_face, rhs)
            nsq = float(c @ rhs)
            if nsq >= 0:
                raise SingularSystemError("edge foot is not timelike")
            coeffs[idx] = c / math.sqrt(-nsq)
        dots = gram @ coeffs
        e_set = set(e_idx)
        for other in itertools.chain(codim2, facets):
            if e_set <= set(other):
                continue
            d = _gram_nearest(gram, dots, other, ideal, tol)[0]
            if d < best:
                best = d
    return best


# ---------------------------------------------------------------------------
# random simplices (property tests and volume probes)


def random_nondegenerate_simplex(
    n: int,
    rng: np.random.Generator,
    ideal_prob: float = 0.5,
    spread: float = 0.85,
    min_rel_sv: float = 1e-3,
    k: int | None = None,
) -> GeodesicSimplex:
    """A well-conditioned random simplex with a mix of finite and ideal vertices.

    Vertices are drawn in the Klein ball (radius <= spread for finite
    ones); candidates whose Gram matrix is poorly conditioned are
    rejected so that downstream linear solves stay accurate.
    """
    if k is None:
        k = n
    for _ in range(1000):
        verts = []
        for _ in range(k + 1):
            direction = rng.standard_normal(n)
            direction /= np.linalg.norm(direction)
            if rng.random() < ideal_prob:
                verts.append(lift_klein(direction, ideal=True))
            else:
                radius = spread * rng.random() ** (1.0 / n)
                verts.append(lift_klein(radius * direction))
        K = GeodesicSimplex(tuple(verts), n)
        s = np.linalg.svd(K.gram, compute_uv=False)
        if s[-1] > min_rel_sv * s[0]:
            return K
    raise RuntimeError("failed to sample a well-conditioned simplex")
