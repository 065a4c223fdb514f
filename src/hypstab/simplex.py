r"""Geodesic simplices with possibly ideal vertices.

A geodesic k-simplex in compactified hyperbolic n-space is the convex
hull of k+1 points, each finite (on the hyperboloid) or ideal (on the
light cone).  In the Klein model it is the Euclidean convex hull of the
vertex images, which makes the face lattice and all convexity arguments
elementary.

The central tool is the dual vector of a facet F_i: the unique unit
spacelike vector q_i in the Minkowski span of the simplex with
``<q_i, w> = 0`` on F_i and ``<q_i, w> <= 0`` on the simplex.  With V the
matrix of vertex representatives and G = V J V^T their Gram matrix, all
duals come in closed form from one inverse G^-1 (`_inverse_gram`):

* the duals:  q_i = -V^T G^-1 e_i / sqrt(G^-1_ii),
* dihedral angles:  cos(angle at F_i ∩ F_j) = -<q_i, q_j>
  = -G^-1_ij / sqrt(G^-1_ii G^-1_jj) (`_dihedral_cosines`), and their
  derivatives along a change dG of the Gram matrix, through
  dG^-1 = -G^-1 dG G^-1 (`_angle_derivatives`),
* the incenter/inradius:  the interior point sum_i d_i v_i with
  <c, q_i> constant has d_i = sqrt(G^-1_ii), and sinh r = 1/sqrt(-d^T G d).

Duals also give hyperplane distances, sinh d(w, H(F_i)) = -<w, q_i>.
These functions take stacks of Gram matrices, and they are the only
place the program turns Gram matrices into angles: the exact volume
kernels and the Schlafli path of `volume` call them too.  Likewise
`_degenerate` is the one rank test of a stack of Gram matrices, behind
`is_degenerate` and the per-face check of `min_face_clearance`.

The face clearance `min_face_clearance` is exact: the nearest point of
a face to a finite point is the Minkowski-orthogonal foot on the span
of one of its sub-faces with nonnegative vertex coefficients (a
feasible foot), and every feasible foot on a sub-face is a point of the
face.  One kernel (`_subface_feet`) gives cosh of the distance from
each face center to its feasible foot on every vertex subset, one
stacked solve of Gram sub-matrices per subset size, and the clearance
is their least value over the pairs it counts.
"""

from __future__ import annotations

import functools
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
    return bool(_degenerate(K.gram, tol))


def _degenerate(grams: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """True where a (..., k, k) stack of Gram matrices is numerically
    singular: its least singular value is at most tol times the larger of
    its largest and 1."""
    s = np.linalg.svd(grams, compute_uv=False)
    return s[..., -1] <= tol * np.maximum(s[..., 0], 1.0)


def _inverse_gram(grams: np.ndarray):
    """(G^-1, its diagonal, spacelike mask) of a (..., k, k) stack of
    vertex Gram matrices.

    G^-1_ii is the squared Minkowski norm of the unnormalized dual of
    facet i, so the dual is spacelike where it is positive.  The dual of
    an ideal facet of a 1-simplex is lightlike: its diagonal entry is an
    exact zero polluted by rounding, hence a cut relative to the largest
    entry of each G^-1.
    """
    try:
        ginv = np.linalg.inv(grams)
    except np.linalg.LinAlgError as exc:
        raise DegenerateSimplexError(f"singular Gram matrix: {exc}") from exc
    diag = np.diagonal(ginv, axis1=-2, axis2=-1)
    scale = np.maximum(1.0, np.max(np.abs(ginv), axis=(-2, -1)))
    return ginv, diag, diag > 1e-8 * scale[..., None]


def _dihedral_cosines(ginv: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """cos theta_ij = -G^-1_ij / sqrt(G^-1_ii G^-1_jj) of the dihedral angles
    of a stack of simplices, from G^-1 and its diagonal (`_inverse_gram`)."""
    return -ginv / np.sqrt(diag[..., :, None] * diag[..., None, :])


def _angle_derivatives(h: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """dtheta_ij for i < j, in `np.triu_indices` order, of a (..., k, k)
    stack of Gram matrices with inverses H = G^-1 along directions dG.

    dH = -H dG H, so with s_ij = sqrt(H_ii H_jj)

        dcos theta_ij = -dH_ij / s_ij + 1/2 (H_ij / s_ij) (dH_ii / H_ii + dH_jj / H_jj),

    and dtheta = -dcos theta / sin theta.
    """
    dh = -h @ dg @ h
    i, j = np.triu_indices(h.shape[-1], 1)
    diag = np.diagonal(h, axis1=-2, axis2=-1)
    s = np.sqrt(diag[..., i] * diag[..., j])
    cos = _dihedral_cosines(h, diag)[..., i, j]
    dcos = -dh[..., i, j] / s + 0.5 * (h[..., i, j] / s) * (dh[..., i, i] / diag[..., i]
                                                           + dh[..., j, j] / diag[..., j])
    return -dcos / np.sqrt(1.0 - cos * cos)


def _no_spacelike_dual(facet: str) -> DualVectorError:
    return DualVectorError(f"{facet} has no spacelike dual; "
                           "this happens for ideal facets of 1-simplices")


@dataclass(frozen=True)
class FacetDual:
    """Unit spacelike vector Minkowski-orthogonal to facet ``facet_index``."""

    q: np.ndarray
    facet_index: int


def all_facet_duals(K: GeodesicSimplex) -> list:
    """Dual vector q_i = -V^T G^-1 e_i / sqrt(G^-1_ii) of the facet opposite
    each vertex i, in order, from one Gram inverse: <q_i, v_m> = 0 for
    m != i and <q_i, v_i> < 0."""
    ginv, diag, spacelike = _inverse_gram(K.gram)
    duals = []
    for i in range(K.k + 1):
        if not spacelike[i]:
            raise _no_spacelike_dual(f"facet {i}")
        duals.append(FacetDual(-(K.rep_matrix.T @ ginv[:, i]) / math.sqrt(diag[i]), i))
    return duals


def dihedral_angles(K: GeodesicSimplex) -> np.ndarray:
    """(k+1, k+1) matrix of the interior dihedral angles at F_i ∩ F_j, nan
    on the diagonal.

    cos(angle) = -<q_i, q_j> = -G^-1_ij / sqrt(G^-1_ii G^-1_jj), which
    agrees with the angle of the polygon cut by a 2-plane meeting the
    face orthogonally.
    """
    ginv, diag, spacelike = _inverse_gram(K.gram)
    if not np.all(spacelike):
        raise _no_spacelike_dual(f"facet {int(np.argmin(spacelike))}")
    angles = np.arccos(np.clip(_dihedral_cosines(ginv, diag), -1.0, 1.0))
    np.fill_diagonal(angles, np.nan)
    return angles


@dataclass(frozen=True)
class IncenterResult:
    incenter: ProjectivePoint
    inradius: float


def _gram_incenter_coeffs(grams: np.ndarray):
    """Incenters of a stack of simplices from their (simplices, k, k) Gram
    matrices: (coefficients, sinh of the inradii).

    Writing the incenter as sum_i d_i v_i, the tangency system
    <x, q_i> = -1 diagonalizes and gives d_i = sqrt(G^-1_ii), and
    sinh r = 1 / sqrt(-d^T G d); the coefficients returned are d
    normalized to the hyperboloid.  A simplex with a facet dual that is
    not spacelike (an edge with an ideal endpoint) has no incenter and
    raises `DualVectorError`.
    """
    _, diag, spacelike = _inverse_gram(grams)
    if not np.all(spacelike):
        raise _no_spacelike_dual("a facet")
    d = np.sqrt(diag)
    nx = np.einsum("fi,fij,fj->f", d, grams, d)
    if np.any(nx >= 0):
        raise SingularSystemError("incenter candidate is not timelike")
    norm = np.sqrt(-nx)
    return d / norm[:, None], 1.0 / norm


def incenter_inradius(K: GeodesicSimplex) -> IncenterResult:
    """Center and radius of the largest inscribed ball (see
    `_gram_incenter_coeffs`)."""
    if is_degenerate(K):
        raise DegenerateSimplexError("incenter of a degenerate simplex")
    (d,), (sinh_r,) = _gram_incenter_coeffs(K.gram[None])
    return IncenterResult(ProjectivePoint(K.rep_matrix.T @ d, FINITE), math.asinh(sinh_r))


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
# feasible feet of the face clearance


@functools.cache
def _subsets(m: int, max_size: int) -> tuple:
    """Vertex subsets of sizes 1..max_size of an m-vertex simplex.

    One read-only (count, size) index table per size, each in
    lexicographic (`itertools.combinations`) order.
    """
    tables = []
    for size in range(1, max_size + 1):
        t = np.array(list(itertools.combinations(range(m), size)), dtype=np.intp)
        t.setflags(write=False)
        tables.append(t)
    return tuple(tables)


def _members(table: np.ndarray, m: int) -> np.ndarray:
    """(count, m) boolean membership matrix of the subsets in an index table."""
    out = np.zeros((len(table), m), dtype=bool)
    np.put_along_axis(out, table, True, axis=1)
    return out


def _subface_feet(gram: np.ndarray, dots: np.ndarray, ideal: np.ndarray,
                  tables: tuple, tol: float) -> np.ndarray:
    """cosh of the distance from finite points to their orthogonal feet on
    every vertex subset of a simplex.

    ``gram`` is the (m, m) vertex Gram matrix, ``dots`` the (m, p)
    products <v_j, x> with p finite points x, and ``tables`` index tables
    from `_subsets`.  The foot of x on the span of a subset S solves
    G_S c = <v_S, x>, and cosh d(x, foot) = sqrt(-c . <v_S, x>); it is
    feasible, a point of the face on S, when that square is timelike
    beyond ``tol`` and c >= 0.  A single vertex is its own foot and
    counts only when it is finite.  All subsets of one size share one
    stacked solve with the p points as right-hand sides.

    Returns a row per subset, in table order: entry [s, i] is cosh of the
    distance from point i to its foot on S where that foot is feasible
    and inf elsewhere.
    """
    cosh_d = []
    for t in tables:
        r = dots[t]  # (count, size, p)
        if t.shape[1] == 1:
            cosh_d.append(np.where(ideal[t], np.inf, -r[:, 0]))
            continue
        try:
            c = np.linalg.solve(gram[t[:, :, None], t[:, None, :]], r)
        except np.linalg.LinAlgError as exc:
            raise DegenerateSimplexError(f"singular face Gram matrix: {exc}") from exc
        nsq = np.einsum("skp,skp->sp", c, r)
        scale = np.maximum(1.0, np.max(np.abs(c), axis=1))
        feasible = (nsq < -tol) & (np.min(c, axis=1) >= -1e-12 * scale)
        cosh_d.append(np.sqrt(np.where(feasible, -nsq, np.inf)))
    return np.concatenate(cosh_d)


# ---------------------------------------------------------------------------
# face clearances


@functools.cache
def _clearance_tables(n: int) -> tuple:
    """Read-only index tables of `min_face_clearance` in dimension n.

    Returns (faces, tables, apart, within, targets_apart): the (n-2)-faces
    E as a (faces, n-1) index table; the `_subsets` tables of sizes 1..n;
    apart[s, e], true where subset S does not contain E; within[s, t],
    true where S lies in target T, over the faces of n-1 and of n
    vertices; and targets_apart[e, t], true where T does not contain E.
    """
    m = n + 1
    tables = _subsets(m, n)
    sub = np.concatenate([_members(t, m) for t in tables])
    face = _members(tables[n - 2], m)
    target = np.concatenate([face, _members(tables[n - 1], m)])
    apart = ~np.all(sub[:, None, :] >= face[None], axis=2)
    within = np.all(sub[:, None, :] <= target[None], axis=2)
    targets_apart = ~np.all(target[None] >= face[:, None, :], axis=2)
    for a in (apart, within, targets_apart):
        a.setflags(write=False)
    return tables[n - 2], tables, apart, within, targets_apart


def min_face_clearance(K: GeodesicSimplex, tol: float = DEFAULT_TOL) -> float:
    """Minimal distance from an (n-2)-face center to a non-containing face.

    The minimum runs over pairs (E an (n-2)-face, E' a face of dimension
    n-2 or n-1 with E not contained in E').  The center of E is its
    incenter.  The paper needs the clearance only for n >= 4, where E has
    at least 3 vertices, so each facet of E spans a Lorentzian subspace
    with a spacelike dual and the incenter exists.

    The minimum is taken over sub-faces instead of target faces, and is
    exact: the nearest point of a target E' to a center is the feasible
    orthogonal foot on one sub-face S of E' (see `_subface_feet`), and S
    does not contain E because E' does not.  Conversely a feasible foot
    on any vertex set S of at most n vertices that misses a vertex e of
    E is a point of S, so of the facet opposite e, a target.  So the
    clearance is the least distance from the center of E to a feasible
    foot on such an S, over all E, found by one stacked solve per subset
    size.  A target without any feasible foot on its sub-faces raises
    `SingularSystemError`, as no nearest point was found on it.
    """
    n = K.ambient_dim
    if K.k != n or n < 4:
        raise GeometryError("clearance needs a full-dimensional simplex in dimension >= 4")
    if is_degenerate(K):
        raise DegenerateSimplexError("clearance of a degenerate simplex")
    faces, tables, apart, within, targets_apart = _clearance_tables(n)
    gram = K.gram
    g_faces = gram[faces[:, :, None], faces[:, None, :]]
    degenerate = _degenerate(g_faces)
    if np.any(degenerate):
        raise DegenerateSimplexError(f"degenerate face {tuple(faces[np.argmax(degenerate)])}")
    centers, _ = _gram_incenter_coeffs(g_faces)
    coeffs = np.zeros((n + 1, len(faces)))
    coeffs[faces.T, np.arange(len(faces))] = centers.T
    cosh_d = _subface_feet(gram, gram @ coeffs, K.ideal_flags(), tables, tol)
    if np.any(targets_apart & ~(np.isfinite(cosh_d).T @ within)):
        raise SingularSystemError("no feasible foot found on any subface")
    return _arccosh_stable(float(np.min(cosh_d, where=apart, initial=math.inf)))


# ---------------------------------------------------------------------------
# random simplices (property tests and volume probes)


#: Klein radius bound of the finite vertices of `random_nondegenerate_simplex`
_RANDOM_SPREAD = 0.85
#: least ratio of the smallest to the largest singular value of its Gram matrix
_RANDOM_MIN_REL_SV = 1e-3


def random_nondegenerate_simplex(
    n: int,
    rng: np.random.Generator,
    ideal_prob: float = 0.5,
    k: int | None = None,
) -> GeodesicSimplex:
    """A well-conditioned random simplex with a mix of finite and ideal vertices.

    Vertices are drawn in the Klein ball (radius <= `_RANDOM_SPREAD` for
    finite ones); candidates whose Gram matrix has a smallest singular
    value below `_RANDOM_MIN_REL_SV` times its largest are rejected so
    that downstream linear solves stay accurate.
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
                radius = _RANDOM_SPREAD * rng.random() ** (1.0 / n)
                verts.append(lift_klein(radius * direction))
        K = GeodesicSimplex(tuple(verts), n)
        s = np.linalg.svd(K.gram, compute_uv=False)
        if s[-1] > _RANDOM_MIN_REL_SV * s[0]:
            return K
    raise RuntimeError("failed to sample a well-conditioned simplex")
