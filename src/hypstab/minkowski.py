r"""Linear algebra of the hyperboloid model of hyperbolic space.

Hyperbolic n-space is realized as the upper sheet of the hyperboloid

    H^n = { w in R^{n+1} : <w, w> = -1, w_0 > 0 }

where ``<u, v> = -u_0 v_0 + u_1 v_1 + ... + u_n v_n`` is the Minkowski
bilinear form of signature (-, +, ..., +).  Points of the boundary at
infinity are rays on the light cone ``<w, w> = 0``; we represent them by
the unique representative with time coordinate 1, so equality of ideal
points is a plain coordinate comparison.

Vectors are plain numpy arrays of shape ``(n+1,)``.  Points of the
compactified space carry a finite/ideal tag (`ProjectivePoint`), and
isometries are ``(n+1) x (n+1)`` matrices preserving the form and the
upper sheet (`Isometry`).  Everything here is immutable after
construction and every operation is a pure function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

#: Global absolute tolerance for constraint validation.  Double precision
#: with the conditioning of arccosh near 1 in mind.
DEFAULT_TOL = 1e-9

FINITE = "finite"
IDEAL = "ideal"


class GeometryError(ValueError):
    """Base class for geometric constraint violations."""


def minkowski_matrix(n: int) -> np.ndarray:
    """The form matrix J = diag(-1, 1, ..., 1) on R^{n+1}."""
    j = np.eye(n + 1)
    j[0, 0] = -1.0
    return j


def mink(u: np.ndarray, v: np.ndarray) -> float:
    """Minkowski product -u_0 v_0 + sum_{i>=1} u_i v_i.

    Raises `GeometryError` on dimension mismatch.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape or u.ndim != 1:
        raise GeometryError(f"dimension mismatch: {u.shape} vs {v.shape}")
    return float(-u[0] * v[0] + u[1:] @ v[1:])


def _mink_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gram matrix of Minkowski products between rows of a and rows of b."""
    return -np.outer(a[:, 0], b[:, 0]) + a[:, 1:] @ b[:, 1:].T


@dataclass(frozen=True)
class ProjectivePoint:
    """A point of compactified hyperbolic space H^n together with its kind.

    Finite points satisfy <rep, rep> = -1 with rep_0 > 0; ideal points are
    light-cone representatives normalized to rep_0 = 1.
    """

    rep: np.ndarray
    kind: str

    def __post_init__(self):
        object.__setattr__(self, "rep", np.asarray(self.rep, dtype=float))
        self.rep.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.rep.shape[0] - 1

    @property
    def is_ideal(self) -> bool:
        return self.kind == IDEAL

    def same_point_as(self, other: "ProjectivePoint", tol: float = DEFAULT_TOL) -> bool:
        if self.kind != other.kind or self.rep.shape != other.rep.shape:
            return False
        return bool(np.max(np.abs(self.rep - other.rep)) <= 1e3 * tol)

    def __repr__(self):
        return f"ProjectivePoint({np.array2string(self.rep, precision=6)}, {self.kind})"


def finite_point(rep, tol: float = DEFAULT_TOL) -> ProjectivePoint:
    """Validate a hyperboloid representative and wrap it as a finite point."""
    rep = np.asarray(rep, dtype=float)
    if rep.ndim != 1 or rep.shape[0] < 3:
        raise GeometryError("need an (n+1)-vector with n >= 2")
    if not np.all(np.isfinite(rep)):
        raise GeometryError("non-finite entries")
    q = mink(rep, rep)
    if abs(q + 1.0) > 1e3 * tol or rep[0] <= 0:
        raise GeometryError(f"not on the upper hyperboloid sheet: <w,w>={q}, w0={rep[0]}")
    return ProjectivePoint(rep, FINITE)


def ideal_point(rep, tol: float = DEFAULT_TOL) -> ProjectivePoint:
    """Validate a light-cone representative and normalize it to rep_0 = 1."""
    rep = np.asarray(rep, dtype=float)
    if rep.ndim != 1 or rep.shape[0] < 3:
        raise GeometryError("need an (n+1)-vector with n >= 2")
    if not np.all(np.isfinite(rep)) or rep[0] <= 0:
        raise GeometryError("ideal representative must have positive time coordinate")
    rep = rep / rep[0]
    q = mink(rep, rep)
    if abs(q) > 1e3 * tol:
        raise GeometryError(f"not on the light cone after normalization: <w,w>={q}")
    return ProjectivePoint(rep, IDEAL)


def _arccosh_stable(x: float) -> float:
    """arccosh on [1, inf) with the sqrt(2 delta) branch near 1.

    arccosh(1 + d) = sqrt(2 d) (1 - d/12 + O(d^2)); for d below 1e-6 the
    two-term expansion is exact to ~ 1e-19 while naive acosh loses half
    the significant digits to cancellation.
    """
    d = x - 1.0
    if d <= 0.0:
        return 0.0
    if d < 1e-6:
        return math.sqrt(2.0 * d) * (1.0 - d / 12.0)
    return math.acosh(x)


def distance(p: ProjectivePoint, q: ProjectivePoint, tol: float = DEFAULT_TOL) -> float:
    """Geodesic distance, infinite when exactly one endpoint moves to infinity.

    Both finite: arccosh(-<p, q>).  Any ideal endpoint gives infinity
    unless the two points coincide.
    """
    if p.kind == FINITE and q.kind == FINITE:
        return _arccosh_stable(-mink(p.rep, q.rep))
    if p.same_point_as(q, tol):
        return 0.0
    return math.inf


def to_klein(p: ProjectivePoint) -> np.ndarray:
    """Klein (projective ball) coordinates (rep_1, ..., rep_n) / rep_0."""
    return p.rep[1:] / p.rep[0]


def lift_klein(x, ideal: bool = False, tol: float = DEFAULT_TOL) -> ProjectivePoint:
    """Inverse of `to_klein`: lift a Klein-ball point to the hyperboloid or cone."""
    x = np.asarray(x, dtype=float)
    r2 = float(x @ x)
    if not math.isfinite(r2):
        raise GeometryError(f"Klein coordinates must be finite, got {x}")
    if ideal:
        if abs(r2 - 1.0) > 1e3 * tol:
            raise GeometryError(f"ideal lift needs |x| = 1, got |x|^2 = {r2}")
        x = x / math.sqrt(r2)
        return ProjectivePoint(np.concatenate(([1.0], x)), IDEAL)
    if r2 >= 1.0:
        raise GeometryError(f"finite lift needs |x| < 1, got |x|^2 = {r2}")
    scale = 1.0 / math.sqrt(1.0 - r2)
    return ProjectivePoint(scale * np.concatenate(([1.0], x)), FINITE)


@dataclass(frozen=True)
class Isometry:
    """A matrix preserving the Minkowski form and the upper sheet."""

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=float))
        self.matrix.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0] - 1

    def form_residual(self) -> float:
        """max |M^T J M - J|; zero for an exact isometry."""
        j = minkowski_matrix(self.dim)
        return float(np.max(np.abs(self.matrix.T @ j @ self.matrix - j)))

    def apply(self, p: ProjectivePoint) -> ProjectivePoint:
        rep = self.matrix @ p.rep
        if p.kind == IDEAL:
            return ProjectivePoint(rep / rep[0], IDEAL)
        return ProjectivePoint(rep, FINITE)

    def apply_vector(self, v: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(v, dtype=float)

    def compose(self, other: "Isometry") -> "Isometry":
        return Isometry(self.matrix @ other.matrix)

    def __matmul__(self, other):
        if isinstance(other, Isometry):
            return self.compose(other)
        if isinstance(other, ProjectivePoint):
            return self.apply(other)
        return NotImplemented


def random_isometry(n: int, seed=0) -> Isometry:
    """A pseudo-random isometry of H^n, deterministic per seed.

    Minkowski Gram-Schmidt on a seeded Gaussian frame: the first column is
    a random timelike vector normalized to <v,v> = -1 with the time
    orientation fixed, the rest are orthogonalized against the previous
    ones and normalized to <v,v> = +1.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    cols = []
    # timelike column first
    while True:
        v = rng.standard_normal(n + 1)
        if mink(v, v) < -0.1:
            break
    v = v / math.sqrt(-mink(v, v))
    if v[0] < 0:
        v = -v
    cols.append(v)
    while len(cols) < n + 1:
        v = rng.standard_normal(n + 1)
        v = v + mink(v, cols[0]) * cols[0]
        for u in cols[1:]:
            v = v - mink(v, u) * u
        nv = mink(v, v)
        if nv < 1e-6:
            continue
        cols.append(v / math.sqrt(nv))
    return Isometry(np.column_stack(cols))
