r"""Numerical volumes of geodesic simplices and hyperbolic balls.

In the Klein model a geodesic n-simplex is the Euclidean simplex on its
vertex images and the hyperbolic volume element is

    dvol = (1 - |x|^2)^{-(n+1)/2} dx.

The integrand is bounded away from the ideal vertices and blows up (but
stays integrable) at them, so `simplex_volume` splits the simplex into a
core plus a geometric sequence of corner shells around each ideal
vertex; on each stratum the integrand varies by a bounded factor and a
plain Monte Carlo mean converges quickly.  Strata own independent random
substreams derived from (seed, stratum index), so the result is
bit-identical regardless of evaluation order, and a pilot pass feeds a
Neyman allocation of the remaining sample budget.

Dimensions 2 and 3 have closed/series forms: every ideal triangle has
area pi, and the regular ideal tetrahedron has volume 3 * Lambda(pi/3)
with Lambda the Lobachevsky function, evaluated here by an accelerated
series good to ~1e-15.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate, special

from .minkowski import GeometryError, lift_klein
from .simplex import (
    DegenerateSimplexError,
    GeodesicSimplex,
    is_degenerate,
    regular_ideal_simplex,
)

# Provenance flags carried by every emitted number.
#: closed form or deterministic numerics with no sampling and no search
EXACT = "exact"
#: a truncated convergent series, good to about 1e-15
SERIES = "series"
#: a seeded Monte Carlo estimate with a standard error
MONTE_CARLO = "monte-carlo"
#: the seeded randomized eps_n search, never a certified proof
EMPIRICAL = "empirical-search"
#: arithmetic of a stated bound formula on the supplied inputs
FORMULA = "formula"

#: Default Monte Carlo sample budget.
DEFAULT_BUDGET = 2_000_000
#: Default number of corner-shaving levels around each ideal vertex.
DEFAULT_LEVELS = 40


@dataclass(frozen=True)
class VolumeEstimate:
    value: float
    std_error: float
    samples: int
    method: str

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "std_error", float(self.std_error))
        if self.value < 0 or self.std_error < 0:
            raise GeometryError("volume estimates are nonnegative")
        if self.method != MONTE_CARLO and self.std_error != 0.0:
            raise GeometryError("only Monte Carlo estimates carry a standard error")


def lobachevsky(theta: float) -> float:
    """Lobachevsky function Lambda(theta) = 1/2 sum_k sin(2 k theta)/k^2.

    Evaluated through the equivalent integral -int_0^theta log|2 sin t| dt
    by splitting off the logarithmic singularity:

        Lambda(theta) = theta (1 - log(2 theta))
                        + sum_{k>=1} zeta(2k)/(k (2k+1)) theta^{2k+1}/pi^{2k},

    which converges geometrically with ratio (theta/pi)^2.  The function
    is odd and pi-periodic; arguments are reduced to [0, pi/2] first.
    """
    t = math.fmod(theta, math.pi)
    if t < 0:
        t += math.pi
    sign = 1.0
    if t > math.pi / 2:
        t = math.pi - t
        sign = -1.0
    if t == 0.0:
        return 0.0
    acc = t * (1.0 - math.log(2.0 * t))
    ratio = (t / math.pi) ** 2
    power = t
    for k in range(1, 300):
        power *= ratio
        term = special.zeta(2 * k) / (k * (2 * k + 1)) * power
        acc += term
        if abs(term) < 1e-17 * max(abs(acc), 1e-3):
            break
    return sign * acc


def sphere_area(n: int) -> float:
    """Surface measure of the unit (n-1)-sphere: 2 pi^{n/2} / Gamma(n/2)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def ball_volume(n: int, r: float) -> float:
    """Volume of a hyperbolic ball of radius r in H^n.

    Vol(S^{n-1}) * int_0^r sinh^{n-1} t dt, by adaptive quadrature.
    """
    if r < 0:
        raise GeometryError("negative radius")
    if r == 0.0:
        return 0.0
    integral, _ = integrate.quad(lambda t: math.sinh(t) ** (n - 1), 0.0, r,
                                 epsabs=1e-14, epsrel=1e-12, limit=200)
    return sphere_area(n) * integral


# ---------------------------------------------------------------------------
# stratified Monte Carlo over the Klein-model simplex


@dataclass
class _Stratum:
    vertex_rows: np.ndarray      # rows: stratum simplex vertices (Klein coords)
    measure: float               # exact Euclidean volume of the sampled region
    reject_vertex: int | None    # local barycentric index capped at 1/2, if any
    to_global: tuple | None      # (corner index, scale) for shells, None for core
    rng: np.random.Generator = field(default=None)
    n_acc: int = 0
    sum_f: float = 0.0
    sum_f2: float = 0.0

    def mean(self):
        return self.sum_f / self.n_acc if self.n_acc else 0.0

    def sem(self):
        if self.n_acc < 2:
            return math.inf if self.measure > 0 else 0.0
        var = max(self.sum_f2 / self.n_acc - self.mean() ** 2, 0.0)
        return math.sqrt(var / self.n_acc)


def _draw(stratum: _Stratum, count: int, mmat: np.ndarray, exponent: float,
          core_ideal_idx: np.ndarray | None):
    """Draw `count` uniforms in the stratum region and accumulate the integrand.

    The hyperbolic density 1 - |x|^2 is evaluated as lambda^T M lambda
    with M_jk = 1 - w_j . w_k >= 0 in *global* barycentric coordinates,
    a cancellation-free form that stays accurate into deep corners.
    """
    if count <= 0:
        return
    half = (count + 1) // 2
    u = stratum.rng.random((half, stratum.vertex_rows.shape[0]))
    u = np.vstack([u, 1.0 - u])[:count]
    e = -np.log(np.clip(u, 1e-300, 1.0))
    lam = e / e.sum(axis=1, keepdims=True)
    if stratum.reject_vertex is not None:
        keep = lam[:, stratum.reject_vertex] < 0.5
        lam = lam[keep]
        if core_ideal_idx is not None and core_ideal_idx.size:
            keep2 = np.all(lam[:, core_ideal_idx] < 0.5, axis=1)
            lam = lam[keep2]
    elif core_ideal_idx is not None and core_ideal_idx.size:
        keep = np.all(lam[:, core_ideal_idx] < 0.5, axis=1)
        lam = lam[keep]
    if stratum.to_global is not None:
        corner, scale = stratum.to_global
        glob = scale * lam
        glob[:, corner] = 1.0 - scale * (1.0 - lam[:, corner])
        lam = glob
    if lam.shape[0] == 0:
        return
    dens = np.einsum("si,ij,sj->s", lam, mmat, lam)
    f = np.clip(dens, 1e-300, None) ** exponent
    stratum.n_acc += f.shape[0]
    stratum.sum_f += float(f.sum())
    stratum.sum_f2 += float((f * f).sum())


def simplex_volume(
    K: GeodesicSimplex,
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    levels: int = DEFAULT_LEVELS,
) -> VolumeEstimate:
    """Hyperbolic volume of a full-dimensional geodesic simplex.

    Stratified Monte Carlo over the Klein-model simplex with dyadic
    corner shaving around ideal vertices; deterministic per seed.  The
    geometric tail beyond the last shaving level is extrapolated and
    added to both the value and (conservatively) the standard error.
    """
    n = K.ambient_dim
    if K.k != n:
        raise GeometryError("volume needs a full-dimensional simplex")
    if is_degenerate(K):
        raise DegenerateSimplexError("volume of a degenerate simplex")
    if budget < 1000:
        raise GeometryError("budget below 1000 samples")

    w = K.klein_vertices()
    ideal = K.ideal_flags()
    mmat = 1.0 - w @ w.T  # M_jk = 1 - w_j . w_k, exact zeros on ideal diagonal
    np.fill_diagonal(mmat, np.where(ideal, 0.0, np.diag(mmat)))
    exponent = -(n + 1) / 2.0
    vol_t = abs(np.linalg.det(w[1:] - w[0])) / math.gamma(n + 1)
    ideal_idx = np.flatnonzero(ideal)
    m = ideal_idx.size

    strata: list[_Stratum] = []
    shrink = 1.0 - 0.5 ** n
    if m == 0:
        strata.append(_Stratum(w, vol_t, None, None))
    else:
        strata.append(_Stratum(w, vol_t * (1.0 - m * 0.5 ** n), None, None))
        for i in ideal_idx:
            for lev in range(1, levels + 1):
                scale = 0.5 ** lev
                rows = w[i] + scale * (w - w[i])
                strata.append(_Stratum(rows, vol_t * scale ** n * shrink, int(i),
                                       (int(i), scale)))
    core = strata[0]
    core_mask = ideal_idx if m else None

    for idx, s in enumerate(strata):
        s.rng = np.random.default_rng([seed, idx])

    pilot = max(16, budget // (6 * len(strata)))
    for s in strata:
        _draw(s, pilot, mmat, exponent,
              core_mask if s is core and s.to_global is None else None)
    spent = pilot * len(strata)

    weights = np.array([s.measure * (s.sem() * math.sqrt(max(s.n_acc, 1)))
                        if s.n_acc >= 2 else 0.0 for s in strata])
    total_w = weights.sum()
    remaining = max(budget - spent, 0)
    if total_w > 0 and remaining > 0:
        alloc = np.floor(remaining * weights / total_w).astype(int)
        for s, extra in zip(strata, alloc):
            _draw(s, int(extra), mmat, exponent,
                  core_mask if s is core and s.to_global is None else None)
        spent += int(alloc.sum())

    value = 0.0
    var = 0.0
    for s in strata:
        if s.measure == 0.0:
            continue
        if s.n_acc == 0:
            raise GeometryError("a stratum received no accepted samples; raise the budget")
        value += s.measure * s.mean()
        var += (s.measure * s.sem()) ** 2

    # geometric tail beyond the last shell of each ideal corner
    rho = 0.5 ** ((n - 1) / 2.0)
    for i in ideal_idx:
        last = strata[1 + int(np.where(ideal_idx == i)[0][0]) * levels + levels - 1]
        tail = last.measure * last.mean() * rho / (1.0 - rho)
        value += tail
        var += tail ** 2

    return VolumeEstimate(value, math.sqrt(var), spent, MONTE_CARLO)


def ideal_regular_volume(n: int, budget: int = DEFAULT_BUDGET, seed: int = 0) -> VolumeEstimate:
    """v_n, the volume of the regular ideal n-simplex.

    Exact in dimension 2 (every ideal triangle has area pi), series in
    dimension 3 (3 Lambda(pi/3)), Monte Carlo above.
    """
    if not 2 <= n <= 8:
        raise GeometryError("supported dimensions are 2..8")
    if n == 2:
        return VolumeEstimate(math.pi, 0.0, 0, EXACT)
    if n == 3:
        return VolumeEstimate(3.0 * lobachevsky(math.pi / 3.0), 0.0, 0, SERIES)
    return simplex_volume(regular_ideal_simplex(n), budget=budget, seed=seed)


def volume_deficit_vs_regular(
    K: GeodesicSimplex,
    budget: int = 32768,
    seed=0,
    levels: int = 12,
    v_ref: float | None = None,
) -> tuple[float, float]:
    """Relative deficit (v_n - vol(K)) / v_n with its standard error.

    Common-random-number difference Monte Carlo: the same barycentric
    samples are pushed through K and through the regular ideal simplex,
    so the variance of the estimated difference scales with the distance
    of K from regular instead of with the volumes themselves.  This is
    what makes volume comparisons resolvable at the 1e-4 level inside
    search loops where a plain estimate would drown in noise.
    """
    n = K.ambient_dim
    if K.k != n:
        raise GeometryError("deficit needs a full-dimensional simplex")
    if is_degenerate(K):
        raise DegenerateSimplexError("deficit of a degenerate simplex")
    if v_ref is None:
        v_ref = ideal_regular_volume(n, seed=seed).value
    reg = regular_ideal_simplex(n)
    exponent = -(n + 1) / 2.0

    def prep(S):
        w = S.klein_vertices()
        ideal = S.ideal_flags()
        mm = 1.0 - w @ w.T
        np.fill_diagonal(mm, np.where(ideal, 0.0, np.diag(mm)))
        return mm, abs(np.linalg.det(w[1:] - w[0])) / math.gamma(n + 1)

    mk, volk = prep(K)
    mr, volr = prep(reg)
    seed_seq = list(seed) if isinstance(seed, (list, tuple)) else [seed]

    # strata of the standard simplex: core plus dyadic shells at every corner
    # (all corners of the regular simplex are ideal)
    masses = [1.0 - (n + 1) * 0.5 ** n]
    corners = [None]
    shrink = 1.0 - 0.5 ** n
    for i in range(n + 1):
        for lev in range(1, levels + 1):
            masses.append(0.5 ** (lev * n) * shrink)
            corners.append((i, 0.5 ** lev))
    per = max(32, budget // len(masses))
    total = 0.0
    var = 0.0
    samples = 0
    last_shell = {}
    for idx, (mass, corner) in enumerate(zip(masses, corners)):
        rng = np.random.default_rng(seed_seq + [0xD1F, idx])
        half = (per + 1) // 2
        u = rng.random((half, n + 1))
        u = np.vstack([u, 1.0 - u])[:per]
        e = -np.log(np.clip(u, 1e-300, 1.0))
        lam = e / e.sum(axis=1, keepdims=True)
        if corner is None:
            keep = np.all(lam < 0.5, axis=1)
            lam = lam[keep]
        else:
            i, scale = corner
            keep = lam[:, i] < 0.5
            lam = lam[keep]
            glob = scale * lam
            glob[:, i] = 1.0 - scale * (1.0 - lam[:, i])
            lam = glob
        if lam.shape[0] < 2:
            raise GeometryError("stratum starved; raise the deficit budget")
        fk = np.clip(np.einsum("si,ij,sj->s", lam, mk, lam), 1e-300, None) ** exponent
        fr = np.clip(np.einsum("si,ij,sj->s", lam, mr, lam), 1e-300, None) ** exponent
        g = volk * fk - volr * fr
        mean = float(g.mean())
        sem = float(g.std(ddof=1)) / math.sqrt(g.shape[0])
        total += mass * mean
        var += (mass * sem) ** 2
        samples += int(lam.shape[0])
        if corner is not None:
            last_shell[corner[0]] = (mass, mean)
    rho = 0.5 ** ((n - 1) / 2.0)
    for mass, mean in last_shell.values():
        tail = mass * mean * rho / (1.0 - rho)
        total += tail
        var += tail ** 2
    return -total / v_ref, math.sqrt(var) / v_ref


# ---------------------------------------------------------------------------
# maximality probe


@dataclass(frozen=True)
class ProbeReport:
    n: int
    trials: int
    v_ref: float
    max_value: float
    max_std_error: float
    max_gram: np.ndarray
    violations: int
    degenerate_rejected: int


def maximality_probe(
    n: int,
    trials: int = 1000,
    seed: int = 0,
    budget_per_trial: int = 4096,
    levels: int = 12,
    ideal_prob: float = 0.5,
) -> ProbeReport:
    """Sample random nondegenerate simplices and compare volumes with v_n.

    Each trial draws vertices in the Klein ball (a mixture of finite and
    ideal ones), rejects degenerate draws without counting them, and
    checks vol < v_n within 3 standard errors.  The maximum observed
    volume and its vertex Gram data are recorded.
    """
    if not 2 <= n <= 5:
        raise GeometryError("probe supports dimensions 2..5")
    v_ref = ideal_regular_volume(n, seed=seed).value
    rng = np.random.default_rng([seed, 0xBEEF])
    best = (-math.inf, 0.0, None)
    violations = 0
    rejected = 0
    done = 0
    while done < trials:
        verts = []
        for _ in range(n + 1):
            direction = rng.standard_normal(n)
            direction /= np.linalg.norm(direction)
            if rng.random() < ideal_prob:
                verts.append(lift_klein(direction, ideal=True))
            else:
                verts.append(lift_klein(0.95 * rng.random() ** (1.0 / n) * direction))
        K = GeodesicSimplex(tuple(verts), n)
        if is_degenerate(K, tol=1e-8):
            rejected += 1
            continue
        est = simplex_volume(K, budget=budget_per_trial, seed=seed + done + 1,
                             levels=levels)
        if est.value >= v_ref + 3.0 * est.std_error:
            violations += 1
        if est.value > best[0]:
            best = (est.value, est.std_error, K.gram.copy())
        done += 1
    return ProbeReport(n, trials, v_ref, best[0], best[1], best[2],
                       violations, rejected)
