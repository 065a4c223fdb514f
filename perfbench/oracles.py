"""Volume oracles for hyperbolic simplices, independent of ``hypstab.volume``.

A simplex is given by its vertices in the Klein model (rows of ``klein``)
and a boolean ``ideal`` flag per vertex.  Dihedral angles come from the
inverse Minkowski Gram matrix of the vertex representatives; the
closed forms are

* n = 2, any vertices: area = pi - (sum of the three angles);
* n = 3, all vertices ideal (Milnor): vol = L(a) + L(b) + L(c), with
  a, b, c the dihedral angles at the three edges through one vertex and
  L the Lobachevsky function, integrated here by quadrature;
* n = 4, all vertices ideal (Gauss-Bonnet): vol = (pi/3)(4 pi - sum of the
  ten dihedral angles).

A simplex whose vertices are all finite has a bounded volume density,
so it gets an independent plain Monte Carlo estimate (`plain_mc_volume`).
Every other simplex gets the maximality check vol <= v_n + 4 sigma
against the regular ideal simplex.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate

#: 3 L(pi/3), the regular ideal tetrahedron.
V3 = 1.0149416064096536
#: Gauss-Bonnet for the regular ideal 4-simplex: 4 pi^2/3 - (10 pi/3) arccos(1/3).
V4 = 4.0 * math.pi ** 2 / 3.0 - 10.0 * math.pi / 3.0 * math.acos(1.0 / 3.0)
#: No closed form for n = 5: a 2M-sample Monte Carlo value of the regular
#: ideal 5-simplex and its standard error.
V5_MC, V5_MC_SE = 0.0575638, 1.2e-5

#: v_n and the standard error of that reference (0 when exact).
REGULAR_IDEAL = {2: (math.pi, 0.0), 3: (V3, 0.0), 4: (V4, 0.0), 5: (V5_MC, V5_MC_SE)}

#: An exact oracle accepts a Monte Carlo value within this many standard errors.
Z_MAX = 5.0
#: The maximality check allows this many standard errors above v_n.
MAX_SIGMAS = 4.0


def lobachevsky(theta: float) -> float:
    """L(theta) = -int_0^theta log|2 sin t| dt.

    L is odd and pi-periodic, so the argument is reduced to [0, pi/2];
    there the logarithmic singularity at 0 is integrated in closed form
    and the smooth rest, log(sin t / t), by quadrature.
    """
    t = math.fmod(theta, math.pi)
    if t < 0:
        t += math.pi
    sign = 1.0
    if t > math.pi / 2:
        t, sign = math.pi - t, -1.0
    if t == 0.0:
        return 0.0
    smooth, _ = integrate.quad(lambda u: math.log(math.sin(u) / u) if u > 0 else 0.0, 0.0, t)
    return sign * (t * (1.0 - math.log(2.0 * t)) - smooth)


def minkowski_gram(klein: np.ndarray, ideal) -> np.ndarray:
    """Gram matrix <w_i, w_j> = -w_i0 w_j0 + w_i . w_j of the vertex lifts."""
    klein = np.asarray(klein, dtype=float)
    scale = np.array([1.0 if idl else 1.0 / math.sqrt(1.0 - float(x @ x))
                      for x, idl in zip(klein, ideal)])
    reps = scale[:, None] * np.hstack([np.ones((klein.shape[0], 1)), klein])
    return -np.outer(reps[:, 0], reps[:, 0]) + reps[:, 1:] @ reps[:, 1:].T


def dihedral_angles(klein: np.ndarray, ideal) -> np.ndarray:
    """Matrix of dihedral angles theta_ij between the facets opposite i and j."""
    ginv = np.linalg.inv(minkowski_gram(klein, ideal))
    diag = np.diag(ginv)
    cos = np.clip(-ginv / np.sqrt(np.outer(diag, diag)), -1.0, 1.0)
    return np.arccos(cos)


def exact_volume(klein: np.ndarray, ideal) -> float | None:
    """The closed-form volume, or None when no oracle covers this simplex."""
    klein = np.asarray(klein, dtype=float)
    n = klein.shape[1]
    theta = dihedral_angles(klein, ideal)
    iu = np.triu_indices(n + 1, 1)
    if n == 2:
        return math.pi - float(theta[iu].sum())
    if not all(ideal):
        return None
    if n == 3:
        # the edge {0, k} is where the facets opposite the other two vertices meet
        return sum(lobachevsky(float(theta[a, b])) for a, b in ((2, 3), (1, 3), (1, 2)))
    if n == 4:
        return math.pi / 3.0 * (4.0 * math.pi - float(theta[iu].sum()))
    return None


def plain_mc_volume(klein: np.ndarray, samples: int, seed, chunk: int = 100_000):
    """Volume and standard error of a simplex with finite vertices only.

    Uniform points of the flat Klein-model simplex (flat Dirichlet
    barycentric weights) are weighted by the hyperbolic volume density
    (1 - |x|^2)^(-(n+1)/2), which is bounded when no vertex is ideal.
    """
    klein = np.asarray(klein, dtype=float)
    n = klein.shape[1]
    rng = np.random.default_rng(seed)
    flat = abs(np.linalg.det(klein[1:] - klein[0])) / math.factorial(n)
    total = total_sq = 0.0
    done = 0
    while done < samples:
        m = min(chunk, samples - done)
        e = rng.standard_exponential((m, n + 1))
        x = (e / e.sum(axis=1, keepdims=True)) @ klein
        f = (1.0 - np.einsum("ij,ij->i", x, x)) ** (-(n + 1) / 2.0)
        total += float(f.sum())
        total_sq += float(f @ f)
        done += m
    mean = total / done
    var = max(total_sq / done - mean * mean, 0.0) * done / (done - 1)
    return flat * mean, flat * math.sqrt(var / done)


def below_regular(n: int, value: float, std_error: float) -> bool:
    """Maximality: a volume may exceed v_n by at most MAX_SIGMAS standard errors."""
    v_n, v_se = REGULAR_IDEAL[n]
    return 0.0 < value <= v_n + MAX_SIGMAS * math.hypot(std_error, v_se)
