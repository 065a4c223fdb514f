r"""Numerical volumes of geodesic simplices and hyperbolic balls.

In the Klein model a geodesic n-simplex is the Euclidean simplex on its
vertex images and the hyperbolic volume element is

    dvol = (1 - |x|^2)^{-(n+1)/2} dx.

The integrand is bounded away from the ideal vertices and blows up (but
stays integrable) at them, so both estimators here, `simplex_volume` and
`volume_deficit_vs_regular`, share one stratified sampler: a core plus a
geometric sequence of corner shells around each ideal vertex, with a
geometric tail beyond the last shell.  On each stratum the integrand
varies by a bounded factor and a plain Monte Carlo mean converges
quickly.  Strata own independent random substreams derived from the
seed and the stratum index ([seed, idx] for the volume, [seed..., 0xD1F,
idx] for the deficit), so results do not depend on evaluation order.
Both estimators spend their budget through `_stratified`: a pilot pass
that feeds a Neyman allocation of the rest, with a floor share for a
stratum whose pilot accepted fewer than 2 draws.

The sampler works a block at a time: it stacks the antithetic uniform
draws of consecutive strata, in index order and splitting a large one,
into one array of `_BLOCK_ROWS` rows, then takes the log, normalises,
maps into the corners and evaluates the density once per block, in
whole-column steps.  The core's rows come first in every block, so the
core test reads that prefix and the corner map the rest, with each
row's corner and scale looked up from its stratum; rejection is a mask
applied to the 1-D values after the density, and log u / sum log u
needs no negation.  Blocks are streamed: a stratum draws its rows of u
once, in chunks of at most `_DRAW_ROWS` rows, each chunk followed by its
own 1 - u rows, and `_stratified` adds each block's counts and sums into
per-stratum totals with `np.add.at`, in row order, so memory is one
chunk and one block whatever the budget.  Each stratum's draws are the
same however the strata fall into blocks; the chunk size sets only the
order in which they are summed.

v_n, the volume of the regular ideal n-simplex, is computed, not
sampled: every ideal triangle has area pi, the regular ideal tetrahedron
has volume 3 Lambda(pi/3) (Lambda the Lobachevsky function), Gauss-Bonnet
gives v_4, and Schlafli's differential formula along the family of
regular simplices gives every n (Milnor, "The Schlafli differential
equality", Collected Papers I): the regular n-simplex of edge length x
has all dihedral angles theta_n(x) = arccos(cosh x / (1 + (n-1) cosh x))
and C(n+1, 2) codimension-2 faces, regular (n-2)-simplices of the same
edge, so

    V_n(l) = C(n+1, 2)/(n-1) int_0^l V_{n-2}(x) (-theta_n'(x)) dx,

with V_0 = 1 and V_1(x) = x, and v_n is the limit l -> infinity.

Every one-dimensional integral here (the ball volume behind eta_n,
Lambda and Schlafli's integral) uses one rule: `_NODES`-point
Gauss-Legendre on panels of length at most 1.  Each integrand is
analytic well beyond its panels, so the rule is exact to rounding.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .minkowski import GeometryError, lift_klein
from .simplex import (
    DegenerateSimplexError,
    GeodesicSimplex,
    is_degenerate,
    regular_ideal_simplex,
)

# Provenance flags carried by every emitted number.
#: closed form or deterministic numerics (quadrature) with no sampling
#: and no search
EXACT = "exact"
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


#: Gauss-Legendre nodes per panel of every quadrature in this module.
_NODES = 16
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_NODES)


def _gauss_legendre(f, a: float, b: float) -> float:
    """int_a^b f with `_NODES` Gauss-Legendre nodes on each of
    max(1, ceil(b - a)) equal panels; f maps an array of nodes to its values."""
    panels = max(1, math.ceil(b - a))
    h = (b - a) / panels
    x = a + h * (np.arange(panels)[:, None] + (_GL_NODES + 1.0) / 2.0)
    return 0.5 * h * float(np.sum(f(x) @ _GL_WEIGHTS))


def lobachevsky(theta: float) -> float:
    """Lobachevsky function Lambda(theta) = -int_0^theta log|2 sin t| dt.

    The function is odd and pi-periodic; arguments are reduced to
    [0, pi/2] first.  The logarithmic singularity at 0 is split off,

        Lambda(t) = t (1 - log 2t) - int_0^t log(sin u / u) du,

    and the remaining integrand is analytic for |u| < pi.
    """
    t = math.fmod(abs(theta), math.pi)  # oddness first: adding pi would round a small t
    sign = math.copysign(1.0, theta)
    if t > math.pi / 2:
        t = math.pi - t
        sign = -sign
    if t == 0.0:
        return 0.0
    if math.isnan(t):  # no panel count for a nan interval
        return t
    # sin(u) / u as sinc, which is 1 at the nodes that round to 0 when t is subnormal
    tail = _gauss_legendre(lambda u: np.log(np.sinc(u / math.pi)), 0.0, t)
    return sign * (t * (1.0 - math.log(2.0 * t)) - tail)


def sphere_area(n: int) -> float:
    """Surface measure of the unit (n-1)-sphere: 2 pi^{n/2} / Gamma(n/2)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def ball_volume(n: int, r: float) -> float:
    """Volume of a hyperbolic ball of radius r in H^n.

    Vol(S^{n-1}) * int_0^r sinh^{n-1} t dt by the panel rule.  Raises
    `GeometryError` for a negative or non-finite r and for a volume too
    large for a float.
    """
    if not (math.isfinite(r) and r >= 0):
        raise GeometryError(f"radius must be finite and >= 0, got {r}")
    try:
        # the largest integrand value, checked before ceil(r) panels are built
        math.sinh(r) ** (n - 1)
    except OverflowError:
        value = math.inf
    else:
        with np.errstate(over="ignore"):  # an overflow is reported below
            value = sphere_area(n) * _gauss_legendre(lambda t: np.sinh(t) ** (n - 1), 0.0, r)
    if math.isinf(value):
        raise GeometryError(f"the volume of the ball of radius {r} in H^{n} overflows a float")
    return value


# ---------------------------------------------------------------------------
# stratified Monte Carlo over the Klein-model simplex


def _klein_form(K: GeodesicSimplex):
    """(M, Euclidean volume, ideal vertex indices) of K in the Klein model.

    M_jk = 1 - w_j . w_k >= 0, with exact zeros on the ideal diagonal, so
    that 1 - |x|^2 = lambda^T M lambda in barycentric coordinates: a
    cancellation-free form that stays accurate into deep corners.
    """
    w = K.klein_vertices()
    ideal = K.ideal_flags()
    mmat = 1.0 - w @ w.T
    np.fill_diagonal(mmat, np.where(ideal, 0.0, np.diag(mmat)))
    vol_t = abs(np.linalg.det(w[1:] - w[0])) / math.gamma(K.ambient_dim + 1)
    return mmat, vol_t, np.flatnonzero(ideal)


def _strata(n: int, ideal_idx: np.ndarray, levels: int) -> list:
    """(mass fraction, corner) of the core and of each dyadic corner shell.

    The core is the simplex minus a half-size corner at every ideal
    vertex (corner None); the shell at level lev around vertex i is the
    corner of scale 0.5**lev minus its own half-size corner (corner
    (i, 0.5**lev)).  Masses are fractions of the Euclidean volume.
    """
    if ideal_idx.size and levels < 1:
        raise GeometryError("ideal vertices need at least one shell level")
    shrink = 1.0 - 0.5 ** n
    strata = [(1.0 - ideal_idx.size * 0.5 ** n, None)]
    for i in ideal_idx:
        for lev in range(1, levels + 1):
            strata.append((0.5 ** (lev * n) * shrink, (int(i), 0.5 ** lev)))
    return strata


#: Rows of one block of the sampling kernel.  Small enough that a block
#: stays in cache and that its (rows x n+1) @ (n+1 x n+1) density products
#: run on one BLAS thread: OpenBLAS split 2^16-row products across
#: threads, which on a loaded 2-CPU machine made them about 20 times
#: slower, while a 1M-sample deficit in 4096-row blocks used one CPU for
#: n = 4 to 8.  Large enough that numpy's per-call overhead is a small
#: share; a 4096-sample deficit is one block.
_BLOCK_ROWS = 1 << 12


#: Rows of u that a stratum draws in one call: the chunk after which its
#: own 1 - u rows follow.  A stratum of at most 2 * _DRAW_ROWS rows is one
#: chunk, so the small strata of a cheap deficit make one call each.  The
#: size bounds the memory of a pass, which holds one chunk at a time: the
#: memory test's 1M-sample verify deficit at n = 5 peaks at 2.4 MiB of the
#: 4 MiB it allows, and at 3.8 MiB with chunks of 1 << 16 rows.
_DRAW_ROWS = 1 << 15


def _uniform_blocks(rngs, counts, width: int):
    """The antithetic uniform rows of all strata, in index order, in full blocks.

    Stratum idx stands for half = ceil(counts[idx] / 2) rows u from
    rngs[idx], drawn in chunks of at most `_DRAW_ROWS` rows, each chunk
    followed by 1 - u of its rows that are among the first counts[idx] -
    half; a stratum may span blocks.  So a stratum of more than 2 *
    `_DRAW_ROWS` rows is cut into pieces of 2 * `_DRAW_ROWS` rows and the
    rest, and each piece draws its rows of u in one call and then takes
    1 - u of as many of them as it has rows left.  Every u is drawn once:
    rngs[idx] ends after half rows, as after one random((half, width))
    call.  The rows of u are floored at 1e-300 in the block, so that
    every row has a finite log (1 - u is at least 2^-53).  Yields (rows,
    stratum index of each row) with _BLOCK_ROWS rows in every block but
    the last; the rows array is reused.
    """
    buf = np.empty((_BLOCK_ROWS, width))
    ids, sizes, fill = [], [], 0
    pieces = enumerate(counts)
    step = 2 * _DRAW_ROWS
    if max(counts, default=0) > step:  # small strata skip the per-stratum split
        pieces = [(idx, min(count - lo, step)) for idx, count in pieces
                  for lo in range(0, count, step)]
    for idx, count in pieces:
        half = (count + 1) // 2
        u = rngs[idx].random((half, width))
        lo = 0
        while lo < count:
            hi = min(count, lo + _BLOCK_ROWS - fill)
            part = buf[fill:fill + hi - lo]
            head = min(max(half - lo, 0), hi - lo)  # rows of u, then of 1 - u
            np.maximum(u[lo:lo + head], 1e-300, out=part[:head])
            np.subtract(1.0, u[lo + head - half:hi - half], out=part[head:])
            ids.append(idx)
            sizes.append(hi - lo)
            fill += hi - lo
            lo = hi
            if fill == _BLOCK_ROWS:
                yield buf, np.repeat(ids, sizes)
                ids, sizes, fill = [], [], 0
        del u  # one chunk at a time
    if fill:
        yield buf[:fill], np.repeat(ids, sizes)


def _row_sums(a: np.ndarray) -> np.ndarray:
    """Sum of each row of a (rows, few) array, one column after another.

    numpy's axis-1 sum pays a loop call per row, about five times the
    cost of these column additions at n + 1 columns.
    """
    s = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        s += a[:, j]
    return s


def _sample(rngs, counts, n: int, strata: list, ideal_idx: np.ndarray, terms):
    """Integrand values at the accepted draws of each stratum, a block at a time.

    Stratum idx turns counts[idx] antithetic uniform rows from rngs[idx]
    into Dirichlet(1, ..., 1) points: the core rejects every point with a
    coordinate >= 1/2 at an ideal vertex, the shell with corner (i, scale)
    rejects local coordinate >= 1/2 at i and maps into the scaled corner.
    The integrand at a point lambda is the sum of
    c * (lambda^T M lambda)^{-(n+1)/2} over the (c, M) in `terms`.

    Every step runs once per block of many strata on whole columns.  The
    strata come in index order, so the core rows are a prefix of every
    block: the core test reads that prefix one ideal column at a time,
    and the shell scale, the corner look-up and the corner map touch the
    suffix only.  lambda is log u / sum log u, which rounds exactly as
    E / sum E with E = -log u, so no negation is needed.  The integrand
    is evaluated on every row and rejection is a mask applied to the 1-D
    values and strata afterwards.  Yields, for each block of
    `_uniform_blocks`, the values and the stratum index of each, in
    stratum order, so that a caller can drop a block once it has its sums.
    """
    width = n + 1
    exponent = -width / 2.0
    corner = np.array([-1 if c is None else c[0] for _, c in strata])
    scale = np.array([1.0 if c is None else c[1] for _, c in strata])
    for lam, owner in _uniform_blocks(rngs, counts, width):
        np.log(lam, out=lam)
        lam /= _row_sums(lam)[:, None]
        if ideal_idx.size:
            core = int(np.searchsorted(owner, 1))  # rows of stratum 0
            keep = np.ones(owner.size, dtype=bool)
            for i in ideal_idx:
                keep[:core] &= lam[:core, i] < 0.5
            shell, ci, sc = lam[core:], corner[owner[core:]], scale[owner[core:]]
            flat = np.arange(ci.size) * width + ci
            at = shell.ravel()[flat]
            keep[core:] = at < 0.5
            shell *= sc[:, None]
            shell.ravel()[flat] = 1.0 - sc * (1.0 - at)
        f = sum(c * np.maximum(_row_sums((lam @ mmat) * lam), 1e-300) ** exponent
                for c, mmat in terms)
        if ideal_idx.size:
            rows = np.flatnonzero(keep)
            f, owner = f[rows], owner[rows]
        yield f, owner


def _substreams(prefix, count: int) -> list:
    """The generators default_rng([*prefix, idx]) for idx < count.

    numpy turns such a list into SeedSequence entropy words: each entry's
    32-bit chunks, low first, with [0] for 0.  Those words are built here
    once, so each generator starts from a ready uint32 row instead of
    coercing the list again; the streams are the same.
    """
    words = []
    for entry in prefix:
        entry = operator.index(entry)
        if entry < 0:
            raise ValueError(f"seed entries must be non-negative, got {entry}")
        while True:
            words.append(entry & 0xFFFFFFFF)
            entry >>= 32
            if not entry:
                break
    rows = np.empty((count, len(words) + 1), dtype=np.uint32)
    rows[:, :-1] = words
    rows[:, -1] = np.arange(count)
    return [np.random.default_rng(row) for row in rows]


def _tail(n: int, mass: float, mean: float) -> float:
    """Geometric extrapolation of a corner beyond its last shell."""
    rho = 0.5 ** ((n - 1) / 2.0)
    return mass * mean * rho / (1.0 - rho)


def _combine(n: int, levels: int, strata: list, weights, means, sems) -> tuple:
    """(value, variance) of a stratified estimate: the sum of weight *
    mean and of (weight * standard error)^2 over the strata, then each
    last-shell corner's geometric `_tail` added to both, in that order."""
    value = var = 0.0
    tails = []
    for (_, corner), w, m, s in zip(strata, weights, means, sems):
        value += w * m
        var += (w * s) ** 2
        if corner is not None and corner[1] == 0.5 ** levels:
            tails.append(_tail(n, w, m))
    for tail in tails:
        value += tail
        var += tail ** 2
    return value, var


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

    mmat, vol_t, ideal_idx = _klein_form(K)
    strata = _strata(n, ideal_idx, levels)
    value, var, n_acc, spent = _stratified([seed], budget, n, levels, strata, ideal_idx,
                                           [(1.0, mmat)], [vol_t * mass for mass, _ in strata])
    if not n_acc.all():
        raise GeometryError("a stratum received no accepted samples; raise the budget")
    return VolumeEstimate(value, math.sqrt(var), spent, MONTE_CARLO)


def _stratified(prefix, budget: int, n: int, levels: int, strata: list, ideal_idx, terms,
                measure) -> tuple:
    """(value, variance, accepted draws per stratum, draws spent) of the
    integral of `terms` (see `_sample`) over `strata` with weights `measure`,
    stratum idx drawing from the substream [*prefix, idx].

    Each of the k strata draws a pilot of max(16, budget // (6 k)).  The
    rest of the budget follows a Neyman allocation, in proportion to
    measure times the pilot's spread; each generator carries on from its
    pilot draws.  A stratum whose pilot accepted fewer than 2 draws has no
    spread to weigh, so it gets a floor share of 1/k of the rest and the
    others share what is left; the shares are formed first so that a
    single stratum gets exactly the rest.  A stratum that ends with fewer
    than 2 accepted draws has standard error inf, and one with none mean 0.
    """
    k = len(strata)
    rngs = _substreams(prefix, k)

    def sample(counts):  # accepted draws, sum of f and sum of f^2 per stratum
        # np.add.at adds in row order, as np.bincount over all the rows would
        sums = np.zeros((3, k))
        for f, owner in _sample(rngs, counts, n, strata, ideal_idx, terms):
            np.add.at(sums[0], owner, 1.0)
            np.add.at(sums[1], owner, f)
            np.add.at(sums[2], owner, f * f)
        return sums

    def stats(sums):  # accepted draws, mean and standard error of the mean per stratum
        n_acc, sum_f, sum_f2 = sums
        count = np.maximum(n_acc, 1.0)
        mean = sum_f / count
        return n_acc, mean, np.sqrt(np.maximum(sum_f2 / count - mean * mean, 0.0) / count)

    pilot = max(16, budget // (6 * k))
    sums = sample([pilot] * k)
    n_acc, _, sem = stats(sums)
    spent = pilot * k
    starved = n_acc < 2
    remaining = max(budget - spent, 0)
    alloc = np.where(starved, remaining // k, 0)
    weights = np.where(starved, 0.0, np.asarray(measure) * (sem * np.sqrt(n_acc)))
    total_w = weights.sum()
    rest = remaining - int(alloc.sum())
    if total_w > 0 and rest > 0:
        alloc = alloc + np.floor(rest * (weights / total_w)).astype(int)
    if alloc.any():
        sums = sums + sample(alloc)
        spent += int(alloc.sum())
    n_acc, mean, sem = stats(sums)
    sem[n_acc < 2] = math.inf
    value, var = _combine(n, levels, strata, measure, mean.tolist(), sem.tolist())
    return value, var, n_acc, spent


#: Unit panels of [0, _PANELS] of the Schlafli quadrature.  The integrand
#: decays like exp(-x) for n >= 3, so the part beyond the last panel is
#: below 1e-15 of v_n.
_PANELS = 40


def _schlafli_volume(n: int) -> float:
    """v_n by Schlafli's formula along the regular family (module docstring).

    V_{n-2}, V_{n-4}, ... are tabulated at the nodes of every panel of
    `_gauss_legendre`'s rule on [0, _PANELS]; a panel's cumulative
    integral comes from the Legendre interpolant of its node values (one
    matrix for all panels) plus the totals of the panels before it.
    -theta_m' is written with e = sech x as
    e tanh x / ((m-1 + e) sqrt((m-2 + e)(m + e))), the factored form of
    1 - cos^2 theta_m, which cancels at large x; the integer is added
    before e, because e + m - 2 rounds to 0 at m = 2 and large x.
    """
    leg = np.polynomial.legendre
    # node values -> integral from -1 to each node of their interpolant
    cumulative = (leg.legvander(_GL_NODES, _NODES) @ leg.legint(np.eye(_NODES), lbnd=-1)
                  @ np.linalg.inv(leg.legvander(_GL_NODES, _NODES - 1)))
    x = np.arange(_PANELS)[:, None] + (_GL_NODES + 1.0) / 2.0
    e, tanh = 1.0 / np.cosh(x), np.tanh(x)
    vol = np.ones_like(x) if n % 2 == 0 else x
    for m in range(2 + n % 2, n + 1, 2):
        f = vol * e * tanh / (((m - 1) + e) * np.sqrt(((m - 2) + e) * (m + e)))
        totals = 0.5 * f @ _GL_WEIGHTS
        before = np.concatenate(([0.0], np.cumsum(totals)[:-1]))
        vol = math.comb(m + 1, 2) / (m - 1) * (before[:, None] + 0.5 * f @ cumulative.T)
    return math.comb(n + 1, 2) / (n - 1) * float(totals.sum())


def ideal_regular_volume(n: int) -> VolumeEstimate:
    """v_n, the volume of the regular ideal n-simplex, for 2 <= n <= 8.

    pi in dimension 2, 3 Lambda(pi/3) in dimension 3, Gauss-Bonnet
    (4 pi^2/3 - (10 pi/3) arccos(1/3)) in dimension 4 and Schlafli's
    formula above; every value is flagged exact.
    """
    if not 2 <= n <= 8:
        raise GeometryError("supported dimensions are 2..8")
    if n == 2:
        value = math.pi
    elif n == 3:
        value = 3.0 * lobachevsky(math.pi / 3.0)
    elif n == 4:
        value = 4.0 * math.pi ** 2 / 3.0 - 10.0 * math.pi / 3.0 * math.acos(1.0 / 3.0)
    else:
        value = _schlafli_volume(n)
    return VolumeEstimate(value, 0.0, 0, EXACT)


@functools.lru_cache(maxsize=None)
def _regular_klein_form(n: int):
    """`_klein_form` of the regular ideal n-simplex, with read-only arrays."""
    mmat, vol_t, ideal_idx = _klein_form(regular_ideal_simplex(n))
    mmat.setflags(write=False)
    ideal_idx.setflags(write=False)
    return mmat, vol_t, ideal_idx


def volume_deficit_vs_regular(
    K: GeodesicSimplex,
    budget: int = 32768,
    seed=0,
    levels: int = 12,
    *,
    v_ref: float,
) -> tuple[float, float]:
    """Relative deficit (v_n - vol(K)) / v_n with its standard error.

    Common-random-number difference Monte Carlo: the same barycentric
    samples are pushed through K and through the regular ideal simplex,
    so the variance of the estimated difference scales with the distance
    of K from regular instead of with the volumes themselves.  This is
    what makes volume comparisons resolvable at the 1e-4 level inside
    search loops where a plain estimate would drown in noise.  The
    samples follow the strata of the regular simplex, all of whose
    corners are ideal; `v_ref` is the caller's value of v_n.  The budget
    is spent as `simplex_volume` spends it, a pilot and then a Neyman
    allocation by each stratum's mass and spread, from the substreams
    [seed..., 0xD1F, idx].  Raises `GeometryError` when a stratum ends
    with fewer than 2 accepted draws ("stratum starved; raise the
    deficit budget").
    """
    n = K.ambient_dim
    if K.k != n:
        raise GeometryError("deficit needs a full-dimensional simplex")
    if is_degenerate(K):
        raise DegenerateSimplexError("deficit of a degenerate simplex")
    mk, volk, _ = _klein_form(K)
    mr, volr, ideal_idx = _regular_klein_form(n)
    strata = _strata(n, ideal_idx, levels)
    seed_seq = list(seed) if isinstance(seed, (list, tuple)) else [seed]
    total, var, n_acc, _ = _stratified([*seed_seq, 0xD1F], budget, n, levels, strata, ideal_idx,
                                       [(volk, mk), (-volr, mr)], [mass for mass, _ in strata])
    if (n_acc < 2).any():
        raise GeometryError("stratum starved; raise the deficit budget")
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


#: the chance that a vertex of a `maximality_probe` trial is ideal
_PROBE_IDEAL_PROB = 0.5


def maximality_probe(
    n: int,
    trials: int = 1000,
    seed: int = 0,
    budget_per_trial: int = 4096,
    levels: int = 12,
) -> ProbeReport:
    """Sample random nondegenerate simplices and compare volumes with v_n.

    Each trial draws vertices in the Klein ball, each one ideal with
    probability `_PROBE_IDEAL_PROB` and finite otherwise, rejects
    degenerate draws without counting them, and checks vol < v_n within
    3 standard errors.  The maximum observed
    volume and its vertex Gram data are recorded.  Raises `GeometryError`
    for fewer than one trial, which would leave no maximum.
    """
    if not 2 <= n <= 5:
        raise GeometryError("probe supports dimensions 2..5")
    if trials < 1:
        raise GeometryError(f"the probe needs at least one trial, got {trials}")
    v_ref = ideal_regular_volume(n).value
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
            if rng.random() < _PROBE_IDEAL_PROB:
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
