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
Each substream is exactly default_rng([*prefix, idx]), but the PCG64
states of all strata are hashed in one vectorised SeedSequence pass
instead of one SeedSequence per stratum.  Both estimators spend their
budget through `_stratified`: a pilot pass that feeds a Neyman
allocation of the rest, with a floor share for a stratum whose pilot
accepted fewer than 2 draws.

The sampler works a block at a time: it stacks the antithetic uniform
draws of consecutive strata, in index order and splitting a large one,
into one coordinate-major array of `_BLOCK_ROWS` draws, one row per
coordinate, then takes the log, normalises, maps into the corners and
evaluates the density once per block, in steps over whole contiguous
coordinate rows.  The core's draws come first in every block, so the
core test reads that prefix and the corner map the rest, with each
draw's corner and scale looked up from its stratum; rejection is a mask
applied to the 1-D values after the density, and log u / sum log u
needs no negation.  Blocks are streamed: a stratum draws its rows of u
once, in chunks of at most `_DRAW_ROWS` rows, each chunk followed by its
own 1 - u rows, staged row-major with two contiguous copies per piece
and transposed into the block once it is full, and `_stratified` adds
each block's accepted counts (`np.bincount`) and sums of f and f^2
(`np.add.at`, in draw order) into per-stratum totals, so memory is one
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

The ball volume behind eta_n and Schlafli's integral use one rule:
`_NODES`-point Gauss-Legendre on panels of length at most 1.  Each
integrand is analytic well beyond its panels, so the rule is exact to
rounding.  Lambda is the Clausen series (`lobachevsky`).

`_exact_volume` computes the volume of any simplex with 2 <= n <= 5 and
any mix of ideal and finite vertices, with no sampling: pi minus the
angle sum for a triangle; for a tetrahedron, cones from an ideal point,
each cut into six right triangles of the upper half-space and summed by
Lambda; for n = 4 and 5, Schlafli's formula along the straight path from
the regular ideal simplex, whose faces are those triangles and
tetrahedra.  `maximality_probe` uses it; `simplex_volume` stays Monte
Carlo.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .minkowski import GeometryError, lift_klein
from .simplex import (
    DegenerateSimplexError,
    GeodesicSimplex,
    _angle_derivatives,
    _dihedral_cosines,
    _inverse_gram,
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


@functools.cache
def _clausen_coefficients() -> tuple:
    """|B_2k| / (2k (2k+1)!) for k = 1..28, from exact Bernoulli fractions.

    Built on first use: the fraction recurrence takes a few milliseconds,
    which an import of the package should not pay.
    """
    bern = [Fraction(1)]
    for m in range(1, 57):  # sum_{j <= m} C(m+1, j) B_j = 0
        bern.append(-sum(math.comb(m + 1, j) * bern[j] for j in range(m)) / (m + 1))
    return tuple(float(abs(bern[2 * k]) / (2 * k * math.factorial(2 * k + 1)))
                 for k in range(1, 29))


def lobachevsky(theta):
    """Lobachevsky function Lambda(theta) = -int_0^theta log|2 sin t| dt.

    Lambda(theta) = Cl_2(2 theta) / 2, with the Clausen function's series
    (Lewin, "Polylogarithms and associated functions", 1981)

        Cl_2(x) = x - x log|x| + sum_{k=1}^{28} |B_2k| x^{2k+1} / (2k (2k+1)!),

    whose first omitted term is below 1e-20 for |x| <= pi.  The function
    is odd and pi-periodic, so theta is reduced to (-pi/2, pi/2] first;
    the series is summed in increasing powers.  Takes a float or an array
    and returns the same.
    """
    theta = np.asarray(theta, dtype=float)
    with np.errstate(invalid="ignore"):  # inf has no residue: nan, as for nan
        t = np.fmod(np.abs(theta), math.pi)  # oddness first: adding pi would round a small t
    x = 2.0 * np.where(t > math.pi / 2, t - math.pi, t)
    with np.errstate(divide="ignore", invalid="ignore"):
        head = np.where(x == 0.0, 0.0, x - x * np.log(np.abs(x)))
    x2 = x * x
    power, tail = x, np.zeros_like(x)
    for c in _clausen_coefficients():
        power = power * x2
        tail = tail + c * power
    value = np.copysign(1.0, theta) * (0.5 * (head + tail))
    return value if value.ndim else float(value)


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


#: Draws in one block of the sampling kernel.  Small enough that a block
#: stays in cache and that its (n+1 x n+1) @ (n+1 x draws) density
#: products run on one BLAS thread: OpenBLAS split 2^16-row products
#: across threads, which on a loaded 2-CPU machine made them about 20
#: times slower, while in 4096-draw blocks a default-budget
#: simplex_volume (n = 2 to 5) and a 1M-sample deficit (n = 4 to 8) use
#: one CPU.  Large enough that numpy's per-call overhead is a small
#: share; a 4096-sample deficit is one block.  8192-draw blocks were no
#: faster and added about 1 MB to the peak RSS of a constants table.
_BLOCK_ROWS = 1 << 12


#: Rows of u that a stratum draws in one call: the chunk after which its
#: own 1 - u rows follow.  A stratum of at most 2 * _DRAW_ROWS rows is one
#: chunk, so the small strata of a cheap deficit make one call each.  The
#: size bounds the memory of a pass, which holds one chunk and one block
#: at a time: under tracemalloc the memory test's 1M-sample verify deficit
#: at n = 5 peaks at 2.26 MiB of the 4 MiB it allows, and a default-budget
#: simplex_volume of an ideal 5-simplex at 2.51 MiB of 8 MiB.
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
    every row has a finite log (1 - u is at least 2^-53).  A block is
    stored coordinate-major, one row per coordinate and one column per
    draw, and is C-contiguous: the size of the last block is known from
    the start.  A block's draws are first staged row-major, one row per
    draw, so that each piece is two contiguous copies (u, then 1 - u),
    and a full stage is transposed into the block once, by the floor.
    Yields (block of shape (width, draws), stratum index of each draw)
    with _BLOCK_ROWS draws in every block but the last; the block memory
    is reused.
    """
    left = int(sum(counts))
    size = min(_BLOCK_ROWS, left)
    stage = np.empty((size, width))
    buf = np.empty(width * size)
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
            hi = min(count, lo + size - fill)
            head = min(max(half - lo, 0), hi - lo)  # draws of u, then of 1 - u
            stage[fill:fill + head] = u[lo:lo + head]
            np.subtract(1.0, u[lo + head - half:hi - half], out=stage[fill + head:fill + hi - lo])
            ids.append(idx)
            sizes.append(hi - lo)
            fill += hi - lo
            lo = hi
            if fill == size:
                # 1 - u >= 2^-53, so the floor changes only rows of u
                block = buf[:width * size].reshape(width, size)
                np.maximum(stage[:size].T, 1e-300, out=block)
                yield block, np.repeat(ids, sizes)
                left -= size
                size = min(_BLOCK_ROWS, left)
                ids, sizes, fill = [], [], 0
        del u  # one chunk at a time


def _sample(rngs, counts, n: int, strata: list, ideal_idx: np.ndarray, terms):
    """Integrand values at the accepted draws of each stratum, a block at a time.

    Stratum idx turns counts[idx] antithetic uniform rows from rngs[idx]
    into Dirichlet(1, ..., 1) points: the core rejects every point with a
    coordinate >= 1/2 at an ideal vertex, the shell with corner (i, scale)
    rejects local coordinate >= 1/2 at i and maps into the scaled corner.
    The integrand at a point lambda is the sum of
    c * (lambda^T M lambda)^{-(n+1)/2} over the (c, M) in `terms`.

    Every step runs once per block of many strata, on the block's
    contiguous coordinate rows.  The axis-0 sums add those rows one after
    another, as a loop over the coordinates would.  The strata come in
    index order, so the core draws are a prefix of every block: the core
    test reads that prefix of each ideal coordinate, and the shell scale,
    the corner look-up and the corner map touch the suffix only.  lambda
    is log u / sum log u, which rounds exactly as E / sum E with
    E = -log u, so no negation is needed.  The integrand is evaluated on
    every draw, in one scratch buffer per call, and rejection is a mask
    applied to the 1-D values and strata afterwards.  Yields, for each
    block of `_uniform_blocks`, the values and the stratum index of each,
    in stratum order, so that a caller can drop a block once it has its
    sums.
    """
    width = n + 1
    exponent = -width / 2.0
    corner = np.array([-1 if c is None else c[0] for _, c in strata])
    scale = np.array([1.0 if c is None else c[1] for _, c in strata])
    scratch = np.empty(width * _BLOCK_ROWS)
    for lam, owner in _uniform_blocks(rngs, counts, width):
        rows = owner.size
        np.log(lam, out=lam)
        lam /= lam.sum(axis=0)
        if ideal_idx.size:
            core = int(np.searchsorted(owner, 1))  # draws of stratum 0
            keep = np.ones(rows, dtype=bool)
            for i in ideal_idx:
                keep[:core] &= lam[i, :core] < 0.5
            sc = scale[owner[core:]]
            flat = corner[owner[core:]] * rows + np.arange(core, rows)
            at = lam.ravel()[flat]
            keep[core:] = at < 0.5
            lam[:, core:] *= sc
            lam.ravel()[flat] = 1.0 - sc * (1.0 - at)
        quad = scratch[:width * rows].reshape(width, rows)
        f = 0.0
        for c, mmat in terms:
            np.matmul(mmat.T, lam, out=quad)
            quad *= lam
            q = quad.sum(axis=0)
            np.maximum(q, 1e-300, out=q)
            q **= exponent
            f = f + c * q
        if ideal_idx.size:
            kept = np.flatnonzero(keep)
            f, owner = f[kept], owner[kept]
        yield f, owner


class _SeedState(np.random.bit_generator.ISeedSequence):
    """A seed sequence that hands PCG64 a state computed beforehand: PCG64
    reads nothing of its seed sequence but generate_state(4, np.uint64)."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


@functools.cache
def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult^j mod 2^32 for j < count, as a (count, 1) uint32 column:
    the data-independent hash constants of SeedSequence."""
    out = []
    for _ in range(count):
        out.append(init)
        init = init * mult & 0xFFFFFFFF
    column = np.array(out, dtype=np.uint32)[:, None]
    column.setflags(write=False)
    return column


def _seed_states(words: np.ndarray) -> np.ndarray:
    """SeedSequence(row).generate_state(4, np.uint64) for every row of a
    (k, m) uint32 array of entropy words, in one pass over the k rows.

    numpy's algorithm, in uint32 arithmetic that wraps mod 2^32.  Each
    hashmix(v) takes the next two of a sequence of hash constants h:
    v = (v ^ h_j) * h_{j+1}, then v ^= v >> 16; mix(x, y) is
    0xCA01F9DD x - 0x4973F715 y, then the same shift.  A pool of 4 words
    holds the hashmix of the first 4 entropy words (of 0 past the end);
    then every pool word src is hashed into every other, in the order
    (src, dst) of two nested loops, and every entropy word past the fourth
    into every pool word.  The state is 8 hashes of the pool, cycled, with
    a second sequence of constants, read as 4 uint64 words, low word
    first.  The hashes that share an input run as one array step.
    """
    k, m = words.shape
    words = words.T
    consts = _hash_constants(0x43B0D7E5, 0x931E8875, 4 + 12 + 4 * max(m - 4, 0) + 1)
    used = 0

    def hashmix(v, j):  # the next j hashmix calls, one per row of the result
        nonlocal used
        v = (v ^ consts[used:used + j]) * consts[used + 1:used + j + 1]
        used += j
        return v ^ (v >> 16)

    def mix(x, y):
        r = 0xCA01F9DD * x - 0x4973F715 * y
        return r ^ (r >> 16)

    first = np.zeros((4, k), dtype=np.uint32)
    first[:m] = words[:4]
    pool = hashmix(first, 4)
    for src in range(4):
        dst = [i for i in range(4) if i != src]
        pool[dst] = mix(pool[dst], hashmix(pool[src], 3))
    for word in words[4:]:
        pool = mix(pool, hashmix(word, 4))
    consts = _hash_constants(0x8B51F9DD, 0x58F38DED, 9)
    used = 0
    state = hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], 8).astype(np.uint64)
    return np.ascontiguousarray((state[0::2] | state[1::2] << 32).T)


def _substreams(prefix, count: int) -> list:
    """The generators default_rng([*prefix, idx]) for idx < count.

    numpy turns such a list into SeedSequence entropy words: each entry's
    32-bit chunks, low first, with [0] for 0.  Those words are built here
    once, and the PCG64 states of all count generators are hashed from them
    in one vectorised SeedSequence pass (`_seed_states`), so no generator
    builds its own SeedSequence; the streams are the same.
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
    return [np.random.Generator(np.random.PCG64(_SeedState(state)))
            for state in _seed_states(rows)]


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
    """Hyperbolic volume of a full-dimensional geodesic simplex, n >= 2.

    Stratified Monte Carlo over the Klein-model simplex with dyadic
    corner shaving around ideal vertices; deterministic per seed.  The
    geometric tail beyond the last shaving level is extrapolated and
    added to both the value and (conservatively) the standard error.
    """
    n = K.ambient_dim
    if K.k != n or n < 2:
        raise GeometryError("volume needs a full-dimensional simplex in dimension >= 2")
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
        # np.add.at adds in row order, as np.bincount over all the rows
        # would; the counts are exact integers, whichever way they are added
        sums = np.zeros((3, k))
        for f, owner in _sample(rngs, counts, n, strata, ideal_idx, terms):
            sums[0] += np.bincount(owner, minlength=k)
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
# exact volumes for 2 <= n <= 5
#
# Every kernel below reads a stack of vertex Gram matrices of the rows
# (1, x_i), G_ij = -1 + x_i . x_j, whose diagonal is an exact 0 at an ideal
# vertex.  Their dihedral angles, and the angles' derivatives along the
# Schlafli path, come from the one inverse H = G^-1 of `simplex`:
# `_inverse_gram`, `_dihedral_cosines` and `_angle_derivatives`.


def _triangle_areas(g: np.ndarray) -> np.ndarray:
    """Areas of a (..., 3, 3) stack of triangles: pi minus the angle sum.

    The angle at vertex a of (a, b, c) is theta_bc.  At an ideal vertex it
    is set to exactly 0, where arccos(1 - 1e-16) would give 1.5e-8.
    """
    ginv, diag, _ = _inverse_gram(g)
    cos = _dihedral_cosines(ginv, diag)[..., [1, 0, 0], [2, 2, 1]]
    angles = np.arccos(np.clip(cos, -1.0, 1.0))
    angles[np.diagonal(g, axis1=-2, axis2=-1) == 0.0] = 0.0
    return math.pi - angles.sum(axis=-1)


#: (k, j, m) of the six right triangles of `_ideal_cone_volumes`: side k,
#: its end vertex j and the other side m at j, vertices numbered 1..3
_RIGHT_K, _RIGHT_J, _RIGHT_M = np.array(
    [(k, j, 6 - k - j) for k in (1, 2, 3) for j in (1, 2, 3) if j != k]).T


def _ideal_cone_volumes(g: np.ndarray) -> np.ndarray:
    """Volumes of a (..., 4, 4) stack of tetrahedra whose vertex 0 is ideal.

    In the upper half-space with vertex 0 at infinity the tetrahedron is
    the region above its face (1, 2, 3), which lies on a hemisphere of
    radius 1 about c0, and over the vertical projection D of that face.
    D is a Euclidean triangle whose angle A_j at vertex j is the dihedral
    angle at the edge 0j, and the signed distance from c0 to the side of D
    opposite vertex k is cos gamma_k, gamma_k the dihedral angle at the
    edge of the face that projects to that side.  D splits at c0 into six
    signed right triangles, one per side k and end vertex j, with m the
    other side at j:

        t = (cos gamma_m + cos gamma_k cos A_j) / sin A_j,
        phi = atan2(t, |cos gamma_k|),   delta = arccos |cos gamma_k|,
        vol = 1/4 sum sign(cos gamma_k)
                  [Lambda(delta + phi) - Lambda(delta - phi) + 2 Lambda(pi/2 - phi)].
    """
    ginv, diag, _ = _inverse_gram(g)
    cos = _dihedral_cosines(ginv, diag)
    cos_gamma = cos[..., 0, :]  # theta_0k: the edge of the face opposite vertex k
    cos_a = cos[..., [0, 2, 1, 1], [0, 3, 3, 2]]  # A_j = theta_kl for {j, k, l} = {1, 2, 3}
    ck, cm, ca = cos_gamma[..., _RIGHT_K], cos_gamma[..., _RIGHT_M], cos_a[..., _RIGHT_J]
    h = np.abs(ck)
    phi = np.arctan2((cm + ck * ca) / np.sqrt(1.0 - ca * ca), h)
    delta = np.arccos(np.minimum(h, 1.0))
    lam = lobachevsky(np.stack([delta + phi, delta - phi, math.pi / 2 - phi]))
    return 0.25 * (np.sign(ck) * (lam[0] - lam[1] + 2.0 * lam[2])).sum(axis=-1)


#: Faces (1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2) of a tetrahedron:
#: cone(p, face i) is taken with the sign of `_CONE_SIGNS`[i]
_TETRAHEDRON_FACES = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])
_CONE_SIGNS = np.array([-1.0, 1.0, 1.0, 1.0])


def _tetrahedron_volumes(g: np.ndarray) -> np.ndarray:
    """Volumes of a (..., 4, 4) stack of tetrahedra of any vertex mix.

    A tetrahedron with an ideal vertex is the cone from it, taken directly.
    Otherwise p = (1 - mu) v_0 + mu c, with c the centroid of the opposite
    face's rows, is the ideal point where the ray from v_0 through c
    leaves the ball: mu is the least root above 1 of <p, p> = 0, a
    quadratic a mu^2 + 2 b mu + G_00 in mu, taken in the form that does
    not cancel.  The tetrahedron is then the union of the cones from p over
    its three faces at v_0, minus the cone over the face opposite v_0, and
    each cone has the ideal apex p: its Gram matrix borders the face's with
    the row <p, v_j> = (lambda^T G)_j and <p, p> = 0.  (On thin ideal
    tetrahedra the direct cone is the more accurate: 6e-13 against 3e-12
    in the worst of 300 random ones.)
    """
    ideal = np.diagonal(g, axis1=-2, axis2=-1) == 0.0
    apex = ideal.any(axis=-1)
    vol = np.empty(g.shape[:-2])
    if apex.any():
        order = np.argsort(~ideal[apex], axis=-1, kind="stable")  # an ideal vertex first
        vol[apex] = _ideal_cone_volumes(np.take_along_axis(
            np.take_along_axis(g[apex], order[:, :, None], axis=1), order[:, None, :], axis=2))
    if not apex.all():
        vol[~apex] = _finite_tetrahedron_volumes(g[~apex])
    return vol


def _finite_tetrahedron_volumes(g: np.ndarray) -> np.ndarray:
    """`_tetrahedron_volumes` of a (k, 4, 4) stack, by the cones from p."""
    w = np.array([-1.0, 1.0, 1.0, 1.0]) / np.array([1.0, 3.0, 3.0, 3.0])
    gw = g @ w
    a = gw @ w
    b = gw[..., 0]
    c = g[..., 0, 0]
    root = np.sqrt(b * b - a * c)
    with np.errstate(divide="ignore", invalid="ignore"):  # the other branch of the where
        mu = np.where(b <= 0.0, (root - b) / a, c / (-b - root))
    lam = mu[..., None] * w
    lam[..., 0] += 1.0
    pg = np.einsum("...i,...ij->...j", lam, g)
    cones = np.zeros(g.shape[:-2] + (4, 4, 4))
    cones[..., 1:, 1:] = g[..., _TETRAHEDRON_FACES[:, :, None], _TETRAHEDRON_FACES[:, None, :]]
    cones[..., 0, 1:] = cones[..., 1:, 0] = pg[..., _TETRAHEDRON_FACES]
    return _ideal_cone_volumes(cones) @ _CONE_SIGNS


#: Gauss-Legendre nodes in u of the Schlafli path of `_path_volume`
_PATH_NODES = 32


@functools.cache
def _path_rule() -> tuple:
    """(t, dt/du, weights) at the `_PATH_NODES` nodes of [0, 1] in u, with
    t = 3u^2 - 2u^3, whose dt/du = 6u(1 - u) vanishes at both ends."""
    u, weights = np.polynomial.legendre.leggauss(_PATH_NODES)
    u = (u + 1.0) / 2.0
    return u * u * (3.0 - 2.0 * u), 6.0 * u * (1.0 - u), weights / 2.0


def _path_order(x0: np.ndarray, x1: np.ndarray) -> np.ndarray:
    """The vertex order of x1 along which the path (1 - t) x0 + t x1[order]
    stays farthest from a degenerate simplex.

    With B = [1 | x], det B(t) = det B_0 prod_k (1 + t lambda_k) over the
    eigenvalues of M = B_0^-1 (B_1 - B_0), so the path degenerates at some
    t in (0, 1] exactly when M has a real eigenvalue <= -1.  An order's
    margin is min_k min_{0 <= t <= 1} |1 + t lambda_k|, 0 for such an
    eigenvalue; M = B_0^-1 [0 | dx] has the nonzero eigenvalues of
    (B_0^-1)[1:] dx.  The largest margin, not the first order with a
    positive one: the first such order of a well-shaped 4-simplex can pass
    close to a degenerate one (margin 0.024, volume 1.2e-10 off
    Gauss-Bonnet, where the best order gives 6e-15).  Raises
    `GeometryError` if no order has a margin.
    """
    orders = np.array(list(itertools.permutations(range(len(x0)))))
    b0inv = np.linalg.inv(np.column_stack([np.ones(len(x0)), x0]))[1:]
    lam = np.linalg.eigvals(b0inv @ (x1[orders] - x0))
    size = np.abs(lam) ** 2
    t = np.clip(-lam.real / np.where(size > 0.0, size, 1.0), 0.0, 1.0)
    margin = np.abs(1.0 + t * lam).min(axis=-1)
    best = int(np.argmax(margin))
    if margin[best] <= 1e-8:
        raise GeometryError("every vertex order of the Schlafli path meets a degenerate simplex")
    return orders[best]


def _path_volume(x: np.ndarray, ideal: np.ndarray) -> float:
    """Volume of the n-simplex (n = 4, 5) with Klein vertices x by
    Schlafli's formula dV = -1/(n-1) sum_{i<j} V_{n-2}(F_ij) dtheta_ij.

    The path x(t) = (1 - t) x_reg + t x runs from the regular ideal
    simplex (volume v_n) in a `_path_order` of x; it is not renormalised,
    so vertices turn finite along it.  Its Gram matrices G(t) = -1 + X X^T
    have the diagonal -(t r + t (1 - t) |dx|^2), r = 1 - |x_i|^2 (0 at an
    ideal vertex), which does not cancel near the ideal ends.  Along the
    path dG = dX X^T + X dX^T, which `simplex._angle_derivatives` turns
    into dtheta.  The faces F_ij are triangles (n = 4) or tetrahedra
    (n = 5), stacked over nodes and faces.
    """
    n = x.shape[1]
    x0 = regular_ideal_simplex(n).klein_vertices()
    order = _path_order(x0, x)
    x, ideal = x[order], ideal[order]
    t, dt, weights = _path_rule()
    dx = x - x0
    r = np.where(ideal, 0.0, 1.0 - np.einsum("ij,ij->i", x, x))
    q = np.einsum("ij,ij->i", dx, dx)
    xt = x0 + t[:, None, None] * dx
    g = xt @ xt.transpose(0, 2, 1) - 1.0
    dg = dx @ xt.transpose(0, 2, 1)
    dg = dg + dg.transpose(0, 2, 1)
    diag = np.arange(n + 1)
    g[:, diag, diag] = -(t[:, None] * r + (t * (1.0 - t))[:, None] * q)
    dg[:, diag, diag] = -(r + (1.0 - 2.0 * t)[:, None] * q)
    h, _, _ = _inverse_gram(g)
    dtheta = _angle_derivatives(h, dg * dt[:, None, None])
    i, j = np.triu_indices(n + 1, 1)
    faces = np.array([[k for k in diag if k != a and k != b] for a, b in zip(i, j)])
    face_g = g[:, faces[:, :, None], faces[:, None, :]]
    face_v = _triangle_areas(face_g) if n == 4 else _tetrahedron_volumes(face_g)
    dv = -(face_v * dtheta).sum(axis=1) / (n - 1)
    return ideal_regular_volume(n).value + float(dv @ weights)


def _exact_volume(K: GeodesicSimplex) -> float:
    """Hyperbolic volume of a full-dimensional geodesic simplex, 2 <= n <= 5,
    of any mix of ideal and finite vertices, with no sampling.

    n = 2: pi minus the angle sum; n = 3: `_tetrahedron_volumes`; n = 4 and
    5: `_path_volume`.
    """
    n = K.ambient_dim
    if K.k != n or not 2 <= n <= 5:
        raise GeometryError("exact volumes need a full-dimensional simplex, 2 <= n <= 5")
    if is_degenerate(K):
        raise DegenerateSimplexError("volume of a degenerate simplex")
    if n >= 4:
        return _path_volume(K.klein_vertices(), K.ideal_flags())
    g = -_klein_form(K)[0]
    return float(_triangle_areas(g) if n == 2 else _tetrahedron_volumes(g))


# ---------------------------------------------------------------------------
# maximality probe


@dataclass(frozen=True)
class ProbeReport:
    n: int
    trials: int
    v_ref: float
    max_value: float
    max_gram: np.ndarray
    violations: int
    degenerate_rejected: int


#: the chance that a vertex of a `maximality_probe` trial is ideal
_PROBE_IDEAL_PROB = 0.5


def maximality_probe(n: int, trials: int = 1000, seed: int = 0) -> ProbeReport:
    """Draw random nondegenerate simplices and compare their volumes with v_n.

    Each trial draws vertices in the Klein ball, each one ideal with
    probability `_PROBE_IDEAL_PROB` and finite otherwise, rejects
    degenerate draws without counting them, and computes the volume V
    exactly (`_exact_volume`, no sampling); V > v_n is a violation.  Every
    ideal triangle is regular, with area exactly pi = v_2, so at n = 2 the
    maximum is attained and equality is not a violation.  The largest
    volume and its vertex Gram matrix are recorded.  Raises
    `GeometryError` for fewer than one trial, which would leave no maximum.
    """
    if not 2 <= n <= 5:
        raise GeometryError("probe supports dimensions 2..5")
    if trials < 1:
        raise GeometryError(f"the probe needs at least one trial, got {trials}")
    v_ref = ideal_regular_volume(n).value
    rng = np.random.default_rng([seed, 0xBEEF])
    best = (-math.inf, None)
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
        value = _exact_volume(K)
        if value > v_ref:
            violations += 1
        if value > best[0]:
            best = (value, K.gram.copy())
        done += 1
    return ProbeReport(n, trials, v_ref, best[0], best[1], violations, rejected)
