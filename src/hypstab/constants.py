r"""The quantitative constants behind the volume-vs-complexity gap.

For the regular ideal n-simplex the dihedral angle is
``alpha_n = arccos(1/(n-1))``; in dimensions n >= 4 the ratio
``2 pi / alpha_n`` is never an integer, and k_n denotes the integer with
``k_n alpha_n < 2 pi < (k_n+1) alpha_n`` (5 for n = 4, 4 for n >= 5).
This module instantiates the chain of per-dimension constants built on
that gap:

* ``delta_n``: a third of the minimal clearance between an (n-2)-face
  center of the regular ideal simplex and the faces not containing it,
* ``eta_n = ball_volume(n, delta_n)``,
* ``a_n``: half the relative margin of alpha_n inside the open interval
  (2 pi/(k_n+1), 2 pi/k_n),
* ``eps_n``: the largest volume-pinch parameter for which a randomized
  counterexample search finds no near-maximal simplex violating either
  the dihedral bracket (with this a_n) or the 2 delta_n clearance,
* ``C_n = max(1 - eps_n/12, 1 - eta_n/(3 v_n), 1 - a_n eta_n/(2 v_n))``,
  strictly below 1 whenever all components are positive.

Only eps_n (and C_n, which depends on it) comes from an empirical
search, not a certified proof; the search emits a replayable audit
trail.  alpha_n, k_n, a_n, delta_n and eta_n are exact arithmetic or
deterministic numerics, and so is v_n (see `ideal_regular_volume`).

`budget_check` evaluates the bookkeeping inequalities that turn these
constants into the volume bound ``vol <= C_n v_n t`` for a triangulation
with t simplices, t_s of them small, e_f full codimension-2 faces and N
full-face incidences.  It is pure arithmetic over the supplied counts
(exact when handed `fractions.Fraction` inputs); building actual
triangulations of hyperbolic n-manifolds is out of scope.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .minkowski import GeometryError, lift_klein
from .simplex import (
    DualVectorError,
    GeodesicSimplex,
    dihedral_angles,
    is_degenerate,
    min_face_clearance,
    regular_ideal_simplex,
)
from .volume import (
    EMPIRICAL,
    EXACT,
    VolumeEstimate,
    ball_volume,
    ideal_regular_volume,
    volume_deficit_vs_regular,
)

TWO_PI = 2.0 * math.pi

# defaults of the eps_n search settings of estimate_a_eps
SEARCH_DEFAULTS = dict(restarts=64, bisection_depth=20, climb_iters=12,
                       cheap_budget=4096, verify_budget=1_048_576,
                       probe_levels=14, eps_start=0.9)


@dataclass(frozen=True)
class AlphaRow:
    n: int
    alpha: float
    k: int
    ratio: float              # 2 pi / alpha_n
    integer_exception: bool   # true exactly for n = 3


def alpha_k_table(n_min: int = 3, n_max: int = 8) -> list[AlphaRow]:
    """alpha_n = arccos(1/(n-1)) and the bracketing integer k_n.

    For n >= 4 the strict bracket k_n alpha_n < 2 pi < (k_n+1) alpha_n is
    asserted
    (a violation is impossible and would signal an arithmetic bug);
    n = 3 is reported as the integer exception 2 pi / alpha_3 = 6.
    """
    if n_min < 3:
        raise GeometryError("dihedral table starts at dimension 3")
    rows = []
    for n in range(n_min, n_max + 1):
        alpha = math.acos(1.0 / (n - 1))
        ratio = TWO_PI / alpha
        if n == 3:
            # 2 pi / alpha_3 = 6: the one dimension where the ratio is an integer
            rows.append(AlphaRow(n, alpha, round(ratio), ratio, True))
            continue
        k = math.floor(ratio)
        if not (k * alpha < TWO_PI < (k + 1) * alpha):
            raise ArithmeticError(f"bracketing violated at n={n}: k={k}, alpha={alpha}")
        rows.append(AlphaRow(n, alpha, k, ratio, False))
    return rows


def delta_n(n: int) -> float:
    """One third of the minimal face clearance of the regular ideal n-simplex."""
    return min_face_clearance(regular_ideal_simplex(n)) / 3.0


def angle_bracket(n: int, a: float) -> tuple[float, float]:
    """The open dihedral-angle window (2 pi/(k_n+1))(1+a) .. (2 pi/k_n)(1-a)."""
    k = alpha_k_table(n, n)[0].k
    return TWO_PI / (k + 1) * (1.0 + a), TWO_PI / k * (1.0 - a)


def margin_a(n: int) -> float:
    """Half the relative margin of alpha_n inside (2 pi/(k_n+1), 2 pi/k_n)."""
    row = alpha_k_table(n, n)[0]
    lo = row.alpha * (row.k + 1) / TWO_PI - 1.0
    hi = 1.0 - row.alpha * row.k / TWO_PI
    if lo <= 0 or hi <= 0:
        raise ArithmeticError("alpha_n fell outside its bracket")
    return min(lo, hi) / 2.0


def compute_Cn(eps, eta, a, v_n):
    """C_n = max(1 - eps/12, 1 - eta/(3 v_n), 1 - a eta/(2 v_n)).

    Pure arithmetic in the caller's numeric type; by construction the
    result is strictly below 1 for positive inputs.
    """
    if eps <= 0 or eta <= 0 or a <= 0 or v_n <= 0:
        raise GeometryError("all constants must be positive")
    if eta >= 3 * v_n:
        raise GeometryError("eta must stay below 3 v_n")
    c = max(1 - eps / 12, 1 - eta / (3 * v_n), 1 - a * eta / (2 * v_n))
    if not c < 1:
        raise GeometryError("constants too small to represent the gap below 1 "
                            "in this arithmetic")
    return c


# ---------------------------------------------------------------------------
# empirical search for eps_n


@dataclass
class BisectionStep:
    eps: float
    counterexample: bool
    best_violation: float
    best_deficit: float
    cheap_evals: int    # cheap deficits of the hill climbs
    verify_evals: int   # verify deficits, one per stage run


@dataclass
class SearchAudit:
    """Replayable record of the eps_n bisection.

    It holds every argument of `estimate_a_eps` (``depth`` is its
    ``bisection_depth``), so rerunning the search with the recorded
    settings reproduces it verbatim."""

    n: int
    seed: int
    restarts: int
    depth: int
    climb_iters: int
    cheap_budget: int
    verify_budget: int
    probe_levels: int
    eps_start: float
    a_n: float
    delta: float
    v_n: float
    steps: list = field(default_factory=list)
    final_eps: float = 0.0
    halved_eps_confirmed: bool = False

    def as_dict(self):
        return asdict(self)


def _angle_violation(K: GeodesicSimplex, lo: float, hi: float) -> float:
    """How far the worst dihedral angle escapes the (lo, hi) window, in radians."""
    try:
        angles = dihedral_angles(K)[np.triu_indices(K.k + 1, 1)]
    except DualVectorError:
        return 1.0  # a dual stopped being spacelike; far outside the window
    return max(float(np.max(lo - angles)), float(np.max(angles - hi)))


def _jitter(kv: np.ndarray, ideal: list, rng, step: float) -> np.ndarray:
    out = kv + step * rng.standard_normal(kv.shape)
    for i in range(out.shape[0]):
        r = math.sqrt(out[i].dot(out[i]))
        if ideal[i]:
            out[i] /= r
        elif r >= 0.999999:
            out[i] *= 0.999 / r
    return out


def _build(kv: np.ndarray, ideal: list, n: int) -> GeodesicSimplex:
    verts = [lift_klein(kv[i], ideal=ideal[i]) for i in range(n + 1)]
    return GeodesicSimplex(tuple(verts), n)


def _counterexample_search(n, eps, a, delta, v_ref, seed, step_idx, restarts,
                           iters, cheap_budget, verify_budget, levels):
    """Randomized hunt for a big simplex violating a lemma conclusion.

    The hill climb maximizes the bracket/clearance violation penalized by
    the excess volume deficit over eps (deficits from the cheap
    difference estimator).  A final candidate that violates a conclusion
    goes to verification when its cheap deficit is at most eps + 3 sigma;
    this gate errs on the generous side, which can only shrink the
    reported eps_n.  Verification is sequential: deficits on
    verify_budget >> 4, then verify_budget >> 2, then verify_budget
    samples, stopping at the first stage more than 4 sigma from eps.  The
    candidate is a counterexample when the last deficit is <= eps.  The
    full stage draws from the substream [seed, step_idx, r, 0xACC] and the
    early stages from that seed extended by 1 and by 2.  Everything is
    seeded, so identical arguments replay identically.
    """
    lo, hi = angle_bracket(n, a)
    two_delta = 2.0 * delta
    base = regular_ideal_simplex(n).klein_vertices()
    found = False
    best_viol, best_deficit = -math.inf, math.inf
    cheap_evals = verify_evals = 0

    for r in range(restarts):
        rng = np.random.default_rng([seed, n, step_idx, r])
        scale = max(math.sqrt(max(eps, 1e-6)), 1e-3) * (0.25 + 1.5 * (r % 8) / 8.0)
        ideal = [True] * (n + 1)
        if r % 3 == 0:
            ideal[r % (n + 1)] = False
        kv = _jitter(base, [True] * (n + 1), rng, scale)
        if not all(ideal):
            i = ideal.index(False)
            kv[i] *= 1.0 - abs(rng.normal(0.0, scale))

        def evaluate(kvc, it, bar=None):
            """The candidate's state, or None when it is degenerate or its
            score cannot beat ``bar``: the deficit penalty is never
            negative, so a violation not above ``bar`` needs no deficit."""
            nonlocal cheap_evals
            K = _build(kvc, ideal, n)
            if is_degenerate(K, tol=1e-8):
                return None
            av = _angle_violation(K, lo, hi)
            cv = two_delta - min_face_clearance(K) if it % 4 == 0 else -math.inf
            viol = max(av, cv)
            if bar is not None and not viol > bar:
                return None
            deficit, sigma = volume_deficit_vs_regular(
                K, budget=cheap_budget, seed=[seed, step_idx, r, it],
                levels=levels, v_ref=v_ref)
            cheap_evals += 1
            return K, viol, deficit, sigma, viol - 50.0 * max(0.0, deficit - eps)

        state = evaluate(kv, 0)
        if state is None:
            continue
        for it in range(1, iters):
            step = scale * 0.8 ** (it / 3.0)
            cand = evaluate(_jitter(kv, ideal, rng, step), it, state[4])
            if cand is not None and cand[4] > state[4]:
                state = cand
                kv = state[0].klein_vertices()

        K, viol, deficit, sigma, _ = state
        cv = two_delta - min_face_clearance(K)
        viol = max(viol, cv)
        if viol > best_viol:
            best_viol, best_deficit = viol, deficit
        if viol > 0.0 and deficit <= eps + 3.0 * sigma:
            # 1/16 and 1/4 of the budget first; a stage 4 sigma clear of eps decides
            for shift, stage in ((4, [1]), (2, [2]), (0, [])):
                acc_deficit, acc_sigma = volume_deficit_vs_regular(
                    K, budget=verify_budget >> shift, seed=[seed, step_idx, r, 0xACC] + stage,
                    levels=levels, v_ref=v_ref)
                verify_evals += 1
                if abs(acc_deficit - eps) > 4.0 * acc_sigma:
                    break
            if acc_deficit <= eps:
                found = True
                best_viol, best_deficit = viol, acc_deficit
                break
    return found, best_viol, best_deficit, cheap_evals, verify_evals


def estimate_a_eps(
    n: int,
    seed: int = 0,
    restarts: int = SEARCH_DEFAULTS["restarts"],
    bisection_depth: int = SEARCH_DEFAULTS["bisection_depth"],
    climb_iters: int = SEARCH_DEFAULTS["climb_iters"],
    cheap_budget: int = SEARCH_DEFAULTS["cheap_budget"],
    verify_budget: int = SEARCH_DEFAULTS["verify_budget"],
    probe_levels: int = SEARCH_DEFAULTS["probe_levels"],
    eps_start: float = SEARCH_DEFAULTS["eps_start"],
    *,
    delta: float,
    v_n: float,
) -> tuple[float, float, SearchAudit]:
    """(a_n, eps_n) and the audit trail of the bisection.

    a_n is exact arithmetic (half the bracket margin of alpha_n).  The
    bisection locates the largest eps at which the randomized
    counterexample search fails to produce a simplex of volume
    >= (1 - eps) v_n violating the dihedral bracket or the 2 delta_n
    clearance; eps_n is HALF that boundary value, so the reported
    constant sits robustly inside the accepted region instead of on the
    noise-sensitive flip line.  Flagged empirical-search, never
    certified.  ``delta`` (delta_n) and ``v_n`` are the clearance and
    the reference volume the search tests against.

    Raises `RuntimeError` when no admissible eps is found (search budget
    exhausted), rather than silently defaulting, and `GeometryError` when
    restarts, bisection_depth or climb_iters is below 1: a search that
    evaluates no simplex would accept any eps.
    """
    if n < 4:
        raise GeometryError("the bracket constants live in dimension >= 4")
    for name, count in (("restarts", restarts), ("bisection_depth", bisection_depth),
                        ("climb_iters", climb_iters)):
        if count < 1:
            raise GeometryError(f"{name} must be at least 1, got {count}")
    a = margin_a(n)
    audit = SearchAudit(n, seed, restarts, bisection_depth, climb_iters, cheap_budget,
                        verify_budget, probe_levels, eps_start, a, delta, v_n)

    def run(eps, step_idx):
        step = BisectionStep(eps, *_counterexample_search(
            n, eps, a, delta, v_n, seed, step_idx, restarts, climb_iters,
            cheap_budget, verify_budget, probe_levels))
        audit.steps.append(step)
        return step.counterexample

    # geometric descent until a candidate is accepted, then bisection of the
    # bracket; bisection_depth is the total step budget for both phases
    lo, hi = 0.0, eps_start
    steps_left = bisection_depth
    cand = hi
    while steps_left > 0:
        steps_left -= 1
        if not run(cand, bisection_depth - steps_left):
            lo = cand
            break
        hi = cand
        cand /= 2.0
        if cand < 1e-9:
            break
    while steps_left > 0 and lo > 0.0:
        steps_left -= 1
        mid = 0.5 * (lo + hi)
        if run(mid, bisection_depth - steps_left):
            hi = mid
        else:
            lo = mid
    if lo <= 0.0:
        raise RuntimeError(
            f"search budget exhausted without any admissible eps at n={n}; "
            "raise restarts/budget or loosen the probe"
        )
    # report a value well inside the accepted region, not on the noisy flip
    # line; retreat further if the boundary neighborhood is unstable
    eps_final = None
    extra = bisection_depth
    for retreat in (2.0, 8.0, 32.0):
        extra += 1
        if not run(lo / retreat, extra):
            eps_final = lo / retreat
            break
    if eps_final is None:
        raise RuntimeError(
            f"counterexamples persist arbitrarily close to zero at n={n}; "
            "the probe accuracy cannot support a positive eps"
        )
    audit.final_eps = eps_final
    audit.halved_eps_confirmed = not run(eps_final / 2.0, extra + 1)
    return a, eps_final, audit


# ---------------------------------------------------------------------------
# constants rows


@dataclass(frozen=True)
class ConstantsRow:
    n: int
    v_n: VolumeEstimate
    alpha_n: float
    k_n: int
    delta_n: float
    eta_n: float
    a_n: float
    eps_n: float
    C_n: float


#: How each number of a row is computed, in the column order of the
#: tables: only eps_n, and C_n through it, come from the search.
FLAGS = {"v_n": EXACT, "alpha_n": EXACT, "k_n": EXACT, "delta_n": EXACT,
         "eta_n": EXACT, "a_n": EXACT, "eps_n": EMPIRICAL, "C_n": EMPIRICAL}


def regular_simplex_passes_lemmas(n: int, a: float, delta: float) -> bool:
    """The regular ideal simplex satisfies both lemma conclusions at eps = 0."""
    K = regular_ideal_simplex(n)
    lo, hi = angle_bracket(n, a)
    return _angle_violation(K, lo, hi) < 0 and min_face_clearance(K) > 2.0 * delta


def constants_row(n: int, seed: int = 0, **search) -> tuple[ConstantsRow, SearchAudit]:
    """Full per-dimension pipeline: v_n, alpha_n/k_n, delta_n, eta_n, a_n,
    eps_n and the constant C_n, each value tagged with its certification.

    ``seed`` seeds the eps_n search, whose other settings ``search``
    holds (restarts, bisection_depth, ... of `estimate_a_eps`); unset ones
    take SEARCH_DEFAULTS."""
    if n < 4:
        raise GeometryError("constants rows live in dimension >= 4")
    row = alpha_k_table(n, n)[0]
    v = ideal_regular_volume(n)
    dlt = delta_n(n)
    eta = ball_volume(n, dlt)
    a, eps, audit = estimate_a_eps(n, seed=seed, delta=dlt, v_n=v.value, **search)
    if not regular_simplex_passes_lemmas(n, a, dlt):
        raise ArithmeticError("the regular ideal simplex failed its own lemma brackets")
    c = compute_Cn(eps, eta, a, v.value)
    return ConstantsRow(n, v, row.alpha, row.k, dlt, eta, a, eps, c), audit


def row_as_dict(row: ConstantsRow) -> dict:
    return {
        "n": row.n,
        "v_n": {"value": row.v_n.value, "std_error": row.v_n.std_error,
                "samples": row.v_n.samples, "flag": FLAGS["v_n"]},
        "alpha_n": {"value": row.alpha_n, "flag": FLAGS["alpha_n"]},
        "k_n": {"value": row.k_n, "flag": FLAGS["k_n"]},
        "delta_n": {"value": row.delta_n, "flag": FLAGS["delta_n"]},
        "eta_n": {"value": row.eta_n, "flag": FLAGS["eta_n"]},
        "a_n": {"value": row.a_n, "flag": FLAGS["a_n"]},
        "eps_n": {"value": row.eps_n, "flag": FLAGS["eps_n"]},
        "C_n": {"value": row.C_n, "flag": FLAGS["C_n"]},
    }


def rows_to_csv(rows: list[ConstantsRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n"] + [col for f in FLAGS for col in (f, f + "_flag")])
    for r in rows:
        d = row_as_dict(r)
        writer.writerow([repr(r.n)] + [col for f in FLAGS
                                       for col in (repr(d[f]["value"]), d[f]["flag"])])
    return buf.getvalue()


def rows_to_text(rows: list[ConstantsRow]) -> str:
    """The rows as an aligned table and a last line giving each column's flag."""
    lines = [f"{'n':>2} {'v_n':>12} {'alpha_n':>10} {'k_n':>3} {'delta_n':>10} "
             f"{'eta_n':>12} {'a_n':>10} {'eps_n':>12} {'C_n':>18}"]
    for r in rows:
        lines.append(f"{r.n:>2} {r.v_n.value:>12.8f} {r.alpha_n:>10.7f} {r.k_n:>3} "
                     f"{r.delta_n:>10.7f} {r.eta_n:>12.5e} {r.a_n:>10.7f} "
                     f"{r.eps_n:>12.5e} {r.C_n:>18.12f}")
    lines.append("flags: " + " ".join(f"{name}:{flag}" for name, flag in FLAGS.items()))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# budget bookkeeping (section-level counting inequalities)


@dataclass(frozen=True)
class LemmaConstants:
    eps_n: object
    eta_n: object
    a_n: object
    v_n: object
    k_n: int


@dataclass(frozen=True)
class BudgetReport:
    """Counts extracted from a (hypothetical) triangulation.

    t simplices split into t_b big and t_s small ones; e_f full
    codimension-2 faces carrying N big-simplex incidences in total.
    """

    n: int
    t: object
    t_b: object
    t_s: object
    e_f: object
    N: object
    full_faces_asserted: bool = True

    def __post_init__(self):
        if self.t != self.t_b + self.t_s:
            raise GeometryError(f"inconsistent counts: t={self.t} != t_b+t_s={self.t_b + self.t_s}")
        for name in ("t", "t_b", "t_s", "e_f", "N"):
            if getattr(self, name) < 0:
                raise GeometryError(f"negative count {name}")


@dataclass(frozen=True)
class LemmaVerdict:
    name: str
    hypothesis_holds: bool
    stated_bound: object = None
    derived_bound: object = None
    claim_holds: bool | None = None


@dataclass(frozen=True)
class BudgetVerdicts:
    verdicts: tuple
    m1: object
    m2: object
    m3: object
    stima1: object
    implied_vol_bound: object

    def __getitem__(self, name):
        for v in self.verdicts:
            if v.name == name:
                return v
        raise KeyError(name)


def budget_check(report: BudgetReport, constants: LemmaConstants) -> BudgetVerdicts:
    """Evaluate the counting lemmas as arithmetic over the report.

    Works in the caller's numeric types (ints/Fractions give exact
    identities).  Each verdict carries the lemma's hypothesis, its stated
    conclusion bound and the value derived along the proof chain.
    """
    t, t_b, t_s = report.t, report.t_b, report.t_s
    e_f, big_n = report.e_f, report.N
    eps, eta, a, v, k = (constants.eps_n, constants.eta_n, constants.a_n,
                         constants.v_n, constants.k_n)
    if report.full_faces_asserted and big_n < (k + 1) * e_f:
        raise GeometryError(
            f"full-face incidences N={big_n} below (k_n+1) e_f = {(k + 1) * e_f}")

    m1 = e_f * eta
    m2 = t_b * v - eta * (1 + a) * big_n / (k + 1)
    m3 = t_s * v
    stima1 = t * v + eta * (e_f - (1 + a) * big_n / (k + 1))

    twelve_t_s = 12 * t_s
    verdicts = (
        LemmaVerdict(
            "stima1a",
            hypothesis_holds=twelve_t_s >= t,
            stated_bound=(1 - eps / 12) * t * v,
            derived_bound=v * (t_b + (1 - eps) * t_s),
        ),
        LemmaVerdict(
            "stimaN",
            hypothesis_holds=twelve_t_s <= t and report.n >= 4,
            claim_holds=big_n >= 5 * t,
        ),
        LemmaVerdict(
            "stima2",
            hypothesis_holds=twelve_t_s <= t and 2 * e_f <= t,
            stated_bound=t * v - t * eta / 3,
            derived_bound=t * v + eta * (e_f - 5 * t / 6),
        ),
        LemmaVerdict(
            "stima3",
            hypothesis_holds=twelve_t_s <= t and 2 * e_f >= t,
            stated_bound=t * v - a * eta * t / 2,
            derived_bound=t * v - a * eta * e_f,
        ),
    )
    c = compute_Cn(eps, eta, a, v)
    return BudgetVerdicts(verdicts, m1, m2, m3, stima1, t * v * c)
