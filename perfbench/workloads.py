"""The three workloads of the hypstab benchmark.

Each workload turns the benchmark seed into inputs once (`setup`), runs
one small call to load lazy state (`warm_up`), computes the reference
values its checks need (`prepare_checks`, untimed), and then repeats
passes (`run_pass`).  A pass times the program's calls with
``perf_counter`` and judges each operation by checks that live on the
benchmark side:

* ``constants``: one ``hypstab constants`` table for n = 4..5 through
  ``hypstab.cli.main``.  An operation is one table row.
* ``volumes``: ``simplex_volume`` at the default budget on a family of
  simplices in dimensions 2-5.  An operation is one volume.
* ``covers``: build, count, fundamental cycle and cycle check on torus
  characteristic covers and figure-eight cyclic covers.  An operation is
  one cover.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import hypstab.cli as cli
import hypstab.complexes as cx
import hypstab.constants as constants
import hypstab.simplex as simplex
import hypstab.volume as volume
from hypstab.fixtures import load_fixture

import layers
import oracles


@dataclass
class PassResult:
    seconds: float = 0.0  # time spent in the program's calls
    ok: list = field(default_factory=list)      # one verdict per checked operation
    detail: dict = field(default_factory=dict)  # workload-specific numbers
    z_scores: list = field(default_factory=list)  # oracle errors in sigmas
    digest: str | None = None


def percentile(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


# ---------------------------------------------------------------------------
# constants


class Constants:
    """The eps_n search behind C_n: many small deficit calls, a few large ones.

    Restarts and depth are the smallest that keep every row admissible
    at seed 0 (depth 6 exhausts the search at both n; one restart fails
    at n = 4 on some seeds), so that one table fits in a run.  The table
    always runs at the CLI's default seed 0: the search's work depends on
    its seed (570-690 deficit calls over seeds 0-9, and seed 9 fails at
    n = 4), which would add to the machine's own run-to-run spread, and a
    fixed seed makes every run's JSON digest comparable (see
    ``run.reference_digest``).  The benchmark seed therefore changes
    nothing in this workload.
    """

    name = "constants"
    timing_wraps = ("cli.constants_row",)
    RESTARTS = 2
    DEPTH = 14
    DIMS = (4, 5)
    #: eps_n must fall in this band.  Search seeds 0-9 of the sources the
    #: benchmark was written against gave eps_n from 3.8e-4 to 1.4e-2 at
    #: n = 4 and from 3.3e-4 to 0.1125 at n = 5 (seed 9 failed at n = 4).
    #: A rewritten deficit kernel draws other random streams, which acts
    #: like another seed, so the band reaches a factor 4 below and 2 above
    #: those ranges.  Its top stays under 0.45, the eps_n of a search
    #: whose deficits are so large that it never finds a counterexample.
    EPS_BAND = {4: (9.5e-5, 2.8e-2), 5: (8.3e-5, 0.225)}

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        self.argv = ["constants", "--n-min", str(self.DIMS[0]), "--n-max", str(self.DIMS[-1]),
                     "--restarts", str(self.RESTARTS), "--depth", str(self.DEPTH),
                     "--format", "json", "--seed", "0"]

    def prepare_checks(self):
        pass

    def warm_up(self):
        K = simplex.regular_ideal_simplex(4)
        volume.volume_deficit_vs_regular(K, budget=4096, levels=14, v_ref=oracles.V4)
        simplex.min_face_clearance(K)

    def config(self):
        search = constants.SEARCH_DEFAULTS
        return {"argv": self.argv, "restarts": self.RESTARTS, "depth": self.DEPTH,
                "samples": volume.DEFAULT_BUDGET, "cheap_budget": search["cheap_budget"],
                "verify_budget": search["verify_budget"],
                "deficit_cross_check": {"every": DeficitLog.CROSS_EVERY,
                                        "budget": DeficitLog.CROSS_BUDGET},
                "eps_band": self.EPS_BAND}

    def run_pass(self, tracer) -> PassResult:
        out = io.StringIO()
        deficits = DeficitLog()
        with deficits.installed(), contextlib.redirect_stdout(out):
            t0 = perf_counter()
            rc = cli.main(list(self.argv))
            seconds = perf_counter() - t0
        text = out.getvalue()
        rows = {r["n"]: r for r in json.loads(text)["rows"]}
        # one worker thread runs the rows in order, even the ones that raise
        row_s = dict(zip(self.DIMS, (s.seconds for s in tracer.by_name("cli.constants_row"))))
        res = PassResult(seconds=seconds, digest=hashlib.sha256(text.encode()).hexdigest())
        deficits_ok = deficits.check()
        for n in self.DIMS:
            row = rows.get(n)
            res.ok.append(rc == 0 and row is not None and check_row(row)
                          and self.eps_in_band(row) and deficits_ok.get(n, False))
            res.detail[f"row_s.n{n}"] = row_s.get(n, math.nan)
            if row is not None:
                v = row["v_n"]
                res.detail[f"v_rse.n{n}"] = v["std_error"] / v["value"]
                if oracles.REGULAR_IDEAL[n][1] == 0.0 and v["std_error"] > 0:
                    res.z_scores.append((v["value"] - oracles.REGULAR_IDEAL[n][0]) / v["std_error"])
        res.z_scores += deficits.z_scores
        return res

    def eps_in_band(self, row) -> bool:
        lo, hi = self.EPS_BAND[row["n"]]
        return lo <= row["eps_n"]["value"] <= hi


def check_row(row) -> bool:
    """A constants row agrees with the exact values and its own C_n formula."""
    n = row["n"]
    alpha = math.acos(1.0 / (n - 1))
    v, se = row["v_n"]["value"], row["v_n"]["std_error"]
    ref, ref_se = oracles.REGULAR_IDEAL[n]
    eps, eta, a = row["eps_n"]["value"], row["eta_n"]["value"], row["a_n"]["value"]
    if not (eps > 0 and eta > 0 and a > 0 and v > 0):
        return False
    c = max(1 - eps / 12, 1 - eta / (3 * v), 1 - a * eta / (2 * v))
    return (abs(row["alpha_n"]["value"] - alpha) <= 1e-12
            and row["k_n"]["value"] == math.floor(2 * math.pi / alpha)
            and abs(v - ref) <= oracles.Z_MAX * math.hypot(se, ref_se)
            and math.isclose(row["C_n"]["value"], c, rel_tol=1e-15)
            and row["C_n"]["value"] < 1.0
            and row["eps_n"]["flag"] == constants.EMPIRICAL)


class DeficitLog:
    """Records every deficit the search asks for, to check them after the table.

    The record is taken inside the timed table but costs microseconds;
    the checks run afterwards.  Every deficit must respect maximality,
    deficit >= -Z_MAX sigma (no simplex is bigger than the regular ideal
    one).  On all-ideal 4-simplices, where Gauss-Bonnet gives the volume
    exactly, it must lie within Z_MAX sigma of (V4 - vol K) / v_ref.
    Every CROSS_EVERY-th other call (the n = 5 calls and those with a
    finite vertex) is compared in the same way with v_n minus a
    ``simplex_volume`` estimate of vol K.  That is a second code path of
    the program, separate from the deficit kernel: it stops being an
    independent check if a change makes the two share their kernel.
    """

    CROSS_EVERY = 50
    CROSS_BUDGET = 200_000

    def __init__(self):
        self.calls = []  # (K, v_ref, deficit, sigma)
        self.z_scores = []

    @contextlib.contextmanager
    def installed(self):
        original = constants.volume_deficit_vs_regular

        def logged(*args, **kwargs):
            result = original(*args, **kwargs)
            call = layers.deficit_arguments(args, kwargs)
            self.calls.append((call["K"], call["v_ref"], *result))
            return result

        constants.volume_deficit_vs_regular = logged
        try:
            yield
        finally:
            constants.volume_deficit_vs_regular = original

    def check(self) -> dict:
        """Dimension -> whether every deficit in that dimension passed."""
        ok = {}
        others = 0
        for i, (K, v_ref, deficit, sigma) in enumerate(self.calls):
            n = K.ambient_dim
            klein, ideal = K.klein_vertices(), K.ideal_flags()
            good = v_ref is not None and sigma > 0 and deficit >= -oracles.Z_MAX * sigma
            reference = None
            if n == 4 and all(ideal):
                reference = (oracles.V4 - oracles.exact_volume(klein, ideal), 0.0)
            else:
                others += 1
                if others % self.CROSS_EVERY == 1:
                    # the untraced function, so that these calls stay out of the spans
                    est = _SIMPLEX_VOLUME(K, budget=self.CROSS_BUDGET, seed=i)
                    v_n, v_se = oracles.REGULAR_IDEAL[n]
                    reference = (v_n - est.value, math.hypot(v_se, est.std_error))
            if good and reference is not None:
                expected, se = reference
                z = (deficit - expected / v_ref) / math.hypot(sigma, se / v_ref)
                self.z_scores.append(z)
                good = abs(z) <= oracles.Z_MAX
            ok[n] = ok.get(n, True) and good
        return ok


_SIMPLEX_VOLUME = volume.simplex_volume


# ---------------------------------------------------------------------------
# volumes


class Volumes:
    """Few large Monte Carlo calls: the volume layer without the eps search.

    The family is stratified by dimension and by the number of ideal
    vertices (none, about half, all), three simplices per class, because
    the cost of a call depends on the number of corner strata; the seed
    draws the geometry inside each class and the Monte Carlo streams.
    """

    name = "volumes"
    timing_wraps = ()
    DIMS = (2, 3, 4, 5)
    PER_CLASS = 3
    #: Budget of the plain Monte Carlo reference for all-finite simplices
    #: (relative error about 7e-4).
    PLAIN_MC_SAMPLES = 200_000

    def __init__(self, seed: int):
        self.seed = seed

    @staticmethod
    def ideal_counts(n):
        return (0, (n + 2) // 2, n + 1)

    def setup(self):
        rng = np.random.default_rng([self.seed, 2])
        self.family = []
        for n in self.DIMS:
            for m in self.ideal_counts(n):
                for _ in range(self.PER_CLASS):
                    K = self._draw(n, m, rng)
                    self.family.append((K, n, m, int(rng.integers(0, 2 ** 31))))

    def prepare_checks(self):
        """A reference volume and its standard error per simplex (0 when
        exact), or None where only maximality can be checked."""
        self.references = []
        for i, (K, n, m, _) in enumerate(self.family):
            klein, ideal = K.klein_vertices(), K.ideal_flags()
            exact = oracles.exact_volume(klein, ideal)
            if exact is not None:
                self.references.append((exact, 0.0))
            elif m == 0:
                self.references.append(oracles.plain_mc_volume(
                    klein, self.PLAIN_MC_SAMPLES, [self.seed, 4, i]))
            else:
                self.references.append(None)

    @staticmethod
    def _draw(n, m, rng):
        for _ in range(1000):
            K = simplex.random_nondegenerate_simplex(n, rng, ideal_prob=m / (n + 1))
            if int(K.ideal_flags().sum()) == m:
                return K
        raise RuntimeError(f"no simplex with {m} ideal vertices in dimension {n}")

    def warm_up(self):
        volume.simplex_volume(simplex.regular_ideal_simplex(3), budget=20_000)

    def config(self):
        return {"budget": volume.DEFAULT_BUDGET, "simplices": len(self.family),
                "classes": {n: list(self.ideal_counts(n)) for n in self.DIMS},
                "per_class": self.PER_CLASS, "plain_mc_samples": self.PLAIN_MC_SAMPLES}

    def run_pass(self, tracer) -> PassResult:
        res = PassResult()
        samples = 0
        t_acc = []
        for (K, n, _, mc_seed), ref in zip(self.family, self.references):
            t0 = perf_counter()
            est = volume.simplex_volume(K, seed=mc_seed)
            dt = perf_counter() - t0
            res.seconds += dt
            if ref is not None:
                sigma = math.hypot(est.std_error, ref[1])
                z = (est.value - ref[0]) / sigma if sigma > 0 else math.inf
                ok = abs(z) <= oracles.Z_MAX
                res.z_scores.append(z)
            else:
                ok = oracles.below_regular(n, est.value, est.std_error)
            res.ok.append(ok)
            samples += est.samples
            t_acc.append(dt * (est.std_error / est.value / 1e-4) ** 2)
        res.detail = {"vol_samples_per_s": samples / res.seconds,
                      "vol_t_rse1e-4_s.p50": percentile(t_acc, 50),
                      "vol_t_rse1e-4_s.p90": percentile(t_acc, 90)}
        return res


# ---------------------------------------------------------------------------
# covers


class Covers:
    """All of the work in ``complexes``, none in Monte Carlo.

    Figure-eight cyclic covers come from an integer solution of the
    codimension-2 cycle equations (exponents (a, b, a, b) on pairings
    0-3), not from ``random_cover_spec``, which fails on this complex for
    most seeds at degree 24 and above.
    """

    name = "covers"
    timing_wraps = ()
    TORUS_X = (8, 16, 24)           # degrees 64, 256, 576
    FIG8_DEGREES = (64, 128, 256)
    FIG8_BASIS = ((1, 0, 1, 0), (0, 1, 0, 1))

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        rng = np.random.default_rng([self.seed, 3])
        torus, fig8 = load_fixture("torus"), load_fixture("figure-eight")
        self.covers = [(torus, cx.characteristic_cover_spec(torus, x)) for x in self.TORUS_X]
        equations = cycle_equations(fig8)
        for vec in self.FIG8_BASIS:
            if any(sum(c * e for c, e in zip(eq, vec)) for eq in equations):
                raise RuntimeError(f"{vec} does not solve the figure-eight cycle equations")
        self.exponents = {}
        for d in self.FIG8_DEGREES:
            while True:
                a, b = (int(v) for v in rng.integers(1, d, size=2))
                if math.gcd(math.gcd(a, b), d) == 1:  # a connected cover
                    break
            self.exponents[d] = (a, b)
            exps = [a * u + b * w for u, w in zip(*self.FIG8_BASIS)]
            spec = cx.CoverSpec(d, {i: tuple((s + e) % d for s in range(d))
                                    for i, e in enumerate(exps)})
            self.covers.append((fig8, spec))

    def prepare_checks(self):
        pass

    def warm_up(self):
        torus = load_fixture("torus")
        cover = cx.build_cover(torus, cx.characteristic_cover_spec(torus, 2))
        cx.verify_cycle(cover, cx.fundamental_cycle(cover))
        cx.cell_counts(cover)

    def config(self):
        return {"torus_degrees": [x * x for x in self.TORUS_X],
                "fig8_degrees": list(self.FIG8_DEGREES),
                "fig8_exponents": {d: list(ab) for d, ab in self.exponents.items()}}

    def run_pass(self, tracer) -> PassResult:
        res = PassResult()
        simplices = 0
        for base, spec in self.covers:
            t0 = perf_counter()
            cover = cx.build_cover(base, spec)
            counts = cx.cell_counts(cover)
            z = cx.fundamental_cycle(cover)
            closed = cx.verify_cycle(cover, z)
            res.seconds += perf_counter() - t0
            res.ok.append(closed and is_fundamental_cycle(cover, z)
                          and expected_f_vector(base, spec.degree, counts.f_vector))
            simplices += cover.simplex_count
        res.detail = {"cover_simplices_per_s": simplices / res.seconds}
        return res


def cycle_equations(T) -> list:
    """Signed pairing exponents around each codimension-2 cycle: a cyclic
    cover is unbranched iff every row dotted with its exponents is 0 mod d."""
    rows = []
    for cyc in cx.codim2_cycles(T):
        row = [0] * len(T.pairings)
        for _, _, idx, direction in cyc.steps:
            row[idx] += direction
        rows.append(row)
    return rows


def is_fundamental_cycle(T, z) -> bool:
    """Whether z carries mass 1 on every simplex of T and has no boundary.

    The boundary is computed here from the pairings alone, without
    ``complexes.boundary`` or ``verify_cycle``: each face on side b of a
    pairing is carried to side a through the inverse vertex map, and the
    signed coefficients of every face must cancel.
    """
    scale = math.lcm(*{c.denominator for c in z.terms.values()})
    mass = [0] * T.simplex_count
    to_side_a = {}
    for p in T.pairings:
        facet_a = [v for v in range(T.dim + 1) if v != p.facet_a]
        to_side_a[(p.b, p.facet_b)] = ((p.a, p.facet_a), dict(zip(p.vertex_map, facet_a)))
    faces = {}
    for (s, tau), c in z.terms.items():
        c = int(c * scale)
        mass[s] += abs(c)
        for k, missing in enumerate(tau):
            slot, face = (s, missing), tau[:k] + tau[k + 1:]
            if slot in to_side_a:
                slot, back = to_side_a[slot]
                face = tuple(back[v] for v in face)
            key = (slot, face)
            faces[key] = faces.get(key, 0) + (c if k % 2 == 0 else -c)
    return all(m == scale for m in mass) and not any(faces.values())


#: f-vectors of the base complexes: the torus fixture has 1 vertex, 3
#: edges and 2 triangles; the figure-eight complex has 1 (cone) vertex,
#: 2 edges, 4 triangles and 2 tetrahedra.
BASE_F_VECTORS = {(2, 2): (1, 3, 2), (3, 2): (1, 2, 4, 2)}


def expected_f_vector(base, d: int, f: tuple) -> bool:
    """An unbranched degree-d cover lifts every cell of positive dimension d
    times.  On a closed surface the vertices lift d times too (chi is
    multiplicative); the cone vertex of the figure-eight complex lifts to
    a number of vertices that divides d."""
    base_f = BASE_F_VECTORS[(base.dim, base.simplex_count)]
    if base.dim == 2:
        return tuple(f) == tuple(d * fb for fb in base_f)
    return (all(fc == d * fb for fc, fb in zip(f[1:], base_f[1:]))
            and f[0] >= 1 and d % f[0] == 0)


WORKLOADS = {w.name: w for w in (Constants, Volumes, Covers)}
