r"""Loose triangulations as face-pairing gluing data.

A triangulation here is the combinatorial realization of a space as t
copies of the standard n-simplex glued along their facets by simplicial
bijections; self-pairings between different facets of one simplex are
allowed, every facet is paired at most once, and unpaired facets form
the boundary.  Facets are indexed by their opposite vertex.

Wire format (JSON)::

    { "dim": n, "simplices": t,
      "pairings": [ {"a": [simplex, facet], "b": [simplex, facet],
                     "map": [vertex, ...]}, ... ] }

where ``map`` lists the images of facet a's vertices taken in increasing
order of preimage.

The module computes cell counts and Euler characteristics as connected
components of the induced face identifications, orientations (a pairing
must reverse the boundary orientations of the two facets), vertex links
and edge valences in dimension 3, the alternated fundamental cycle with
exact rational coefficients, and finite covers described by permutation
assignments.  Every routine reads one cached per-slot gluing table,
`Triangulation._gluing`, whose checks are the one check of the gluing
data: `validate` reports their verdict.  The cell counts and the links
are one numpy component labelling, `_components`, over edges gathered
from that table; orientations, the dual spanning tree and the census's
connectedness read one depth-first forest of the dual graph,
`_dual_forest`; the boundary of a chain is one numpy pass over the table
that sums the signed faces exactly as integers over one common
denominator; the walk around the codimension-2 cells, `codim2_cycles`,
crosses each pairing through the table's partner, across and pairing
entries.  A cover assignment is admissible when the ordered product of
permutations around every codimension-2 cycle is the identity (the
unbranched condition); branched assignments are rejected with the
offending cycle.

The covers built here come from `first_homology`: one integer normal
form of the relations that the codim-2 cycles put on the pairings off
the dual spanning tree writes H_1 as a sum of cyclic groups.  A cover
whose sheets form an abelian group A, each such pairing adding its image
under a map H_1 -> A, is unbranched by construction and connected when
the map is onto.  `characteristic_cover_spec` takes A = Z_x x Z_x on a
complex with H_1 = Z^2, `random_cover_spec` a random surjection onto
Z_d; where there is none, the error names H_1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import itemgetter

import numpy as np

from .lattices import diagonal_form


class ComplexError(ValueError):
    """Invalid gluing data or an operation on unsuitable data."""


def facet_vertices(n: int, i: int) -> tuple:
    """Vertices of the facet opposite vertex i, in increasing order."""
    return tuple(v for v in range(n + 1) if v != i)


@dataclass(frozen=True)
class Pairing:
    a: int
    facet_a: int
    b: int
    facet_b: int
    vertex_map: tuple  # images of facet_a's vertices, increasing preimage order


@dataclass(frozen=True)
class Triangulation:
    dim: int
    simplex_count: int
    pairings: tuple
    labels: dict | None = None

    @cached_property
    def _gluing(self) -> tuple:
        """(partner, across, pairing): read-only arrays over slot ids s*(n+1) + f.

        ``partner[slot]`` is the glued slot, or -1 on the boundary.
        ``across[slot]`` sends the vertices of simplex s to those of the
        partner's simplex: the pairing's vertex map (or its inverse from
        side b) extended by facet to facet, and the identity on the
        boundary.  ``pairing[slot]`` is the pairing index, or -1.

        The gluing data is checked in three steps, and the first that
        fails raises `ComplexError` naming every offending slot or
        pairing: slots in range, then no slot used twice or glued to
        itself, then every vertex map a bijection onto facet b.  This is
        the one check of the gluing data; `validate` reports its verdict.
        """
        n, t = self.dim, self.simplex_count
        n1 = n + 1
        slots = t * n1
        partner = np.full(slots, -1, dtype=np.int64)
        across = np.tile(np.arange(n1, dtype=np.int64), (slots, 1))
        pairing = np.full(slots, -1, dtype=np.int64)
        if self.pairings:
            # sides[i, side] is the (simplex, facet) of pairing i on side a or b
            sides = np.array([(p.a, p.facet_a, p.b, p.facet_b) for p in self.pairings],
                             dtype=np.int64).reshape(-1, 2, 2)
            out = (sides < 0).any(axis=2) | (sides[..., 0] >= t) | (sides[..., 1] > n)
            if out.any():
                raise ComplexError("; ".join(
                    f"pairing {i}: slot {tuple(sides[i, side].tolist())} out of range"
                    for i, side in zip(*np.nonzero(out))))
            ends = sides[..., 0] * n1 + sides[..., 1]  # the slot ids
            # every use of a slot after its first, in pairing order
            flat = ends.ravel()
            order = np.argsort(flat, kind="stable")
            ranked = flat[order]
            again = np.sort(order[1:][ranked[1:] == ranked[:-1]])
            if again.size:
                first = order[np.searchsorted(ranked, flat[again])] // 2
                raise ComplexError("; ".join(
                    f"pairing {i}: facet {divmod(slot, n1)} glued to itself" if i == j else
                    f"pairing {i}: slot {divmod(slot, n1)} used by two pairings: already used "
                    f"by pairing {j}"
                    for i, j, slot in zip((again // 2).tolist(), first.tolist(),
                                          flat[again].tolist())))
            slot_a, slot_b = ends.T
            fa, fb = slot_a % n1, slot_b % n1
            maps = [p.vertex_map for p in self.pairings]
            sized = np.array([len(m) == n for m in maps])
            image = np.array([m if ok else (0,) * n for m, ok in zip(maps, sized)],
                             dtype=np.int64).reshape(len(maps), n)
            facets = np.array([facet_vertices(n, f) for f in range(n1)], dtype=np.int64)
            bad = ~sized | (np.sort(image, axis=1) != facets[fb]).any(axis=1)
            if bad.any():
                raise ComplexError("; ".join(
                    f"pairing {i}: vertex map is not a bijection onto facet {fb[i]} of "
                    f"simplex {slot_b[i] // n1}" for i in np.flatnonzero(bad).tolist()))
            partner[slot_a], partner[slot_b] = slot_b, slot_a
            across[slot_a[:, None], facets[fa]] = image
            across[slot_a, fa] = fb
            across[slot_b[:, None], image] = facets[fa]
            across[slot_b, fb] = fa
            pairing[ends.T] = np.arange(len(maps))
        for table in (partner, across, pairing):
            table.flags.writeable = False
        return partner, across, pairing


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    closed: bool
    errors: tuple
    boundary_slots: tuple


def validate(T: Triangulation) -> ValidationReport:
    """The verdict of `Triangulation._gluing`'s checks, after dim >= 1 and
    t >= 1; the boundary slots are the unpaired ones, and none are
    reported for invalid data."""
    if T.dim < 1 or T.simplex_count < 1:
        return ValidationReport(False, False, ("need dim >= 1 and at least one simplex",), ())
    try:
        partner = T._gluing[0]
    except ComplexError as exc:
        return ValidationReport(False, False, (str(exc),), ())
    boundary = tuple(divmod(slot, T.dim + 1) for slot in np.flatnonzero(partner < 0).tolist())
    return ValidationReport(True, not boundary, (), boundary)


def _components(u, v, size: int) -> np.ndarray:
    """The least node of each node's component in the graph on nodes
    0..size-1 with an edge u[i] -- v[i] for every index i of the two
    integer arrays, which have one shape.

    Min-label propagation along the edges both ways, then pointer
    jumping until every label is its own label, repeated until the two
    ends of every edge carry one label.  A label never exceeds its node
    and always lies in the node's component, so the fixed point labels
    each component by its least node.
    """
    lab = np.arange(size)
    while True:
        while not np.array_equal(jumped := lab[lab], lab):
            lab = jumped
        lu, lv = lab[u], lab[v]
        if np.array_equal(lu, lv):
            return lab
        np.minimum.at(lab, lu, lv)
        np.minimum.at(lab, lv, lu)


@dataclass(frozen=True)
class CellCounts:
    f_vector: tuple
    euler: int


def cell_counts(T: Triangulation) -> CellCounts:
    """f-vector and Euler characteristic of the quotient cell structure.

    Cells of dimension d are orbits of (simplex, vertex subset of size
    d+1) under the identifications generated by the facet pairings.  The
    pair is the node ``simplex << (n+1) | mask`` with bit v of the mask
    set for vertex v; each pairing joins every subset of its facet to
    the subset's image under the `_gluing` ``across`` row, and the cells
    are the components of those edges.
    """
    n1, t = T.dim + 1, T.simplex_count
    partner, across, _ = T._gluing
    slot = np.flatnonzero(partner > np.arange(t * n1))  # one side per pairing
    # member[m, v] is bit v of mask m; subsets[f] the nonempty subsets of facet f
    member = np.arange(1 << n1)[:, None] >> np.arange(n1) & 1
    subsets = np.array([[m for m in range(1, 1 << n1) if not m >> f & 1] for f in range(n1)],
                       dtype=np.int64)
    sub = subsets[slot % n1]
    image = (member[sub] << across[slot][:, None, :]).sum(axis=2)
    size = t << n1
    lab = _components(slot[:, None] // n1 << n1 | sub,
                      partner[slot][:, None] // n1 << n1 | image, size)
    # each node labelled by itself stands for one cell, of dimension
    # popcount(mask) - 1; the full masks are the t top cells
    masks = np.flatnonzero(lab == np.arange(size)) & (1 << n1) - 1
    f = tuple(np.bincount(member.sum(axis=1)[masks], minlength=n1 + 1)[1:].tolist())
    return CellCounts(f, sum((-1) ** d * fd for d, fd in enumerate(f)))


def _parity(perms) -> np.ndarray:
    """+1 or -1 per row of an integer array: the sign of the row as a
    permutation, from its inversions over the upper triangle of pairs."""
    perms = np.asarray(perms)
    i, j = np.triu_indices(perms.shape[-1], 1)
    return 1 - 2 * (np.count_nonzero(perms[..., i] > perms[..., j], axis=-1) % 2)


@dataclass(frozen=True)
class OrientabilityResult:
    orientable: bool
    assignment: tuple | None
    violating_cycle: tuple | None


def _dual_forest(T: Triangulation) -> tuple:
    """(via, order): the depth-first forest of the dual graph.

    The walk starts at the least unreached simplex, keeps a stack and
    takes each simplex's facets in order.  ``via[s]`` is the slot through
    which simplex s was reached, or -1 for a root; ``order`` lists the
    simplices in the order the walk takes them off its stack, every
    parent before its children.
    """
    n1, t = T.dim + 1, T.simplex_count
    partner = T._gluing[0].tolist()
    via, order = [None] * t, []
    for start in range(t):
        if via[start] is not None:
            continue
        via[start] = -1
        stack = [start]
        while stack:
            s = stack.pop()
            order.append(s)
            for slot in range(s * n1, s * n1 + n1):
                other = partner[slot] // n1
                if other >= 0 and via[other] is None:
                    via[other] = slot
                    stack.append(other)
    return via, order


def orientability(T: Triangulation) -> OrientabilityResult:
    """Search for simplex orientations making every pairing orientation-reversing.

    The pairing at a slot reverses orientation exactly when the other
    simplex's sign is -sign[s] * sgn(across[slot]), from either side.
    Signs follow `_dual_forest` from +1 at each root; the first slot that
    breaks the rule, in the walk's order, closes the violating cycle
    with the tree paths of its two simplices.
    """
    n1, t = T.dim + 1, T.simplex_count
    partner, across, pairing = T._gluing
    flips = -_parity(across)
    via, order = _dual_forest(T)
    sign, flip = [1] * t, flips.tolist()
    for s in order:
        if via[s] >= 0:
            sign[s] = sign[via[s] // n1] * flip[via[s]]
    signs = np.array(sign)
    # the slots in the walk's order
    walk = (np.array(order, dtype=np.int64)[:, None] * n1 + np.arange(n1)).ravel()
    other = partner[walk]
    conflict = (other >= 0) & (signs[walk // n1] * flips[walk] != signs[other // n1])
    if not conflict.any():
        return OrientabilityResult(True, tuple(sign), None)
    first = int(walk[conflict.argmax()])
    pairing = pairing.tolist()
    cycle = [pairing[first]]
    for node in (first // n1, int(partner[first]) // n1):
        while via[node] >= 0:
            cycle.append(pairing[via[node]])
            node = via[node] // n1
    return OrientabilityResult(False, None, tuple(cycle))


# ---------------------------------------------------------------------------
# vertex links and edge valences (dimension 3)


@dataclass(frozen=True)
class VertexLinkInfo:
    vertex_cells: tuple   # representative (simplex, vertex) slots in the orbit
    faces: int
    edges: int
    corners: int
    euler: int


@dataclass(frozen=True)
class EdgeInfo:
    representative: tuple  # (simplex, frozenset endpoints)
    valence: int


@dataclass(frozen=True)
class LinksReport:
    vertex_links: tuple
    edges: tuple


def links(T: Triangulation) -> LinksReport:
    """Per-vertex link surfaces (as Euler characteristics) and edge valences.

    Dimension 3 only.  The link of a vertex v in a tetrahedron is a
    triangle whose sides lie on the three facets through v; sides are
    glued according to the facet pairings.  Requires a closed complex:
    an unpaired facet leaves link sides unmatched.

    One `_components` call labels four orbit families: the vertices
    (s, v), the link sides (s, v, f) and link corners (s, v, w), each an
    ordered pair of distinct vertices, and the edges (s, {v, w}).  Vertex
    and edge node ids increase with (s, v) and (s, sorted pair), so an
    orbit's label is its least member.
    """
    if T.dim != 3:
        raise ComplexError("links are implemented for 3-dimensional complexes")
    rep = validate(T)
    if not rep.valid:
        raise ComplexError(f"invalid triangulation: {rep.errors}")
    if not rep.closed:
        raise ComplexError(f"links need a closed complex; boundary at {rep.boundary_slots}")
    t = T.simplex_count
    partner, across, _ = T._gluing
    slot = np.flatnonzero(partner > np.arange(4 * t))  # one side per pairing
    a, fa = np.divmod(slot, 4)
    b, fw = partner[slot] // 4, across[slot]
    # the 12 ordered pairs (v, w) of distinct vertices and their images
    # across each pairing: a pair with v on the facet glues a link side
    # when w is the facet's opposite vertex, and a link corner and the
    # edge vw when w is on the facet too
    v, w = np.array([(v, w) for v in range(4) for w in range(4) if v != w]).T
    bv, bw = fw[:, v], fw[:, w]
    on_facet = v != fa[:, None]
    side = on_facet & (w == fa[:, None])
    corner = on_facet & ~side
    ordered = np.zeros((4, 4), dtype=np.int64)
    ordered[v, w] = np.arange(12)
    pairs = list(itertools.combinations(range(4), 2))
    unordered = np.zeros((4, 4), dtype=np.int64)
    for k, (p, q) in enumerate(pairs):
        unordered[p, q] = unordered[q, p] = k
    # (nodes per simplex, node in simplex a, node in simplex b, glued)
    families = ((4, v, bv, side), (12, ordered[v, w], ordered[bv, bw], side),
                (12, ordered[v, w], ordered[bv, bw], corner),
                (6, unordered[v, w], unordered[bv, bw], corner))
    ends_a, ends_b, offsets = [], [], [0]
    for width, node_a, node_b, glued in families:
        ends_a.append((offsets[-1] + a[:, None] * width + node_a)[glued])
        ends_b.append((offsets[-1] + b[:, None] * width + node_b)[glued])
        offsets.append(offsets[-1] + width * t)
    lab = _components(np.concatenate(ends_a), np.concatenate(ends_b), offsets[-1])
    verts, sides, corners, edges = (lab[lo:hi] - lo for lo, hi in zip(offsets, offsets[1:]))

    def roots(labels):
        return np.flatnonzero(labels == np.arange(len(labels)))

    def per_vertex(labels):
        # orbits of ordered pairs per vertex orbit, through each root's v
        s, k = np.divmod(roots(labels), 12)
        return np.bincount(verts[s * 4 + v[k]], minlength=4 * t)

    vertex_roots = roots(verts)
    faces = np.bincount(verts, minlength=4 * t)[vertex_roots]
    e_count = per_vertex(sides)[vertex_roots]
    v_count = per_vertex(corners)[vertex_roots]
    if (3 * faces != 2 * e_count).any():
        raise ComplexError("non-manifold link structure: link sides unmatched")
    # the vertex orbits in order of their least cells, cells in increasing order
    members = np.stack(np.divmod(np.argsort(verts, kind="stable"), 4), axis=1)
    links_out = tuple(
        VertexLinkInfo(tuple(map(tuple, cells.tolist())), f, e, c, c - e + f)
        for cells, f, e, c in zip(np.split(members, np.cumsum(faces)[:-1]), faces.tolist(),
                                  e_count.tolist(), v_count.tolist()))
    edge_roots = roots(edges)
    valence = np.bincount(edges, minlength=6 * t)[edge_roots]
    s, k = np.divmod(edge_roots, 6)
    edge_infos = tuple(EdgeInfo((s, frozenset(pairs[k])), val)
                       for s, k, val in zip(s.tolist(), k.tolist(), valence.tolist()))
    return LinksReport(links_out, edge_infos)


# ---------------------------------------------------------------------------
# the alternated fundamental cycle


@dataclass
class Chain:
    """Formal rational combination of labeled affine simplices.

    Keys are (simplex id, vertex ordering); no zero coefficients are
    stored.
    """

    terms: dict = field(default_factory=dict)

    def add(self, key, coeff: Fraction):
        new = self.terms.get(key, Fraction(0)) + coeff
        if new == 0:
            self.terms.pop(key, None)
        else:
            self.terms[key] = new

    def l1(self) -> Fraction:
        """Sum of |coefficients|, added as integers over one common denominator."""
        nums, scale = _scaled_numerators(self.terms.values())
        return Fraction(sum(map(abs, nums)), scale)


def fundamental_cycle(T: Triangulation) -> Chain:
    """z = sum_i alt(s_i) over orientation-consistent parameterizations.

    alt averages a simplex over all vertex orderings with alternating
    signs and coefficient 1/(n+1)!; the total L1 size is the number of
    simplices.
    """
    n = T.dim
    orient = orientability(T)
    if not orient.orientable:
        raise ComplexError("fundamental cycle needs an oriented complex")
    fact = math.factorial(n + 1)
    coeff = {+1: Fraction(1, fact), -1: Fraction(-1, fact)}
    taus = list(itertools.permutations(range(n + 1)))
    orderings = list(zip(taus, _parity(taus).tolist()))
    alt = {eps: [(tau, coeff[eps * sign]) for tau, sign in orderings] for eps in (+1, -1)}
    terms = {}
    for s, eps in enumerate(orient.assignment):
        for tau, c in alt[eps]:
            terms[s, tau] = c
    return Chain(terms)


def _scaled_numerators(coeffs) -> tuple:
    """(integer numerators, scale): every coefficient as an integer over
    the lcm of the denominators (an int counts as denominator 1)."""
    scale = math.lcm(*{c.denominator for c in coeffs})
    return [c.numerator * (scale // c.denominator) for c in coeffs], scale


def boundary(T: Triangulation, z: Chain) -> Chain:
    """The boundary of a chain, reduced modulo the facet identifications.

    Each facet cell picks the lexicographically smaller of its two slots
    as canonical; boundary faces on the other side are transported
    through the vertex map before coefficients are summed.  The sums are
    exact integer arithmetic: every coefficient is scaled to an integer
    over the lcm of the chain's denominators, and the (term, face)
    pairs are summed per facet cell and face in one numpy pass over
    `Triangulation._gluing`: in the smallest signed integer type that
    holds every partial sum, and in Python ints beyond int64.
    """
    if not z.terms:
        return Chain()
    n1 = T.dim + 1
    partner, across, _ = T._gluing
    slots = T.simplex_count * n1
    # a facet cell's id is its smaller slot id, or slots + slot for an
    # unpaired slot; the canonical side maps by the identity, the other
    # side by `across` (which is the identity on the boundary too)
    ids = np.arange(slots)
    cell = np.where(partner < 0, slots + ids, np.minimum(ids, partner))
    vmap = np.where((partner < ids)[:, None], across, np.arange(n1))
    face_codes = n1 ** (n1 - 1)  # a face is n digits in base n1
    if 2 * slots * face_codes >= 2 ** 63:
        raise ComplexError("too many (facet cell, face) pairs for 64-bit codes")
    m = len(z.terms)
    try:
        if set(map(len, map(itemgetter(1), z.terms))) != {n1}:
            raise ValueError
        simplex = np.fromiter(map(itemgetter(0), z.terms), np.int64, m)
        # the code bound above keeps n1 below 16, so vertices fit in int8
        tau = np.fromiter(itertools.chain.from_iterable(map(itemgetter(1), z.terms)),
                          np.int8, m * n1).reshape(m, n1)
    except (TypeError, ValueError, OverflowError):
        raise ComplexError(f"chain terms must be (simplex, ordering of {n1} vertices)") from None
    if min(simplex.min(), tau.min()) < 0 or simplex.max() * n1 >= slots or tau.max() >= n1:
        raise ComplexError("chain term simplex or vertex out of range")
    nums, scale = _scaled_numerators(z.terms.values())
    # no partial sum exceeds the sum of |values| over all (term, face) pairs;
    # values take the smallest signed type that holds it, or Python ints
    bound = n1 * sum(map(abs, nums))
    values = np.empty((n1, m), dtype=np.min_scalar_type(-bound - 1) if bound < 2 ** 63 else object)
    values[0::2] = nums
    values[1::2] = -values[0]  # face k carries the sign (-1)^k
    # (facet cell, face) as the code cell * n1^n + face in the smallest
    # unsigned type that holds it, one face index at a time
    codes = np.empty((n1, m), dtype=np.min_scalar_type(2 * slots * face_codes))
    for k in range(n1):
        slot = simplex * n1 + tau[:, k]
        code = cell[slot]
        for j in range(n1):
            if j != k:
                code = code * n1 + vmap[slot, tau[:, j]]
        codes[k] = code
    del simplex, tau, slot, code  # freed before the sort's copies: peak memory
    order = np.argsort(codes, axis=None)
    codes = codes.ravel()[order]
    values = values.ravel()[order]
    del order
    starts = np.flatnonzero(np.concatenate(([True], codes[1:] != codes[:-1])))
    sums = np.add.reduceat(values, starts)
    live = np.flatnonzero(sums)
    cells, faces = np.divmod(codes[starts[live]], face_codes)
    digits = faces[:, None] // n1 ** np.arange(n1 - 2, -1, -1, dtype=np.int64) % n1
    terms = {}
    for c, face, total in zip(cells.tolist(), digits.tolist(), sums[live].tolist()):
        key = divmod(c, n1) if c < slots else ("bd", *divmod(c - slots, n1))
        terms[key, tuple(face)] = Fraction(total, scale)
    return Chain(terms)


def verify_cycle(T: Triangulation, z: Chain) -> bool:
    """True iff the boundary of z vanishes identically (exact arithmetic)."""
    return not boundary(T, z).terms


# ---------------------------------------------------------------------------
# covers from permutation assignments


@dataclass(frozen=True)
class CoverSpec:
    """Degree-d cover data: one permutation of {1..d} per pairing.

    ``perms[i]`` is the one-line permutation assigned to pairing i,
    stored 0-indexed internally; crossing the pairing from side a to
    side b sends sheet s to perms[i][s].
    """

    degree: int
    perms: dict

    def __post_init__(self):
        for idx, perm in self.perms.items():
            if sorted(perm) != list(range(self.degree)):
                raise ComplexError(f"assignment for pairing {idx} is not a permutation "
                                   f"of 0..{self.degree - 1}")


@dataclass(frozen=True)
class Codim2Cycle:
    """A closed walk around a codimension-2 cell: (simplex, exit facet,
    pairing index, direction) steps."""

    steps: tuple

    def describe(self) -> str:
        inner = " -> ".join(f"(simplex {s}, facet {f}, pairing {i}{'+' if d > 0 else '-'})"
                            for s, f, i, d in self.steps)
        return f"[{inner}]"


def codim2_cycles(T: Triangulation) -> list:
    """All closed walks around codimension-2 cells of a closed complex.

    A walk's state is (simplex, exit facet, kept vertex): the cell is the
    face without those two vertices, and the `_gluing` ``across`` row of
    the exit slot carries the kept vertex to the next exit facet.  A step
    crosses its pairing in direction +1 from side a and -1 from side b.
    """
    n1 = T.dim + 1
    partner, across, pairing = (table.tolist() for table in T._gluing)
    side_a = {p.a * n1 + p.facet_a for p in T.pairings}
    seen = set()
    cycles = []
    for s in range(T.simplex_count):
        for pair in itertools.combinations(range(n1), 2):
            for exit_facet, kept in (pair, pair[::-1]):
                state0 = (s, exit_facet, kept)
                if state0 in seen:
                    continue
                steps = []
                state = state0
                closed_walk = True
                while True:
                    cs, cexit, ckept = state
                    seen.add(state)
                    slot = cs * n1 + cexit
                    if partner[slot] < 0:
                        closed_walk = False
                        break
                    other, entry = divmod(partner[slot], n1)
                    nxt = across[slot][ckept]
                    steps.append((cs, cexit, pairing[slot], 1 if slot in side_a else -1))
                    # mark the opposite-direction state so each geometric
                    # cell yields one walk, not a forward/backward pair
                    seen.add((other, entry, nxt))
                    state = (other, nxt, entry)
                    if state == state0:
                        break
                    if state in seen:
                        closed_walk = False
                        break
                if closed_walk and steps:
                    cycles.append(Codim2Cycle(tuple(steps)))
    return cycles


def check_cover_spec(T: Triangulation, spec: CoverSpec) -> list:
    """Codim-2 cycles with nontrivial holonomy (branched locus); empty if
    the assignment is an honest unbranched cover.  A step gathers the
    sheets through its pairing's permutation, or backwards through the
    inverse, which is taken once per pairing."""
    missing = [i for i in range(len(T.pairings)) if i not in spec.perms]
    if missing:
        raise ComplexError(f"no permutation assigned to pairings {missing}")
    forward = np.array([spec.perms[i] for i in range(len(T.pairings))],
                       dtype=np.int64).reshape(len(T.pairings), spec.degree)
    step = {1: forward, -1: np.argsort(forward, axis=1)}
    identity = np.arange(spec.degree)
    bad = []
    for cyc in codim2_cycles(T):
        sheets = identity
        for _, _, idx, direction in cyc.steps:
            sheets = step[direction][idx, sheets]
        if not np.array_equal(sheets, identity):
            bad.append(cyc)
    return bad


def build_cover(T: Triangulation, spec: CoverSpec) -> Triangulation:
    """The degree-d cover with d * t simplices defined by the assignment.

    Simplex i*d + s is sheet s over simplex i of the base; a named base
    names the cover.  Raises `ComplexError` naming a codim-2 cycle when
    the assignment is branched.
    """
    bad = check_cover_spec(T, spec)
    if bad:
        raise ComplexError("branched assignment: nontrivial holonomy around "
                           f"codimension-2 cycle {bad[0].describe()}")
    d = spec.degree
    pairings = []
    for idx, p in enumerate(T.pairings):
        perm = spec.perms[idx]
        for s in range(d):
            pairings.append(Pairing(p.a * d + s, p.facet_a,
                                    p.b * d + perm[s], p.facet_b, p.vertex_map))
    labels = None
    if T.labels and "name" in T.labels:
        labels = {"name": f"{T.labels['name']}-cover-deg{d}"}
    return Triangulation(T.dim, T.simplex_count * d, tuple(pairings), labels)


def trivial_cover_spec(T: Triangulation, degree: int = 1) -> CoverSpec:
    return CoverSpec(degree, {i: tuple(range(degree)) for i in range(len(T.pairings))})


def _dual_spanning_tree(T: Triangulation) -> tuple:
    """(set of tree pairing indices, list of non-tree pairing indices) of
    the `_dual_forest` tree; raises `ComplexError` unless it has one root."""
    via, _ = _dual_forest(T)
    if via.count(-1) != 1:
        raise ComplexError("disconnected complex")
    tree = {int(T._gluing[2][slot]) for slot in via if slot >= 0}
    return tree, [i for i in range(len(T.pairings)) if i not in tree]


def first_homology(T: Triangulation) -> tuple:
    """(gens, e, V): H_1 = the sum of the Z/e_j (Z where e_j = 0) of the
    complex minus its faces of codimension 3 and more, the space that
    covers from pairing permutations cover.

    The `_dual_spanning_tree` pairings fix the gauge; the other pairings,
    ``gens``, generate H_1, and every codim-2 cycle relates them by its
    signed exposure to each.  `lattices.diagonal_form` diagonalises those
    relations: generator ``gens[i]`` is the element with coordinates
    ``V[i]``.  Raises `ComplexError` on a disconnected complex.
    """
    _, gens = _dual_spanning_tree(T)
    column = {g: k for k, g in enumerate(gens)}
    relations = []
    for cyc in codim2_cycles(T):
        row = [0] * len(gens)
        for _, _, idx, direction in cyc.steps:
            if idx in column:
                row[column[idx]] += direction
        relations.append(row)
    return (gens, *diagonal_form(relations, len(gens)))


def _homology_name(e) -> str:
    """The group sum of the Z/e_j as text: "Z/2 + Z", or "0"."""
    return " + ".join([f"Z/{ej}" for ej in sorted(e) if ej > 1] + ["Z"] * e.count(0)) or "0"


def _shift_spec(T: Triangulation, gens, shifts, moduli) -> CoverSpec:
    """The cover whose sheets are the mixed-radix numbers over ``moduli``
    (the first digit most significant): pairing ``gens[i]`` adds the
    digits ``shifts[i]`` modulo ``moduli``, and every other pairing
    keeps the sheet."""
    degree = math.prod(moduli)
    digits = np.indices(moduli).reshape(len(moduli), -1)
    radix = np.array(moduli)[:, None]
    perms = {i: tuple(range(degree)) for i in range(len(T.pairings))}
    for g, shift in zip(gens, shifts):
        # reduce first: the shifts are Python ints of any size
        step = np.array([s % m for s, m in zip(shift, moduli)])[:, None]
        perms[g] = tuple(np.ravel_multi_index(tuple((digits + step) % radix), moduli).tolist())
    return CoverSpec(degree, perms)


def characteristic_cover_spec(T: Triangulation, x: int) -> CoverSpec:
    """The degree x^2 cover of a complex with H_1 = Z^2 induced by the
    subgroup x(Z x Z).

    The sheets are Z_x x Z_x, and each generator of `first_homology`
    translates them by its two free coordinates.  Because x(Z x Z) is
    characteristic, the choice of free basis does not matter.
    """
    if x < 1:
        raise ComplexError("need x >= 1")
    gens, e, V = first_homology(T)
    if sorted(ej for ej in e if ej != 1) != [0, 0]:
        raise ComplexError(f"characteristic covers need H_1 = Z^2, not H_1 = {_homology_name(e)}")
    free = [j for j, ej in enumerate(e) if ej == 0]
    return _shift_spec(T, gens, [[row[j] for j in free] for row in V], (x, x))


def random_cover_spec(T: Triangulation, degree: int, rng) -> CoverSpec:
    """A random connected cyclic cover of the given degree.

    A connected cyclic cover is a surjection H_1 -> Z_d.  It sends the
    summand Z/e_j of `first_homology` into the subgroup of order
    gcd(e_j, d), so z_j is drawn there, and the draw is repeated until
    the z_j generate Z_d; generator i then shifts the sheets by V[i] . z.
    Raises `ComplexError`, naming H_1, when no such surjection exists.
    """
    if degree < 1:
        raise ComplexError("need degree >= 1")
    gens, e, V = first_homology(T)
    orders = [math.gcd(ej, degree) for ej in e]
    if math.lcm(*orders) != degree:
        raise ComplexError(f"no connected cyclic cover of degree {degree}: "
                           f"H_1 = {_homology_name(e)}")
    while True:
        z = [degree // g * int(rng.integers(0, g)) for g in orders]
        if math.gcd(degree, *z) == 1:
            break
    return _shift_spec(T, gens, [[sum(v * zj for v, zj in zip(row, z))] for row in V],
                       (degree,))


# ---------------------------------------------------------------------------
# wire format


def to_wire(T: Triangulation) -> dict:
    return {
        "dim": T.dim,
        "simplices": T.simplex_count,
        "pairings": [
            {"a": [p.a, p.facet_a], "b": [p.b, p.facet_b], "map": list(p.vertex_map)}
            for p in T.pairings
        ],
    }


def _wire_int(value) -> int:
    """A wire-format integer: a JSON float or bool is not one."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def from_wire(data: dict, name: str | None = None) -> Triangulation:
    try:
        dim = _wire_int(data["dim"])
        count = _wire_int(data["simplices"])
        pairings = tuple(
            Pairing(_wire_int(rec["a"][0]), _wire_int(rec["a"][1]),
                    _wire_int(rec["b"][0]), _wire_int(rec["b"][1]),
                    tuple(map(_wire_int, rec["map"])))
            for rec in data["pairings"]
        )
    except (KeyError, TypeError, IndexError) as exc:
        raise ComplexError(f"malformed triangulation data: {exc}") from exc
    labels = {"name": name} if name else None
    T = Triangulation(dim, count, pairings, labels)
    report = validate(T)
    if not report.valid:
        raise ComplexError(f"invalid triangulation: {'; '.join(report.errors)}")
    return T


def cover_spec_to_wire(spec: CoverSpec) -> dict:
    return {"degree": spec.degree,
            "perms": {str(i): [v + 1 for v in perm] for i, perm in spec.perms.items()}}


def cover_spec_from_wire(data: dict) -> CoverSpec:
    """Parse {"degree": d, "perms": {pairing-id: one-line permutation of 1..d}}."""
    try:
        d = _wire_int(data["degree"])
        perms = {int(k): tuple(_wire_int(v) - 1 for v in perm)
                 for k, perm in data["perms"].items()}
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ComplexError(f"malformed cover spec: {exc}") from exc
    return CoverSpec(d, perms)


# ---------------------------------------------------------------------------
# instance-level inequality dashboard


@dataclass(frozen=True)
class DashboardReport:
    name: str
    dim: int
    simplices: int
    f_vector: tuple
    euler: int
    euler_bound: int          # 2^{n+1} t
    euler_bound_ok: bool
    orientable: bool
    cycle_l1: Fraction | None
    cycle_ok: bool | None
    annotations: tuple


#: Known constants for the built-in complexes, quoted in the dashboard.
KNOWN_ANNOTATIONS = {
    "sphere": ("sigma(S^2) = 2: this 2-simplex triangulation is minimal",),
    "torus": ("||T^2|| = 0 and sigma_inf(T^2) = 0: covers beat any fixed triangulation",),
    "figure-eight": (
        "vol(N) = 2 v_3 ~ 2.029883 and ||N|| = 2 for the figure-eight complement",
        "c(N) = 2: two ideal regular tetrahedra realize the complexity",
    ),
    "boundary-4-simplex": ("chi(S^3) = 0; five tetrahedra triangulate S^3",),
}


def inequality_dashboard(T: Triangulation) -> DashboardReport:
    """Checkable sides of the volume/complexity inequalities on one instance.

    The simplex count t is an upper bound for the Delta-complexity, the
    Euler characteristic obeys |chi| <= 2^{n+1} t, and the alternated
    fundamental cycle has L1 size at most t (computed exactly when the
    complex is closed and oriented).
    """
    counts = cell_counts(T)
    orient = orientability(T)
    rep = validate(T)
    n, t = T.dim, T.simplex_count
    cycle_l1 = cycle_ok = None
    if orient.orientable and rep.closed:
        z = fundamental_cycle(T)
        cycle_l1 = z.l1()
        cycle_ok = verify_cycle(T, z)
    name = (T.labels or {}).get("name", "unnamed")
    base = name.split("-cover-")[0]
    return DashboardReport(
        name=name,
        dim=n,
        simplices=t,
        f_vector=counts.f_vector,
        euler=counts.euler,
        euler_bound=2 ** (n + 1) * t,
        euler_bound_ok=abs(counts.euler) <= 2 ** (n + 1) * t,
        orientable=orient.orientable,
        cycle_l1=cycle_l1,
        cycle_ok=cycle_ok,
        annotations=KNOWN_ANNOTATIONS.get(base, ()),
    )
