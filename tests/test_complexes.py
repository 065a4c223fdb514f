import itertools
import math
import re
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypstab import bounds
from hypstab import lattices as lat
from hypstab.complexes import (
    CellCounts,
    Chain,
    ComplexError,
    CoverSpec,
    EdgeInfo,
    LinksReport,
    OrientabilityResult,
    Pairing,
    facet_vertices,
    first_homology,
    Triangulation,
    boundary,
    build_cover,
    cell_counts,
    characteristic_cover_spec,
    check_cover_spec,
    codim2_cycles,
    cover_spec_from_wire,
    cover_spec_to_wire,
    from_wire,
    fundamental_cycle,
    inequality_dashboard,
    links,
    orientability,
    random_cover_spec,
    to_wire,
    trivial_cover_spec,
    validate,
    verify_cycle,
    VertexLinkInfo,
)
from hypstab.complexes import (_components, _dual_spanning_tree, _homology_name, _parity,
                               _scaled_numerators)
from hypstab.fixtures import fixture_names, load_fixture


# ---------------------------------------------------------------------------
# validation


def test_fixtures_validate():
    expected = {
        "sphere": ((3, 3, 2), 2, True),
        "torus": ((1, 3, 2), 0, True),
        "klein": ((1, 3, 2), 0, False),
        "boundary-4-simplex": ((5, 10, 10, 5), 0, True),
        "figure-eight": ((1, 2, 4, 2), 1, True),
    }
    for name in fixture_names():
        T = load_fixture(name)
        rep = validate(T)
        assert rep.valid and rep.closed, name
        counts = cell_counts(T)
        f, chi, orient = expected[name]
        assert counts.f_vector == f, name
        assert counts.euler == chi, name
        assert orientability(T).orientable == orient, name


def test_validate_reports_duplicate_slot():
    T = Triangulation(2, 2, (
        Pairing(0, 0, 1, 0, (1, 2)),
        Pairing(0, 0, 1, 1, (0, 2)),
    ))
    rep = validate(T)
    assert not rep.valid
    assert any("already used" in e for e in rep.errors)


def test_validate_reports_self_gluing_and_bad_map():
    rep = validate(Triangulation(2, 1, (Pairing(0, 0, 0, 0, (1, 2)),)))
    assert any("glued to itself" in e for e in rep.errors)
    rep = validate(Triangulation(2, 2, (Pairing(0, 0, 1, 0, (0, 2)),)))
    assert any("not a bijection" in e for e in rep.errors)


#: a slot used by two pairings, a facet glued to itself, and a vertex map
#: onto the wrong facet (pairing 0 sends facet 0 of simplex 0 onto {0, 2},
#: which is facet 1 of simplex 1, not facet 0)
MALFORMED = {
    "doubled": Triangulation(2, 2, (Pairing(0, 0, 1, 0, (1, 2)), Pairing(0, 0, 1, 1, (0, 2)))),
    "self-glued": Triangulation(2, 1, (Pairing(0, 0, 0, 0, (1, 2)),)),
    "not a bijection": Triangulation(2, 2, (Pairing(0, 0, 1, 0, (0, 2)),
                                            Pairing(0, 1, 1, 1, (0, 2)),
                                            Pairing(0, 2, 1, 2, (0, 1)))),
}


@pytest.mark.parametrize("routine", [
    cell_counts,
    orientability,
    lambda T: boundary(T, Chain({(0, (0, 1, 2)): F(1)})),
    codim2_cycles,
    _dual_spanning_tree,
], ids=["cell_counts", "orientability", "boundary", "codim2_cycles", "dual_spanning_tree"])
@pytest.mark.parametrize("kind", sorted(MALFORMED))
def test_every_routine_rejects_malformed_gluing(routine, kind):
    T = MALFORMED[kind]
    assert not validate(T).valid
    with pytest.raises(ComplexError):
        routine(T)


def test_validate_names_every_doubled_slot():
    # slots (0, 0) and (1, 2) are each used by two pairings
    T = Triangulation(2, 3, (Pairing(0, 0, 1, 0, (1, 2)), Pairing(0, 0, 2, 0, (1, 2)),
                             Pairing(1, 2, 2, 1, (0, 2)), Pairing(2, 2, 1, 2, (0, 1))))
    rep = validate(T)
    assert not rep.valid and not rep.closed and rep.boundary_slots == ()
    (error,) = rep.errors
    assert "pairing 1: slot (0, 0) used by two pairings: already used by pairing 0" in error
    assert "pairing 3: slot (1, 2) used by two pairings: already used by pairing 2" in error


def test_validate_reports_the_first_failing_check():
    # a slot out of range hides the doubled slot and the bad map after it
    T = Triangulation(2, 2, (Pairing(0, 0, 1, 0, (0, 2)), Pairing(0, 0, 1, 1, (0, 2)),
                             Pairing(0, 1, 2, 1, (0, 2))))
    assert validate(T).errors == ("pairing 2: slot (2, 1) out of range",)
    T = Triangulation(2, 2, T.pairings[:2])
    assert validate(T).errors == ("pairing 1: slot (0, 0) used by two pairings: already used "
                                  "by pairing 0",)
    T = Triangulation(2, 2, (T.pairings[0], Pairing(0, 1, 1, 1, (0, 1, 2))))
    assert validate(T).errors == ("pairing 0: vertex map is not a bijection onto facet 0 of "
                                  "simplex 1; pairing 1: vertex map is not a bijection onto "
                                  "facet 1 of simplex 1",)
    assert validate(Triangulation(2, 1, (Pairing(0, 2, 0, 2, (0, 1)),))).errors \
        == ("pairing 0: facet (0, 2) glued to itself",)
    for T in (Triangulation(0, 1, ()), Triangulation(9, 1, ()), Triangulation(2, 0, ())):
        assert validate(T).errors == ("need 1 <= dim <= 8 and at least one simplex",)


def test_boundary_slots_reported():
    T = Triangulation(2, 2, (Pairing(0, 0, 1, 0, (1, 2)),))
    rep = validate(T)
    assert rep.valid and not rep.closed
    assert len(rep.boundary_slots) == 4


# ---------------------------------------------------------------------------
# links


def test_figure_eight_links():
    T = load_fixture("figure-eight")
    rep = links(T)
    assert len(rep.vertex_links) == 1
    v = rep.vertex_links[0]
    assert v.euler == 0 and v.faces == 8  # torus link
    assert sorted(e.valence for e in rep.edges) == [6, 6]


def test_s3_links():
    rep = links(load_fixture("s3"))
    assert [v.euler for v in rep.vertex_links] == [2] * 5
    assert all(e.valence == 3 for e in rep.edges)


def reference_links(T):
    """Vertex links and edge valences from a dict union-find over tuple
    keys, one pairing at a time."""
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for p in T.pairings:
        fw = reference_vertex_map(T, p)
        for v in fw:
            union(("vertex", p.a, v), ("vertex", p.b, fw[v]))
            union(("side", p.a, v, p.facet_a), ("side", p.b, fw[v], p.facet_b))
        for v, w in itertools.permutations(fw, 2):
            union(("corner", p.a, v, w), ("corner", p.b, fw[v], fw[w]))
            union(("edge", p.a, frozenset((v, w))), ("edge", p.b, frozenset((fw[v], fw[w]))))
    by_vertex = {}
    for s in range(T.simplex_count):
        for v in range(4):
            by_vertex.setdefault(find(("vertex", s, v)), []).append((s, v))
    vertex_links = []
    for cells in sorted(by_vertex.values(), key=min):
        sides = {find(("side", s, v, f)) for s, v in cells for f in range(4) if f != v}
        corners = {find(("corner", s, v, w)) for s, v in cells for w in range(4) if w != v}
        vertex_links.append(VertexLinkInfo(tuple(sorted(cells)), len(cells), len(sides),
                                           len(corners), len(corners) - len(sides) + len(cells)))
    by_edge = {}
    for s in range(T.simplex_count):
        for pair in itertools.combinations(range(4), 2):
            by_edge.setdefault(find(("edge", s, frozenset(pair))), []).append((s, pair))
    edges = sorted((min(slots), len(slots)) for slots in by_edge.values())
    return LinksReport(tuple(vertex_links),
                       tuple(EdgeInfo((s, frozenset(pair)), valence)
                             for (s, pair), valence in edges))


def random_closed_3_complex(rng, t):
    """t tetrahedra with their 4t facets paired at random, each by a random
    bijection: self-pairings and folded edges are common."""
    pairings = []
    for x, y in rng.permutation(4 * t).reshape(-1, 2).tolist():
        (a, fa), (b, fb) = divmod(x, 4), divmod(y, 4)
        image = tuple(rng.permutation(facet_vertices(3, fb)).tolist())
        pairings.append(Pairing(a, fa, b, fb, image))
    return Triangulation(3, t, tuple(pairings))


def test_links_match_union_find_reference():
    fig8, s3 = load_fixture("figure-eight"), load_fixture("s3")
    rng = np.random.default_rng(24)
    # S^3 is simply connected: its only unbranched covers are trivial
    complexes = [fig8, s3] + [build_cover(s3, trivial_cover_spec(s3, d)) for d in (2, 3)]
    for d in range(1, 25):
        a, b = (int(v) for v in rng.integers(0, d, size=2))
        complexes.append(build_cover(fig8, figure_eight_cyclic_spec(fig8, d, a, b)))
    complexes += [random_closed_3_complex(rng, t) for t in rng.integers(1, 6, size=400).tolist()]
    several = self_paired = folded = 0
    for T in complexes:
        rep = links(T)
        assert rep == reference_links(T)
        several += len(rep.vertex_links) > 1
        self_paired += any(p.a == p.b for p in T.pairings)
        # a folded edge has one corner orbit for both its ends
        folded += sum(v.corners for v in rep.vertex_links) < 2 * len(rep.edges)
    assert several  # some complexes have more than one vertex orbit
    assert self_paired and folded


def test_links_reject_bad_input():
    with pytest.raises(ComplexError):
        links(load_fixture("torus"))  # wrong dimension
    bounded = Triangulation(3, 2, (Pairing(0, 0, 1, 0, (1, 2, 3)),))
    with pytest.raises(ComplexError):
        links(bounded)


# ---------------------------------------------------------------------------
# fundamental cycles


def test_cycles_on_fixtures():
    for name in fixture_names():
        T = load_fixture(name)
        if not orientability(T).orientable:
            with pytest.raises(ComplexError):
                fundamental_cycle(T)
            continue
        z = fundamental_cycle(T)
        assert verify_cycle(T, z), name
        assert z.l1() == F(T.simplex_count), name
        assert all(c != 0 for c in z.terms.values())


def test_unpaired_facet_breaks_cycle():
    T = unpaired_complex()
    z = fundamental_cycle(T)
    assert not verify_cycle(T, z)
    bd = boundary(T, z)
    assert bd.terms  # boundary survives on the unpaired facets


def test_chain_drops_zero_coefficients():
    c = Chain()
    c.add(("x", (0, 1)), F(1, 2))
    c.add(("x", (0, 1)), F(-1, 2))
    assert not c.terms


# ---------------------------------------------------------------------------
# integer boundary and bitmask cell counts against Fraction and frozenset
# references


def reference_vertex_map(T, p):
    """Pairing p's vertex map as a dict on facet a's vertices."""
    return dict(zip(facet_vertices(T.dim, p.facet_a), p.vertex_map))


def reference_neighbor(T, s, f):
    """Across slot (s, f), read straight from the pairings: (other simplex,
    other facet, vertex map dict on the facet, pairing index, direction)."""
    for idx, p in enumerate(T.pairings):
        fw = reference_vertex_map(T, p)
        if (p.a, p.facet_a) == (s, f):
            return p.b, p.facet_b, fw, idx, +1
        if (p.b, p.facet_b) == (s, f):
            return p.a, p.facet_a, {w: v for v, w in fw.items()}, idx, -1
    return None


def reference_boundary(T, z):
    """The boundary summed one Fraction at a time through Chain.add."""
    slots = {}
    out = Chain()
    for (s, tau), coeff in z.terms.items():
        for k in range(len(tau)):
            face = tau[:k] + tau[k + 1:]
            missing = tau[k]
            if (s, missing) not in slots:
                slots[s, missing] = reference_neighbor(T, s, missing)
            nb = slots[s, missing]
            if nb is None:
                key = (("bd", s, missing), face)
            else:
                other, other_facet, vmap, _, _ = nb
                if (other, other_facet) < (s, missing):
                    key = ((other, other_facet), tuple(vmap[v] for v in face))
                else:
                    key = ((s, missing), face)
            out.add(key, coeff * (-1) ** k)
    return out


def reference_cell_counts(T):
    """Cells as orbits of (simplex, frozenset of vertices) keys."""
    n, t = T.dim, T.simplex_count
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            x = parent[x]
        return x

    for p in T.pairings:
        fw = reference_vertex_map(T, p)
        for size in range(1, n + 1):
            for sub in itertools.combinations(fw, size):
                ra = find((p.a, frozenset(sub)))
                rb = find((p.b, frozenset(fw[v] for v in sub)))
                if ra != rb:
                    parent[ra] = rb
    f = [len({find((s, frozenset(sub))) for s in range(t)
              for sub in itertools.combinations(range(n + 1), d + 1)})
         for d in range(n)] + [t]
    return CellCounts(tuple(f), sum((-1) ** d * fd for d, fd in enumerate(f)))


def reference_fundamental_cycle(T):
    fact = math.factorial(T.dim + 1)
    z = Chain()
    for s, eps in enumerate(orientability(T).assignment):
        for tau in itertools.permutations(range(T.dim + 1)):
            inversions = sum(a > b for a, b in itertools.combinations(tau, 2))
            z.add((s, tau), F(eps * (-1) ** inversions, fact))
    return z


def random_chain(T, rng, size):
    """Random vertex orderings with mixed-denominator Fraction and int
    coefficients."""
    perms = list(itertools.permutations(range(T.dim + 1)))
    terms = {}
    for _ in range(size):
        key = (int(rng.integers(T.simplex_count)), perms[int(rng.integers(len(perms)))])
        num = int(rng.integers(-7, 8)) or 1
        terms[key] = num if rng.random() < 0.3 else F(num, int(rng.integers(1, 13)))
    return Chain(terms)


def figure_eight_cyclic_spec(T, d, a, b):
    """The cyclic cover with exponents (a, b, a, b) on pairings 0-3."""
    return CoverSpec(d, {i: tuple((s + e) % d for s in range(d))
                         for i, e in enumerate((a, b, a, b))})


def assert_matches_references(T, rng, chains=2):
    assert cell_counts(T) == reference_cell_counts(T)
    zs = [random_chain(T, rng, int(rng.integers(1, 6 * T.simplex_count + 2)))
          for _ in range(chains)]
    if orientability(T).orientable:
        z = fundamental_cycle(T)
        ref = reference_fundamental_cycle(T)
        assert list(z.terms) == list(ref.terms) and z.terms == ref.terms
        # a cycle plus a perturbation cancels on most but not all faces
        zs += [z, Chain({**z.terms, **zs[0].terms})]
    for z in zs:
        got = boundary(T, z)
        assert got.terms == reference_boundary(T, z).terms
        assert all(type(c) is F for c in got.terms.values())


def test_references_on_fixtures_and_unpaired_facets():
    rng = np.random.default_rng(20)
    for name in fixture_names():
        assert_matches_references(load_fixture(name), rng, chains=6)
    unpaired = unpaired_complex()
    assert_matches_references(unpaired, rng, chains=6)
    assert reference_boundary(unpaired, fundamental_cycle(unpaired)).terms


def test_references_on_torus_characteristic_covers():
    T = load_fixture("torus")
    rng = np.random.default_rng(21)
    for x in range(2, 7):
        assert_matches_references(build_cover(T, characteristic_cover_spec(T, x)), rng)


def test_references_on_figure_eight_cyclic_covers():
    T = load_fixture("figure-eight")
    rng = np.random.default_rng(22)
    for d in range(1, 25):
        a, b = (int(v) for v in rng.integers(0, d, size=2))
        assert_matches_references(build_cover(T, figure_eight_cyclic_spec(T, d, a, b)), rng,
                                  chains=1)


def test_references_on_random_covers():
    rng = np.random.default_rng(23)
    disconnected = 0
    for name in ("torus", "sphere", "boundary-4-simplex", "klein"):
        T = load_fixture(name)
        for d in (2, 3, 5):
            # trivial covers are disconnected, and the only unbranched
            # covers of the simply connected sphere and S^3
            specs = [trivial_cover_spec(T, d)]
            if name in ("torus", "klein"):
                specs.append(random_cover_spec(T, d, rng))
            for spec in specs:
                cov = build_cover(T, spec)
                disconnected += dual_components(cov) > 1
                assert_matches_references(cov, rng)
    assert disconnected


def dual_components(T):
    """The number of connected components of T's dual graph."""
    partner = T._gluing[0]
    slot = np.flatnonzero(partner >= 0)
    n1 = T.dim + 1
    return len(np.unique(_components(slot // n1, partner[slot] // n1, T.simplex_count)))


def reference_components(u, v, size):
    """The least node of each node's component, by depth-first search."""
    adjacent = [[] for _ in range(size)]
    for x, y in zip(u, v):
        adjacent[x].append(y)
        adjacent[y].append(x)
    lab = [-1] * size
    for start in range(size):
        if lab[start] < 0:
            lab[start] = start
            stack = [start]
            while stack:
                for y in adjacent[stack.pop()]:
                    if lab[y] < 0:
                        lab[y] = start
                        stack.append(y)
    return lab


@settings(max_examples=60, deadline=None)
@given(size=st.integers(1, 40), data=st.data())
def test_components_match_search(size, data):
    nodes = st.integers(0, size - 1)
    edges = data.draw(st.lists(st.tuples(nodes, nodes), max_size=3 * size))
    u = np.array([x for x, _ in edges], dtype=np.int64)
    v = np.array([y for _, y in edges], dtype=np.int64)
    assert _components(u, v, size).tolist() == reference_components(u, v, size)


def test_components_on_a_long_path():
    # a path visiting the nodes in a scrambled order
    order = np.random.default_rng(25).permutation(2000)
    lab = _components(order[:-1], order[1:], 2000)
    assert not lab.any()


def test_cell_counts_on_large_and_degenerate_complexes():
    torus, fig8 = load_fixture("torus"), load_fixture("figure-eight")
    covers = [build_cover(torus, characteristic_cover_spec(torus, x)) for x in (8, 16)]
    # the (163, 255) cover of degree 256 has gcd(255 - 163, 256) = 4 components
    covers += [build_cover(fig8, figure_eight_cyclic_spec(fig8, d, a, b))
               for d, a, b in ((64, 20, 7), (128, 38, 41), (256, 163, 255))]
    for T in covers:
        assert cell_counts(T) == reference_cell_counts(T)
    unglued = Triangulation(2, 3, ())
    assert cell_counts(unglued) == reference_cell_counts(unglued) == CellCounts((9, 9, 3), 3)
    # two 4-simplices glued by the identity on every facet: S^4
    double = Triangulation(4, 2, tuple(Pairing(0, f, 1, f, facet_vertices(4, f))
                                       for f in range(5)))
    assert cell_counts(double) == reference_cell_counts(double) \
        == CellCounts((5, 10, 10, 5, 2), 2)


@pytest.mark.parametrize("d, a, b", [(1, 0, 0), (12, 3, 3), (7, 2, 5), (64, 29, 1),
                                     (64, 61, 7), (128, 87, 47), (256, 163, 255),
                                     (256, 184, 117)])
def test_figure_eight_cyclic_cover_components(d, a, b):
    # every pairing joins simplex 0 to simplex 1, so sheet s of simplex 0
    # reaches exactly the sheets s + k (b - a) of simplex 0
    fig8 = load_fixture("figure-eight")
    cov = build_cover(fig8, figure_eight_cyclic_spec(fig8, d, a, b))
    assert dual_components(cov) == math.gcd(b - a, d)


def slot_test_complexes():
    """The fixtures, the unpaired complex, and torus and figure-eight covers."""
    torus, fig8 = load_fixture("torus"), load_fixture("figure-eight")
    return ([load_fixture(name) for name in fixture_names()] + [unpaired_complex()]
            + [build_cover(torus, characteristic_cover_spec(torus, x)) for x in (2, 3)]
            + [build_cover(fig8, figure_eight_cyclic_spec(fig8, d, a, b))
               for d, a, b in ((2, 1, 0), (5, 2, 3), (7, 1, 4))])


def test_gluing_table_slot_by_slot():
    for T in slot_test_complexes():
        n1 = T.dim + 1
        partner, across, pairing = T._gluing
        for s in range(T.simplex_count):
            for f in range(n1):
                slot = s * n1 + f
                ref = reference_neighbor(T, s, f)
                if ref is None:
                    assert partner[slot] == pairing[slot] == -1
                    assert across[slot].tolist() == list(range(n1))
                    continue
                other, other_facet, vmap, idx, _ = ref
                assert partner[slot] == other * n1 + other_facet
                assert across[slot].tolist() == [other_facet if v == f else vmap[v]
                                                 for v in range(n1)]
                assert pairing[slot] == idx


def reference_codim2_walks(T):
    """The steps of `codim2_cycles` by the same walk over the same states,
    each step read straight from the pairings by `reference_neighbor`."""
    seen, walks = set(), []
    for s in range(T.simplex_count):
        for pair in itertools.combinations(range(T.dim + 1), 2):
            for start in ((s, *pair), (s, *pair[::-1])):
                if start in seen:
                    continue
                steps, state = [], start
                while True:
                    seen.add(state)
                    cs, exit_facet, kept = state
                    nb = reference_neighbor(T, cs, exit_facet)
                    if nb is None:
                        break
                    other, entry, vmap, idx, direction = nb
                    steps.append((cs, exit_facet, idx, direction))
                    seen.add((other, entry, vmap[kept]))
                    state = (other, vmap[kept], entry)
                    if state == start:
                        walks.append(tuple(steps))
                        break
                    if state in seen:
                        break
    return walks


def test_codim2_cycles_match_reference_walk():
    directions = set()
    for T in slot_test_complexes():
        walks = reference_codim2_walks(T)
        assert [cyc.steps for cyc in codim2_cycles(T)] == walks
        directions |= {step[3] for walk in walks for step in walk}
    assert directions == {1, -1}


def reference_branched(walks, spec):
    """The walks around which the composed sheet permutations, each
    inverted where the walk crosses its pairing from side b, are not the
    identity."""
    bad = []
    for walk in walks:
        sheets = list(range(spec.degree))
        for _, _, idx, direction in walk:
            perm = spec.perms[idx]
            if direction < 0:
                perm = [perm.index(x) for x in range(spec.degree)]
            sheets = [perm[x] for x in sheets]
        if sheets != list(range(spec.degree)):
            bad.append(walk)
    return bad


def test_check_cover_spec_matches_composed_permutations():
    # random permutations, a random relabelling of each simplex's sheets
    # (unbranched, yet non-abelian and crossed both ways), and that
    # relabelling with one pairing's permutation redrawn
    rng = np.random.default_rng(33)

    def draw(d):
        return tuple(rng.permutation(d).tolist())

    branched = unbranched = 0
    for T in slot_test_complexes():
        walks = reference_codim2_walks(T)
        for d in (3, 4, 5):
            label = [draw(d) for _ in range(T.simplex_count)]
            gauge = {i: tuple(label[p.b][label[p.a].index(u)] for u in range(d))
                     for i, p in enumerate(T.pairings)}
            specs = [{i: draw(d) for i in gauge}, gauge,
                     {**gauge, int(rng.integers(len(gauge))): draw(d)}]
            for perms in specs:
                spec = CoverSpec(d, perms)
                want = reference_branched(walks, spec)
                assert [cyc.steps for cyc in check_cover_spec(T, spec)] == want
                branched += len(want)
                unbranched += len(walks) - len(want)
    assert branched and unbranched


def reference_orientability(T):
    """Signs by a depth-first search that stops at the first conflict:
    the least unreached simplex first, a stack, facets in order."""
    sign, parent = {}, {}
    for start in range(T.simplex_count):
        if start in sign:
            continue
        sign[start] = 1
        stack = [start]
        while stack:
            s = stack.pop()
            for f in range(T.dim + 1):
                nb = reference_neighbor(T, s, f)
                if nb is None:
                    continue
                other, _, _, idx, _ = nb
                required = sign[s] * reference_pairing_sign(T.pairings[idx])
                if other not in sign:
                    sign[other] = required
                    parent[other] = (s, idx)
                    stack.append(other)
                elif sign[other] != required:
                    cycle = [idx]
                    for node in (s, other):
                        while node in parent:
                            node, via = parent[node]
                            cycle.append(via)
                    return OrientabilityResult(False, None, tuple(cycle))
    return OrientabilityResult(True, tuple(sign[s] for s in range(T.simplex_count)), None)


def reference_dual_spanning_tree(T):
    """The same search from simplex 0 alone: (tree pairings, the others)."""
    seen, tree, stack = {0}, set(), [0]
    while stack:
        s = stack.pop()
        for f in range(T.dim + 1):
            nb = reference_neighbor(T, s, f)
            if nb is not None and nb[0] not in seen:
                seen.add(nb[0])
                tree.add(nb[3])
                stack.append(nb[0])
    if len(seen) != T.simplex_count:
        raise ComplexError("disconnected complex")
    return tree, [i for i in range(len(T.pairings)) if i not in tree]


def klein_orientation_double_cover():
    """The torus that double covers the Klein bottle: a pairing swaps the
    sheets iff it needs its two simplices oppositely signed."""
    klein = load_fixture("klein")
    return build_cover(klein, CoverSpec(2, {i: (0, 1) if reference_pairing_sign(p) > 0 else (1, 0)
                                            for i, p in enumerate(klein.pairings)}))


def relabelled(T, rng):
    """T with its simplices renumbered at random, so that the walk no
    longer meets them in increasing order."""
    new = rng.permutation(T.simplex_count).tolist()
    return Triangulation(T.dim, T.simplex_count, tuple(
        Pairing(new[p.a], p.facet_a, new[p.b], p.facet_b, p.vertex_map) for p in T.pairings))


def test_dual_walks_match_references():
    rng = np.random.default_rng(28)
    klein, fig8 = load_fixture("klein"), load_fixture("figure-eight")
    torus = klein_orientation_double_cover()
    klein_covers = [build_cover(klein, random_cover_spec(klein, d, rng)) for d in range(2, 9)]
    # connected cyclic covers whose first conflict lies far from simplex 0
    klein_covers += [build_cover(klein, CoverSpec(d, {i: tuple((s + e) % d for s in range(d))
                                                      for i, e in enumerate(exponents)}))
                     for d, exponents in ((6, (0, 1, 3)), (10, (0, 3, 5)), (10, (0, 7, 5)))]
    complexes = (slot_test_complexes() + klein_covers
                 + [torus, build_cover(torus, random_cover_spec(torus, 3, rng))]
                 + [build_cover(fig8, figure_eight_cyclic_spec(fig8, d, a, b))
                    for d, a, b in ((3, 1, 1), (4, 1, 3), (6, 5, 2), (12, 3, 3), (16, 7, 2))])
    complexes += [relabelled(T, rng) for T in complexes[-7:] + klein_covers * 3]
    found = {True: 0, False: 0, "disconnected": 0}
    for T in complexes:
        want = reference_orientability(T)
        assert orientability(T) == want
        found[want.orientable] += 1
        try:
            want = reference_dual_spanning_tree(T)
        except ComplexError:
            with pytest.raises(ComplexError, match="disconnected complex"):
                _dual_spanning_tree(T)
            found["disconnected"] += 1
        else:
            assert _dual_spanning_tree(T) == want
    assert min(found.values()) >= 3, found


def reference_pairing_sign(p):
    """The relative orientation a pairing needs: the gluing cancels the two
    boundary facets iff sign[b] = -sign[a] (-1)^(fa + fb) sgn(vertex map)."""
    inversions = sum(u > v for u, v in itertools.combinations(p.vertex_map, 2))
    return -(-1) ** (p.facet_a + p.facet_b + inversions)


def test_orientability_against_reference_signs():
    rng = np.random.default_rng(27)
    klein = load_fixture("klein")
    covers = [build_cover(klein, random_cover_spec(klein, d, rng)) for d in (2, 3, 4, 5, 6)]
    torus = klein_orientation_double_cover()
    covers += [torus, build_cover(torus, random_cover_spec(torus, 3, rng))]
    seen = []
    for T in slot_test_complexes() + covers:
        result = orientability(T)
        seen.append(result.orientable)
        if result.orientable:
            sign = result.assignment
            assert all(sign[p.b] == sign[p.a] * reference_pairing_sign(p) for p in T.pairings)
        else:
            assert math.prod(reference_pairing_sign(T.pairings[i])
                             for i in result.violating_cycle) == -1
    assert seen[-2:] == [True, True] and not all(seen[-7:-2])


def test_parity_matches_inversion_count():
    for k in range(1, 7):
        perms = list(itertools.permutations(range(k)))
        expected = [(-1) ** sum(u > v for u, v in itertools.combinations(tau, 2))
                    for tau in perms]
        assert _parity(perms).tolist() == expected


def test_boundary_scales_mixed_denominators():
    T = Triangulation(2, 2, (Pairing(0, 0, 1, 0, (1, 2)),))
    z = Chain({(0, (0, 1, 2)): F(1, 6), (1, (0, 2, 1)): 3, (0, (1, 0, 2)): F(-5, 4)})
    got = boundary(T, z)
    assert got.terms == reference_boundary(T, z).terms
    # 1/6 + 5/4 meet on face (1, 2) of slot (0, 0); int 3 comes from simplex 1
    assert got.terms[(0, 0), (1, 2)] == F(17, 12)
    assert {c.denominator for c in got.terms.values()} == {1, 4, 6, 12}


#: large primes; products of two make denominators whose lcm is far beyond int64
BIG_PRIMES = (2 ** 61 - 1, 2 ** 31 - 1, 1_000_000_007, 998_244_353, 1_000_000_009)


def big_chain(T, rng, size):
    """Random vertex orderings with coefficients over products of two large
    primes; two terms over coprime products put the lcm beyond 2^150."""
    perms = list(itertools.permutations(range(T.dim + 1)))
    terms = {}
    for _ in range(size):
        key = (int(rng.integers(T.simplex_count)), perms[int(rng.integers(len(perms)))])
        p, q = rng.choice(len(BIG_PRIMES), size=2, replace=False)
        terms[key] = F(int(rng.integers(-7, 8)) or 1, BIG_PRIMES[p] * BIG_PRIMES[q])
    terms[0, perms[0]] = F(1, BIG_PRIMES[0] * BIG_PRIMES[1])
    terms[0, perms[1]] = F(-3, BIG_PRIMES[2] * BIG_PRIMES[3])
    return Chain(terms)


def unpaired_complex():
    return Triangulation(2, 2, (Pairing(0, 0, 1, 0, (1, 2)), Pairing(0, 1, 1, 1, (0, 2))))


def test_boundary_beyond_int64():
    rng = np.random.default_rng(24)
    T = load_fixture("torus")
    complexes = [load_fixture("klein"), unpaired_complex(), T,
                 build_cover(T, characteristic_cover_spec(T, 3))]
    for X in complexes:
        for _ in range(3):
            z = big_chain(X, rng, int(rng.integers(1, 6 * X.simplex_count + 2)))
            nums, scale = _scaled_numerators(z.terms.values())
            assert (X.dim + 1) * sum(map(abs, nums)) >= 2 ** 63  # Python-int sums
            got = boundary(X, z)
            assert got.terms == reference_boundary(X, z).terms
            assert all(type(c) is F for c in got.terms.values())
    # a cycle times a huge rational is still a cycle; perturbing one term breaks it
    cover = complexes[-1]
    huge = F(2 ** 80 + 1, BIG_PRIMES[0] * BIG_PRIMES[2])
    z = Chain({key: c * huge for key, c in fundamental_cycle(cover).terms.items()})
    assert verify_cycle(cover, z)
    key = next(iter(z.terms))
    z.terms[key] += F(1, BIG_PRIMES[1])
    assert not verify_cycle(cover, z)
    assert boundary(cover, z).terms == reference_boundary(cover, z).terms


def test_boundary_of_empty_chain():
    for T in (load_fixture("klein"), unpaired_complex(), load_fixture("figure-eight")):
        assert boundary(T, Chain()).terms == {}
        assert verify_cycle(T, Chain())
    assert Chain().l1() == 0


def test_boundary_on_figure_eight_cyclic_covers_to_degree_256():
    T = load_fixture("figure-eight")
    rng = np.random.default_rng(25)
    for d in (32, 64, 128, 256):
        a, b = (int(v) for v in rng.integers(1, d, size=2))
        cover = build_cover(T, figure_eight_cyclic_spec(T, d, a, b))
        z = fundamental_cycle(cover)
        assert verify_cycle(cover, z)
        broken = Chain(dict(z.terms))
        broken.terms.pop(next(iter(broken.terms)))
        perturbed = Chain({**z.terms, **random_chain(cover, rng, 3 * d).terms})
        for chain in (broken, perturbed):
            got = boundary(cover, chain)
            assert got.terms and got.terms == reference_boundary(cover, chain).terms
        assert not verify_cycle(cover, broken)


def test_boundary_rejects_bad_terms_and_slots():
    T = load_fixture("torus")
    for key in ((T.simplex_count, (0, 1, 2)), (-1, (0, 1, 2)), (0, (0, 1, 3)), (0, (0, 1))):
        with pytest.raises(ComplexError):
            boundary(T, Chain({key: F(1)}))
    doubled = Triangulation(2, 2, (Pairing(0, 0, 1, 0, (1, 2)), Pairing(0, 0, 1, 1, (0, 2))))
    with pytest.raises(ComplexError, match="used by two pairings"):
        boundary(doubled, Chain({(0, (0, 1, 2)): F(1)}))


def test_l1_matches_per_term_sum():
    rng = np.random.default_rng(26)
    T = build_cover(load_fixture("torus"), characteristic_cover_spec(load_fixture("torus"), 2))
    for make in (random_chain, big_chain):
        for _ in range(5):
            z = make(T, rng, int(rng.integers(1, 40)))
            got = z.l1()
            assert type(got) is F
            assert got == sum((abs(F(c)) for c in z.terms.values()), F(0))


# ---------------------------------------------------------------------------
# covers


def test_trivial_cover_is_isomorphic_copy():
    T = load_fixture("torus")
    cov = build_cover(T, trivial_cover_spec(T, 1))
    assert cov.simplex_count == T.simplex_count
    assert cell_counts(cov) == cell_counts(T)


def test_characteristic_covers():
    T = load_fixture("torus")
    base = cell_counts(T)
    for x in (2, 3):
        spec = characteristic_cover_spec(T, x)
        assert spec.degree == x * x
        cov = build_cover(T, spec)
        assert cov.simplex_count == x * x * T.simplex_count
        counts = cell_counts(cov)
        assert counts.euler == 0
        assert counts.f_vector == tuple(x * x * f for f in base.f_vector)
        # the cover is connected: one orbit of the translation action
        assert dual_components(cov) == 1


def test_random_covers_multiplicative():
    T = load_fixture("torus")
    base = cell_counts(T)
    rng = np.random.default_rng(100)
    for i in range(20):
        d = int(rng.integers(2, 8))
        spec = random_cover_spec(T, d, rng)
        cov = build_cover(T, spec)
        counts = cell_counts(cov)
        assert counts.f_vector == tuple(d * f for f in base.f_vector)
        assert counts.euler == d * base.euler
        z = fundamental_cycle(cov)
        assert verify_cycle(cov, z)
        assert z.l1() == F(cov.simplex_count)


def test_first_homology_of_fixtures():
    assert {name: _homology_name(first_homology(load_fixture(name))[1])
            for name in fixture_names()} == {
        "torus": "Z + Z", "klein": "Z/2 + Z", "figure-eight": "Z",
        "sphere": "0", "boundary-4-simplex": "0"}


def relation_matrix(T, gens):
    """Rows: the signed exposure of each codim-2 cycle to each generator."""
    M = np.zeros((len(codim2_cycles(T)), len(gens)), dtype=np.int64)
    for r, cyc in enumerate(codim2_cycles(T)):
        for _, _, idx, direction in cyc.steps:
            if idx in gens:
                M[r, gens.index(idx)] += direction
    return M


@pytest.mark.parametrize("name", fixture_names())
def test_first_homology_counts_unbranched_shifts(name):
    # the x in Z_d^gens with M x = 0 (mod d) are the maps H_1 -> Z_d
    T = load_fixture(name)
    gens, e, _ = first_homology(T)
    M = relation_matrix(T, gens)
    rng = np.random.default_rng(31)
    for d in range(1, 7):
        x = np.indices((d,) * len(gens)).reshape(len(gens), -1)
        count = np.count_nonzero((M @ x % d == 0).all(axis=0))
        assert count == d ** e.count(0) * math.prod(math.gcd(ej, d) for ej in e if ej)
        # M x = 0 (mod d) is the holonomy check of the shifts x
        for k in rng.integers(0, x.shape[1], size=8).tolist():
            spec = CoverSpec(d, {i: tuple((s + x[gens.index(i), k] if i in gens else s) % d
                                          for s in range(d)) for i in range(len(T.pairings))})
            unbranched = not check_cover_spec(T, spec)
            assert unbranched == (M @ x[:, k] % d == 0).all()


def test_first_homology_of_figure_eight_cyclic_covers():
    # H_1 of the d-fold cyclic cover of the figure-eight knot complement is
    # Z + Z/F_d + Z/5F_d for even d and Z + Z/L_d + Z/L_d for odd d
    # (Fibonacci and Lucas numbers); at d = 64 the torsion is near 5e13
    T = load_fixture("figure-eight")
    fib, luc = [0, 1], [2, 1]
    while len(fib) <= 64:
        fib.append(fib[-1] + fib[-2])
        luc.append(luc[-1] + luc[-2])
    rng = np.random.default_rng(32)
    for d in [*range(2, 13), 64]:
        cover = build_cover(T, random_cover_spec(T, d, rng))
        torsion = [fib[d], 5 * fib[d]] if d % 2 == 0 else [luc[d]] * 2
        assert _homology_name(first_homology(cover)[1]) == _homology_name([*torsion, 0])


def test_random_covers_connected():
    for name, degrees in (("figure-eight", range(2, 25)), ("torus", range(2, 13)),
                          ("klein", range(2, 13))):
        T = load_fixture(name)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            for d in degrees:
                spec = random_cover_spec(T, d, rng)
                assert spec.degree == d
                assert dual_components(build_cover(T, spec)) == 1, (name, seed, d)


@pytest.mark.parametrize("name", ["sphere", "boundary-4-simplex"])
def test_simply_connected_complexes_have_no_cyclic_cover(name):
    T = load_fixture(name)
    rng = np.random.default_rng(0)
    for d in range(2, 9):
        with pytest.raises(ComplexError, match=f"of degree {d}: H_1 = 0$"):
            random_cover_spec(T, d, rng)
    assert random_cover_spec(T, 1, rng) == trivial_cover_spec(T, 1)


@pytest.mark.parametrize("degree", [0, -3])
def test_random_cover_rejects_degree_below_1(degree):
    with pytest.raises(ComplexError, match="need degree >= 1"):
        random_cover_spec(load_fixture("torus"), degree, np.random.default_rng(0))


def test_characteristic_cover_of_a_torus_cover():
    # a torus with another gauge and basis: H_1 = Z^2 all the same
    torus = load_fixture("torus")
    T = build_cover(torus, random_cover_spec(torus, 3, np.random.default_rng(5)))
    for x in (2, 3):
        cov = build_cover(T, characteristic_cover_spec(T, x))
        assert dual_components(cov) == 1
        assert cell_counts(cov).f_vector == tuple(x * x * f for f in cell_counts(T).f_vector)


def test_branched_spec_rejected_with_cycle():
    # a 3-cycle against a transposition: the vertex-walk holonomy is a
    # nontrivial commutator-type word (degree-2 specs can never branch
    # over the torus because S_2 is abelian)
    T = load_fixture("torus")
    bad = CoverSpec(3, {0: (1, 2, 0), 1: (1, 0, 2), 2: (0, 1, 2)})
    offending = check_cover_spec(T, bad)
    assert offending
    with pytest.raises(ComplexError) as err:
        build_cover(T, bad)
    assert "codimension-2 cycle" in str(err.value)
    assert "pairing" in str(err.value)


def test_cover_of_cover_composes():
    T = load_fixture("torus")
    rng = np.random.default_rng(7)
    c1 = build_cover(T, random_cover_spec(T, 3, rng))
    c2 = build_cover(c1, random_cover_spec(c1, 2, rng))
    assert c2.simplex_count == 6 * T.simplex_count
    counts = cell_counts(c2)
    assert counts.f_vector == tuple(6 * f for f in cell_counts(T).f_vector)
    assert validate(c2).closed
    z = fundamental_cycle(c2)
    assert verify_cycle(c2, z)


def test_codim2_cycles_cover_all_slots():
    T = load_fixture("torus")
    cycles = codim2_cycles(T)
    # the one-vertex torus has a single length-6 walk around its vertex
    assert len(cycles) == 1
    assert len(cycles[0].steps) == 6


def test_cover_spec_wire_round_trip():
    spec = CoverSpec(3, {0: (1, 2, 0), 1: (0, 1, 2), 2: (2, 0, 1)})
    wire = cover_spec_to_wire(spec)
    assert wire["perms"]["0"] == [2, 3, 1]  # 1-indexed on the wire
    back = cover_spec_from_wire(wire)
    assert back == spec
    with pytest.raises(ComplexError):
        CoverSpec(2, {0: (0, 0)})
    with pytest.raises(ComplexError, match="need degree >= 1"):
        CoverSpec(0, {0: ()})


def test_cover_spec_keys_are_the_pairing_indices():
    T = load_fixture("torus")
    for keys, wrong in (((0, 1), "missing [2]"),
                        ((-1, 0, 1, 2, 7), "unknown [-1, 7]"),
                        ((0, 1, 3), "missing [2], unknown [3]")):
        with pytest.raises(ComplexError, match=re.escape(f"the 3 pairing indices: {wrong}") + "$"):
            check_cover_spec(T, CoverSpec(1, {k: (0,) for k in keys}))


def test_triangulation_wire_round_trip():
    for name in fixture_names():
        T = load_fixture(name)
        again = from_wire(to_wire(T), name=name)
        assert again.pairings == T.pairings
    with pytest.raises(ComplexError):
        from_wire({"dim": 2, "simplices": 1})


# ---------------------------------------------------------------------------
# lattice subgroups


def test_x_characteristic_index():
    assert lat.index(lat.x_characteristic(3)) == 9
    assert lat.index(lat.x_characteristic(1)) == 1
    assert lat.x_characteristic(7) == lat.LatticeSubgroup(7, 0, 7)
    with pytest.raises(lat.LatticeError):
        lat.x_characteristic(0)


def test_contains_witness():
    (a, b), (_, d) = lat.hermite_form([(2, 0), (1, 1)])[0]
    s = lat.LatticeSubgroup(a, b, d)
    assert (a, b, d) == (1, 1, 2)  # b != 0: not characteristic
    assert lat.index(s) == 2
    assert lat.contains(s, lat.x_characteristic(2))


def test_exhaustive_containment_and_counts():
    for m in range(1, 13):
        subs = lat.subgroups_of_index(m)
        assert len(subs) == lat.sigma_1(m)
        assert len(set(subs)) == len(subs)
        xm = lat.x_characteristic(m)
        for s in subs:
            assert lat.index(s) == m
            assert lat.contains(s, xm)
            # a Hermite basis is its own Hermite form
            assert lat.hermite_form(s.basis)[0] == [list(row) for row in s.basis]


def reference_hermite_reduce(u, v):
    """(a, b, d) by the two-row Euclid that preceded the general form."""
    (u1, u2), (v1, v2) = u, v
    while v1 != 0:
        q = u1 // v1
        u1, u2, v1, v2 = v1, v2, u1 - q * v1, u2 - q * v2
    if u1 < 0:
        u1, u2 = -u1, -u2
    v2 = abs(v2)
    return u1, u2 % v2, v2


def test_hermite_reduce_matches_two_row_euclid():
    nonsingular = 0
    for a, b, c, d in itertools.product(range(-6, 7), repeat=4):
        if a * d - b * c:
            ra, rb, rd = reference_hermite_reduce((a, b), (c, d))
            assert lat.hermite_form([(a, b), (c, d)])[0] == [[ra, rb], [0, rd]]
            nonsingular += 1
    assert nonsingular == 27248


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def det(rows):
    """Exact determinant by Gaussian elimination over the rationals."""
    a = [[F(x) for x in row] for row in rows]
    out = F(1)
    for c in range(len(a)):
        p = next((i for i in range(c, len(a)) if a[i][c]), None)
        if p is None:
            return F(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            out = -out
        out *= a[c][c]
        for i in range(c + 1, len(a)):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return out


#: integer matrices up to 6 x 6, zeros and units frequent
MATRICES = st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
    lambda shape: st.lists(st.lists(st.sampled_from([0, 0, 1, -1]) | st.integers(-30, 30),
                                    min_size=shape[1], max_size=shape[1]),
                           min_size=shape[0], max_size=shape[0]))


@settings(max_examples=200, deadline=None)
@given(MATRICES)
def test_hermite_form_is_unimodular_echelon_and_reduced(rows):
    H, U = lat.hermite_form(rows)
    assert matmul(U, rows) == H
    assert abs(det(U)) == 1
    pivots = [next((c for c, x in enumerate(row) if x), None) for row in H]
    rank = sum(p is not None for p in pivots)
    assert None not in pivots[:rank]  # the zero rows come last
    assert all(p < q for p, q in zip(pivots[:rank], pivots[1:rank]))
    for r, c in enumerate(pivots[:rank]):
        assert H[r][c] > 0
        assert all(0 <= H[i][c] < H[r][c] for i in range(r))


@settings(max_examples=200, deadline=None)
@given(MATRICES)
def test_diagonal_form_spans_the_same_lattice(rows):
    width = len(rows[0])
    e, V = lat.diagonal_form(rows, width)
    assert len(e) == width and min(e) >= 0
    assert abs(det(V)) == 1
    # A V and diag(e) have one row lattice, so one Hermite form
    diag = [[e[i] if i == j else 0 for j in range(width)] for i in range(width)]
    nonzero = lambda m: [row for row in lat.hermite_form(m)[0] if any(row)]  # noqa: E731
    assert nonzero(matmul(rows, V)) == nonzero(diag)


def test_normal_forms_of_empty_matrices():
    assert lat.hermite_form([]) == ([], [])
    assert lat.hermite_form([[], []]) == ([[], []], [[1, 0], [0, 1]])
    assert lat.diagonal_form([], 2) == ([0, 0], [[1, 0], [0, 1]])
    assert lat.diagonal_form([[], []], 0) == ([], [])


# ---------------------------------------------------------------------------
# bound calculators


def test_jsj_bound_values():
    r = bounds.jsj_cover_bound(5, 3, 2, 1, 1, 10)
    assert r.bound == 582
    assert r.normalized == pytest.approx(5.82, abs=1e-12)
    assert r.limit == 5
    r = bounds.jsj_cover_bound(0, 0, 0, 0, 1, 5)
    assert r.bound == 0 and r.normalized == 0
    with pytest.raises(bounds.BoundsError):
        bounds.jsj_cover_bound(1, 1, 1, 1, 0, 3)


def test_filling_bound_values():
    assert bounds.filling_bound(2, 4, 1, 100).normalized == pytest.approx(2.05, abs=1e-12)
    assert bounds.filling_bound(2, 4, 1, 1).normalized == 2 + 4 + 1
    preset = bounds.FIGURE_EIGHT_FILLING
    r = bounds.filling_bound(preset["v_a"], preset["v_b"], preset["v_d"], 10 ** 6)
    assert r.limit == 2


def test_seifert_bound_values():
    seq = bounds.seifert_bound(0, -2, [1, 10, 100, 1000])
    assert [cb.bound for cb in seq] == [18, 126, 1206, 12006]
    assert seq[1].normalized == pytest.approx(1.26, abs=1e-12)
    assert seq[2].normalized == pytest.approx(0.1206, abs=1e-12)
    assert seq[3].normalized == pytest.approx(0.012006, abs=1e-12)
    vals = [cb.normalized for cb in seq]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert bounds.chi_minus(3) == 0
    with pytest.raises(bounds.BoundsError):
        bounds.seifert_bound(-1, -2, [1])


# ---------------------------------------------------------------------------
# dashboard


def test_dashboard_sphere_meets_sigma():
    dash = inequality_dashboard(load_fixture("sphere"))
    assert dash.simplices == 2
    assert any("sigma(S^2) = 2" in a for a in dash.annotations)
    assert dash.euler_bound_ok and dash.cycle_ok


def test_dashboard_torus_and_cover():
    T = load_fixture("torus")
    dash = inequality_dashboard(T)
    assert dash.euler == 0 and dash.euler_bound == 8 * 2
    rng = np.random.default_rng(3)
    cov = build_cover(T, random_cover_spec(T, 4, rng))
    dcov = inequality_dashboard(cov)
    # normalized simplex count of the cover equals the base count
    assert dcov.simplices / 4 == dash.simplices
    assert dcov.cycle_ok


def test_dashboard_figure_eight_annotations():
    dash = inequality_dashboard(load_fixture("fig8"))
    assert any("2 v_3" in a for a in dash.annotations)
    assert any("||N|| = 2" in a for a in dash.annotations)
    assert dash.euler == 1  # raw pseudo-complex value, not silently corrected
