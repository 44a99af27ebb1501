import math
import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semitotal import (
    INF,
    VertexSet,
    cartesian_product,
    connected_graphs,
    from_edge_list,
    generate,
    product_symmetry,
)
from semitotal.graphs import PRODUCT_SIZE_CAP, _factor_orbits, _shift_and_reversal


def test_from_edge_list_p2():
    g = from_edge_list(2, [(0, 1)])
    assert g.adj[0] == 0b10
    assert g.adj[1] == 0b01
    assert g.dist(0, 1) == 1


def test_from_edge_list_c4_distance():
    g = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert g.dist(0, 2) == 2
    assert g.dist(0, 0) == 0


def test_from_edge_list_rejects_loop():
    with pytest.raises(ValueError, match=r"\(0,0\)"):
        from_edge_list(3, [(0, 0)])


def test_from_edge_list_rejects_out_of_range():
    with pytest.raises(ValueError, match=r"\(0,5\)"):
        from_edge_list(3, [(0, 5)])


def test_duplicate_edges_collapse():
    g = from_edge_list(2, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count == 1


def test_generate_path():
    g = generate("path", 4)
    assert sorted(g.edges()) == [(0, 1), (1, 2), (2, 3)]


def test_generate_star_center_zero():
    g = generate("star", 4)
    assert sorted(g.edges()) == [(0, 1), (0, 2), (0, 3)]
    assert g.degree(0) == 3


def test_generate_cycle_labeling():
    g = generate("cycle", 5)
    assert sorted(g.edges()) == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]


def test_generate_complete():
    g = generate("complete", 4)
    assert g.edge_count == 6


def test_generate_random_p0_empty():
    g = generate("random", 5, p=0.0, seed=99)
    assert g.edge_count == 0


def test_generate_random_p1_complete():
    g = generate("random", 5, p=1.0, seed=99)
    assert g.edge_count == 10


def test_generate_random_reproducible():
    a = generate("random", 8, p=0.4, seed=7)
    b = generate("random", 8, p=0.4, seed=7)
    assert a.adj == b.adj
    c = generate("random", 8, p=0.4, seed=8)
    assert a.adj != c.adj  # overwhelmingly likely for this seed pair


def test_generate_cycle_too_small():
    with pytest.raises(ValueError, match="cycle"):
        generate("cycle", 2)


def test_generate_unknown_family():
    with pytest.raises(ValueError, match="family"):
        generate("tree", 4)


@pytest.mark.parametrize("u,v,bad", [(0, -1, -1), (0, 5, 5), (-1, 0, -1), (5, 0, 5)])
def test_distance_rejects_a_vertex_outside_the_graph(u, v, bad):
    # -1 used to read vertex 4's distance, 5 raised IndexError and a
    # negative source a shift error
    with pytest.raises(ValueError, match=f"vertex {bad} outside 0..4"):
        generate("path", 5).dist(u, v)


def test_disconnected_distance_is_inf():
    g = from_edge_list(4, [(0, 1), (2, 3)])
    assert g.dist(0, 2) == INF
    assert math.isinf(g.dist(1, 3))


def test_isolate_detection():
    assert generate("path", 3).is_isolate_free()
    assert not from_edge_list(3, [(0, 1)]).is_isolate_free()


def test_closed_neighborhood_c4():
    g = generate("cycle", 4)
    s = VertexSet.from_vertices(4, [0])
    assert VertexSet(4, s.mask | g.neighborhood(s.mask)).vertices() == (0, 1, 3)
    assert VertexSet(4, g.neighborhood(s.mask)).vertices() == (1, 3)


def test_neighborhood_of_empty_set():
    g = generate("cycle", 4)
    assert g.neighborhood(0) == 0
    assert 0 | g.neighborhood(0) == 0


def _check_masks_against_bfs(g, masks):
    """neighborhood, partners and ball2 against distances from Graph.dist."""
    dist = [[g.dist(u, v) for v in range(g.n)] for u in range(g.n)]
    for v in range(g.n):
        within2 = sum(1 << u for u in range(g.n) if u != v and dist[v][u] <= 2)
        assert g.partners[v] == within2
        assert g.ball2(v) == within2 | 1 << v
    for mask in masks:
        members = [w for w in range(g.n) if mask >> w & 1]
        expected = sum(1 << u for u in range(g.n) if any(dist[w][u] == 1 for w in members))
        assert g.neighborhood(mask) == expected


def test_masks_match_bfs_on_connected_graphs():
    for n in range(1, 7):
        for g in connected_graphs(n):
            _check_masks_against_bfs(g, range(1 << n))


def test_masks_match_bfs_on_random_isolate_free_graphs():
    rng = random.Random(2024)
    checked = 0
    for seed in range(60):
        g = generate("random", 7 + seed % 8, p=0.3, seed=seed)
        if not g.is_isolate_free():
            continue
        _check_masks_against_bfs(g, [rng.getrandbits(g.n) for _ in range(40)])
        checked += 1
    assert checked >= 20


def _check_layout_against_decode(prod, masks):
    coords = [prod.decode(i) for i in range(prod.graph.n)]
    for g_mask in range(1 << prod.n_g):
        expected = sum(1 << i for i, (gi, _) in enumerate(coords) if g_mask >> gi & 1)
        assert prod.rows(g_mask) == expected
    for mask in masks:
        members = [coords[i] for i in range(prod.graph.n) if mask >> i & 1]
        assert prod.project_left(mask) == sum(1 << gi for gi in {gi for gi, _ in members})
        assert prod.project_right(mask) == sum(1 << hi for hi in {hi for _, hi in members})


@pytest.mark.parametrize("left,right", [(("path", 2), ("path", 3)), (("cycle", 3), ("path", 3))])
def test_product_layout_on_every_mask(left, right):
    prod = cartesian_product(generate(*left), generate(*right))
    _check_layout_against_decode(prod, range(1 << prod.graph.n))


def test_product_layout_on_random_masks():
    prod = cartesian_product(generate("path", 7), generate("cycle", 7))
    rng = random.Random(7)
    masks = [rng.getrandbits(49) for _ in range(300)] + [0, (1 << 49) - 1]
    _check_layout_against_decode(prod, masks)


def _automorphisms(g):
    """Every automorphism of g, by brute force over all permutations."""
    edges = list(g.edges())
    return [p for p in permutations(range(g.n)) if all(g.adj[p[u]] >> p[v] & 1 for u, v in edges)]


def _orbits_of(n, perms):
    """Orbits on 0..n-1 of the group generated by perms, in least-vertex order."""
    orbits, seen = [], 0
    for v in range(n):
        if seen >> v & 1:
            continue
        orbit, frontier = 1 << v, [v]
        while frontier:
            w = frontier.pop()
            for p in perms:
                if not orbit >> p[w] & 1:
                    orbit |= 1 << p[w]
                    frontier.append(p[w])
        orbits.append(orbit)
        seen |= orbit
    return tuple(orbits)


def _orbits(g):
    """The factor orbits that product_symmetry builds for g."""
    return _factor_orbits(g, *_shift_and_reversal(g))


def _shift_reversal(g):
    """The shift and the reversal of g, each where it preserves adjacency."""
    shift, reversal = [*range(1, g.n), 0], list(range(g.n - 1, -1, -1))
    edges = list(g.edges())
    return [p for p in (shift, reversal) if all(g.adj[p[u]] >> p[v] & 1 for u, v in edges)]


def _generators(g):
    """The shift and the reversal where they preserve adjacency, and every
    transposition of two open or two closed twins."""
    gens = _shift_reversal(g)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.adj[u] == g.adj[v] or g.closed[u] == g.closed[v]:
                p = list(range(g.n))
                p[u], p[v] = v, u
                gens.append(p)
    return gens


def _inside(fine, coarse):
    """Whether the disjoint masks ``fine`` each lie inside one mask of
    ``coarse`` and cover what it covers."""
    return sum(fine) == sum(coarse) and all(any(o & ~c == 0 for c in coarse) for o in fine)


def _check_factor_orbits(g):
    """Assert that g's factor orbits are those of its generators and lie
    inside Aut(g)'s; return whether they are Aut(g)'s."""
    orbits, aut = _orbits(g), _orbits_of(g.n, _automorphisms(g))
    assert orbits == _orbits_of(g.n, _generators(g)), g.adj
    assert _inside(orbits, aut), g.adj
    return orbits == aut


def test_automorphism_orbits_match_brute_force_on_connected_graphs():
    # the shift, the reversal and twin swaps reach Aut(g)'s orbits on 91 of
    # the 143 connected graphs of at most 6 vertices; on the other 52 their
    # orbits are finer, never coarser
    exact = [_check_factor_orbits(g) for n in range(1, 7) for g in connected_graphs(n)]
    assert (len(exact), exact.count(False)) == (143, 52)


def test_automorphism_orbits_match_brute_force_on_random_isolate_free_graphs():
    checked = 0
    for seed in range(30):
        g = generate("random", 5 + seed % 4, p=(0.3, 0.5, 0.7)[seed % 3], seed=seed)
        if not g.is_isolate_free():
            continue
        _check_factor_orbits(g)
        checked += 1
    assert checked >= 15


def _family_orbits(family, n):
    """Aut's orbits on the generated member of a family: one orbit on a
    cycle or complete graph, mirror pairs on a path, centre and leaves on
    a star."""
    if family in ("cycle", "complete"):
        return ((1 << n) - 1,)
    if family == "path":
        return tuple(1 << v | 1 << (n - 1 - v) for v in range((n + 1) // 2))
    return (1, (1 << n) - 2)


@pytest.mark.parametrize(
    "family,n,count",
    [("cycle", 24, 1), ("complete", 24, 1), ("path", 24, 12), ("star", 9, 2)],
)
def test_automorphism_orbits_of_large_families(family, n, count):
    for m in range(3, 8):
        g = generate(family, m)
        assert _check_factor_orbits(g) and _orbits(g) == _family_orbits(family, m)
    orbits = _orbits(generate(family, n))
    assert len(orbits) == count and orbits == _family_orbits(family, n)


def _frucht():
    # 3-regular and without twins, yet only the identity preserves it
    lcf = [-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2]
    edges = [(i, (i + 1) % 12) for i in range(12)] + [(i, (i + lcf[i]) % 12) for i in range(12)]
    return from_edge_list(12, edges)


def test_automorphism_orbits_of_a_rigid_cubic_graph():
    assert _orbits(_frucht()) == tuple(1 << v for v in range(12))


def test_automorphism_orbits_refuse_a_merge_that_breaks_adjacency(monkeypatch):
    # a twin step that returned a permutation preserving no adjacency must
    # not merge orbits, under python -O too
    import semitotal.graphs

    swap = [1, 0, *range(2, 12)]
    monkeypatch.setattr(semitotal.graphs, "_twin_cycles", lambda rows: swap)
    with pytest.raises(AssertionError, match="non-automorphism"):
        product_symmetry(cartesian_product(_frucht(), generate("path", 2)))


@pytest.mark.parametrize(
    "family,n,expected",
    [
        ("cycle", 3, True),
        ("cycle", 8, True),
        ("complete", 9, True),
        ("complete", 5, True),
        ("path", 2, True),
        ("path", 3, False),
        ("star", 4, False),
    ],
)
def test_one_product_orbit_exactly_on_cycles_and_complete_graphs(family, n, expected):
    # the square of a generated factor has one orbit, the root of the plain
    # search, exactly when the factor is vertex-transitive
    g = generate(family, n)
    assert (len(_orbits(g)) == 1) is expected
    assert (len(product_symmetry(cartesian_product(g, g)).orbits) == 1) is expected


def test_two_regular_disconnected_factor_is_not_one_orbit():
    # C3 and C4 side by side: 2-regular but not vertex-transitive.  Aut has
    # two orbits, the components; the shift and the reversal fail, so the
    # orbits are the closed twin class of C3 and the two open twin classes
    # of C4, and its product with C3 has three orbits
    c3_c4 = from_edge_list(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)])
    assert _orbits(c3_c4) == (0b0000111, 0b0101000, 0b1010000)
    assert len(product_symmetry(cartesian_product(c3_c4, generate("cycle", 3))).orbits) == 3


def test_product_orbits_are_the_orbits_of_the_factor_groups():
    # the factors' generator groups acting coordinatewise, with the swap
    # when G == H; each of their orbits lies inside one orbit of
    # Aut(G) x Aut(H), with the swap when G == H, whose every element is an
    # automorphism of the product
    factors = [g for n in range(2, 5) for g in connected_graphs(n)]
    for g in factors:
        for h in factors:
            prod = cartesian_product(g, h)
            n, adj = prod.graph.n, prod.graph.adj

            def lift(phi, psi):
                return [phi[a] * h.n + psi[b] for a in range(g.n) for b in range(h.n)]

            swap = [[b * h.n + a for a in range(g.n) for b in range(h.n)]] if g == h else []
            gens = [lift(phi, range(h.n)) for phi in _generators(g)]
            gens += [lift(range(g.n), psi) for psi in _generators(h)] + swap
            auts = [lift(phi, psi) for phi in _automorphisms(g) for psi in _automorphisms(h)] + swap
            for p in auts:
                for v in range(n):
                    assert adj[p[v]] == sum(1 << p[w] for w in range(n) if adj[v] >> w & 1)
            orbits = product_symmetry(prod).orbits
            assert sorted(orbits) == sorted(_orbits_of(n, gens))
            assert _inside(orbits, _orbits_of(n, auts))


def _generated(n, generators):
    """Every element of the permutation group on 0..n-1 that generators
    generate, by closing the identity under composition."""
    group, frontier = {tuple(range(n))}, [tuple(range(n))]
    while frontier:
        p = frontier.pop()
        for s in generators:
            q = tuple(s[w] for w in p)
            if q not in group:
                group.add(q)
                frontier.append(q)
    return group


def _rotation_reflection_group(g):
    return _generated(g.n, _shift_reversal(g))


@pytest.mark.parametrize(
    "left,right",
    [
        (("cycle", 5), ("path", 4)),
        (("path", 4), ("path", 4)),
        (("cycle", 4), ("cycle", 4)),
        (("complete", 4), ("path", 3)),
        (("star", 4), ("cycle", 3)),
        (("path", 2), ("path", 2)),
    ],
)
def test_product_stabilisers_are_the_point_stabilisers_of_the_subgroup(left, right):
    # the subgroup generated by the factors' shift and reversal, each where
    # it preserves adjacency, acting coordinatewise, with the swap when
    # G == H; product_symmetry lists its stabiliser of each vertex, the
    # identity left out, and every element is an automorphism
    g, h = generate(*left), generate(*right)
    prod = cartesian_product(g, h)
    n, adj = prod.graph.n, prod.graph.adj
    group = {
        tuple(phi[a] * h.n + psi[b] for a in range(g.n) for b in range(h.n))
        for phi in _rotation_reflection_group(g)
        for psi in _rotation_reflection_group(h)
    }
    if g == h:
        group |= {tuple(p[b * h.n + a] for a in range(g.n) for b in range(h.n)) for p in group}
    identity = tuple(range(n))
    symmetry = product_symmetry(prod)
    for r in range(n):
        stabiliser = symmetry.stabiliser(r)
        assert len(set(stabiliser)) == len(stabiliser)
        assert set(stabiliser) == {p for p in group if p[r] == r} - {identity}, r
        for p in stabiliser:
            for w in range(n):
                assert adj[p[w]] == sum(1 << p[x] for x in range(n) if adj[w] >> x & 1)


def test_path_end_to_end_distance():
    g = generate("path", 5)
    assert g.dist(0, 4) == 4


def test_vertex_set_operations():
    a = VertexSet.from_vertices(5, [0, 2])
    b = VertexSet.from_vertices(5, [2, 4])
    assert (a | b).vertices() == (0, 2, 4)
    assert (a & b).vertices() == (2,)
    assert (a - b).vertices() == (0,)
    assert len(a) == 2
    assert 2 in a and 1 not in a
    assert list(a) == [0, 2]
    assert a <= VertexSet.universe(5)


def test_vertex_set_range_checks():
    with pytest.raises(ValueError, match="outside"):
        VertexSet.from_vertices(3, [3])
    with pytest.raises(ValueError, match="different ranges"):
        VertexSet(3) | VertexSet(4)


def test_product_p2_p2_is_four_cycle():
    prod = cartesian_product(generate("path", 2), generate("path", 2))
    g = prod.graph
    assert g.n == 4 and g.edge_count == 4
    assert all(g.degree(v) == 2 for v in range(4))


@pytest.mark.parametrize(
    "left,right,edges",
    [
        (("path", 3), ("path", 3), 12),
        (("complete", 3), ("path", 2), 9),
        (("cycle", 4), ("star", 4), 28),
    ],
)
def test_product_edge_count_identity(left, right, edges):
    g = generate(*left)
    h = generate(*right)
    prod = cartesian_product(g, h)
    assert prod.graph.edge_count == g.n * h.edge_count + h.n * g.edge_count == edges


def test_product_flat_index_convention():
    g = generate("path", 3)
    h = generate("path", 4)
    prod = cartesian_product(g, h)
    for gi in range(3):
        for hi in range(4):
            idx = prod.encode(gi, hi)
            assert idx == gi * 4 + hi
            assert prod.decode(idx) == (gi, hi)
    with pytest.raises(ValueError):
        prod.encode(3, 0)
    with pytest.raises(ValueError):
        prod.decode(12)


def test_product_size_cap():
    # 65 x 64 = 4,160 vertices, one row past the cap: refused before any
    # adjacency is allocated
    with pytest.raises(ValueError, match="exceeds size cap 4096"):
        cartesian_product(generate("path", 65), generate("path", 64))


def test_product_builds_at_size_cap():
    # no all-pairs table is built, so the largest allowed product is cheap
    p64 = generate("path", 64)
    prod = cartesian_product(p64, p64)
    assert prod.graph.n == PRODUCT_SIZE_CAP
    assert prod.graph.edge_count == 2 * 64 * 63
    assert prod.graph.dist(0, PRODUCT_SIZE_CAP - 1) == 126


def test_product_adjacency_rule():
    g = generate("path", 3)
    h = generate("cycle", 3)
    prod = cartesian_product(g, h)
    pg = prod.graph
    for a in range(pg.n):
        ga, ha = prod.decode(a)
        for b in range(pg.n):
            gb, hb = prod.decode(b)
            expected = (ga == gb and h.adj[ha] >> hb & 1) or (
                ha == hb and g.adj[ga] >> gb & 1
            )
            assert bool(pg.adj[a] >> b & 1) == expected


graphs_strategy = st.builds(
    lambda n, p, seed: generate("random", n, p=p, seed=seed),
    st.integers(2, 9),
    st.sampled_from([0.2, 0.4, 0.6, 0.8]),
    st.integers(0, 10_000),
)


@given(graphs_strategy)
@settings(max_examples=60, deadline=None)
def test_adjacency_symmetry_and_loop_freedom(g):
    for u in range(g.n):
        assert not g.adj[u] >> u & 1
        for v in range(g.n):
            assert (g.adj[u] >> v & 1) == (g.adj[v] >> u & 1)


@given(graphs_strategy)
@settings(max_examples=60, deadline=None)
def test_distance_triangle_inequality(g):
    for u in range(g.n):
        assert g.dist(u, u) == 0
        for v in range(g.n):
            assert (g.dist(u, v) == 1) == bool(g.adj[u] >> v & 1)
            for w in range(g.n):
                duv, dvw, duw = g.dist(u, v), g.dist(v, w), g.dist(u, w)
                if duv != INF and dvw != INF:
                    assert duw <= duv + dvw


@given(
    st.sampled_from(["path", "cycle", "complete", "star"]),
    st.integers(3, 7),
    st.sampled_from(["path", "cycle", "complete", "star"]),
    st.integers(3, 7),
)
@settings(max_examples=40, deadline=None)
def test_product_metric_is_componentwise_sum(lf, ln, rf, rn):
    g = generate(lf, ln)
    h = generate(rf, rn)
    prod = cartesian_product(g, h)
    pg = prod.graph
    for a in range(pg.n):
        ga, ha = prod.decode(a)
        for b in range(pg.n):
            gb, hb = prod.decode(b)
            assert pg.dist(a, b) == g.dist(ga, gb) + h.dist(ha, hb)
