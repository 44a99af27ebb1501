import pytest

import semitotal
from semitotal import (
    VertexSet,
    allied_split,
    build_cell_partition,
    build_column_witness,
    build_connector_set,
    build_cover_index,
    cartesian_product,
    cell_partition_violations,
    check_column_bounds,
    counting_checks,
    from_edge_list,
    generate,
    is_semitotal_dominating,
    lexleast_min_semitotal_set,
    max_allied_set,
    project_profiles,
    solve_bnb,
)


def vs(n, *vertices):
    return VertexSet.from_vertices(n, vertices)


def replay_bundle(g, h):
    """Full machinery on one pair, using the canonical minimum product set."""
    prod = cartesian_product(g, h)
    d = lexleast_min_semitotal_set(prod.graph)
    ap = max_allied_set(g)
    pi = build_cell_partition(g, ap)
    profiles = project_profiles(prod, d, pi)
    cover = build_cover_index(prod, d, pi, profiles)
    return prod, d, ap, pi, profiles, cover


# Allied split and the maximum allied set


def test_allied_split_c6_mixed():
    c6 = generate("cycle", 6)
    ap = allied_split(c6, vs(6, 0, 1, 3))
    assert ap.allied == vs(6, 0, 1)
    assert ap.free == vs(6, 3)
    assert ap.order == (0, 1, 3)


def test_allied_split_c6_all_free():
    ap = allied_split(generate("cycle", 6), vs(6, 0, 2, 4))
    assert ap.allied == vs(6)
    assert ap.free == vs(6, 0, 2, 4)


def test_allied_split_p2_all_allied():
    ap = allied_split(generate("path", 2), vs(2, 0, 1))
    assert ap.allied == vs(2, 0, 1)
    assert ap.free == vs(2)


def test_allied_split_rejects_non_semitotal():
    with pytest.raises(ValueError, match="is_semitotal_dominating"):
        allied_split(generate("cycle", 6), vs(6, 0, 3))


def test_allied_split_rejects_non_minimum():
    with pytest.raises(ValueError, match="not minimum"):
        allied_split(generate("cycle", 6), vs(6, 0, 1, 2, 3))


def test_allied_split_rejects_a_set_of_another_order():
    with pytest.raises(ValueError, match="vertex set bound to a different graph order"):
        allied_split(generate("cycle", 6), vs(7, 0, 1, 3))


def test_max_allied_examples():
    assert_counts = {
        ("cycle", 6): (2, 1),
        ("star", 4): (2, 0),
        ("cycle", 4): (2, 0),
        ("path", 5): (0, 2),
    }
    for (family, n), (x, y) in assert_counts.items():
        ap = max_allied_set(generate(family, n))
        assert (ap.allied_count, ap.free_count) == (x, y), (family, n)


def test_max_allied_tie_breaks_to_least_set():
    ap = max_allied_set(generate("cycle", 4))
    assert ap.members == vs(4, 0, 1)


def test_max_allied_triangle_with_pendants():
    # triangle 0-1-2, pendant leaves 3,4,5: the whole triangle is the unique
    # minimum set and every member is allied
    g = from_edge_list(6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)])
    ap = max_allied_set(g)
    assert ap.members == vs(6, 0, 1, 2)
    assert ap.allied_count == 3 and ap.free_count == 0


# Pinned by brute force over all 9-subsets; both lie beyond the 20-vertex
# enumeration oracle.
@pytest.mark.parametrize(
    "family,n,order,allied",
    [
        ("cycle", 21, (0, 1, 3, 6, 8, 11, 13, 16, 18), (0, 1)),
        ("path", 22, (1, 3, 5, 8, 10, 13, 15, 18, 20), ()),
    ],
)
def test_max_allied_pinned_beyond_oracle(family, n, order, allied):
    ap = max_allied_set(generate(family, n))
    assert ap.order == order
    assert ap.allied.vertices() == allied


def test_max_allied_set_solves_no_extra_gamma_t2(monkeypatch):
    # the enumeration has checked every set, so the split does not solve
    # gamma_t2 again; a direct allied_split still does
    def refuse(g, kind):
        raise AssertionError("solve_bnb reached from the split")

    monkeypatch.setattr(semitotal.proofs, "solve_bnb", refuse)
    assert max_allied_set(generate("cycle", 6)).order == (0, 1, 3)
    with pytest.raises(AssertionError, match="reached from the split"):
        allied_split(generate("cycle", 6), vs(6, 0, 1, 3))


def test_max_allied_set_rejects_empty_set_list(monkeypatch):
    monkeypatch.setattr(semitotal.proofs, "enumerate_min_semitotal_sets", lambda g, **kw: [])
    with pytest.raises(AssertionError, match="no minimum semi-total dominating set"):
        max_allied_set(generate("path", 4))


# Cell partition


def test_cell_partition_p2():
    g = generate("path", 2)
    ap = max_allied_set(g)
    pi = build_cell_partition(g, ap)
    assert [c.vertices() for c in pi] == [(1,), (0,)]
    assert cell_partition_violations(g, ap, pi) == []


def test_cell_partition_c6_exclusion_rule():
    g = generate("cycle", 6)
    ap = allied_split(g, vs(6, 0, 1, 3))
    pi = build_cell_partition(g, ap)
    assert cell_partition_violations(g, ap, pi) == []
    # vertex 2 neighbors allied 1 (distance 2 from free 3), so it may not
    # join the free cell of 3
    assert 2 not in pi[2]
    assert 2 in pi[1]


def test_cell_partition_random_sweep():
    checked = 0
    for seed in range(400):
        g = generate("random", 4 + seed % 5, p=0.45, seed=seed)
        if not g.is_isolate_free():
            continue
        dist_ok = all(g.dist(0, v) != float("inf") for v in range(g.n))
        if not dist_ok:
            continue
        ap = max_allied_set(g)
        pi = build_cell_partition(g, ap)
        assert cell_partition_violations(g, ap, pi) == [], (seed, g.adj)
        checked += 1
        if checked >= 200:
            break
    assert checked >= 200


def _first_neighbouring_cell(g, ap):
    """The cell partition by its defining rule: each free member owns a cell,
    and every other vertex joins the first cell in ``ap.order`` whose owner
    neighbours it."""
    cells = [0] * ap.size
    for w in range(g.n):
        if w in ap.free:
            cells[ap.order.index(w)] |= 1 << w
        else:
            pos = next(p for p, owner in enumerate(ap.order) if g.adj[owner] >> w & 1)
            cells[pos] |= 1 << w
    return [VertexSet(g.n, m) for m in cells]


def test_cell_partition_is_first_neighbouring_cell():
    # allied cells come first in ap.order, so a vertex next to an allied
    # member never reaches a free cell: the distance-2 exclusion holds by
    # construction, on every connected graph of 2-7 vertices and on random
    # isolate-free graphs of 4-13 vertices
    from semitotal import connected_graphs

    graphs = [g for n in range(2, 8) for g in connected_graphs(n)]
    assert len(graphs) == 995
    for seed in range(1000):
        g = generate("random", 4 + seed % 10, p=0.4, seed=seed)
        if g.is_isolate_free():
            graphs.append(g)
    assert len(graphs) > 1600
    for g in graphs:
        ap = max_allied_set(g)
        pi = build_cell_partition(g, ap)
        assert list(pi) == _first_neighbouring_cell(g, ap), g.adj
        assert cell_partition_violations(g, ap, pi) == [], g.adj


def test_cell_partition_reports_a_vertex_with_no_cell():
    # a hand-built split of P3 whose only member 0 misses vertex 2
    from semitotal import AlliedPartition

    ap = AlliedPartition(members=vs(3, 0), allied=vs(3), free=vs(3, 0), order=(0,))
    with pytest.raises(ValueError, match="no admissible cell for vertex 2"):
        build_cell_partition(generate("path", 3), ap)


def test_cell_partition_builds_for_every_minimum_set():
    # every minimum set dominates, so every split of one gets a valid partition
    from semitotal import connected_graphs, enumerate_min_semitotal_sets

    graphs = [g for n in range(2, 7) for g in connected_graphs(n)]
    assert len(graphs) == 142
    sets = 0
    for g in graphs:
        for u in enumerate_min_semitotal_sets(g):
            ap = allied_split(g, u)
            pi = build_cell_partition(g, ap)
            assert cell_partition_violations(g, ap, pi) == [], (g.adj, u.vertices())
            sets += 1
    assert sets == 922


def test_cell_partition_free_cells_contain_owner():
    g = generate("path", 5)
    ap = max_allied_set(g)  # all free for P5
    pi = build_cell_partition(g, ap)
    for pos in range(ap.allied_count, ap.size):
        assert ap.order[pos] in pi[pos]


# Projection profiles


def test_profiles_empty_cell_members():
    g = generate("cycle", 3)
    h = generate("cycle", 3)
    prod, d, ap, pi, profiles, cover = replay_bundle(g, h)
    # the canonical witness lives entirely over one factor row, so one cell
    # projects to nothing
    empty = [p for p in profiles if not p.members]
    assert empty
    for p in empty:
        assert p.projection == VertexSet(3)
        assert p.missing == VertexSet.universe(3)
        assert p.covered == VertexSet(3) and p.uncovered == VertexSet(3)


def test_profiles_full_projection_has_no_missing():
    g = generate("path", 2)
    h = generate("path", 3)
    prod = cartesian_product(g, h)
    ap = max_allied_set(g)
    pi = build_cell_partition(g, ap)
    d = VertexSet.from_vertices(6, [3, 4, 5])  # row g=1 entirely
    assert is_semitotal_dominating(prod.graph, d)
    profiles = project_profiles(prod, d, pi)
    by_cell = {p.index: p for p in profiles}
    # cell 0 is {1} (owner 0's neighbor), so its projection is all of V(H)
    assert by_cell[0].projection == VertexSet.universe(3)
    assert by_cell[0].missing == VertexSet(3)


def test_profiles_partition_into_covered_uncovered():
    g = generate("path", 3)
    h = generate("path", 3)
    prod, d, ap, pi, profiles, cover = replay_bundle(g, h)
    for p in profiles:
        assert (p.covered | p.uncovered) == p.projection
        assert not (p.covered & p.uncovered)
        # missing heights sit strictly outside the projection's closed reach
        proj = p.projection.mask
        assert not p.missing.mask & (proj | h.neighborhood(proj))


def test_profiles_reject_invalid_set():
    g = generate("path", 2)
    h = generate("path", 2)
    prod = cartesian_product(g, h)
    ap = max_allied_set(g)
    pi = build_cell_partition(g, ap)
    with pytest.raises(ValueError, match="is_semitotal_dominating"):
        project_profiles(prod, vs(4, 0), pi)


# Cover index


def test_cover_index_double_count_identity():
    for lf, rf in [("path", "cycle"), ("cycle", "star"), ("star", "path")]:
        g = generate(lf, 4 if lf != "cycle" else 5)
        h = generate(rf, 4 if rf != "cycle" else 5)
        prod, d, ap, pi, profiles, cover = replay_bundle(g, h)
        assert sum(cover.row_counts) == sum(cover.col_counts) == cover.total


def test_cover_index_lower_bound_eq1():
    g = generate("path", 4)
    h = generate("cycle", 5)
    prod, d, ap, pi, profiles, cover = replay_bundle(g, h)
    assert cover.total >= sum(len(p.missing) + len(p.uncovered) for p in profiles)


def test_cover_index_full_product_set():
    g = generate("path", 3)
    h = generate("path", 2)
    prod = cartesian_product(g, h)
    ap = max_allied_set(g)
    pi = build_cell_partition(g, ap)
    d = VertexSet.universe(6)
    profiles = project_profiles(prod, d, pi)
    cover = build_cover_index(prod, d, pi, profiles)
    # with every product vertex chosen, every slab is horizontally dominated
    assert cover.indexed == ((1 << len(pi)) - 1,) * prod.n_h
    assert cover.total == len(pi) * prod.n_h


# Column bound and witness


def test_column_checks_p2_p2():
    g = generate("path", 2)
    prod, d, ap, pi, profiles, cover = replay_bundle(g, g)
    report = check_column_bounds(prod, d, ap, pi, cover)
    assert all(c.ok for c in report)
    for check in report:
        assert check.inequality_ok and check.witness_valid and check.witness_size_ok
        assert check.witness == vs(2, 0, 1)


def test_column_witness_is_semitotal_across_families():
    pairs = [
        (generate("cycle", 6), generate("path", 3)),
        (generate("path", 5), generate("star", 4)),
        (generate("star", 5), generate("cycle", 4)),
    ]
    for g, h in pairs:
        prod, d, ap, pi, profiles, cover = replay_bundle(g, h)
        gamma_g = ap.size
        for v in range(prod.n_h):
            witness = build_column_witness(prod, d, ap, pi, v, cover)
            assert is_semitotal_dominating(g, witness)
            dv = (d.mask & prod.col_masks[v]).bit_count()
            assert len(witness) <= 2 * dv + gamma_g - cover.col_counts[v]


def test_column_witness_algebra_recovers_column_bound():
    # gamma_t2(G) <= |T| <= 2|D^v| + gamma_t2(G) - |R^v| forces |R^v| <= 2|D^v|
    g = generate("cycle", 5)
    h = generate("path", 4)
    prod, d, ap, pi, profiles, cover = replay_bundle(g, h)
    gamma_g = ap.size
    for v in range(prod.n_h):
        witness = build_column_witness(prod, d, ap, pi, v, cover)
        assert is_semitotal_dominating(g, witness)
        dv = (d.mask & prod.col_masks[v]).bit_count()
        assert gamma_g <= len(witness)
        assert cover.col_counts[v] <= 2 * dv


# Connector sets


def test_connectors_empty_for_small_uncovered():
    g = generate("path", 2)
    h = generate("cycle", 4)
    prod, d, ap, pi, profiles, cover = replay_bundle(g, h)
    for p in profiles:
        result = build_connector_set(h, p)
        if len(p.uncovered) <= 1:
            assert result.connectors == VertexSet(h.n)


def test_connector_midpoint_for_distance_three_pair():
    # handcrafted profile on P4 with uncovered = {0, 3}
    h = generate("path", 4)
    g = generate("path", 2)
    prod = cartesian_product(g, h)
    ap = max_allied_set(g)
    pi = build_cell_partition(g, ap)
    d = VertexSet.from_vertices(8, [0, 3, 4, 7])  # (0,0),(0,3),(1,0),(1,3)
    assert is_semitotal_dominating(prod.graph, d)
    profiles = project_profiles(prod, d, pi)
    target = profiles[0]
    assert target.uncovered.vertices() == (0, 3)
    result = build_connector_set(h, target)
    assert result.connectors.vertices() == (1,)  # least midpoint of 0..3
    assert result.base_valid


def test_connector_lone_center_edge_case_is_recorded_not_raised():
    # projection that dominates H alone from one vertex: the uncovered
    # singleton admits no connector and the union fails the partner rule
    g = generate("path", 2)
    h = generate("star", 4)
    prod, d, ap, pi, profiles, cover = replay_bundle(g, h)
    results = [build_connector_set(h, p) for p in profiles]
    assert any(not r.base_valid for r in results)
    for p, r in zip(profiles, results):
        assert len(r.connectors) <= max(len(p.uncovered) - 1, 0)


def test_connector_disjointness_and_size_bound_when_valid():
    pairs = [
        (generate("path", 4), generate("path", 5)),
        (generate("cycle", 6), generate("cycle", 6)),
        (generate("star", 5), generate("path", 6)),
    ]
    for g, h in pairs:
        prod, d, ap, pi, profiles, cover = replay_bundle(g, h)
        for p in profiles:
            result = build_connector_set(h, p)
            assert len(result.connectors) <= max(len(p.uncovered) - 1, 0)
            if result.base_valid:
                assert not (result.connectors & p.covered)
                assert len(result.connectors) + len(p.covered) <= len(p.projection)


# Counting checks


def test_counting_checks_p2_p2_values():
    g = generate("path", 2)
    prod, d, ap, pi, profiles, cover = replay_bundle(g, g)
    checks = counting_checks(profiles, cover, len(d), 2, 2)
    assert checks.index_total == 2
    assert checks.cell_sum == 2
    assert checks.eq1_ok and checks.eq2_ok and checks.eq3_ok and checks.chain_ok


def test_counting_checks_across_pairs():
    pairs = [
        (generate("path", 4), generate("cycle", 6)),
        (generate("complete", 4), generate("star", 5)),
        (generate("cycle", 5), generate("cycle", 5)),
    ]
    for g, h in pairs:
        prod, d, ap, pi, profiles, cover = replay_bundle(g, h)
        kg = solve_bnb(g, "gamma_t2").value
        kh = solve_bnb(h, "gamma_t2").value
        checks = counting_checks(profiles, cover, len(d), kg, kh)
        assert checks.eq1_ok and checks.eq2_ok and checks.eq3_ok
        # the three inequalities chain into the product bound
        assert 2 * checks.set_size >= checks.index_total >= checks.cell_sum
        assert checks.cell_sum >= kg * kh - checks.set_size
        assert 3 * checks.set_size >= kg * kh
        assert checks.chain_ok
