import os
import random
import subprocess
import sys
from collections import Counter
from functools import partial
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import semitotal
from semitotal import (
    IsolateError,
    OracleLimitError,
    VertexSet,
    cartesian_product,
    connected_graphs,
    enumerate_min_semitotal_sets,
    from_edge_list,
    generate,
    is_dominating,
    is_semitotal_dominating,
    is_total_dominating,
    is_two_packing,
    lexleast_min_semitotal_set,
    parse_graph6,
    product_symmetry,
    solve_bnb,
    solve_oracle,
)
from semitotal.graphs import Symmetry
from semitotal.solvers import _PREDICATES as MASK_PREDICATES
from semitotal.solvers import _kernel_tables, _search_kernel

PREDICATES = {
    "gamma": is_dominating,
    "gamma_t": is_total_dominating,
    "gamma_t2": is_semitotal_dominating,
    "rho": is_two_packing,
}


def vs(n, *vertices):
    return VertexSet.from_vertices(n, vertices)


# Predicates


def test_dominating_examples():
    c4 = generate("cycle", 4)
    assert is_dominating(c4, vs(4, 0, 2))
    p5 = generate("path", 5)
    assert not is_dominating(p5, vs(5, 2))
    assert is_dominating(p5, VertexSet.universe(5))


def test_total_dominating_examples():
    c4 = generate("cycle", 4)
    assert is_total_dominating(c4, vs(4, 0, 1))
    assert not is_total_dominating(c4, vs(4, 0))
    p3 = generate("path", 3)
    assert not is_total_dominating(p3, vs(3, 1))
    assert is_total_dominating(p3, vs(3, 0, 1))


def test_semitotal_examples():
    p5 = generate("path", 5)
    assert is_semitotal_dominating(p5, vs(5, 1, 3))
    c4 = generate("cycle", 4)
    assert is_semitotal_dominating(c4, vs(4, 0, 2))
    c6 = generate("cycle", 6)
    assert not is_semitotal_dominating(c6, vs(6, 0, 3))  # partners at distance 3
    assert not is_semitotal_dominating(c4, vs(4, 0))  # no partner at all


def test_semitotal_rejects_isolates():
    g = from_edge_list(3, [(0, 1)])
    with pytest.raises(IsolateError):
        is_semitotal_dominating(g, vs(3, 0, 2))


def test_two_packing_examples():
    p4 = generate("path", 4)
    assert is_two_packing(p4, vs(4, 0, 3))
    k5 = generate("complete", 5)
    assert not is_two_packing(k5, vs(5, 0, 1))
    assert is_two_packing(k5, VertexSet(5))
    assert is_two_packing(k5, vs(5, 2))


def test_two_packing_across_components():
    # unreachable pairs count as distance infinity, which qualifies
    g = from_edge_list(4, [(0, 1), (2, 3)])
    assert is_two_packing(g, vs(4, 0, 2))


# Oracle


def test_oracle_gamma_t2_p2():
    res = solve_oracle(generate("path", 2), "gamma_t2")
    assert res.value == 2 and res.witness.vertices() == (0, 1)


def test_oracle_gamma_t2_c6_by_enumeration():
    # no dominating pair of C6 satisfies the partner rule, so the value is 3
    c6 = generate("cycle", 6)
    for pair in [(i, j) for i in range(6) for j in range(i + 1, 6)]:
        s = vs(6, *pair)
        assert not is_semitotal_dominating(c6, s)
    res = solve_oracle(c6, "gamma_t2")
    assert res.value == 3
    assert res.witness.vertices() == (0, 1, 3)  # lexicographically least


def test_oracle_rho_c4():
    res = solve_oracle(generate("cycle", 4), "rho")
    assert res.value == 1 and res.witness.vertices() == (0,)


def test_oracle_witness_is_lexicographically_least():
    p4 = generate("path", 4)
    assert solve_oracle(p4, "gamma_t2").witness.vertices() == (0, 2)
    assert solve_oracle(p4, "gamma").witness.vertices() == (0, 2)


def test_oracle_guard():
    big = generate("path", 21)
    with pytest.raises(OracleLimitError, match="too large"):
        solve_oracle(big, "gamma")


def test_oracle_isolate_rejection():
    g = from_edge_list(3, [(0, 1)])
    for kind in ("gamma", "gamma_t", "gamma_t2"):
        with pytest.raises(IsolateError):
            solve_oracle(g, kind)
    assert solve_oracle(g, "rho").value == 2  # the isolate pairs with either end


def test_rho_on_edgeless_graph_via_bnb():
    g = from_edge_list(4, [])
    assert solve_bnb(g, "rho").value == 4


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown invariant"):
        solve_oracle(generate("path", 3), "chromatic")


# Branch and bound


def test_bnb_star_values():
    star = generate("star", 6)
    assert solve_bnb(star, "gamma_t2").value == 2
    assert solve_bnb(star, "gamma").value == 1
    assert solve_bnb(star, "gamma_t").value == 2
    assert solve_bnb(star, "rho").value == 1


def test_bnb_matches_oracle_on_sample_families():
    for family, n in [
        ("path", 6),
        ("cycle", 7),
        ("complete", 5),
        ("star", 7),
    ]:
        g = generate(family, n)
        for kind in PREDICATES:
            assert solve_bnb(g, kind).value == solve_oracle(g, kind).value


def test_bnb_witness_validates():
    for n in range(2, 8):
        for g in connected_graphs(n)[:10]:
            for kind, predicate in PREDICATES.items():
                res = solve_bnb(g, kind)
                assert predicate(g, res.witness)
                assert len(res.witness) == res.value


random_graphs = st.builds(
    lambda n, p, seed: generate("random", n, p=p, seed=seed),
    st.integers(2, 8),
    st.sampled_from([0.3, 0.5, 0.7]),
    st.integers(0, 5_000),
)


@given(random_graphs)
@settings(max_examples=80, deadline=None)
def test_bnb_equals_oracle_on_random_graphs(g):
    assert solve_bnb(g, "rho").value == solve_oracle(g, "rho").value
    if g.is_isolate_free():
        for kind in ("gamma", "gamma_t", "gamma_t2"):
            assert solve_bnb(g, kind).value == solve_oracle(g, kind).value


@given(random_graphs)
@settings(max_examples=80, deadline=None)
def test_invariant_ordering_chain(g):
    if not g.is_isolate_free():
        return
    gamma = solve_bnb(g, "gamma").value
    gamma_t2 = solve_bnb(g, "gamma_t2").value
    gamma_t = solve_bnb(g, "gamma_t").value
    rho = solve_bnb(g, "rho").value
    assert gamma <= gamma_t2 <= gamma_t
    assert rho <= gamma
    assert gamma_t2 >= 2


def test_witness_minimality_spot_check():
    for n in (4, 5, 6):
        for g in connected_graphs(n)[:8]:
            for kind in ("gamma", "gamma_t", "gamma_t2"):
                res = solve_oracle(g, kind)
                predicate = PREDICATES[kind]
                for v in res.witness.vertices():
                    smaller = VertexSet(g.n, res.witness.mask & ~(1 << v))
                    assert not predicate(g, smaller)


# Minimum-set enumeration and the canonical witness


def test_enumerate_min_p2():
    assert enumerate_min_semitotal_sets(generate("path", 2)) == [vs(2, 0, 1)]


def test_enumerate_min_c4_every_pair():
    sets = enumerate_min_semitotal_sets(generate("cycle", 4))
    assert len(sets) == 6
    assert all(len(s) == 2 for s in sets)


def test_enumerate_min_c6_members():
    sets = enumerate_min_semitotal_sets(generate("cycle", 6))
    assert vs(6, 0, 2, 4) in sets
    assert vs(6, 0, 1, 3) in sets
    assert sets == sorted(sets, key=lambda s: s.vertices())


@st.composite
def isolate_free_graphs(draw):
    n = draw(st.integers(2, 9))
    p = draw(st.sampled_from([0.3, 0.5, 0.7]))
    g = generate("random", n, p=p, seed=draw(st.integers(0, 5_000)))
    assume(g.is_isolate_free())
    return g


@given(isolate_free_graphs())
@settings(max_examples=80, deadline=None)
def test_enumerate_min_matches_brute_force(g):
    value = solve_oracle(g, "gamma_t2").value
    expected = [
        VertexSet.from_vertices(g.n, combo)
        for combo in combinations(range(g.n), value)
        if is_semitotal_dominating(g, VertexSet.from_vertices(g.n, combo))
    ]
    assert enumerate_min_semitotal_sets(g) == expected  # same order, no duplicates


@given(random_graphs)
@settings(max_examples=40, deadline=None)
def test_lexleast_matches_oracle_witness(g):
    if not g.is_isolate_free():
        return
    assert lexleast_min_semitotal_set(g) == solve_oracle(g, "gamma_t2").witness


@given(isolate_free_graphs(), st.data())
@settings(max_examples=40, deadline=None)
def test_lexleast_does_not_depend_on_starting_set(g, data):
    minimum = data.draw(st.sampled_from(enumerate_min_semitotal_sets(g)))
    assert lexleast_min_semitotal_set(g, minimum=minimum) == lexleast_min_semitotal_set(g)


def test_lexleast_rejects_invalid_starting_set():
    with pytest.raises(AssertionError, match="starting set"):
        lexleast_min_semitotal_set(generate("path", 4), minimum=vs(4, 0, 1))


def test_lexleast_rejects_a_starting_set_of_another_order():
    # {1, 2, 3, 4} on nine vertices reads as a semi-total dominating set of
    # P6 by its mask alone
    with pytest.raises(ValueError, match="different graph order"):
        lexleast_min_semitotal_set(generate("path", 6), minimum=vs(9, 1, 2, 3, 4))


def test_lexleast_trusts_the_minimality_of_its_starting_set():
    # a start above gamma_t2(P6) = 3 gives the least set of its own size
    g = generate("path", 6)
    assert lexleast_min_semitotal_set(g).vertices() == (0, 2, 4)
    assert lexleast_min_semitotal_set(g, minimum=vs(6, 1, 2, 3, 4)).vertices() == (0, 1, 2, 4)


# Lexleast sets beyond the oracle's limit, pinned so that a solver change
# cannot move them unnoticed.  They reach scan records through
# bound_violation findings.
PINNED_LEXLEAST = [
    (("path", 6), ("path", 6), (0, 1, 3, 11, 14, 18, 22, 23, 26, 30, 34)),
    (("cycle", 6), ("cycle", 6), (0, 2, 10, 13, 21, 23, 25, 34)),
    (("path", 7), ("cycle", 7), (0, 1, 4, 11, 16, 20, 21, 25, 30, 40, 41, 43, 45)),
]


@pytest.mark.parametrize("left,right,expected", PINNED_LEXLEAST)
def test_lexleast_pinned_beyond_oracle(left, right, expected):
    # with the product symmetry too, whose failed probes bar their orbits
    prod = cartesian_product(generate(*left), generate(*right))
    d = lexleast_min_semitotal_set(prod.graph)
    assert d.vertices() == expected
    assert len(d) == solve_bnb(prod.graph, "gamma_t2").value
    symmetry = product_symmetry(prod)
    assert lexleast_min_semitotal_set(prod.graph, symmetry=symmetry).vertices() == expected


# The search kernel


@st.composite
def feasibility_probes(draw):
    g = draw(isolate_free_graphs())
    n = g.n
    full = (1 << n) - 1
    chosen0 = draw(st.integers(0, full)) & draw(st.integers(0, full))
    excluded0 = draw(st.integers(0, full)) & ~chosen0
    budget = draw(st.integers(0, n))
    kind = draw(st.sampled_from(["gamma", "gamma_t", "gamma_t2"]))
    return g, kind, budget, chosen0, excluded0


@given(feasibility_probes())
@settings(max_examples=150, deadline=None)
def test_budgeted_feasible_mode_matches_brute_force(probe):
    g, kind, budget, chosen0, excluded0 = probe
    predicate = MASK_PREDICATES[kind]
    free = [v for v in range(g.n) if not (chosen0 | excluded0) >> v & 1]
    expected = any(
        predicate(g, chosen0 | sum(1 << v for v in extra))
        for k in range(chosen0.bit_count(), budget + 1)
        for extra in combinations(free, k - chosen0.bit_count())
    )
    mask = _search_kernel(
        g, _kernel_tables(g, kind), budget=budget, chosen0=chosen0, excluded0=excluded0
    )
    assert (mask is not None) == expected
    if mask is not None:
        assert mask & chosen0 == chosen0
        assert not mask & excluded0
        assert mask.bit_count() <= budget
        assert predicate(g, mask)


@given(isolate_free_graphs(), st.data())
@settings(max_examples=150, deadline=None)
def test_kernel_budget_is_tight(g, data):
    # m is the brute-force minimum completion of chosen0 avoiding excluded0:
    # the kernel must find a set at budget m and none at m - 1, so a lower
    # bound that overshoots by one fails here
    full = (1 << g.n) - 1
    chosen0 = data.draw(st.integers(0, full)) & data.draw(st.integers(0, full))
    excluded0 = data.draw(st.integers(0, full)) & data.draw(st.integers(0, full)) & ~chosen0
    free = [v for v in range(g.n) if not (chosen0 | excluded0) >> v & 1]
    for kind in ("gamma", "gamma_t", "gamma_t2"):
        predicate = MASK_PREDICATES[kind]
        m = next(
            (
                chosen0.bit_count() + k
                for k in range(len(free) + 1)
                for extra in combinations(free, k)
                if predicate(g, chosen0 | sum(1 << v for v in extra))
            ),
            None,
        )
        tables = _kernel_tables(g, kind)

        def probe(budget):
            return _search_kernel(g, tables, budget=budget, chosen0=chosen0, excluded0=excluded0)

        if m is None:
            assert probe(g.n) is None
            continue
        found = probe(m)
        assert found is not None and found.bit_count() == m and predicate(g, found), kind
        assert probe(m - 1) is None, kind


def test_root_with_a_group_stops_at_a_vertex_with_no_candidate():
    # with a group the root branches on the row that meets the fewest
    # orbits, here vertex 0's on P5 under the trivial group, so the root
    # itself must end the search when another uncovered vertex has no
    # candidate left: vertex 2, whose closed neighbourhood is excluded
    g = generate("path", 5)
    tables = _kernel_tables(g, "gamma_t2")
    kwargs = dict(budget=5, excluded0=0b01110, group=_trivial_symmetry(5))
    assert _search_kernel(g, tables, **kwargs) is None
    assert _search_calls(_search_kernel, g, tables, **kwargs) == 1


def _family_products(max_order):
    # K2 is P2 and K3 is C3, so the complete graphs start at K4
    factors = [("path", n) for n in range(2, 22)]
    factors += [("cycle", n) for n in range(3, 15)] + [("complete", n) for n in range(4, 22)]
    return [(a, b) for a in factors for b in factors if a[1] * b[1] <= max_order]


def _trivial_symmetry(n):
    return Symmetry(tuple(1 << v for v in range(n)), lambda r: [])


def test_orbit_root_keeps_the_value():
    # on every path, cycle and complete product of at most 42 vertices the
    # value with the product symmetry (root orbits and stabilisers below)
    # is the unrooted one, and the oracle's up to 20 vertices, where the
    # trivial symmetry also gives the unrooted witness for every kind
    values = {}
    for left, right in _family_products(42):
        prod = cartesian_product(generate(*left), generate(*right))
        g = prod.graph
        rooted = solve_bnb(g, "gamma_t2", symmetry=product_symmetry(prod))
        key = frozenset((left, right))  # G x H and H x G are isomorphic
        if key not in values:
            values[key] = solve_bnb(g, "gamma_t2").value
            if g.n <= 20:
                assert solve_oracle(g, "gamma_t2").value == values[key], (left, right)
        assert rooted.value == values[key], (left, right)
        if g.n <= 20:
            for kind in ("gamma", "gamma_t", "gamma_t2"):
                plain = solve_bnb(g, kind)
                trivial = solve_bnb(g, kind, symmetry=_trivial_symmetry(g.n))
                assert trivial == plain, (left, right, kind)
                assert solve_bnb(g, kind, symmetry=product_symmetry(prod)).value == plain.value


def _mirrored_random(n, seed):
    """A random graph closed under the reversal v -> n - 1 - v, which fixes
    the middle vertex when n is odd."""
    rng = random.Random(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.35]
    edges += [(n - 1 - i, n - 1 - j) for i, j in edges]
    return from_edge_list(n, edges)


def test_stabiliser_branching_keeps_the_value_off_the_transitive_families():
    # random G x P3 and G x C3, and G x G and G x P3 with G closed under
    # the reversal, on 21 to 36 vertices: no factor but C3 is
    # vertex-transitive, yet the nodes below the root carry stabilisers
    # (P3's reversal fixes its middle, C3's reflections fix a vertex each,
    # the swap fixes the diagonal); every kind's value is the unrooted one
    products = []
    for seed in range(40):
        g = generate("random", 7 + seed % 6, p=0.35, seed=seed)
        if g.is_isolate_free():
            products += [(g, generate("path", 3)), (g, generate("cycle", 3))]
    for seed in range(16):
        g = _mirrored_random((5, 6, 7, 9, 11, 12)[seed % 6], seed)
        products.append((g, g) if g.n <= 6 else (g, generate("path", 3)))
    assert len(products) >= 50
    carried = 0
    for g, h in products:
        prod = cartesian_product(g, h)
        assert 21 <= prod.graph.n <= 36
        symmetry = product_symmetry(prod)

        def stabiliser(r, symmetry=symmetry):
            nonlocal carried
            perms = symmetry.stabiliser(r)
            carried += bool(perms)
            return perms

        for kind in ("gamma", "gamma_t", "gamma_t2"):
            rooted = solve_bnb(prod.graph, kind, symmetry=Symmetry(symmetry.orbits, stabiliser))
            assert rooted.value == solve_bnb(prod.graph, kind).value, (g.adj, h.adj, kind)
    assert carried >= 300, carried


def test_stabiliser_element_that_moves_its_point_or_an_orbit_raises():
    # the solver's own check on what a symmetry hands it, under python -O
    # too: P3 x C7 has two orbits, the rows over P3's ends and the row over
    # its middle
    prod = cartesian_product(generate("path", 3), generate("cycle", 7))
    orbits = product_symmetry(prod).orbits
    rotate = tuple(x * 7 + (y + 1) % 7 for x in range(3) for y in range(7))

    def swap_across(r):  # a transposition of two vertices in different orbits
        a, b = (next(v for v in range(21) if v != r and orbit >> v & 1) for orbit in orbits)
        perm = list(range(21))
        perm[a], perm[b] = b, a
        return [tuple(perm)]

    for stabiliser in (lambda r: [rotate], swap_across):
        symmetry = Symmetry(orbits, stabiliser)
        with pytest.raises(AssertionError, match="moves"):
            solve_bnb(prod.graph, "gamma_t2", symmetry=symmetry)
        with pytest.raises(AssertionError, match="moves"):
            lexleast_min_semitotal_set(prod.graph, symmetry=symmetry)


def test_stabiliser_element_that_is_not_an_automorphism_raises(monkeypatch):
    # factor maps that fix a by swapping a + 1 and a + 2 of C7, which
    # breaks adjacency, must not build a stabiliser, under python -O too
    import semitotal.graphs

    def maps(n, shift, reversal, a, b):
        perm = list(range(n))
        i, j = (a + 1) % n, (a + 2) % n
        perm[i], perm[j] = j, i
        return [tuple(range(n)), tuple(perm)] if a == b else []

    monkeypatch.setattr(semitotal.graphs, "_dihedral_maps", maps)
    prod = cartesian_product(generate("cycle", 7), generate("cycle", 7))
    with pytest.raises(AssertionError, match="non-automorphism"):
        solve_bnb(prod.graph, "gamma_t2", symmetry=product_symmetry(prod))


@pytest.mark.parametrize(
    "left,right",
    [("DFw", "E`HW"), ("DFw", "EC\\w"), ("C~", "EC\\o")],
    ids=["5x6-a", "5x6-b", "4x6"],
)
def test_orbit_root_witness_gives_the_lexleast_set(left, right):
    # products whose rooted witness is not the unrooted one (none of the
    # path, cycle and complete products above is, and of the connected
    # catalog products with 4-6 left and 6 right vertices only five are);
    # lexleast started from either builds the same set
    prod = cartesian_product(parse_graph6(left), parse_graph6(right))
    rooted = solve_bnb(prod.graph, "gamma_t2", symmetry=product_symmetry(prod))
    plain = solve_bnb(prod.graph, "gamma_t2")
    assert rooted.value == plain.value
    assert rooted.witness != plain.witness
    assert lexleast_min_semitotal_set(prod.graph, minimum=rooted.witness) == (
        lexleast_min_semitotal_set(prod.graph)
    )


def test_lexleast_with_the_product_symmetry_gives_the_same_set():
    # failed probes bar their orbits, and the set is the plain scan's: on
    # every path, cycle and complete product of 21 to 36 vertices, on
    # random G on 10 to 12 vertices x P2, P3 and C3 (the shapes of the
    # replayed random pairs) and on catalog G x G on 5 and 6 vertices,
    # whose symmetry holds the factor swap
    products = [(generate(*a), generate(*b)) for a, b in _family_products(36) if a[1] * b[1] >= 21]
    rights = [generate("path", 2), generate("path", 3), generate("cycle", 3)]
    lefts = [generate("random", 10 + seed % 3, p=0.3, seed=seed) for seed in range(40)]
    products += [(g, h) for g in lefts if g.is_isolate_free() for h in rights]
    products += [(g, g) for n in (5, 6) for g in connected_graphs(n)]
    assert len(products) >= 300
    for g, h in products:
        prod = cartesian_product(g, h)
        symmetry = product_symmetry(prod)
        minimum = solve_bnb(prod.graph, "gamma_t2", symmetry=symmetry).witness
        barred = lexleast_min_semitotal_set(prod.graph, minimum=minimum, symmetry=symmetry)
        assert barred == lexleast_min_semitotal_set(prod.graph, minimum=minimum), (g.adj, h.adj)


def test_lexleast_probe_with_a_group_answers_as_without(monkeypatch):
    # each budgeted-feasible probe that searches over a stabiliser's orbits
    # is run again without it: the two must agree on whether a set exists,
    # and a set found is within budget and keeps the probe's constraints.
    # Path and cycle products of 21 to 36 vertices, and random G on 10 to
    # 12 vertices x P2, P3 and C3
    nontrivial = 0  # probes whose group moves some vertex

    def checked(g, tables, **kw):
        nonlocal nontrivial
        found = _search_kernel(g, tables, **kw)
        group = kw.get("group")
        if group is None or "incumbent" in kw:  # not a budgeted-feasible call with a group
            return found
        plain = _search_kernel(g, tables, **{**kw, "group": None})
        assert (found is None) == (plain is None), (g.adj, kw["chosen0"], kw["excluded0"])
        if found is not None:
            assert found & kw["chosen0"] == kw["chosen0"] and not found & kw["excluded0"]
            assert found.bit_count() <= kw["budget"] and MASK_PREDICATES["gamma_t2"](g, found)
        nontrivial += any(group.orbit(w) != 1 << w for w in range(g.n))
        return found

    monkeypatch.setattr(semitotal.solvers, "_search_kernel", checked)
    families = [a for a in _family_products(36) if a[0][0] != "complete" and a[1][0] != "complete"]
    products = [(generate(*a), generate(*b)) for a, b in families if a[1] * b[1] >= 21]
    rights = [generate("path", 2), generate("path", 3), generate("cycle", 3)]
    lefts = [generate("random", 10 + seed % 3, p=0.3, seed=seed) for seed in range(40)]
    products += [(g, h) for g in lefts if g.is_isolate_free() for h in rights]
    for g, h in products:
        prod = cartesian_product(g, h)
        lexleast_min_semitotal_set(prod.graph, symmetry=product_symmetry(prod))
    assert nontrivial >= 300


def test_lexleast_with_a_forced_symmetry_matches_the_oracle():
    # below the order from which verify_pair passes the symmetry: every
    # path, cycle and complete product of at most 20 vertices, and catalog
    # G x G on 3 and 4 vertices
    products = [(generate(*a), generate(*b)) for a, b in _family_products(20)]
    products += [(g, g) for n in (3, 4) for g in connected_graphs(n)]
    for g, h in products:
        prod = cartesian_product(g, h)
        barred = lexleast_min_semitotal_set(prod.graph, symmetry=product_symmetry(prod))
        assert barred == solve_oracle(prod.graph, "gamma_t2").witness, (g.adj, h.adj)


def test_orbit_root_rejects_orbits_that_do_not_partition():
    # overlapping orbits fail in Symmetry, orbits of another order in the
    # solve that reads them
    g = generate("cycle", 4)
    for orbits in [(0b0111,), (0b0111, 0b1100), (0b0011, 0b1100, 0b10000)]:
        for solve in (partial(solve_bnb, g, "gamma_t2"), partial(lexleast_min_semitotal_set, g)):
            with pytest.raises(ValueError, match="orbits"):
                solve(symmetry=Symmetry(orbits, lambda r: []))


def test_one_symmetry_builds_each_stabiliser_once():
    # the product solve and then lexleast from its witness read one
    # symmetry, which calls its builder once per point and keeps the result
    prod = cartesian_product(generate("cycle", 7), generate("path", 3))
    builder = product_symmetry(prod)
    builds = Counter()

    def counting(r):
        builds[r] += 1
        return builder.stabiliser(r)

    symmetry = Symmetry(builder.orbits, counting)
    minimum = solve_bnb(prod.graph, "gamma_t2", symmetry=symmetry).witness
    lexleast_min_semitotal_set(prod.graph, minimum=minimum, symmetry=symmetry)
    assert builds and set(builds.values()) == {1}, builds


def _search_calls(fn, *args, **kwargs):
    """Calls of the kernel's ``search`` closure during fn(*args, **kwargs),
    counted with a profile hook."""
    code = _search_kernel.__code__
    search = next(c for c in code.co_consts if getattr(c, "co_name", None) == "search")
    count = 0

    def hook(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code is search:
            count += 1

    sys.setprofile(hook)
    try:
        fn(*args, **kwargs)
    finally:
        sys.setprofile(None)
    return count


@pytest.mark.parametrize(
    "left,right,symmetric,ceiling",
    [
        (("path", 6), ("path", 6), False, 8_994),
        (("cycle", 7), ("path", 6), False, 11_744),
        (("path", 12), ("path", 3), True, 1_747),
        (("path", 7), ("cycle", 5), True, 1_841),
        (("cycle", 9), ("cycle", 4), True, 3_077),
    ],
)
def test_lexleast_search_node_ceiling(left, right, symmetric, ceiling):
    # deterministic performance guard: node counts of the partner-aware
    # counting bound (the degree bound alone visits 9,786 and 15,495).
    # With the product symmetry a failed probe bars its orbit and a probe
    # searches over the stabiliser's orbits, as does the starting solve:
    # the last three visit 1,642, 1,801 and 1,949 nodes, and 2,257, 2,428
    # and 3,487 without it
    prod = cartesian_product(generate(*left), generate(*right))
    symmetry = product_symmetry(prod) if symmetric else None
    assert _search_calls(lexleast_min_semitotal_set, prod.graph, symmetry=symmetry) <= ceiling


@pytest.mark.parametrize(
    "left,right,ceiling",
    [
        (("path", 7), ("path", 7), 12_207),
        (("path", 7), ("cycle", 7), 5_062),
        (("cycle", 7), ("path", 7), 2_522),
        (("cycle", 7), ("cycle", 7), 7_259),
        (("g6", "IG_O??Bo_"), ("path", 3), 705),
    ],
)
def test_product_solve_search_node_ceiling(left, right, ceiling):
    # deterministic performance guard for orbital branching: these visit
    # 12,189, 5,043, 2,503, 7,240 and 686 nodes; with orbits at the root
    # only 12,188, 5,744, 3,803 and 31,810 (a product of paths has almost
    # no symmetry below the root); unrooted 28,118, 13,194, 13,433 and
    # 111,379.  The root branches on the cover row that meets the fewest
    # orbits: on the 10-vertex random factor x P3, the row with the fewest
    # candidates would take 1,261 nodes
    factors = [parse_graph6(f[1]) if f[0] == "g6" else generate(*f) for f in (left, right)]
    prod = cartesian_product(*factors)
    symmetry = product_symmetry(prod)
    assert _search_calls(solve_bnb, prod.graph, "gamma_t2", symmetry=symmetry) <= ceiling


def test_candidate_order_is_pinned():
    # a node tries its candidates by degree descending, least index on
    # ties; these products lie above the oracle limit and have degree ties,
    # so a tie broken another way moves a witness or a count.  The pins are
    # equalities, not ceilings: update them, with the reason in CHANGES.md,
    # only in a change that alters the order on purpose
    witnesses = {
        (("path", 7), ("path", 7)): (0x884412904422, 0x990099320132, 0x138844222522),
        (("cycle", 7), ("path", 6)): (0x44448480B2, 0x32184C033, 0x8854068092),
        (("g6", "IG_O??Bo_"), ("path", 3)): (0x2A412480, 0x12492492, 0x3A412480),
    }
    for factors, masks in witnesses.items():
        prod = cartesian_product(*(parse_graph6(f[1]) if f[0] == "g6" else generate(*f) for f in factors))
        for kind, mask in zip(("gamma", "gamma_t", "gamma_t2"), masks):
            assert solve_bnb(prod.graph, kind).witness.mask == mask, (factors, kind)
    prod = cartesian_product(parse_graph6("IG_O??Bo_"), generate("path", 3))
    assert _search_calls(solve_bnb, prod.graph, "gamma_t2", symmetry=product_symmetry(prod)) == 686
    prod = cartesian_product(generate("path", 12), generate("path", 3))
    symmetry = product_symmetry(prod)
    assert _search_calls(lexleast_min_semitotal_set, prod.graph, symmetry=symmetry) == 1_642
    prod = cartesian_product(parse_graph6("IG_O??Bo_"), generate("cycle", 3))
    symmetry = product_symmetry(prod)
    assert _search_calls(lexleast_min_semitotal_set, prod.graph, symmetry=symmetry) == 16_005


def test_solve_bnb_rejects_invalid_kernel_witness(monkeypatch):
    monkeypatch.setattr(semitotal.solvers, "_search_kernel", lambda g, tables, **kw: 1)
    with pytest.raises(AssertionError, match="invalid gamma witness"):
        solve_bnb(generate("path", 5), "gamma")


def test_solve_bnb_witness_check_survives_optimize_flag():
    # python -O strips assert statements; the witness check, the checks on
    # orbit merges and stabiliser elements and the check on
    # max_allied_set's set list must not be ones
    src = str(Path(semitotal.__file__).resolve().parent.parent)
    proofs_test = Path(__file__).with_name("test_proofs.py")
    graphs_test = Path(__file__).with_name("test_graphs.py")
    proc = subprocess.run(
        [
            sys.executable,
            "-O",
            "-m",
            "pytest",
            "-q",
            "-p",
            "no:cacheprovider",
            f"{__file__}::test_solve_bnb_rejects_invalid_kernel_witness",
            f"{__file__}::test_stabiliser_element_that_moves_its_point_or_an_orbit_raises",
            f"{__file__}::test_stabiliser_element_that_is_not_an_automorphism_raises",
            f"{proofs_test}::test_max_allied_set_rejects_empty_set_list",
            f"{graphs_test}::test_automorphism_orbits_refuse_a_merge_that_breaks_adjacency",
        ],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0 and "5 passed" in proc.stdout, proc.stdout + proc.stderr


small_factor = st.builds(
    lambda n, p, seed: generate("random", n, p=p, seed=seed),
    st.integers(2, 5),
    st.sampled_from([0.4, 0.6, 0.8]),
    st.integers(0, 3_000),
)


@given(small_factor, small_factor)
@settings(max_examples=40, deadline=None)
def test_third_bound_holds_on_random_factor_pairs(g, h):
    if not (g.is_isolate_free() and h.is_isolate_free()):
        return
    kg = solve_bnb(g, "gamma_t2").value
    kh = solve_bnb(h, "gamma_t2").value
    kp = solve_bnb(cartesian_product(g, h).graph, "gamma_t2").value
    assert 3 * kp >= kg * kh


def _milp_gamma_t2(adj: list[set[int]]) -> int:
    """gamma_t2 as a 0/1 program: every closed neighbourhood holds a member,
    and every member has another member within distance 2."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    n = len(adj)
    closed = [adj[v] | {v} for v in range(n)]
    rows = np.zeros((2 * n, n))
    for v in range(n):
        rows[v, list(closed[v])] = 1
        partners = set().union(*(closed[u] for u in closed[v])) - {v}
        rows[n + v, list(partners)] = 1
        rows[n + v, v] = -1
    lower = [1] * n + [0] * n
    res = milp(
        c=np.ones(n),
        constraints=LinearConstraint(rows, lower, np.inf),
        integrality=np.ones(n),
        bounds=Bounds(0, 1),
    )
    assert res.success, res.message
    return round(res.fun)


@pytest.mark.parametrize("n,expected", [(18, 12), (20, 14)])
def test_ladder_value_matches_milp_beyond_oracle(n, expected):
    # P_n x P_2 on 2n > ORACLE_VERTEX_LIMIT vertices; the MILP reads an
    # adjacency built here, with vertex (a, b) at 2a + b
    from semitotal import ScanOptions, verify_pair

    pytest.importorskip("scipy")
    edges = [(2 * a, 2 * a + 1) for a in range(n)]
    edges += [(2 * a + b, 2 * a + 2 + b) for a in range(n - 1) for b in (0, 1)]
    adj = [set() for _ in range(2 * n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    record = verify_pair(
        generate("path", n), generate("path", 2), ScanOptions(replay=False, workers=1)
    )
    assert record.gamma_t2_prod == _milp_gamma_t2(adj) == expected
