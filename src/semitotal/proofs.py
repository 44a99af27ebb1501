"""Constructions underlying the product lower bound, materialized so every
step can be checked on concrete instances.

For a factor graph G with a maximum allied minimum semi-total dominating set
U = {u_1..u_k} (allied members first), the machinery builds:

  * the cell partition of V(G): one cell per u_i, allied cells inside the
    open neighborhood of u_i, free cells inside the closed one, with a
    distance-2 exclusion rule between allied and free cells that holds by
    construction (allied cells are tried first) and that
    ``cell_partition_violations`` checks;
  * per-cell projection profiles of a product dominating set d onto H
    (projection / missing / covered / uncovered height sets);
  * the double-counting index of (cell, height) pairs that are horizontally
    dominated or uncovered, one mask of cells per height, counted by rows
    and by columns;
  * a per-column replacement semi-total dominating set of G witnessing the
    column bound |R^v| <= 2|D^v|;
  * per-cell connector sets turning missing+projection into a semi-total
    dominating set of H.

All tie-breaking (cell assignment, neighbor choice, path midpoints) is
least-index so findings replay exactly.  Checks report failures; they never
patch them.  Bad input to a public stage raises ``ValueError``, a broken
internal invariant ``AssertionError``.  Neighbourhoods, partner masks and
the product's rows, columns and projections are read from ``graphs``,
never re-derived here.
"""

from dataclasses import dataclass

from .graphs import Graph, ProductGraph, VertexSet, _bits
from .solvers import (
    is_semitotal_dominating,
    _semitotal_dominating_mask,
    enumerate_min_semitotal_sets,
    solve_bnb,
)


@dataclass(frozen=True)
class AlliedPartition:
    """A minimum semi-total dominating set split into allied and free members.

    ``order`` lists the members with allied vertices first (ascending), then
    free vertices (ascending); cells and index sets are parallel to it.
    """

    members: VertexSet
    allied: VertexSet
    free: VertexSet
    order: tuple[int, ...]

    @property
    def allied_count(self) -> int:
        return len(self.allied)

    @property
    def free_count(self) -> int:
        return len(self.free)

    @property
    def size(self) -> int:
        return len(self.order)


def allied_split(g: Graph, u: VertexSet) -> AlliedPartition:
    """Split a minimum semi-total dominating set into allied/free members.

    A member is allied when it is adjacent to another member; rejected inputs
    name the failed predicate.
    """
    if not is_semitotal_dominating(g, u):
        raise ValueError("allied_split: set failed predicate is_semitotal_dominating")
    minimum = solve_bnb(g, "gamma_t2").value
    if len(u) != minimum:
        raise ValueError(
            f"allied_split: set of size {len(u)} is not minimum (gamma_t2 = {minimum})"
        )
    return _allied_partition(g, u)


def _allied_partition(g: Graph, u: VertexSet) -> AlliedPartition:
    """The split of ``allied_split``, for a set already known to be minimum."""
    allied_mask = u.mask & g.neighborhood(u.mask)
    free_mask = u.mask & ~allied_mask
    order = tuple(_bits(allied_mask)) + tuple(_bits(free_mask))
    return AlliedPartition(
        members=u,
        allied=VertexSet(g.n, allied_mask),
        free=VertexSet(g.n, free_mask),
        order=order,
    )


def max_allied_set(g: Graph, *, gamma_t2: int | None = None) -> AlliedPartition:
    """Over all minimum semi-total dominating sets, the one with the largest
    allied part; ties go to the lexicographically least set.  The
    enumeration has checked every set, so the split skips ``allied_split``'s
    checks.  ``gamma_t2``, when the caller knows it, is passed on to
    ``enumerate_min_semitotal_sets``."""
    best = None
    best_allied = -1
    for u in enumerate_min_semitotal_sets(g, gamma_t2=gamma_t2):
        allied = (u.mask & g.neighborhood(u.mask)).bit_count()
        if allied > best_allied:
            best, best_allied = u, allied
    if best is None:
        raise AssertionError("max_allied_set: the graph has no minimum semi-total dominating set")
    return _allied_partition(g, best)


def build_cell_partition(g: Graph, ap: AlliedPartition) -> tuple[VertexSet, ...]:
    """Assign every vertex of G to a cell, least admissible index first; the
    cells are parallel to ``ap.order``.

    Free members sit in their own cells; every other vertex, allied members
    included, joins the first cell in ``ap.order`` whose owner it neighbors.
    Allied cells come first in that order, so a vertex next to an allied
    member never reaches a free cell, and the distance-2 exclusion between
    allied and free cells holds by construction; ``cell_partition_violations``
    checks it.  When ``ap.members`` dominates G every vertex has a cell; a
    hand-built partition whose members do not raises ``ValueError``.
    """
    order = ap.order
    cells = [0] * len(order)
    for pos in range(ap.allied_count, len(order)):
        cells[pos] = 1 << order[pos]
    # each owner in turn takes its neighbours that no earlier owner took
    unassigned = ((1 << g.n) - 1) & ~ap.free.mask
    for pos, owner in enumerate(order):
        cells[pos] |= g.adj[owner] & unassigned
        unassigned &= ~g.adj[owner]
    if unassigned:
        w = (unassigned & -unassigned).bit_length() - 1
        raise ValueError(f"build_cell_partition: no admissible cell for vertex {w}")
    return tuple(VertexSet(g.n, m) for m in cells)


def cell_partition_violations(
    g: Graph, ap: AlliedPartition, cells: tuple[VertexSet, ...]
) -> list[str]:
    """Check the three cell-partition invariants; returns violation strings."""
    order = ap.order
    ell = ap.allied_count
    problems = []
    if len(cells) != len(order):
        return [f"partition has {len(cells)} cells for {len(order)} members"]
    union = 0
    for i, cell in enumerate(cells):
        if union & cell.mask:
            problems.append(f"cell {i} overlaps an earlier cell")
        union |= cell.mask
    if union != (1 << g.n) - 1:
        problems.append("cells do not cover every vertex")
    for i, cell in enumerate(cells):
        owner = order[i]
        if i < ell:
            if cell.mask & ~g.adj[owner]:
                problems.append(f"allied cell {i} leaves the open neighborhood of {owner}")
        else:
            if cell.mask & ~g.closed[owner]:
                problems.append(f"free cell {i} leaves the closed neighborhood of {owner}")
            if not cell.mask >> owner & 1:
                problems.append(f"free cell {i} does not contain its owner {owner}")
    for i in range(ell):
        a = order[i]
        for j in range(ell, len(order)):
            b = order[j]
            if not g.closed[a] >> b & 1 and g.adj[a] & g.adj[b] & cells[j].mask:
                problems.append(
                    f"distance-2 exclusion violated between allied {a} and free {b}"
                )
    return problems


@dataclass(frozen=True)
class CellProfile:
    """Shadow of the product dominating set on H, restricted to one cell.

    ``projection`` holds the heights carrying set members over the cell,
    ``missing`` the heights the projection fails to dominate in H,
    ``covered``/``uncovered`` split the projection by whether another
    projection-or-missing height sits within distance 2.
    """

    index: int
    members: VertexSet  # in the product
    projection: VertexSet  # in H
    missing: VertexSet
    covered: VertexSet
    uncovered: VertexSet


def project_profiles(
    prod: ProductGraph, d: VertexSet, cells: tuple[VertexSet, ...]
) -> tuple[CellProfile, ...]:
    """One profile per cell, computed from H-distances."""
    pg = prod.graph
    if d.n != pg.n:
        raise ValueError("product set bound to a different graph order")
    if not _semitotal_dominating_mask(pg, d.mask):
        raise ValueError("project_profiles: set failed predicate is_semitotal_dominating")
    h = prod.right
    full_h = (1 << h.n) - 1
    profiles = []
    for i, cell in enumerate(cells):
        if cell.n != prod.n_g:
            raise ValueError("cell partition bound to a different factor order")
        members = d.mask & prod.rows(cell.mask)
        proj = prod.project_right(members)
        missing = full_h & ~(proj | h.neighborhood(proj))
        covered = sum(1 << v for v in _bits(proj) if (proj | missing) & h.partners[v])
        uncovered = proj & ~covered
        profiles.append(
            CellProfile(
                index=i,
                members=VertexSet(pg.n, members),
                projection=VertexSet(h.n, proj),
                missing=VertexSet(h.n, missing),
                covered=VertexSet(h.n, covered),
                uncovered=VertexSet(h.n, uncovered),
            )
        )
    return tuple(profiles)


@dataclass(frozen=True)
class CoverIndex:
    """Double-counting index over (cell, height) pairs.

    Cell i is indexed at height v when the cell's slab at that height is
    horizontally dominated by the height's set members, or the height is
    uncovered for the cell.  ``indexed[v]`` is the mask of the cell
    positions (in ``ap.order``) indexed at height v.  ``row_counts`` and
    ``col_counts`` count the same pairs two ways, so their sums agree
    exactly.
    """

    indexed: tuple[int, ...]
    row_counts: tuple[int, ...]
    col_counts: tuple[int, ...]
    total: int


def build_cover_index(
    prod: ProductGraph,
    d: VertexSet,
    cells: tuple[VertexSet, ...],
    profiles: tuple[CellProfile, ...],
) -> CoverIndex:
    cell_rows = [prod.rows(cell.mask) for cell in cells]
    indexed = []
    for v, col in enumerate(prod.col_masks):
        horizon = prod.graph.neighborhood(d.mask & col)
        at_v = 0
        for i, rows in enumerate(cell_rows):
            if rows & col & ~horizon == 0 or profiles[i].uncovered.mask >> v & 1:
                at_v |= 1 << i
        indexed.append(at_v)
    row_counts = tuple(sum(at_v >> i & 1 for at_v in indexed) for i in range(len(cell_rows)))
    col_counts = tuple(at_v.bit_count() for at_v in indexed)
    total = sum(col_counts)
    if sum(row_counts) != total:
        raise AssertionError(f"cover index counts disagree: rows {sum(row_counts)}, columns {total}")
    return CoverIndex(
        indexed=tuple(indexed),
        row_counts=row_counts,
        col_counts=col_counts,
        total=total,
    )


def build_column_witness(
    prod: ProductGraph,
    d: VertexSet,
    ap: AlliedPartition,
    cells: tuple[VertexSet, ...],
    v: int,
    cover: CoverIndex,
) -> VertexSet:
    """Replacement semi-total dominating set of G assembled from column v.

    Union of: the G-projection of the column's members; owners of cells not
    indexed at v; one chosen neighbor for each free owner that appears in the
    projection; and free owners indexed at v that sit at distance 2 from
    another free member but at distance 3 or more from every allied member.
    """
    g = prod.left
    if not 0 <= v < prod.n_h:
        raise ValueError(f"height {v} outside factor range")
    order = ap.order
    k = len(order)
    ell = ap.allied_count
    indexed = cover.indexed[v]
    projection_g = prod.project_left(d.mask & prod.col_masks[v])
    witness = projection_g
    for i in range(k):
        if not indexed >> i & 1:
            witness |= 1 << order[i]
    # Chosen neighbors: free owners that appear in the projection still need
    # a partner; prefer a neighbor inside the owner's own cell.
    for i in range(ell, k):
        owner = order[i]
        if indexed >> i & 1 or not projection_g >> owner & 1:
            continue
        candidates = g.adj[owner] & cells[i].mask
        if not candidates:
            candidates = g.adj[owner]
        witness |= candidates & -candidates  # least-index neighbor
    # Free owners indexed at v, joined when far from every allied member but
    # at distance 2 from another free member.
    for j in range(ell, k):
        owner = order[j]
        if not indexed >> j & 1:
            continue
        ball = g.ball2(owner)
        near_free = ball & ~g.closed[owner] & ap.free.mask
        far_from_allied = not ball & ap.allied.mask
        if near_free and far_from_allied:
            witness |= 1 << owner
    return VertexSet(g.n, witness)


@dataclass(frozen=True)
class ColumnCheck:
    column: int
    indexed_rows: int  # |R^v|
    column_set_size: int  # |D^v|
    inequality_ok: bool  # |R^v| <= 2 |D^v|
    witness: VertexSet
    witness_valid: bool
    witness_size_ok: bool  # |T| <= 2|D^v| + gamma_t2(G) - |R^v|

    @property
    def ok(self) -> bool:
        return self.inequality_ok and self.witness_valid and self.witness_size_ok


def check_column_bounds(
    prod: ProductGraph,
    d: VertexSet,
    ap: AlliedPartition,
    cells: tuple[VertexSet, ...],
    cover: CoverIndex,
) -> tuple[ColumnCheck, ...]:
    """Per-column bound |R^v| <= 2|D^v| plus witness validation.

    The bound's contradiction frame assumes d is a minimum semi-total
    dominating set of the product; callers pass the lexleast one.
    """
    g = prod.left
    gamma_g = ap.size
    checks = []
    for v in range(prod.n_h):
        rv = cover.col_counts[v]
        dv = (d.mask & prod.col_masks[v]).bit_count()
        witness = build_column_witness(prod, d, ap, cells, v, cover)
        valid = is_semitotal_dominating(g, witness)
        size_ok = len(witness) <= 2 * dv + gamma_g - rv
        checks.append(
            ColumnCheck(
                column=v,
                indexed_rows=rv,
                column_set_size=dv,
                inequality_ok=rv <= 2 * dv,
                witness=witness,
                witness_valid=valid,
                witness_size_ok=size_ok,
            )
        )
    return tuple(checks)


@dataclass(frozen=True)
class ConnectorResult:
    """Connector heights joining far-apart uncovered vertices of one cell.

    ``base_valid`` records whether missing + projection + connectors is a
    semi-total dominating set of H; a failure is an edge-case finding, not
    an implementation error.
    """

    connectors: VertexSet
    base_valid: bool


def build_connector_set(h: Graph, profile: CellProfile) -> ConnectorResult:
    """Greedy connectors: one midpoint per spanning-forest edge of the
    distance-exactly-3 graph on the cell's uncovered heights."""
    uncovered = profile.uncovered.vertices()
    parent = {x: x for x in uncovered}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    connectors = 0
    for ai in range(len(uncovered)):
        for bi in range(ai + 1, len(uncovered)):
            x, y = uncovered[ai], uncovered[bi]
            ball_x = h.ball2(x)
            if ball_x >> y & 1 or not ball_x & h.closed[y]:
                continue  # not at distance exactly 3
            rx, ry = find(x), find(y)
            if rx == ry:
                continue
            parent[rx] = ry
            midpoints = ball_x & h.ball2(y)
            connectors |= midpoints & -midpoints  # least-index midpoint
    if connectors.bit_count() > max(len(uncovered) - 1, 0):
        raise AssertionError(
            f"cell {profile.index}: {connectors.bit_count()} connectors for "
            f"{len(uncovered)} uncovered heights"
        )
    base = profile.missing.mask | profile.projection.mask | connectors
    valid = _semitotal_dominating_mask(h, base)
    return ConnectorResult(connectors=VertexSet(h.n, connectors), base_valid=valid)


@dataclass(frozen=True)
class CountingChecks:
    """The three counting inequalities and their chained consequence."""

    index_total: int  # N
    cell_sum: int  # sum over cells of |missing| + |uncovered|
    set_size: int  # |d|
    eq1_ok: bool  # N >= cell_sum
    eq2_ok: bool  # N <= 2 |d|
    eq3_ok: bool  # cell_sum >= gamma_t2(G) gamma_t2(H) - |d|
    chain_ok: bool  # 3 |d| >= gamma_t2(G) gamma_t2(H)


def counting_checks(
    profiles: tuple[CellProfile, ...],
    cover: CoverIndex,
    d_size: int,
    gamma_g: int,
    gamma_h: int,
) -> CountingChecks:
    cell_sum = sum(len(p.missing) + len(p.uncovered) for p in profiles)
    target = gamma_g * gamma_h
    return CountingChecks(
        index_total=cover.total,
        cell_sum=cell_sum,
        set_size=d_size,
        eq1_ok=cover.total >= cell_sum,
        eq2_ok=cover.total <= 2 * d_size,
        eq3_ok=cell_sum >= target - d_size,
        chain_ok=3 * d_size >= target,
    )
