"""Bitset-backed immutable graphs: vertex sets, generators, distances, products.

Graphs live on vertices 0..n-1 with adjacency stored as one integer bitmask
per vertex.  This module is the one place that computes masks: the open
neighbourhood of a set (``Graph.neighborhood``), closed neighbourhoods
(``closed``), the semi-total partners within distance 2 (``partners``,
``ball2``), the product's flat-index layout (``ProductGraph.rows``,
``project_left``, ``project_right``, ``col_masks``) and the symmetry of a
product that the searches read (``product_symmetry``, a checked
``Symmetry``): orbits of the group A that each factor's shift, reversal and
twin swaps generate, and point stabilisers in its subgroup B that the shift
and reversal generate.
``dist`` runs one breadth-first search per call, and disconnected pairs
carry the ``INF`` sentinel.
"""

import math
import random
from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import partial

INF = math.inf

# Guard on product allocation, not a comfort promise.
PRODUCT_SIZE_CAP = 4096

FAMILIES = ("path", "cycle", "complete", "star", "random")


def _bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class VertexSet:
    """Immutable set of vertices of an n-vertex graph, stored as a bitmask."""

    __slots__ = ("n", "mask")

    def __init__(self, n: int, mask: int = 0):
        if n < 0:
            raise ValueError(f"negative vertex range {n}")
        if mask < 0 or mask >> n:
            raise ValueError(f"vertex set mask {mask:#x} has members outside 0..{n - 1}")
        self.n = n
        self.mask = mask

    @classmethod
    def from_vertices(cls, n: int, vertices: Iterable[int]) -> "VertexSet":
        mask = 0
        for v in vertices:
            if not 0 <= v < n:
                raise ValueError(f"vertex {v} outside 0..{n - 1}")
            mask |= 1 << v
        return cls(n, mask)

    @classmethod
    def universe(cls, n: int) -> "VertexSet":
        return cls(n, (1 << n) - 1)

    def vertices(self) -> tuple[int, ...]:
        return tuple(_bits(self.mask))

    def _check_same_range(self, other: "VertexSet") -> None:
        if self.n != other.n:
            raise ValueError(f"vertex sets over different ranges ({self.n} vs {other.n})")

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.n and bool(self.mask >> v & 1)

    def __iter__(self) -> Iterator[int]:
        return _bits(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __or__(self, other: "VertexSet") -> "VertexSet":
        self._check_same_range(other)
        return VertexSet(self.n, self.mask | other.mask)

    def __and__(self, other: "VertexSet") -> "VertexSet":
        self._check_same_range(other)
        return VertexSet(self.n, self.mask & other.mask)

    def __sub__(self, other: "VertexSet") -> "VertexSet":
        self._check_same_range(other)
        return VertexSet(self.n, self.mask & ~other.mask)

    def __le__(self, other: "VertexSet") -> bool:
        self._check_same_range(other)
        return self.mask & ~other.mask == 0

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, VertexSet) and self.n == other.n and self.mask == other.mask
        )

    def __hash__(self) -> int:
        return hash((self.n, self.mask))

    def __repr__(self) -> str:
        return f"VertexSet(n={self.n}, {{{','.join(map(str, self.vertices()))}}})"


def _bfs_distances(adj: tuple[int, ...], n: int, source: int) -> tuple:
    row = [INF] * n
    row[source] = 0
    seen = 1 << source
    frontier = seen
    d = 0
    while frontier:
        d += 1
        reached = 0
        for v in _bits(frontier):
            reached |= adj[v]
        frontier = reached & ~seen
        seen |= frontier
        for v in _bits(frontier):
            row[v] = d
    return tuple(row)


class Graph:
    """Simple undirected graph stored as neighbourhood bitmasks.

    ``adj[v]`` is the open-neighborhood bitmask of vertex v and ``closed[v]``
    the closed one; the partner masks are built on first use.  Instances
    are immutable after construction and safe to share across workers.
    """

    __slots__ = ("n", "adj", "closed", "_partners")

    def __init__(self, n: int, adj: Iterable[int]):
        if n < 1:
            raise ValueError(f"graph needs at least one vertex, got n={n}")
        adj = tuple(adj)
        if len(adj) != n:
            raise ValueError(f"adjacency has {len(adj)} rows for n={n}")
        full = (1 << n) - 1
        for u, row in enumerate(adj):
            if row >> u & 1:
                raise ValueError(f"loop at vertex {u}")
            if row & ~full:
                raise ValueError(f"adjacency row of {u} mentions vertices outside 0..{n - 1}")
        for u in range(n):
            for v in _bits(adj[u]):
                if not adj[v] >> u & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")
        self.n = n
        self.adj = adj
        self.closed = tuple(adj[v] | (1 << v) for v in range(n))
        self._partners = None

    def dist(self, u: int, v: int):
        """Hop distance between u and v (``INF`` when disconnected), by BFS."""
        for w in (u, v):
            if not 0 <= w < self.n:
                raise ValueError(f"vertex {w} outside 0..{self.n - 1}")
        return _bfs_distances(self.adj, self.n, u)[v]

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in _bits(self.adj[u] >> (u + 1)):
                yield u, u + 1 + v

    def neighborhood(self, mask: int) -> int:
        """N(S) of the set with bitmask ``mask``: every vertex adjacent to a
        member (a member only through another member)."""
        out = 0
        for v in _bits(mask):
            out |= self.adj[v]
        return out

    @property
    def partners(self) -> tuple[int, ...]:
        """``partners[v]``: the vertices other than v within distance 2 of v,
        the members that can be v's semi-total partner."""
        if self._partners is None:
            self._partners = tuple(
                self.neighborhood(self.closed[v]) & ~(1 << v) for v in range(self.n)
            )
        return self._partners

    def ball2(self, v: int) -> int:
        """Bitmask of vertices within distance 2 of v, including v."""
        return self.partners[v] | 1 << v

    def is_isolate_free(self) -> bool:
        return all(row != 0 for row in self.adj)

    def vertex_set(self, vertices: Iterable[int]) -> VertexSet:
        return VertexSet.from_vertices(self.n, vertices)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list, taking the symmetric closure."""
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise ValueError(f"loop edge ({u},{v}) rejected")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, adj)


def generate(family: str, n: int, p: float | None = None, seed: int | None = None) -> Graph:
    """Generate a canonical member of a named family.

    Paths and cycles are labeled in order 0..n-1; the star center is vertex 0;
    complete graphs carry every pair.  ``random`` draws each pair (i<j, in
    lexicographic order) independently with probability ``p`` from a Mersenne
    Twister seeded with ``seed``, so (p, seed) reproduces bit-identically.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}, expected one of {FAMILIES}")
    if n < 1:
        raise ValueError(f"family {family!r} needs n >= 1, got {n}")
    if family == "path":
        return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])
    if family == "cycle":
        if n < 3:
            raise ValueError(f"cycle needs n >= 3, got {n}")
        return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])
    if family == "complete":
        return from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    if family == "star":
        return from_edge_list(n, [(0, i) for i in range(1, n)])
    if p is None or not 0.0 <= p <= 1.0:
        raise ValueError(f"random family needs 0 <= p <= 1, got {p!r}")
    if seed is None:
        raise ValueError("random family needs an explicit seed")
    rng = random.Random(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return from_edge_list(n, edges)


class ProductGraph:
    """Cartesian product of two graphs with the flat-index bijection.

    Vertex (g, h) lives at flat index ``g * n_h + h``; the convention is part
    of the persistence format and must stay stable, and only this class
    computes with it.  Row g holds the vertices (g, *) and column h the
    vertices (*, h).  The factor graphs ride along for projection work.
    """

    __slots__ = ("graph", "left", "right", "n_g", "n_h", "col_masks")

    def __init__(self, graph: Graph, left: Graph, right: Graph):
        self.graph = graph
        self.left = left
        self.right = right
        self.n_g = left.n
        self.n_h = right.n
        # col_masks[h]: all product vertices at height h
        col0 = sum(1 << (g * self.n_h) for g in range(self.n_g))
        self.col_masks = tuple(col0 << h for h in range(self.n_h))

    def encode(self, g: int, h: int) -> int:
        if not (0 <= g < self.n_g and 0 <= h < self.n_h):
            raise ValueError(f"coordinate ({g},{h}) outside {self.n_g}x{self.n_h}")
        return g * self.n_h + h

    def decode(self, index: int) -> tuple[int, int]:
        if not 0 <= index < self.n_g * self.n_h:
            raise ValueError(f"flat index {index} outside product range")
        return divmod(index, self.n_h)

    def rows(self, g_mask: int) -> int:
        """All product vertices whose first coordinate is in ``g_mask``."""
        row = (1 << self.n_h) - 1
        return sum(row << (g * self.n_h) for g in _bits(g_mask))  # rows are disjoint

    def project_left(self, mask: int) -> int:
        """First coordinates of the product vertices in ``mask``, as a mask of G."""
        row = (1 << self.n_h) - 1
        return sum(1 << g for g in range(self.n_g) if mask >> (g * self.n_h) & row)

    def project_right(self, mask: int) -> int:
        """Second coordinates of the product vertices in ``mask``, as a mask of H."""
        row = (1 << self.n_h) - 1
        out = 0
        while mask:
            out |= mask & row
            mask >>= self.n_h
        return out

    def __repr__(self) -> str:
        return f"ProductGraph({self.n_g}x{self.n_h})"


def _is_automorphism(adj: tuple[int, ...], perm: list[int]) -> bool:
    """True iff the bijection ``perm`` maps every adjacency row onto the
    row of the image vertex."""
    for v, row in enumerate(adj):
        image = 0
        while row:  # _bits(row) inlined: the orbits and stabilisers call this often
            low = row & -row
            image |= 1 << perm[low.bit_length() - 1]
            row ^= low
        if adj[perm[v]] != image:
            return False
    return True


def _shift_and_reversal(g: Graph) -> tuple[bool, bool]:
    """Whether the shift v -> v + 1 (mod n) and the reversal v -> n - 1 - v
    preserve g's adjacency.  A graph that the shift preserves is a
    circulant, whose connection set is closed under negation, so v -> -v
    and the reversal, the shift's inverse after it, preserve it too; the
    reversal is tested only when the shift fails."""
    identity = tuple(range(g.n))
    shift = _is_automorphism(g.adj, identity[1:] + identity[:1])
    return shift, shift or _is_automorphism(g.adj, identity[::-1])


def _dihedral_maps(n: int, shift: bool, reversal: bool, a: int, b: int) -> list[tuple[int, ...]]:
    """The elements that map a to b of the group generated by the shift
    (when ``shift``) and the reversal (when ``reversal``) on 0..n-1, the
    identity first when a == b.  With both, the group is dihedral: the
    rotations v -> v + k and the reflections v -> s - v (mod n), one of
    each mapping a to b (for n <= 2 the reflections are rotations).  The
    reversal alone gives {identity, reversal}.  The group is all of
    Aut(C_n) and Aut(P_n) for the cycles and paths of ``generate``, and a
    subgroup of Aut(g) for any g whose flags these are."""
    identity = tuple(range(n))
    if shift:
        k = (b - a) % n
        maps = [identity[k:] + identity[:k]]
        if reversal and n > 2:
            maps.append(tuple([(a + b - v) % n for v in range(n)]))
        return maps
    maps = [identity] if a == b else []
    if reversal and a + b == n - 1:
        maps.append(identity[::-1])
    return maps


def _twin_cycles(rows: tuple[int, ...]) -> list[int] | None:
    """The permutation that cycles each class of vertices with equal
    ``rows`` (open or closed neighbourhoods: twins) through its members,
    in order, or None when the rows are distinct.  A twin has the
    neighbours of the vertex it replaces, so this preserves adjacency."""
    twins: dict[int, list[int]] = {}
    for v, row in enumerate(rows):
        twins.setdefault(row, []).append(v)
    if len(twins) == len(rows):
        return None
    perm = list(range(len(rows)))
    for members in twins.values():
        for u, v in zip(members, members[1:] + members[:1]):
            perm[u] = v
    return perm


def _factor_orbits(g: Graph, shift: bool, reversal: bool) -> tuple[int, ...]:
    """The orbits, as vertex masks in order of least vertex, of the group A
    of automorphisms of g that these generate:

    - the shift v -> v + 1 (mod n), when ``shift``: it is one n-cycle, so
      A then has one orbit;
    - the reversal v -> n - 1 - v, when ``reversal``;
    - one cycle through each class of open twins (same neighbourhood) and
      one through each class of closed twins (same closed neighbourhood).

    The flags are ``_shift_and_reversal(g)``, whose tests already checked
    the shift and the reversal; the twin cycles are checked before they
    merge, with a raise.  A's orbits lie inside Aut(g)'s and equal them on
    the cycles, complete graphs, paths and stars of ``generate``; elsewhere
    they may be finer, which costs the product solve branches, not values.
    """
    n = g.n
    if shift:
        return ((1 << n) - 1,)
    parent = list(range(n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    def union(perm: list[int]) -> None:
        for v, w in enumerate(perm):
            parent[find(v)] = find(w)

    if reversal:
        union(list(range(n - 1, -1, -1)))
    for rows in (g.adj, g.closed):
        perm = _twin_cycles(rows)
        if perm is None:
            continue
        if not _is_automorphism(g.adj, perm):
            raise AssertionError(f"orbit merge by a non-automorphism {perm}")
        union(perm)
    orbits: dict[int, int] = {}
    for v in range(n):
        orbits[find(v)] = orbits.get(find(v), 0) | 1 << v
    return tuple(orbits.values())


class Symmetry:
    """A group A of automorphisms of a graph, checked once, as the searches
    read it (``solvers`` says why orbits keep the value): ``orbit(v)``, v's
    orbit under A as a vertex mask, and ``fix(r)``, the stabiliser of r in
    a subgroup B of A as a ``PermGroup``, even of the identity alone (a
    lexleast probe given a group picks its root's row by orbits).

    ``orbits`` holds A's orbits as disjoint vertex masks that cover 0..n-1,
    which the constructor checks (``ValueError``), setting ``n``.
    ``stabiliser(r)`` lists, as tuples ``p`` with ``p[v]`` the image of v,
    every element but the identity of the stabiliser of r in B, so that its
    images of a vertex are that vertex's orbit.  It calls the given builder
    once per r and checks each element once (``AssertionError``): it must
    fix r and keep every orbit of A, so that every union of A's orbits
    stays invariant under the groups below.  That the elements preserve
    adjacency is checked where they are built (``product_symmetry`` checks
    their factor permutations), at the factors' cost, not the graph's.
    """

    __slots__ = ("orbits", "n", "_orbit_of", "_build", "_built")

    def __init__(self, orbits: Iterable[int], stabiliser: Callable[[int], Sequence[tuple]]):
        self.orbits = orbits = tuple(orbits)
        union = 0
        for orbit in orbits:
            union |= orbit
        self.n = n = union.bit_length()
        if union != (1 << n) - 1 or sum(o.bit_count() for o in orbits) != n:
            raise ValueError("orbits must be disjoint vertex masks that cover 0..n-1")
        self._orbit_of = [0] * n
        for orbit in orbits:
            for w in _bits(orbit):
                self._orbit_of[w] = orbit
        self._build = stabiliser
        self._built: dict[int, tuple[tuple[int, ...], ...]] = {}  # r -> its checked stabiliser

    def orbit(self, v: int) -> int:
        return self._orbit_of[v]

    def stabiliser(self, r: int) -> tuple[tuple[int, ...], ...]:
        perms = self._built.get(r)
        if perms is None:
            perms = tuple(self._build(r))
            orbit_of = self._orbit_of
            for p in perms:
                if p[r] != r or [orbit_of[w] for w in p] != orbit_of:
                    raise AssertionError(f"stabiliser of {r} holds {p}, which moves {r} or an orbit")
            self._built[r] = perms
        return perms

    def fix(self, r: int) -> "PermGroup":
        return PermGroup(self.stabiliser(r))


class PermGroup:
    """A group given by its elements other than the identity, as tuples p
    with p[v] the image of v, a whole group but for the identity, so that
    v's images are its orbit: ``orbit(v)`` as a vertex mask, and
    ``fix(v)``, the elements that fix v, or None when none does."""

    __slots__ = ("elements",)

    def __init__(self, elements: Sequence[tuple[int, ...]]):
        self.elements = elements

    def orbit(self, v: int) -> int:
        mask = 1 << v
        for p in self.elements:
            mask |= 1 << p[v]
        return mask

    def fix(self, v: int) -> "PermGroup | None":
        kept = [p for p in self.elements if p[v] == v]
        return PermGroup(kept) if kept else None


def product_symmetry(prod: ProductGraph) -> Symmetry:
    """The symmetry of G x H that ``solve_bnb`` reads for a product.

    Orbits: those of A = A_G x A_H on the flat indices, with the factor
    swap (a, b) -> (b, a) when G == H, where each factor's A is generated
    by its shift, reversal and twin swaps (``_factor_orbits``); cell (i, j)
    holds the vertices whose coordinates lie in the i-th orbit of G and the
    j-th of H.  Stabilisers: in the subgroup B of A that each factor's
    shift and reversal generate, where they preserve adjacency
    (``_dihedral_maps``: rotations and reflections, at most 2n elements),
    with the swap when G == H.  Both are subgroups of Aut(G x H) (Hammack,
    Imrich and Klavzar, *Handbook of Product Graphs*, 2011): (phi, psi)
    preserves the product's adjacency exactly when phi preserves G's and
    psi H's.  So each factor permutation that enters a stabiliser is
    checked against its factor's adjacency, once, with a raise; that costs
    the factor's edges, not the product's.  The orbits and the stabilisers
    share one shift and reversal test per factor; each stabiliser is built
    by its first call from the few factor permutations that fix or swap its
    coordinates, so a solve pays only for the root branches it searches,
    and ``Symmetry`` keeps it for later reads: ``verify_pair`` hands one
    symmetry to the product solve and to lexleast.
    """
    g, h = prod.left, prod.right
    same = g == h
    flags_g = _shift_and_reversal(g)
    flags_h = flags_g if same else _shift_and_reversal(h)
    left = _factor_orbits(g, *flags_g)
    right = left if same else _factor_orbits(h, *flags_h)
    # col_masks[0] holds one bit per row, so the product copies an orbit of
    # H into every row
    cols = [orbit * prod.col_masks[0] for orbit in right]
    cells = [[prod.rows(a) & col for col in cols] for a in left]
    if same:  # the swap maps cell (i, j) onto (j, i)
        k = len(left)
        orbits = tuple(cells[i][j] | cells[j][i] for i in range(k) for j in range(i, k))
    else:
        orbits = tuple(cell for row in cells for cell in row)
    n_h = prod.n_h
    maps_g = partial(_dihedral_maps, g.n, *flags_g)
    maps_h = partial(_dihedral_maps, h.n, *flags_h)
    checked = {(tuple(range(g.n)), 0), (tuple(range(h.n)), 1)}  # (permutation, factor)

    def check(perm: tuple[int, ...], side: int) -> None:
        if (perm, side) not in checked:
            factor = (g, h)[side]
            if sorted(perm) != list(range(factor.n)) or not _is_automorphism(factor.adj, perm):
                raise AssertionError(f"stabiliser built from a non-automorphism {perm}")
            checked.add((perm, side))

    def stabiliser(r: int) -> list[tuple[int, ...]]:
        a, b = prod.decode(r)
        # (phi, psi) maps (x, y) to (phi[x], psi[y]); the maps of a to a
        # list the identity first, so the first pair is the identity
        fixing = [(phi, psi) for phi in maps_g(a, a) for psi in maps_h(b, b)][1:]
        # the swap after (phi, psi) maps (x, y) to (psi[y], phi[x])
        swapping = [(phi, psi) for phi in maps_g(a, b) for psi in maps_h(b, a)] if same else []
        for phi, psi in fixing + swapping:
            check(phi, 0)
            check(psi, 1)
        perms = [tuple([x * n_h + y for x in phi for y in psi]) for phi, psi in fixing]
        perms += [tuple([y * n_h + x for x in phi for y in psi]) for phi, psi in swapping]
        return perms

    return Symmetry(orbits, stabiliser)


def cartesian_product(g: Graph, h: Graph) -> ProductGraph:
    """Cartesian product G x H: coordinates adjacent iff equal in one factor
    and adjacent in the other."""
    n = g.n * h.n
    if n > PRODUCT_SIZE_CAP:
        raise ValueError(f"product on {n} vertices exceeds size cap {PRODUCT_SIZE_CAP}")
    adj = [0] * n
    for gu in range(g.n):
        base = gu * h.n
        for hu in range(h.n):
            row = g.adj[gu]
            acc = adj[base + hu]
            for hv in _bits(h.adj[hu]):
                acc |= 1 << (base + hv)
            for gv in _bits(row):
                acc |= 1 << (gv * h.n + hu)
            adj[base + hu] = acc
    prod = ProductGraph(Graph(n, adj), g, h)
    expected = g.n * h.edge_count + h.n * g.edge_count
    if prod.graph.edge_count != expected:
        raise AssertionError(f"product has {prod.graph.edge_count} edges, expected {expected}")
    return prod
