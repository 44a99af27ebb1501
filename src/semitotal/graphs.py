"""Bitset-backed immutable graphs: vertex sets, generators, distances, products.

Graphs live on vertices 0..n-1 with adjacency stored as one integer bitmask
per vertex.  This module is the one place that computes masks: the open
neighbourhood of a set (``Graph.neighborhood``), closed neighbourhoods
(``closed``), the semi-total partners within distance 2 (``partners``,
``ball2``), the product's flat-index layout (``ProductGraph.rows``,
``project_left``, ``project_right``, ``col_masks``) and the symmetry of a
product that the searches read (``Symmetry(prod)``): the group that each
factor's shift and reversal generate (``_factor_group``), with the factor
swap when G = H, held as rectangles of those lists.  A product's adjacency
and partner rows are assembled from its factors' rows (``cartesian_product``).
``dist`` runs one breadth-first search per call, and disconnected pairs
carry the ``INF`` sentinel.
"""

import math
import random
from collections.abc import Iterable, Iterator

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
    the closed one; the partner masks are built on first use, or for a
    product by ``cartesian_product`` from its factors'.  Instances are
    immutable after construction and safe to share across workers.
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
            while row:  # _bits(row) inlined: every product's rows pass here
                low = row & -row
                row ^= low
                v = low.bit_length() - 1
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
        adj = self.adj
        out = 0
        while mask:  # _bits(mask) inlined: the predicates call this per set
            low = mask & -mask
            out |= adj[low.bit_length() - 1]
            mask ^= low
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
    of the persistence format and must stay stable, and only this module
    computes with it (here, in ``Symmetry`` and in ``cartesian_product``).
    Row g holds the vertices (g, *) and column h the vertices (*, h).  The
    factor graphs ride along for projection work.
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
        while row:  # _bits(row) inlined: each product checks its factors' groups
            low = row & -row
            image |= 1 << perm[low.bit_length() - 1]
            row ^= low
        if adj[perm[v]] != image:
            return False
    return True


def _factor_group(g: Graph) -> list[tuple[int, ...]]:
    """The elements, as tuples p with p[v] the image of v, the identity
    first, of the group that the shift v -> v + 1 (mod n) and the
    reversal v -> n - 1 - v generate where they preserve g's adjacency.  A
    graph that the shift preserves is a circulant, whose connection set is
    closed under negation, so the reflections v -> s - v (mod n) preserve
    it too: the group is then dihedral, the n rotations and, for n > 2, the
    n reflections (for n <= 2 they are rotations).  Otherwise it is
    {identity, reversal} where the reversal preserves g, else the identity
    alone.  It is all of Aut(C_n) and Aut(P_n) for the cycles and paths of
    ``generate``, and a subgroup of Aut(g) for any g; ``Symmetry`` checks
    its elements."""
    n = g.n
    identity = tuple(range(n))
    reversal = identity[::-1]
    if _is_automorphism(g.adj, identity[1:] + identity[:1]):
        group = [identity[k:] + identity[:k] for k in range(n)]
        if n > 2:  # reversal[k:] + reversal[:k] is v -> n - 1 - k - v
            group += [reversal[k:] + reversal[:k] for k in range(n)]
        return group
    if n > 1 and _is_automorphism(g.adj, reversal):
        return [identity, reversal]
    return [identity]


class Symmetry:
    """The symmetry of a product G x H that the searches read (``solvers``
    says why orbits keep the value): ``orbit(v)``, v's orbit as a vertex
    mask, and ``fix(v)``, the subgroup that fixes v, or None when it holds
    the identity alone: None is the trivial group.

    ``Symmetry(prod)`` builds the group of the product it acts on: each
    factor's group (``_factor_group``, at most 2n permutations, tuples p
    with p[v] the image of v) acting coordinatewise, with the factor swap
    (a, b) -> (b, a) when G == H.  Since (phi, psi) preserves the product's
    adjacency exactly when phi preserves G's and psi H's (Hammack, Imrich
    and Klavzar, *Handbook of Product Graphs*, 2011), each factor element
    but the identity is checked here, once, against its factor's adjacency
    (``AssertionError``): the group lies in Aut(G x H), at the factors' cost.

    ``parts`` holds the group as at most two rectangles ``(A, B, swap)``:
    the factor groups, then the same pair swapped when G == H.  (phi, psi)
    of A x B maps (x, y) to (phi[x], psi[y]), or with ``swap`` set to
    (psi[y], phi[x]).  So the orbit of (x, y) is A(x) x B(y), swapped in a
    swapped rectangle, and its stabiliser keeps
    {phi: phi[x] = x} x {psi: psi[y] = y} of a plain rectangle and
    {phi: phi[x] = y} x {psi: psi[y] = x} of a swapped one.  Both calls
    cost O(|A| + |B|): ``orbit`` ORs the images into a mask of rows
    S(rows), one bit at each block's start, and a mask of columns, and
    their product is the rectangle, since the blocks never overlap.
    Nothing product-sized is held.  ``fix`` builds each stabiliser from its
    parent's checked lists, for a search node that branches.  ``adj`` is
    the product's adjacency, so that the solvers refuse it for another graph.
    """

    __slots__ = ("adj", "n_g", "n_h", "n", "parts")

    def __init__(self, prod: ProductGraph):
        g, h = prod.left, prod.right
        same = g == h
        group_g = _factor_group(g)
        group_h = group_g if same else _factor_group(h)
        for factor, group in {g: group_g, h: group_h}.items():
            identity = list(range(factor.n))
            for perm in group[1:]:  # the identity comes first
                if sorted(perm) != identity or not _is_automorphism(factor.adj, perm):
                    raise AssertionError(f"factor permutation {perm} is a non-automorphism")
        self.parts = [(group_g, group_h, False)]
        if same and g.n > 1:  # on one vertex the swap is the identity
            self.parts.append((group_g, group_h, True))
        self.adj, self.n_g, self.n_h, self.n = prod.graph.adj, g.n, h.n, prod.graph.n

    @staticmethod
    def _of(adj: tuple[int, ...], n_g: int, n_h: int, parts: list) -> "Symmetry":
        # the one path past the constructor's check: fix's already-checked lists
        symmetry = object.__new__(Symmetry)
        symmetry.adj, symmetry.n_g, symmetry.n_h, symmetry.n = adj, n_g, n_h, n_g * n_h
        symmetry.parts = parts
        return symmetry

    def _trivial(self) -> bool:
        return len(self.parts) == 1 and len(self.parts[0][0]) * len(self.parts[0][1]) == 1

    def orbit(self, v: int) -> int:
        n_h = self.n_h
        x, y = divmod(v, n_h)
        mask = 0
        for group_g, group_h, swap in self.parts:
            (row_perms, r), (col_perms, c) = (
                ((group_h, y), (group_g, x)) if swap else ((group_g, x), (group_h, y))
            )
            rows = cols = 0
            for p in row_perms:
                rows |= 1 << p[r] * n_h  # S(rows), one bit at each block's start
            for p in col_perms:
                cols |= 1 << p[c]
            mask |= rows * cols  # the blocks do not overlap, so it never carries
        return mask

    def fix(self, v: int) -> "Symmetry | None":
        x, y = divmod(v, self.n_h)
        kept = []
        for group_g, group_h, swap in self.parts:
            to_x, to_y = (y, x) if swap else (x, y)
            fix_g = [phi for phi in group_g if phi[x] == to_x]
            fix_h = [psi for psi in group_h if psi[y] == to_y]
            if fix_g and fix_h:
                kept.append((fix_g, fix_h, swap))
        stabiliser = Symmetry._of(self.adj, self.n_g, self.n_h, kept)
        return None if stabiliser._trivial() else stabiliser


def product_symmetry(prod: ProductGraph) -> Symmetry | None:
    """``Symmetry(prod)``, or None when it holds the identity alone."""
    symmetry = Symmetry(prod)
    return None if symmetry._trivial() else symmetry


def cartesian_product(g: Graph, h: Graph) -> ProductGraph:
    """Cartesian product G x H: coordinates adjacent iff equal in one factor
    and adjacent in the other.

    Rows are assembled from the factors' rows.  S(mask), the sum of
    1 << x' * n_h over x' in a mask of G, puts a bit at the start of each
    of its blocks: adj[(x, y)] = adj_H[y] << x n_h | S(adj_G[x]) << y.
    Distances add across the factors (Hammack, Imrich and Klavzar,
    *Handbook of Product Graphs*, 2011), so the partners of (x, y) are
    partners_H[y] << x n_h | S(partners_G[x]) << y | S(adj_G[x]) * adj_H[y]:
    d_G = 0, d_H = 0, and one step in each, where the product lays
    adj_H[y] into each neighbouring block with no carry.
    """
    n_g, n_h = g.n, h.n
    n = n_g * n_h
    if n > PRODUCT_SIZE_CAP:
        raise ValueError(f"product on {n} vertices exceeds size cap {PRODUCT_SIZE_CAP}")

    def spread(mask: int) -> int:  # S(mask)
        out = 0
        while mask:  # _bits(mask) inlined, as in Graph
            low = mask & -mask
            out |= 1 << (low.bit_length() - 1) * n_h
            mask ^= low
        return out

    adj_h, partners_h = h.adj, h.partners
    adj, partners = [], []
    for x, (row_g, far_g) in enumerate(zip(g.adj, g.partners)):
        shift = x * n_h
        near, far = spread(row_g), spread(far_g)
        for y, row in enumerate(adj_h):
            adj.append(row << shift | near << y)
            partners.append(partners_h[y] << shift | far << y | near * row)
    graph = Graph(n, adj)
    graph._partners = tuple(partners)
    prod = ProductGraph(graph, g, h)
    expected = n_g * h.edge_count + n_h * g.edge_count
    if graph.edge_count != expected:
        raise AssertionError(f"product has {graph.edge_count} edges, expected {expected}")
    return prod
