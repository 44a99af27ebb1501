"""Bitset-backed immutable graphs: vertex sets, generators, distances, products.

Graphs live on vertices 0..n-1 with adjacency stored as one integer bitmask
per vertex.  Distance tests go through neighbourhood masks (``closed``,
``ball2``); ``dist`` runs one breadth-first search per call, and disconnected
pairs carry the ``INF`` sentinel.
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
    the closed one; the distance-2 balls are built on first use.  Instances
    are immutable after construction and safe to share across workers.
    """

    __slots__ = ("n", "adj", "closed", "_ball2")

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
        self._ball2 = None

    def dist(self, u: int, v: int):
        """Hop distance between u and v (``INF`` when disconnected), by BFS."""
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

    def ball2(self, v: int) -> int:
        """Bitmask of vertices within distance 2 of v, including v."""
        if self._ball2 is None:
            balls = []
            for u in range(self.n):
                b = self.closed[u]
                for w in _bits(self.adj[u]):
                    b |= self.closed[w]
                balls.append(b)
            self._ball2 = tuple(balls)
        return self._ball2[v]

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
    of the persistence format and must stay stable.  The factor graphs ride
    along for projection work.
    """

    __slots__ = ("graph", "left", "right", "n_g", "n_h", "col_masks")

    def __init__(self, graph: Graph, left: Graph, right: Graph):
        self.graph = graph
        self.left = left
        self.right = right
        self.n_g = left.n
        self.n_h = right.n
        cols = []
        for h in range(self.n_h):
            m = 0
            for g in range(self.n_g):
                m |= 1 << (g * self.n_h + h)
            cols.append(m)
        # col_masks[h]: all product vertices at height h
        self.col_masks = tuple(cols)

    def encode(self, g: int, h: int) -> int:
        if not (0 <= g < self.n_g and 0 <= h < self.n_h):
            raise ValueError(f"coordinate ({g},{h}) outside {self.n_g}x{self.n_h}")
        return g * self.n_h + h

    def decode(self, index: int) -> tuple[int, int]:
        if not 0 <= index < self.n_g * self.n_h:
            raise ValueError(f"flat index {index} outside product range")
        return divmod(index, self.n_h)

    def row_mask(self, g: int) -> int:
        """All product vertices with first coordinate g."""
        return ((1 << self.n_h) - 1) << (g * self.n_h)

    def __repr__(self) -> str:
        return f"ProductGraph({self.n_g}x{self.n_h})"


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


def closed_neighborhood(g: Graph, s: VertexSet) -> VertexSet:
    """N[S] = S together with every neighbor of a member of S."""
    if s.n != g.n:
        raise ValueError("vertex set bound to a different graph order")
    mask = s.mask
    for v in _bits(s.mask):
        mask |= g.adj[v]
    return VertexSet(g.n, mask)


def open_neighborhood(g: Graph, s: VertexSet) -> VertexSet:
    """N(S): every neighbor of a member of S (members only via other members)."""
    if s.n != g.n:
        raise ValueError("vertex set bound to a different graph order")
    mask = 0
    for v in _bits(s.mask):
        mask |= g.adj[v]
    return VertexSet(g.n, mask)
