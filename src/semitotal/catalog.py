"""Catalog of all connected graphs on up to a few vertices, one per
isomorphism class.

Generation augments each (n-1)-vertex catalog graph by one new vertex
attached to every nonempty subset of the old vertices (every connected graph
arises this way: removing a non-cut vertex keeps it connected), then
deduplicates by a canonical adjacency key.  The canonical key is the minimum
upper-triangle bitmask over all vertex orderings compatible with a cheap
iso-invariant refinement (degree, neighbor degrees, distance profile), which
keeps the permutation count small.  The canonicalization is private plumbing
for the catalog; it is not a general isomorphism facility.
"""

from functools import lru_cache
from itertools import permutations, product

from .graphs import Graph, _bfs_distances, _bits

CATALOG_VERTEX_LIMIT = 8


def _vertex_classes(n: int, adj: tuple[int, ...]) -> list[list[int]]:
    """Group vertices by an isomorphism-invariant signature, classes sorted."""
    deg = [adj[v].bit_count() for v in range(n)]
    sig = {}
    for v in range(n):
        key = (
            deg[v],
            tuple(sorted(deg[u] for u in _bits(adj[v]))),
            tuple(sorted(_bfs_distances(adj, n, v))),
        )
        sig.setdefault(key, []).append(v)
    return [sig[key] for key in sorted(sig)]


def _canonical_key(n: int, adj: tuple[int, ...]) -> int:
    edges = []
    for u in range(n):
        for off in _bits(adj[u] >> (u + 1)):
            edges.append((u, u + 1 + off))
    classes = _vertex_classes(n, adj)
    best = None
    position = [0] * n
    for combo in product(*(permutations(cls) for cls in classes)):
        idx = 0
        for group in combo:
            for v in group:
                position[v] = idx
                idx += 1
        key = 0
        for u, v in edges:
            a, b = position[u], position[v]
            if a > b:
                a, b = b, a
            key |= 1 << (b * (b - 1) // 2 + a)
        if best is None or key < best:
            best = key
    return best or 0


def _adj_from_key(n: int, key: int) -> tuple[int, ...]:
    adj = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if key >> k & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            k += 1
    return tuple(adj)


@lru_cache(maxsize=None)
def _connected_keys(n: int) -> tuple[int, ...]:
    if n == 1:
        return (0,)
    keys = set()
    new_bit = 1 << (n - 1)
    for prev_key in _connected_keys(n - 1):
        prev_adj = _adj_from_key(n - 1, prev_key)
        for attach in range(1, 1 << (n - 1)):
            adj = list(prev_adj) + [attach]
            for v in _bits(attach):
                adj[v] |= new_bit
            keys.add(_canonical_key(n, tuple(adj)))
    return tuple(sorted(keys))


def connected_graphs(n: int) -> list[Graph]:
    """All connected graphs on exactly n vertices, one per isomorphism class,
    in canonical-key order."""
    if not 1 <= n <= CATALOG_VERTEX_LIMIT:
        raise ValueError(f"catalog supports 1 <= n <= {CATALOG_VERTEX_LIMIT}, got {n}")
    return [Graph(n, _adj_from_key(n, key)) for key in _connected_keys(n)]


def catalog_size(n: int) -> int:
    if not 1 <= n <= CATALOG_VERTEX_LIMIT:
        raise ValueError(f"catalog supports 1 <= n <= {CATALOG_VERTEX_LIMIT}, got {n}")
    return len(_connected_keys(n))
