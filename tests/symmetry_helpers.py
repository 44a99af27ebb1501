"""Readings of a ``graphs.Symmetry`` for the tests: its elements as flat
permutations of the product, decoded here from its rectangles, its orbits
as ``orbit`` gives them, and the trivial group of a graph.  None stands
for the trivial group."""

from semitotal.graphs import Symmetry


def product_images(symmetry):
    """Each element but the identity as the tuple p with p[v] the image of
    flat vertex v, rectangle by rectangle."""
    if symmetry is None:
        return []
    n_g, n_h = symmetry.n_g, symmetry.n_h
    images = [
        tuple(
            psi[y] * n_h + phi[x] if swap else phi[x] * n_h + psi[y]
            for x in range(n_g)
            for y in range(n_h)
        )
        for group_g, group_h, swap in symmetry.parts
        for phi in group_g
        for psi in group_h
    ]
    images.remove(tuple(range(n_g * n_h)))  # raises when the identity is missing
    return images


def product_orbits(symmetry, n):
    """The orbits on 0..n-1, as vertex masks in least-vertex order."""
    if symmetry is None:
        return tuple(1 << v for v in range(n))
    return tuple(dict.fromkeys(symmetry.orbit(v) for v in range(n)))


def trivial_symmetry(graph):
    """The group of the identity alone on graph's vertices, as a Symmetry
    of graph x K1: one rectangle of one element, built by the private path
    that ``fix`` takes, since the constructor builds only a product's group."""
    return Symmetry._of(graph.adj, graph.n, 1, [([tuple(range(graph.n))], [(0,)], False)])
