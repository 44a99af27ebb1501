"""Readings of a ``graphs.Symmetry`` for the tests: its elements as flat
permutations of the product, decoded here from the element convention, and
its orbits as ``orbit`` gives them.  None stands for the trivial group."""


def product_images(symmetry):
    """Each element as the tuple p with p[v] the image of flat vertex v."""
    if symmetry is None:
        return []
    n_g, n_h = symmetry.n_g, symmetry.n_h
    return [
        tuple(
            psi[y] * n_h + phi[x] if swap else phi[x] * n_h + psi[y]
            for x in range(n_g)
            for y in range(n_h)
        )
        for phi, psi, swap in symmetry.elements
    ]


def product_orbits(symmetry, n):
    """The orbits on 0..n-1, as vertex masks in least-vertex order."""
    if symmetry is None:
        return tuple(1 << v for v in range(n))
    return tuple(dict.fromkeys(symmetry.orbit(v) for v in range(n)))
