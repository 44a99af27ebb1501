"""Minimum semi-total dominating sets and their allied/free structure.

A member of a minimum set is "allied" when another member is adjacent to
it, and "free" otherwise (its nearest partner then sits at distance exactly
2).  Scanning all minimum sets gives the maximum allied set, whose split
drives the cell partition of the vertex set: one cell per member, allied
cells inside open neighborhoods, free cells inside closed ones, and a
distance-2 exclusion rule keeping free cells clear of contested vertices.
"""

from semitotal import (
    build_cell_partition,
    cell_partition_violations,
    enumerate_min_semitotal_sets,
    generate,
    max_allied_set,
)

EXAMPLES = [("cycle", 6), ("path", 5), ("star", 5), ("complete", 4)]


def main():
    for family, n in EXAMPLES:
        g = generate(family, n)
        sets = enumerate_min_semitotal_sets(g)
        print(f"{family}:{n}  minimum semi-total dominating sets ({len(sets)}):")
        for s in sets:
            members = sorted(s.vertices())
            allied = [v for v in members if g.adj[v] & s.mask]
            print(f"  {members}  allied part {allied}")
        ap = max_allied_set(g)
        print(
            f"  maximum allied set: {sorted(ap.members.vertices())}  "
            f"x(G)={ap.allied_count}, y(G)={ap.free_count}"
        )
        pi = build_cell_partition(g, ap)
        cells = {ap.order[i]: sorted(c.vertices()) for i, c in enumerate(pi)}
        print(f"  cells by owner: {cells}")
        problems = cell_partition_violations(g, ap, pi)
        print(f"  partition invariants: {'all hold' if not problems else problems}")
        print()


if __name__ == "__main__":
    main()
