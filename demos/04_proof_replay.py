"""Full replay of the product-bound machinery on one instance.

Walks the whole construction for C6 x P3: the maximum allied set of the
left factor, its cell partition, the per-cell projection profiles of a
canonical minimum product set, the double-counting index with its row and
column sums, the per-column replacement sets, the per-cell connector sets,
and the three counting inequalities that chain into the product bound.
"""

from semitotal import (
    build_cell_partition,
    build_connector_set,
    build_cover_index,
    cartesian_product,
    cell_partition_violations,
    check_column_bounds,
    counting_checks,
    generate,
    lexleast_min_semitotal_set,
    max_allied_set,
    project_profiles,
    solve_bnb,
)


def main():
    g = generate("cycle", 6)
    h = generate("path", 3)
    prod = cartesian_product(g, h)
    d = lexleast_min_semitotal_set(prod.graph)
    kg = solve_bnb(g, "gamma_t2").value
    kh = solve_bnb(h, "gamma_t2").value
    print(f"factors: cycle:6 (gamma_t2={kg})  path:3 (gamma_t2={kh})")
    print(f"product set d (size {len(d)}): {[prod.decode(v) for v in d.vertices()]}")

    ap = max_allied_set(g)
    print(f"\nmaximum allied set {sorted(ap.members.vertices())} "
          f"(allied {sorted(ap.allied.vertices())}, free {sorted(ap.free.vertices())})")
    pi = build_cell_partition(g, ap)
    for i, cell in enumerate(pi):
        role = "allied" if i < ap.allied_count else "free"
        print(f"  cell {i} (owner {ap.order[i]}, {role}): {sorted(cell.vertices())}")
    assert cell_partition_violations(g, ap, pi) == []

    profiles = project_profiles(prod, d, pi)
    print("\nper-cell projections onto the right factor:")
    for p in profiles:
        print(
            f"  cell {p.index}: projection {sorted(p.projection.vertices())} "
            f"missing {sorted(p.missing.vertices())} covered {sorted(p.covered.vertices())} "
            f"uncovered {sorted(p.uncovered.vertices())}"
        )

    cover = build_cover_index(prod, d, pi, profiles)
    print(f"\ndouble-counting index: {cover.total} entries")
    print(f"  row sums {cover.row_counts} -> {sum(cover.row_counts)}")
    print(f"  column sums {cover.col_counts} -> {sum(cover.col_counts)}")

    report = check_column_bounds(prod, d, ap, pi, cover)
    print("\nper-column checks (|R^v| <= 2|D^v| and replacement-set validity):")
    for check in report:
        print(
            f"  column {check.column}: |R^v|={check.indexed_rows} |D^v|={check.column_set_size} "
            f"replacement {sorted(check.witness.vertices())} "
            f"{'ok' if check.ok else 'FAIL'}"
        )

    print("\nper-cell connector sets:")
    for p in profiles:
        result = build_connector_set(h, p)
        status = "valid" if result.base_valid else "edge case (recorded)"
        print(f"  cell {p.index}: connectors {sorted(result.connectors.vertices())} -> {status}")

    checks = counting_checks(profiles, cover, len(d), kg, kh)
    print(
        f"\ncounting chain: 2|d| = {2 * checks.set_size} >= N = {checks.index_total} "
        f">= cell sum = {checks.cell_sum} >= {kg}*{kh} - |d| = {kg * kh - checks.set_size}"
    )
    print(f"hence 3|d| = {3 * checks.set_size} >= {kg * kh}: "
          f"{'holds' if checks.chain_ok else 'FAILS'}")


if __name__ == "__main__":
    main()
