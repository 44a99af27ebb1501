"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.  The
sweep fixtures cover all ordered factor pairs from paths P2..P6, cycles
C3..C6, completes K2..K4, and stars on 3..5 vertices (products up to 36
vertices), replayed with the canonical lexicographically-least minimum
product set.

Criterion 3 pins the counterexamples to the packing bound
gamma_t2(GxH) >= rho(G)gamma_t2(H): it fails if they vanish, if a new
violation appears, or if branch-and-bound and the enumeration oracle disagree.
"""

import time
from fractions import Fraction

import pytest

from semitotal import (
    KINDS,
    ScanOptions,
    VertexSet,
    build_cell_partition,
    build_connector_set,
    build_cover_index,
    cartesian_product,
    cell_partition_violations,
    check_column_bounds,
    connected_graphs,
    counting_checks,
    emit_graph6,
    generate,
    hunt_from_records,
    is_semitotal_dominating,
    is_two_packing,
    lexleast_min_semitotal_set,
    max_allied_set,
    parse_graph6,
    project_profiles,
    scan,
    solve_bnb,
    solve_oracle,
)
from semitotal.io import comparison_form, parse_pair_spec, write_jsonl
from semitotal.solvers import ORACLE_VERTEX_LIMIT

SWEEP_SPEC = "paths:2-6,cycles:3-6,completes:2-4,stars:3-5"
# (pair, gamma_t2(GxH), rho(G)gamma_t2(H)): the sweep's only counterexamples to
# the packing bound, both the product of the 4-path with a single edge
PACKING_COUNTEREXAMPLES = [("path:4 x path:2", 3, 4), ("path:4 x complete:2", 3, 4)]
ORACLE_BNB_TIME_LIMIT = 300.0  # seconds
SWEEP_TIME_LIMIT = 1800.0


def criterion(num: int, ok: bool, text: str) -> bool:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    return ok


class Bundle:
    """Raw replay artifacts for one ordered factor pair."""

    def __init__(self, left_id, right_id, g, h):
        self.id = f"{left_id} x {right_id}"
        self.g = g
        self.h = h
        self.gamma_g = solve_bnb(g, "gamma_t2").value
        self.gamma_h = solve_bnb(h, "gamma_t2").value
        self.rho_g = solve_bnb(g, "rho").value
        self.prod = cartesian_product(g, h)
        self.d = lexleast_min_semitotal_set(self.prod.graph)
        self.gamma_prod = len(self.d)
        self.ap = max_allied_set(g)
        self.pi = build_cell_partition(g, self.ap)
        self.pi_violations = cell_partition_violations(g, self.ap, self.pi)
        self.profiles = project_profiles(self.prod, self.d, self.pi)
        self.cover = build_cover_index(self.prod, self.d, self.pi, self.profiles)
        self.column_report = check_column_bounds(self.prod, self.d, self.ap, self.pi, self.cover)
        self.connectors = [build_connector_set(h, p) for p in self.profiles]
        self.counting = counting_checks(
            self.profiles, self.cover, self.gamma_prod, self.gamma_g, self.gamma_h
        )

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.gamma_prod, self.gamma_g * self.gamma_h)


def sweep_factors():
    return (
        [(f"path:{n}", generate("path", n)) for n in range(2, 7)]
        + [(f"cycle:{n}", generate("cycle", n)) for n in range(3, 7)]
        + [(f"complete:{n}", generate("complete", n)) for n in range(2, 5)]
        + [(f"star:{n}", generate("star", n)) for n in range(3, 6)]
    )


@pytest.fixture(scope="module")
def sweep_bundles():
    factors = sweep_factors()
    started = time.perf_counter()
    bundles = [
        Bundle(lid, rid, g, h) for (lid, g) in factors for (rid, h) in factors
    ]
    elapsed = time.perf_counter() - started
    assert len(bundles) == 225
    assert all(b.prod.graph.n <= 36 for b in bundles)
    return bundles, elapsed


@pytest.fixture(scope="module")
def sweep_summary():
    spec = parse_pair_spec(SWEEP_SPEC)
    return scan(spec, ScanOptions(replay=True, workers=1))


def test_criterion_1_oracle_equivalence():
    started = time.perf_counter()
    compared = 0
    mismatches = []
    for n in range(2, 8):
        for g in connected_graphs(n):
            for kind in KINDS:
                oracle = solve_oracle(g, kind)
                bnb = solve_bnb(g, kind)
                compared += 1
                if oracle.value != bnb.value:
                    mismatches.append((emit_graph6(g), kind, oracle.value, bnb.value))
    elapsed = time.perf_counter() - started
    ok = not mismatches and elapsed < ORACLE_BNB_TIME_LIMIT
    assert criterion(
        1,
        ok,
        f"oracle/bnb equality on {compared} (graph, invariant) cases over all "
        f"connected graphs n<=7 in {elapsed:.1f}s (limit {ORACLE_BNB_TIME_LIMIT:.0f}s)",
    ), mismatches[:5]


def test_criterion_2_product_bound(sweep_bundles):
    bundles, elapsed = sweep_bundles
    violations = [
        (b.id, b.gamma_prod, b.gamma_g, b.gamma_h)
        for b in bundles
        if 3 * b.gamma_prod < b.gamma_g * b.gamma_h
    ]
    ok = not violations and elapsed < SWEEP_TIME_LIMIT
    assert criterion(
        2,
        ok,
        f"gamma_t2(GxH) >= ceil(gamma_t2(G)gamma_t2(H)/3) on {len(bundles)} pairs, "
        f"sweep built in {elapsed:.1f}s (limit {SWEEP_TIME_LIMIT:.0f}s)",
    ), violations


def packing_violations(rows):
    """(id, gamma_t2(GxH), rho(G)gamma_t2(H)) for each row breaking the packing bound."""
    return [(pid, kp, rho * kh) for (pid, kp, rho, kh) in rows if kp < rho * kh]


def test_criterion_3_packing_bound(sweep_bundles):
    """The packing bound gamma_t2(GxH) >= rho(G)gamma_t2(H) is false.

    The sweep falsifies it at exactly the pairs in PACKING_COUNTEREXAMPLES
    (path:2 and complete:2 are the same graph), every product value up to
    the oracle's vertex limit is confirmed by enumeration, and the pairs
    beyond it must satisfy the bound.
    """
    bundles, _ = sweep_bundles
    small = [b for b in bundles if b.prod.graph.n <= ORACLE_VERTEX_LIMIT]
    large = [b for b in bundles if b.prod.graph.n > ORACLE_VERTEX_LIMIT]
    assert (len(small), len(large)) == (184, 41)

    bnb_rows = [(b.id, b.gamma_prod, b.rho_g, b.gamma_h) for b in small]
    oracle_rows = [
        (
            b.id,
            solve_oracle(b.prod.graph, "gamma_t2").value,
            solve_oracle(b.g, "rho").value,
            solve_oracle(b.h, "gamma_t2").value,
        )
        for b in small
    ]
    disagreements = [(x, y) for x, y in zip(bnb_rows, oracle_rows) if x != y]
    violations = packing_violations(bnb_rows)
    confirmed = packing_violations(oracle_rows)
    large_violations = packing_violations(
        (b.id, b.gamma_prod, b.rho_g, b.gamma_h) for b in large
    )
    tight = [b.id for b in bundles if b.gamma_prod == b.rho_g * b.gamma_h]

    # the hand proof for path:4 x path:2, checked by the predicates alone:
    # gamma_t2(P4xK2) <= 3, rho(P4) >= 2 and gamma_t2(K2) >= 2, so 3 < 2 * 2
    p4, k2 = generate("path", 4), generate("path", 2)
    prod = cartesian_product(p4, k2)
    witness = VertexSet.from_vertices(
        prod.graph.n, [prod.encode(0, 0), prod.encode(2, 0), prod.encode(2, 1)]
    )
    hand_proof = (
        is_semitotal_dominating(prod.graph, witness)
        and is_two_packing(p4, VertexSet.from_vertices(4, [0, 3]))
        and not any(is_semitotal_dominating(k2, VertexSet(2, 1 << v)) for v in range(2))
    )

    ok = (
        not disagreements
        and confirmed == PACKING_COUNTEREXAMPLES
        and not large_violations
        and hand_proof
        and "path:2 x path:2" in tight
    )
    failing = ", ".join(pid for pid, _, _ in violations + large_violations) or "no pair"
    oracle = f"disagrees on {len(disagreements)} of" if disagreements else "agrees on all"
    criterion(
        3,
        ok,
        f"gamma_t2(GxH) >= rho(G)gamma_t2(H) fails at {failing}; the enumeration "
        f"oracle {oracle} {len(small)} pairs of at most {ORACLE_VERTEX_LIMIT} "
        f"vertices; {len(large_violations)} violations among the other {len(large)}; "
        f"hand proof {'holds' if hand_proof else 'rejected'}; {len(tight)} tight instances",
    )
    assert not disagreements, f"branch-and-bound and the oracle disagree: {disagreements}"
    assert confirmed == PACKING_COUNTEREXAMPLES, (
        f"expected the counterexamples {PACKING_COUNTEREXAMPLES}, found {confirmed}"
    )
    assert not large_violations, f"unconfirmed violations above the oracle limit: {large_violations}"
    assert hand_proof, "a predicate rejects the hand proof for path:4 x path:2"
    assert "path:2 x path:2" in tight


def test_criterion_4_column_replay(sweep_bundles):
    bundles, _ = sweep_bundles
    failures = []
    for b in bundles:
        report = b.column_report
        for check in report:
            if not (check.inequality_ok and check.witness_valid and check.witness_size_ok):
                failures.append(
                    (
                        b.id,
                        check.column,
                        check.indexed_rows,
                        check.column_set_size,
                        check.inequality_ok,
                        check.witness_valid,
                        check.witness_size_ok,
                    )
                )
    columns = sum(len(b.column_report) for b in bundles)
    assert criterion(
        4,
        not failures,
        f"per-column bound, replacement-set validity and size bound on "
        f"{columns} columns across {len(bundles)} instances",
    ), failures[:10]


def test_criterion_5_counting_identities(sweep_bundles):
    bundles, _ = sweep_bundles
    problems = []
    for b in bundles:
        cover = b.cover
        if not (sum(cover.row_counts) == sum(cover.col_counts) == cover.total):
            problems.append((b.id, "row/column double count"))
        checks = b.counting
        if not checks.eq1_ok:
            problems.append((b.id, "eq1"))
        if not checks.eq2_ok:
            problems.append((b.id, "eq2"))
        if not checks.eq3_ok:
            problems.append((b.id, "eq3"))
        # the chain: 2|d| >= N >= cell_sum >= kG*kH - |d| gives 3|d| >= kG*kH
        chained = (
            2 * checks.set_size >= checks.index_total
            and checks.index_total >= checks.cell_sum
            and checks.cell_sum >= b.gamma_g * b.gamma_h - checks.set_size
        )
        if not (chained and 3 * checks.set_size >= b.gamma_g * b.gamma_h and checks.chain_ok):
            problems.append((b.id, "chain"))
    assert criterion(
        5,
        not problems,
        f"double-count identity and the three counting inequalities chain to "
        f"3|d| >= gamma_t2(G)gamma_t2(H) on {len(bundles)} instances",
    ), problems[:10]


def test_criterion_6_connector_reporting(sweep_bundles, sweep_summary):
    bundles, _ = sweep_bundles
    bound_breaks = []
    cells_pass = cells_fail = 0
    for b in bundles:
        for profile, result in zip(b.profiles, b.connectors):
            limit = max(len(profile.uncovered) - 1, 0)
            if len(result.connectors) > limit:
                bound_breaks.append((b.id, profile.index))
            if result.base_valid:
                cells_pass += 1
            else:
                cells_fail += 1
    finding_cells = [
        f for r in sweep_summary.records for f in r.findings if f["kind"] == "claim2_edge_case"
    ]
    serialized_ok = len(finding_cells) == cells_fail and all(
        f["d"] is not None and f["partition"] is not None and f["graph6_g"] for f in finding_cells
    )
    ok = not bound_breaks and serialized_ok
    assert criterion(
        6,
        ok,
        f"connector size bound on every cell; validation stats: {cells_pass} cells pass, "
        f"{cells_fail} edge-case cells recorded as findings",
    ), (bound_breaks[:5], len(finding_cells), cells_fail)


def test_criterion_7_conjecture_scan(sweep_summary):
    report = hunt_from_records(sweep_summary.records, (1, 2))
    minimum = sweep_summary.min_ratio
    ok = (
        not report.findings
        and minimum == (1, 2)
        and sweep_summary.min_ratio_id.startswith("path:2 x path:2")
        and report.closest
    )
    assert criterion(
        7,
        ok,
        f"no ratio below 1/2 over the sweep; minimum {minimum[0]}/{minimum[1]} "
        f"at {sweep_summary.min_ratio_id}",
    ), report.findings


def test_criterion_8_determinism(tmp_path):
    spec = parse_pair_spec("paths:2-5 x cycles:3-6")
    first = tmp_path / "first.jsonl"
    second = tmp_path / "second.jsonl"
    write_jsonl(first, scan(spec, ScanOptions(workers=1)).records)
    write_jsonl(second, scan(spec, ScanOptions(workers=2)).records)
    identical = comparison_form(first) == comparison_form(second)
    round_trips = 0
    broken = []
    for n in range(2, 8):
        for g in connected_graphs(n):
            if parse_graph6(emit_graph6(g)).adj != g.adj:
                broken.append(emit_graph6(g))
            round_trips += 1
    ok = identical and not broken
    assert criterion(
        8,
        ok,
        f"scan JSONL byte-identical across runs and worker counts (timing excluded); "
        f"graph6 round-trip on {round_trips} catalog graphs",
    ), broken[:5]
