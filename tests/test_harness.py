import concurrent.futures
import hashlib
import json
import os
from collections import Counter
from fractions import Fraction

import pytest

from semitotal import (
    InstanceRecord,
    IsolateError,
    ScanOptions,
    cartesian_product,
    from_edge_list,
    generate,
    hunt_from_records,
    parse_graph6,
    scan,
    summarize,
    verify_pair,
)
from semitotal.harness import HUNT_CLOSEST, REPLAY_CHECKS
from semitotal.io import FamilySpec, comparison_form, parse_pair_spec, write_jsonl
from symmetry_helpers import product_orbits, trivial_symmetry


def options(**kw):
    kw.setdefault("workers", 1)
    return ScanOptions(**kw)


def test_verify_pair_p2_p2_fixture():
    p2 = generate("path", 2)
    record = verify_pair(p2, p2, options(), left_id="path:2", right_id="path:2")
    assert record.gamma_t2_g == 2 and record.gamma_t2_h == 2
    assert record.gamma_t2_prod == 2
    assert record.rho_g == 1
    assert record.bound_thm2 == 2 and record.bound_thm2_ok
    assert record.bound_thm1 == 2 and record.bound_thm1_ok
    assert record.gamma_t2_prod == record.bound_thm1  # tight instance
    assert (record.ratio_num, record.ratio_den) == (1, 2)
    assert all(record.replay[c] == "pass" for c in ("pi_valid", "claim1", "eq1", "eq2", "eq3"))


def test_verify_pair_k2_times_complete():
    k2 = generate("complete", 2)
    for n in (2, 3, 4):
        record = verify_pair(k2, generate("complete", n), options())
        assert record.gamma_t2_prod >= record.bound_thm1
        assert record.gamma_t2_prod >= record.bound_thm2


def test_verify_pair_ratio_in_lowest_terms():
    record = verify_pair(generate("path", 3), generate("path", 3), options())
    ratio = Fraction(record.ratio_num, record.ratio_den)
    assert (ratio.numerator, ratio.denominator) == (record.ratio_num, record.ratio_den)


def test_verify_pair_rejects_isolates():
    lonely = from_edge_list(3, [(0, 1)])
    with pytest.raises(IsolateError):
        verify_pair(lonely, generate("path", 2), options())


def test_verify_pair_size_cap_skip():
    g = generate("path", 7)
    record = verify_pair(g, g, options())  # 49 > 36 replay cap
    assert record.skipped is not None and "cap" in record.skipped
    assert record.gamma_t2_prod is None
    record2 = verify_pair(g, g, options(replay=False))  # 49 <= 49
    assert record2.skipped is None


def test_verify_pair_replays_beyond_oracle_limit():
    # a 21-vertex left factor: the maximum allied set comes from the search
    # kernel, not the 20-vertex enumeration oracle
    record = verify_pair(generate("star", 21), generate("path", 2), options(product_cap=42))
    assert record.skipped is None
    assert record.replay == {c: "pass" for c in REPLAY_CHECKS}
    assert record.findings == []


def test_verify_pair_passes_the_product_orbits(monkeypatch):
    import semitotal.harness

    pairs = [
        (("cycle", 7), ("complete", 3)),
        (("cycle", 7), ("path", 3)),
        (("cycle", 5), ("path", 4)),
        (("path", 2), ("path", 2)),
    ]
    given, handed = [], []
    solve = semitotal.harness.solve_bnb
    lexleast = semitotal.harness.lexleast_min_semitotal_set

    def spy_solve(g, kind, **kw):
        if "symmetry" in kw:  # the product solve; a factor's would show in seen
            given.append(kw["symmetry"])
        return solve(g, kind, **kw)

    def spy_lexleast(g, **kw):
        handed.append(kw["symmetry"])
        return lexleast(g, **kw)

    monkeypatch.setattr(semitotal.harness, "solve_bnb", spy_solve)
    monkeypatch.setattr(semitotal.harness, "lexleast_min_semitotal_set", spy_lexleast)
    for replay in (False, True):
        given.clear()
        handed.clear()
        for left, right in pairs:
            verify_pair(generate(*left), generate(*right), options(replay=replay))
        # C7 x K3 is vertex-transitive; C7 x P3 has two orbits, the vertices
        # over P3's ends and those over its middle; C5 x P4 has two, the
        # columns over P4's ends and over its middle; P2 x P2 is one orbit
        middle = sum(1 << (3 * g + 1) for g in range(7))
        middles = sum(0b0110 << (4 * g) for g in range(5))
        seen = [product_orbits(symmetry, symmetry.n) for symmetry in given]
        assert seen == [
            ((1 << 21) - 1,),
            ((1 << 21) - 1 & ~middle, middle),
            ((1 << 20) - 1 & ~middles, middles),
            (0b1111,),
        ], replay
        if replay:  # the replay's lexleast reads the product solve's own symmetry
            assert [id(symmetry) for symmetry in handed] == [id(symmetry) for symmetry in given]


def test_verify_pair_records_do_not_depend_on_the_product_symmetry(monkeypatch):
    # orbits keep the product's value and lexleast's set, so the record made
    # with the product symmetry is the one made with the trivial group, one
    # rectangle of the identity alone: every connected catalog graph on 3-5
    # vertices x P2, P3 and C3
    import semitotal.harness
    from semitotal.catalog import connected_graphs

    pairs = [
        (g, generate(*right))
        for n in (3, 4, 5)
        for g in connected_graphs(n)
        for right in (("path", 2), ("path", 3), ("cycle", 3))
    ]
    assert len(pairs) == 87

    def forms():
        return [
            verify_pair(g, h, options(replay=True)).to_json_dict(include_timing=False)
            for g, h in pairs
        ]

    with_orbits = forms()
    monkeypatch.setattr(
        semitotal.harness,
        "product_symmetry",
        lambda prod: trivial_symmetry(prod.graph),
    )
    assert forms() == with_orbits


@pytest.mark.parametrize("replay", [False, True])
def test_verify_pair_solves_the_product_once(monkeypatch, replay):
    # one solve_bnb on the product, in whichever module it is looked up, and
    # lexleast at most once, started from that solve's witness
    import semitotal.harness
    import semitotal.proofs
    import semitotal.solvers

    solves, lexleasts = [], []
    solve = semitotal.solvers.solve_bnb
    lexleast = semitotal.solvers.lexleast_min_semitotal_set
    product_order = 0

    def spy_solve(graph, kind, **kw):
        if graph.n == product_order:
            solves.append(kind)
        return solve(graph, kind, **kw)

    def spy_lexleast(graph, **kw):
        lexleasts.append(sorted(kw))
        return lexleast(graph, **kw)

    for module in (semitotal.harness, semitotal.proofs, semitotal.solvers):
        monkeypatch.setattr(module, "solve_bnb", spy_solve)
    monkeypatch.setattr(semitotal.harness, "lexleast_min_semitotal_set", spy_lexleast)
    # P4xP2 violates the packing bound, C5xP3 violates nothing
    for left, right, violates in ((("path", 4), ("path", 2), True), (("cycle", 5), ("path", 3), False)):
        g, h = generate(*left), generate(*right)
        product_order = g.n * h.n
        solves.clear()
        lexleasts.clear()
        record = verify_pair(g, h, options(replay=replay))
        assert any(f["kind"] == "bound_violation" for f in record.findings) is violates
        assert solves == ["gamma_t2"], (left, right)
        expected = [["minimum", "symmetry"]] if replay or violates else []
        assert lexleasts == expected, (left, right)


def test_verify_pair_builds_lexleast_only_for_findings(monkeypatch):
    import semitotal.harness
    from semitotal import cartesian_product, solve_oracle

    calls = []
    lexleast = semitotal.harness.lexleast_min_semitotal_set

    def spy(g, **kw):
        calls.append(g.n)
        return lexleast(g, **kw)

    monkeypatch.setattr(semitotal.harness, "lexleast_min_semitotal_set", spy)
    p2 = generate("path", 2)
    violating = []
    for n in range(2, 8):
        calls.clear()
        g = generate("path", n)
        record = verify_pair(g, p2, options(replay=False))
        violations = [f for f in record.findings if f["kind"] == "bound_violation"]
        assert calls == ([2 * n] if violations else [])
        if violations:
            violating.append(n)
            witness = solve_oracle(cartesian_product(g, p2).graph, "gamma_t2").witness
            assert all(f["d"] == list(witness.vertices()) for f in violations)
    assert violating == [4, 7]


def test_replayed_pair_solves_left_gamma_t2_once(monkeypatch):
    import semitotal.harness
    import semitotal.proofs
    import semitotal.solvers

    g, h = generate("cycle", 5), generate("path", 4)
    calls = []
    solve = semitotal.solvers.solve_bnb

    def spy(graph, kind, **kw):
        if graph is g and kind == "gamma_t2":
            calls.append(kind)
        return solve(graph, kind, **kw)

    for module in (semitotal.harness, semitotal.proofs, semitotal.solvers):
        monkeypatch.setattr(module, "solve_bnb", spy)
    record = verify_pair(g, h, options())
    assert record.replay == {c: "pass" for c in REPLAY_CHECKS}
    assert calls == ["gamma_t2"]


def test_packing_bound_counterexample_confirmed_by_oracle():
    # independent of the search solver: subset enumeration on the 8-vertex
    # product proves the value, and the factor values are forced by hand
    from semitotal import cartesian_product, solve_oracle

    g, h = generate("path", 4), generate("path", 2)
    prod = cartesian_product(g, h)
    assert solve_oracle(prod.graph, "gamma_t2").value == 3
    assert solve_oracle(g, "rho").value == 2
    assert solve_oracle(h, "gamma_t2").value == 2
    assert 3 < 2 * 2


def test_verify_pair_detects_first_bound_falsification():
    # the smallest pair where the packing-based bound fails: the product of
    # the 4-path with an edge admits a 3-member semi-total dominating set
    record = verify_pair(generate("path", 4), generate("path", 2), options())
    assert record.gamma_t2_prod == 3
    assert record.bound_thm1 == 4
    assert record.bound_thm1_ok is False
    kinds = [f["kind"] for f in record.findings]
    assert "bound_violation" in kinds
    violation = next(f for f in record.findings if f["kind"] == "bound_violation")
    assert violation["failed_predicate"] == "gamma_t2_prod >= bound_thm1"
    assert violation["d"] is not None
    # the second bound still holds there
    assert record.bound_thm2_ok is True


# K2 x a relabelled P5: the smallest catalog pair with a Claim 1 failure
K2_G6, P5_G6 = "A_", "DKK"
K2_P5_D = [0, 1, 2, 8]
K2_P5_CELLS = [[1], [0]]


def _k2_p5_record():
    return verify_pair(parse_graph6(K2_G6), parse_graph6(P5_G6), options())


def _replay(pi_valid="pass", claim1="fail", claim2="fail", eq="pass"):
    return {"pi_valid": pi_valid, "claim1": claim1, "claim2": claim2,
            "eq1": eq, "eq2": eq, "eq3": eq}


def _only(record, kind):
    found = [f for f in record.findings if f["kind"] == kind]
    assert len(found) == 1, [f["kind"] for f in record.findings]
    finding = found[0]
    assert finding["instance_id"] == f"g6:{K2_G6} x g6:{P5_G6} {K2_G6} {P5_G6}"
    assert (finding["graph6_g"], finding["graph6_h"]) == (K2_G6, P5_G6)
    assert finding["d"] == K2_P5_D
    return finding


def test_replay_findings_of_k2_times_p5():
    record = _k2_p5_record()
    assert record.replay == _replay()
    assert (record.claim2_cells_pass, record.claim2_cells_fail) == (1, 1)
    assert [f["kind"] for f in record.findings] == ["claim1_failure", "claim2_edge_case"]
    claim1 = _only(record, "claim1_failure")
    assert claim1["failed_predicate"] == "claim1_column_check"
    assert claim1["partition"] == K2_P5_CELLS
    assert claim1["detail"] == {
        "column": 0,
        "column_set_size": 1,
        "indexed_rows": 2,
        "inequality_ok": True,
        "witness": [0],
        "witness_size_ok": True,
        "witness_valid": False,
    }
    claim2 = _only(record, "claim2_edge_case")
    assert claim2["failed_predicate"] == "claim2_validation"
    assert claim2["partition"] == K2_P5_CELLS
    assert claim2["detail"] == {
        "cell": 1,
        "projection": [0, 1, 2],
        "missing": [],
        "uncovered": [0],
        "connectors": [],
    }


def test_replay_finding_when_the_cell_partition_breaks_an_invariant(monkeypatch):
    import semitotal.harness

    monkeypatch.setattr(
        semitotal.harness, "cell_partition_violations", lambda g, ap, pi: ["cells overlap"]
    )
    record = _k2_p5_record()
    assert record.replay == _replay(pi_valid="fail")
    assert [f["kind"] for f in record.findings] == [
        "construction_failure",
        "claim1_failure",
        "claim2_edge_case",
    ]
    finding = _only(record, "construction_failure")
    assert finding["failed_predicate"] == "cell_partition_invariants"
    assert finding["partition"] == K2_P5_CELLS
    assert finding["detail"] == {"violations": ["cells overlap"]}


def test_replay_finding_when_a_counting_inequality_fails(monkeypatch):
    import semitotal.harness
    from semitotal.proofs import CountingChecks

    failing = CountingChecks(
        index_total=5,
        cell_sum=6,
        set_size=4,
        eq1_ok=False,
        eq2_ok=True,
        eq3_ok=False,
        chain_ok=True,
    )
    monkeypatch.setattr(semitotal.harness, "counting_checks", lambda *args: failing)
    record = _k2_p5_record()
    assert record.replay == {**_replay(), "eq1": "fail", "eq2": "pass", "eq3": "fail"}
    assert [f["kind"] for f in record.findings] == [
        "claim1_failure",
        "claim2_edge_case",
        "counting_inequality_failure",
    ]
    finding = _only(record, "counting_inequality_failure")
    assert finding["failed_predicate"] == "counting_checks"
    assert finding["partition"] == K2_P5_CELLS
    assert finding["detail"] == {
        "index_total": 5,
        "cell_sum": 6,
        "set_size": 4,
        "eq1_ok": False,
        "eq2_ok": True,
        "eq3_ok": False,
        "chain_ok": True,
        "claim2_failed_cells": [1],
    }


def test_scan_paths_grid():
    spec = parse_pair_spec("paths:2-5 x paths:2-5")
    summary = scan(spec, options())
    assert summary.total == 16 and summary.skipped == 0
    violations = [f for f in summary.findings if f["kind"] == "bound_violation"]
    assert [v["instance_id"] for v in violations] == ["path:4 x path:2 Ch A_"]


def test_scan_cycles_min_ratio():
    spec = parse_pair_spec("cycles:3-6 x cycles:3-6")
    summary = scan(spec, options())
    assert summary.total == 16
    assert summary.min_ratio is not None
    assert Fraction(*summary.min_ratio) >= Fraction(1, 2)
    assert summary.min_ratio_id


def test_scan_empty_spec():
    summary = scan(FamilySpec(left=(), right=()), options())
    assert summary.total == 0 and summary.findings == []
    assert summary.min_ratio is None


def test_scan_deterministic_modulo_timing(tmp_path):
    spec = parse_pair_spec("paths:2-4 x stars:3-4")
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    write_jsonl(a, scan(spec, options()).records)
    write_jsonl(b, scan(spec, options()).records)
    assert comparison_form(a) == comparison_form(b)


def test_scan_parallel_equals_serial(tmp_path):
    spec = parse_pair_spec("paths:2-4 x cycles:3-4")
    serial = tmp_path / "serial.jsonl"
    parallel = tmp_path / "parallel.jsonl"
    write_jsonl(serial, scan(spec, options()).records)
    write_jsonl(parallel, scan(spec, ScanOptions(workers=2)).records)
    assert comparison_form(serial) == comparison_form(parallel)


@pytest.mark.parametrize(
    "spec_text,started",
    [
        ("path:2 x paths:2-3", [(2, 1)]),
        ("path:2 x path:3", []),
        ("paths:2-7 x paths:2-5", [(6, 2)]),
        ("paths:2-7,cycles:3-7 x paths:2-7,cycles:3-7", [(6, 8)]),
    ],
)
def test_scan_starts_no_more_workers_than_pairs(monkeypatch, spec_text, started):
    # each started pool as (workers, chunksize): two chunks per worker at
    # least, so 2 pairs go one to each worker, and at most 8 pairs a chunk
    class PoolSpy:
        """Records the workers and chunk size a scan asks for and maps in
        this process."""

        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            started_here.append((self.max_workers, chunksize))
            return map(fn, tasks)

    started_here = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", PoolSpy)
    spec = parse_pair_spec(spec_text)
    summary = scan(spec, ScanOptions(workers=6, replay=False))
    assert started_here == started
    assert summary.total == len(spec.left) * len(spec.right)


def test_default_workers_count_the_cpus_this_process_may_run_on(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert ScanOptions().effective_workers() == 1
    assert ScanOptions(workers=3).effective_workers() == 3
    monkeypatch.delattr(os, "sched_getaffinity")  # a platform without affinity
    assert ScanOptions().effective_workers() == 64


@pytest.mark.parametrize(
    "replay,digest,size,kinds,skipped",
    [
        (
            True,
            "0fb851ec7a480ec73367ab2a4c02b728f9111907a79d9da4496e6b805c69c4ad",
            63861,
            {"claim2_edge_case": 27, "bound_violation": 2},
            12,
        ),
        (
            False,
            "302ebdceaa9d48594b086d7051189d5668874aa24961d5cfc6cb591440158727",
            58606,
            {"bound_violation": 2},
            0,
        ),
    ],
)
def test_family_scan_output_is_pinned(tmp_path, replay, digest, size, kinds, skipped):
    # the scan output, timing aside, byte for byte: a change that alters any
    # record must update these digests and say why
    spec = parse_pair_spec("paths:2-7,cycles:3-7 x paths:2-7,cycles:3-7")
    summary = scan(spec, ScanOptions(replay=replay, workers=2))
    assert Counter(f["kind"] for f in summary.findings) == kinds
    assert summary.skipped == skipped
    write_jsonl(tmp_path / "scan.jsonl", summary.records)
    form = comparison_form(tmp_path / "scan.jsonl")
    assert len(form) == size
    assert hashlib.sha256(form).hexdigest() == digest


def test_scan_single_instance_error_becomes_skip():
    # the one-vertex path is an isolate: the record is skipped, not fatal
    spec = FamilySpec(left=(("path:1", "@"),), right=(("path:2", "A_"),))
    summary = scan(spec, options())
    assert summary.total == 1
    assert summary.records[0].skipped is not None
    assert "error" in summary.records[0].skipped


def test_scan_skips_an_isolated_factor_as_before():
    # path:1 is an isolate: its record, timing included, byte for byte
    summary = scan(parse_pair_spec("paths:1-3 x path:2"), options())
    assert [r.skipped is None for r in summary.records] == [False, True, True]
    skipped = json.dumps(summary.records[0].to_json_dict(), sort_keys=True, separators=(",", ":"))
    assert skipped == (
        '{"bound_thm1":null,"bound_thm1_ok":null,"bound_thm2":null,"bound_thm2_ok":null,'
        '"claim2_cells_fail":null,"claim2_cells_pass":null,"findings":[],"gamma_t2_G":null,'
        '"gamma_t2_H":null,"gamma_t2_prod":null,"graph6_g":"@","graph6_h":"A_",'
        '"id":"path:1 x path:2 @ A_","left_id":"path:1","n_g":1,"n_h":2,"ratio_den":null,'
        '"ratio_num":null,"replay":{"claim1":"skipped","claim2":"skipped","eq1":"skipped",'
        '"eq2":"skipped","eq3":"skipped","pi_valid":"skipped"},"rho_G":null,'
        '"right_id":"path:2","skipped":"error: left factor has an isolated vertex","timing":{}}'
    )


@pytest.mark.parametrize(
    "stage,error",
    [
        ("project_profiles", ValueError("internal fault")),
        # only a factor's isolated vertex skips a pair, not an IsolateError
        # from inside the solve
        ("max_allied_set", IsolateError("vertex 3 is isolated")),
    ],
    ids=["value_error", "isolate_error"],
)
def test_scan_raises_an_internal_error_instead_of_skipping(monkeypatch, stage, error):
    import semitotal.harness

    def broken(*args, **kwargs):
        raise error

    monkeypatch.setattr(semitotal.harness, stage, broken)
    with pytest.raises(type(error), match=str(error)):
        scan(parse_pair_spec("path:3 x path:2"), options())


def test_hunt_default_threshold_no_findings():
    spec = parse_pair_spec("paths:2-4 x paths:2-4")
    report = hunt_from_records(scan(spec, options()).records, (1, 2))
    assert report.findings == []
    assert report.closest
    assert report.closest[0]["ratio_num"] == 1 and report.closest[0]["ratio_den"] == 2


def test_hunt_threshold_one_flags_instances():
    spec = parse_pair_spec("paths:2-4 x paths:2-4")
    report = hunt_from_records(scan(spec, options()).records, (1, 1))
    assert report.findings  # plenty of ratios sit below 1
    assert all(f["kind"] == "conjecture_counterexample" for f in report.findings)


def test_hunt_threshold_third_guaranteed_empty():
    spec = parse_pair_spec("paths:2-5 x cycles:3-5")
    report = hunt_from_records(scan(spec, options()).records, (1, 3))
    assert report.findings == []


def test_hunt_closest_k_limit():
    # 16 records, none below 1/2: the report keeps the 10 nearest
    spec = parse_pair_spec("paths:2-5 x paths:2-5")
    summary = scan(spec, options())
    report = hunt_from_records(summary.records, (1, 2))
    assert summary.total == 16 and report.findings == []
    assert len(report.closest) == HUNT_CLOSEST == 10


def test_summarize_counts():
    spec = parse_pair_spec("paths:2-3 x paths:2-3")
    summary = scan(spec, options())
    again = summarize(summary.records)
    assert again.total == summary.total
    assert again.check_pass_counts == summary.check_pass_counts


def test_record_round_trip_dict():
    record = verify_pair(generate("path", 3), generate("cycle", 3), options())
    assert InstanceRecord.from_json_dict(record.to_json_dict()) == record


def test_k2_against_the_connected_catalog(tmp_path):
    # K2 against every connected H on 2-6 vertices (142 pairs): the Claim 1
    # and Claim 2 findings the replay reports today, and serial == parallel
    from semitotal import connected_graphs, emit_graph6

    right = tuple(
        (f"g6:{g6}", g6)
        for n in range(2, 7)
        for g6 in map(emit_graph6, connected_graphs(n))
    )
    spec = FamilySpec(left=(("path:2", "A_"),), right=right)
    serial = scan(spec, options())
    assert serial.total == 142 and serial.skipped == 0
    write_jsonl(tmp_path / "serial.jsonl", serial.records)
    write_jsonl(tmp_path / "parallel.jsonl", scan(spec, options(workers=2)).records)
    assert comparison_form(tmp_path / "serial.jsonl") == comparison_form(
        tmp_path / "parallel.jsonl"
    )
    kinds = Counter(f["kind"] for f in serial.findings)
    assert kinds == {"claim1_failure": 11, "claim2_edge_case": 113}
