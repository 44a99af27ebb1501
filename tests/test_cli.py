import json

import pytest

from semitotal import parse_graph6
from semitotal.cli import main
from semitotal.harness import scan
from semitotal.io import parse_factor_token


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_family(capsys):
    code, out, _ = run(capsys, "solve", "--graph", "path:2", "--kind", "gamma_t2")
    assert code == 0
    assert out.strip() == "2 [0,1]"


def test_solve_graph6_rho(capsys):
    code, out, _ = run(capsys, "solve", "--graph", "g6:A_", "--kind", "rho")
    assert code == 0
    assert out.strip() == "1 [0]"


def test_solve_invalid_cycle_usage(capsys):
    code, _, err = run(capsys, "solve", "--graph", "cycle:2", "--kind", "gamma")
    assert code == 2
    assert "cycle" in err


def test_solve_random_without_p_is_usage(capsys):
    for token in ("random:5", "random:5:s1", "random:5:p0.5", "random:5:s1:p0.5"):
        code, out, err = run(capsys, "solve", "--graph", token, "--kind", "gamma")
        assert code == 2
        assert "needs random:n:pP:sS" in err
        assert out == ""


@pytest.mark.parametrize("kind,expected", [("gamma_t2", "3 [0,2,4]\n"), ("rho", "2 [0,5]\n")])
def test_solve_random_token(capsys, kind, expected):
    # the graph and the output that --family random --n 6 --p 0.5 --seed 11
    # gave before random graphs were tokens
    code, out, _ = run(capsys, "solve", "--graph", "random:6:p0.5:s11", "--kind", kind)
    assert code == 0
    assert out == expected


def test_solve_undecodable_graph6_file_is_usage(capsys, tmp_path):
    path = tmp_path / "bad.g6"
    path.write_bytes(b"x\xff\n")
    code, _, err = run(capsys, "solve", "--graph6-file", str(path), "--kind", "gamma")
    assert code == 2
    assert "decode" in err


def test_solve_isolate_precondition(capsys):
    # "A?" is the 2-vertex edgeless graph
    code, _, err = run(capsys, "solve", "--graph", "g6:A?", "--kind", "gamma_t2")
    assert code == 3
    assert "isolate" in err


def test_solve_conflicting_sources(capsys, tmp_path):
    # both sources, or neither
    path = tmp_path / "one.g6"
    path.write_text("A_\n")
    for sources in (["--graph", "path:2", "--graph6-file", str(path)], []):
        code, _, err = run(capsys, "solve", *sources, "--kind", "gamma")
        assert code == 2
        assert "exactly one" in err


def test_solve_bad_graph6(capsys):
    code, _, err = run(capsys, "solve", "--graph", "g6:", "--kind", "gamma")
    assert code == 2
    assert "empty" in err


def test_solve_graph6_file(capsys, tmp_path):
    path = tmp_path / "one.g6"
    path.write_text("Bw\n")
    code, out, _ = run(capsys, "solve", "--graph6-file", str(path), "--kind", "gamma")
    assert code == 0
    assert out.strip() == "1 [0]"


def test_solve_graph6_file_with_two_graphs_is_usage(capsys, tmp_path):
    path = tmp_path / "two.g6"
    path.write_text("A_\n\nBw\n")
    code, out, err = run(capsys, "solve", "--graph6-file", str(path), "--kind", "gamma")
    assert code == 2
    assert "exactly one graph" in err
    assert out == ""


def test_solve_no_longer_takes_family_flags(capsys):
    # --family, --n, --p, --seed and --graph6 gave way to one factor token
    with pytest.raises(SystemExit) as info:
        main(["solve", "--family", "path", "--n", "4", "--p", "0.9", "--kind", "gamma_t2"])
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,unknown",
    [
        (["solve", "--graph6", "A_", "--kind", "rho"], "--graph6 A_"),
        (["scan", "--spec", "path:2 x path:2", "--out", "o.jsonl", "--no-rep"], "--no-rep"),
    ],
)
def test_abbreviated_flags_are_usage(capsys, monkeypatch, argv, unknown):
    # no prefix matching: --graph6 is not read as --graph6-file, nor
    # --no-rep as --no-replay
    def solved(*args, **kwargs):
        raise AssertionError("an abbreviated flag reached the command")

    monkeypatch.setattr("semitotal.cli.scan", solved)
    monkeypatch.setattr("semitotal.cli.solve_bnb", solved)
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert f"unrecognized arguments: {unknown}" in capsys.readouterr().err


def test_product_emits_four_cycle(capsys):
    code, out, _ = run(capsys, "product", "--left", "path:2", "--right", "path:2")
    assert code == 0
    g = parse_graph6(out.strip())
    assert g.n == 4 and g.edge_count == 4
    assert all(g.degree(v) == 2 for v in range(4))


def test_product_rejects_range_token(capsys):
    code, _, err = run(capsys, "product", "--left", "paths:2-3", "--right", "path:2")
    assert code == 2
    assert "exactly one" in err


def test_product_and_verify_proof_take_random_factors(capsys):
    code, out, _ = run(capsys, "product", "--left", "random:6:p0.5:s11", "--right", "path:2")
    assert code == 0
    assert parse_graph6(out.strip()).n == 12
    code, out, _ = run(capsys, "verify-proof", "--left", "random:6:p0.5:s11", "--right", "path:2")
    assert code == 0
    assert "instance       random:6:p0.5:s11 x path:2" in out
    assert "pi_valid       pass" in out


def test_product_over_size_cap_is_usage(capsys):
    code, out, err = run(capsys, "product", "--left", "path:65", "--right", "path:64")
    assert code == 2
    assert "exceeds size cap 4096" in err
    assert out == ""


def test_scan_writes_artifacts(capsys, tmp_path):
    out_path = tmp_path / "run.jsonl"
    code, out, _ = run(
        capsys,
        "scan",
        "--spec",
        "paths:2-4 x cycles:3-5",
        "--out",
        str(out_path),
        "--workers",
        "1",
    )
    assert code == 0
    assert "instances: 9" in out
    assert out_path.exists()
    csv_path = tmp_path / "run.csv"
    assert csv_path.exists()
    lines = out_path.read_text().splitlines()
    assert json.loads(lines[0])["schema_version"] == 1
    assert len(lines) == 10


def test_scan_exit_four_on_bound_violation(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        "scan",
        "--spec",
        "path:4 x path:2",
        "--out",
        str(tmp_path / "v.jsonl"),
        "--workers",
        "1",
    )
    assert code == 4
    assert "1 bound violations" in out


def test_scan_requires_exactly_one_spec(capsys, tmp_path):
    code, _, err = run(capsys, "scan", "--out", str(tmp_path / "x.jsonl"))
    assert code == 2
    assert "exactly one" in err


def test_scan_empty_spec_is_usage(capsys, tmp_path):
    out_path = tmp_path / "e.jsonl"
    code, out, err = run(capsys, "scan", "--spec", "", "--out", str(out_path))
    assert code == 2
    assert "empty factor token" in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


def test_scan_json_spec(capsys, tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        json.dumps(
            {
                "left": [{"family": "random", "n": 5, "p": 0.5, "seed": 2}],
                "right": [{"family": "cycle", "n_min": 3, "n_max": 4}],
            }
        )
    )
    out_path = tmp_path / "rand.jsonl"
    code, out, _ = run(
        capsys, "scan", "--spec-json", str(spec_path), "--out", str(out_path), "--workers", "1"
    )
    assert code == 0
    assert "instances: 2" in out
    lines = out_path.read_text().splitlines()
    assert len(lines) == 3
    record = json.loads(lines[1])
    assert record["left_id"] == "random:5:p0.5:s2"


def test_every_generated_id_that_scan_writes_parses_back(capsys, tmp_path):
    # an id names its graph: each left_id and right_id, file: ids aside, is a
    # factor token for exactly the graph6 the record holds
    (tmp_path / "g.g6").write_text("Bw\n")
    spec = {
        "left": [
            {"family": "random", "n_min": 4, "n_max": 6, "p": 0.5, "seed": 11},
            {"graph6": "Bw"},
        ],
        "right": [{"family": "paths", "n_min": 2, "n_max": 3}, {"graph6_file": "g.g6"}],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out_path = tmp_path / "ids.jsonl"
    argv = ["scan", "--spec-json", str(spec_path), "--out", str(out_path), "--no-replay"]
    code, _, _ = run(capsys, *argv, "--workers", "1")
    assert code == 0
    records = [json.loads(line) for line in out_path.read_text().splitlines()[1:]]
    assert len(records) == 12
    pairs = {(r["left_id"], r["graph6_g"]) for r in records}
    pairs |= {(r["right_id"], r["graph6_h"]) for r in records}
    generated = {pair for pair in pairs if not pair[0].startswith("file:")}
    assert {ident.split(":")[0] for ident, _ in generated} == {"random", "g6", "path"}
    assert len(generated) == len(pairs) - 1 == 6
    for ident, graph6 in generated:
        assert parse_factor_token(ident) == [(ident, graph6)]


@pytest.mark.parametrize("key", ["p", "seed"])
def test_scan_json_random_entry_needs_p_and_seed(capsys, tmp_path, key):
    entry = {"family": "random", "n": 5, "p": 0.5, "seed": 1}
    del entry[key]
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"left": [entry], "right": [{"family": "path", "n": 2}]}))
    out_path = tmp_path / "rand.jsonl"
    code, _, err = run(capsys, "scan", "--spec-json", str(spec_path), "--out", str(out_path))
    assert code == 2
    assert f"needs {key!r}" in err
    assert not out_path.exists()


def test_scan_json_random_entry_with_bad_p_is_usage(capsys, tmp_path):
    entry = {"family": "random", "n": 5, "p": 2, "seed": 1}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"left": [entry], "right": [{"family": "path", "n": 2}]}))
    out_path = tmp_path / "rand.jsonl"
    code, _, err = run(capsys, "scan", "--spec-json", str(spec_path), "--out", str(out_path))
    assert code == 2
    assert "0 <= p <= 1" in err
    assert not out_path.exists()


@pytest.mark.parametrize("digits", [400, 5_000])
def test_scan_json_random_entry_with_huge_integer_p_is_usage(capsys, tmp_path, digits):
    # 400 digits lie beyond float range and 5,000 beyond what json reads as
    # an integer; neither is a traceback
    p = "1" + "0" * digits
    left = '{"family": "random", "n": 5, "p": %s, "seed": 1}' % p
    spec = '{"left": [%s], "right": [{"family": "path", "n": 2}]}' % left
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(spec)
    out_path = tmp_path / "rand.jsonl"
    code, out, err = run(capsys, "scan", "--spec-json", str(spec_path), "--out", str(out_path))
    assert code == 2
    assert ("0 <= p <= 1" if digits == 400 else "cannot load spec file") in err
    assert out == ""
    assert list(tmp_path.iterdir()) == [spec_path]


def test_scan_internal_value_error_is_not_usage(capsys, tmp_path, monkeypatch):
    # a fault inside the replay is an internal error (exit 1 with a
    # traceback), not a usage error
    def broken(*args, **kwargs):
        raise ValueError("internal fault")

    monkeypatch.setattr("semitotal.harness.project_profiles", broken)
    argv = ["scan", "--spec", "path:2 x path:2", "--out", str(tmp_path / "i.jsonl"), "--workers", "1"]
    with pytest.raises(ValueError, match="internal fault"):
        main(argv)


def test_scan_missing_spec_json_is_usage(capsys, tmp_path):
    out_path = tmp_path / "m.jsonl"
    argv = ["scan", "--spec-json", str(tmp_path / "absent.json"), "--out", str(out_path)]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "absent.json" in err
    assert not out_path.exists()


def test_solve_missing_graph6_file_is_usage(capsys, tmp_path):
    argv = ["solve", "--graph6-file", str(tmp_path / "absent.g6"), "--kind", "gamma"]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "absent.g6" in err


@pytest.mark.parametrize("flag", ["--out", "--csv"])
def test_scan_unwritable_output_is_usage(capsys, tmp_path, monkeypatch, flag):
    # an output in a missing directory is refused before any pair is solved
    def solved(*args, **kwargs):
        raise AssertionError("scan ran before the output paths were checked")

    monkeypatch.setattr("semitotal.cli.scan", solved)
    argv = ["scan", "--spec", "path:2 x path:2", "--out", str(tmp_path / "o.jsonl"), "--workers", "1"]
    argv += [flag, str(tmp_path / "no-such-dir" / "o.out")]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "no-such-dir" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "flags",
    [("--out", "d/"), ("--out", "d"), ("--out", "o.jsonl", "--csv", "d"), ("--out", "d.jsonl")],
)
def test_scan_output_that_is_a_directory_is_refused_before_scanning(
    capsys, tmp_path, monkeypatch, flags
):
    # a directory named as the JSONL or the CSV, whose default path is the
    # JSONL's with .csv, fails before any pair is solved
    def solved(*args, **kwargs):
        raise AssertionError("scan ran before the output paths were checked")

    monkeypatch.setattr("semitotal.cli.scan", solved)
    for name in ("d", "d.csv"):
        (tmp_path / name).mkdir()
    argv = ["scan", "--spec", "path:2 x path:2", "--workers", "1"]
    argv += [str(tmp_path) + "/" + f if f[0] != "-" else f for f in flags]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "is a directory" in err
    assert out == ""
    assert sorted(path.name for path in tmp_path.iterdir()) == ["d", "d.csv"]


def test_scan_output_that_fails_after_solving_is_usage(capsys, tmp_path, monkeypatch):
    # the path checks pass, and the write itself fails: the output path
    # became a directory while the pairs were solved
    def scan_then_block(spec, options):
        (tmp_path / "o.jsonl").mkdir()
        return scan(spec, options)

    monkeypatch.setattr("semitotal.cli.scan", scan_then_block)
    argv = ["scan", "--spec", "path:2 x path:2", "--out", str(tmp_path / "o.jsonl"), "--workers", "1"]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "o.jsonl" in err
    assert out == ""


def test_scan_internal_os_error_is_not_usage(tmp_path, monkeypatch):
    # an OSError that no named file raised (a closed stdout, a worker pool
    # that cannot start) is an internal error, not a usage error
    def broken(*args, **kwargs):
        raise BrokenPipeError("stdout closed")

    monkeypatch.setattr("semitotal.cli.scan", broken)
    argv = ["scan", "--spec", "path:2 x path:2", "--out", str(tmp_path / "b.jsonl")]
    with pytest.raises(BrokenPipeError, match="stdout closed"):
        main(argv)


@pytest.mark.parametrize(
    "spec,message",
    [
        ({"left": 5}, "spec side 'left' is not a list"),
        ({"left": {"family": "path", "n": 2}}, "spec side 'left' is not a list"),
        ({"left": [5]}, "spec entry 5 is not an object"),
        ({"left": [{"graph6": 5}]}, "needs a string 'graph6'"),
        ({"left": [{"graph6_file": 5}]}, "needs a string 'graph6_file'"),
        ({"left": [{"family": "path", "n": [2]}]}, "needs numeric n, p and seed"),
        (5, '"left" and "right"'),
        ({"left": [{"family": "path", "n": 2.9}]}, "needs numeric n, p and seed"),
        ({"left": [{"family": "path", "n": "3"}]}, "needs numeric n, p and seed"),
        ({"left": [{"family": "path", "n": True}]}, "needs numeric n, p and seed"),
        ({"left": [{"family": "path", "n_min": 2, "n_max": 3.0}]}, "needs numeric n, p and seed"),
        ({"left": [{"family": "random", "n": 4, "p": 0.5, "seed": 1.5}]}, "needs numeric n, p and seed"),
        ({"left": [{"family": "random", "n": 4, "p": True, "seed": 1}]}, "needs numeric n, p and seed"),
        ({"left": [{"family": "random", "n": 4, "p": "0.5", "seed": 1}]}, "needs numeric n, p and seed"),
        ({"left": [{"family": "path", "n_min": 3}]}, "gives 'n_min' without 'n_max'"),
        ({"left": [{"family": "path", "n_max": 3}]}, "gives 'n_max' without 'n_min'"),
        ({"left": [{"family": "path"}]}, "needs 'n', or 'n_min' and 'n_max'"),
        ({"left": [{"family": "path", "n": 3, "n_max": 5}]}, "gives both 'n' and 'n_max'"),
        ({"left": [{"family": "path", "n": 3, "n_min": 2}]}, "gives both 'n' and 'n_min'"),
        ({"left": [{"family": "random", "p": 0.5, "seed": 1}]}, "needs 'n', or 'n_min' and 'n_max'"),
    ],
    ids=[
        "side-number",
        "side-object",
        "entry-number",
        "graph6",
        "graph6_file",
        "n-list",
        "top",
        "n-float",
        "n-string",
        "n-bool",
        "n_max-float",
        "seed-float",
        "p-bool",
        "p-string",
        "n_min-alone",
        "n_max-alone",
        "no-order",
        "n-and-n_max",
        "n-and-n_min",
        "random-no-order",
    ],
)
def test_scan_rejects_malformed_json_spec(capsys, tmp_path, spec, message):
    if isinstance(spec, dict):
        spec = {**spec, "right": [{"family": "path", "n": 2}]}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out_path = tmp_path / "bad.jsonl"
    code, _, err = run(capsys, "scan", "--spec-json", str(spec_path), "--out", str(out_path))
    assert code == 2
    assert message in err
    assert not out_path.exists()


@pytest.mark.parametrize(
    "flag,value",
    [("--product-cap", "-1"), ("--product-cap", "0"), ("--product-cap", "4097"), ("--workers", "0")],
)
def test_scan_rejects_out_of_range_options_before_scanning(capsys, tmp_path, flag, value):
    out_path = tmp_path / "o.jsonl"
    argv = ["scan", "--spec", "path:2 x path:2", "--out", str(out_path), flag, value]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert flag in err
    assert out == ""
    assert not out_path.exists() and not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize(
    "out,csv_path",
    [("run.csv", None), ("run.jsonl", "run.jsonl"), ("run.jsonl", "sub/../run.jsonl")],
)
def test_scan_rejects_a_csv_path_that_is_the_jsonl_before_scanning(capsys, tmp_path, out, csv_path):
    # the CSV would overwrite the JSONL it follows
    (tmp_path / "sub").mkdir()
    argv = ["scan", "--spec", "path:2 x path:2", "--out", str(tmp_path / out), "--workers", "1"]
    if csv_path is not None:
        argv += ["--csv", str(tmp_path / csv_path)]
    code, stdout, err = run(capsys, *argv)
    assert code == 2
    assert "same file" in err
    assert stdout == ""
    assert not (tmp_path / out).exists()


@pytest.mark.parametrize("value", ["0", "4097"])
def test_verify_proof_rejects_out_of_range_product_cap(capsys, value):
    argv = ["verify-proof", "--left", "path:2", "--right", "path:2", "--product-cap", value]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "--product-cap" in err
    assert out == ""


def test_verify_proof_over_the_product_cap_is_usage(capsys):
    # path:7 x path:6 has 42 vertices, above the replay cap of 36
    code, out, err = run(capsys, "verify-proof", "--left", "path:7", "--right", "path:6")
    assert code == 2
    assert out == ""
    assert err == "error: product on 42 vertices exceeds cap 36\n"


def test_scan_rejects_threshold_den_zero_before_scanning(capsys, tmp_path):
    out_path = tmp_path / "z.jsonl"
    code, out, err = run(
        capsys,
        "scan",
        "--spec",
        "path:2 x path:2",
        "--out",
        str(out_path),
        "--workers",
        "1",
        "--threshold-den",
        "0",
    )
    assert code == 2
    assert "--threshold-den" in err
    assert out == ""
    assert not out_path.exists() and not (tmp_path / "z.csv").exists()


@pytest.mark.parametrize("num", ["0", "-3"])
def test_scan_rejects_threshold_num_below_one_before_scanning(capsys, tmp_path, num):
    out_path = tmp_path / "z.jsonl"
    code, out, err = run(
        capsys,
        "scan",
        "--spec",
        "path:2 x path:2",
        "--out",
        str(out_path),
        "--workers",
        "1",
        "--threshold-num",
        num,
    )
    assert code == 2
    assert "--threshold-num" in err
    assert out == ""
    assert not out_path.exists() and not (tmp_path / "z.csv").exists()


def test_verify_proof_table(capsys):
    code, out, _ = run(capsys, "verify-proof", "--left", "cycle:6", "--right", "path:3")
    assert code == 0
    for row in ("pi_valid", "claim1", "claim2", "eq1", "eq2", "eq3"):
        assert row in out
    assert "bound_thm1" in out and "bound_thm2" in out


def test_verify_proof_flags_violation(capsys):
    code, out, _ = run(capsys, "verify-proof", "--left", "path:4", "--right", "path:2")
    assert code == 4
    assert "VIOLATED" in out


def test_report_renders(capsys, tmp_path):
    out_path = tmp_path / "r.jsonl"
    run(capsys, "scan", "--spec", "paths:2-3 x paths:2-3", "--out", str(out_path), "--workers", "1")
    code, out, _ = run(capsys, "report", "--jsonl", str(out_path))
    assert code == 0
    assert "gamma_t2_prod" in out.splitlines()[0]
    assert "min ratio: 1/2 at path:2 x path:2 A_ A_" in out
    assert "replay claim1: 4 pass, 0 fail, 0 skipped" in out


def test_report_prints_the_summary_that_scan_printed(capsys, tmp_path):
    # path:4 x path:2 breaks the packing bound, so the scan exits 4 with one
    # bound_violation finding; report must count it by the same rule
    out_path = tmp_path / "v.jsonl"
    code, scan_out, _ = run(
        capsys, "scan", "--spec", "paths:2-4 x path:2", "--out", str(out_path), "--workers", "1"
    )
    assert code == 4
    summary = scan_out.split("conjecture threshold")[0].splitlines()
    assert "findings: 1 (1 bound violations)" in summary
    code, out, _ = run(capsys, "report", "--jsonl", str(out_path))
    assert code == 0
    report = out.splitlines()
    assert [line for line in summary if line not in report] == []


def test_report_rejects_non_scan_csv(capsys, tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("a,b\n1,2\n")
    code, out, err = run(capsys, "report", "--jsonl", str(path))
    assert code == 2
    assert "line 1 is not a JSON object" in err
    assert out == ""


def test_report_rejects_a_truncated_scan_jsonl(capsys, tmp_path):
    out_path = tmp_path / "t.jsonl"
    run(capsys, "scan", "--spec", "paths:2-3 x path:2", "--out", str(out_path), "--workers", "1")
    lines = out_path.read_text().splitlines()
    lines[-1] = lines[-1][: len(lines[-1]) // 2]
    out_path.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "report", "--jsonl", str(out_path))
    assert code == 2
    assert "line 3 is not a JSON object" in err
    assert out == ""


@pytest.mark.parametrize(
    "change,field",
    [
        ({"ratio_den": 0}, "'ratio_den'"),
        ({"ratio_num": None}, "'ratio_num'"),
        ({"replay": {"claim1": "maybe"}}, "'claim1'"),
        ({"findings": [1]}, "'findings'"),
        ({"findings": [{"x": 1}]}, "'findings'"),
    ],
    ids=["zero-ratio-den", "null-ratio-num", "unknown-status", "finding-number", "finding-no-kind"],
)
def test_report_rejects_an_inconsistent_record(capsys, tmp_path, change, field):
    out_path = tmp_path / "z.jsonl"
    run(capsys, "scan", "--spec", "path:2 x paths:2-3", "--out", str(out_path), "--workers", "1")
    header, first, second = out_path.read_text().splitlines()
    out_path.write_text("\n".join([header, first, json.dumps({**json.loads(second), **change})]))
    code, out, err = run(capsys, "report", "--jsonl", str(out_path))
    assert code == 2
    assert "line 3" in err and field in err
    assert out == ""


def test_report_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "report", "--jsonl", str(tmp_path / "absent.jsonl"))
    assert code == 2
    assert err


def test_report_no_longer_reads_a_csv(capsys, tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["report", "--csv", str(tmp_path / "run.csv")])
    assert info.value.code == 2
    assert "--jsonl" in capsys.readouterr().err
