import csv
import json

import pytest

from semitotal import ScanOptions, scan
from semitotal.graph6 import parse_graph6
from semitotal.io import (
    CSV_COLUMNS,
    FamilySpecError,
    comparison_form,
    load_spec_json,
    parse_factor_token,
    parse_pair_spec,
    read_jsonl,
    render_report,
    write_csv,
    write_jsonl,
)


def run_scan(spec_text):
    return scan(parse_pair_spec(spec_text), ScanOptions(workers=1))


def test_token_single():
    entries = parse_factor_token("path:3")
    assert len(entries) == 1
    ident, graph6 = entries[0]
    assert ident == "path:3"
    assert parse_graph6(graph6).n == 3


def test_token_range_and_plural():
    entries = parse_factor_token("paths:2-5")
    assert [i for i, _ in entries] == ["path:2", "path:3", "path:4", "path:5"]
    assert parse_factor_token("cycle:4") == parse_factor_token("cycles:4")


def test_token_graph6():
    entries = parse_factor_token("g6:A_")
    assert entries == [("g6:A_", "A_")]


def test_token_random_is_the_json_random_entry(tmp_path):
    # a random token draws what the JSON entry with the same n, p and seed
    # draws, under the same ids; a p of 1 is written 1.0 by both
    entries = parse_factor_token("randoms:4-6:p0.5:s11")
    assert [i for i, _ in entries] == [f"random:{n}:p0.5:s11" for n in (4, 5, 6)]
    spec_path = tmp_path / "spec.json"
    entry = {"family": "random", "n_min": 4, "n_max": 6, "p": 0.5, "seed": 11}
    spec_path.write_text(json.dumps({"left": [entry], "right": [{"family": "path", "n": 2}]}))
    assert list(load_spec_json(spec_path).left) == entries
    (ident, _), = parse_factor_token("random:4:p1:s3")
    assert ident == "random:4:p1.0:s3"


def test_token_errors():
    bad_tokens = (
        "", "path", "path:", "ladder:3", "path:5-2", "cycle:2", "path:4:p0.5:s1",
        "random:5", "random:5:p0.5", "random:5:s1:p0.5", "random:5:px:s1", "random:5:p0.5:s1.5",
        "random:5:p2:s1", "random:5:pnan:s1", "random:5-3:p0.5:s1",
    )
    for bad in bad_tokens:
        with pytest.raises(FamilySpecError):
            parse_factor_token(bad)


def test_pair_spec_grid():
    spec = parse_pair_spec("paths:2-4 x cycles:3-5")
    assert len(spec.left) == 3 and len(spec.right) == 3


def test_pair_spec_single_side_squares():
    spec = parse_pair_spec("paths:2-3")
    assert spec.left == spec.right and len(spec.left) == 2


def test_pair_spec_comma_union():
    spec = parse_pair_spec("paths:2-3,stars:3-3 x path:2")
    assert [i for i, _ in spec.left] == ["path:2", "path:3", "star:3"]
    assert len(spec.right) == 1


def test_pair_spec_too_many_separators():
    with pytest.raises(FamilySpecError, match="separator"):
        parse_pair_spec("path:2 x path:3 x path:4")


def test_json_spec_with_random_and_files(tmp_path):
    g6file = tmp_path / "graphs.g6"
    g6file.write_text("A_\nBw\n")
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        json.dumps(
            {
                "left": [
                    {"family": "path", "n_min": 2, "n_max": 3},
                    {"family": "random", "n": 6, "p": 0.5, "seed": 11},
                ],
                "right": [
                    {"graph6_file": "graphs.g6"},
                    {"graph6": "A_"},
                ],
            }
        )
    )
    spec = load_spec_json(spec_path)
    ids_left = [i for i, _ in spec.left]
    assert ids_left == ["path:2", "path:3", "random:6:p0.5:s11"]
    ids_right = [i for i, _ in spec.right]
    assert ids_right == ["file:graphs.g6:1", "file:graphs.g6:2", "g6:A_"]
    # same seed resolves to the same graph every time
    again = load_spec_json(spec_path)
    assert again.left == spec.left


def test_json_spec_errors(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"left": [{"family": "path", "n": 3}]}))
    with pytest.raises(FamilySpecError, match='"left" and "right"'):
        load_spec_json(spec_path)
    spec_path.write_text("not json")
    with pytest.raises(FamilySpecError, match="cannot load"):
        load_spec_json(spec_path)
    missing_file = json.dumps(
        {"left": [{"graph6_file": "nope.g6"}], "right": [{"family": "path", "n": 2}]}
    )
    spec_path.write_text(missing_file)
    with pytest.raises(FamilySpecError, match="cannot read"):
        load_spec_json(spec_path)


def test_json_spec_rejects_an_empty_random_range(tmp_path):
    # as a named family does, not by resolving the entry to no graphs
    spec_path = tmp_path / "spec.json"
    for family in ("random", "path"):
        entry = {"family": family, "n_min": 6, "n_max": 4, "p": 0.5, "seed": 1}
        spec = {"left": [entry, {"family": "path", "n": 3}], "right": [{"family": "path", "n": 2}]}
        spec_path.write_text(json.dumps(spec))
        with pytest.raises(FamilySpecError, match="empty range 6-4"):
            load_spec_json(spec_path)


def test_jsonl_round_trip(tmp_path):
    summary = run_scan("paths:2-3 x cycles:3-4")
    path = tmp_path / "run.jsonl"
    write_jsonl(path, summary.records)
    header, records = read_jsonl(path)
    assert header["schema_version"] == 1
    assert header["tool"] == "semitotal"
    assert records == summary.records


def test_jsonl_rejects_unknown_schema(tmp_path):
    # only the JSON integer 1 is version 1: true and 1.0 equal 1 in Python
    path = tmp_path / "bad.jsonl"
    for version in ("99", "true", "1.0"):
        path.write_text(f'{{"schema_version": {version}}}\n')
        with pytest.raises(ValueError, match="unsupported schema version"):
            read_jsonl(path)


@pytest.mark.parametrize(
    "header", ["[1]", "3", '"schema_version"', "null", "{x", "schema_version"]
)
def test_jsonl_rejects_a_header_that_is_not_an_object(tmp_path, header):
    path = tmp_path / "bad.jsonl"
    path.write_text(header + "\n")
    with pytest.raises(ValueError, match="bad.jsonl: line 1 is not a JSON object") as info:
        read_jsonl(path)
    assert type(info.value) is ValueError


def _record_line(**fields):
    """A record line with every required key and ``fields``."""
    required = {"id": "x", "left_id": "a", "right_id": "b", "graph6_g": "A_", "graph6_h": "A_"}
    return json.dumps({**required, "n_g": 2, "n_h": 2, **fields})


@pytest.mark.parametrize(
    "line,message",
    [
        ("[1]", "line 2 is not a JSON object"),
        ("3", "line 2 is not a JSON object"),
        ('{"id": "x"}', "line 2 lacks the key 'left_id'"),
        ('{"id": "x"', "line 2 is not a JSON object"),
        (_record_line(replay=5), "line 2 holds 'replay' as int, not a JSON object"),
        (_record_line(replay=[["a", "b"]]), "line 2 holds 'replay' as list, not a JSON object"),
        (_record_line(findings="ab"), "line 2 holds 'findings' as str, not a JSON list"),
        (_record_line(timing=None), "line 2 holds 'timing' as NoneType, not a JSON object"),
        (_record_line(n_g="two"), "line 2 holds 'n_g' as str, not a JSON integer"),
        (_record_line(n_h=[2]), "line 2 holds 'n_h' as list, not a JSON integer"),
        (
            _record_line(gamma_t2_prod="x"),
            "line 2 holds 'gamma_t2_prod' as str, not a JSON integer or null",
        ),
        (_record_line(n_g=True), "line 2 holds 'n_g' as bool, not a JSON integer"),
        (
            _record_line(bound_thm1_ok=3),
            "line 2 holds 'bound_thm1_ok' as int, not a JSON boolean or null",
        ),
        (_record_line(id=5), "line 2 holds 'id' as int, not a JSON string"),
    ],
    ids=[
        "list", "number", "missing-key", "not-json", "replay-number", "replay-pairs",
        "findings-string", "timing-null", "n-string", "n-list", "value-string", "n-bool",
        "flag-number", "id-number",
    ],
)
def test_jsonl_rejects_a_record_line_that_is_not_a_record(tmp_path, line, message):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"schema_version": 1}\n' + line + "\n")
    with pytest.raises(ValueError, match=f"bad.jsonl: {message}") as info:
        read_jsonl(path)
    assert type(info.value) is ValueError


def test_comparison_form_strips_timing(tmp_path):
    summary = run_scan("paths:2-3 x paths:2-3")
    path = tmp_path / "run.jsonl"
    write_jsonl(path, summary.records)
    form = comparison_form(path)
    assert b"timing" not in form
    assert b"gamma_t2_prod" in form


@pytest.mark.parametrize(
    "lines,number",
    [(["[1,2]"], 1), (["{bad"], 1), (['{"schema_version": 1}', "[1,2]"], 2),
     (['{"schema_version": 1}', "{bad"], 2)],
    ids=["header-list", "header-not-json", "record-list", "record-not-json"],
)
def test_comparison_form_rejects_a_line_that_is_not_an_object(tmp_path, lines, number):
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"bad.jsonl: line {number} is not a JSON object") as info:
        comparison_form(path)
    assert type(info.value) is ValueError


def test_csv_columns_fixed(tmp_path):
    summary = run_scan("paths:2-3 x paths:2-3")
    path = tmp_path / "run.csv"
    write_csv(path, summary.records)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(CSV_COLUMNS) == [
        "id",
        "n_G",
        "n_H",
        "gamma_t2_G",
        "gamma_t2_H",
        "rho_G",
        "gamma_t2_prod",
        "bound_thm1",
        "bound_thm2",
        "ratio_num",
        "ratio_den",
        "replay_pi_valid",
        "replay_claim1",
        "replay_claim2",
        "replay_eq1",
        "replay_eq2",
        "replay_eq3",
    ]
    assert len(rows) == 1 + summary.total
    by_col = dict(zip(rows[0], rows[1]))
    assert by_col["gamma_t2_G"] == "2"
    assert by_col["replay_claim1"] in ("pass", "fail", "skipped")


def test_report_rendering():
    summary = run_scan("paths:2-4 x paths:2-4")
    report = render_report(summary.records).splitlines()
    tail = summary.render().splitlines()
    assert report[0].split() == list(CSV_COLUMNS)
    # the header, its rule and nine rows, then a blank line and the summary
    assert report[2 + 9 :] == ["", *tail]
    assert "min ratio: 1/2 at path:2 x path:2 A_ A_" in tail


def test_report_rejects_foreign_csv(tmp_path):
    path = tmp_path / "foreign.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="foreign.csv: line 1 is not a JSON object"):
        read_jsonl(path)


def test_random_family_scan_is_seed_deterministic(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        json.dumps(
            {
                "left": [{"family": "random", "n_min": 5, "n_max": 7, "p": 0.6, "seed": 3}],
                "right": [{"family": "path", "n": 3}],
            }
        )
    )
    first = tmp_path / "one.jsonl"
    second = tmp_path / "two.jsonl"
    write_jsonl(first, scan(load_spec_json(spec_path), ScanOptions(workers=1)).records)
    write_jsonl(second, scan(load_spec_json(spec_path), ScanOptions(workers=1)).records)
    assert comparison_form(first) == comparison_form(second)


def test_skipped_record_serialization_round_trip(tmp_path):
    from semitotal import generate, verify_pair

    g = generate("path", 7)
    record = verify_pair(g, g, ScanOptions(workers=1))  # 49 > replay cap
    assert record.skipped is not None
    jsonl = tmp_path / "skip.jsonl"
    write_jsonl(jsonl, [record])
    _, back = read_jsonl(jsonl)
    assert back == [record]
    csv_path = tmp_path / "skip.csv"
    write_csv(csv_path, [record])
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    by_col = dict(zip(rows[0], rows[1]))
    assert by_col["gamma_t2_prod"] == ""
    assert by_col["replay_claim1"] == "skipped"
