"""Command-line surface.

Subcommands: solve, product, scan, verify-proof, report.  Graphs enter
through ``io``: a factor token (``path:4``, ``random:6:p0.5:s11``,
``g6:Cr``), a spec or a graph6 file.  Exit codes are a stable contract: 0
success, 2 usage or parse error, 3 violated precondition (isolated vertex
where an isolate-free graph is required), 4 a bound violation was found
(monitorable as a distinct failure class).  Bad input is turned into a usage
error where it enters, an undecodable input file and a named input or output
file that cannot be read or written included; any other exception is an
internal error and exits 1 with a traceback, an ``OSError`` on stdout or
from the worker pool too.
"""

import argparse
import os
import sys
from contextlib import contextmanager
from functools import partial
from pathlib import Path

from .graph6 import Graph6Error, emit_graph6, parse_graph6
from .graphs import PRODUCT_SIZE_CAP, Graph, cartesian_product
from .harness import REPLAY_CHECKS, ScanOptions, hunt_from_records, scan, verify_pair
from .io import (
    FamilySpecError,
    load_spec_json,
    parse_factor_token,
    parse_pair_spec,
    read_graph6_file,
    read_jsonl,
    render_report,
    write_csv,
    write_jsonl,
)
from .solvers import KINDS, IsolateError, solve_bnb

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_BOUND_VIOLATION = 4


class _UsageError(Exception):
    pass


@contextmanager
def _user_file():
    """An ``OSError`` on a file the user named is a usage error; any other
    ``OSError`` (a closed stdout, a worker pool that cannot start) is not."""
    try:
        yield
    except OSError as exc:
        raise _UsageError(str(exc)) from None


def _one_graph(entries: list[tuple[str, str]], source: str) -> tuple[str, Graph]:
    if len(entries) != 1:
        raise _UsageError(f"{source} must name exactly one graph here")
    ident, graph6 = entries[0]
    return ident, parse_graph6(graph6)


def _factor_from_token(token: str) -> tuple[str, Graph]:
    return _one_graph(parse_factor_token(token), f"token {token!r}")


def _cmd_solve(args) -> int:
    if (args.graph is None) == (args.graph6_file is None):
        raise _UsageError("exactly one graph source required (--graph / --graph6-file)")
    if args.graph is not None:
        _, graph = _factor_from_token(args.graph)
    else:
        entries = read_graph6_file(args.graph6_file)
        _, graph = _one_graph(entries, f"graph6 file {args.graph6_file}")
    result = solve_bnb(graph, args.kind)
    witness = ",".join(map(str, sorted(result.witness.vertices())))
    print(f"{result.value} [{witness}]")
    return EXIT_OK


def _cmd_product(args) -> int:
    _, left = _factor_from_token(args.left)
    _, right = _factor_from_token(args.right)
    if left.n * right.n > PRODUCT_SIZE_CAP:
        raise _UsageError(f"product on {left.n * right.n} vertices exceeds size cap {PRODUCT_SIZE_CAP}")
    print(emit_graph6(cartesian_product(left, right).graph))
    return EXIT_OK


def _make_options(args) -> ScanOptions:
    """The scan options of the flags, range-checked before any work starts."""
    cap = args.product_cap
    workers = getattr(args, "workers", None)
    if cap is not None and not 1 <= cap <= PRODUCT_SIZE_CAP:
        raise _UsageError(f"--product-cap must be between 1 and {PRODUCT_SIZE_CAP}")
    if workers is not None and workers < 1:
        raise _UsageError("--workers must be at least 1")
    return ScanOptions(
        replay=not getattr(args, "no_replay", False), product_cap=cap, workers=workers
    )


def _cmd_scan(args) -> int:
    if (args.spec is None) == (args.spec_json is None):
        raise _UsageError("scan needs exactly one of --spec or --spec-json")
    if args.threshold_num < 1:
        raise _UsageError("--threshold-num must be positive")
    if args.threshold_den <= 0:
        raise _UsageError("--threshold-den must be positive")
    csv_path = args.csv or Path(args.out).with_suffix(".csv")
    if Path(args.out).resolve() == Path(csv_path).resolve():
        raise _UsageError(f"--out and the CSV path are the same file: {args.out}")
    # a directory, or a missing or read-only parent, fails here, not after
    # every pair is solved
    for path in (Path(args.out), Path(csv_path)):
        if path.is_dir():
            raise _UsageError(f"cannot write {path}: it is a directory")
        if not (path.parent.is_dir() and os.access(path.parent, os.W_OK)):
            raise _UsageError(f"cannot write {path}: {path.parent} is not a writable directory")
    options = _make_options(args)
    spec = parse_pair_spec(args.spec) if args.spec is not None else load_spec_json(args.spec_json)
    summary = scan(spec, options)
    with _user_file():
        write_jsonl(args.out, summary.records)
        write_csv(csv_path, summary.records)
    print(summary.render())
    hunt = hunt_from_records(summary.records, (args.threshold_num, args.threshold_den))
    print(hunt.render())
    if summary.bound_violations or hunt.findings:
        return EXIT_BOUND_VIOLATION
    return EXIT_OK


def _cmd_verify_proof(args) -> int:
    options = _make_options(args)
    lid, left = _factor_from_token(args.left)
    rid, right = _factor_from_token(args.right)
    record = verify_pair(left, right, options, left_id=lid, right_id=rid)
    if record.skipped:
        raise _UsageError(record.skipped)
    print(f"instance       {record.id}")
    print(f"gamma_t2(G)    {record.gamma_t2_g}")
    print(f"gamma_t2(H)    {record.gamma_t2_h}")
    print(f"rho(G)         {record.rho_g}")
    print(f"gamma_t2(GxH)  {record.gamma_t2_prod}")
    print(f"bound_thm1     {record.bound_thm1}  ({'ok' if record.bound_thm1_ok else 'VIOLATED'})")
    print(f"bound_thm2     {record.bound_thm2}  ({'ok' if record.bound_thm2_ok else 'VIOLATED'})")
    print(f"ratio          {record.ratio_num}/{record.ratio_den}")
    print("check          status")
    for check in REPLAY_CHECKS:
        status = record.replay.get(check, "skipped")
        extra = ""
        if check == "claim2" and record.claim2_cells_pass is not None:
            extra = f"  (cells {record.claim2_cells_pass} pass, {record.claim2_cells_fail} fail)"
        print(f"{check:<14} {status}{extra}")
    if not (record.bound_thm1_ok and record.bound_thm2_ok):
        return EXIT_BOUND_VIOLATION
    return EXIT_OK


def _cmd_report(args) -> int:
    try:
        with _user_file():
            _, records = read_jsonl(args.jsonl)
    except ValueError as exc:  # not a scan JSONL, or a record that is not consistent
        raise _UsageError(str(exc)) from None
    print(render_report(records))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semitotal",
        description="Exact semi-total domination laboratory for Cartesian products.",
        allow_abbrev=False,
    )
    # no prefix matching anywhere: an abbreviated or removed flag is a usage error
    sub = parser.add_subparsers(dest="command", required=True)
    command = partial(sub.add_parser, allow_abbrev=False)

    solve = command("solve", help="compute one invariant of one graph")
    solve.add_argument("--graph", help="factor token, e.g. path:4, random:6:p0.5:s11 or g6:A_")
    solve.add_argument("--graph6-file", help="file holding one graph6 line")
    solve.add_argument("--kind", required=True, choices=KINDS)
    solve.set_defaults(func=_cmd_solve)

    product = command("product", help="emit graph6 of a Cartesian product")
    product.add_argument("--left", required=True, help="factor token, e.g. path:2 or g6:A_")
    product.add_argument("--right", required=True)
    product.set_defaults(func=_cmd_product)

    scan_p = command("scan", help="verify bounds over a factor grid")
    scan_p.add_argument("--spec", help='grammar spec, e.g. "paths:2-4 x cycles:3-5"')
    scan_p.add_argument("--spec-json", help="JSON spec file (random families, graph6 files)")
    scan_p.add_argument("--out", required=True, help="JSONL output path")
    scan_p.add_argument("--csv", help="CSV output path (default: --out with .csv)")
    scan_p.add_argument("--no-replay", action="store_true", help="skip the proof replay")
    scan_p.add_argument("--product-cap", type=int, help="skip products larger than this")
    scan_p.add_argument(
        "--workers", type=int, help="worker processes (default: the CPUs this process may run on)"
    )
    scan_p.add_argument("--threshold-num", type=int, default=1, help="ratio threshold numerator")
    scan_p.add_argument("--threshold-den", type=int, default=2, help="ratio threshold denominator")
    scan_p.set_defaults(func=_cmd_scan)

    verify = command("verify-proof", help="full replay on one pair, per-check table")
    verify.add_argument("--left", required=True)
    verify.add_argument("--right", required=True)
    verify.add_argument("--product-cap", type=int, default=None)
    verify.set_defaults(func=_cmd_verify_proof)

    report = command("report", help="render a scan JSONL as a table and its summary")
    report.add_argument("--jsonl", required=True)
    report.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except IsolateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (_UsageError, Graph6Error, FamilySpecError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
