"""Scan orchestration: per-pair verification, family sweeps, and the
conjectured-ratio hunt.

Every pair record carries the exact invariants of both factors and the
product, the two product lower bounds, the product/factor ratio as an exact
rational, and pass/fail flags for the full proof replay.  Ratios and bounds
are integers end to end; findings embed enough context (graph6 of both
factors, the product set, the cell partition) to replay outside the scan.
"""

import os
import time
from dataclasses import MISSING, dataclass, field, fields
from fractions import Fraction
from math import ceil
from typing import get_args

from .graph6 import emit_graph6, parse_graph6
from .graphs import Graph, VertexSet, cartesian_product, product_symmetry
from .proofs import (
    build_cell_partition,
    build_connector_set,
    build_cover_index,
    cell_partition_violations,
    check_column_bounds,
    counting_checks,
    max_allied_set,
    project_profiles,
)
from .solvers import (
    IsolateError,
    lexleast_min_semitotal_set,
    solve_bnb,
)

REPLAY_PRODUCT_CAP = 36
NO_REPLAY_PRODUCT_CAP = 49

HUNT_CLOSEST = 10

REPLAY_CHECKS = ("pi_valid", "claim1", "claim2", "eq1", "eq2", "eq3")


@dataclass
class ScanOptions:
    """Knobs for verify_pair/scan; defaults give the desk-scale envelope."""

    replay: bool = True
    product_cap: int | None = None  # None: 36 with replay, 49 without
    workers: int | None = None  # None: the CPUs this process may run on

    def effective_cap(self) -> int:
        if self.product_cap is not None:
            return self.product_cap
        return REPLAY_PRODUCT_CAP if self.replay else NO_REPLAY_PRODUCT_CAP

    def effective_workers(self) -> int:
        if self.workers is not None:
            return max(1, self.workers)
        if hasattr(os, "sched_getaffinity"):  # a cpuset or taskset may hide host CPUs
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1


@dataclass
class InstanceRecord:
    """One verified factor pair; JSON-plain so it serializes losslessly."""

    id: str
    left_id: str
    right_id: str
    graph6_g: str
    graph6_h: str
    n_g: int
    n_h: int
    skipped: str | None = None
    gamma_t2_g: int | None = None
    gamma_t2_h: int | None = None
    rho_g: int | None = None
    gamma_t2_prod: int | None = None
    bound_thm1: int | None = None
    bound_thm2: int | None = None
    ratio_num: int | None = None
    ratio_den: int | None = None
    bound_thm1_ok: bool | None = None
    bound_thm2_ok: bool | None = None
    replay: dict = field(default_factory=lambda: {c: "skipped" for c in REPLAY_CHECKS})
    claim2_cells_pass: int | None = None
    claim2_cells_fail: int | None = None
    findings: list = field(default_factory=list)
    timing: dict = field(default_factory=dict)

    @property
    def ratio(self) -> Fraction | None:
        if self.ratio_num is None:
            return None
        return Fraction(self.ratio_num, self.ratio_den)

    def to_json_dict(self, include_timing: bool = True) -> dict:
        out = {
            key: _CONTAINER_FIELDS[name](getattr(self, name))
            if name in _CONTAINER_FIELDS
            else getattr(self, name)
            for name, key in _JSON_KEYS.items()
        }
        if not include_timing:
            del out["timing"]
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "InstanceRecord":
        values = {}
        for f in fields(cls):
            key = _JSON_KEYS[f.name]
            if f.default is MISSING and f.default_factory is MISSING:
                value = data[key]
            elif f.name in _CONTAINER_FIELDS:
                value = data.get(key, _CONTAINER_FIELDS[f.name]())
            else:
                value = data.get(key)
            # the exact type, so that a JSON true is not read as an integer
            allowed = get_args(f.type) or (f.type,)
            if type(value) not in allowed:
                wanted = " or ".join(_JSON_NAMES[kind] for kind in allowed)
                raise ValueError(f"holds {key!r} as {type(value).__name__}, not a JSON {wanted}")
            values[f.name] = f.type(value) if f.name in _CONTAINER_FIELDS else value
        # the values a summary reads must agree with each other
        if values["skipped"] is None:
            for name in _SOLVED_FIELDS:
                if values[name] is None:
                    raise ValueError(f"holds {_JSON_KEYS[name]!r} as null in a solved record")
            if values["ratio_den"] < 1:
                raise ValueError(f"holds 'ratio_den' as {values['ratio_den']}, not at least 1")
        for check, status in values["replay"].items():
            if status not in ("pass", "fail", "skipped"):
                raise ValueError(f"holds 'replay' {check!r} as {status!r}, not pass/fail/skipped")
        for i, finding in enumerate(values["findings"]):
            if type(finding) is not dict or type(finding.get("kind")) is not str:
                raise ValueError(f"holds 'findings' entry {i} without a string 'kind'")
        return cls(**values)


# JSON key of each record field, in field order; fields without a default
# are required when reading, and every value must have its field's type.
# Container fields are copied both ways and read as empty when absent.
_RENAMED_KEYS = {"gamma_t2_g": "gamma_t2_G", "gamma_t2_h": "gamma_t2_H", "rho_g": "rho_G"}
_JSON_KEYS = {f.name: _RENAMED_KEYS.get(f.name, f.name) for f in fields(InstanceRecord)}
_CONTAINER_FIELDS = {f.name: f.type for f in fields(InstanceRecord) if f.type in (dict, list)}
_JSON_NAMES = {
    str: "string", int: "integer", bool: "boolean", dict: "object", list: "list", type(None): "null"
}
# the invariants, bounds and ratio that a record not skipped holds
_SOLVED_FIELDS = (
    "gamma_t2_g", "gamma_t2_h", "rho_g", "gamma_t2_prod", "bound_thm1", "bound_thm2",
    "ratio_num", "ratio_den",
)


def _finding(
    kind: str,
    record: InstanceRecord,
    failed_predicate: str,
    d: list[int] | None,
    partition: list[list[int]] | None,
    detail: dict,
) -> dict:
    return {
        "kind": kind,
        "instance_id": record.id,
        "graph6_g": record.graph6_g,
        "graph6_h": record.graph6_h,
        "failed_predicate": failed_predicate,
        "d": d,
        "partition": partition,
        "detail": detail,
    }


def _status(ok: bool) -> str:
    return "pass" if ok else "fail"


def _new_record(
    g6g: str, g6h: str, n_g: int, n_h: int, left_id: str | None, right_id: str | None
) -> InstanceRecord:
    """The identifying header of a pair's record; ids default to the graph6."""
    lid = left_id or f"g6:{g6g}"
    rid = right_id or f"g6:{g6h}"
    return InstanceRecord(
        id=f"{lid} x {rid} {g6g} {g6h}",
        left_id=lid,
        right_id=rid,
        graph6_g=g6g,
        graph6_h=g6h,
        n_g=n_g,
        n_h=n_h,
    )


def _plain_fields(result) -> dict:
    """A stage result's fields as JSON-plain values: each VertexSet becomes
    its sorted vertex list."""
    plain = {f.name: getattr(result, f.name) for f in fields(result)}
    return {k: sorted(v.vertices()) if isinstance(v, VertexSet) else v for k, v in plain.items()}


def _isolated_factor(g: Graph, h: Graph) -> str | None:
    """Why the pair cannot be solved, when a factor has an isolated vertex."""
    for side, graph in (("left", g), ("right", h)):
        if not graph.is_isolate_free():
            return f"{side} factor has an isolated vertex"
    return None


def verify_pair(
    g: Graph,
    h: Graph,
    options: ScanOptions | None = None,
    left_id: str | None = None,
    right_id: str | None = None,
) -> InstanceRecord:
    """Compute exact invariants and bounds for one factor pair, optionally
    replaying the full proof machinery on the product."""
    options = options or ScanOptions()
    isolated = _isolated_factor(g, h)
    if isolated:
        raise IsolateError(isolated)
    record = _new_record(emit_graph6(g), emit_graph6(h), g.n, h.n, left_id, right_id)
    cap = options.effective_cap()
    if g.n * h.n > cap:
        record.skipped = f"product on {g.n * h.n} vertices exceeds cap {cap}"
        return record

    d_list = cells = None

    def report(kind: str, failed_predicate: str, detail: dict) -> None:
        # every finding carries the product set and, once built, the cells
        record.findings.append(_finding(kind, record, failed_predicate, d_list, cells, detail))

    clock = time.perf_counter
    t = clock()
    record.gamma_t2_g = solve_bnb(g, "gamma_t2").value
    record.rho_g = solve_bnb(g, "rho").value
    record.timing["solve_g"] = clock() - t
    t = clock()
    record.gamma_t2_h = solve_bnb(h, "gamma_t2").value
    record.timing["solve_h"] = clock() - t

    t = clock()
    prod = cartesian_product(g, h)
    symmetry = product_symmetry(prod)
    minimum = solve_bnb(prod.graph, "gamma_t2", symmetry=symmetry).witness
    record.gamma_t2_prod = len(minimum)
    record.bound_thm1 = record.rho_g * record.gamma_t2_h
    record.bound_thm2 = ceil(record.gamma_t2_g * record.gamma_t2_h / 3)
    record.bound_thm1_ok = record.gamma_t2_prod >= record.bound_thm1
    record.bound_thm2_ok = record.gamma_t2_prod >= record.bound_thm2
    # The bounds read only the value; the canonical set is built once, when
    # the replay or a bound_violation finding reads it.
    if options.replay or not (record.bound_thm1_ok and record.bound_thm2_ok):
        d = lexleast_min_semitotal_set(prod.graph, minimum=minimum, symmetry=symmetry)
        d_list = sorted(d.vertices())
    record.timing["solve_prod"] = clock() - t

    ratio = Fraction(record.gamma_t2_prod, record.gamma_t2_g * record.gamma_t2_h)
    record.ratio_num, record.ratio_den = ratio.numerator, ratio.denominator
    for name, ok, bound in (
        ("bound_thm1", record.bound_thm1_ok, record.bound_thm1),
        ("bound_thm2", record.bound_thm2_ok, record.bound_thm2),
    ):
        if not ok:
            report(
                "bound_violation",
                f"gamma_t2_prod >= {name}",
                {
                    "gamma_t2_prod": record.gamma_t2_prod,
                    name: bound,
                    "gamma_t2_G": record.gamma_t2_g,
                    "gamma_t2_H": record.gamma_t2_h,
                    "rho_G": record.rho_g,
                },
            )

    if not options.replay:
        return record

    t = clock()
    ap = max_allied_set(g, gamma_t2=record.gamma_t2_g)
    pi = build_cell_partition(g, ap)
    cells = [sorted(c.vertices()) for c in pi]
    violations = cell_partition_violations(g, ap, pi)
    record.replay["pi_valid"] = _status(not violations)
    if violations:
        report("construction_failure", "cell_partition_invariants", {"violations": violations})

    profiles = project_profiles(prod, d, pi)
    cover = build_cover_index(prod, d, pi, profiles)
    columns = check_column_bounds(prod, d, ap, pi, cover)
    record.replay["claim1"] = _status(all(check.ok for check in columns))
    for check in columns:
        if not check.ok:
            report("claim1_failure", "claim1_column_check", _plain_fields(check))

    failed_cells = []
    for profile in profiles:
        result = build_connector_set(h, profile)
        if not result.base_valid:
            failed_cells.append(profile.index)
            report(
                "claim2_edge_case",
                "claim2_validation",
                {
                    "cell": profile.index,
                    "projection": sorted(profile.projection.vertices()),
                    "missing": sorted(profile.missing.vertices()),
                    "uncovered": sorted(profile.uncovered.vertices()),
                    "connectors": sorted(result.connectors.vertices()),
                },
            )
    record.claim2_cells_pass = len(profiles) - len(failed_cells)
    record.claim2_cells_fail = len(failed_cells)
    record.replay["claim2"] = _status(not failed_cells)

    checks = counting_checks(
        profiles, cover, record.gamma_t2_prod, record.gamma_t2_g, record.gamma_t2_h
    )
    for eq in ("eq1", "eq2", "eq3"):
        record.replay[eq] = _status(getattr(checks, f"{eq}_ok"))
    if not (checks.eq1_ok and checks.eq2_ok and checks.eq3_ok and checks.chain_ok):
        # eq3 leans on the per-cell validations; report the link
        detail = {**_plain_fields(checks), "claim2_failed_cells": failed_cells}
        report("counting_inequality_failure", "counting_checks", detail)
    record.timing["replay"] = clock() - t
    return record


@dataclass
class ScanSummary:
    records: list[InstanceRecord]
    findings: list[dict]
    total: int
    solved: int
    skipped: int
    min_ratio: tuple[int, int] | None
    min_ratio_id: str | None
    check_pass_counts: dict
    bound_violations: int

    def render(self) -> str:
        lines = [
            f"instances: {self.total} ({self.solved} solved, {self.skipped} skipped)",
            f"findings: {len(self.findings)} ({self.bound_violations} bound violations)",
        ]
        if self.min_ratio is not None:
            lines.append(
                f"min ratio: {self.min_ratio[0]}/{self.min_ratio[1]} at {self.min_ratio_id}"
            )
        for check in REPLAY_CHECKS:
            counts = self.check_pass_counts.get(check, {})
            lines.append(
                f"replay {check}: {counts.get('pass', 0)} pass, "
                f"{counts.get('fail', 0)} fail, {counts.get('skipped', 0)} skipped"
            )
        return "\n".join(lines)


def _pair_task(task) -> InstanceRecord:
    lid, g6g, rid, g6h, options = task
    g, h = parse_graph6(g6g), parse_graph6(g6h)
    isolated = _isolated_factor(g, h)
    if isolated:  # a skipped record, never an aborted scan
        record = _new_record(g6g, g6h, g.n, h.n, lid, rid)
        record.skipped = f"error: {isolated}"
        return record
    return verify_pair(g, h, options, left_id=lid, right_id=rid)


def scan(spec, options: ScanOptions | None = None) -> ScanSummary:
    """Run verify_pair over the grid of factor descriptors, in spec order.

    A pair with an isolated factor becomes a skipped record; any other error
    propagates.  Results are merged in spec order regardless of worker
    scheduling.
    """
    options = options or ScanOptions()
    tasks = [
        (lid, g6g, rid, g6h, options)
        for (lid, g6g) in spec.left
        for (rid, g6h) in spec.right
    ]
    workers = min(options.effective_workers(), len(tasks))
    if workers <= 1:
        records = list(map(_pair_task, tasks))
    else:
        # imported here: the pool's modules are most of the package's import
        # time, and a serial process never uses them
        from concurrent.futures import ProcessPoolExecutor

        # at least two chunks per worker, so that a short grid still
        # reaches every worker
        chunksize = min(8, ceil(len(tasks) / (2 * workers)))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_pair_task, tasks, chunksize=chunksize))
    return summarize(records)


def summarize(records: list[InstanceRecord]) -> ScanSummary:
    findings = [f for r in records for f in r.findings]
    solved = [r for r in records if r.skipped is None]
    lowest = min(solved, key=lambda r: r.ratio, default=None)  # the first, on a tie
    counts = {check: {"pass": 0, "fail": 0, "skipped": 0} for check in REPLAY_CHECKS}
    for r in records:
        for check in REPLAY_CHECKS:
            counts[check][r.replay.get(check, "skipped")] += 1
    return ScanSummary(
        records=records,
        findings=findings,
        total=len(records),
        solved=len(solved),
        skipped=len(records) - len(solved),
        min_ratio=None if lowest is None else (lowest.ratio_num, lowest.ratio_den),
        min_ratio_id=None if lowest is None else lowest.id,
        check_pass_counts=counts,
        bound_violations=sum(1 for f in findings if f["kind"] == "bound_violation"),
    )


@dataclass
class HuntReport:
    threshold: tuple[int, int]
    findings: list[dict]
    closest: list[dict]  # {"id", "ratio_num", "ratio_den"}, the HUNT_CLOSEST nearest above

    def render(self) -> str:
        num, den = self.threshold
        lines = [f"conjecture threshold {num}/{den}: {len(self.findings)} counterexamples"]
        for f in self.findings:
            lines.append(f"  COUNTEREXAMPLE {f['instance_id']} {f['detail']}")
        lines.append("closest instances:")
        for c in self.closest:
            lines.append(f"  {c['ratio_num']}/{c['ratio_den']}  {c['id']}")
        return "\n".join(lines)


def hunt_from_records(
    records: list[InstanceRecord],
    threshold: tuple[int, int] = (1, 2),
) -> HuntReport:
    bar = Fraction(*threshold)
    findings = []
    above = []
    for r in records:
        if r.skipped is not None:
            continue
        ratio = Fraction(r.ratio_num, r.ratio_den)
        if ratio < bar:
            findings.append(
                _finding(
                    "conjecture_counterexample",
                    r,
                    f"ratio >= {threshold[0]}/{threshold[1]}",
                    None,
                    None,
                    {"ratio_num": r.ratio_num, "ratio_den": r.ratio_den},
                )
            )
        else:
            above.append((ratio - bar, r.id, r))
    above.sort(key=lambda t: (t[0], t[1]))
    closest = [
        {"id": r.id, "ratio_num": r.ratio_num, "ratio_den": r.ratio_den}
        for _, _, r in above[:HUNT_CLOSEST]
    ]
    return HuntReport(threshold=threshold, findings=findings, closest=closest)
