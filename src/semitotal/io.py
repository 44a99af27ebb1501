"""Family-spec parsing, JSONL persistence, the CSV export and the report.

The one module that turns text into graphs.  Factor tokens like ``path:3``,
``paths:2-5`` (singular and plural both accepted), ``random:6:p0.5:s11`` or
``g6:<graph6>`` are comma-separated on each side of an ``x`` pair separator;
the JSON spec form adds graph6 files.  Every id a spec resolves to, ``file:``
ids aside, is a token for the same graph.  JSONL files start with a
schema/version header line; every record line parses back to an equal
record, and the report is rendered from those records.  The CSV is an
export that nothing reads back.
"""

import csv
import json
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .graph6 import emit_graph6, parse_graph6
from .graphs import FAMILIES, generate
from .harness import REPLAY_CHECKS, InstanceRecord, summarize

SCHEMA_VERSION = 1

# Singular and plural name of each family a token can name
_FAMILY_NAMES = {alias: name for name in FAMILIES for alias in (name, f"{name}s")}


class FamilySpecError(ValueError):
    """Malformed family descriptor or spec file."""


@dataclass(frozen=True)
class FamilySpec:
    """Resolved factor descriptors: (id, graph6) pairs for each side."""

    left: tuple[tuple[str, str], ...]
    right: tuple[tuple[str, str], ...]


def _graph6_entry(text: str) -> tuple[str, str]:
    """(``g6:<graph6>``, graph6) of a graph given as graph6 text, re-emitted
    so that the same graph always gets the same id."""
    graph6 = emit_graph6(parse_graph6(text))
    return f"g6:{graph6}", graph6


def _resolve_family(name: str, lo: int, hi: int, p=None, seed=None) -> list[tuple[str, str]]:
    """(id, graph6) of each member of order lo..hi.  A random member's id,
    ``random:n:pP:sS``, carries the p and seed that draw it again; a
    parameter that ``generate`` refuses is a spec error."""
    if hi < lo:
        raise FamilySpecError(f"empty range {lo}-{hi} for family {name}")
    params = f":p{p}:s{seed}" if name == "random" else ""
    entries = []
    for n in range(lo, hi + 1):
        try:
            graph = generate(name, n, p=p, seed=seed)
        except ValueError as exc:
            raise FamilySpecError(str(exc)) from None
        entries.append((f"{name}:{n}{params}", emit_graph6(graph)))
    return entries


def parse_factor_token(token: str) -> list[tuple[str, str]]:
    """One token: ``name:n``, ``name:lo-hi``, ``random:n:pP:sS``,
    ``random:lo-hi:pP:sS``, or ``g6:<graph6>``."""
    token = token.strip()
    if not token:
        raise FamilySpecError("empty factor token")
    if token.startswith("g6:"):
        return [_graph6_entry(token[3:])]
    if ":" not in token:
        raise FamilySpecError(f"factor token {token!r} needs name:range")
    name, _, spec = token.partition(":")
    family = _FAMILY_NAMES.get(name.lower())
    if family is None:
        raise FamilySpecError(f"unknown family {name!r} in token {token!r}")
    spec, *params = spec.split(":")
    p = seed = None
    if family == "random":
        if len(params) != 2 or params[0][:1] != "p" or params[1][:1] != "s":
            raise FamilySpecError(f"random token {token!r} needs random:n:pP:sS")
        try:
            p, seed = float(params[0][1:]), int(params[1][1:])
        except ValueError:
            raise FamilySpecError(f"bad p or seed in token {token!r}") from None
    elif params:
        raise FamilySpecError(f"bad range in token {token!r}")
    lo, sep, hi = spec.partition("-")
    try:
        lo_n = int(lo)
        hi_n = int(hi) if sep else lo_n
    except ValueError:
        raise FamilySpecError(f"bad range in token {token!r}") from None
    return _resolve_family(family, lo_n, hi_n, p, seed)


def _resolve_side(text: str) -> tuple[tuple[str, str], ...]:
    entries = []
    for token in text.split(","):
        entries.extend(parse_factor_token(token))
    return tuple(entries)


def parse_pair_spec(text: str) -> FamilySpec:
    """Grammar: ``LEFT x RIGHT``; a lone side scans against itself."""
    parts = text.split(" x ")
    if len(parts) == 1:
        side = _resolve_side(parts[0])
        return FamilySpec(left=side, right=side)
    if len(parts) != 2:
        raise FamilySpecError(f"spec {text!r} must have exactly one ' x ' separator")
    return FamilySpec(left=_resolve_side(parts[0]), right=_resolve_side(parts[1]))


def _resolve_json_entry(entry: dict, base: Path) -> list[tuple[str, str]]:
    if not isinstance(entry, dict):
        raise FamilySpecError(f"spec entry {entry!r} is not an object")
    for key in ("graph6_file", "graph6"):
        if key in entry and not isinstance(entry[key], str):
            raise FamilySpecError(f"spec entry {entry} needs a string {key!r}")
    if "graph6_file" in entry:
        return read_graph6_file(base / entry["graph6_file"])
    if "graph6" in entry:
        return [_graph6_entry(entry["graph6"])]
    if "family" not in entry:
        raise FamilySpecError(f"spec entry {entry} names neither family nor graph6")
    family = _FAMILY_NAMES.get(str(entry["family"]).lower())
    # the orders: n alone, or n_min and n_max together
    given = [key for key in ("n", "n_min", "n_max") if key in entry]
    if given == ["n"]:
        lo = hi = entry["n"]
    elif given == ["n_min", "n_max"]:
        lo, hi = entry["n_min"], entry["n_max"]
    elif not given:
        raise FamilySpecError(f"spec entry {entry} needs 'n', or 'n_min' and 'n_max'")
    elif given[0] == "n":
        raise FamilySpecError(f"spec entry {entry} gives both 'n' and {given[1]!r}")
    else:
        missing = "n_max" if given == ["n_min"] else "n_min"
        raise FamilySpecError(f"spec entry {entry} gives {given[0]!r} without {missing!r}")
    try:
        p, seed = (entry["p"], entry["seed"]) if family == "random" else (0, 0)
    except KeyError as exc:
        raise FamilySpecError(f"random spec entry {entry} needs {exc.args[0]!r}") from None
    # orders and seeds are JSON integers and p a JSON number; a bool is neither
    if not all(type(x) is int for x in (lo, hi, seed)) or type(p) not in (int, float):
        raise FamilySpecError(f"spec entry {entry} needs numeric n, p and seed")
    if family is None:
        raise FamilySpecError(f"unknown family {entry['family']!r}")
    try:
        p = float(p)
    except OverflowError:  # an integer p beyond float range
        raise FamilySpecError(f"random spec entry {entry} needs 0 <= p <= 1") from None
    return _resolve_family(family, lo, hi, p, seed)


def read_graph6_file(path: str | Path) -> list[tuple[str, str]]:
    """(``file:<name>:<k>``, graph6) of the k-th graph6 line of a file,
    blank lines not counted; a file that cannot be read or holds no graph is
    a spec error."""
    path = Path(path)
    try:
        lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
    except OSError as exc:
        raise FamilySpecError(f"cannot read graph6 file: {exc}") from None
    if not lines:
        raise FamilySpecError(f"graph6 file {path} holds no graphs")
    return [
        (f"file:{path.name}:{i + 1}", emit_graph6(parse_graph6(ln)))
        for i, ln in enumerate(lines)
    ]


def load_spec_json(path: str | Path) -> FamilySpec:
    """JSON spec: {"left": [entries], "right": [entries]}; entries may be
    {"family","n"|"n_min"+"n_max"}, {"family":"random","n","p","seed"},
    {"graph6": str}, or {"graph6_file": path relative to the spec file}."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError) as exc:  # JSONDecodeError, or an integer too long to read
        raise FamilySpecError(f"cannot load spec file: {exc}") from None
    base = path.parent

    def resolve_side(side: str) -> tuple[tuple[str, str], ...]:
        entries = data[side]
        if not isinstance(entries, list):
            raise FamilySpecError(f"spec side {side!r} is not a list of entries")
        out = []
        for entry in entries:
            out.extend(_resolve_json_entry(entry, base))
        if not out:
            raise FamilySpecError("spec side resolved to no graphs")
        return tuple(out)

    if not isinstance(data, dict) or "left" not in data or "right" not in data:
        raise FamilySpecError('JSON spec needs "left" and "right" entry lists')
    return FamilySpec(left=resolve_side("left"), right=resolve_side("right"))


def _header() -> dict:
    return {"schema_version": SCHEMA_VERSION, "tool": "semitotal", "tool_version": __version__}


def _dump(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_jsonl(path: str | Path, records: list[InstanceRecord]) -> None:
    lines = [_dump(_header())]
    lines.extend(_dump(r.to_json_dict()) for r in records)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _json_object(path: str | Path, number: int, line: str) -> dict:
    """Line ``number`` of ``path`` as a JSON object, or a ``ValueError``
    naming the file and the line."""
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path}: line {number} is not a JSON object ({exc.msg} at column {exc.colno})"
        ) from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: line {number} is not a JSON object")
    return data


def read_jsonl(path: str | Path) -> tuple[dict, list[InstanceRecord]]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ValueError(f"{path}: empty record file")
    header = _json_object(path, 1, lines[0])
    version = header.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:  # JSON true and 1.0 equal 1
        raise ValueError(f"{path}: unsupported schema version {version!r}")
    records = []
    for number, line in enumerate(lines[1:], start=2):
        data = _json_object(path, number, line)
        try:
            records.append(InstanceRecord.from_json_dict(data))
        except KeyError as exc:
            raise ValueError(f"{path}: line {number} lacks the key {exc.args[0]!r}") from None
        except ValueError as exc:  # a container field of the wrong JSON type
            raise ValueError(f"{path}: line {number} {exc}") from None
    return header, records


def comparison_form(path: str | Path) -> bytes:
    """Byte form of a JSONL file with the timing fields dropped, for
    determinism comparisons."""
    out = []
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    for number, line in enumerate(lines, start=1):
        obj = _json_object(path, number, line)
        obj.pop("timing", None)
        out.append(_dump(obj))
    return ("\n".join(out) + "\n").encode("utf-8")


CSV_COLUMNS = (
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
    *(f"replay_{c}" for c in REPLAY_CHECKS),
)


def _csv_rows(records: list[InstanceRecord]):
    for r in records:
        row = [
            r.id,
            r.n_g,
            r.n_h,
            r.gamma_t2_g,
            r.gamma_t2_h,
            r.rho_g,
            r.gamma_t2_prod,
            r.bound_thm1,
            r.bound_thm2,
            r.ratio_num,
            r.ratio_den,
        ]
        row = ["" if x is None else x for x in row]
        row.extend(r.replay.get(c, "skipped") for c in REPLAY_CHECKS)
        yield row


def write_csv(path: str | Path, records: list[InstanceRecord]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(_csv_rows(records))


def render_report(records: list[InstanceRecord]) -> str:
    """Aligned text table of the CSV's columns, then the scan's summary."""
    rows = [CSV_COLUMNS, *([str(cell) for cell in row] for row in _csv_rows(records))]
    widths = [max(len(row[i]) for row in rows) for i in range(len(CSV_COLUMNS))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in rows]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join([*lines, "", summarize(records).render()])
