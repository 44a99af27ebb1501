"""semitotal benchmark: end-to-end and per-layer metrics on two workloads.

Run from the repository root:

    python3 bench/run.py --workload envelope --seed 1 --seconds 55 --trace 0

The program is imported from ``src/`` next to this directory.  With
``--trace 0`` the run alternates serial passes over the workload's items
with runs of the real ``semitotal`` command line until ``--seconds`` is
spent, and reports the end-to-end metrics.  With ``--trace 1`` it makes one
CLI run, one pass whose steps run untraced and then with spans around the
public layer calls, and one pass that counts search calls, and reports the
per-layer metrics.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's metadata.  Inputs, CLI outputs, spans and a full report go
to ``.bench_out/`` in the repository root.  See ``bench/NOTES.md`` for the
metrics and workloads.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 15
SETUP_REF_SAMPLES = 5  # reference samples before and after each input build
# In a timed pass an item shorter than REPEAT_S runs again until its runs
# add up to REPEAT_S, at most MAX_REPEATS times in all, so that short items
# get enough samples for a steady median.
REPEAT_S = 0.01
MAX_REPEATS = 10
LAYERS = ("graphs", "graph6", "solvers", "proofs", "harness", "io")
# Imports semitotal and semitotal.cli, then takes reference samples in the
# same process (after the imports, so the reference's own imports do not
# warm them); prints both import times and the factor that scales them.
IMPORT_PROBE = (
    "import sys, time; t0 = time.perf_counter(); import semitotal; t1 = time.perf_counter(); "
    "import semitotal.cli; t2 = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "from reference import Speed; s = Speed(); s.samples_around({n}); "
    "print(t1 - t0, t2 - t0, s.factor(0, {n}))"
)

sys.path.insert(0, str(HERE))
from reference import NOMINAL_S, Speed  # noqa: E402
from tracing import SearchCounter, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPAN_METRICS = [
    ("solvers.solve_bnb.factor", ("self_s", "calls")),
    ("solvers.solve_bnb.product", ("self_s", "calls")),
    ("solvers.lexleast", ("self_s", "calls")),
    ("solvers.enumerate_min_sets", ("self_s", "calls")),
    *(
        (f"proofs.{name}", ("self_s", "calls"))
        for name in (
            "max_allied_set", "build_cell_partition", "cell_partition_violations",
            "project_profiles", "build_cover_index", "check_column_bounds",
            "build_connector_set", "counting_checks",
        )
    ),
    ("graphs.cartesian_product", ("self_s", "calls")),
    ("graph6.emit_graph6", ("self_s", "calls")),
    ("graph6.parse_graph6", ("self_s", "calls")),
    *(
        (f"io.{name}", ("self_s",))
        for name in (
            "parse_pair_spec", "load_spec_json", "write_jsonl", "write_csv",
            "read_jsonl", "comparison_form",
        )
    ),
    ("harness.verify_pair", ("self_s", "calls")),
]
COUNT_METRICS = (
    "solvers.min_sets_enumerated", "graphs.product_vertices", "graph6.bytes",
    "io.jsonl_bytes", "harness.findings",
)
UNITS = {
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "big_item_p50_ms": "ms",
    "cli_w2_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cli.import_s": "s",
    "graph6.bytes": "bytes",
    "io.jsonl_bytes": "bytes",
    "harness.pool_efficiency_w2": "ratio",
    "solvers.feasible_probe_hit_ratio": "ratio",
}


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "s" if name.endswith("self_s") else "count"


class Program:
    """The ``semitotal`` package imported from this checkout's ``src/``."""

    def __init__(self):
        if not (SRC / "semitotal" / "__init__.py").is_file():
            raise RuntimeError(f"no semitotal package under {SRC}")
        sys.path.insert(0, str(SRC))
        import semitotal
        from semitotal import graph6, graphs, harness, io, proofs, solvers

        if Path(semitotal.__file__).resolve().parent != SRC / "semitotal":
            raise RuntimeError(f"semitotal imported from {semitotal.__file__}, not {SRC}")
        self.graphs, self.graph6, self.solvers = graphs, graph6, solvers
        self.proofs, self.harness, self.io = proofs, harness, io
        self.modules = {
            "graphs": graphs, "graph6": graph6, "solvers": solvers,
            "proofs": proofs, "harness": harness, "io": io,
        }
        self.root = str(ROOT)
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


class Run:
    """One benchmark run: inputs, passes, checks and metrics."""

    def __init__(self, prog: Program, workload: str, seed: int, work: Path):
        self.prog = prog
        self.wl = WORKLOADS[workload](prog, seed, work)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.first_forms: dict = {}
        self.speed = Speed()

    def fail(self, key: str, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{key}: {why}")

    # -- set-up -----------------------------------------------------------
    def setup(self) -> dict:
        """Import the program in fresh interpreters and build the inputs,
        SETUP_SAMPLES times.  An import is scaled by the reference samples
        its interpreter takes after it, a build by those around it."""
        imports, cli_imports, builds = [], [], []
        probe = IMPORT_PROBE.format(n=SETUP_REF_SAMPLES)
        for _ in range(SETUP_SAMPLES):
            out = subprocess.run(
                [sys.executable, "-c", probe, str(HERE)], capture_output=True, text=True,
                env=self.prog.env, cwd=self.prog.root, timeout=60, check=True,
            ).stdout.split()
            lo, _ = self.speed.samples_around(SETUP_REF_SAMPLES)
            t = time.perf_counter()
            self.items = self.wl.build()
            build = time.perf_counter() - t
            _, hi = self.speed.samples_around(SETUP_REF_SAMPLES)
            imports.append((float(out[0]), float(out[2])))
            cli_imports.append((float(out[1]), float(out[2])))
            builds.append((build, self.speed.factor(lo, hi)))
        self.expected = self.wl.expected(self.items)
        self.opts = self.wl.options()
        self.big_order = max(item.order for item in self.items)

        def median(samples, scaled):
            return statistics.median(t * f if scaled else t for t, f in samples)

        return {
            "import_s": median(imports, True),
            "cli_import_s": median(cli_imports, True),
            "build_s": median(builds, True),
            "raw": {
                "import_s": median(imports, False),
                "cli_import_s": median(cli_imports, False),
                "build_s": median(builds, False),
            },
        }

    # -- passes -------------------------------------------------------------
    def run_item(self, item, tracer=None):
        """Run one item once; None when it raised."""
        self.attempted += 1
        if tracer:
            tracer.item = item.key
        try:
            return self.wl.run_item(item, self.opts)
        except Exception:
            self.fail(item.key, traceback.format_exc(limit=3))
            return None
        finally:
            if tracer:
                tracer.item = None

    def check(self, items, outputs: dict) -> None:
        """Check each output against its reference and the first pass."""
        for item in items:
            if item.key not in outputs:
                continue
            errors = self.wl.check_item(item, outputs[item.key], self.expected[item.key])
            form = self.wl.record_form(outputs[item.key])
            if self.first_forms.setdefault(item.key, form) != form:
                errors.append("output differs from the first pass")
            if errors:
                self.fail(item.key, "; ".join(errors))

    def serial_pass(self, items, latencies=None, tracer=None) -> dict:
        """Run every item once, or repeatedly when ``latencies`` collects
        (time, reference sample index) pairs; check each item's first
        output; return outputs by key."""
        outputs = {}
        clock = time.perf_counter
        for item in items:
            if latencies is not None:
                ref = self.speed.sample()
            reps = 1
            while reps:
                reps -= 1
                t = clock()
                result = self.run_item(item, tracer)
                dt = clock() - t
                if result is None:
                    break
                if item.key not in outputs:
                    outputs[item.key] = result
                    if latencies is not None:
                        reps = min(MAX_REPEATS, math.ceil(REPEAT_S / dt)) - 1
                if latencies is not None:
                    latencies[item.key].append((dt, ref, t))
        self.check(items, outputs)
        return outputs

    def cli(self, tag: str, probe: bool = False) -> tuple[float, list, list, list]:
        """One CLI run over every item: wall time, the reference's CPU-time
        probes taken while it ran (with ``probe``), exit statuses, output
        files."""
        probes = []
        idle = (lambda: probes.append(self.speed.cpu_probe())) if probe else None
        t = time.perf_counter()
        results, outs = self.wl.cli_run(tag, idle)
        wall = time.perf_counter() - t
        self.attempted += self.wl.cli_count
        return wall, probes, results, outs

    def check_cli(self, results: list, outs: list, outputs: dict) -> None:
        for key in self.wl.cli_failures(results, outs, outputs):
            self.fail(key, "CLI output differs from the serial pass")

    def paired_pass(self, cli_outs: list, tracer: Tracer) -> tuple[float, float, float, dict]:
        """Build inputs, run the items, write and compare outputs, with every
        step run untraced and then traced, back to back, so that both totals
        see the same machine speed.  Returns the untraced and traced totals,
        the untraced item time and the untraced outputs."""
        clock = time.perf_counter
        totals = [0.0, 0.0]

        def both(step):
            results = []
            for traced in (False, True):
                if traced:
                    tracer.install()
                try:
                    t = clock()
                    results.append(step(tracer if traced else None))
                    totals[traced] += clock() - t
                finally:
                    if traced:
                        tracer.uninstall()
            return results

        def span(tr, name):
            return tr.span(name) if tr else nullcontext()

        def build(tr):
            with span(tr, "bench.build"):
                return self.wl.build()

        items = both(build)
        outputs = ({}, {})
        item_time = 0.0
        for pair in zip(*items):
            before = totals[0]
            results = both(lambda tr: self.run_item(pair[bool(tr)], tr))
            item_time += totals[0] - before
            for out, item, result in zip(outputs, pair, results):
                if result is not None:
                    out[item.key] = result
        for out, its in zip(outputs, items):
            self.check(its, out)

        def write(tr):
            with span(tr, "bench.outputs"):
                self.wl.outputs(outputs[bool(tr)], cli_outs, "pass")

        both(write)
        return totals[0], totals[1], item_time, outputs[0]


def end_to_end(run: Run, seconds: float, setup: dict) -> tuple[dict, dict]:
    """Serial passes (S) and CLI runs (C) until the time is spent: a pass
    first, then a CLI run whenever the CLI runs so far had less than the
    workload's cli_share of the time.  Each kind runs at least once.  A
    step whose kind does not fit in the time left (judged by its last
    duration) gives way to the other kind; the run ends when neither fits."""
    latencies = defaultdict(list)
    cli_walls, cli_probes, pass_walls = [], [], []
    last = {}
    outputs = None
    start = time.perf_counter()
    while True:
        spent = sum(cli_walls) + sum(pass_walls)
        kind = "C" if pass_walls and sum(cli_walls) < run.wl.cli_share * spent else "S"
        left = seconds - (time.perf_counter() - start)
        if last.get(kind, left) > left:
            kind = "S" if kind == "C" else "C"
            if last.get(kind, left) > left:
                break
        t = time.perf_counter()
        if kind == "S":
            outputs = run.serial_pass(run.items, latencies) or outputs
            pass_walls.append(time.perf_counter() - t)
        else:
            wall, probes, results, outs = run.cli(f"c{len(cli_walls)}", probe=True)
            run.check_cli(results, outs, outputs)
            cli_walls.append(wall)
            cli_probes.append(probes or [run.speed.cpu_probe()])
        last[kind] = time.perf_counter() - t
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Each timing is scaled by the reference samples around it (see
    # reference.py), and an item's latency is the median of its scaled
    # timings.  Each CLI wall is scaled by the mean of the CPU-time probes
    # taken while it ran, and cli_w2_s is the median of the scaled walls.
    speed = run.speed
    scaled = {
        key: [dt * speed.factor_around(t, dt, j) for dt, j, t in samples]
        for key, samples in latencies.items()
    }
    raw = {key: [dt for dt, _, _ in samples] for key, samples in latencies.items()}
    (run.wl.work / "timings.json").write_text(json.dumps({
        "items": latencies, "orders": {i.key: i.order for i in run.items},
        "reference": [speed.starts, speed.samples], "cli_walls": cli_walls,
        "cli_probes": cli_probes,
    }))
    metrics, p90 = summarise(run, scaled)
    cli_scaled = [w * NOMINAL_S / statistics.mean(p) for w, p in zip(cli_walls, cli_probes)]
    metrics["cli_w2_s"] = statistics.median(cli_scaled)
    metrics["setup_s"] = setup["import_s"] + setup["build_s"]
    metrics["peak_rss_mb"] = peak_rss_mb
    lat = [statistics.median(v) for v in scaled.values()]
    detail = {
        "serial_passes": len(pass_walls),
        "serial_pass_walls_s": pass_walls,
        "cli_runs": len(cli_walls),
        "cli_walls_s": cli_walls,
        "reference": {
            "samples": len(speed.samples),
            "median_s": statistics.median(speed.samples),
            "nominal_s": NOMINAL_S,
        },
        "unscaled": {**summarise(run, raw)[0], "cli_w2_s": statistics.median(cli_walls)},
        "samples": {
            "item_p50_ms": len(lat),
            "item_p90_ms": len(lat),
            "item_p90_ms_beyond": sum(1 for x in lat if x * 1000 > p90),
            "big_item_p50_ms": sum(1 for i in run.items if i.order == run.big_order),
            "big_item_order": run.big_order,
            "cli_w2_s": len(cli_walls),
            "cli_probes_per_run": [len(p) for p in cli_probes],
            "setup_s": SETUP_SAMPLES,
            "timings_per_item": {
                "min": min(len(v) for v in raw.values()),
                "median": statistics.median(len(v) for v in raw.values()),
            },
        },
        "setup": setup,
    }
    return metrics, detail


def summarise(run: Run, times: dict) -> tuple[dict, float]:
    """Item metrics from each item's timings (median per item); also
    returns the p90 in ms."""
    per_item = {key: statistics.median(v) for key, v in times.items()}
    lat = sorted(per_item.values())
    big = [per_item[i.key] for i in run.items if i.order == run.big_order and i.key in per_item]
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8] * 1000
    return {
        "items_per_s": len(lat) / sum(lat),
        "item_p50_ms": statistics.median(lat) * 1000,
        "item_p90_ms": p90,
        "big_item_p50_ms": statistics.median(big) * 1000,
    }, p90


def per_layer(run: Run, setup: dict) -> tuple[dict, dict, list]:
    """A CLI run, a pass whose steps run untraced and traced in turn, then a
    pass that counts search calls."""
    cli_wall, _, results, cli_outs = run.cli("t")
    tracer = Tracer(run.prog.modules)
    untraced, traced, untraced_items, outputs = run.paired_pass(cli_outs, tracer)
    run.check_cli(results, cli_outs, outputs)
    rows = tracer.self_times()

    counting = Tracer(run.prog.modules)
    counting.install()
    try:
        t = time.perf_counter()
        with SearchCounter(counting, run.prog.solvers) as counter:
            run.serial_pass(run.items, tracer=counting)
        count_wall = time.perf_counter() - t
    finally:
        counting.uninstall()

    metrics = {}
    for name, fields in SPAN_METRICS:
        row = rows.get(name, {"calls": 0, "self_s": 0.0})
        for field in fields:
            metrics[f"{name}.{field}"] = row[field]
    for name in COUNT_METRICS:
        metrics[name] = tracer.counts.get(name, 0)
    metrics.update(counter.metrics())
    metrics["harness.pool_efficiency_w2"] = untraced_items / (2 * cli_wall)
    metrics["cli.import_s"] = setup["cli_import_s"]

    layer_sum = sum(r["self_s"] for n, r in rows.items() if n.split(".")[0] in LAYERS)
    overhead = traced - untraced
    detail = {
        "untraced_s": untraced,
        "traced_s": traced,
        "overhead_frac": overhead / untraced,
        "layer_self_sum_s": layer_sum,
        "bench_self_s": sum(r["self_s"] for n, r in rows.items() if n.startswith("bench.")),
        # 1% slack for the benchmark's own code between spans
        "self_sum_within_overhead": abs(layer_sum - untraced) <= abs(overhead) + 0.01 * untraced,
        "counting_pass_s": count_wall,
        "search_calls_by_span": dict(counter.calls),
        "spans": rows,
        "cli_w2_s": cli_wall,
        "serial_items_s": untraced_items,
    }
    return metrics, {"tracing": detail}, tracer.spans


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "semitotal").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so CLI subprocesses get killed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        prog = Program()
    except (RuntimeError, ImportError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(prog, args.workload, args.seed, work)
    setup = run.setup()
    if args.trace:
        metrics, detail, span_log = per_layer(run, setup)
        (work / "spans.json").write_text(json.dumps(span_log))
    else:
        metrics, detail = end_to_end(run, args.seconds, setup)

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "items": len(run.items),
        "attempted": run.attempted,
        "failed": run.failed,
        "fail_frac": run.failed / run.attempted,
        "errors": run.errors,
        **detail,
    }
    report = work / f"report-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps({"meta": meta, "metrics": metrics}, indent=1))
    if args.trace:
        meta["tracing"] = {k: v for k, v in meta["tracing"].items() if k != "spans"}
    print(json.dumps(meta))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
