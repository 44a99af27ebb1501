"""The workloads: their inputs, their items, and the checks on every output.

A workload turns the benchmark seed into input files and a list of items.
An item is one public call timed from outside: ``verify_pair`` on one factor
pair.  Each workload also runs the same pairs through the real ``semitotal
scan`` command line, and checks every output against a reference that does
not come from the code under test.
"""

import json
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ENVELOPE_SPEC = "paths:2-7,cycles:3-7 x paths:2-7,cycles:3-7"
ORACLE_LIMIT = 20  # products up to this order are checked against solve_oracle
CLI_OK = (0, 4)  # exit 4 reports a bound violation, an expected finding
CLI_TIMEOUT = 150
PROBE_PERIOD_S = 0.2


class Item:
    __slots__ = ("key", "order", "args")

    def __init__(self, key: str, order: int, args: tuple):
        self.key = key  # "<left id> x <right id>", unique in a workload
        self.order = order  # vertices of the product
        self.args = args  # (G, H, left id, right id)


def _graph6_of_edges(n: int, edges: list[tuple[int, int]]) -> str:
    """Minimal graph6 encoder for n <= 62, independent of semitotal.graph6."""
    bits = [0] * (n * (n - 1) // 2)
    for u, v in edges:
        u, v = min(u, v), max(u, v)
        bits[v * (v - 1) // 2 + u] = 1
    bits += [0] * (-len(bits) % 6)
    body = [
        63 + int("".join(map(str, bits[i : i + 6])), 2) for i in range(0, len(bits), 6)
    ]
    return bytes([n + 63] + body).decode("ascii")


def _cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "semitotal.cli", *args]


def _start(prog, argv: list[str]) -> subprocess.Popen:
    # own session, so a timed-out CLI can be killed with its pool workers
    return subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=prog.env, cwd=prog.root, start_new_session=True)


def _finish(proc: subprocess.Popen, idle=None) -> tuple[int, str, str]:
    """Wait for the CLI; call ``idle()`` every PROBE_PERIOD_S while it runs."""
    deadline = time.monotonic() + CLI_TIMEOUT
    out, err = "", "timed out"
    try:
        while (left := deadline - time.monotonic()) > 0:
            try:
                out, err = proc.communicate(timeout=min(left, PROBE_PERIOD_S) if idle else left)
                break
            except subprocess.TimeoutExpired:
                if idle:
                    idle()
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    return proc.returncode, out, err


class ScanWorkload:
    """Pairs run through ``verify_pair`` serially and ``scan --workers 2``."""

    replay: bool
    # Share of a timed run's measuring time that goes to CLI runs; the rest
    # goes to serial passes.  A CLI run's wall varies more than a pass, so
    # each workload gives the CLI as much time as leaves its item metrics
    # steady: three passes and three or four CLI runs on envelope, two
    # passes and four CLI runs on replay_random, in 55 seconds.
    cli_share: float

    def __init__(self, prog, seed: int, work: Path):
        self.prog = prog
        self.seed = seed
        self.work = work

    # -- inputs ---------------------------------------------------------
    def grid_specs(self) -> list[list[str]]:
        """CLI spec arguments, one list per scan invocation."""
        raise NotImplementedError

    def load_grid(self, spec_args: list[str]):
        io = self.prog.io
        if spec_args[0] == "--spec":
            return io.parse_pair_spec(spec_args[1])
        return io.load_spec_json(spec_args[1])

    def build(self) -> list[Item]:
        """Resolve every grid through semitotal.io and parse its factors."""
        self.grids = self.grid_specs()
        parse = self.prog.graph6.parse_graph6
        graphs = {}
        self.grid_keys = []
        items = []
        for spec_args in self.grids:
            spec = self.load_grid(spec_args)
            keys = []
            for lid, g6g in spec.left:
                for rid, g6h in spec.right:
                    for g6 in (g6g, g6h):
                        if g6 not in graphs:
                            graphs[g6] = parse(g6)
                    g, h = graphs[g6g], graphs[g6h]
                    key = f"{lid} x {rid}"
                    keys.append(key)
                    items.append(Item(key, g.n * h.n, (g, h, lid, rid)))
            self.grid_keys.append(keys)
        random.Random(self.seed).shuffle(items)
        self.cli_count = len(items)
        return items

    # -- running --------------------------------------------------------
    def options(self):
        return self.prog.harness.ScanOptions(replay=self.replay, workers=1)

    def run_item(self, item: Item, opts):
        g, h, lid, rid = item.args
        return self.prog.harness.verify_pair(g, h, opts, left_id=lid, right_id=rid)

    def cli_run(self, tag: str, idle=None) -> tuple[list, list[Path]]:
        """Run every grid through ``semitotal scan --workers 2``, in turn,
        calling ``idle()`` every PROBE_PERIOD_S while a scan runs."""
        results, outs = [], []
        for gi, spec_args in enumerate(self.grids):
            out = self.work / f"cli-{tag}-{gi}.jsonl"
            argv = _cli(
                "scan", *spec_args, "--out", str(out), "--csv",
                str(out.with_suffix(".csv")), "--workers", "2",
                *([] if self.replay else ["--no-replay"]),
            )
            results.append(_finish(_start(self.prog, argv), idle))
            outs.append(out)
        return results, outs

    # -- checks -----------------------------------------------------------
    def expected(self, items: list[Item]) -> dict:
        """Reference values per item: factor invariants from solve_oracle, the
        product value from solve_oracle or the checked-in table."""
        solvers = self.prog.solvers
        graphs = self.prog.graphs
        factor = {}
        out = {}
        for item in items:
            g, h, lid, rid = item.args
            for graph in (g, h):
                if graph not in factor:
                    factor[graph] = (
                        solvers.solve_oracle(graph, "gamma_t2").value,
                        solvers.solve_oracle(graph, "rho").value,
                    )
            exp = {
                "gamma_t2_g": factor[g][0],
                "rho_g": factor[g][1],
                "gamma_t2_h": factor[h][0],
            }
            if item.order <= ORACLE_LIMIT:
                prod = graphs.cartesian_product(g, h).graph
                exp["gamma_t2_prod"] = solvers.solve_oracle(prod, "gamma_t2").value
            else:
                ref = self.reference(item)
                if ref is not None:
                    exp["gamma_t2_prod"] = ref
            out[item.key] = exp
        return out

    def reference(self, item: Item):
        return None

    def check_item(self, item: Item, record, exp: dict) -> list[str]:
        errors = []
        if record.skipped is not None:
            errors.append(f"skipped: {record.skipped}")
        for field, want in exp.items():
            got = getattr(record, field)
            if got != want:
                errors.append(f"{field}={got}, reference {want}")
        return errors

    def outputs(self, records: dict, cli_outs: list[Path] | None, tag: str) -> list[str]:
        """Write the serial records per grid as JSONL and CSV; compare each
        with the CLI's JSONL by comparison_form.  Returns the keys that
        differ."""
        io = self.prog.io
        bad = []
        for gi, keys in enumerate(self.grid_keys):
            serial = self.work / f"serial-{tag}-{gi}.jsonl"
            io.write_jsonl(serial, [records[k] for k in keys])
            io.write_csv(serial.with_suffix(".csv"), [records[k] for k in keys])
            if cli_outs is None:
                continue
            cli_path = cli_outs[gi]
            try:
                _, cli_records = io.read_jsonl(cli_path)
                want = io.comparison_form(serial).splitlines()
                got = io.comparison_form(cli_path).splitlines()
            except (OSError, ValueError) as exc:
                bad.extend(keys)
                print(f"cli output {cli_path.name}: {exc}", file=sys.stderr)
                continue
            if len(cli_records) != len(keys) or len(got) != len(want) or got[0] != want[0]:
                bad.extend(keys)
                continue
            bad.extend(k for k, a, b in zip(keys, want[1:], got[1:]) if a != b)
        return bad

    def cli_failures(self, results: list, outs: list[Path], records: dict) -> list[str]:
        bad = []
        for gi, (code, _, err) in enumerate(results):
            if code not in CLI_OK:
                print(f"scan exit {code}: {err[-500:]}", file=sys.stderr)
                bad.extend(self.grid_keys[gi])
        return bad + self.outputs(records, outs, "check")

    @staticmethod
    def record_form(record) -> str:
        return json.dumps(record.to_json_dict(include_timing=False), sort_keys=True)


class Envelope(ScanWorkload):
    """The ROADMAP grid with replay off and the default cap of 49."""

    replay = False
    cli_share = 0.4

    def grid_specs(self):
        self.table = json.loads((HERE / "envelope_reference.json").read_text())["gamma_t2_prod"]
        return [["--spec", ENVELOPE_SPEC]]

    def reference(self, item):
        return self.table[item.key]


class ReplayRandom(ScanWorkload):
    """Random isolate-free left factors against path:2, and against path:3
    and cycle:3 where the product stays within the replay cap."""

    replay = True
    cli_share = 0.5
    LEFT_ORDERS = range(10, 19)
    PER_ORDER = 20
    CAP = 36
    RIGHTS = (("path", 2), ("path", 3), ("cycle", 3))
    # The factors come from one fixed draw, and the run's seed only orders
    # them in their files and orders the pairs.  With factors drawn from the
    # run's seed, pass time differed by up to 2x between seeds, and even a
    # seeded relabelling of fixed shapes changed the solver's search calls
    # on the 36-vertex products by up to 1.8x: the branch and bound visits
    # vertices in label order.
    SHAPE_SEED = 0

    def draw_lefts(self) -> dict[int, list[str]]:
        """graph6 strings of the left factors by order.  Edge densities are
        stratified over [0.15, 0.3) per order; a draw with an isolated
        vertex is dropped and drawn again."""
        shapes = random.Random(self.SHAPE_SEED)
        order = random.Random(self.seed)
        lefts = {}
        for n in self.LEFT_ORDERS:
            lefts[n] = []
            for k in range(self.PER_ORDER):
                while True:
                    p = 0.15 + 0.15 * (k + shapes.random()) / self.PER_ORDER
                    edges = [(a, b) for a in range(n) for b in range(a + 1, n) if shapes.random() < p]
                    if len({v for e in edges for v in e}) == n:
                        break
                lefts[n].append(_graph6_of_edges(n, edges))
            order.shuffle(lefts[n])
        return lefts

    def grid_specs(self):
        lefts = self.draw_lefts()
        self.left_g6 = {}
        specs = []
        for family, k in self.RIGHTS:
            fit = [g6 for n in self.LEFT_ORDERS if n * k <= self.CAP for g6 in lefts[n]]
            g6_file = self.work / f"lefts-{family}{k}.g6"
            g6_file.write_text("\n".join(fit) + "\n")
            for i, g6 in enumerate(fit):
                self.left_g6[f"file:{g6_file.name}:{i + 1}"] = g6
            spec = {
                "seed": self.seed,
                "left": [{"graph6_file": g6_file.name}],
                "right": [{"family": family, "n": k}],
            }
            spec_file = self.work / f"spec-{family}{k}.json"
            spec_file.write_text(json.dumps(spec, indent=1) + "\n")
            specs.append(["--spec-json", str(spec_file)])
        return specs

    def check_item(self, item, record, exp):
        errors = super().check_item(item, record, exp)
        if record.graph6_g != self.left_g6[item.args[2]]:
            errors.append("left graph6 differs from the generated input")
        return errors


WORKLOADS = {
    "envelope": Envelope,
    "replay_random": ReplayRandom,
}
