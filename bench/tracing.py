"""Spans and search counters recorded from outside ``semitotal``.

``Tracer.install`` rebinds public functions in the program's modules to
wrappers that record one span per call: name, start, end, parent span and
the item being worked on.  Spans stay in memory until the run writes them
out.  A span's self time is its duration minus the time its child spans
cover.

``SearchCounter`` is a ``sys.setprofile`` hook that counts calls of the
``search`` closures in ``semitotal.solvers`` and attributes each to the
innermost open span.  The hook is set only while a solver span is open, and
it still slows the solvers four- to five-fold, so it runs only in a pass of
its own, never in a timed or span pass.
"""

import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from types import CodeType

# (module, attribute, span name).  The same function is imported under
# several names, and every binding a caller looks up is wrapped.
TARGETS = [
    ("harness", "verify_pair", "harness.verify_pair"),
    ("harness", "solve_bnb", "solvers.solve_bnb"),
    ("harness", "lexleast_min_semitotal_set", "solvers.lexleast"),
    ("harness", "cartesian_product", "graphs.cartesian_product"),
    ("harness", "emit_graph6", "graph6.emit_graph6"),
    ("harness", "parse_graph6", "graph6.parse_graph6"),
    ("harness", "max_allied_set", "proofs.max_allied_set"),
    ("harness", "build_cell_partition", "proofs.build_cell_partition"),
    ("harness", "cell_partition_violations", "proofs.cell_partition_violations"),
    ("harness", "project_profiles", "proofs.project_profiles"),
    ("harness", "build_cover_index", "proofs.build_cover_index"),
    ("harness", "check_column_bounds", "proofs.check_column_bounds"),
    ("harness", "build_connector_set", "proofs.build_connector_set"),
    ("harness", "counting_checks", "proofs.counting_checks"),
    ("proofs", "enumerate_min_semitotal_sets", "solvers.enumerate_min_sets"),
    ("proofs", "solve_bnb", "solvers.solve_bnb"),
    ("solvers", "solve_bnb", "solvers.solve_bnb"),
    ("graphs", "cartesian_product", "graphs.cartesian_product"),
    ("graph6", "emit_graph6", "graph6.emit_graph6"),
    ("graph6", "parse_graph6", "graph6.parse_graph6"),
    ("io", "emit_graph6", "graph6.emit_graph6"),
    ("io", "parse_graph6", "graph6.parse_graph6"),
    ("io", "parse_pair_spec", "io.parse_pair_spec"),
    ("io", "load_spec_json", "io.load_spec_json"),
    ("io", "write_jsonl", "io.write_jsonl"),
    ("io", "write_csv", "io.write_csv"),
    ("io", "read_jsonl", "io.read_jsonl"),
    ("io", "comparison_form", "io.comparison_form"),
]
# Spans inside which the search closures run.
SOLVER_SPANS = ("solvers.solve_bnb", "solvers.lexleast")


def _count_result(name: str, args: tuple, result, counts: Counter) -> None:
    """Work counts taken at the layer boundary."""
    if name == "graphs.cartesian_product":
        counts["graphs.product_vertices"] += result.graph.n
    elif name == "graph6.emit_graph6":
        counts["graph6.bytes"] += len(result)
    elif name == "graph6.parse_graph6":
        counts["graph6.bytes"] += len(args[0])
    elif name == "solvers.enumerate_min_sets":
        counts["solvers.min_sets_enumerated"] += len(result)
    elif name == "harness.verify_pair":
        counts["harness.findings"] += len(result.findings)
    elif name == "io.write_jsonl":
        counts["io.jsonl_bytes"] += os.path.getsize(args[0])


class Tracer:
    """Span recorder for the functions named in ``TARGETS``."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[list] = []  # [name, start, end, parent index, item]
        self.counts: Counter = Counter()
        self.item = None
        self.profile_hook = None  # set while a SearchCounter is active
        self._profiled = 0  # open solver spans while profile_hook is set
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _open(self, name: str) -> int:
        if name == "solvers.solve_bnb":
            inside_lexleast = self._stack and self.spans[self._stack[-1]][0] == "solvers.lexleast"
            name += ".product" if inside_lexleast else ".factor"
        parent = self._stack[-1] if self._stack else -1
        if self.profile_hook and name.startswith(SOLVER_SPANS):
            if not self._profiled:
                sys.setprofile(self.profile_hook)
            self._profiled += 1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.item])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()
        if self._profiled and self.spans[index][0].startswith(SOLVER_SPANS):
            self._profiled -= 1
            if not self._profiled:
                sys.setprofile(None)

    def current(self) -> str:
        return self.spans[self._stack[-1]][0] if self._stack else "-"

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            _count_result(name, args, result, tracer.counts)
            return result

        return wrapper

    def install(self) -> None:
        wrappers = {}
        for module_name, attr, name in TARGETS:
            module = self.modules[module_name]
            original = getattr(module, attr, None)
            if original is None:
                continue  # no longer bound there; its span reads zero
            key = (id(original), name)
            if key not in wrappers:
                wrappers[key] = self._wrap(name, original)
            self._saved.append((module, attr, original))
            setattr(module, attr, wrappers[key])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def self_times(self) -> dict:
        """{span name: {"calls", "total_s", "self_s"}} over all closed spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
        return dict(out)


def _search_codes(module) -> set:
    """Code objects named ``search`` nested anywhere in the module's functions."""
    found = set()

    def walk(code: CodeType) -> None:
        for const in code.co_consts:
            if isinstance(const, CodeType):
                if const.co_name == "search":
                    found.add(const)
                walk(const)

    for value in vars(module).values():
        code = getattr(value, "__code__", None)
        if isinstance(code, CodeType):
            walk(code)
    return found


class SearchCounter:
    """Counts search-closure calls per enclosing span.

    A search call under ``solvers.solve_bnb.*`` is an optimise node; under
    ``solvers.lexleast`` it is a feasibility node.  A search call whose
    caller is not itself a search frame starts a feasibility probe, and a
    probe hits when that outermost call returns a true value.
    """

    def __init__(self, tracer: Tracer, solvers_module):
        self.tracer = tracer
        self.codes = _search_codes(solvers_module)
        self.calls: Counter = Counter()  # span name -> search calls
        self.probes = 0
        self.hits = 0

    def _hook(self, frame, event, arg):
        if event == "call":
            if frame.f_code in self.codes:
                span = self.tracer.current()
                self.calls[span] += 1
                if span == "solvers.lexleast" and frame.f_back.f_code not in self.codes:
                    self.probes += 1
        elif event == "return" and frame.f_code in self.codes and arg:
            if frame.f_back.f_code not in self.codes and self.tracer.current() == "solvers.lexleast":
                self.hits += 1

    def __enter__(self):
        self.tracer.profile_hook = self._hook
        return self

    def __exit__(self, *exc):
        self.tracer.profile_hook = None
        sys.setprofile(None)

    def metrics(self) -> dict:
        optimise = sum(v for k, v in self.calls.items() if k.startswith("solvers.solve_bnb"))
        return {
            "solvers.search_calls.optimise": optimise,
            "solvers.search_calls.feasible": self.calls.get("solvers.lexleast", 0),
            "solvers.feasible_probes": self.probes,
            "solvers.feasible_probe_hit_ratio": self.hits / self.probes if self.probes else 0.0,
        }
