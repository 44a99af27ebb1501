"""Regenerate ``envelope_reference.json``: gamma_t2 of every product in the
envelope grid, computed by an integer program that shares no code with
``semitotal``.

The product graph is rebuilt here from the family definitions, and the
minimum semi-total dominating set is found by ``scipy.optimize.milp``:

    minimise   sum x_v
    subject to sum_{u in N[v]} x_u >= 1               (domination)
               sum_{u in B2(v) - v} x_u - x_v >= 0     (a partner within distance 2)

scipy is needed only to regenerate the table; ``run.py`` reads the JSON and
stays standard-library only.  Run from the repository root:

    python3 bench/make_reference.py
"""

import json
import sys
from pathlib import Path

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

OUT = Path(__file__).with_name("envelope_reference.json")
FACTORS = [("path", n) for n in range(2, 8)] + [("cycle", n) for n in range(3, 8)]


def factor_adj(family: str, n: int) -> list[set[int]]:
    adj = [set() for _ in range(n)]
    edges = [(i, i + 1) for i in range(n - 1)]
    if family == "cycle":
        edges.append((n - 1, 0))
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def product_adj(g: list[set[int]], h: list[set[int]]) -> list[set[int]]:
    nh = len(h)
    adj = []
    for a in range(len(g)):
        for b in range(nh):
            adj.append({a * nh + c for c in h[b]} | {c * nh + b for c in g[a]})
    return adj


def gamma_t2(adj: list[set[int]]) -> int:
    n = len(adj)
    closed = [adj[v] | {v} for v in range(n)]
    rows, lower = [], []
    for v in range(n):
        row = np.zeros(n)
        row[list(closed[v])] = 1
        rows.append(row)
        lower.append(1)
    for v in range(n):
        ball2 = set().union(*(closed[u] for u in closed[v])) - {v}
        row = np.zeros(n)
        row[list(ball2)] = 1
        row[v] = -1
        rows.append(row)
        lower.append(0)
    res = milp(
        c=np.ones(n),
        constraints=LinearConstraint(np.array(rows), lower, np.inf),
        integrality=np.ones(n),
        bounds=Bounds(0, 1),
    )
    if not res.success:
        raise RuntimeError(f"milp failed: {res.message}")
    return round(res.fun)


def main() -> int:
    table = {}
    for fg, ng in FACTORS:
        for fh, nh in FACTORS:
            key = f"{fg}:{ng} x {fh}:{nh}"
            table[key] = gamma_t2(product_adj(factor_adj(fg, ng), factor_adj(fh, nh)))
            print(key, table[key], file=sys.stderr)
    doc = {
        "what": "gamma_t2 of G x H for the envelope grid paths:2-7,cycles:3-7 squared",
        "method": "scipy.optimize.milp on an independently built product (bench/make_reference.py)",
        "gamma_t2_prod": table,
    }
    OUT.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
