"""Rebuild ``data/expected.json``, the frozen answers of the correctness gate.

Run from the repository root (takes several minutes on 2 CPUs):

    python3 bench/make_expected.py

For every graph a seed can select it records the package's answer and
checks it against an oracle that shares no code with the package:

* for the builtins and the ``enumerate-2w`` pool, brute force over all
  subsets with a bitmask propagation routine: pdn, set count and digest;
* for the ``search`` pool, the package's placement passes the benchmark's
  own check, and brute force finds no power dominating set of pdn - 1
  nodes. Power domination is monotone, so that proves pdn.

The ``radial`` answer needs no table: the generator's structure proves that
pdn equals the hub count (see ``inputs.radial_feeder``), and the script
checks that on a few seeds.

``cost`` is a deterministic work count (subsets scanned times n + 2m); it
is only used to pick, for each seed, graphs whose total work is the same.
Measured times were tried first and are too noisy for this: two graphs
with equal measured medians ran 15 % apart in later runs.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import inputs  # noqa: E402
from powerdom import SolverConfig, allminpds, parse_edge_list, parse_graph6, solve  # noqa: E402

SEARCH_GRID = [(n, 0.05, s) for n in (60, 70, 80) for s in range(1, 25)]
ENUM_GRID = [(n, p, s) for n in range(32, 37) for p in (0.09, 0.1) for s in range(1, 17)]
ENUM_MAX_SUBSETS = 60_000
ENUM_BUILTINS = ["fig3", "mutated_zim", "tadpole", "zim"]
RADIAL = {"hubs": 200, "count": 4}


def masks(n: int, pairs) -> list:
    nbr = [0] * n
    for i, j in pairs:
        nbr[i] |= 1 << j
        nbr[j] |= 1 << i
    return nbr


def closure(nbr: list, seen: int, pmus) -> int:
    """Observed bitmask after adding ``pmus`` to an already closed state."""
    todo = []
    for p in pmus:
        new = (nbr[p] | 1 << p) & ~seen
        seen |= new
        todo.append(new)
        while new:
            low = new & -new
            new ^= low
            todo.append(nbr[low.bit_length() - 1] & seen)
    while todo:
        batch = todo.pop()
        while batch:
            low = batch & -batch
            batch ^= low
            left = nbr[low.bit_length() - 1] & ~seen
            if left and not left & (left - 1):
                seen |= left
                todo.append(left | nbr[left.bit_length() - 1] & seen)
    return seen


def pds_of_size(nbr: list, k: int) -> list:
    """Every power dominating set of exactly k nodes, or, if a set of fewer
    nodes power dominates, a list holding one such set. Walks combinations
    depth first and extends each prefix's closure by one node, so that a
    k-subset costs one incremental closure."""
    n = len(nbr)
    full = (1 << n) - 1
    found = []

    def walk(start: int, seen: int, chosen: list) -> bool:
        for v in range(start, n):
            grown = closure(nbr, seen, [v])
            chosen.append(v)
            if grown == full:
                found.append(tuple(chosen))
                if len(chosen) < k:
                    return True
            elif len(chosen) < k and walk(v + 1, grown, chosen):
                return True
            chosen.pop()
        return False

    if k and walk(0, 0, []):
        return found[-1:]
    return found


def brute_force(n: int, pairs, k: int) -> list:
    """All k-subsets that power dominate; raises if a smaller one does."""
    sets = pds_of_size(masks(n, pairs), k)
    if any(len(s) < k for s in sets):
        raise AssertionError("a smaller power dominating set exists")
    return sets


def work(n: int, m: int, subsets: int) -> int:
    """Deterministic cost of propagating ``subsets`` subsets on a graph with
    n nodes and m edges: each check rebuilds per-node counters over every
    adjacency entry, about n + 2m steps."""
    return subsets * (n + 2 * m)


def build_builtins() -> dict:
    out = {}
    for name in inputs.BUILTIN_NAMES:
        text = inputs.builtin_text(name)
        g = parse_edge_list(text)
        res = solve(g)
        sets = allminpds(g)
        labels = sorted(g.nodes)
        pos = {v: i for i, v in enumerate(labels)}
        pairs = [(pos[u], pos[v]) for u, v in g.edges()]
        brute = brute_force(len(labels), pairs, res.pdn)
        brute_sets = [frozenset(labels[i] for i in s) for s in brute]
        assert len(brute_sets) == len(sets), name
        assert check.digest(brute_sets) == check.digest(sets), name
        out[name] = {
            "pdn": res.pdn,
            "count": len(sets),
            "digest": check.digest(sets),
            "subsets_checked": res.diagnostics.subsets_checked,
            "source": "package at the recorded commit; brute force agrees",
        }
        print(name, out[name], flush=True)
    return out


def build_search() -> dict:
    pool = []
    for n, p, s in SEARCH_GRID:
        pairs = inputs.er_edges(n, p, s)
        g = parse_graph6(inputs.graph6(n, pairs))
        res = solve(g)
        assert check.is_pds(check.adjacency([(str(i), str(j)) for i, j in pairs]), res.pds)
        assert not pds_of_size(masks(n, pairs), res.pdn - 1), (n, p, s)
        d = res.diagnostics
        pool.append({
            "key": f"er({n},{p},{s})", "n": n, "p": p, "seed": s,
            "pdn": res.pdn,
            "subsets_checked": d.subsets_checked,
            "levels_completed": d.levels_completed,
            "cost": work(n, len(pairs), d.subsets_checked),
            "source": "package at the recorded commit; brute force agrees",
        })
        print(pool[-1], flush=True)
    return {
        "builtins": list(inputs.BUILTIN_NAMES),
        "per_seed": 4,
        "target": 15_700_000,
        "tol": 0.01,
        "pool": pool,
    }


def build_enumerate() -> dict:
    pool = []
    for n, p, s in ENUM_GRID:
        pairs = inputs.er_edges(n, p, s)
        g = parse_graph6(inputs.graph6(n, pairs))
        res = solve(g)
        pdn = res.pdn
        if pdn not in (3, 4) or math.comb(n, pdn) > ENUM_MAX_SUBSETS:
            continue
        sets = allminpds(g, SolverConfig(workers=2))
        brute = [frozenset(str(i) for i in t) for t in brute_force(n, pairs, pdn)]
        assert len(brute) == len(sets) and check.digest(brute) == check.digest(sets)
        pool.append({
            "key": f"er({n},{p},{s})", "n": n, "p": p, "seed": s,
            "pdn": pdn,
            "count": len(sets),
            "digest": check.digest(sets),
            "cost": work(n, len(pairs), res.diagnostics.subsets_checked + math.comb(n, pdn)),
            "source": "package at the recorded commit; brute force agrees",
        })
        print(pool[-1], flush=True)
    return {
        "builtins": ENUM_BUILTINS,
        "per_seed": 5,
        "target": 18_000_000,
        "tol": 0.01,
        "pool": pool,
    }


def check_radial() -> dict:
    for seed in range(3):
        edges = inputs.radial_feeder(RADIAL["hubs"], seed)
        hubs = [f"h{i}" for i in range(RADIAL["hubs"])]
        assert check.is_pds(check.adjacency(edges), hubs)
        assert solve(parse_edge_list(inputs.edge_list(edges))).pdn == RADIAL["hubs"]
    return {
        "builtins": [],
        "feeders": RADIAL,
        "source": "pdn = hub count by construction; hubs verified as a "
                  "power dominating set and package agrees on seeds 0-2",
    }


def commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=HERE, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> None:
    table = {
        "commit": commit(),
        "builtins": build_builtins(),
        "radial": check_radial(),
        "search": build_search(),
        "enumerate-2w": build_enumerate(),
    }
    with open(inputs.DATA / "expected.json", "w") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
