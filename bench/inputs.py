"""Benchmark-owned input generation.

Nothing here imports ``powerdom``: every input reaches the package only as
graph6 or edge-list text, decoded by the package's public codecs inside the
timed set-up. A later change to the package's own generator or builtin
library therefore cannot change a workload.

The expected answers for every graph that a seed can select are frozen in
``data/expected.json`` (see ``make_expected.py`` for where they came from).
"""

from __future__ import annotations

import json
import random
from collections import deque
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
BUILTIN_NAMES = ("fig3", "ieee39", "mutated_zim", "tadpole", "zim")


# -- Erdos-Renyi -------------------------------------------------------------


def er_edges(n: int, p: float, seed: int) -> list:
    """Edges of the connected G(n, p) sample that the package's
    ``erdos_renyi_connected(n, p, seed)`` returned at the time the expected
    table was frozen: each attempt reseeds from "seed:attempt" and the
    first connected sample wins."""
    for attempt in range(1_000_000):
        rng = random.Random(f"{seed}:{attempt}")
        adj = [[] for _ in range(n)]
        pairs = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    adj[i].append(j)
                    adj[j].append(i)
                    pairs.append((i, j))
        if len(pairs) < n - 1:
            continue
        seen = bytearray(n)
        seen[0] = 1
        queue = deque([0])
        reached = 1
        while queue:
            v = queue.popleft()
            for u in adj[v]:
                if not seen[u]:
                    seen[u] = 1
                    reached += 1
                    queue.append(u)
        if reached == n:
            return pairs
    raise ValueError(f"no connected G({n}, {p}) sample for seed {seed}")


def graph6(n: int, edges) -> str:
    """graph6 text of a graph on nodes 0..n-1 (n < 258048)."""
    if n <= 62:
        out = [chr(n + 63)]
    elif n < 258048:
        out = ["~"] + [chr(((n >> s) & 63) + 63) for s in (12, 6, 0)]
    else:
        raise ValueError("graph6 text here holds fewer than 258048 nodes")
    present = set(edges) | {(j, i) for i, j in edges}
    acc = nbits = 0
    for j in range(1, n):
        for i in range(j):
            acc = (acc << 1) | ((i, j) in present)
            nbits += 1
            if nbits == 6:
                out.append(chr(acc + 63))
                acc = nbits = 0
    if nbits:
        out.append(chr((acc << (6 - nbits)) + 63))
    return "".join(out)


# -- radial feeders ----------------------------------------------------------


def radial_feeder(hubs: int, seed: int) -> list:
    """Edges of a meshed radial feeder with string labels.

    Hubs form a random recursive tree; every tree edge and every chord is a
    run of 0-4 degree-2 nodes, and every hub carries 2 or 3 pendant
    laterals of 1-5 nodes. Run lengths, lateral counts and lateral lengths
    are fixed multisets shuffled by the seed, so every seed gives the same
    node count and only the shape varies. Each hub has two pendant paths,
    so any power dominating set meets every hub's closed lateral star, and
    the hubs alone observe everything: pdn equals the hub count.
    """
    rng = random.Random(f"radial:{hubs}:{seed}")
    chords = hubs // 25
    runs = [i % 5 for i in range(hubs - 1 + chords)]
    rng.shuffle(runs)
    laterals = [2 + i % 2 for i in range(hubs)]
    rng.shuffle(laterals)
    lengths = [1 + i % 5 for i in range(sum(laterals))]
    rng.shuffle(lengths)

    edges = []

    def link(a: str, b: str, run: int, tag: str) -> None:
        prev = a
        for j in range(run):
            node = f"{tag}.{j}"
            edges.append((prev, node))
            prev = node
        edges.append((prev, b))

    linked = set()
    for i in range(1, hubs):
        parent = rng.randrange(i)
        linked.add((parent, i))
        link(f"h{parent}", f"h{i}", runs[i - 1], f"r{i}")
    for c in range(chords):
        while True:
            a, b = sorted(rng.sample(range(hubs), 2))
            if (a, b) not in linked:
                break
        linked.add((a, b))
        link(f"h{a}", f"h{b}", runs[hubs - 1 + c], f"c{c}")
    pos = 0
    for i in range(hubs):
        for lat in range(laterals[i]):
            prev = f"h{i}"
            for j in range(lengths[pos]):
                node = f"l{i}.{lat}.{j}"
                edges.append((prev, node))
                prev = node
            pos += 1
    return edges


def edge_list(edges) -> str:
    return "".join(f"{u} {v}\n" for u, v in edges)


# -- corpus selection --------------------------------------------------------


def load_expected() -> dict:
    with open(DATA / "expected.json") as fh:
        return json.load(fh)


def builtin_text(name: str) -> str:
    return (DATA / f"{name}.txt").read_text()


def balanced_sample(rng: random.Random, pool: list, k: int, target: float, tol: float) -> list:
    """k distinct pool entries whose summed ``cost`` is within tol of the
    target, so that every seed asks for the same amount of work."""
    for _ in range(1_000_000):
        pick = rng.sample(pool, k)
        if abs(sum(e["cost"] for e in pick) / target - 1) <= tol:
            return sorted(pick, key=lambda e: e["key"])
    raise ValueError("no balanced sample found")


def corpus(workload: str, seed: int, expected: dict) -> list:
    """Inputs of one workload for one seed, as a list of dicts with the
    keys name, fmt ("graph6" | "edgelist"), text, edges (label pairs, for
    the benchmark's own checker) and expect."""
    rng = random.Random(f"{workload}:{seed}")
    table = expected[workload]
    items = []
    for name in table["builtins"]:
        text = builtin_text(name)
        items.append({
            "name": name,
            "fmt": "edgelist",
            "text": text,
            "edges": [tuple(line.split()) for line in text.splitlines()],
            "expect": expected["builtins"][name],
        })
    if workload == "radial":
        cfg = table["feeders"]
        for _ in range(cfg["count"]):
            fseed = rng.randrange(2 ** 31)
            edges = radial_feeder(cfg["hubs"], fseed)
            items.append({
                "name": f"radial({cfg['hubs']},{fseed})",
                "fmt": "edgelist",
                "text": edge_list(edges),
                "edges": edges,
                "expect": {"pdn": cfg["hubs"]},
            })
        return items
    for e in balanced_sample(
        rng, table["pool"], table["per_seed"], table["target"], table["tol"]
    ):
        pairs = er_edges(e["n"], e["p"], e["seed"])
        items.append({
            "name": e["key"],
            "fmt": "graph6",
            "text": graph6(e["n"], pairs),
            "edges": [(str(i), str(j)) for i, j in pairs],
            "expect": e,
        })
    return items
