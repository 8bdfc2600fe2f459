"""Seeded end-to-end and per-layer benchmark of the ``powerdom`` solver.

Run from the repository root:

    python3 bench/run.py --workload search --seed 1 --seconds 30 --trace 0

Workloads are described in ``NOTES.md``. The inputs are generated from the
seed by ``inputs.py`` and reach the package only as graph6 or edge-list
text. Every answer is checked against ``data/expected.json`` and by the
benchmark's own propagation routine (``check.py``); a wrong answer counts
as a failed op and does not stop the run.

With ``--trace 0`` the corpus is solved round after round until
``--seconds`` have passed (at least three rounds); each op's time is the
median over rounds, and ``wall_s`` and ``cpu_s`` are the sums of those
medians. With ``--trace 1`` the run instead times each layer from the
outside, keeps the spans in memory and writes them once, at exit, to
``.bench_trace/`` under the working directory.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A diagnostic line
with the round count, the round-to-round spread and the machine's steal
time goes to standard error.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import check
import inputs

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOADS = {
    "search": {"op": "solve", "workers": 1},
    "enumerate-2w": {"op": "allminpds", "workers": 2},
    "radial": {"op": "solve", "workers": 1},
}
MIN_ROUNDS = 3
SETUP_REPEATS = 15
CHECK_SAMPLES = 200
CLOSURE_SAMPLES = 20
ALL_CPUS = frozenset(os.sched_getaffinity(0))

# Imports the package and decodes the inputs in a fresh interpreter, so
# that set-up time includes every module the package pulls in. The inputs
# are read from stdin before the clock starts.
SETUP_CHILD = r"""
import json, sys, time
src, items = json.load(sys.stdin)
sys.path.insert(0, src)
t0 = time.perf_counter()
import powerdom
for fmt, text in items:
    (powerdom.parse_graph6 if fmt == "graph6" else powerdom.parse_edge_list)(text)
print(time.perf_counter() - t0)
"""


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    if not (SRC / "powerdom" / "__init__.py").is_file():
        fail(f"no package source at {SRC / 'powerdom'}")
    sys.path.insert(0, str(SRC))
    import powerdom

    if Path(powerdom.__file__).resolve().parent != SRC / "powerdom":
        fail(f"imported powerdom from {powerdom.__file__}, not from {SRC}")
    return powerdom


def steal_seconds():
    """Machine-wide steal time so far, from /proc/stat; None if unknown."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def use_cpus(workers: int) -> None:
    """Pin a single-worker run to one CPU; give a pool every CPU."""
    cpus = ALL_CPUS if workers > 1 else {max(ALL_CPUS)}
    if os.sched_getaffinity(0) != cpus:
        os.sched_setaffinity(0, cpus)


def cpu_seconds() -> float:
    """User plus system time of this process and of its reaped children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def upper_quartile(values) -> float:
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def spread(values) -> float:
    """Interquartile range as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def time_setup(items) -> float:
    payload = json.dumps([str(SRC), [(it["fmt"], it["text"]) for it in items]])
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD], input=payload,
            capture_output=True, text=True, timeout=120,
        )
        if done.returncode != 0:
            fail(f"set-up child failed:\n{done.stderr}")
        times.append(float(done.stdout))
    return statistics.median(times)


class Bench:
    """One workload's ops, the package under test and the failure tally."""

    def __init__(self, pd, workload: str, items: list):
        self.pd = pd
        self.kind = WORKLOADS[workload]["op"]
        self.op = pd.solve if self.kind == "solve" else pd.allminpds
        self.workers = WORKLOADS[workload]["workers"]
        self.items = items
        self.graphs = [self.decode(it) for it in items]
        self.adj = [check.adjacency(it["edges"]) for it in items]
        self.verdicts: list = [None] * len(items)
        self.attempted = 0
        self.failed = 0

    def decode(self, item):
        parse = self.pd.parse_graph6 if item["fmt"] == "graph6" else self.pd.parse_edge_list
        return parse(item["text"])

    def config(self, workers: int):
        return self.pd.SolverConfig(workers=workers)

    def call(self, i: int, cfg):
        """Run op i after a collection; returns (answer, wall s, cpu s)."""
        gc.collect()
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        answer = self.op(self.graphs[i], cfg)
        wall = time.perf_counter() - t0
        return answer, wall, cpu_seconds() - c0

    def gate(self, i: int, answer) -> None:
        """Check one answer; a wrong one counts as failed and is reported."""
        if self.kind == "solve":
            key = tuple(sorted(answer.pds))
        else:
            key = tuple(sorted(tuple(sorted(s)) for s in answer))
        self.attempted += 1
        if self.verdicts[i] is None or self.verdicts[i][0] != key:
            item = self.items[i]
            if self.kind == "solve":
                errors = check.check_solve(self.adj[i], item["expect"], answer.pds)
            else:
                errors = check.check_allminpds(self.adj[i], item["expect"], answer)
            self.verdicts[i] = (key, errors)
            for e in errors:
                print(f"bench: {item['name']}: {e}", file=sys.stderr)
        if self.verdicts[i][1]:
            self.failed += 1


# -- timed run ---------------------------------------------------------------


def timed_run(bench: Bench, seconds: float) -> dict:
    cfg = bench.config(bench.workers)
    n = len(bench.items)
    walls = [[] for _ in range(n)]
    cpus = [[] for _ in range(n)]
    rounds = []
    deadline = time.perf_counter() + seconds
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
        total = 0.0
        for i in range(n):
            # Stop at the deadline even inside a round; a cut round's ops
            # keep their samples but the round total is not recorded.
            if len(rounds) >= MIN_ROUNDS and time.perf_counter() >= deadline:
                break
            answer, wall, cpu = bench.call(i, cfg)
            walls[i].append(wall)
            cpus[i].append(cpu)
            total += wall
            bench.gate(i, answer)
        else:
            rounds.append(total)
    return {
        "wall_s": sum(upper_quartile(w) for w in walls),
        "cpu_s": sum(upper_quartile(c) for c in cpus),
        "rounds": rounds,
    }


# -- traced run --------------------------------------------------------------


class Tracer:
    """Spans kept in memory: name, start, end, parent span and op."""

    def __init__(self):
        self.spans: list = []
        self._open: list = []

    @contextmanager
    def span(self, op: int, name: str):
        rec = {
            "id": len(self.spans), "op": op, "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(), "end": None,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def totals(self, first: int) -> dict:
        """Seconds per (op, span name) over the spans recorded since index
        ``first``."""
        out: dict = {}
        for rec in self.spans[first:]:
            key = (rec["op"], rec["name"])
            out[key] = out.get(key, 0.0) + rec["end"] - rec["start"]
        return out


def check_calls(pd, cg, pref, cands, pdn: int, name: str) -> list:
    """Fixed sample of (adjacency, seeds + candidate combination) calls
    that the level search would make on this contracted graph."""
    seeds = tuple(cg.index_of(v) for v in sorted(pref))
    cand = [cg.index_of(c.node) for c in cands]
    m = len(cand)
    k = min(max(pdn - len(pref), 1), m)
    total = math.comb(m, k)
    rng = random.Random(f"check:{name}")
    calls = []
    for _ in range(CHECK_SAMPLES):
        combo = pd.combination_unrank(m, k, rng.randrange(total))
        calls.append(seeds + tuple(cand[p] for p in combo))
    return calls


def traced_op(bench: Bench, tr: Tracer, i: int, counts: dict):
    """Replay op i's layers from the outside, then run the op itself;
    returns the solve diagnostics of op i's graph."""
    from powerdom.propagation import observes_all

    pd = bench.pd
    item = bench.items[i]
    cfg = bench.config(bench.workers)
    diag = None
    with tr.span(i, "op"):
        with tr.span(i, "graph.decode"):
            g = bench.decode(item)
        with tr.span(i, "graph.components"):
            subs = [g.induced(comp) for comp in pd.connected_components(g)]
        for sub in subs:
            if all(len(a) <= 2 for a in sub.adjacency):
                continue
            with tr.span(i, "reduction.contract"):
                report = pd.contract(sub)
            cg = report.contracted
            with tr.span(i, "graph.articulation"):
                cuts = pd.articulation_points(cg)
            with tr.span(i, "reduction.preferred"):
                pref = pd.preferred_nodes(cg).pref
            with tr.span(i, "reduction.redundant"):
                pd.redundant_nodes(cg, pref)
            with tr.span(i, "reduction.candidates"):
                cands = pd.candidate_list(cg, pref)
            counts["removed"] += len(report.removed)
            counts["pref"] += len(pref)
            counts["candidates"] += len(cands)
            calls = check_calls(pd, cg, pref, cands, item["expect"]["pdn"], item["name"])
            adj = cg.adjacency
            with tr.span(i, "propagation.check"):
                for seeds in calls:
                    observes_all(adj, seeds)
            counts["checks"] += len(calls)
            sample = sorted(cuts or cg.nodes)[:CLOSURE_SAMPLES]
            with tr.span(i, "propagation.closure"):
                for v in sample:
                    pd.power_dominate(cg, {v})
            counts["closures"] += len(sample)
        if bench.kind == "allminpds":
            with tr.span(i, "search.solve"):
                diag = pd.solve(g, cfg).diagnostics
        gc.collect()
        with tr.span(i, "search.op"):
            answer = bench.op(g, cfg)
        placement = answer.pds if bench.kind == "solve" else sorted(answer[0])
        with tr.span(i, "propagation.verify"):
            pd.is_power_dominating_set(g, placement)
    bench.gate(i, answer)
    return diag or answer.diagnostics


def traced_run(bench: Bench, seconds: float, workload: str, seed: int) -> dict:
    pd = bench.pd
    n = len(bench.items)
    deadline = time.perf_counter() + seconds
    other = 1 if bench.workers > 1 else 2
    subsets: list = [[] for _ in range(n)]

    # Untraced round with the workload's worker count, then one with the
    # other count, for the pool comparison and the subsets_checked check.
    plain = {}
    for workers in (bench.workers, other):
        use_cpus(workers)
        cfg = bench.config(workers)
        wall = cpu = 0.0
        for i in range(n):
            answer, w, c = bench.call(i, cfg)
            wall += w
            cpu += c
            bench.gate(i, answer)
            diag = answer if bench.kind == "solve" else pd.solve(bench.graphs[i], cfg)
            subsets[i].append(diag.diagnostics.subsets_checked)
        plain[workers] = (wall, cpu)

    use_cpus(bench.workers)
    tr = Tracer()
    per_round = []
    round_walls = []
    while not per_round or time.perf_counter() < deadline:
        counts = dict.fromkeys(("removed", "pref", "candidates", "checks", "closures"), 0)
        first = len(tr.spans)
        diags = [traced_op(bench, tr, i, counts) for i in range(n)]
        for i, d in enumerate(diags):
            subsets[i].append(d.subsets_checked)
        totals = tr.totals(first)
        per_round.append(totals)
        round_walls.append(sum(totals.get((i, "op"), 0.0) for i in range(n)))

    for i, seen in enumerate(subsets):
        if len(set(seen)) != 1:
            bench.failed += 1
            print(f"bench: {bench.items[i]['name']}: subsets_checked varies "
                  f"across repeats and worker counts: {seen}", file=sys.stderr)

    def layer(name: str) -> float:
        return sum(
            statistics.median(t.get((i, name), 0.0) for t in per_round)
            for i in range(n)
        )

    reductions = sum(layer(f"reduction.{s}") for s in ("contract", "preferred", "redundant", "candidates"))
    levels_s = layer("search.op") - reductions - layer("graph.components") - layer("propagation.verify")
    hits = scanned = 0
    for i, d in enumerate(diags):
        scanned += d.subsets_checked
        if bench.kind == "solve":
            hits += 1
        else:
            hits += bench.items[i]["expect"]["count"]
            scanned += math.comb(bench.graphs[i].node_count, bench.items[i]["expect"]["pdn"])
    one, two = plain[1], plain[2]

    os.makedirs(".bench_trace", exist_ok=True)
    with open(os.path.join(".bench_trace", f"{workload}-seed{seed}.json"), "w") as fh:
        json.dump({"ops": [it["name"] for it in bench.items], "spans": tr.spans}, fh)

    return {
        "graph.decode_s": (layer("graph.decode"), "s"),
        "graph.components_s": (layer("graph.components"), "s"),
        "graph.articulation_s": (layer("graph.articulation"), "s"),
        "reduction.contract_s": (layer("reduction.contract"), "s"),
        "reduction.preferred_s": (layer("reduction.preferred"), "s"),
        "reduction.redundant_s": (layer("reduction.redundant"), "s"),
        "reduction.candidates_s": (layer("reduction.candidates"), "s"),
        "reduction.removed": (counts["removed"], "count"),
        "reduction.pref": (counts["pref"], "count"),
        "reduction.candidates": (counts["candidates"], "count"),
        "propagation.check_us": (layer("propagation.check") / counts["checks"] * 1e6, "us"),
        "propagation.closure_ms": (layer("propagation.closure") / counts["closures"] * 1e3, "ms"),
        "propagation.verify_s": (layer("propagation.verify"), "s"),
        "search.subsets_checked": (sum(d.subsets_checked for d in diags), "count"),
        "search.levels_completed": (sum(d.levels_completed for d in diags), "count"),
        "search.levels_s": (levels_s, "s"),
        "search.subset_us": (levels_s / scanned * 1e6, "us"),
        "search.hit_ratio": (hits / scanned, "ratio"),
        "search.pool_speedup": (one[0] / two[0], "x"),
        "search.pool_cpu_overhead": (two[1] / one[1], "x"),
        "trace.overhead_s": (statistics.median(round_walls) - plain[bench.workers][0], "s"),
    }


# -- main --------------------------------------------------------------------


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--wrong-expected", action="store_true",
                    help="add one to the first op's expected pdn, to show that the gate counts it")
    args = ap.parse_args()

    pd = import_package()
    items = inputs.corpus(args.workload, args.seed, inputs.load_expected())
    if args.wrong_expected:
        items[0]["expect"] = dict(items[0]["expect"], pdn=items[0]["expect"]["pdn"] + 1)
    use_cpus(WORKLOADS[args.workload]["workers"])

    steal0 = steal_seconds()
    bench = Bench(pd, args.workload, items)
    if args.trace:
        metrics = traced_run(bench, args.seconds, args.workload, args.seed)
        info = {}
    else:
        setup_s = time_setup(items)
        res = timed_run(bench, args.seconds)
        metrics = {
            "wall_s": (res["wall_s"], "s"),
            "cpu_s": (res["cpu_s"], "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        info = {"rounds": len(res["rounds"]), "round_spread": spread(res["rounds"])}
    steal1 = steal_seconds()
    info["steal_s"] = None if steal0 is None else steal1 - steal0
    info.update(workload=args.workload, seed=args.seed, ops=len(items))
    print(json.dumps(info), file=sys.stderr)
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
