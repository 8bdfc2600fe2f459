"""Golden answers for the builtin graphs.

The values were recorded from the solver before its search layer was
merged into a single scanner and closure kernel; they pin pdn, the exact
placement, every Diagnostics field and the allminpds enumeration order.
The force logs were recorded before the closure kernel started keeping
counters only for observed nodes; they pin the order in which forces fire.
The small-graph table was recorded before the per-component solvers were
merged into one seeds-then-levels search; it pins the trivial, naive and
multi-component paths, including which components kept a pipeline report.
The ieee39 enumeration was recorded before the collect-all scan started
filtering leaves by forts; it pins the 1,148 sets by a digest of their
order, since the list is too long to spell out.
"""

import dataclasses
import hashlib

import pytest

import powerdom.search
from powerdom import (
    Graph,
    SolverConfig,
    allminpds,
    builtin_graph,
    power_dominate,
    solve,
)

# (name, mode) -> (pdn, pds, Diagnostics fields in declaration order:
# n_formula, n_prime_formula, p, d, r, candidates, removed_by_contraction,
# subsets_checked, levels_completed)
SOLVE_GOLDEN = {
    ("zim", "optimized"): (2, ("9", "5"), (12, 1, 1, 6, 1, 3, 0, 2, 0)),
    ("zim", "naive"): (2, ("1", "9"), (12, 12, 0, 0, 0, 11, 0, 21, 1)),
    ("fig3", "optimized"): (1, ("1",), (1, 0, 1, 3, 1, 0, 0, 1, 0)),
    ("fig3", "naive"): (1, ("1",), (1, 1, 0, 0, 0, 5, 0, 1, 0)),
    ("tadpole", "optimized"): (1, ("v3",), (1, 0, 1, 3, 0, 0, 2, 1, 0)),
    ("tadpole", "naive"): (1, ("v1",), (1, 1, 0, 0, 0, 6, 0, 1, 0)),
    ("mutated_zim", "optimized"): (2, ("9", "5"), (20, 1, 1, 6, 1, 3, 8, 2, 0)),
    ("mutated_zim", "naive"): (2, ("1", "9"), (20, 20, 0, 0, 0, 19, 0, 37, 1)),
    ("ieee39", "optimized"): (
        5, ("16", "19", "26", "6", "11"), (92171, 12, 3, 19, 4, 11, 2, 14, 1),
    ),
    ("ieee39", "naive"): (
        5, ("1", "10", "16", "19", "26"), (92171, 92171, 0, 0, 0, 39, 0, 95047, 4),
    ),
}

ALLMINPDS_GOLDEN = {
    "zim": [
        ["1", "9"], ["10", "2"], ["10", "5"], ["10", "7"], ["11", "2"],
        ["11", "5"], ["11", "7"], ["2", "9"], ["3", "9"], ["4", "9"],
        ["5", "9"], ["7", "9"], ["8", "9"],
    ],
    "fig3": [["1"], ["2"], ["3"]],
    "tadpole": [["v1"], ["v2"], ["v3"], ["v6"]],
    "mutated_zim": [
        ["1", "9"], ["10", "2"], ["10", "5"], ["10", "7"], ["11", "2"],
        ["11", "5"], ["11", "7"], ["12", "9"], ["13", "9"], ["14", "9"],
        ["15", "9"], ["16", "2"], ["16", "5"], ["16", "7"], ["17", "2"],
        ["17", "5"], ["17", "7"], ["18", "2"], ["18", "5"], ["18", "7"],
        ["19", "2"], ["19", "5"], ["19", "7"], ["2", "9"], ["3", "9"],
        ["4", "9"], ["5", "9"], ["7", "9"], ["8", "9"],
    ],
}

# (name, PMU labels) -> power_dominate(...).force_log, for the first label of
# each builtin and for its optimized placement from SOLVE_GOLDEN
FORCE_LOG_GOLDEN = {
    ("fig3", ("1",)): (("2", "5"),),
    ("ieee39", ("1",)): (("39", "9"), ("9", "8")),
    ("ieee39", ("16", "19", "26", "6", "11")): (
        ("7", "8"), ("12", "13"), ("15", "14"), ("17", "18"), ("20", "34"),
        ("21", "22"), ("24", "23"), ("29", "38"), ("5", "4"), ("8", "9"),
        ("10", "32"), ("18", "3"), ("22", "35"), ("23", "36"), ("9", "39"),
        ("3", "2"), ("39", "1"), ("25", "37"), ("2", "30"),
    ),
    ("mutated_zim", ("1",)): (),
    ("mutated_zim", ("9", "5")): (
        ("1", "2"), ("4", "13"), ("10", "16"), ("11", "19"), ("2", "3"),
        ("13", "14"), ("16", "17"), ("19", "18"), ("7", "8"), ("14", "15"),
        ("8", "12"),
    ),
    ("tadpole", ("v1",)): (("v2", "v6"), ("v3", "v4"), ("v4", "v5")),
    ("tadpole", ("v3",)): (("v1", "v2"), ("v4", "v5")),
    ("zim", ("1",)): (),
    ("zim", ("9", "5")): (("1", "2"), ("2", "3"), ("7", "8")),
}


def _path(prefix, n):
    labels = [f"{prefix}{i}" for i in range(n)]
    return labels, list(zip(labels, labels[1:]))


def _cycle(prefix, n):
    labels, edges = _path(prefix, n)
    return labels, edges + [(labels[-1], labels[0])]


def _small_graph(name):
    if name == "P5":
        return Graph(*_path("p", 5))
    if name == "C6":
        return Graph(*_cycle("c", 6))
    if name == "K1":
        return Graph(["x"])
    if name == "empty":
        return Graph()
    # "mixed": zim, P5, C6 and an isolated node as four components
    zim = builtin_graph("zim")
    parts = [(zim.nodes, list(zim.edges())), _path("p", 5), _cycle("c", 6), (["x"], [])]
    return Graph([v for vs, _ in parts for v in vs], [e for _, es in parts for e in es])


# (name, mode) -> (pdn, pds, Diagnostics fields as in SOLVE_GOLDEN,
# per_component as (sorted nodes, pdn, pds), whether each pipeline entry is None)
SMALL_SOLVE_GOLDEN = {
    ("P5", "optimized"): (
        1, ("p0",), (1, 1, 0, 5, 0, 0, 0, 0, 0),
        ((("p0", "p1", "p2", "p3", "p4"), 1, ("p0",)),), (True,),
    ),
    ("P5", "naive"): (
        1, ("p0",), (1, 1, 0, 0, 0, 5, 0, 1, 0),
        ((("p0", "p1", "p2", "p3", "p4"), 1, ("p0",)),), (True,),
    ),
    ("C6", "optimized"): (
        1, ("c0",), (1, 1, 0, 6, 0, 0, 0, 0, 0),
        ((("c0", "c1", "c2", "c3", "c4", "c5"), 1, ("c0",)),), (True,),
    ),
    ("C6", "naive"): (
        1, ("c0",), (1, 1, 0, 0, 0, 6, 0, 1, 0),
        ((("c0", "c1", "c2", "c3", "c4", "c5"), 1, ("c0",)),), (True,),
    ),
    ("K1", "optimized"): (
        1, ("x",), (1, 1, 0, 1, 0, 0, 0, 0, 0), ((("x",), 1, ("x",)),), (True,),
    ),
    ("K1", "naive"): (
        1, ("x",), (1, 1, 0, 0, 0, 1, 0, 1, 0), ((("x",), 1, ("x",)),), (True,),
    ),
    ("empty", "optimized"): (0, (), (0, 0, 0, 0, 0, 0, 0, 0, 0), (), ()),
    ("empty", "naive"): (0, (), (0, 0, 0, 0, 0, 0, 0, 0, 0), (), ()),
    ("mixed", "optimized"): (
        5, ("9", "5", "p0", "c0", "x"), (10903, 8, 1, 18, 1, 3, 0, 2, 0),
        (
            (("1", "10", "11", "2", "3", "4", "5", "6", "7", "8", "9"), 2, ("9", "5")),
            (("p0", "p1", "p2", "p3", "p4"), 1, ("p0",)),
            (("c0", "c1", "c2", "c3", "c4", "c5"), 1, ("c0",)),
            (("x",), 1, ("x",)),
        ),
        (False, True, True, True),
    ),
    ("mixed", "naive"): (
        5, ("1", "9", "p0", "c0", "x"), (10903, 10903, 0, 0, 0, 23, 0, 24, 1),
        (
            (("1", "10", "11", "2", "3", "4", "5", "6", "7", "8", "9"), 2, ("1", "9")),
            (("p0", "p1", "p2", "p3", "p4"), 1, ("p0",)),
            (("c0", "c1", "c2", "c3", "c4", "c5"), 1, ("c0",)),
            (("x",), 1, ("x",)),
        ),
        (True, True, True, True),
    ),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name, mode", sorted(SOLVE_GOLDEN))
def test_solve_matches_golden(name, mode, workers):
    pdn, pds, diag = SOLVE_GOLDEN[(name, mode)]
    res = solve(builtin_graph(name), SolverConfig(workers=workers, mode=mode))
    assert res.pdn == pdn
    assert res.pds == pds
    assert dataclasses.astuple(res.diagnostics) == diag


@pytest.mark.parametrize("name", ["zim", "fig3", "tadpole", "mutated_zim", "ieee39"])
def test_pool_driven_solve_matches_golden(name, monkeypatch):
    monkeypatch.setattr(powerdom.search, "_CHUNK", 4)
    monkeypatch.setattr(powerdom.search, "_POOL_AFTER", 0)
    pdn, pds, diag = SOLVE_GOLDEN[(name, "optimized")]
    res = solve(builtin_graph(name), SolverConfig(workers=2))
    assert (res.pdn, res.pds, dataclasses.astuple(res.diagnostics)) == (pdn, pds, diag)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(ALLMINPDS_GOLDEN))
def test_allminpds_matches_golden(name, workers, monkeypatch):
    monkeypatch.setattr(powerdom.search, "_CHUNK", 4)
    monkeypatch.setattr(powerdom.search, "_POOL_AFTER", 0)
    sets = allminpds(builtin_graph(name), SolverConfig(workers=workers))
    assert [sorted(s) for s in sets] == ALLMINPDS_GOLDEN[name]


# allminpds(ieee39): the set count and the SHA-256 of the sets in return
# order, each as its sorted labels joined by commas, one set per line
IEEE39_ALLMINPDS = (
    1148, "4ab88b66f5f51059d502a0174f9feed4f549aeffab5f3b9e7a971e70e847e17a",
)


@pytest.mark.parametrize("workers", [1, 2])
def test_ieee39_allminpds_matches_golden(workers):
    sets = allminpds(builtin_graph("ieee39"), SolverConfig(workers=workers))
    text = "\n".join(",".join(sorted(s)) for s in sets)
    assert (len(sets), hashlib.sha256(text.encode()).hexdigest()) == IEEE39_ALLMINPDS


@pytest.mark.parametrize("name, pmus", sorted(FORCE_LOG_GOLDEN))
def test_force_log_matches_golden(name, pmus):
    g = builtin_graph(name)
    assert power_dominate(g, set(pmus)).force_log == FORCE_LOG_GOLDEN[(name, pmus)]


@pytest.mark.parametrize("workers, chunk", [(1, 4096), (2, 4)])
@pytest.mark.parametrize("name, mode", sorted(SMALL_SOLVE_GOLDEN))
def test_small_graph_solve_matches_golden(name, mode, workers, chunk, monkeypatch):
    monkeypatch.setattr(powerdom.search, "_CHUNK", chunk)
    monkeypatch.setattr(powerdom.search, "_POOL_AFTER", 0)
    pdn, pds, diag, per_component, no_pipeline = SMALL_SOLVE_GOLDEN[(name, mode)]
    res = solve(_small_graph(name), SolverConfig(workers=workers, mode=mode))
    assert (res.pdn, res.pds, dataclasses.astuple(res.diagnostics)) == (pdn, pds, diag)
    assert tuple((tuple(sorted(c)), k, s) for c, k, s in res.per_component) == per_component
    assert tuple(p is None for p in res.pipeline) == no_pipeline
