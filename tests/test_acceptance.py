"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single pass line on
success (pytest reports failures on its own).  Criterion 9's large-network
check only runs when PDT_IEEE118_EDGELIST points at an edge-list file.
"""

import itertools
import os
import random
import time
from fractions import Fraction

import pytest

from powerdom import (
    Graph,
    ObservationState,
    SolverConfig,
    allminpds,
    builtin_graph,
    candidate_list,
    combination_rank,
    combination_unrank,
    contract,
    erdos_renyi_connected,
    is_power_dominating_set,
    parse_edge_list,
    parse_graph6,
    power_dominate,
    preferred_nodes,
    qualitative_scores,
    redundant_nodes,
    solve,
    write_graph6,
    zero_force,
)

from oracles import oracle_pdn, random_graph

ZIM_MIN_SETS = [
    {"1", "9"}, {"2", "9"}, {"2", "10"}, {"2", "11"}, {"5", "9"},
    {"5", "10"}, {"5", "11"}, {"3", "9"}, {"7", "9"}, {"7", "10"},
    {"7", "11"}, {"4", "9"}, {"9", "8"},
]


def report(number, text):
    print(f"\n[acceptance] criterion {number}: PASS — {text}")


def test_criterion_1_zim_regression():
    g = builtin_graph("zim")
    start = time.perf_counter()
    res = solve(g, SolverConfig(workers=1))
    sets = allminpds(g, SolverConfig(workers=1))
    elapsed = time.perf_counter() - start
    assert res.pdn == 2
    assert set(res.pds) == {"5", "9"}
    assert {frozenset(s) for s in sets} == {frozenset(s) for s in ZIM_MIN_SETS}
    assert len(sets) == 13
    assert elapsed < 1.0
    report(1, f"zim pdn/minpds/allminpds exact in {elapsed:.3f}s")


def test_criterion_2_zim_analysis():
    g = builtin_graph("zim")
    prep = preferred_nodes(g)
    assert prep.pref == {"9"}
    assert "6" in redundant_nodes(g, prep.pref)
    values = sorted(
        (c.score for c in qualitative_scores(g, prep.pref).values()), reverse=True
    )
    assert values == [
        Fraction(5), Fraction(9, 2), Fraction(9, 2), Fraction(9, 2),
        Fraction(11, 3), Fraction(8, 3), Fraction(8, 3),
        Fraction(5, 2), Fraction(5, 2), Fraction(5, 3), Fraction(5, 3),
    ]
    order = [c.node for c in candidate_list(g, prep.pref)]
    assert order == ["5", "7", "2"]
    report(2, "zim pref/redundant/scores/candidate order exact as rationals")


def test_criterion_3_contraction():
    mutated = builtin_graph("mutated_zim")
    zim = builtin_graph("zim")
    assert contract(mutated).contracted == zim
    assert solve(mutated, SolverConfig(workers=1)).pdn == 2
    for s in ZIM_MIN_SETS:
        assert is_power_dominating_set(mutated, s)
    report(3, "mutated variant contracts to zim; all 13 pairs remain PDSs")


def test_criterion_4_singleton_network():
    g = builtin_graph("fig3")
    prep = preferred_nodes(g)
    assert prep.p_preferred is not None
    assert prep.pref == {"1"}
    assert solve(g).pdn == 1
    report(4, "p-preferred detection gives pref {1} and pdn 1")


def test_criterion_5_ieee39():
    g = builtin_graph("ieee39")
    start = time.perf_counter()
    res = solve(g, SolverConfig(workers=1))
    elapsed = time.perf_counter() - start
    assert res.pdn == 5
    assert res.diagnostics.removed_by_contraction == 2
    prep = preferred_nodes(contract(g).contracted)
    assert len(prep.f_preferred) == 3
    assert res.diagnostics.candidates == 11
    assert res.diagnostics.n_formula == 92171
    assert is_power_dominating_set(g, {"8", "11", "16", "19", "26"})
    assert elapsed < 10.0
    report(5, f"IEEE-39 counts exact, solved in {elapsed:.3f}s with 1 worker")


def test_criterion_6_oracle_equivalence():
    start = time.perf_counter()
    checked = 0
    seed = 0
    while checked < 200:
        seed += 1
        n = 5 + seed % 8  # 5..12
        try:
            g = erdos_renyi_connected(n, 0.2, seed, max_attempts=2000)
        except Exception:
            continue
        opt = solve(g, SolverConfig(workers=1))
        naive = solve(g, SolverConfig(workers=1, mode="naive"))
        expected = oracle_pdn(g)
        assert opt.pdn == naive.pdn == expected, f"seed {seed}"
        assert is_power_dominating_set(g, opt.pds)
        assert is_power_dominating_set(g, naive.pds)
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(6, f"200 random graphs agree with brute-force oracle in {elapsed:.1f}s")


def test_criterion_7_property_suites():
    # propagation monotonicity
    rng = random.Random(11)
    for seed in range(40):
        g = random_graph(seed, 10, 0.25)
        small = {v for v in g.nodes if rng.random() < 0.2}
        big = small | {v for v in g.nodes if rng.random() < 0.2}
        assert power_dominate(g, small).observed <= power_dominate(g, big).observed

    # closure order-independence and idempotence
    for seed in range(20):
        g = random_graph(seed, 9, 0.3)
        start = frozenset(v for v in g.nodes if random.Random(seed).random() < 0.4)
        once = zero_force(g, ObservationState(start, ()))
        assert zero_force(g, once) == once
        observed = set(start)
        order_rng = random.Random(seed + 999)
        while True:
            moves = [
                u
                for v in observed
                for u in [w for w in g.neighbors(v) if w not in observed]
                if sum(1 for w in g.neighbors(v) if w not in observed) == 1
            ]
            if not moves:
                break
            observed.add(order_rng.choice(moves))
        assert observed == once.observed

    # contraction preserves pdn on small graphs
    kept = 0
    seed = 0
    while kept < 60:
        seed += 1
        g = random_graph(seed, 9, 0.25)
        from powerdom import connected_components

        if len(connected_components(g)) != 1:
            continue
        if not any(g.degree(v) >= 3 for v in g.nodes):
            continue
        assert oracle_pdn(g) == oracle_pdn(contract(g).contracted)
        kept += 1

    # p-preferred implies a singleton PDS; redundant nodes change nothing
    found_p = 0
    for seed in range(120):
        g = random_graph(seed, 8, 0.25)
        from powerdom import connected_components

        if len(connected_components(g)) != 1:
            continue
        if not any(g.degree(v) >= 3 for v in g.nodes):
            continue
        prep = preferred_nodes(g)
        if prep.p_preferred is not None:
            found_p += 1
            assert is_power_dominating_set(g, {prep.p_preferred})
        base = power_dominate(g, prep.pref).observed
        for r in redundant_nodes(g, prep.pref):
            assert power_dominate(g, prep.pref | {r}).observed == base
    assert found_p >= 1

    # score order refinement
    for g in (builtin_graph("zim"), builtin_graph("ieee39")):
        prep_pref = preferred_nodes(contract(g).contracted).pref
        cands = candidate_list(contract(g).contracted, prep_pref)
        scores = [c.score for c in cands]
        assert scores == sorted(scores, reverse=True)

    # combination rank/unrank bijection, exhaustive up to n = 12
    for n in range(13):
        for k in range(n + 1):
            for rank, combo in enumerate(itertools.combinations(range(n), k)):
                assert combination_unrank(n, k, rank) == list(combo)
                assert combination_rank(n, list(combo)) == rank

    # graph6 round trip on 100 random graphs
    for seed in range(100):
        g = random_graph(seed, 1 + seed % 25, 0.3)
        data = write_graph6(g)
        back = parse_graph6(data)
        assert back.node_count == g.node_count
        assert back.edges_by_index() == g.edges_by_index()

    report(7, "all property suites hold")


def test_criterion_8_parallel_determinism(monkeypatch):
    import powerdom.search

    monkeypatch.setattr(powerdom.search, "_CHUNK", 64)
    monkeypatch.setattr(powerdom.search, "_POOL_AFTER", 0)
    graphs = [builtin_graph("zim"), builtin_graph("ieee39")]
    graphs += [erdos_renyi_connected(30, 0.12, seed) for seed in range(20)]
    for g in graphs:
        results = [
            solve(g, SolverConfig(workers=w))
            for w in (1, 2, 8)
        ]
        signatures = {
            (r.pdn, r.pds, r.diagnostics.subsets_checked) for r in results
        }
        assert len(signatures) == 1
    report(8, "workers 1/2/8 agree on pdn, pds, and subsets_checked on 22 graphs")


def test_criterion_9_reduced_count_never_exceeds_naive():
    graphs = [builtin_graph(name) for name in ("tadpole", "zim", "mutated_zim",
                                               "fig3", "ieee39")]
    graphs += [erdos_renyi_connected(18, 0.18, seed) for seed in range(25)]
    for g in graphs:
        for mode in ("optimized", "naive"):
            d = solve(g, SolverConfig(workers=1, mode=mode)).diagnostics
            assert d.n_prime_formula <= d.n_formula
    report(9, "reduced subset count <= naive count on every instance")


@pytest.mark.skipif(
    not os.environ.get("PDT_IEEE118_EDGELIST"),
    reason="set PDT_IEEE118_EDGELIST to an edge-list file to run",
)
def test_criterion_9_extended_large_network():
    path = os.environ["PDT_IEEE118_EDGELIST"]
    with open(path, encoding="utf-8") as fh:
        g = parse_edge_list(fh.read())
    res = solve(g, SolverConfig(workers=max(os.cpu_count() - 1, 1)))
    assert res.pdn == 8
    assert is_power_dominating_set(g, res.pds)
    report(9, "large-network extended check: pdn 8 verified")
