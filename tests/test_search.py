import importlib.util
import itertools
import math
import multiprocessing
import os
import random
import signal
import types
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import powerdom.propagation
import powerdom.search
from powerdom import (
    Graph,
    InternalError,
    ParameterError,
    SolverConfig,
    allminpds,
    candidate_list,
    combination_rank,
    combination_unrank,
    connected_components,
    contract,
    default_workers,
    erdos_renyi_connected,
    forcing_chains,
    is_power_dominating_set,
    parse_edge_list,
    preferred_nodes,
    solve,
    subset_counts,
    write_edge_list,
)

from powerdom.propagation import _force_closure, _minimal_fort, _observe, observes_all
from powerdom.search import _Forts, _blocks, _scan_levels, _scan_range

import children
from families import (
    byte_key,
    chorded_cycles,
    grids,
    relabeled,
    renamed,
    structured_graphs,
    trees,
)
from oracles import (
    oracle_is_minimal_fort,
    oracle_is_pds,
    oracle_min_pds_sets,
    oracle_pdn,
    oracle_zero_force,
    random_graph,
)

ZIM_TABLE_SETS = [
    {"1", "9"}, {"2", "9"}, {"2", "10"}, {"2", "11"}, {"5", "9"},
    {"5", "10"}, {"5", "11"}, {"3", "9"}, {"7", "9"}, {"7", "10"},
    {"7", "11"}, {"4", "9"}, {"9", "8"},
]


class TestCombinatorics:
    def test_first_combination(self):
        assert combination_unrank(4, 2, 0) == [0, 1]

    def test_last_combination(self):
        assert combination_unrank(4, 2, 5) == [2, 3]

    def test_rank_out_of_range(self):
        with pytest.raises(ParameterError):
            combination_unrank(4, 2, 6)

    def test_unrank_size_over_n(self):
        with pytest.raises(ParameterError, match="0 <= k <= n"):
            combination_unrank(3, 4, 0)

    @pytest.mark.parametrize("combo", [[2, 1], [1, 1], [0, 5], [-1, 2]])
    def test_rank_of_invalid_combination(self, combo):
        with pytest.raises(ParameterError, match="strictly increasing"):
            combination_rank(5, combo)

    def test_bijection_exhaustive_up_to_n12(self):
        for n in range(13):
            for k in range(n + 1):
                combos = list(itertools.combinations(range(n), k))
                for rank, combo in enumerate(combos):
                    assert combination_unrank(n, k, rank) == list(combo)
                    assert combination_rank(n, list(combo)) == rank


class TestSubsetCounts:
    def test_ieee39_naive_count(self):
        n, _ = subset_counts(39, 5, 37, 3, 19, 4)
        assert n == 92171

    def test_pdn_one_gives_one(self):
        assert subset_counts(10, 1, 10, 0, 0, 0)[0] == 1

    def test_ieee39_reduced_count_printed_formula(self):
        # upper limit pdn-1-p: sum of C(11, i) for i in {0, 1}
        _, n_prime = subset_counts(39, 5, 37, 3, 19, 4)
        assert n_prime == 12

    def test_empty_sum_when_pref_covers_levels(self):
        assert subset_counts(10, 2, 10, 3, 0, 0)[1] == 0

    def test_reduced_never_exceeds_naive(self):
        for args in [(39, 5, 37, 3, 19, 4), (12, 3, 10, 1, 4, 2), (5, 1, 5, 0, 0, 0)]:
            n, n_prime = subset_counts(*args)
            assert n_prime <= n

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            subset_counts(5, -1, 5, 0, 0, 0)

    def test_excluded_over_contracted_total_rejected(self):
        with pytest.raises(ParameterError, match="exceeds contracted node count"):
            subset_counts(10, 2, 5, 2, 2, 2)

    def test_equals_the_sums_of_binomials(self):
        short = empty = 0
        for n in range(61):
            for pdn in range(n + 1):
                for contracted in {n, n // 2, 0}:
                    for p in {0, 1, pdn // 2, pdn, pdn + 1}:
                        if p > contracted:
                            continue
                        for rest in {0, (contracted - p) // 2, contracted - p}:
                            d, r = rest // 2, rest - rest // 2
                            reduced = contracted - p - d - r
                            short += reduced < pdn - p
                            empty += pdn - p <= 0
                            assert subset_counts(n, pdn, contracted, p, d, r) == (
                                sum(math.comb(n, i) for i in range(pdn)),
                                sum(math.comb(reduced, i) for i in range(pdn - p)),
                            )
        assert short > 1000 and empty > 1000

    def test_a_radial_feeder_counts_exactly(self):
        # bench/inputs.radial_feeder: every hub carries two pendant paths, so
        # the hubs are the preferred set and the reduced count is empty
        spec = importlib.util.spec_from_file_location(
            "radial_inputs", Path(__file__).resolve().parents[1] / "bench" / "inputs.py"
        )
        inputs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(inputs)
        g = parse_edge_list(inputs.edge_list(inputs.radial_feeder(1600, 1)))
        res = solve(g, SolverConfig(workers=1))
        assert (g.node_count, res.pdn) == (16923, 1600)
        assert res.diagnostics.n_formula == sum(math.comb(16923, i) for i in range(1600))
        assert res.diagnostics.n_prime_formula == 0


class TestSolve:
    def test_zim(self, zim):
        res = solve(zim, SolverConfig(workers=1))
        assert res.pdn == 2
        assert res.pds == ("9", "5")

    def test_fig3(self, fig3):
        res = solve(fig3)
        assert res.pdn == 1
        assert res.pds == ("1",)

    def test_ieee39(self, ieee39):
        res = solve(ieee39, SolverConfig(workers=1))
        assert res.pdn == 5
        assert is_power_dominating_set(ieee39, res.pds)
        assert res.diagnostics.n_formula == 92171
        assert res.diagnostics.removed_by_contraction == 2
        assert res.diagnostics.p == 3
        assert res.diagnostics.candidates == 11

    def test_path_p7(self):
        labels = [str(i) for i in range(7)]
        p7 = Graph(labels, [(labels[i], labels[i + 1]) for i in range(6)])
        res = solve(p7)
        assert res.pdn == 1
        assert res.pds == ("0",)

    def test_cycle(self):
        labels = [str(i) for i in range(6)]
        c6 = Graph(labels, [(labels[i], labels[(i + 1) % 6]) for i in range(6)])
        assert solve(c6).pdn == 1

    def test_empty_graph(self):
        res = solve(Graph())
        assert res.pdn == 0
        assert res.pds == ()
        assert res.per_component == ()

    def test_single_node(self):
        res = solve(Graph(["a"]))
        assert res.pdn == 1
        assert res.pds == ("a",)

    def test_disconnected_sums_components(self, zim, path5):
        labels = list(zim.nodes) + list(path5.nodes)
        edges = list(zim.edges()) + list(path5.edges())
        g = Graph(labels, edges)
        res = solve(g)
        assert res.pdn == 3
        assert len(res.per_component) == 2
        assert sum(pdn for _, pdn, _ in res.per_component) == 3
        assert is_power_dominating_set(g, res.pds)

    def test_naive_mode_agrees(self, zim, fig3):
        for g in (zim, fig3):
            assert solve(g, SolverConfig(mode="naive")).pdn == solve(g).pdn

    def test_minimality_small_graphs(self):
        for seed in range(25):
            g = random_graph(seed, 8, 0.3)
            res = solve(g)
            nodes = sorted(g.nodes)
            for k in range(1, res.pdn):
                for subset in itertools.combinations(nodes, k):
                    assert not is_power_dominating_set(g, subset)

    def test_diagnostics_monotone(self, zim, ieee39):
        for g in (zim, ieee39):
            for mode in ("optimized", "naive"):
                d = solve(g, SolverConfig(mode=mode)).diagnostics
                assert d.n_prime_formula <= d.n_formula
                assert d.subsets_checked >= 0

    def test_oracle_equivalence_sample(self):
        checked = 0
        seed = 0
        while checked < 40:
            seed += 1
            g = erdos_renyi_connected(4 + seed % 9, 0.3, seed)
            opt = solve(g, SolverConfig(workers=1))
            naive = solve(g, SolverConfig(workers=1, mode="naive"))
            expected = oracle_pdn(g)
            assert opt.pdn == naive.pdn == expected, seed
            assert is_power_dominating_set(g, opt.pds)
            assert is_power_dominating_set(g, naive.pds)
            checked += 1

    def test_failed_verification_raises(self, zim, monkeypatch):
        # a component solver that returns no PDS is caught before the result
        monkeypatch.setattr(
            powerdom.search,
            "_solve_component",
            lambda sub, cfg: powerdom.search._ComponentOutcome(sub.node_count, ("9",)),
        )
        with pytest.raises(InternalError, match="fails verification"):
            solve(zim)

    def test_invalid_config(self):
        with pytest.raises(ParameterError):
            SolverConfig(workers=0)
        with pytest.raises(ParameterError):
            SolverConfig(mode="fast")
        for workers in (2.5, True, "2"):
            with pytest.raises(ParameterError):
                SolverConfig(workers=workers)


class TestDefaultWorkers:
    def test_counts_the_cpus_this_process_may_use(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert default_workers() == 1

    def test_falls_back_to_the_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert default_workers() == 3


class TestParallelDeterminism:
    @pytest.mark.parametrize("builtin", ["zim", "ieee39"])
    def test_builtin_graphs(self, builtin, monkeypatch):
        from powerdom import builtin_graph

        monkeypatch.setattr(powerdom.search, "_CHUNK", 4)
        monkeypatch.setattr(powerdom.search, "_POOL_AFTER", 0)
        g = builtin_graph(builtin)
        outputs = {
            w: solve(g, SolverConfig(workers=w))
            for w in (1, 2, 8)
        }
        base = outputs[1]
        for res in outputs.values():
            assert res.pdn == base.pdn
            assert res.pds == base.pds
            assert res.diagnostics.subsets_checked == base.diagnostics.subsets_checked

    def test_random_graphs(self, monkeypatch):
        monkeypatch.setattr(powerdom.search, "_CHUNK", 8)
        monkeypatch.setattr(powerdom.search, "_POOL_AFTER", 0)
        for seed in range(5):
            g = erdos_renyi_connected(30, 0.15, seed)
            results = [solve(g, SolverConfig(workers=w)) for w in (1, 2, 8)]
            assert len({(r.pdn, r.pds, r.diagnostics.subsets_checked) for r in results}) == 1


class TestAllMinPds:
    def test_zim_matches_published_table(self, zim):
        sets = allminpds(zim, SolverConfig(workers=1))
        assert len(sets) == 13
        assert {frozenset(s) for s in sets} == {frozenset(s) for s in ZIM_TABLE_SETS}

    def test_k1(self):
        assert allminpds(Graph(["a"])) == [frozenset({"a"})]

    def test_cycle_c4_all_singletons(self):
        labels = [str(i) for i in range(4)]
        c4 = Graph(labels, [(labels[i], labels[(i + 1) % 4]) for i in range(4)])
        assert allminpds(c4) == [frozenset({l}) for l in labels]

    def test_empty_graph_rejected(self):
        with pytest.raises(ParameterError):
            allminpds(Graph())

    def test_worker_count_does_not_change_output(self, zim, monkeypatch):
        monkeypatch.setattr(powerdom.search, "_CHUNK", 4)
        monkeypatch.setattr(powerdom.search, "_POOL_AFTER", 0)
        a = allminpds(zim, SolverConfig(workers=1))
        b = allminpds(zim, SolverConfig(workers=8))
        assert a == b

    def test_thousand_stars_give_one_set(self):
        """1,000 disjoint K_{1,3}: each star's only minimum PDS is its
        center. A scan of the whole graph at pdn 1,000 recursed once per
        level and raised RecursionError."""
        labels, edges = [], []
        for s in range(1000):
            leaves = [f"{s}.{i}" for i in range(3)]
            labels += [f"{s}", *leaves]
            edges += [(f"{s}", leaf) for leaf in leaves]
        assert allminpds(Graph(labels, edges)) == [frozenset(str(s) for s in range(1000))]

    def test_isolated_nodes_give_one_set(self):
        labels = [str(i) for i in range(1100)]
        assert allminpds(Graph(labels)) == [frozenset(labels)]

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.one_of(trees(6), grids(3), chorded_cycles(6), st.just(Graph(["0"]))),
            min_size=2,
            max_size=3,
        ).filter(lambda parts: sum(p.node_count for p in parts) <= 14),
        st.randoms(use_true_random=False),
    )
    def test_disjoint_unions_match_the_oracle(self, parts, rng):
        """The sets of a union of small family graphs, and their order,
        are those of plain enumeration over the whole graph; the labels are
        shuffled so the components interleave in label order."""
        names = [str(i) for i in range(sum(p.node_count for p in parts))]
        rng.shuffle(names)
        labels, edges, at = [], [], 0
        for p in parts:
            name = dict(zip(p.nodes, names[at : at + p.node_count]))
            at += p.node_count
            labels += name.values()
            edges += [(name[u], name[v]) for u, v in p.edges()]
        g = Graph(labels, edges)
        assert allminpds(g, SolverConfig(workers=1)) == oracle_min_pds_sets(g)


class TestLabelOrder:
    """Label order is UTF-8 byte order, and every label a Graph accepts
    can be ordered."""

    def test_label_with_a_lone_surrogate(self, zim):
        # "\ud800" has no UTF-8 encoding, so a byte sort key cannot take it
        g = renamed(zim, {"9": "\ud800"})
        for mode in ("optimized", "naive"):
            res = solve(g, SolverConfig(workers=1, mode=mode))
            assert res.pdn == 2
            assert is_power_dominating_set(g, res.pds)
        sets = allminpds(g, SolverConfig(workers=1))
        assert len(sets) == 13
        expected = [["\ud800" if v == "9" else v for v in s] for s in ZIM_TABLE_SETS]
        assert set(sets) == {frozenset(s) for s in expected}
        chains = forcing_chains(g, res.pds)
        assert set(res.pds).union(*(c.nodes for c in chains)) == set(g.nodes)
        assert g.neighbors("\ud800") == tuple(sorted(zim.neighbors("9"), key=byte_key))
        # the surrogate sorts after every ASCII label
        assert all(g.neighbors(u)[-1] == "\ud800" for u in zim.neighbors("9"))
        assert parse_edge_list(write_edge_list(g)) == g

    def test_byte_order_where_utf16_order_differs(self, fig3, ieee39):
        # UTF-8 puts U+FFFF (3 bytes) before an astral character (4 bytes);
        # UTF-16 puts the astral one's surrogate pair first
        high, astral, top = "\uffff", "\U0001f600", "\U0010ffff"
        path = Graph([astral, high], [(astral, high)])
        cycle = Graph([astral, top, high], [(astral, top), (top, high), (high, astral)])
        for g in (path, cycle):
            assert solve(g, SolverConfig(workers=1)).pds == (high,)
        # both f-preferred nodes of fig3 qualify, so the first becomes p-preferred
        for a, b in ((astral, high), (high, astral)):
            assert preferred_nodes(renamed(fig3, {"1": a, "2": b})).p_preferred == high
        # the seeds are the preferred nodes of contracted ieee39, in label order
        g = renamed(ieee39, {"16": astral, "19": high})
        assert solve(g, SolverConfig(workers=1)).pds == ("26", high, astral, "6", "11")

    @settings(max_examples=100, deadline=None)
    @given(relabeled())
    def test_allminpds_in_rank_order_over_byte_sorted_labels(self, g):
        pos = {v: p for p, v in enumerate(sorted(g.nodes, key=byte_key))}
        sets = allminpds(g, SolverConfig(workers=1))
        ranks = [combination_rank(g.node_count, sorted(pos[v] for v in s)) for s in sets]
        assert all(a < b for a, b in zip(ranks, ranks[1:]))


class TestPoolDecision:
    """A search scans its blocks in this process, and at workers > 1 hands
    every remaining block to the fork pool once it has run `_POOL_AFTER`
    seconds."""

    @pytest.fixture
    def contexts(self, monkeypatch):
        started = []
        real = multiprocessing.get_context

        def spy(method=None):
            started.append(method)
            return real(method)

        monkeypatch.setattr(multiprocessing, "get_context", spy)
        return started

    @staticmethod
    def clock(mp, blocks):
        """Give the search a clock that advances one second a reading, so
        that at workers > 1 a search scans its first blocks blocks in this
        process and the rest on the pool."""
        ticks = itertools.count()
        mp.setattr(powerdom.search, "time", types.SimpleNamespace(perf_counter=ticks.__next__))
        mp.setattr(powerdom.search, "_POOL_AFTER", blocks + 0.5)

    def scan(self, g, levels, workers, first_only=False):
        idx = tuple(range(g.node_count))
        found = _scan_levels(g.adjacency, (), idx, levels, first_only, workers)
        return [] if found is None else found[1]

    def test_short_searches_stay_in_process(self, zim, fig3, contexts):
        for g in (zim, fig3):
            for mode in ("optimized", "naive"):
                pooled = solve(g, SolverConfig(workers=2, mode=mode))
                serial = solve(g, SolverConfig(workers=1, mode=mode))
                assert (pooled.pds, pooled.diagnostics) == (serial.pds, serial.diagnostics)
            assert allminpds(g, SolverConfig(workers=2)) == allminpds(g, SolverConfig(workers=1))
        assert contexts == []

    @pytest.mark.parametrize("chunk", [55, 4096])
    def test_level_within_one_chunk_stays_in_process(self, zim, contexts, monkeypatch, chunk):
        # level 2 of zim's 11 nodes has C(11, 2) = 55 ranks, one block at
        # either chunk; the clock hands off only after that block, so the
        # level ends before a pool could start
        monkeypatch.setattr(powerdom.search, "_CHUNK", chunk)
        self.clock(monkeypatch, 1)
        assert self.scan(zim, (2,), workers=2) == self.scan(zim, (2,), workers=1)
        assert contexts == []

    @pytest.mark.parametrize("first_only", [False, True])
    def test_pool_starts_on_the_first_block_at_zero(
        self, zim, contexts, monkeypatch, first_only
    ):
        monkeypatch.setattr(powerdom.search, "_POOL_AFTER", 0)
        made = self.recorded_initargs(monkeypatch)
        # level 1 has no hit; it is one block, and the pool scans it
        hits = self.scan(zim, (1, 2), workers=2, first_only=first_only)
        assert contexts == ["fork"]
        ((_, (full, _)),) = made
        assert full == 0
        expected = self.scan(zim, (1, 2), workers=1)
        assert len(expected) == 13
        assert hits == (expected[:1] if first_only else expected)

    # the spies only record, so they may span the examples
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(structured_graphs, st.integers(0, 6))
    def test_handoff_mid_level_keeps_the_hits(self, contexts, g, blocks):
        """A pool that starts after any number of in-process blocks, in the
        middle of a level or between two, returns the hits of the scan at
        one worker, and solve counts the same subsets."""
        m = g.node_count
        calls = []

        def spy(*args):
            calls.append(args[4:8])
            return _scan_range(*args)

        for first_only in (False, True):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(powerdom.search, "_CHUNK", 4)
                mp.setattr(powerdom.search, "_scan_range", spy)
                calls.clear()
                serial = self.scan(g, range(1, m + 1), workers=1, first_only=first_only)
                scanned = calls[:]
                self.clock(mp, blocks)
                calls.clear()
                del contexts[:]
                pooled = self.scan(g, range(1, m + 1), workers=2, first_only=first_only)
            assert pooled == serial
            # the spy runs in the pool's workers too, but records only there
            assert calls == scanned[:blocks]
            assert contexts == (["fork"] if blocks < len(scanned) else [])
        for mode in ("optimized", "naive"):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(powerdom.search, "_CHUNK", 4)
                self.clock(mp, blocks)
                pooled = solve(g, SolverConfig(workers=2, mode=mode))
            serial = solve(g, SolverConfig(workers=1, mode=mode))
            assert (pooled.pds, pooled.diagnostics) == (serial.pds, serial.diagnostics)

    # the contexts spy only records, so it may span the examples
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(structured_graphs, st.integers(1, 3))
    def test_in_process_level_runs_blocks(self, contexts, g, k):
        """At one worker a level is scanned block by block too: one
        _scan_range call per _blocks spec, up to the first block with a hit
        when first_only, and the hits of one whole-level call."""
        m = g.node_count
        assume(k <= m)
        adj, idx = g.adjacency, tuple(range(m))
        calls = []

        def spy(*args):
            calls.append(args[5:8])
            return _scan_range(*args)

        for first_only in (False, True):
            calls.clear()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(powerdom.search, "_CHUNK", 4)
                mp.setattr(powerdom.search, "_scan_range", spy)
                specs = list(_blocks(m, k))
                hits = self.scan(g, (k,), workers=1, first_only=first_only)
            whole = _scan_range(adj, (), idx, _Forts(adj, idx), k, (), 0, m - k + 1, first_only)
            assert hits == whole
            scanned = len(specs)
            if first_only and hits:
                c = hits[0]
                scanned = 1 + next(
                    i
                    for i, (head, lo, hi) in enumerate(specs)
                    if c[: len(head)] == head and lo <= c[len(head)] < hi
                )
            assert calls == specs[:scanned]
        assert contexts == []

    def test_pool_payload_survives_spawn(self, zim, monkeypatch):
        """The workers get their payload by pickling alone, so a pool
        started with spawn scans as the fork pool does."""
        started = []
        real = multiprocessing.get_context

        def spawn(method=None):
            started.append(method)
            return real("spawn")

        monkeypatch.setattr(multiprocessing, "get_context", spawn)
        monkeypatch.setattr(powerdom.search, "_CHUNK", 4)
        monkeypatch.setattr(powerdom.search, "_POOL_AFTER", 0)
        pooled = allminpds(zim, SolverConfig(workers=2))
        assert started
        assert len(pooled) == 13
        assert pooled == allminpds(zim, SolverConfig(workers=1))
        assert multiprocessing.active_children() == []

    @staticmethod
    def recorded_initargs(monkeypatch):
        """Patch the executor class that the pool is made from to record
        each pool's initargs, with the table's fort bits and candidate
        masks at that time."""
        import concurrent.futures.process as process

        made = []

        class Recording(process.ProcessPoolExecutor):
            def __init__(self, workers, context, initializer, initargs):
                forts = initargs[-1]
                made.append((initargs, (forts.full, tuple(forts.masks))))
                super().__init__(workers, context, initializer, initargs)

        monkeypatch.setattr(process, "ProcessPoolExecutor", Recording)
        return made

    def test_workers_start_from_the_search_table(self, ieee39, monkeypatch):
        """A naive solve of ieee39 at 64-rank blocks, with the pool starting
        after 4 blocks, scans level 1 (39 ranks, one block) and 3 blocks of
        level 2 in this process and pools the rest; the pool's workers start
        with the forts that those blocks found, and no others."""
        blocks = 4
        monkeypatch.setattr(powerdom.search, "_CHUNK", 64)
        g, seeds, cands = plan(ieee39, "naive")
        cand = tuple(g.index_of(v) for v in cands)
        specs = [(k, *b, True) for k in (1, 2) for b in _blocks(len(cand), k)]
        forts = _Forts(g.adjacency, cand)
        for spec in specs[:blocks]:
            assert _scan_range(g.adjacency, (), cand, forts, *spec) == []
        self.clock(monkeypatch, blocks)
        made = self.recorded_initargs(monkeypatch)
        res = solve(ieee39, SolverConfig(workers=2, mode="naive"))
        assert res.pdn == 5
        ((initargs, table),) = made
        assert len(initargs) == 4 and isinstance(initargs[-1], _Forts)
        assert forts.full != 0
        assert table == (forts.full, tuple(forts.masks))
        assert multiprocessing.active_children() == []

    def test_pool_table_survives_spawn(self, ieee39, monkeypatch):
        """A non-empty fort table reaches spawned workers by pickling, and
        the pooled solve equals the one at one worker."""
        real = multiprocessing.get_context
        monkeypatch.setattr(
            multiprocessing, "get_context", lambda method=None: real("spawn")
        )
        monkeypatch.setattr(powerdom.search, "_CHUNK", 64)
        # level 1 in this process, the later levels on the pool
        self.clock(monkeypatch, 1)
        made = self.recorded_initargs(monkeypatch)
        pooled = solve(ieee39, SolverConfig(workers=2, mode="naive"))
        ((initargs, (full, _)),) = made
        assert isinstance(initargs[-1], _Forts) and full != 0
        serial = solve(ieee39, SolverConfig(workers=1, mode="naive"))
        assert (pooled.pdn, pooled.pds) == (serial.pdn, serial.pds)
        assert pooled.diagnostics == serial.diagnostics
        assert pooled.diagnostics.subsets_checked == 95047
        assert multiprocessing.active_children() == []

    def test_pool_never_exceeds_the_cpus(self, ieee39, monkeypatch):
        """A pooled solve asked for a million workers starts a pool of at
        most the CPUs this process may use, submits about two blocks per
        pooled worker ahead, and equals the solve at one worker. The
        executor refuses a larger count before it makes any process."""
        import concurrent.futures.process as process

        cpus = len(os.sched_getaffinity(0))
        sizes, windows = [], []

        class Capped(process.ProcessPoolExecutor):
            def __init__(self, workers, context, initializer, initargs):
                if workers > cpus:
                    raise AssertionError(f"a pool of {workers} workers on {cpus} CPUs")
                sizes.append(workers)
                super().__init__(workers, context, initializer, initargs)

        real = powerdom.search._pooled

        def pooled(pool, workers, specs):
            windows.append(workers)
            return real(pool, workers, specs)

        monkeypatch.setattr(process, "ProcessPoolExecutor", Capped)
        monkeypatch.setattr(powerdom.search, "_pooled", pooled)
        monkeypatch.setattr(powerdom.search, "_CHUNK", 64)
        monkeypatch.setattr(powerdom.search, "_POOL_AFTER", 0)
        pooled_res = solve(ieee39, SolverConfig(workers=10**6, mode="naive"))
        serial = solve(ieee39, SolverConfig(workers=1, mode="naive"))
        assert sizes and windows and max(sizes + windows) <= cpus
        assert (pooled_res.pdn, pooled_res.pds) == (serial.pdn, serial.pds)
        assert pooled_res.diagnostics == serial.diagnostics
        assert multiprocessing.active_children() == []

    def test_first_hit_pooled_solve_leaves_no_worker(self, ieee39, monkeypatch):
        # 64-rank blocks, all pooled: level 5's hit comes with blocks still
        # in flight
        monkeypatch.setattr(powerdom.search, "_CHUNK", 64)
        monkeypatch.setattr(powerdom.search, "_POOL_AFTER", 0)
        assert solve(ieee39, SolverConfig(workers=2, mode="naive")).pdn == 5
        assert multiprocessing.active_children() == []

    def test_worker_error_reaches_the_caller(self, ieee39, monkeypatch):
        parent = os.getpid()

        def failing(*args):
            if os.getpid() != parent:
                raise RuntimeError("worker failed")
            return _force_closure(*args)

        monkeypatch.setattr(powerdom.search, "_force_closure", failing)
        monkeypatch.setattr(powerdom.search, "_CHUNK", 4)
        monkeypatch.setattr(powerdom.search, "_POOL_AFTER", 0)
        with pytest.raises(RuntimeError, match="worker failed"):
            solve(ieee39, SolverConfig(workers=2, mode="naive"))
        assert multiprocessing.active_children() == []


class TestPoolExit:
    """Every way a pooled scan ends leaves no worker behind, and none of
    them hangs. Each case runs in a child process, so that a hang fails
    the test instead of the suite."""

    def test_dead_worker_raises_internal_error(self):
        code, out, err = children.run(
            children.DYING_WORKER
            + """
import multiprocessing, time
from concurrent.futures.process import BrokenProcessPool
from powerdom import InternalError, SolverConfig, allminpds, builtin_graph
start = time.perf_counter()
try:
    allminpds(builtin_graph("zim"), SolverConfig(workers=2))
except InternalError as exc:
    assert isinstance(exc.__cause__, BrokenProcessPool), repr(exc.__cause__)
    print(time.perf_counter() - start, len(multiprocessing.active_children()))
"""
        )
        assert code == 0, err
        seconds, left = out.split()
        assert float(seconds) < 10
        assert left == "0"

    @staticmethod
    def check_ctrl_c(hook: str, begun: int):
        """SIGINT to the process group of a child running a pooled naive
        solve at _CHUNK = 64 and _POOL_AFTER = 0, sent once begun of its 2 workers have entered
        powerdom.search.<hook>: the child ends by KeyboardInterrupt within
        20 s, with no worker and nothing of its group left. The solve tests
        765,175 subsets, so it cannot end before the signal: the fort
        filter makes a naive solve(ieee39), at 95,047, too short for that."""
        child = children.start(
            f"""
import multiprocessing, os
import powerdom.search
from powerdom import SolverConfig, erdos_renyi_connected, solve
real = powerdom.search.{hook}
announced = []
def announce(*args):
    if not announced:
        announced.append(args)
        os.write(1, b"begun\\n")
    return real(*args)
powerdom.search.{hook} = announce
powerdom.search._CHUNK = 64
powerdom.search._POOL_AFTER = 0
try:
    solve(erdos_renyi_connected(80, 0.05, 2), SolverConfig(workers=2, mode="naive"))
finally:
    print("workers left:", len(multiprocessing.active_children()))
"""
        )
        assert children.read_lines(child, begun, timeout=20) == ["begun\n"] * begun
        os.killpg(child.pid, signal.SIGINT)
        out, err = children.finish(child, timeout=20)
        assert child.returncode == -signal.SIGINT, err
        assert err.rstrip().endswith("KeyboardInterrupt")
        # the other worker announces too, since no worker dies of the signal
        assert out == "begun\n" * (2 - begun) + "workers left: 0\n"
        # and nothing else of the child's process group is left running
        with pytest.raises(ProcessLookupError):
            os.killpg(child.pid, 0)

    def test_ctrl_c_stops_a_pooled_solve(self):
        # each worker has begun its first block, so the pool is running
        self.check_ctrl_c("_scan_task", 2)

    def test_early_ctrl_c_stops_a_pooled_solve(self):
        """A Ctrl-C while the pool is still starting: the first worker has
        just begun its initializer, and the executor may not yet know the
        other worker or have started its threads."""
        self.check_ctrl_c("_worker_init", 1)

    def test_import_does_not_load_the_executor(self):
        """concurrent.futures and multiprocessing are imported on a pool's
        first start only, so a solve that never pools does not pay for them."""
        code, out, err = children.run(
            "import sys, powerdom\n"
            "print([m in sys.modules for m in ('concurrent.futures', 'multiprocessing')])"
        )
        assert (code, out) == (0, "[False, False]\n"), err


class TestScanRange:
    """A block returns its hits as combinations of candidate positions, in
    the order itertools.combinations gives them, and _blocks covers a level
    in rank order with blocks of at most _CHUNK ranks."""

    @pytest.mark.parametrize("seed", range(20))
    def test_blocks_match_plain_enumeration(self, seed, monkeypatch):
        rng = random.Random(seed)
        g = random_graph(seed, rng.randint(7, 12), 0.3)
        adj = g.adjacency
        order = list(range(g.node_count))
        rng.shuffle(order)
        split = rng.randint(0, 2)
        seeds, cand = tuple(order[:split]), tuple(order[split:])
        m = len(cand)

        def scan(k, blocks, first_only=False):
            return [
                c
                for block in blocks
                for c in _scan_range(adj, seeds, cand, _Forts(adj, cand), k, *block, first_only)
            ]

        for k in (1, 2, 3):
            expected = [
                c
                for c in itertools.combinations(range(m), k)
                if observes_all(adj, seeds + tuple(cand[p] for p in c))
            ]
            whole = [((), 0, m - k + 1)]
            firsts = [((), i, i + 1) for i in range(m - k + 1)]
            assert scan(k, whole) == scan(k, firsts) == expected
            assert scan(k, whole, first_only=True) == expected[:1]
            for chunk in (1, 4):
                monkeypatch.setattr(powerdom.search, "_CHUNK", chunk)
                blocks = list(_blocks(m, k))
                sizes = [
                    math.comb(m - lo, k - len(h)) - math.comb(m - hi, k - len(h))
                    for h, lo, hi in blocks
                ]
                assert max(sizes) <= chunk and sum(sizes) == math.comb(m, k)
                assert scan(k, blocks) == expected

    @settings(max_examples=80, deadline=None)
    @given(structured_graphs, st.randoms(use_true_random=False), st.integers(1, 2))
    def test_walk_matches_plain_enumeration_on_structured_graphs(self, g, rng, split):
        adj = g.adjacency
        order = list(range(g.node_count))
        rng.shuffle(order)
        split = min(split, g.node_count - 1)
        seeds, cand = tuple(order[:split]), tuple(order[split:])
        m = len(cand)
        for k in range(1, min(3, m) + 1):
            expected = [
                c
                for c in itertools.combinations(range(m), k)
                if observes_all(adj, seeds + tuple(cand[p] for p in c))
            ]
            for chunk in (1, 4, 4096):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(powerdom.search, "_CHUNK", chunk)
                    blocks = list(_blocks(m, k))
                # one fort table across the blocks, as in a pool worker
                forts = _Forts(adj, cand)
                full = [
                    _scan_range(adj, seeds, cand, forts, k, *b, False) for b in blocks
                ]
                firsts = [
                    _scan_range(adj, seeds, cand, _Forts(adj, cand), k, *b, True) for b in blocks
                ]
                assert [c for hits in full for c in hits] == expected
                assert firsts == [hits[:1] for hits in full]
                assert next((hits for hits in firsts if hits), []) == expected[:1]

    @settings(max_examples=60, deadline=None)
    @given(structured_graphs, st.randoms(use_true_random=False), st.integers(0, 2))
    def test_no_prefix_observes_every_node(self, g, rng, split):
        """The search scans level k only after every smaller level failed,
        and allminpds scans level pdn, so a prefix of a k-combination never
        observes every node: the walk's closures that do are exactly the
        hits. The closures that shrink a fort are not the walk's: most of
        them observe every node, so they are left out of the count."""
        adj = g.adjacency
        n = g.node_count
        order = list(range(n))
        rng.shuffle(order)
        seeds, cand = tuple(order[:split]), tuple(order[split:])
        assume(cand and not observes_all(adj, seeds))
        m = len(cand)
        for k in range(1, m + 1):
            expected = [
                c
                for c in itertools.combinations(range(m), k)
                if observes_all(adj, seeds + tuple(cand[p] for p in c))
            ]
            if expected:
                break
        closures = []
        shrinking = False

        def counting(*args):
            count = _force_closure(*args)
            if not shrinking:
                closures.append(count)
            return count

        def minimal_fort(*args):
            nonlocal shrinking
            shrinking = True
            try:
                return _minimal_fort(*args)
            finally:
                shrinking = False

        for chunk in (1, 4, 4096):
            closures.clear()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(powerdom.search, "_CHUNK", chunk)
                mp.setattr(powerdom.search, "_force_closure", counting)
                mp.setattr(powerdom.propagation, "_force_closure", counting)
                mp.setattr(powerdom.search, "_minimal_fort", minimal_fort)
                hits = [
                    c
                    for b in _blocks(m, k)
                    for c in _scan_range(adj, seeds, cand, _Forts(adj, cand), k, *b, False)
                ]
            assert hits == expected
            assert closures.count(n) == len(hits)


class TestFortFilter:
    """Every scan, first-hit or collect-all, rejects a leaf whose candidates
    miss the closed neighborhood of a fort its table holds. It finds forts
    by shrinking the remainder of a leaf that passes the filter and still
    fails, while the table's shrink charge (the nodes of the remainders
    shrunk) is at most its leaf closures. A search's levels share one
    table, so the forts of one level filter the next."""

    def check_harvest(self, g, seeds, cand, k, first_only=False, forts=None):
        """Scan level k over its blocks with the fort table forts (a fresh
        one when None), up to the first block with a hit when first_only.
        Check every fort found against the oracle, that no PDS among the
        leaves misses a found fort's closed neighborhood, that the hits are
        those of plain enumeration, and that the shrinking kept its budget:
        its probe closures are at most the charge it added, and the
        table's charge is at most its leaf closures plus the n of one
        shrink. Return the forts found."""
        adj, n = g.adjacency, g.node_count
        if forts is None:
            forts = _Forts(adj, cand)
        found = []
        charge, probes, shrinking = forts.charge, 0, False

        def counting(*args):
            nonlocal probes
            if shrinking:
                probes += 1
            return _force_closure(*args)

        def recording(*args):
            nonlocal shrinking
            shrinking = True
            try:
                fort = _minimal_fort(*args)
            finally:
                shrinking = False
            found.append(fort)
            return fort

        hits = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(powerdom.search, "_minimal_fort", recording)
            mp.setattr(powerdom.propagation, "_force_closure", counting)
            for b in _blocks(len(cand), k):
                hits += _scan_range(adj, seeds, cand, forts, k, *b, first_only)
                if first_only and hits:
                    break
        assert probes <= forts.charge - charge
        assert forts.charge <= forts.closures + n
        label = g.label_at
        nbhds = []
        for fort in found:
            fort = {label(v) for v in fort}
            assert oracle_is_minimal_fort(g, fort), sorted(fort)
            nbhds.append(fort.union(*(g.neighbors(v) for v in fort)))
        expected = []
        for c in itertools.combinations(range(len(cand)), k):
            chosen = {label(v) for v in seeds + tuple(cand[p] for p in c)}
            if oracle_is_pds(g, chosen):
                expected.append(c)
                assert all(not chosen.isdisjoint(nb) for nb in nbhds), sorted(chosen)
        assert hits == (expected[:1] if first_only else expected)
        return found

    @settings(max_examples=40, deadline=None)
    @given(structured_graphs, st.randoms(use_true_random=False), st.integers(0, 2))
    def test_structured_graphs(self, g, rng, split):
        order = list(range(g.node_count))
        rng.shuffle(order)
        split = min(split, g.node_count - 1)
        seeds, cand = tuple(order[:split]), tuple(order[split:])
        for first_only in (False, True):
            # one table across the levels, as in a search
            forts = _Forts(g.adjacency, cand)
            for k in range(1, min(3, len(cand)) + 1):
                self.check_harvest(g, seeds, cand, k, first_only, forts)

    def test_random_graphs(self, monkeypatch):
        for first_only in (False, True):
            found = 0
            for seed in range(12):
                g = random_graph(seed, 9 + seed % 5, 0.25)
                cand = tuple(range(g.node_count))
                for chunk in (4, 4096):
                    monkeypatch.setattr(powerdom.search, "_CHUNK", chunk)
                    forts = _Forts(g.adjacency, cand)
                    for k in (1, 2, 3):
                        found += len(self.check_harvest(g, (), cand, k, first_only, forts))
            assert found > 0

    @settings(max_examples=60, deadline=None)
    @given(
        structured_graphs,
        st.randoms(use_true_random=False),
        st.integers(0, 2),
        st.sampled_from([4, 4096]),
    )
    def test_first_hit_levels_match_plain_enumeration(self, g, rng, split, chunk):
        """A search's first-hit scans of levels 1, 2, ... share one fort
        table, and the first level with a hit returns the first PDS of
        plain enumeration."""
        order = list(range(g.node_count))
        rng.shuffle(order)
        split = min(split, g.node_count - 1)
        seeds, cand = tuple(order[:split]), tuple(order[split:])
        self.check_shared_table_levels(g, seeds, cand, chunk, workers=1)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_first_hit_levels_on_random_graphs(self, workers):
        """As above at 4-rank blocks, also on the pool, where each worker
        starts from the search's table and keeps its copy across the
        levels."""
        for seed in range(12):
            g = erdos_renyi_connected(10 + 2 * seed, 3 / (10 + 2 * seed), seed)
            cand = tuple(range(g.node_count))
            self.check_shared_table_levels(g, (), cand, chunk=4, workers=workers)

    @staticmethod
    def recorded_tables(mp):
        """Patch search._Forts to record every table a search makes; return
        the list they are appended to."""
        tables = []

        class Recording(_Forts):
            def __init__(self, *args):
                super().__init__(*args)
                tables.append(self)

        mp.setattr(powerdom.search, "_Forts", Recording)
        return tables

    @classmethod
    def check_shared_table_levels(cls, g, seeds, cand, chunk, workers):
        """Scan levels 1, 2, ... first-hit in one _scan_levels call: it must
        return the first level where plain enumeration finds a PDS and that
        level's first PDS, with the search's one table within the budget."""
        adj, m = g.adjacency, len(cand)
        first = next(
            (
                (k, [c])
                for k in range(1, m + 1)
                for c in itertools.combinations(range(m), k)
                if observes_all(adj, seeds + tuple(cand[p] for p in c))
            ),
            None,
        )
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(powerdom.search, "_CHUNK", chunk)
            mp.setattr(powerdom.search, "_POOL_AFTER", 0)
            tables = cls.recorded_tables(mp)
            assert _scan_levels(adj, seeds, cand, range(1, m + 1), True, workers) == first
        (forts,) = tables
        assert forts.charge <= forts.closures + g.node_count

    @pytest.mark.parametrize("mode", ["optimized", "naive"])
    def test_first_hit_scan_of_ieee39_harvests(self, ieee39, mode):
        """The first-hit levels of ieee39's search harvest forts, within
        the budget."""
        g, seeds, cands = plan(ieee39, mode)
        seed_idx = tuple(g.index_of(v) for v in seeds)
        cand_idx = tuple(g.index_of(v) for v in cands)
        levels = range(1, len(cands) + 1)
        with pytest.MonkeyPatch.context() as mp:
            tables = self.recorded_tables(mp)
            k, _ = _scan_levels(g.adjacency, seed_idx, cand_idx, levels, True, 1)
        (forts,) = tables
        assert len(seeds) + k == 5
        assert forts.full > 0
        assert forts.charge <= forts.closures + g.node_count

    def test_shrink_probes_the_most_observed_nodes_first(self):
        """A PMU at d observes d and c and leaves the fort {a, b, e, f}.
        Probed in index order it shrinks to the minimal fort {b, e, f};
        probed with the nodes that have the most observed neighbors first
        (b and e, both next to c) it shrinks to {a, f}, whose closed
        neighborhood is smaller, so more sets miss it."""
        # the triangle a b f, joined by b to c, which has the leaves d and e
        edges = [("a", "b"), ("a", "f"), ("b", "f"), ("b", "c"), ("c", "d"), ("c", "e")]
        g = Graph("abcdef", edges)
        observed, unobs, count = _observe(g.adjacency, (g.index_of("d"),))
        assert {g.label_at(v) for v in range(6) if not observed[v]} == set("abef")

        def shrink(order):
            # the probe loop on the oracle's own propagation
            fort = set("abef")
            for x in order:
                if x in fort:
                    closed = oracle_zero_force(g, set(g.nodes) - fort | {x})
                    if len(closed) < g.node_count:
                        fort -= closed
            return fort

        by_index, by_rule = shrink("abef"), shrink("beaf")
        assert (by_index, by_rule) == ({"b", "e", "f"}, {"a", "f"})
        fort = _minimal_fort(g.adjacency, observed, unobs, count)
        assert {g.label_at(v) for v in fort} == by_rule
        assert oracle_is_minimal_fort(g, by_index) and oracle_is_minimal_fort(g, by_rule)

        def closed_nbhd(f):
            return f.union(*(g.neighbors(v) for v in f))

        assert len(closed_nbhd(by_rule)) < len(closed_nbhd(by_index))

    def test_shrinking_keeps_a_solve_cheap(self):
        """The leaves that solve(er(80, 0.05, 21)) closes at 1 worker: 886
        when each shrink probes the most observed nodes first, against
        2,787 with probes in index order."""
        with pytest.MonkeyPatch.context() as mp:
            tables = self.recorded_tables(mp)
            result = solve(erdos_renyi_connected(80, 0.05, 21), SolverConfig(workers=1))
        (forts,) = tables
        assert result.pdn == 4
        assert forts.closures <= 1200

    def test_filter_rejects_most_leaves(self):
        """Without the filter, allminpds would close all C(35, 4) = 52,360
        leaves of this graph's level 4."""
        g = erdos_renyi_connected(35, 0.09, 6)
        adj = g.adjacency
        cand = tuple(range(g.node_count))
        closures = 0

        def counting(*args):
            nonlocal closures
            closures += 1
            return _force_closure(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(powerdom.search, "_force_closure", counting)
            hits = _scan_range(adj, (), cand, _Forts(adj, cand), 4, (), 0, 35 - 4 + 1, False)
        assert len(hits) == len(allminpds(g))
        assert closures < math.comb(35, 4) // 10

    @settings(max_examples=25, deadline=None)
    @given(structured_graphs)
    def test_pooled_allminpds_matches_in_process(self, g):
        # each worker extends its own copy of the table, so only the closures differ
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(powerdom.search, "_CHUNK", 4)
            mp.setattr(powerdom.search, "_POOL_AFTER", 0)
            pooled = allminpds(g, SolverConfig(workers=2))
        assert pooled == allminpds(g, SolverConfig(workers=1))


def plan(sub: Graph, mode: str = "optimized"):
    """The graph, seeds and candidates that solve searches on the connected
    graph sub, which has a degree->=3 node when mode is "optimized"."""
    if mode == "naive":
        return sub, [], sorted(sub.nodes, key=byte_key)
    cg = contract(sub).contracted
    pref = preferred_nodes(cg).pref
    return cg, sorted(pref, key=byte_key), [c.node for c in candidate_list(cg, pref)]


def check_first_hit(g: Graph, mode: str = "optimized") -> int:
    """Check that solve(g) at one worker returns the first PDS in rank
    order of each component's plain enumeration (the seeds alone, then the
    seeds plus each k-combination of the candidates in
    itertools.combinations order, for k = 1, 2, ...) and counts the
    subsets that enumeration tests; return that count."""
    pds, checked = [], 0
    for comp in connected_components(g):
        sub = g.induced(comp)
        if mode == "optimized" and all(len(a) <= 2 for a in sub.adjacency):
            pds.append(min(sub.nodes, key=byte_key))
            continue
        cg, seeds, cands = plan(sub, mode)
        adj = cg.adjacency
        seed_idx = tuple(cg.index_of(v) for v in seeds)
        cand_idx = [cg.index_of(v) for v in cands]
        m = len(cands)
        tested = itertools.chain(
            [()] if seeds else [],
            (c for k in range(1, m + 1) for c in itertools.combinations(range(m), k)),
        )
        for count, c in enumerate(tested, 1):
            if observes_all(adj, seed_idx + tuple(cand_idx[p] for p in c)):
                break
        checked += count
        pds += seeds + [cands[p] for p in c]
    res = solve(g, SolverConfig(workers=1, mode=mode))
    assert res.pds == tuple(pds), write_edge_list(g)
    assert res.diagnostics.subsets_checked == checked, write_edge_list(g)
    return checked


def check_plan(g: Graph) -> int:
    """On each component of g with a degree->=3 node, check that the
    preferred nodes plus all the candidates of the contracted component are
    a PDS, that there are no candidates iff the preferred nodes alone are
    one, and that every preferred node has degree >= 3 there (the solver's
    count of r relies on it); return the number of components checked."""
    checked = 0
    for comp in connected_components(g):
        sub = g.induced(comp)
        if all(len(a) <= 2 for a in sub.adjacency):
            continue
        cg, seeds, cands = plan(sub)
        assert oracle_is_pds(cg, seeds + cands), write_edge_list(cg)
        assert (cands == []) == oracle_is_pds(cg, seeds), write_edge_list(cg)
        assert all(cg.degree(v) >= 3 for v in seeds), write_edge_list(cg)
        checked += 1
    return checked


class TestPlanInvariant:
    """The seeds plus all the candidates of a plan observe every node, so
    the search always ends within its candidates."""

    @settings(max_examples=200, deadline=None)
    @given(structured_graphs)
    def test_preferred_plus_candidates_is_pds(self, g):
        check_plan(g)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_broken_reduction_raises(self, ieee39, monkeypatch, workers):
        monkeypatch.setattr(powerdom.search, "candidate_list", lambda g, pref: [])
        with pytest.raises(InternalError, match="exhausted all subsets"):
            solve(ieee39, SolverConfig(workers=workers))
        assert multiprocessing.active_children() == []


class TestFirstPds:
    """solve returns the first PDS in rank order of its plan's plain
    enumeration and counts the subsets that enumeration tests: the fort
    filter of the first-hit levels only rejects sets that are no PDS."""

    @settings(max_examples=100, deadline=None)
    @given(structured_graphs, st.sampled_from(["optimized", "naive"]))
    def test_solve_returns_the_first_pds_of_its_plan(self, g, mode):
        check_first_hit(g, mode)

    @settings(max_examples=100, deadline=None)
    @given(relabeled(), st.sampled_from(["optimized", "naive"]))
    def test_plan_follows_byte_order_on_non_ascii_labels(self, g, mode):
        """The plan orders the naive candidates, the preferred seeds, score
        ties and the one-node answer for a path or cycle by byte_key."""
        check_first_hit(g, mode)

    def test_first_pds_on_random_graphs(self):
        for seed in range(100):
            rng = random.Random(seed)
            n = rng.randint(8, 40)
            check_first_hit(erdos_renyi_connected(n, min(rng.uniform(2.5, 6) / n, 1.0), seed))
