import itertools
import math
import multiprocessing
import os
import random
import signal

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import powerdom.propagation
import powerdom.search
from powerdom import (
    Graph,
    ParameterError,
    SolverConfig,
    allminpds,
    combination_rank,
    combination_unrank,
    default_workers,
    erdos_renyi_connected,
    is_power_dominating_set,
    solve,
    subset_counts,
)

from powerdom.propagation import _force_closure, _minimal_fort, observes_all
from powerdom.search import _Forts, _blocks, _scan_range

import children
from families import structured_graphs
from oracles import oracle_is_minimal_fort, oracle_is_pds, oracle_pdn, random_graph

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
        a = allminpds(zim, SolverConfig(workers=1))
        b = allminpds(zim, SolverConfig(workers=8))
        assert a == b


class TestPoolDecision:
    """A level is scanned through the fork pool only when workers > 1 and
    it has more than `_CHUNK` ranks."""

    @pytest.fixture
    def contexts(self, monkeypatch):
        started = []
        real = multiprocessing.get_context

        def spy(method=None):
            started.append(method)
            return real(method)

        monkeypatch.setattr(powerdom.search.multiprocessing, "get_context", spy)
        return started

    def scan(self, g, k, workers, first_only=False):
        idx = tuple(range(g.node_count))
        with powerdom.search._LevelScanner(g.adjacency, (), idx, workers) as scanner:
            return scanner.scan(k, first_only)

    @pytest.mark.parametrize("chunk", [55, 4096])
    def test_level_within_one_chunk_stays_in_process(self, zim, contexts, monkeypatch, chunk):
        # level 2 of zim's 11 nodes has C(11, 2) = 55 ranks
        monkeypatch.setattr(powerdom.search, "_CHUNK", chunk)
        assert self.scan(zim, 2, workers=2) == self.scan(zim, 2, workers=1)
        assert contexts == []

    @pytest.mark.parametrize("first_only", [False, True])
    def test_level_over_several_chunks_starts_the_pool(
        self, zim, contexts, monkeypatch, first_only
    ):
        monkeypatch.setattr(powerdom.search, "_CHUNK", 4)
        hits = self.scan(zim, 2, workers=2, first_only=first_only)
        assert contexts == ["fork"]
        expected = self.scan(zim, 2, workers=1)
        assert len(expected) == 13
        assert hits == (expected[:1] if first_only else expected)

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
            calls.append(args[4:7])
            return _scan_range(*args)

        for first_only in (False, True):
            calls.clear()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(powerdom.search, "_CHUNK", 4)
                mp.setattr(powerdom.search, "_scan_range", spy)
                specs = list(_blocks(m, k))
                hits = self.scan(g, k, workers=1, first_only=first_only)
            assert hits == _scan_range(adj, (), idx, k, (), 0, m - k + 1, first_only)
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

        monkeypatch.setattr(powerdom.search.multiprocessing, "get_context", spawn)
        monkeypatch.setattr(powerdom.search, "_CHUNK", 4)
        pooled = allminpds(zim, SolverConfig(workers=2))
        assert started
        assert len(pooled) == 13
        assert pooled == allminpds(zim, SolverConfig(workers=1))
        assert multiprocessing.active_children() == []

    def test_first_hit_pooled_solve_leaves_no_worker(self, ieee39, monkeypatch):
        monkeypatch.setattr(powerdom.search, "_CHUNK", 4)
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

    def test_ctrl_c_stops_a_pooled_solve(self):
        child = children.start(
            """
import multiprocessing, os
import powerdom.search
from powerdom import SolverConfig, builtin_graph, solve
real_task = powerdom.search._scan_task
announced = []
def announce(spec):
    if not announced:
        announced.append(spec)
        os.write(1, b"started\\n")
    return real_task(spec)
powerdom.search._scan_task = announce
powerdom.search._CHUNK = 64
try:
    solve(builtin_graph("ieee39"), SolverConfig(workers=2, mode="naive"))
finally:
    print("workers left:", len(multiprocessing.active_children()))
"""
        )
        # each worker has begun its first block, so the pool is running
        assert children.read_lines(child, 2, timeout=20) == ["started\n"] * 2
        os.killpg(child.pid, signal.SIGINT)
        out, err = children.finish(child, timeout=20)
        assert child.returncode == -signal.SIGINT, err
        assert err.rstrip().endswith("KeyboardInterrupt")
        assert out == "workers left: 0\n"
        # and nothing else of the child's process group is left running
        with pytest.raises(ProcessLookupError):
            os.killpg(child.pid, 0)

    def test_import_does_not_load_the_executor(self):
        """concurrent.futures is imported on a pool's first start only, so
        a solve that never pools does not pay for it."""
        code, out, err = children.run(
            "import sys, powerdom; print('concurrent.futures' in sys.modules)"
        )
        assert (code, out) == (0, "False\n"), err


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
                for head, lo, hi in blocks
                for c in _scan_range(adj, seeds, cand, k, head, lo, hi, first_only)
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
                    _scan_range(adj, seeds, cand, k, *b, False, forts) for b in blocks
                ]
                firsts = [_scan_range(adj, seeds, cand, k, *b, True) for b in blocks]
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
                    for c in _scan_range(adj, seeds, cand, k, *b, False)
                ]
            assert hits == expected
            assert closures.count(n) == len(hits)


class TestFortFilter:
    """A collect-all scan rejects a leaf whose candidates miss the closed
    neighborhood of a fort it has found, and finds forts by shrinking the
    remainder of each leaf that passes the filter and still fails."""

    def check_harvest(self, g, seeds, cand, k):
        """Scan level k over its blocks with one fort table; check every
        fort found against the oracle, and that no leaf missing a found
        fort's closed neighborhood is a PDS. Return the forts found."""
        adj = g.adjacency
        found = []

        def recording(*args):
            fort = _minimal_fort(*args)
            found.append(fort)
            return fort

        forts = _Forts(adj, cand)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(powerdom.search, "_minimal_fort", recording)
            hits = [
                c
                for b in _blocks(len(cand), k)
                for c in _scan_range(adj, seeds, cand, k, *b, False, forts)
            ]
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
        assert hits == expected
        return found

    @settings(max_examples=40, deadline=None)
    @given(structured_graphs, st.randoms(use_true_random=False), st.integers(0, 2))
    def test_structured_graphs(self, g, rng, split):
        order = list(range(g.node_count))
        rng.shuffle(order)
        split = min(split, g.node_count - 1)
        seeds, cand = tuple(order[:split]), tuple(order[split:])
        for k in range(1, min(3, len(cand)) + 1):
            self.check_harvest(g, seeds, cand, k)

    def test_random_graphs(self, monkeypatch):
        found = 0
        for seed in range(12):
            g = random_graph(seed, 9 + seed % 5, 0.25)
            cand = tuple(range(g.node_count))
            for k in (1, 2, 3):
                for chunk in (4, 4096):
                    monkeypatch.setattr(powerdom.search, "_CHUNK", chunk)
                    found += len(self.check_harvest(g, (), cand, k))
        assert found > 0

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
            hits = _scan_range(adj, (), cand, 4, (), 0, 35 - 4 + 1, False)
        assert len(hits) == len(allminpds(g))
        assert closures < math.comb(35, 4) // 10

    @settings(max_examples=25, deadline=None)
    @given(structured_graphs)
    def test_pooled_allminpds_matches_in_process(self, g):
        # each worker finds its own forts, so only the closures differ
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(powerdom.search, "_CHUNK", 4)
            pooled = allminpds(g, SolverConfig(workers=2))
        assert pooled == allminpds(g, SolverConfig(workers=1))


class TestFallback:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_empty_candidate_list_falls_back_to_naive(self, ieee39, monkeypatch, workers):
        import powerdom.search

        monkeypatch.setattr(powerdom.search, "candidate_list", lambda g, pref: [])
        res = solve(ieee39, SolverConfig(workers=workers))
        assert res.pdn == 5
        assert is_power_dominating_set(ieee39, res.pds)
        d = res.diagnostics
        # Pre-processing statistics come from the optimized attempt.
        assert d.removed_by_contraction == 2
        assert d.p == 3
        assert d.d == 19
        # The failed preferred-set check plus the whole naive search.
        assert d.subsets_checked == 1 + 95047
        assert d.levels_completed == 4
