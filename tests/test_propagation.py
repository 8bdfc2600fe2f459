import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerdom import (
    Graph,
    NotFoundError,
    ObservationState,
    dominate,
    forcing_chains,
    is_power_dominating_set,
    power_dominate,
    zero_force,
)

from powerdom.propagation import _force_closure, _observe

from families import structured_graphs
from oracles import oracle_is_pds, oracle_power_dominate, random_graph


class TestDominate:
    def test_zim_single_pmu(self, zim):
        state = dominate(zim, {"9"})
        assert state.observed == {"5", "6", "7", "9", "10", "11"}
        assert state.force_log == ()

    def test_empty_input(self, zim):
        assert dominate(zim, set()).observed == frozenset()

    def test_all_nodes(self, zim):
        assert dominate(zim, set(zim.nodes)).observed == set(zim.nodes)

    def test_unknown_node(self, zim):
        with pytest.raises(NotFoundError):
            dominate(zim, {"nope"})


class TestZeroForce:
    def test_zim_reaches_published_fixed_point(self, zim):
        state = zero_force(zim, dominate(zim, {"9"}))
        assert state.observed == {"2", "5", "6", "7", "9", "10", "11"}

    def test_fully_observed_is_fixed(self, zim):
        full = ObservationState(frozenset(zim.nodes), ())
        assert zero_force(zim, full) == full

    def test_path_endpoint_forces_everything(self, path5):
        state = zero_force(path5, ObservationState(frozenset({"p0"}), ()))
        assert state.observed == set(path5.nodes)

    def test_idempotent(self, zim):
        once = zero_force(zim, dominate(zim, {"9"}))
        twice = zero_force(zim, once)
        assert twice == once

    def test_log_replay_is_legal(self):
        for seed in range(40):
            g = random_graph(seed, 9, 0.3)
            pmus = {v for v in g.nodes if random.Random(seed ^ 0xA5).random() < 0.2}
            state = power_dominate(g, pmus)
            observed = set(dominate(g, pmus).observed)
            for forcer, forced in state.force_log:
                assert forcer in observed
                unobserved = [u for u in g.neighbors(forcer) if u not in observed]
                assert unobserved == [forced]
                observed.add(forced)
            assert observed == state.observed

    def test_each_node_forced_at_most_once(self, zim):
        state = power_dominate(zim, {"9"})
        forced = [b for _, b in state.force_log]
        assert len(forced) == len(set(forced))


class TestPowerDominate:
    def test_zim_pair_observes_all(self, zim):
        assert power_dominate(zim, {"5", "9"}).observed == set(zim.nodes)

    def test_tadpole_v3_observes_all(self, tadpole):
        assert power_dominate(tadpole, {"v3"}).observed == set(tadpole.nodes)

    def test_empty_input_observes_nothing(self, zim):
        assert power_dominate(zim, set()).observed == frozenset()

    def test_matches_fixpoint_oracle(self):
        rng = random.Random(99)
        for seed in range(60):
            g = random_graph(seed, 10, 0.25)
            pmus = {v for v in g.nodes if rng.random() < 0.25}
            assert power_dominate(g, pmus).observed == oracle_power_dominate(g, pmus)
            assert is_power_dominating_set(g, pmus) == oracle_is_pds(g, pmus)

    def test_monotone_in_input_set(self):
        rng = random.Random(5)
        for seed in range(50):
            g = random_graph(seed, 12, 0.25)
            small = {v for v in g.nodes if rng.random() < 0.2}
            big = small | {v for v in g.nodes if rng.random() < 0.2}
            assert power_dominate(g, small).observed <= power_dominate(g, big).observed


def randomized_closure(g, start, rng):
    """Apply forces one at a time in random order until none apply."""
    observed = set(start)
    while True:
        moves = []
        for v in observed:
            unobserved = [u for u in g.neighbors(v) if u not in observed]
            if len(unobserved) == 1:
                moves.append(unobserved[0])
        if not moves:
            return observed
        observed.add(rng.choice(moves))


class TestClosureOrderIndependence:
    def test_random_application_orders_agree(self):
        for seed in range(30):
            g = random_graph(seed, 10, 0.3)
            rng = random.Random(seed)
            start = {v for v in g.nodes if rng.random() < 0.4}
            reference = zero_force(g, ObservationState(frozenset(start), ())).observed
            for trial in range(5):
                assert randomized_closure(g, start, random.Random(seed * 31 + trial)) == reference


class TestClosureExtension:
    """closure(A and B) = closure(closure(A) and B): extending the closed
    state of A by the nodes of B one at a time, as the level search does,
    gives the state of the process run on A and B together."""

    @pytest.mark.parametrize("seed", range(40))
    def test_extension_matches_closure_of_union(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 14)
        g = random_graph(seed, n, rng.choice([0.15, 0.3]))
        adj = g.adjacency
        nodes = list(range(n))
        rng.shuffle(nodes)
        a = rng.randint(0, n)
        b = rng.randint(0, n - a)
        first, then = nodes[:a], nodes[a : a + b]
        observed, unobs, count = _observe(adj, first)
        for v in then:
            count = _force_closure(adj, observed, unobs, (v, *adj[v]), count)
        union = _observe(adj, first + then)
        assert observed == union[0]
        assert count == union[2] == sum(observed)
        pmus = {g.label_at(v) for v in first + then}
        assert {g.label_at(v) for v in range(n) if observed[v]} == oracle_power_dominate(g, pmus)
        if count < n:  # a fully observed state keeps no counters
            for v in range(n):
                if observed[v]:
                    assert unobs[v] == sum(1 for u in adj[v] if not observed[u])


class TestIsPowerDominatingSet:
    def test_zim_singleton_fails(self, zim):
        assert not is_power_dominating_set(zim, {"9"})

    def test_zim_pair_succeeds(self, zim):
        assert is_power_dominating_set(zim, {"9", "5"})

    def test_fig3_singleton(self, fig3):
        assert is_power_dominating_set(fig3, {"1"})

    def test_empty_graph(self):
        assert is_power_dominating_set(Graph(), set())


class TestForcingChains:
    def test_tadpole_contains_published_chain(self, tadpole):
        chains = [c.nodes for c in forcing_chains(tadpole, {"v3"})]
        assert ("v3", "v4", "v5") in chains

    def test_all_pmus_gives_no_chains(self, zim):
        assert forcing_chains(zim, set(zim.nodes)) == []

    def test_p3_chain_rooted_at_pmu(self):
        g = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        chains = [c.nodes for c in forcing_chains(g, {"a"})]
        assert ("a", "b", "c") in chains

    def test_chains_partition_force_log(self):
        for seed in range(25):
            g = random_graph(seed, 9, 0.3)
            rng = random.Random(seed + 1000)
            pmus = {v for v in g.nodes if rng.random() < 0.25}
            log = power_dominate(g, pmus).force_log
            chains = forcing_chains(g, pmus)
            links = []
            for chain in chains:
                for a, b in zip(chain.nodes, chain.nodes[1:]):
                    if (a, b) in log:
                        links.append((a, b))
            assert sorted(links) == sorted(log)

    @settings(max_examples=200, deadline=None)
    @given(structured_graphs, st.data())
    def test_pmus_never_force(self, g, data):
        """The domination step observes a PMU's whole closed neighborhood,
        so no PMU is left with one unobserved neighbor; forcing_chains
        relies on this to start every chain at an attributed neighbor."""
        pmus = data.draw(st.sets(st.sampled_from(sorted(g.nodes))))
        forcers = {a for a, _ in power_dominate(g, pmus).force_log}
        assert not forcers & pmus

    def test_chain_ends_perform_no_force(self, tadpole):
        log = power_dominate(tadpole, {"v3"}).force_log
        forcers = {a for a, _ in log}
        for chain in forcing_chains(tadpole, {"v3"}):
            assert chain.nodes[-1] not in forcers

    def test_consecutive_chain_nodes_adjacent(self, tadpole):
        for chain in forcing_chains(tadpole, {"v3"}):
            for a, b in zip(chain.nodes, chain.nodes[1:]):
                assert tadpole.has_edge(a, b)
