import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from powerdom import (
    Graph,
    PreconditionError,
    articulation_points,
    builtin_graph,
    candidate_list,
    contract,
    is_power_dominating_set,
    power_dominate,
    preferred_nodes,
    qualitative_scores,
    redundant_nodes,
)

from families import byte_key, relabeled, renamed, structured_graphs
from oracles import (
    oracle_is_pds,
    oracle_min_pds_sets,
    oracle_pdn,
    oracle_preferred_nodes,
    oracle_redundant_nodes,
    random_graph,
)


def graphs_with_branch_node(count, n, p, start_seed=0):
    """Connected random graphs containing a degree->=3 node."""
    out = []
    seed = start_seed
    while len(out) < count:
        g = random_graph(seed, n, p)
        seed += 1
        from powerdom import connected_components

        if len(connected_components(g)) != 1:
            continue
        if not any(g.degree(v) >= 3 for v in g.nodes):
            continue
        out.append(g)
    return out


def tree_with_pendant_paths(rng):
    """Random tree, plus pendant paths of length 1-4, plus 0-3 chords."""
    labels = [str(i) for i in range(rng.randint(3, 12))]
    edges = [(labels[i], labels[rng.randrange(i)]) for i in range(1, len(labels))]
    for _ in range(rng.randint(1, 4)):
        prev = rng.choice(labels)
        for _ in range(rng.randint(1, 4)):
            labels.append(str(len(labels)))
            edges.append((prev, labels[-1]))
            prev = labels[-1]
    for _ in range(rng.randint(0, 3)):
        edges.append(tuple(rng.sample(labels, 2)))
    return Graph(labels, edges)


def spider(legs):
    """A center "c" with one path hanging off it per length in legs."""
    edges = []
    for i, length in enumerate(legs):
        prev = "c"
        for j in range(length):
            edges.append((prev, f"l{i}.{j}"))
            prev = f"l{i}.{j}"
    return Graph(["c"] + [v for _, v in edges], edges)


def joined_stars(left, right, run):
    """Hubs "a" and "b" with left and right leaves, joined by a path of run
    inner nodes. With one leaf at "b", the closure of "a" observes every node."""
    path = ["a"] + [f"p{j}" for j in range(run)] + ["b"]
    edges = list(zip(path, path[1:]))
    edges += [("a", f"a.{i}") for i in range(left)] + [("b", f"b.{i}") for i in range(right)]
    return Graph(path + [v for _, v in edges[run + 1:]], edges)


def star_of_paths(paths):
    """A center "c" joined to node j of a path of length n, for each (n, j)."""
    labels, edges = ["c"], []
    for i, (length, j) in enumerate(paths):
        path = [f"q{i}.{k}" for k in range(length)]
        labels += path
        edges += list(zip(path, path[1:])) + [("c", path[j])]
    return Graph(labels, edges)


def degree_distance_key(c):
    """(degree, distance) with None above every finite distance."""
    return (c.degree, float("inf") if c.pref_distance is None else c.pref_distance)


def bridged_cycles(rng):
    """Cycles of length 3-6, each joined to an earlier one by a bridge,
    with an occasional pendant node."""
    labels, edges = [], []
    for c in range(rng.randint(2, 5)):
        cycle = [f"c{c}.{i}" for i in range(rng.randint(3, 6))]
        edges += [(cycle[i - 1], cycle[i]) for i in range(len(cycle))]
        if labels:
            edges.append((rng.choice(labels), rng.choice(cycle)))
        labels += cycle
    for i in range(rng.randint(0, 2)):
        edges.append((rng.choice(labels), f"p{i}"))
        labels.append(f"p{i}")
    return Graph(labels, edges)


class TestContract:
    def test_mutated_zim_becomes_zim(self, mutated_zim, zim):
        report = contract(mutated_zim)
        assert report.contracted == zim
        assert report.removed == {"12", "13", "14", "15", "16", "17", "18", "19"}

    def test_zim_is_already_contracted(self, zim):
        report = contract(zim)
        assert report.contracted == zim
        assert report.removed == frozenset()

    def test_ieee39_removes_two_nodes(self, ieee39):
        report = contract(ieee39)
        assert report.removed == {"34", "39"}
        assert report.contracted.node_count == 37

    def test_rules_tag_each_removed_node(self, mutated_zim):
        report = contract(mutated_zim)
        assert set(report.rules) == set(report.removed)
        assert report.rules["12"] == "terminal"
        assert report.rules["16"] == "non_terminal"

    def test_path_component_rejected(self, path5):
        with pytest.raises(PreconditionError):
            contract(path5)

    def test_path_component_of_a_union_rejected(self):
        g = Graph(["p0", "h", "p1", "1", "2", "p2", "3"],
                  [("h", "1"), ("h", "2"), ("h", "3"), ("p0", "p1"), ("p1", "p2")])
        with pytest.raises(PreconditionError, match="every component"):
            contract(g)

    def test_two_hub_components_keep_the_input_label_order(self):
        # hub x: a terminal leg m-k-q, two leaves and a cycle x-c-b-d-x;
        # hub w: two leaves and a terminal leg f-n; labels interleaved
        g = Graph(
            ["x", "w", "m", "q", "k", "g", "e", "f", "c", "n", "z", "b", "a", "d"],
            [("x", "m"), ("m", "k"), ("k", "q"), ("x", "e"), ("x", "z"),
             ("x", "c"), ("c", "b"), ("b", "d"), ("d", "x"),
             ("w", "g"), ("w", "f"), ("f", "n"), ("w", "a")],
        )
        report = contract(g)
        assert report.rules == {
            "k": "terminal", "q": "terminal", "n": "terminal", "b": "non_terminal",
        }
        cg = report.contracted
        assert cg.nodes == ("x", "w", "m", "g", "e", "f", "c", "z", "a", "d")
        assert set(map(frozenset, cg.edges())) == {
            frozenset(e) for e in [("x", "m"), ("x", "e"), ("x", "z"), ("x", "c"),
                                   ("x", "d"), ("c", "d"), ("w", "g"), ("w", "f"),
                                   ("w", "a")]
        }
        assert cg.edge_count == 9

    def test_idempotent(self):
        for g in graphs_with_branch_node(30, 9, 0.25):
            once = contract(g).contracted
            again = contract(once)
            assert again.removed == frozenset()

    def test_degree2_runs_are_short_after_contraction(self):
        for g in graphs_with_branch_node(30, 10, 0.22, start_seed=100):
            cg = contract(g).contracted
            # interior runs of degree-2 nodes have at most 2 nodes
            deg2 = {v for v in cg.nodes if cg.degree(v) == 2}
            for v in deg2:
                run = {v}
                frontier = [v]
                while frontier:
                    x = frontier.pop()
                    for u in cg.neighbors(x):
                        if u in deg2 and u not in run:
                            run.add(u)
                            frontier.append(u)
                boundary = {
                    u for x in run for u in cg.neighbors(x) if u not in run
                }
                if all(cg.degree(u) >= 3 for u in boundary):
                    assert len(run) <= 2

    def test_preserves_pdn_on_random_graphs(self):
        for g in graphs_with_branch_node(200, 8, 0.28, start_seed=500):
            cg = contract(g).contracted
            assert oracle_pdn(g) == oracle_pdn(cg)

    def test_pds_of_contracted_lifts_to_original(self, mutated_zim, zim):
        for pds in oracle_min_pds_sets(zim):
            assert is_power_dominating_set(mutated_zim, pds)

    def test_pds_lifting_on_random_graphs(self):
        for g in graphs_with_branch_node(40, 8, 0.28, start_seed=900):
            cg = contract(g).contracted
            for pds in oracle_min_pds_sets(cg):
                assert is_power_dominating_set(g, pds)


class TestPreferredNodes:
    def test_zim(self, zim):
        rep = preferred_nodes(zim)
        assert rep.b_preferred == frozenset()
        assert rep.f_preferred == {"9"}
        assert rep.forts["9"] == {"10", "11"}
        assert rep.p_preferred is None
        assert rep.pref == {"9"}

    def test_fig3_p_preferred(self, fig3):
        rep = preferred_nodes(fig3)
        assert rep.p_preferred == "1"
        assert rep.pref == {"1"}

    def test_contracted_ieee39(self, ieee39):
        rep = preferred_nodes(contract(ieee39).contracted)
        assert rep.f_preferred == {"16", "19", "26"}
        assert rep.p_preferred is None

    def test_b_preferred_two_pendants(self):
        # hub with two pendant chains and a triangle
        g = Graph(
            ["h", "a", "b", "x", "y", "z"],
            [("h", "a"), ("h", "b"), ("h", "x"), ("h", "y"),
             ("x", "y"), ("x", "z"), ("y", "z")],
        )
        rep = preferred_nodes(g)
        assert "h" in rep.b_preferred

    def test_disconnected_rejected(self):
        g = Graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
        with pytest.raises(PreconditionError):
            preferred_nodes(g)

    def test_forts_satisfy_fort_condition(self):
        seen_forts = 0
        for g in graphs_with_branch_node(60, 9, 0.25, start_seed=1500):
            rep = preferred_nodes(g)
            for owner, fort in rep.forts.items():
                seen_forts += 1
                outside = set(g.nodes) - set(fort)
                for v in outside:
                    touching = sum(1 for u in g.neighbors(v) if u in fort)
                    if v == owner:
                        assert touching >= 2
                    else:
                        assert touching == 0
                observed = power_dominate(g, {owner}).observed
                assert fort <= observed
        assert seen_forts > 0

    def test_p_preferred_implies_singleton_pds(self, fig3):
        count = 0
        for g in [builtin_graph("fig3")] + graphs_with_branch_node(80, 8, 0.25, start_seed=2500):
            rep = preferred_nodes(g)
            if rep.p_preferred is not None:
                count += 1
                assert is_power_dominating_set(g, {rep.p_preferred})
        assert count >= 1

    def test_matches_definition_oracle(self):
        rng = random.Random(4242)
        graphs = (
            graphs_with_branch_node(60, 10, 0.22, start_seed=7000)
            + [tree_with_pendant_paths(rng) for _ in range(80)]
            + [bridged_cycles(rng) for _ in range(60)]
        )
        cut_nodes = 0
        for g in graphs:
            b_pref, f_pref, forts, p_pref, pref = oracle_preferred_nodes(g)
            rep = preferred_nodes(g)
            assert rep.b_preferred == b_pref
            assert rep.f_preferred == f_pref
            assert rep.forts == forts
            assert rep.p_preferred == p_pref
            assert rep.pref == pref
            assert redundant_nodes(g, rep.pref) == oracle_redundant_nodes(g, pref)
            extra = {v for v in g.nodes if rng.random() < 0.2}
            assert redundant_nodes(g, extra) == oracle_redundant_nodes(g, extra)
            cut_nodes += len(articulation_points(g))
        assert cut_nodes >= 3 * len(graphs)

    def test_matches_definition_oracle_after_a_closure_of_every_node(self):
        """preferred_nodes runs every cut node's closure on one state and
        undoes it on the nodes that closure observed. Here a closure that
        observes every node, through either full-count exit of the kernel,
        is followed by other cut nodes: in the input order, and in
        label-shuffled copies that move it among them."""
        base = [spider(legs) for k in (2, 3, 4)
                for legs in itertools.combinations_with_replacement((1, 2, 3), k)]
        base += [joined_stars(left, right, run)
                 for left in (1, 2, 3) for right in (1, 2, 3) for run in (1, 2, 3)]
        base += [star_of_paths(paths) for paths in itertools.combinations(
            [(1, 0), (2, 0), (3, 1), (4, 1), (4, 3)], 3)]
        rng = random.Random(26)
        graphs = base + [
            renamed(g, dict(zip(g.nodes, rng.sample(g.nodes, g.node_count))))
            for g in base for _ in range(3)
        ]
        followed = 0
        for g in graphs:
            b_pref, f_pref, forts, p_pref, pref = oracle_preferred_nodes(g)
            rep = preferred_nodes(g)
            assert (rep.b_preferred, rep.f_preferred, rep.p_preferred, rep.pref) == (
                b_pref, f_pref, p_pref, pref)
            assert list(rep.forts.items()) == list(forts.items())
            cut = sorted(articulation_points(g))
            followed += any(len(power_dominate(g, {v}).observed) == g.node_count
                            for v in cut[:-1])
        # a star's closure observes every node in its first batch, but its
        # center is its only cut node, so no star counts here
        assert followed >= len(graphs) // 2

    @settings(max_examples=200, deadline=None)
    @given(structured_graphs)
    def test_matches_definition_oracle_on_families(self, g):
        b_pref, f_pref, forts, p_pref, pref = oracle_preferred_nodes(g)
        rep = preferred_nodes(g)
        assert rep.b_preferred == b_pref
        assert rep.f_preferred == f_pref
        assert rep.forts == forts
        assert rep.p_preferred == p_pref
        assert rep.pref == pref
        # two terminal paths are two fully observed components of g - v
        # attached by one edge each, so the f-rule holds
        assert rep.b_preferred <= rep.f_preferred

    @settings(max_examples=100, deadline=None)
    @given(relabeled())
    def test_matches_definition_oracle_on_non_ascii_labels(self, g):
        """The oracle picks p-preferred, and orders the forts, in byte_key
        order."""
        rep = preferred_nodes(g)
        fields = (rep.b_preferred, rep.f_preferred, rep.forts, rep.p_preferred, rep.pref)
        oracle = oracle_preferred_nodes(g)
        assert fields == oracle
        assert list(rep.forts) == list(oracle[2])


class TestRedundantNodes:
    def test_zim_published_example(self, zim):
        red = redundant_nodes(zim, {"9"})
        assert "6" in red
        assert red == {"6", "9", "10", "11"}

    def test_empty_pref_gives_empty_set(self, zim):
        assert redundant_nodes(zim, set()) == frozenset()

    def test_contracted_ieee39_nonpref_members(self, ieee39):
        cg = contract(ieee39).contracted
        red = redundant_nodes(cg, {"16", "19", "26"})
        deg3_nonpref = {
            v for v in red if cg.degree(v) >= 3 and v not in {"16", "19", "26"}
        }
        assert deg3_nonpref == {"17", "22", "23", "29"}

    def test_adding_redundant_node_changes_nothing(self):
        rng = random.Random(77)
        for g in graphs_with_branch_node(40, 10, 0.25, start_seed=3000):
            pref = {v for v in g.nodes if rng.random() < 0.3}
            red = redundant_nodes(g, pref)
            if not red:
                continue
            extra = {v for v in g.nodes if rng.random() < 0.2}
            base = power_dominate(g, pref | extra).observed
            for r in red:
                assert power_dominate(g, pref | extra | {r}).observed == base


class TestQualitativeScores:
    def test_zim_published_values(self, zim):
        scores = qualitative_scores(zim, {"9"})
        assert scores["9"].score == Fraction(5)
        assert scores["4"].score == Fraction(5, 3)
        assert scores["2"].score == Fraction(11, 3)

    def test_zim_score_multiset(self, zim):
        values = sorted(c.score for c in qualitative_scores(zim, {"9"}).values())
        expected = sorted([
            Fraction(5), Fraction(9, 2), Fraction(9, 2), Fraction(9, 2),
            Fraction(11, 3), Fraction(8, 3), Fraction(8, 3),
            Fraction(5, 2), Fraction(5, 2), Fraction(5, 3), Fraction(5, 3),
        ])
        assert values == expected

    def test_pref_member_has_zero_fraction(self, zim):
        c = qualitative_scores(zim, {"9"})["9"]
        assert c.pref_distance == 0
        assert c.score == c.degree

    def test_empty_pref_reduces_to_degree_order(self, zim):
        scores = qualitative_scores(zim, set())
        for c in scores.values():
            assert c.pref_distance is None
            assert c.score == c.degree + 1

    def test_sort_key_refines_score_order(self):
        # sorting by the exact (degree, distance) key must list scores in
        # nondecreasing order, with None ranking above any finite distance
        # at the same degree
        rng = random.Random(3)
        from powerdom import ScoredCandidate

        cands = [
            ScoredCandidate(str(i), rng.randrange(1, 6),
                            rng.choice([None, 0, 1, 2, 3, 7]))
            for i in range(200)
        ]
        ordered = sorted(cands, key=degree_distance_key)
        scores = [c.score for c in ordered]
        assert scores == sorted(scores)


class TestCandidateList:
    def test_zim_order(self, zim):
        cands = candidate_list(zim, {"9"})
        assert [c.node for c in cands] == ["5", "7", "2"]
        assert cands[0].score == Fraction(9, 2)
        assert cands[2].score == Fraction(11, 3)

    def test_contracted_ieee39_has_eleven(self, ieee39):
        cg = contract(ieee39).contracted
        names = {c.node for c in candidate_list(cg, {"16", "19", "26"})}
        assert names == {"2", "3", "4", "5", "6", "8", "10", "11", "13", "14", "25"}

    def test_path_has_no_candidates(self, path5):
        assert candidate_list(path5, set()) == []

    @settings(max_examples=200, deadline=None)
    @given(structured_graphs, structured_graphs, st.randoms(use_true_random=False))
    def test_sort_key_order_is_score_order(self, a, b, rng):
        """On any graph, connected or not, candidate_list's order is
        descending score with ties by label, and that is descending degree,
        then descending distance with None first, then label: a candidate is
        never preferred, so never at distance 0. The union of two graphs
        with up to two preferred nodes in the first mixes finite and None
        distances."""
        g = Graph(
            [f"a{v}" for v in a.nodes] + [f"b{v}" for v in b.nodes],
            [(f"a{u}", f"a{v}") for u, v in a.edges()]
            + [(f"b{u}", f"b{v}") for u, v in b.edges()],
        )
        pref = {f"a{v}" for v in rng.sample(a.nodes, rng.randint(0, 2))}
        cands = candidate_list(g, pref)
        assert sorted(cands, key=lambda c: (-c.score, byte_key(c.node))) == cands
        by_degree_distance = sorted(
            cands,
            key=lambda c: (tuple(-x for x in degree_distance_key(c)), byte_key(c.node)),
        )
        assert by_degree_distance == cands

    @settings(max_examples=100, deadline=None)
    @given(relabeled())
    def test_score_ties_in_byte_order_on_non_ascii_labels(self, g):
        cands = candidate_list(g, preferred_nodes(g).pref)
        for a, b in zip(cands, cands[1:]):
            assert a.score > b.score or byte_key(a.node) < byte_key(b.node)


class TestPruningOnFamilies:
    """Each pruning rule against brute force on the structured families."""

    @settings(max_examples=200, deadline=None)
    @given(structured_graphs)
    def test_rules_keep_a_minimum_pds(self, g):
        assume(any(g.degree(v) >= 3 for v in g.nodes))
        cg = contract(g).contracted
        pdn = oracle_pdn(cg)
        # contraction keeps pdn
        assert oracle_pdn(g) == pdn
        # the preferred set as a whole lies inside some minimum PDS
        pref = preferred_nodes(cg).pref
        assert any(pref <= s for s in oracle_min_pds_sets(cg))
        # the redundant and degree-<=2 exclusions keep one too: the least
        # PDS between pref and pref plus all the candidates has size pdn
        cands = [c.node for c in candidate_list(cg, pref)]
        least = next(
            len(pref) + k
            for k in range(len(cands) + 1)
            for extra in itertools.combinations(cands, k)
            if oracle_is_pds(cg, pref | set(extra))
        )
        assert least == pdn
