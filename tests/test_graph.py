import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerdom import (
    FormatError,
    Graph,
    NotFoundError,
    ParameterError,
    articulation_points,
    bfs_distances,
    builtin_graph,
    connected_components,
    erdos_renyi_connected,
    parse_edge_list,
    parse_graph6,
    write_edge_list,
    write_graph6,
)

import powerdom.graph
from powerdom.graph import _g6_order, _g6_read_order

from families import LABEL_ALPHABET, byte_key, relabeled
from oracles import oracle_articulation_points, oracle_shortest_distance, random_graph


class TestGraphBasics:
    def test_degree_sum_is_twice_edge_count(self, zim):
        assert sum(zim.degree(v) for v in zim.nodes) == 2 * zim.edge_count

    def test_adjacency_is_symmetric(self, zim):
        for u, v in zim.edges():
            assert zim.has_edge(u, v)
            assert zim.has_edge(v, u)

    def test_duplicate_edges_collapse(self):
        g = Graph(["a", "b"], [("a", "b"), ("b", "a"), ("a", "b")])
        assert g.edge_count == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ParameterError):
            Graph(["a"], [("a", "a")])

    def test_duplicate_label_rejected(self):
        with pytest.raises(ParameterError):
            Graph(["a", "a"])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(NotFoundError):
            Graph(["a"], [("a", "b")])
        with pytest.raises(NotFoundError):
            Graph(["a"], [("b", "a")])

    @pytest.mark.parametrize("label", [1, None, b"a"])
    def test_non_string_label_rejected(self, label):
        with pytest.raises(ParameterError, match="must be a string"):
            Graph(["a", label])

    def test_has_node(self, zim):
        assert zim.has_node("9")
        assert not zim.has_node("99")

    def test_equal_graphs_hash_equal_whatever_the_label_order(self):
        a = Graph(["1", "2", "3"], [("1", "2"), ("2", "3")])
        b = Graph(["3", "2", "1"], [("3", "2"), ("2", "1")])
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_repr(self, zim):
        assert repr(zim) == "Graph(n=11, m=15)"

    def test_equality_with_a_non_graph(self, zim):
        assert zim.__eq__(5) is NotImplemented
        assert (zim == 5) is False

    def test_induced_subgraph(self, zim):
        sub = zim.induced({"9", "10", "11"})
        assert sub.node_count == 3
        assert sub.edge_count == 3

    def test_induced_on_every_node_is_the_graph_itself(self, zim):
        assert zim.induced(zim.nodes) is zim
        assert zim.induced(reversed(zim.nodes)) is zim

    def test_induced_keeps_the_parent_label_order_and_edges(self):
        g = Graph(["d", "b", "e", "a", "c"],
                  [("d", "a"), ("b", "e"), ("e", "a"), ("a", "c"), ("c", "d")])
        sub = g.induced(["a", "c", "e", "d"])
        assert sub.nodes == ("d", "e", "a", "c")
        assert set(map(frozenset, sub.edges())) == {
            frozenset(e) for e in [("d", "a"), ("e", "a"), ("a", "c"), ("c", "d")]
        }
        assert sub.edge_count == 4

    def test_induced_on_an_unknown_label_rejected(self, zim):
        with pytest.raises(NotFoundError):
            zim.induced(["9", "nope"])
        with pytest.raises(NotFoundError):
            zim.induced([*zim.nodes, "nope"])

    def test_induced_on_every_node_sorts_nothing(self, zim, monkeypatch):
        # solve takes the induced subgraph of every component, so a
        # connected input must come back without a sort of its n indices
        def no_sort(*args, **kwargs):
            raise AssertionError("sorted called")

        monkeypatch.setattr(powerdom.graph, "sorted", no_sort, raising=False)
        assert zim.induced([*zim.nodes, "9"]) is zim


class TestGraph6:
    def test_k3_decodes_from_hand_encoded_bytes(self):
        # 3 nodes -> chr(3+63)='B'; bits (0,1),(0,2),(1,2)=111, padded
        # to 111000 -> 56+63=119='w'
        g = parse_graph6(b"Bw")
        assert g.node_count == 3
        assert g.edge_count == 3

    def test_single_node(self):
        g = parse_graph6(b"@")
        assert g.node_count == 1
        assert g.edge_count == 0

    def test_k1_encodes_to_at_sign(self):
        assert write_graph6(Graph(["x"])) == b"@"

    def test_k3_encodes_to_bw(self):
        g = Graph(["a", "b", "c"], [("a", "b"), ("a", "c"), ("b", "c")])
        assert write_graph6(g) == b"Bw"

    def test_header_accepted(self):
        assert parse_graph6(b">>graph6<<Bw").edge_count == 3

    def test_byte_below_63_rejected(self):
        with pytest.raises(FormatError):
            parse_graph6(b"B\x20")

    def test_truncated_bit_section_rejected(self):
        with pytest.raises(FormatError):
            parse_graph6(b"D")  # n=5 needs 2 body bytes

    def test_trailing_bytes_rejected(self):
        with pytest.raises(FormatError):
            parse_graph6(b"Bww")

    def test_long_form_order(self):
        g = Graph([str(i) for i in range(100)])
        data = write_graph6(g)
        assert data[0] == 126
        back = parse_graph6(data)
        assert back.node_count == 100
        assert back.edge_count == 0

    def test_eight_byte_order_form(self):
        # "~~" then six 6-bit digits: 0, 0, 0, 0, 0, 63 is order 63, which
        # write_graph6 gives in the four-byte form "~??~"
        g = erdos_renyi_connected(63, 0.1, 1)
        data = write_graph6(g)
        assert data[:4] == b"~??~"
        assert parse_graph6(b"~~?????~" + data[4:]) == g

    @pytest.mark.parametrize("data", ["", "~", "~?", "~~?", "~~?????"])
    def test_empty_or_truncated_order_rejected(self, data):
        with pytest.raises(FormatError):
            parse_graph6(data)

    def test_non_ascii_text_rejected(self):
        with pytest.raises(FormatError, match="^graph6 data must be ASCII$"):
            parse_graph6("B\u00e9")

    @pytest.mark.parametrize(
        "n, length",
        [(0, 1), (1, 1), (62, 1), (63, 4), (258047, 4), (258048, 8), (2 ** 36 - 1, 8)],
    )
    def test_order_field_round_trip(self, n, length):
        field = _g6_order(n)
        assert len(field) == length
        assert _g6_read_order(field) == (n, length)

    def test_order_past_the_format_rejected(self):
        message = re.escape("graph6 supports fewer than 2^36 nodes")
        with pytest.raises(ParameterError, match=f"^{message}$"):
            _g6_order(2 ** 36)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 30), st.sampled_from([0, 1, 2, 7, 61, 62, 63, 64, 65, 70]))
    def test_body_is_the_pair_bits_in_column_order(self, seed, n):
        """The body holds one bit per pair (i, j), i < j, in the order j,
        then i, six to a byte, high bit first and zero padded, each byte
        offset by 63."""
        g = random_graph(seed, n, 0.3)
        adj = g.adjacency
        bits = "".join("1" if j in adj[i] else "0" for j in range(n) for i in range(j))
        bits += "0" * (-len(bits) % 6)
        body = bytes(int(bits[b : b + 6], 2) + 63 for b in range(0, len(bits), 6))
        data = write_graph6(g)
        assert data == _g6_order(n) + body

    @staticmethod
    def decode_pairs(n, body):
        """The edges of a graph6 body, testing every pair (i, j), i < j, in
        turn: bit j(j - 1)/2 + i, six to a byte, high bit first."""
        for b in body:
            if not 63 <= b <= 126:
                raise FormatError(f"graph6 byte {b} outside printable range [63, 126]")
        edges = []
        bit = 0
        for j in range(1, n):
            for i in range(j):
                if (body[bit // 6] - 63) & (32 >> bit % 6):
                    edges.append((i, j))
                bit += 1
        return sorted(edges)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2 ** 30), st.sampled_from([0, 1, 2, 3, 4, 7, 12, 33, 61, 62, 63, 90]))
    def test_decode_matches_every_pair_tested(self, seed, n):
        """Random bodies, set padding bits and bytes outside the digits
        included: the same edges or the same error as the pair decoder."""
        rng = random.Random(seed)
        size = (n * (n - 1) // 2 + 5) // 6
        body = bytearray(rng.choice((63, rng.randint(63, 126))) for _ in range(size))
        # bytes below 63 or above 126, but no whitespace, which the parser
        # strips from the end before it reads the body
        bad = [b for b in range(256) if not 63 <= b <= 126 and b not in b" \t\r\n"]
        for _ in range(rng.choice((0, 0, 1, 3)) if size else 0):
            body[rng.randrange(size)] = rng.choice(bad)
        try:
            expected = self.decode_pairs(n, body)
        except FormatError as exc:
            with pytest.raises(FormatError, match=f"^{re.escape(str(exc))}$"):
                parse_graph6(_g6_order(n) + bytes(body))
        else:
            g = parse_graph6(_g6_order(n) + bytes(body))
            assert g.nodes == tuple(str(i) for i in range(n))
            assert sorted(g.edges_by_index()) == expected

    def test_first_bad_body_byte_is_named(self):
        with pytest.raises(FormatError, match=r"^graph6 byte 127 outside printable range"):
            parse_graph6(b"E?\x7f\x00")

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 30), st.integers(1, 30))
    def test_round_trip_random_graphs(self, seed, n):
        g = random_graph(seed, n, 0.3)
        data = write_graph6(g)
        back = parse_graph6(data)
        assert back.node_count == g.node_count
        assert back.edges_by_index() == g.edges_by_index()
        assert write_graph6(back) == data


class TestEdgeList:
    def test_simple_path(self):
        g = parse_edge_list("1 2\n2 3")
        assert set(g.nodes) == {"1", "2", "3"}
        assert g.edge_count == 2

    def test_duplicate_edge_collapses(self):
        assert parse_edge_list("1 2\n1 2").edge_count == 1

    def test_self_loop_rejected(self):
        with pytest.raises(FormatError):
            parse_edge_list("7 7")

    def test_bad_token_count_rejected(self):
        with pytest.raises(FormatError):
            parse_edge_list("1 2 3")

    def test_comments_and_blanks_ignored(self):
        g = parse_edge_list("# header\n\n1 2\n  # indented comment\n")
        assert g.edge_count == 1

    def test_write_read_round_trip(self, zim):
        back = parse_edge_list(write_edge_list(zim))
        assert back == zim

    @settings(max_examples=100, deadline=None)
    @given(relabeled())
    def test_write_and_neighbors_sort_by_byte_order_on_non_ascii_labels(self, g):
        lines = [tuple(map(byte_key, line.split(" "))) for line in write_edge_list(g).splitlines()]
        assert all(u < v for u, v in lines)
        assert lines == sorted(lines)
        assert len(lines) == g.edge_count
        assert parse_edge_list(write_edge_list(g)) == g
        for v in g.nodes:
            assert list(g.neighbors(v)) == sorted(g.neighbors(v), key=byte_key)

    def test_isolated_nodes_rejected_on_write(self):
        # graph6 "D?_": five nodes, one edge 0-4, three isolated nodes
        with pytest.raises(ParameterError, match="has 3"):
            write_edge_list(parse_graph6(b"D?_"))

    # each label would read back as other tokens, or as a comment
    @pytest.mark.parametrize("label", ["a b", "", "#x", "a\u00a0b", "a\u2028b", "a\x1cb"])
    def test_unreadable_label_rejected_on_write(self, label):
        with pytest.raises(ParameterError, match=re.escape(repr(label))):
            write_edge_list(Graph([label, "c"], [(label, "c")]))

    @settings(max_examples=100, deadline=None)
    @given(relabeled(LABEL_ALPHABET + " #\u00a0\u2028"))
    def test_write_rejects_or_round_trips(self, g):
        # most draws hold such a label; the byte-order test above round-trips the rest
        if any(v.startswith("#") or any(c in " \u00a0\u2028" for c in v) for v in g.nodes):
            with pytest.raises(ParameterError):
                write_edge_list(g)
        else:
            assert parse_edge_list(write_edge_list(g)) == g


class TestBuiltins:
    @pytest.mark.parametrize(
        "name,nodes,edges",
        [
            ("tadpole", 6, 6),
            ("zim", 11, 15),
            ("mutated_zim", 19, 23),
            ("fig3", 5, 5),
            ("ieee39", 39, 46),
        ],
    )
    def test_sizes(self, name, nodes, edges):
        g = builtin_graph(name)
        assert g.node_count == nodes
        assert g.edge_count == edges

    def test_unknown_name(self):
        with pytest.raises(NotFoundError):
            builtin_graph("nope")


class TestErdosRenyi:
    def test_connected_and_reproducible(self):
        a = erdos_renyi_connected(20, 0.2, 11)
        b = erdos_renyi_connected(20, 0.2, 11)
        assert a == b
        assert len(connected_components(a)) == 1

    def test_single_node(self):
        assert erdos_renyi_connected(1, 0.0, 5).node_count == 1

    def test_p_zero_rejected(self):
        with pytest.raises(ParameterError):
            erdos_renyi_connected(2, 0.0, 5)

    def test_gives_up_after_max_attempts(self):
        with pytest.raises(ParameterError, match="after 3 attempts"):
            erdos_renyi_connected(30, 0.01, 1, max_attempts=3)

    def test_bad_parameters(self):
        with pytest.raises(ParameterError):
            erdos_renyi_connected(0, 0.5, 1)
        with pytest.raises(ParameterError):
            erdos_renyi_connected(5, 1.5, 1)


class TestComponents:
    def test_path_is_one_block(self, path5):
        assert len(connected_components(path5)) == 1

    def test_two_disjoint_edges(self):
        g = Graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
        blocks = connected_components(g)
        assert sorted(map(sorted, blocks)) == [["a", "b"], ["c", "d"]]

    def test_empty_graph(self):
        assert connected_components(Graph()) == ()


class TestArticulationPoints:
    def test_zim(self, zim):
        assert articulation_points(zim) == {"5", "7", "9"}

    def test_cycle_has_none(self):
        labels = [str(i) for i in range(5)]
        cycle = Graph(labels, [(labels[i], labels[(i + 1) % 5]) for i in range(5)])
        assert articulation_points(cycle) == frozenset()

    def test_path_middle_node(self):
        g = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert articulation_points(g) == {"b"}

    def test_matches_delete_and_count_oracle(self):
        for seed in range(500):
            g = random_graph(seed, 4 + seed % 7, 0.35)
            assert articulation_points(g) == oracle_articulation_points(g), seed


class TestBfsDistances:
    def test_zim_distance_2_to_9(self, zim):
        assert bfs_distances(zim, "2").distance("9") == 2
        assert oracle_shortest_distance(zim, "2", "9") == 2

    def test_distance_to_self_is_zero(self, zim):
        for v in zim.nodes:
            assert bfs_distances(zim, v).distance(v) == 0

    def test_unreachable_is_none(self):
        g = Graph(["a", "b"])
        assert bfs_distances(g, "a").distance("b") is None

    def test_matches_path_enumeration_oracle(self):
        for seed in range(30):
            g = random_graph(seed, 7, 0.3)
            dm = bfs_distances(g, "0")
            for v in g.nodes:
                assert dm.distance(v) == oracle_shortest_distance(g, "0", v)

    def test_unknown_source(self, zim):
        with pytest.raises(NotFoundError):
            bfs_distances(zim, "99")

    def test_unknown_target(self, zim):
        with pytest.raises(NotFoundError, match="unknown node '99'"):
            bfs_distances(zim, "2").distance("99")
