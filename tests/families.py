"""Hypothesis strategies for structured graph families: trees, grids (a
ladder is a 2-row grid), cycles with chords, and hubs joined by long
degree-2 chains. Sparse random graphs miss these shapes, which are the
ones contraction, forcing chains and pruning act on.

``relabeled`` renames the nodes of such graphs, and of small random ones,
with non-ASCII labels, for checks of the label order against ``byte_key``.
"""

from hypothesis import strategies as st

from powerdom import Graph, erdos_renyi_connected

# ASCII, multi-byte, U+FFFF and astral characters: UTF-8 byte order puts the
# astral ones after U+FFFF, where UTF-16 code-unit order puts them before U+E000
LABEL_ALPHABET = "a\u00e9\u4e2d\ue000\uffff\U0001f600\U0010ffff"


def byte_key(label: str) -> bytes:
    """The documented label order: UTF-8 byte order."""
    return label.encode("utf-8")


def renamed(g: Graph, new) -> Graph:
    """g with each node that is a key of new renamed to its value."""
    name = {v: new.get(v, v) for v in g.nodes}
    return Graph([name[v] for v in g.nodes], [(name[u], name[v]) for u, v in g.edges()])


def _graph(n: int, edges) -> Graph:
    labels = [str(i) for i in range(n)]
    return Graph(labels, [(labels[a], labels[b]) for a, b in edges])


@st.composite
def trees(draw, max_n: int = 14) -> Graph:
    n = draw(st.integers(2, max_n))
    return _graph(n, [(i, draw(st.integers(0, i - 1))) for i in range(1, n)])


@st.composite
def grids(draw, max_side: int = 4) -> Graph:
    rows = draw(st.integers(2, max_side))
    cols = draw(st.integers(2, max_side))
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return _graph(rows * cols, edges)


@st.composite
def chorded_cycles(draw, max_n: int = 13) -> Graph:
    n = draw(st.integers(4, max_n))
    edges = {(i, (i + 1) % n) for i in range(n)}
    for _ in range(draw(st.integers(1, 4))):
        a = draw(st.integers(0, n - 1))
        b = draw(st.integers(0, n - 1))
        if (b - a) % n not in (0, 1, n - 1):
            edges.add((a, b))
    return _graph(n, sorted(edges))


@st.composite
def hubs_with_chains(draw) -> Graph:
    """A path of hubs; each chain of degree-2 nodes hangs off one hub or
    joins two."""
    hubs = draw(st.integers(1, 3))
    edges = [(h, h + 1) for h in range(hubs - 1)]
    n = hubs
    for _ in range(draw(st.integers(2, 5))):
        a = draw(st.integers(0, hubs - 1))
        length = draw(st.integers(1, 4))
        chain = list(range(n, n + length))
        n += length
        edges += [(a, chain[0])] + list(zip(chain, chain[1:]))
        if draw(st.booleans()):
            edges.append((chain[-1], draw(st.integers(0, hubs - 1))))
    return _graph(n, edges)


structured_graphs = st.one_of(trees(), grids(), chorded_cycles(), hubs_with_chains())


small_random_graphs = st.builds(
    lambda n, seed: erdos_renyi_connected(n, min(3.5 / n, 1.0), seed),
    st.integers(3, 14),
    st.integers(0, 10_000),
)


@st.composite
def relabeled(draw, alphabet: str = LABEL_ALPHABET) -> Graph:
    """A structured or small random graph with its nodes renamed, in their
    index order, to distinct labels of one to three characters from
    alphabet."""
    g = draw(st.one_of(structured_graphs, small_random_graphs))
    n = g.node_count
    label = st.text(alphabet, min_size=1, max_size=3)
    labels = draw(st.lists(label, min_size=n, max_size=n, unique=True))
    return renamed(g, dict(zip(g.nodes, labels)))
