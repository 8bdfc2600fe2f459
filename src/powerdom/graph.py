"""Graph representation, ingestion/serialization, generators, and elementary
graph algorithms.

Node labels are opaque strings preserved end-to-end; dense integer indices
are an internal mapping only.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Mapping, Optional, Sequence, Tuple

from .errors import FormatError, NotFoundError, ParameterError

__all__ = [
    "Graph",
    "DistanceMap",
    "parse_graph6",
    "write_graph6",
    "parse_edge_list",
    "write_edge_list",
    "erdos_renyi_connected",
    "connected_components",
    "articulation_points",
    "bfs_distances",
]


class Graph:
    """Immutable simple undirected graph with string node labels.

    Invariants: no self-loops, no parallel edges, symmetric adjacency,
    unique labels.
    """

    __slots__ = ("_labels", "_index", "_adj", "_edge_count")

    def __init__(self, labels: Iterable[str] = (), edges: Iterable[Tuple[str, str]] = ()):
        label_list = list(labels)
        for lab in label_list:
            if not isinstance(lab, str):
                raise ParameterError(f"node label must be a string, got {lab!r}")
        index: Dict[str, int] = {}
        for i, lab in enumerate(label_list):
            if lab in index:
                raise ParameterError(f"duplicate node label {lab!r}")
            index[lab] = i
        adj = [set() for _ in label_list]
        edge_count = 0
        for u, v in edges:
            if u not in index:
                raise NotFoundError(f"unknown edge endpoint {u!r}")
            if v not in index:
                raise NotFoundError(f"unknown edge endpoint {v!r}")
            if u == v:
                raise ParameterError(f"self-loop on node {u!r}")
            i, j = index[u], index[v]
            if j not in adj[i]:
                adj[i].add(j)
                adj[j].add(i)
                edge_count += 1
        self._labels: Tuple[str, ...] = tuple(label_list)
        self._index = index
        self._adj: Tuple[Tuple[int, ...], ...] = tuple(tuple(sorted(s)) for s in adj)
        self._edge_count = edge_count

    # -- basic accessors ---------------------------------------------------

    @property
    def nodes(self) -> Tuple[str, ...]:
        return self._labels

    @property
    def node_count(self) -> int:
        return len(self._labels)

    @property
    def edge_count(self) -> int:
        return self._edge_count

    @property
    def adjacency(self) -> Tuple[Tuple[int, ...], ...]:
        """Index-based adjacency view (per-node sorted neighbor indices)."""
        return self._adj

    def label_at(self, i: int) -> str:
        return self._labels[i]

    def index_of(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise NotFoundError(f"unknown node {label!r}") from None

    def has_node(self, label: str) -> bool:
        return label in self._index

    def degree(self, label: str) -> int:
        return len(self._adj[self.index_of(label)])

    def neighbors(self, label: str) -> Tuple[str, ...]:
        i = self.index_of(label)
        return tuple(sorted(self._labels[j] for j in self._adj[i]))

    def has_edge(self, u: str, v: str) -> bool:
        return self.index_of(v) in self._adj[self.index_of(u)]

    def edges(self) -> Iterator[Tuple[str, str]]:
        for i in range(len(self._labels)):
            for j in self._adj[i]:
                if i < j:
                    yield self._labels[i], self._labels[j]

    def edges_by_index(self) -> Tuple[Tuple[int, int], ...]:
        return tuple((i, j) for i in range(len(self._labels)) for j in self._adj[i] if i < j)

    def induced(self, labels: Iterable[str]) -> "Graph":
        """Induced subgraph on the given labels, preserving label order. A
        graph is immutable, so keeping every node returns the graph itself."""
        keep = {self.index_of(lab) for lab in labels}
        if len(keep) == len(self._labels):
            return self
        return self._subgraph(sorted(keep))

    def _subgraph(self, keep: Sequence[int], extra: Iterable[Tuple[int, int]] = ()) -> "Graph":
        """Graph on the kept indices, in that order, with the edges among
        them plus the extra index pairs."""
        labels, adj = self._labels, self._adj
        kept = set(keep)
        edges = [(labels[i], labels[j]) for i in keep for j in adj[i] if i < j and j in kept]
        edges.extend((labels[i], labels[j]) for i, j in extra)
        return Graph([labels[i] for i in keep], edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return set(self._labels) == set(other._labels) and set(
            frozenset(e) for e in self.edges()
        ) == set(frozenset(e) for e in other.edges())

    def __hash__(self):  # labels and edge sets are immutable
        return hash((frozenset(self._labels), self._edge_count))

    def __repr__(self) -> str:
        return f"Graph(n={self.node_count}, m={self.edge_count})"


@dataclass(frozen=True)
class DistanceMap:
    """Hop distances from a single source; None marks unreachable nodes."""

    source: str
    dist: Mapping[str, Optional[int]]

    def distance(self, label: str) -> Optional[int]:
        try:
            return self.dist[label]
        except KeyError:
            raise NotFoundError(f"unknown node {label!r}") from None


# -- graph6 ----------------------------------------------------------------

_G6_HEADER = b">>graph6<<"

# The order field's forms, by the "~" bytes that open it: the 6-bit digits
# that follow and the orders below which the form is used. A shorter form
# never starts with the digit 63, which would read as "~".
_G6_ORDER_FORMS = ((b"", 1, 63), (b"~", 3, 258048), (b"~~", 6, 2 ** 36))

# The bytes that hold six bits each: byte b holds b - 63, so "?" holds none.
_G6_DIGITS = bytes(range(63, 127))


def _g6_check_byte(b: int) -> int:
    if b < 63 or b > 126:
        raise FormatError(f"graph6 byte {b} outside printable range [63, 126]")
    return b - 63


def _g6_order(n: int) -> bytes:
    """The graph6 order field of n: the shortest form that holds it."""
    for prefix, digits, end in _G6_ORDER_FORMS:
        if n < end:
            return prefix + bytes(((n >> 6 * i) & 63) + 63 for i in reversed(range(digits)))
    raise ParameterError("graph6 supports fewer than 2^36 nodes")


def _g6_read_order(data: bytes) -> Tuple[int, int]:
    """The order and the length of the order field that opens data."""
    if not data:
        raise FormatError("empty graph6 data")
    head = data[:2]
    prefix, digits, _ = _G6_ORDER_FORMS[len(head) - len(head.lstrip(b"~"))]
    end = len(prefix) + digits
    if len(data) < end:
        raise FormatError("truncated graph6 order field")
    n = 0
    for b in data[len(prefix):end]:
        n = (n << 6) | _g6_check_byte(b)
    return n, end


def parse_graph6(data) -> Graph:
    """Decode one graph6-encoded graph; labels become "0".."n-1".

    The optional ``>>graph6<<`` header and trailing line whitespace are
    accepted.
    """
    if isinstance(data, str):
        try:
            data = data.encode("ascii")
        except UnicodeEncodeError:
            raise FormatError("graph6 data must be ASCII") from None
    data = bytes(data)
    if data.startswith(_G6_HEADER):
        data = data[len(_G6_HEADER):]
    data = data.rstrip(b"\r\n \t")
    n, offset = _g6_read_order(data)
    body = data[offset:]
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise FormatError(
            f"graph6 bit section has {len(body)} bytes, expected {need} for n={n}"
        )
    import re  # here, so that importing the package does not load it

    bad = body.translate(None, _G6_DIGITS)
    if bad:
        _g6_check_byte(bad[0])
    labels = [str(i) for i in range(n)]
    edges = []
    # bit j(j - 1)/2 + i is edge (i, j): column j holds the bits from
    # base = j(j - 1)/2 on, and the set bits come in ascending order
    j = base = 0
    for byte in re.finditer(rb"[^?]", body):
        pos = byte.start()
        v = body[pos] - 63
        while v:
            top = v.bit_length() - 1
            v ^= 1 << top
            bit = 6 * pos + 5 - top
            if bit >= nbits:
                break
            while bit >= base + j:
                base += j
                j += 1
            edges.append((labels[bit - base], labels[j]))
    return Graph(labels, edges)


def write_graph6(g: Graph) -> bytes:
    """Encode a graph as canonical graph6 bytes (no header, zero padding).

    Edge (i, j), i < j, is bit j(j - 1)/2 + i of the body, six bits to a
    byte, high bit first, and each byte is offset by 63."""
    n = g.node_count
    order = _g6_order(n)
    # each byte starts as "?", 63 with no bit set, and each edge adds its
    # own bit once
    body = bytearray(b"?") * ((n * (n - 1) // 2 + 5) // 6)
    for i, j in g.edges_by_index():
        bit = j * (j - 1) // 2 + i
        body[bit // 6] += 32 >> (bit % 6)
    return order + bytes(body)


# -- edge-list text --------------------------------------------------------


def parse_edge_list(text: str) -> Graph:
    """Parse "u v" lines into a graph; ``#`` comments and blanks ignored."""
    labels = []
    seen = set()
    edges = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: expected two tokens, got {len(parts)}")
        u, v = parts
        if u == v:
            raise FormatError(f"line {lineno}: self-loop on node {u!r}")
        for lab in (u, v):
            if lab not in seen:
                seen.add(lab)
                labels.append(lab)
        edges.append((u, v))
    return Graph(labels, edges)


def write_edge_list(g: Graph) -> str:
    """One "u v" line per edge. The format has no way to list a node
    without an edge, nor a label that is empty, holds whitespace (what
    ``str.split`` and ``str.splitlines`` break on) or starts a ``#``
    comment, so such graphs are rejected."""
    isolated = sum(1 for nbrs in g.adjacency if not nbrs)
    if isolated:
        raise ParameterError(
            f"an edge list cannot hold isolated nodes; the graph has {isolated}"
        )
    for lab in g.nodes:
        if not lab or lab.startswith("#") or any(c.isspace() for c in lab):
            raise ParameterError(f"an edge list cannot hold the label {lab!r}")
    lines = sorted((u, v) if u <= v else (v, u) for u, v in g.edges())
    return "".join(f"{u} {v}\n" for u, v in lines)


# -- random generator ------------------------------------------------------


def erdos_renyi_connected(n: int, p: float, seed: int, max_attempts: int = 1_000_000) -> Graph:
    """Seeded Erdos-Renyi G(n, p), resampled until connected.

    Each attempt reseeds from (seed, attempt counter), so the result for a
    given (n, p, seed) does not depend on how many retries were needed
    elsewhere.
    """
    if n < 1:
        raise ParameterError("n must be at least 1")
    if not 0 <= p <= 1:
        raise ParameterError("p must be in [0, 1]")
    labels = [str(i) for i in range(n)]
    if n == 1:
        return Graph(labels)
    if p == 0:
        raise ParameterError("p=0 cannot produce a connected graph with n>1")
    for attempt in range(max_attempts):
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
        if len(_reach(adj, 0, bytearray(n))) == n:
            return Graph(labels, [(labels[i], labels[j]) for i, j in pairs])
    raise ParameterError(
        f"no connected graph after {max_attempts} attempts (n={n}, p={p})"
    )


# -- elementary algorithms -------------------------------------------------


def _reach(adj, start: int, seen: bytearray) -> list:
    """Indices reachable from start through nodes not yet marked in seen,
    in BFS order; marks each of them (start included) in seen."""
    seen[start] = 1
    block = [start]
    for v in block:
        for u in adj[v]:
            if not seen[u]:
                seen[u] = 1
                block.append(u)
    return block


def connected_components(g: Graph) -> Tuple[frozenset, ...]:
    """Maximal connected node sets, ordered by smallest node index."""
    seen = bytearray(g.node_count)
    blocks = []
    for start in range(g.node_count):
        if not seen[start]:
            blocks.append(frozenset(g.label_at(i) for i in _reach(g.adjacency, start, seen)))
    return tuple(blocks)


def articulation_points(g: Graph) -> frozenset:
    """Nodes whose deletion increases the number of connected components."""
    n = g.node_count
    adj = g.adjacency
    disc = [-1] * n
    low = [0] * n
    parent = [-1] * n
    cut = set()
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        root_children = 0
        stack = [(root, 0)]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            v, ptr = stack[-1]
            if ptr < len(adj[v]):
                stack[-1] = (v, ptr + 1)
                u = adj[v][ptr]
                if disc[u] == -1:
                    parent[u] = v
                    disc[u] = low[u] = timer
                    timer += 1
                    if v == root:
                        root_children += 1
                    stack.append((u, 0))
                elif u != parent[v]:
                    low[v] = min(low[v], disc[u])
            else:
                stack.pop()
                p = parent[v]
                if p != -1:
                    low[p] = min(low[p], low[v])
                    if p != root and low[v] >= disc[p]:
                        cut.add(p)
        if root_children >= 2:
            cut.add(root)
    return frozenset(g.label_at(i) for i in cut)


def bfs_distances(g: Graph, source: str) -> DistanceMap:
    """Exact shortest-path hop counts from a single source."""
    return DistanceMap(source, multi_source_distances(g, [source]))


def multi_source_distances(g: Graph, sources: Iterable[str]) -> Dict[str, Optional[int]]:
    """Hop distance from the nearest of several sources; None if unreachable
    or the source set is empty."""
    n = g.node_count
    adj = g.adjacency
    dist = [None] * n
    queue = deque()
    for s in sources:
        i = g.index_of(s)
        if dist[i] is None:
            dist[i] = 0
            queue.append(i)
    while queue:
        v = queue.popleft()
        for u in adj[v]:
            if dist[u] is None:
                dist[u] = dist[v] + 1
                queue.append(u)
    return {g.label_at(i): dist[i] for i in range(n)}
