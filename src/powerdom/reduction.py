"""Pre-processing: contraction of degree-2 runs (the kept nodes and the
shortcut edges form one Graph._subgraph), preferred-node detection in one
pass over the cut nodes (two or more terminal paths are a special case of
the terminal-fort rule), redundant-node elimination, and qualitative
scoring, whose score alone orders the candidates.

Each step is linear in the graph plus the closures it runs: the preferred
pass runs every cut node's closure on one closed state and undoes it on the
nodes it observed, and only the candidates that pass the filters are
scored."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from .errors import PreconditionError
from .graph import Graph, _reach, articulation_points, multi_source_distances
from .propagation import _force_closure, _observe

__all__ = [
    "ContractionReport",
    "PreferredReport",
    "ScoredCandidate",
    "contract",
    "preferred_nodes",
    "redundant_nodes",
    "qualitative_scores",
    "candidate_list",
]


@dataclass(frozen=True)
class ContractionReport:
    contracted: Graph
    removed: FrozenSet[str]
    rules: Dict[str, str]  # removed node -> "terminal" | "non_terminal"


@dataclass(frozen=True)
class PreferredReport:
    b_preferred: FrozenSet[str]
    f_preferred: FrozenSet[str]
    forts: Dict[str, FrozenSet[str]]  # f-preferred node -> observed terminal fort
    p_preferred: Optional[str]
    pref: FrozenSet[str]


@dataclass(frozen=True)
class ScoredCandidate:
    """Node with its search-ordering score: candidate_list sorts by it.

    The score is degree plus a fraction in [0, 1) that grows with distance
    from the preferred set, or degree + 1 when pref_distance is None
    (unreachable, or no preferred nodes). A candidate is never preferred,
    so never at distance 0, and the scores of the candidates of degree d
    all lie in (d, d + 1].
    """

    node: str
    degree: int
    pref_distance: Optional[int]

    @property
    def score(self) -> Fraction:
        if self.pref_distance is None:
            return Fraction(self.degree + 1)
        return self.degree + 1 - Fraction(1, self.pref_distance + 1)


# -- contraction -----------------------------------------------------------


def _walk_run(adj, deg, anchor: int, first: int):
    """Follow a chain of degree<=2 nodes from an anchor through one
    neighbor. Returns (run node indices, kind) with kind "terminal" when the
    run ends at a degree-1 node and "non_terminal" when it ends at a node of
    degree >= 3 (possibly the anchor itself)."""
    run = []
    prev, cur = anchor, first
    while True:
        run.append(cur)
        if deg[cur] == 1:
            return run, "terminal"
        nxt = next(u for u in adj[cur] if u != prev)
        if deg[nxt] >= 3 or nxt == anchor:
            return run, "non_terminal"
        prev, cur = cur, nxt


def contract(g: Graph) -> ContractionReport:
    """Shorten every maximal degree-2 run: leaf-ending runs keep only the
    node next to the anchor; interior runs longer than two keep their first
    and last nodes, joined by an edge. Kept nodes retain their labels."""
    adj = g.adjacency
    n = g.node_count
    deg = [len(a) for a in adj]
    seen = bytearray(n)
    for start in range(n):
        if not seen[start] and all(deg[i] < 3 for i in _reach(adj, start, seen)):
            raise PreconditionError(
                "contract requires every component to contain a node of degree >= 3"
            )
    removed: Dict[int, str] = {}
    added_edges: List[Tuple[int, int]] = []
    # the nodes of the runs walked so far: an interior or cycle run is
    # reached again from its other end, which is then skipped
    walked = set()
    for a in range(n):
        if deg[a] < 3:
            continue
        for u in adj[a]:
            if deg[u] >= 3 or u in walked:
                continue
            run, kind = _walk_run(adj, deg, a, u)
            walked.update(run)
            if kind == "terminal":
                for v in run[1:]:
                    removed[v] = "terminal"
            elif len(run) > 2:
                for v in run[1:-1]:
                    removed[v] = "non_terminal"
                added_edges.append((run[0], run[-1]))
    return ContractionReport(
        contracted=g._subgraph([i for i in range(n) if i not in removed], added_edges),
        removed=frozenset(g.label_at(i) for i in removed),
        rules={g.label_at(i): tag for i, tag in removed.items()},
    )


# -- preferred nodes -------------------------------------------------------


def preferred_nodes(g: Graph) -> PreferredReport:
    """Detect b-, f-, and p-preferred nodes of a connected graph.

    f-preferred: a cut node whose fully-observed components of g - v (under
    the process seeded with {v}) attach to v by at least two edges in total;
    the stored fort is that maximal union. b-preferred: two or more terminal
    paths, the components of g - v made of degree-<=2 nodes and attached to v
    by one edge. The node next to v forces along such a path, so it is fully
    observed, and two of them give the two edges of the f-rule: every
    b-preferred node is f-preferred. p-preferred: the first (label order)
    f-preferred node for which a single such component attached by >= 2
    edges contains another f-preferred node.

    One closed state serves every cut node: its closure is run on it, read,
    and undone on the nodes it observed, so the pass costs the closures it
    runs plus O(n) once, not O(n) per cut node.
    """
    adj = g.adjacency
    n = g.node_count
    if n == 0 or len(_reach(adj, 0, bytearray(n))) != n:
        raise PreconditionError("preferred_nodes requires a connected, nonempty graph")
    observed, unobs = bytearray(n), [0] * n
    # the seen array of _reach: set on every node but the observed ones of
    # the current closure, so a walk from a neighbor of v stays inside them
    blocked = bytearray(b"\x01") * n
    b_pref = set()
    forts: Dict[str, FrozenSet[str]] = {}
    witness_comps: Dict[str, List[FrozenSet[str]]] = {}
    for v in sorted(articulation_points(g)):
        vi = g.index_of(v)
        log: list = []
        ball = [vi, *adj[vi]]
        _force_closure(adj, observed, unobs, ball, 0, log)
        # the observed nodes: the ball, then each forced node once; this
        # holds at both full-count exits of the closure too
        reached = ball + [w for _, w in log]
        for x in reached:
            blocked[x] = 0
        blocked[vi] = 1
        # Every neighbor of v is observed by the domination step and v never
        # forces, so a component of g - v is fully observed iff the observed
        # nodes reached from a neighbor have no unobserved neighbor.
        nbrs = set(adj[vi])
        full = []
        for u in adj[vi]:
            if blocked[u]:
                continue
            block = _reach(adj, u, blocked)
            if all(observed[y] for x in block for y in adj[x]):
                full.append((block, sum(1 for x in block if x in nbrs)))
        # undo the closure; unobs needs no reset: a counter is read only on
        # an observed node, and the closure sets it when it observes the node
        for x in reached:
            observed[x] = 0
            blocked[x] = 1
        if sum(e for _, e in full) >= 2:
            forts[v] = frozenset(g.label_at(x) for block, _ in full for x in block)
            witness_comps[v] = [
                frozenset(g.label_at(x) for x in block) for block, e in full if e >= 2
            ]
            # a full block joined to v by one edge is forced from that edge's
            # end alone, so it is an induced path ending in a leaf: a terminal path
            if sum(1 for _, e in full if e == 1) >= 2:
                b_pref.add(v)
    p_pref = None
    for v, comps in witness_comps.items():  # label order, as the loop above
        # v is in none of its own components of g - v, so any f-preferred
        # node found in them is another one
        if any(u in forts for c in comps for u in c):
            p_pref = v
            break
    return PreferredReport(
        b_preferred=frozenset(b_pref),
        f_preferred=frozenset(forts),
        forts=forts,
        p_preferred=p_pref,
        pref=frozenset({p_pref} if p_pref is not None else forts),
    )


# -- redundancy and scoring ------------------------------------------------


def redundant_nodes(g: Graph, pref: Iterable[str]) -> FrozenSet[str]:
    """Nodes whose closed neighborhood is entirely observed after running
    the process on the preferred set."""
    adj = g.adjacency
    observed = _observe(adj, {g.index_of(v) for v in pref})[0]
    return frozenset(
        g.label_at(i)
        for i in range(g.node_count)
        if observed[i] and all(observed[u] for u in adj[i])
    )


def qualitative_scores(g: Graph, pref: Iterable[str]) -> Dict[str, ScoredCandidate]:
    """Score every node by degree plus a fraction growing with its distance
    to the nearest preferred node."""
    dist = multi_source_distances(g, pref)
    return {
        v: ScoredCandidate(node=v, degree=g.degree(v), pref_distance=dist[v])
        for v in g.nodes
    }


def candidate_list(g: Graph, pref: Iterable[str]) -> List[ScoredCandidate]:
    """Degree->=3 nodes outside the preferred and redundant sets, sorted by
    descending score with ties broken by label order. Only these nodes are
    scored, from one multi_source_distances call."""
    pref = set(pref)
    redundant = redundant_nodes(g, pref)
    kept = [
        (v, len(a))
        for v, a in zip(g.nodes, g.adjacency)
        if len(a) >= 3 and v not in pref and v not in redundant
    ]
    dist = multi_source_distances(g, pref)
    cands = [ScoredCandidate(node=v, degree=d, pref_distance=dist[v]) for v, d in kept]
    cands.sort(key=lambda c: (-c.score, c.node))
    return cands
