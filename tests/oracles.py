"""Independent reference implementations used only by the tests.

These deliberately avoid the package's propagation engine and solver paths:
propagation is a plain set-based fixpoint, pdn is a raw subset scan,
articulation points come from delete-and-count, and forts are checked
against their definition with the same fixpoint.
"""

import itertools
import random

from powerdom import Graph


def oracle_power_dominate(g: Graph, pmus) -> set:
    observed = set(pmus)
    for v in pmus:
        observed.update(g.neighbors(v))
    return oracle_zero_force(g, observed)


def oracle_zero_force(g: Graph, observed) -> set:
    """The closure of observed under the forcing rule: a node with exactly
    one unobserved neighbor observes it."""
    observed = set(observed)
    changed = True
    while changed:
        changed = False
        for v in list(observed):
            unobserved = [u for u in g.neighbors(v) if u not in observed]
            if len(unobserved) == 1:
                observed.add(unobserved[0])
                changed = True
    return observed


def oracle_is_pds(g: Graph, pmus) -> bool:
    return len(oracle_power_dominate(g, pmus)) == g.node_count


def oracle_is_minimal_fort(g: Graph, fort) -> bool:
    """fort is a fort (nonempty, and no node outside it has exactly one
    neighbor in it) with no smaller fort inside: the forcing closure of any
    one of its nodes plus every node outside it observes the whole graph."""
    fort = set(fort)
    rest = set(g.nodes) - fort
    if not fort or any(len(fort.intersection(g.neighbors(v))) == 1 for v in rest):
        return False
    return all(len(oracle_zero_force(g, rest | {x})) == g.node_count for x in fort)


def oracle_pdn(g: Graph) -> int:
    """Smallest PDS size by exhaustive enumeration (nonempty graphs)."""
    nodes = sorted(g.nodes)
    for k in range(1, g.node_count + 1):
        for subset in itertools.combinations(nodes, k):
            if oracle_is_pds(g, subset):
                return k
    raise AssertionError("V(G) itself must be a PDS")


def oracle_min_pds_sets(g: Graph):
    k = oracle_pdn(g)
    return [
        frozenset(s)
        for s in itertools.combinations(sorted(g.nodes), k)
        if oracle_is_pds(g, s)
    ]


def oracle_components(g: Graph) -> list:
    """Connected node sets of g, by depth-first search over label sets."""
    remaining = set(g.nodes)
    comps = []
    while remaining:
        stack = [remaining.pop()]
        comp = set(stack)
        while stack:
            v = stack.pop()
            for u in g.neighbors(v):
                if u in remaining:
                    remaining.remove(u)
                    comp.add(u)
                    stack.append(u)
        comps.append(comp)
    return comps


def oracle_articulation_points(g: Graph) -> set:
    base = len(oracle_components(g))
    cut = set()
    for v in g.nodes:
        rest = [u for u in g.nodes if u != v]
        if len(oracle_components(g.induced(rest))) > base:
            cut.add(v)
    return cut


def oracle_preferred_nodes(g: Graph):
    """(b_preferred, f_preferred, forts, p_preferred, pref) from the
    definitions, for a connected nonempty graph.

    A terminal path at v is a component of g minus v and its degree->=3
    nodes that holds a leaf of g and touches v. b-preferred: two or more
    terminal paths. f-preferred: a cut node v whose components of g - v
    that are fully observed from {v} attach to v by two or more edges in
    total; their union is v's fort. p-preferred: the first f-preferred node,
    in label byte order, with one such component attached by two or more
    edges that holds another f-preferred node. pref is {p} if there is one,
    else the b- and f-preferred nodes.
    """
    b_pref = set()
    for v in g.nodes:
        low = [u for u in g.nodes if u != v and g.degree(u) <= 2]
        terminal = [
            c for c in oracle_components(g.induced(low))
            if any(g.degree(u) == 1 for u in c) and c & set(g.neighbors(v))
        ]
        if len(terminal) >= 2:
            b_pref.add(v)
    forts = {}
    witnesses = {}
    # forts holds its keys in label byte order
    for v in sorted(oracle_articulation_points(g), key=lambda lab: lab.encode("utf-8")):
        observed = oracle_power_dominate(g, {v})
        rest = g.induced(u for u in g.nodes if u != v)
        full = [c for c in oracle_components(rest) if c <= observed]
        edges = [len(c & set(g.neighbors(v))) for c in full]
        if sum(edges) >= 2:
            forts[v] = frozenset().union(*full)
            witnesses[v] = [c for c, e in zip(full, edges) if e >= 2]
    f_pref = set(forts)
    p_pref = None
    for v in forts:
        if any(c & (f_pref - {v}) for c in witnesses[v]):
            p_pref = v
            break
    pref = {p_pref} if p_pref is not None else b_pref | f_pref
    return b_pref, f_pref, forts, p_pref, pref


def oracle_redundant_nodes(g: Graph, pref) -> set:
    """Nodes whose closed neighborhood is observed from the set pref."""
    observed = oracle_power_dominate(g, pref)
    return {v for v in g.nodes if v in observed and set(g.neighbors(v)) <= observed}


def oracle_shortest_distance(g: Graph, source, target):
    """Shortest path length by enumerating simple paths (tiny graphs only)."""
    best = None

    def dfs(v, visited, length):
        nonlocal best
        if v == target:
            if best is None or length < best:
                best = length
            return
        if best is not None and length >= best:
            return
        for u in g.neighbors(v):
            if u not in visited:
                dfs(u, visited | {u}, length + 1)

    dfs(source, {source}, 0)
    return best


def random_graph(seed: int, n: int, p: float) -> Graph:
    """Seeded G(n, p) without any connectivity requirement."""
    rng = random.Random(seed)
    labels = [str(i) for i in range(n)]
    edges = [
        (labels[i], labels[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return Graph(labels, edges)
