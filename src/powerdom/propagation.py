"""The power domination process: domination step, zero-forcing closure,
PDS verification, and forcing-chain extraction.

All functions are pure. One index-level domination step, ``_dominate``,
and one zero-forcing kernel, ``_force_closure``, run the process. The
kernel keeps an unobserved-neighbor counter only for observed nodes and
fills a node's counter when the node becomes observed, so a run costs O(n)
for its flag array plus the degrees of the nodes it observes, however
little of the graph that is.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from .graph import Graph, label_key

__all__ = [
    "ObservationState",
    "ForcingChain",
    "dominate",
    "zero_force",
    "power_dominate",
    "is_power_dominating_set",
    "forcing_chains",
]


@dataclass(frozen=True)
class ObservationState:
    """Observed node set plus the ordered log of applied forces."""

    observed: frozenset
    force_log: Tuple[Tuple[str, str], ...]


@dataclass(frozen=True)
class ForcingChain:
    """Maximal path along which observation propagated from a root."""

    nodes: Tuple[str, ...]


def _indices(g: Graph, labels: Iterable[str]) -> List[int]:
    return [g.index_of(lab) for lab in labels]


def _force_closure(
    adj: Sequence[Sequence[int]],
    observed: bytearray,
    marked: Sequence[int],
    log: Optional[list] = None,
) -> int:
    """Run the zero-forcing rule to a fixed point from the observed nodes
    listed in marked (each flagged in observed, no repeats); return the
    final observed count. Mutates observed in place and appends (forcer,
    forced) index pairs to log when one is given.

    Forcers are queued in the order of marked, then as they reach one
    unobserved neighbor. Counters exist only for observed nodes, so the
    work follows the degrees of the nodes observed, not the whole graph."""
    n = len(adj)
    count = len(marked)
    if count == n:
        return count
    unobs = [0] * n
    queue = deque()
    for v in marked:
        unobs[v] = c = sum(1 for u in adj[v] if not observed[u])
        if c == 1:
            queue.append(v)
    while queue:
        v = queue.popleft()
        if unobs[v] != 1:
            continue
        w = next(u for u in adj[v] if not observed[u])
        observed[w] = 1
        count += 1
        if log is not None:
            log.append((v, w))
        if count == n:
            return count
        c = 0
        for x in adj[w]:
            if observed[x]:
                unobs[x] -= 1
                if unobs[x] == 1:
                    queue.append(x)
            else:
                c += 1
        unobs[w] = c
        if c == 1:
            queue.append(w)
    return count


def _dominate(
    adj: Sequence[Sequence[int]], seeds: Iterable[int]
) -> Tuple[bytearray, List[int]]:
    """Domination step from the given seed indices: flag each seed and its
    neighbors as observed; return the flags and the flagged indices, each
    once, in the order flagged."""
    observed = bytearray(len(adj))
    marked = []
    for s in seeds:
        if not observed[s]:
            observed[s] = 1
            marked.append(s)
        for u in adj[s]:
            if not observed[u]:
                observed[u] = 1
                marked.append(u)
    return observed, marked


def _observe(adj: Sequence[Sequence[int]], seeds: Iterable[int]) -> bytearray:
    """Run the power domination process from the given seed indices;
    return the observed flags."""
    observed, marked = _dominate(adj, seeds)
    _force_closure(adj, observed, marked)
    return observed


def observes_all(adj: Sequence[Sequence[int]], seeds: Iterable[int]) -> bool:
    """Fast check: does the power domination process started from the given
    seed indices observe every node? Index-level hot path for the search."""
    observed, marked = _dominate(adj, seeds)
    return _force_closure(adj, observed, marked) == len(adj)


def _closed_state(g: Graph, marked: List[int], force_log: tuple) -> ObservationState:
    """Run the zero-forcing closure from the observed indices in marked (no
    repeats; forcers queue in this order) and return the result in labels,
    with the new forces appended to force_log."""
    observed = bytearray(g.node_count)
    for i in marked:
        observed[i] = 1
    log: list = []
    _force_closure(g.adjacency, observed, marked, log)
    return ObservationState(
        frozenset(g.label_at(i) for i in range(g.node_count) if observed[i]),
        force_log + tuple((g.label_at(a), g.label_at(b)) for a, b in log),
    )


def dominate(g: Graph, pmus: Iterable[str]) -> ObservationState:
    """Domination step: observe the closed neighborhoods of the PMU nodes."""
    _, marked = _dominate(g.adjacency, _indices(g, pmus))
    return ObservationState(frozenset(g.label_at(i) for i in marked), ())


def zero_force(g: Graph, state: ObservationState) -> ObservationState:
    """Apply the forcing rule to a fixed point, extending the force log."""
    return _closed_state(g, sorted(_indices(g, state.observed)), state.force_log)


def power_dominate(g: Graph, pmus: Iterable[str]) -> ObservationState:
    """Full process: domination step followed by the zero-forcing closure."""
    _, marked = _dominate(g.adjacency, _indices(g, pmus))
    # sorted so forcers queue in index order, as in zero_force(g, dominate(g, pmus))
    return _closed_state(g, sorted(marked), ())


def is_power_dominating_set(g: Graph, pmus: Iterable[str]) -> bool:
    """True iff the process started from pmus observes every node."""
    return observes_all(g.adjacency, _indices(g, pmus))


def forcing_chains(g: Graph, pmus: Iterable[str]) -> List[ForcingChain]:
    """Assemble maximal propagation chains rooted at the PMU nodes.

    Each node observed in the domination step is attributed to one adjacent
    PMU (ties broken by label order); forced links extend chains from there.
    Every force-log entry belongs to exactly one chain.
    """
    pmu_set = set(pmus)
    for p in pmu_set:
        g.index_of(p)
    pmu_sorted = sorted(pmu_set, key=label_key)
    attributed = {}
    for p in pmu_sorted:
        for w in g.neighbors(p):
            if w not in pmu_set and w not in attributed:
                attributed[w] = p
    state = power_dominate(g, pmu_set)
    forces = {forcer: forced for forcer, forced in state.force_log}
    chains = []
    for p in pmu_sorted:
        # chains through the attributed neighbours first, then the PMU's own
        starts = [[p, w] for w in g.neighbors(p) if attributed.get(w) == p]
        if p in forces:
            starts.append([p])
        for chain in starts:
            while chain[-1] in forces:
                chain.append(forces[chain[-1]])
            chains.append(ForcingChain(tuple(chain)))
    return chains
