"""The power domination process: domination step, zero-forcing closure,
PDS verification, and forcing-chain extraction.

All functions are pure; a single run touches each edge O(1) times
amortized via per-node unobserved-neighbor counters.
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
    count: int,
    log: Optional[list] = None,
) -> int:
    """Run the zero-forcing rule to a fixed point from the count observed
    nodes; return the final observed count. Mutates observed in place and
    appends (forcer, forced) index pairs to log when one is given."""
    n = len(adj)
    if count == n:
        return count
    unobs = [0] * n
    for v in range(n):
        unobs[v] = sum(1 for u in adj[v] if not observed[u])
    queue = deque(v for v in range(n) if observed[v] and unobs[v] == 1)
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
        for x in adj[w]:
            unobs[x] -= 1
            if observed[x] and unobs[x] == 1:
                queue.append(x)
        if unobs[w] == 1:
            queue.append(w)
    return count


def observes_all(adj: Sequence[Sequence[int]], seeds: Iterable[int]) -> bool:
    """Fast check: does the power domination process started from the given
    seed indices observe every node? Index-level hot path for the search."""
    n = len(adj)
    if n == 0:
        return True
    observed = bytearray(n)
    count = 0
    for s in seeds:
        if not observed[s]:
            observed[s] = 1
            count += 1
        for u in adj[s]:
            if not observed[u]:
                observed[u] = 1
                count += 1
    if count == n:
        return True
    if count == 0:
        return False
    return _force_closure(adj, observed, count) == n


def dominate(g: Graph, pmus: Iterable[str]) -> ObservationState:
    """Domination step: observe the closed neighborhoods of the PMU nodes."""
    observed = set()
    for i in _indices(g, pmus):
        observed.add(i)
        observed.update(g.adjacency[i])
    return ObservationState(
        frozenset(g.label_at(i) for i in observed), ()
    )


def zero_force(g: Graph, state: ObservationState) -> ObservationState:
    """Apply the forcing rule to a fixed point, extending the force log."""
    n = g.node_count
    observed = bytearray(n)
    for i in _indices(g, state.observed):
        observed[i] = 1
    log: list = []
    _force_closure(g.adjacency, observed, len(state.observed), log)
    new_entries = tuple((g.label_at(a), g.label_at(b)) for a, b in log)
    return ObservationState(
        frozenset(g.label_at(i) for i in range(n) if observed[i]),
        state.force_log + new_entries,
    )


def power_dominate(g: Graph, pmus: Iterable[str]) -> ObservationState:
    """Full process: domination step followed by the zero-forcing closure."""
    return zero_force(g, dominate(g, pmus))


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
        for w in g.neighbors(p):
            if attributed.get(w) != p:
                continue
            chain = [p, w]
            while chain[-1] in forces:
                chain.append(forces[chain[-1]])
            chains.append(ForcingChain(tuple(chain)))
        if p in forces:
            chain = [p]
            while chain[-1] in forces:
                chain.append(forces[chain[-1]])
            chains.append(ForcingChain(tuple(chain)))
    return chains
