"""The power domination process: domination step, zero-forcing closure,
PDS verification, and forcing-chain extraction.

All functions are pure. One zero-forcing kernel, ``_force_closure``, runs
the process: it extends a closed state (observed flags, an
unobserved-neighbor counter for each observed node, and the observed count)
by a set of nodes, and costs the degrees of the nodes it newly observes
(its docstring gives the marking rules). A run from scratch also pays O(n)
for its zeroed state, and the level search pays O(n) for each copy of a
state it extends, so a k-subset that shares its first k-1 nodes with the
previous one pays only for its last node. Every scan pays even that only
for k-subsets that meet the closed neighborhood of every fort it knows; it
finds the forts with ``_minimal_fort``, which shrinks the unobserved
remainder of a failed closed state to a minimal fort with at most one probe
closure per node of it. It probes the nodes with the most observed
neighbors first, so the fort it keeps tends to have a small closed
neighborhood, which fewer sets meet.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import Collection, Iterable, Iterator, List, Optional, Sequence, Tuple

from .graph import Graph

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
    unobs: List[int],
    nodes: Iterable[int],
    count: int,
    log: Optional[list] = None,
) -> int:
    """Extend a closed state by nodes: mark them observed, then run the
    zero-forcing rule to a fixed point; return the new observed count.

    A closed state is the observed flags, the observed count, and an
    unobserved-neighbor counter for each observed node, at a fixed point;
    the empty state is all zero. Mutates observed and unobs in place and
    appends (forcer, forced) index pairs to log when one is given.

    Marking a node gives it a counter of its unobserved neighbors and takes
    one off each observed neighbor's; a node whose counter is or falls to 1
    is queued as a forcer. The unobserved ones among nodes are marked as one
    batch, in order and once each, flagged 2 ("marked in this call") until
    every batch counter is set, so they do not count one another. The queue
    takes an observed neighbor when its counter falls and a batch node once
    its own is set, in the order of nodes; this order fixes zero_force's
    force log. Each force marks the forced node alone, so the work follows
    the degrees of the nodes newly observed, not the whole graph. Once every
    node is observed the counters are left as they are: nothing can force."""
    n = len(adj)
    new = []
    for v in nodes:
        if not observed[v]:
            observed[v] = 2  # marked in this call
            new.append(v)
    count += len(new)
    if count == n:
        observed[:] = b"\x01" * n
        return count
    queue: deque = deque()
    for v in new:
        c = 0
        for u in adj[v]:
            o = observed[u]
            if o == 1:
                unobs[u] -= 1
                if unobs[u] == 1:
                    queue.append(u)
            elif not o:
                c += 1
        unobs[v] = c
        if c == 1:
            queue.append(v)
    for v in new:
        observed[v] = 1
    while queue:
        v = queue.popleft()
        if unobs[v] != 1:
            continue
        w = next(u for u in adj[v] if not observed[u])
        if log is not None:
            log.append((v, w))
        # the batch loop's marking of w alone, kept apart: one shared loop
        # for the batch and each forced node was about 10 % slower
        observed[w] = 1
        count += 1
        if count == n:
            break
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


def _minimal_fort(
    adj: Sequence[Sequence[int]], observed: bytearray, unobs: List[int], count: int
) -> List[int]:
    """The unobserved nodes of a closed state short of every node, shrunk to
    a minimal fort; the state is left as it is.

    A fort is a nonempty node set F that no node outside it has exactly one
    neighbor in, and the unobserved remainder of a closed state is one. Each
    node x of F is probed once: the closure of x and the nodes outside F
    either leaves a smaller fort, which replaces F, or observes every node,
    and then the probe fails.

    The fort kept is minimal for any fixed probe order. A probe of x that
    fails puts x in every fort inside the current F: the nodes outside such
    a fort never observe it, and closure is monotone. So no fort F' lies
    strictly inside the final F: a node x of F outside F' was probed while
    F' was inside the current F, and its probe failed, which puts x in F'.

    The order picks which minimal fort is kept: the nodes with the most
    observed neighbors go first, ties in index order. Such a node widens
    N[F], and probing it early drops it wherever the current F holds a fort
    without it. A fort with a small N[F] is met by fewer candidate sets, so
    it rejects more of them."""
    n = len(adj)
    rest = [v for v in range(n) if not observed[v]]
    rest.sort(key=lambda v: sum(observed[u] for u in adj[v]), reverse=True)
    for x in rest:
        if observed[x]:
            continue
        flags, counters = observed[:], unobs[:]
        reached = _force_closure(adj, flags, counters, (x,), count)
        if reached < n:
            observed, unobs, count = flags, counters, reached
    return [v for v in range(n) if not observed[v]]


def _closed_neighborhoods(
    adj: Sequence[Sequence[int]], seeds: Collection[int]
) -> Iterator[int]:
    """The seeds, then their neighbors: the nodes the domination step
    observes (with repeats)."""
    return chain(seeds, chain.from_iterable(map(adj.__getitem__, seeds)))


def _observe(
    adj: Sequence[Sequence[int]], seeds: Collection[int]
) -> Tuple[bytearray, List[int], int]:
    """Run the power domination process from the given seed indices; return
    its closed state: the observed flags, the counters and the count."""
    n = len(adj)
    observed, unobs = bytearray(n), [0] * n
    count = _force_closure(adj, observed, unobs, _closed_neighborhoods(adj, seeds), 0)
    return observed, unobs, count


def observes_all(adj: Sequence[Sequence[int]], seeds: Collection[int]) -> bool:
    """Fast check: does the power domination process started from the given
    seed indices observe every node?"""
    return _observe(adj, seeds)[2] == len(adj)


def dominate(g: Graph, pmus: Iterable[str]) -> ObservationState:
    """Domination step: observe the closed neighborhoods of the PMU nodes."""
    marked = _closed_neighborhoods(g.adjacency, _indices(g, pmus))
    return ObservationState(frozenset(g.label_at(i) for i in marked), ())


def zero_force(g: Graph, state: ObservationState) -> ObservationState:
    """Apply the forcing rule to a fixed point, extending the force log.
    The observed nodes queue as forcers in index order."""
    n = g.node_count
    observed = bytearray(n)
    log: list = []
    marked = sorted(_indices(g, state.observed))
    _force_closure(g.adjacency, observed, [0] * n, marked, 0, log)
    return ObservationState(
        frozenset(g.label_at(i) for i in range(n) if observed[i]),
        state.force_log + tuple((g.label_at(a), g.label_at(b)) for a, b in log),
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
    # an unknown label raises NotFoundError here, before sorting raises TypeError
    for p in pmu_set:
        g.index_of(p)
    pmu_sorted = sorted(pmu_set)
    attributed = {}
    for p in pmu_sorted:
        for w in g.neighbors(p):
            if w not in pmu_set and w not in attributed:
                attributed[w] = p
    state = power_dominate(g, pmu_set)
    forces = {forcer: forced for forcer, forced in state.force_log}
    chains = []
    for p in pmu_sorted:
        # a PMU never forces: the domination step observes all its neighbors
        for chain in ([p, w] for w in g.neighbors(p) if attributed.get(w) == p):
            while chain[-1] in forces:
                chain.append(forces[chain[-1]])
            chains.append(ForcingChain(tuple(chain)))
    return chains
