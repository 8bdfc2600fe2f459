"""Solve pipeline: each connected component is solved by one level search
over a plan of seeds and candidates.

The search tests the seeds alone, then the seeds plus each k-combination
of the candidates for k = 1, 2, ... . The optimized plan is the contracted
component with the preferred nodes as seeds and the ordered non-redundant
nodes as candidates; the naive plan has no seeds and every node as a
candidate. Paths and cycles need no search. In both plans the seeds plus
all the candidates are a PDS (for the optimized plan: the degree->=3 nodes
of the contracted component are one, and a redundant node adds nothing to
the seeds' closure), so the last level always has a hit.

Levels are strict barriers: size k+1 is only searched once every k-subset
has failed, which is what makes the reported pdn exact. One function,
_scan_levels, runs a search's levels: every level is scanned as blocks of
combinations with common leading candidates, and the hits come back in
rank order as tuples of candidate positions, so the minimum-rank success
wins at any worker count. Every block runs on one payload, (adj, seeds,
cand, forts). A search scans its blocks in this process; at workers > 1,
once it has run _POOL_AFTER seconds, it hands every remaining block, of
this level and the later ones, to a fork pool, so a short search forks
no pool at all. The pool is a ProcessPoolExecutor fed in rank order,
about two blocks per worker ahead.
However a pooled scan ends (the level is done, a first hit, an error, a
dead worker, Ctrl-C), its shutdown cancels the blocks not yet started and
waits for the running ones; no worker is killed, and a worker that dies
raises InternalError instead of hanging the scan.

A block is scanned as a depth-first walk over its combinations in rank
order. The seeds and the block's leading candidates are closed once; each
step down copies the parent's closed state (observed flags, counters,
count) and extends it by one candidate, so a k-subset pays for its last
candidate and a copy of O(n), not for the whole process. The walk keeps
one state per depth alive.

Every scan, first-hit or collect-all, also filters by zero-forcing forts
(Smith & Hicks, 2020): a set is a PDS iff it meets the closed neighborhood
of every fort. The forts are found lazily: a leaf that fails leaves an
unobserved remainder, which is shrunk to a minimal fort and added to a
table of bitmasks over the candidates, and a later leaf whose masks do not
cover every known fort is rejected for one int OR instead of a closure.
The shrink probes the remainder's nodes with the most observed neighbors
first; any fixed order keeps a minimal fort, and this one keeps forts
whose closed neighborhoods are small, so they hold fewer candidate bits
and more leaves and prefixes miss them.
Shrinking a remainder costs up to one closure per node of it, so a scan
shrinks one only while the nodes of the remainders its table has shrunk
are at most the leaves it has closed; past that a failed leaf is just a
failure. A search has one table, in its payload, so the forts of level
k - 1 filter level k. A pool worker starts from a copy of it, with the
forts the in-process scan found before the pool started, and then
extends its copy alone, so the copies differ between workers, but only
in the closures they save; the hits and their order do not change.
"""

from __future__ import annotations

import math
import os
import signal
import time
from collections import deque
from dataclasses import dataclass
from functools import reduce
from itertools import chain, islice, product
from operator import or_
from typing import FrozenSet, List, Optional, Sequence, Tuple

from .errors import InternalError, ParameterError
from .graph import Graph, connected_components
from .propagation import (
    _closed_neighborhoods,
    _force_closure,
    _minimal_fort,
    _observe,
    is_power_dominating_set,
    observes_all,
)
from .reduction import (
    ContractionReport,
    PreferredReport,
    ScoredCandidate,
    candidate_list,
    contract,
    preferred_nodes,
)

__all__ = [
    "SolverConfig",
    "Diagnostics",
    "PipelineReport",
    "SolveResult",
    "solve",
    "allminpds",
    "subset_counts",
    "combination_unrank",
    "combination_rank",
    "default_workers",
]


def _cpus() -> int:
    """The processors this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 2


def default_workers() -> int:
    """The processors this process may run on less one, floor 1."""
    return max(_cpus() - 1, 1)


@dataclass(frozen=True)
class SolverConfig:
    workers: int = 1
    mode: str = "optimized"  # "optimized" | "naive"

    def __post_init__(self):
        if isinstance(self.workers, bool) or not isinstance(self.workers, int):
            raise ParameterError(f"workers must be an int, not {self.workers!r}")
        if self.workers < 1:
            raise ParameterError("workers must be >= 1")
        if self.mode not in ("optimized", "naive"):
            raise ParameterError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class Diagnostics:
    n_formula: int
    n_prime_formula: int
    p: int
    d: int
    r: int
    candidates: int
    removed_by_contraction: int
    subsets_checked: int
    levels_completed: int


@dataclass(frozen=True)
class PipelineReport:
    """The pre-processing that an optimized solve ran on one component."""

    contraction: ContractionReport
    preferred: PreferredReport
    candidates: Tuple[ScoredCandidate, ...]


@dataclass(frozen=True)
class SolveResult:
    pdn: int
    pds: Tuple[str, ...]
    per_component: Tuple[Tuple[FrozenSet[str], int, Tuple[str, ...]], ...]
    diagnostics: Diagnostics
    # One entry per component, aligned with per_component; None where no
    # pre-processing ran (trivial components and naive mode).
    pipeline: Tuple[Optional[PipelineReport], ...]


# -- combinatorics ---------------------------------------------------------


def combination_unrank(n: int, k: int, rank: int) -> List[int]:
    """rank-th k-combination of {0..n-1} in lexicographic order."""
    if n < 0 or k < 0 or k > n:
        raise ParameterError("need 0 <= k <= n")
    if not 0 <= rank < math.comb(n, k):
        raise ParameterError(f"rank {rank} out of range for C({n},{k})")
    combo = []
    next_val = 0
    remaining = rank
    for picked in range(k):
        for v in range(next_val, n):
            block = math.comb(n - 1 - v, k - 1 - picked)
            if remaining < block:
                combo.append(v)
                next_val = v + 1
                break
            remaining -= block
    return combo


def combination_rank(n: int, combo: Sequence[int]) -> int:
    """Lexicographic rank of a sorted k-combination of {0..n-1}."""
    k = len(combo)
    rank = 0
    prev = -1
    for picked, v in enumerate(combo):
        if not prev < v < n:
            raise ParameterError("combination must be strictly increasing in range")
        # the combinations that pick a value in (prev, v) here come first
        rank += math.comb(n - 1 - prev, k - picked) - math.comb(n - v, k - picked)
        prev = v
    return rank


def subset_counts(
    nodes_total: int,
    pdn: int,
    contracted_total: int,
    p: int,
    d: int,
    r: int,
) -> Tuple[int, int]:
    """Counts of subsets examined below the success size by the naive
    baseline (N) and the reduced pipeline (N'). Each sums its binomials by
    one running product (_comb_sum), so a count of thousands of digits costs
    one small multiply and one exact divide per term."""
    for name, value in (
        ("nodes_total", nodes_total),
        ("pdn", pdn),
        ("contracted_total", contracted_total),
        ("p", p),
        ("d", d),
        ("r", r),
    ):
        if value < 0:
            raise ParameterError(f"{name} must be non-negative")
    if p + d + r > contracted_total:
        raise ParameterError("p + d + r exceeds contracted node count")
    return _comb_sum(nodes_total, pdn), _comb_sum(contracted_total - p - d - r, pdn - p)


def _comb_sum(n: int, k: int) -> int:
    """The sum of C(n, i) over 0 <= i < k (0 when k <= 0), by the running
    product C(n, i + 1) = C(n, i) (n - i) / (i + 1): each step divides
    exactly, and every term past i = n is 0."""
    total, c = 0, 1
    for i in range(k):
        total += c
        c = c * (n - i) // (i + 1)
    return total


# -- level scanning ----------------------------------------------------------

# the most ranks in one block
_CHUNK = 4096

# the seconds a search scans in this process before, at workers > 1, it
# hands its remaining blocks to the pool
_POOL_AFTER = 0.2

# (adj, seeds, cand, forts) of the search a pool worker serves
_W_PAYLOAD = None


def _worker_init(*payload):
    global _W_PAYLOAD
    # a Ctrl-C stops the scanning thread, which cancels or waits for blocks
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _W_PAYLOAD = payload


class _Forts:
    """The forts the scans of one search have found, as bitmasks over
    candidate positions: bit i of masks[p] is set iff candidate p lies in the
    closed neighborhood N[F] of fort i, and full has one bit per fort. A set
    is a PDS iff it meets N[F] for every fort F, so a combination whose masks
    do not OR to full is no PDS.

    closures counts the leaves the scans have closed, and charge the nodes
    of the remainders they have shrunk: a shrink probes at most one closure
    per remainder node, so a scan shrinks a remainder only while charge is
    at most closures. A search makes one table, which its in-process blocks
    share and each pool worker copies when it starts."""

    def __init__(self, adj, cand):
        self._adj = adj
        self._pos = {v: p for p, v in enumerate(cand)}
        self.masks = [0] * len(cand)
        self.full = 0
        self.closures = 0
        self.charge = 0

    def add(self, fort: Sequence[int]) -> None:
        bit = self.full + 1
        self.full |= bit
        for v in set(_closed_neighborhoods(self._adj, fort)):
            p = self._pos.get(v)
            if p is not None:
                self.masks[p] |= bit


def _scan_range(
    adj, seeds, cand, forts: _Forts, k, head, lo, hi, first_only
) -> List[Tuple[int, ...]]:
    """Test the k-combinations of candidate positions that begin with head
    and then a position in [lo, hi), each added to the seeds; return the
    successful combinations of positions in order, only the first when
    first_only.

    The combinations are walked depth first in lexicographic order, which is
    rank order. The seeds plus the head are closed once; each step down
    copies the parent's closed state and extends it by one candidate's
    closed neighborhood, which is exact because the closure of A and B is
    the closure of closure(A) and B. A combination is successful iff its
    leaf observes every node. Only leaves are tested: the levels below k
    have failed, so no shorter prefix observes every node.

    The leaves are filtered by forts, the search's table, which the walk
    extends. The walk carries the OR of the prefix's masks, and a leaf whose
    OR misses a known fort is rejected without a closure. A leaf that
    passes and still fails leaves a new fort; while the table's shrink
    charge is at most its leaf closures, the fort is shrunk to a minimal
    one and added, and the charge grows by the nodes it started from, which
    bound the shrink's probe closures. first_only decides only where the
    walk stops. A prefix is not closed at all when the later candidates
    cannot make up the forts it misses: one candidate short of a leaf, when
    no single later candidate does; further up, when all of them together
    do not. The table only grows, and a new fort is met by no ancestor of
    the leaf it came from, so the masks on the walk's stack stay exact.
    Every hit is still a full closure: the filter only rejects."""
    m, n, d = len(cand), len(adj), k - len(head)
    nbhd = [(v, *adj[v]) for v in cand]
    cm = forts.masks
    hits: List[Tuple[int, ...]] = []

    def walk(observed, unobs, count, mask, prefix, start, stop, depth) -> bool:
        # depth candidates are still to be added, the first at a position in
        # [start, stop), to the positions prefix, whose masks OR to mask;
        # True when first_only and a hit was found
        if depth == 1:
            full = forts.full
            for p in range(start, stop):
                if mask | cm[p] == full:
                    flags, counters = observed[:], unobs[:]
                    reached = _force_closure(adj, flags, counters, nbhd[p], count)
                    forts.closures += 1
                    if reached == n:
                        hits.append(prefix + (p,))
                        if first_only:
                            return True
                    elif forts.charge <= forts.closures:
                        forts.charge += n - reached
                        forts.add(_minimal_fort(adj, flags, counters, reached))
                        full = forts.full
            return False
        for p in range(start, stop):
            below = mask | cm[p]
            # the forts the prefix and p miss, which the depth - 1 candidates
            # still to come must make up
            missing = forts.full & ~below
            if missing:
                later = cm[p + 1 :]
                if depth == 2:
                    # the one candidate to come must meet them all alone
                    dead = missing not in map(missing.__and__, later)
                else:
                    # the candidates to come meet at most their union
                    dead = missing & ~reduce(or_, later, 0)
                if dead:
                    continue
            flags, counters = observed[:], unobs[:]
            reached = _force_closure(adj, flags, counters, nbhd[p], count)
            if walk(
                flags, counters, reached, below, prefix + (p,), p + 1, m - depth + 2, depth - 1
            ):
                return True
        return False

    mask = reduce(or_, (cm[p] for p in head), 0)
    walk(*_observe(adj, seeds + tuple(cand[p] for p in head)), mask, head, lo, hi, d)
    return hits


def _blocks(m: int, k: int, head: Tuple[int, ...] = (), i: int = 0):
    """(head, lo, hi) blocks that cover, in rank order, the level's
    combinations that extend head by positions from i on; each has at most
    _CHUNK ranks."""
    d = k - len(head)
    while i + d <= m:
        j = i + 1
        if math.comb(m - 1 - i, d - 1) > _CHUNK:
            yield from _blocks(m, k, head + (i,), j)
        else:
            # widen [i, j) while [i, j + 1) holds at most _CHUNK ranks
            rest = math.comb(m - i, d) - _CHUNK
            while j + d <= m and math.comb(m - 1 - j, d) >= rest:
                j += 1
            yield head, i, j
        i = j


def _scan_task(spec):
    return _scan_range(*_W_PAYLOAD, *spec)


def _scan_levels(adj, seeds, cand, levels, first_only: bool, workers: int):
    """Scan the levels in order, each the k-combinations of candidate
    positions added to the seeds and each a barrier for the next. Return
    (k, hits) for the first level with a hit, its successful combinations
    in rank order (only the first when first_only), or None.

    A level runs as _blocks, and every block runs on one payload, (adj,
    seeds, cand, forts). The blocks run in this process until, at workers
    > 1, the search has run _POOL_AFTER seconds. From then on a fork
    process pool, of workers processes but no more than the CPUs this
    process may use, scans every remaining block, from the one at hand to
    the end of the last level; it starts with the payload, so a worker
    starts from the forts found so far and extends its own copy after
    that. The
    search's own clock decides, since the cost of a rank varies too much
    for a rank count to say when a pool pays. Blocks come back in rank
    order, the in-process ones first, so a first-hit level ends at its
    minimum-rank hit. However the scan ends, the pool's shutdown cancels
    the blocks not yet started and waits for the running ones, so no
    worker is killed."""
    payload = (adj, seeds, cand, _Forts(adj, cand))
    m = len(cand)
    pool = size = None
    handoff = time.perf_counter() + _POOL_AFTER

    def results(specs):
        nonlocal pool, size
        for spec in specs:
            if pool is None and workers > 1 and time.perf_counter() >= handoff:
                # imported here: at module top they would slow `import powerdom`
                import multiprocessing
                from concurrent.futures.process import ProcessPoolExecutor

                fork = multiprocessing.get_context("fork")
                size = min(workers, _cpus())
                pool = ProcessPoolExecutor(size, fork, _worker_init, payload)
            if pool is not None:
                yield from _pooled(pool, size, chain((spec,), specs))
                return
            yield _scan_range(*payload, *spec)

    try:
        for k in levels:
            hits: List[Tuple[int, ...]] = []
            for block_hits in results((k, *block, first_only) for block in _blocks(m, k)):
                hits += block_hits
                if first_only and hits:
                    break
            if hits:
                return k, hits
        return None
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def _pooled(pool, workers: int, specs):
    """The specs' results from the pool, in order. Two blocks per worker are
    submitted ahead, and one more each time a result is taken."""
    from concurrent.futures.process import BrokenProcessPool

    try:
        # The first submits start the workers and the executor's threads,
        # which inherit this mask; a Ctrl-C among them could leave the
        # executor unaware of a worker, so it is raised once they return.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            window = deque(pool.submit(_scan_task, s) for s in islice(specs, 2 * workers))
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        while window:
            block_hits = window.popleft().result()
            window.extend(pool.submit(_scan_task, s) for s in islice(specs, 1))
            yield block_hits
    except BrokenProcessPool as exc:
        raise InternalError("a pool worker died") from exc


# -- component search ------------------------------------------------------


@dataclass(frozen=True)
class _ComponentOutcome:
    contracted_n: int
    pds: Tuple[str, ...]
    removed: int = 0
    pref_count: int = 0
    d: int = 0
    r: int = 0
    candidates: int = 0
    subsets_checked: int = 0
    levels_completed: int = 0
    pipeline: Optional[PipelineReport] = None


def _search(
    g: Graph, seeds: Sequence[str], cands: Sequence[str], workers: int
) -> Tuple[Tuple[str, ...], int, int]:
    """Test the seeds alone, then the seeds plus each k-combination of the
    candidates for k = 1, 2, ..., exhausting each level before the next.
    Return the first PDS found (seeds, then the chosen candidates), the
    subsets tested and the levels exhausted. Both plans make the seeds plus
    all the candidates a PDS, so running out of levels is an InternalError."""
    adj = g.adjacency
    seed_idx = tuple(g.index_of(v) for v in seeds)
    if seeds and observes_all(adj, seed_idx):
        return tuple(seeds), 1, 0
    m = len(cands)
    cand_idx = tuple(g.index_of(v) for v in cands)
    found = _scan_levels(adj, seed_idx, cand_idx, range(1, m + 1), True, workers)
    if found is None:
        raise InternalError("exhausted all subsets without finding a PDS")
    k, (hit,) = found
    # the seeds alone, every set of the failed levels, and level k up to the hit
    checked = bool(seeds) + sum(math.comb(m, j) for j in range(1, k))
    checked += combination_rank(m, hit) + 1
    return tuple(seeds) + tuple(cands[p] for p in hit), checked, k - 1


def _solve_component(sub: Graph, cfg: SolverConfig) -> _ComponentOutcome:
    n = sub.node_count
    if cfg.mode == "naive":
        pds, checked, levels = _search(sub, (), sorted(sub.nodes), cfg.workers)
        return _ComponentOutcome(
            n, pds, candidates=n, subsets_checked=checked, levels_completed=levels
        )
    if all(len(a) <= 2 for a in sub.adjacency):
        # path or cycle: any single node is a PDS
        return _ComponentOutcome(n, (min(sub.nodes),), d=n)
    report = contract(sub)
    cg = report.contracted
    prep = preferred_nodes(cg)
    cands = candidate_list(cg, prep.pref)
    deg3 = sum(1 for a in cg.adjacency if len(a) >= 3)
    pds, checked, levels = _search(
        cg, sorted(prep.pref), [c.node for c in cands], cfg.workers
    )
    return _ComponentOutcome(
        cg.node_count,
        pds,
        removed=len(report.removed),
        pref_count=len(prep.pref),
        d=cg.node_count - deg3,
        # preferred nodes have degree >= 3: a degree-2 one needs two terminal paths
        r=deg3 - len(prep.pref) - len(cands),
        candidates=len(cands),
        subsets_checked=checked,
        levels_completed=levels,
        pipeline=PipelineReport(report, prep, tuple(cands)),
    )


# -- public API ------------------------------------------------------------


def solve(g: Graph, config: Optional[SolverConfig] = None) -> SolveResult:
    """Compute the power domination number and a minimum PDS.

    Disconnected inputs are solved per component (pdn sums, placements
    union); the empty graph has pdn 0.
    """
    cfg = config or SolverConfig()
    comps = connected_components(g)
    outcomes = [_solve_component(g.induced(comp), cfg) for comp in comps]
    pdn = sum(len(o.pds) for o in outcomes)
    pds: Tuple[str, ...] = tuple(v for o in outcomes for v in o.pds)
    if g.node_count and not is_power_dominating_set(g, pds):
        raise InternalError("solver returned a set that fails verification")
    p = sum(o.pref_count for o in outcomes)
    d = sum(o.d for o in outcomes)
    r = sum(o.r for o in outcomes)
    contracted_total = sum(o.contracted_n for o in outcomes)
    n_formula, n_prime = subset_counts(g.node_count, pdn, contracted_total, p, d, r)
    diag = Diagnostics(
        n_formula=n_formula,
        n_prime_formula=n_prime,
        p=p,
        d=d,
        r=r,
        candidates=sum(o.candidates for o in outcomes),
        removed_by_contraction=sum(o.removed for o in outcomes),
        subsets_checked=sum(o.subsets_checked for o in outcomes),
        levels_completed=sum(o.levels_completed for o in outcomes),
    )
    return SolveResult(
        pdn=pdn,
        pds=pds,
        per_component=tuple((comp, len(o.pds), o.pds) for comp, o in zip(comps, outcomes)),
        diagnostics=diag,
        pipeline=tuple(o.pipeline for o in outcomes),
    )


def allminpds(g: Graph, config: Optional[SolverConfig] = None) -> List[FrozenSet[str]]:
    """All minimum power dominating sets of the (original, uncontracted)
    graph, in the order of itertools.combinations(sorted(g.nodes), pdn).

    Each component's sets are enumerated at its own pdn, and each set of
    the graph joins one set of every component."""
    if g.node_count == 0:
        raise ParameterError("allminpds requires a nonempty graph")
    cfg = config or SolverConfig()
    per_component = []
    for comp, k, _ in solve(g, cfg).per_component:
        sub = g.induced(comp)
        labels = sorted(comp)
        idx = tuple(sub.index_of(v) for v in labels)
        _, hits = _scan_levels(sub.adjacency, (), idx, (k,), False, cfg.workers)
        per_component.append([tuple(labels[p] for p in hit) for hit in hits])
    sets = sorted(tuple(sorted(chain(*parts))) for parts in product(*per_component))
    return [frozenset(s) for s in sets]
