"""Solve pipeline: each connected component is solved by one level search
over a plan of seeds and candidates.

The search tests the seeds alone, then the seeds plus each k-combination
of the candidates for k = 1, 2, ... . The optimized plan is the contracted
component with the preferred nodes as seeds and the ordered non-redundant
nodes as candidates; the naive plan has no seeds and every node as a
candidate. Paths and cycles need no search. An optimized plan that exhausts
its candidates is followed by the naive plan, so the answer stays exact.

Levels are strict barriers: size k+1 is only searched once every k-subset
has failed, which is what makes the reported pdn exact. Every level is
scanned as blocks of combinations with common leading candidates, in this
process or on the pool, and the hits come back in rank order as tuples of
candidate positions, so the minimum-rank success wins at any worker count.
The pool is a ProcessPoolExecutor fed in rank order, about two blocks per
worker ahead. However a pooled scan ends (the level is done, a first hit,
an error, a dead worker, Ctrl-C), exit cancels the blocks not yet started
and waits for the running ones; no worker is killed, and a worker that dies
raises InternalError instead of hanging the scan.

A block is scanned as a depth-first walk over its combinations in rank
order. The seeds and the block's leading candidates are closed once; each
step down copies the parent's closed state (observed flags, counters,
count) and extends it by one candidate, so a k-subset pays for its last
candidate and a copy of O(n), not for the whole process. The walk keeps
one state per depth alive.

The collect-all scan behind allminpds also filters by zero-forcing forts
(Smith & Hicks, 2020): a set is a PDS iff it meets the closed neighborhood
of every fort. The forts are found lazily: a leaf that fails leaves an
unobserved remainder, which is shrunk to a minimal fort and added to a
table of bitmasks over the candidates, and a later leaf whose masks do not
cover every known fort is rejected for one int OR instead of a closure.
Each process keeps its own table (the scanner's, or one per pool worker),
so tables differ between workers, but only in the closures they save; the
hits and their order do not change. First-hit scans find no forts, so
nothing filters them: there nearly every failure is a new fort, and
shrinking one costs far more than the closures it saves.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from collections import deque
from dataclasses import dataclass
from functools import reduce
from itertools import islice
from operator import or_
from typing import FrozenSet, List, Optional, Sequence, Tuple

from .errors import InternalError, ParameterError
from .graph import Graph, connected_components, label_key
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


def default_workers() -> int:
    """The processors this process may run on less one, floor 1."""
    if hasattr(os, "sched_getaffinity"):
        return max(len(os.sched_getaffinity(0)) - 1, 1)
    return max((os.cpu_count() or 2) - 1, 1)


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
    baseline (N) and the reduced pipeline (N')."""
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
    n_naive = sum(math.comb(nodes_total, i) for i in range(pdn))
    reduced = contracted_total - p - d - r
    n_reduced = sum(math.comb(reduced, i) for i in range(max(pdn - p, 0)))
    return n_naive, n_reduced


# -- level scanning ----------------------------------------------------------

# the most ranks in one block; a level of at most this many is not pooled
_CHUNK = 4096

# (adj, seeds, cand) of the search a pool worker serves, and its fort table
_W_PAYLOAD = None
_W_FORTS = None


def _worker_init(adj, seeds, cand):
    global _W_PAYLOAD, _W_FORTS
    _W_PAYLOAD = (adj, seeds, cand)
    _W_FORTS = _Forts(adj, cand)


class _Forts:
    """The forts a collect-all scan has found, as bitmasks over candidate
    positions: bit i of masks[p] is set iff candidate p lies in the closed
    neighborhood N[F] of fort i, and full has one bit per fort. A set is a
    PDS iff it meets N[F] for every fort F, so a combination whose masks do
    not OR to full is no PDS."""

    def __init__(self, adj, cand):
        self._adj = adj
        self._pos = {v: p for p, v in enumerate(cand)}
        self.masks = [0] * len(cand)
        self.full = 0

    def add(self, fort: Sequence[int]) -> None:
        bit = self.full + 1
        self.full |= bit
        for v in set(_closed_neighborhoods(self._adj, fort)):
            p = self._pos.get(v)
            if p is not None:
                self.masks[p] |= bit


def _scan_range(
    adj, seeds, cand, k, head, lo, hi, first_only, forts: Optional[_Forts] = None
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

    The leaves are filtered by a table of forts (a fresh one when none is
    given), to which a collect-all scan adds the forts it finds; a first-hit
    scan adds none. The walk carries the OR of the prefix's masks, and a
    leaf whose OR misses a known fort is rejected without a closure. A leaf
    that passes and still fails leaves a new fort, which is shrunk to a
    minimal one and added to the table. A prefix is not closed at all when
    the later candidates cannot make up the forts it misses: one candidate
    short of a leaf, when no single later candidate does; further up, when
    all of them together do not. The table only grows, and a new fort is
    met by no ancestor of the leaf it came from, so the masks on the walk's
    stack stay exact. Every hit is still a full closure: the filter only
    rejects."""
    m, n, d = len(cand), len(adj), k - len(head)
    nbhd = [(v, *adj[v]) for v in cand]
    if forts is None:
        forts = _Forts(adj, cand)
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
                    if reached == n:
                        hits.append(prefix + (p,))
                        if first_only:
                            return True
                    elif not first_only:
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
    return _scan_range(*_W_PAYLOAD, *spec, _W_FORTS)


class _LevelScanner:
    """Scans levels of k-combinations of candidate positions, each added to
    the seeds, as _blocks: on a fork process pool when workers > 1 and the
    level has more than _CHUNK ranks, otherwise in this process. The pool is
    started on first need with the payload and lives for one search. A
    first-hit scan returns the first block with a hit, which is the
    minimum-rank hit since blocks come back in rank order. Exit cancels the
    blocks not yet started and waits for the running ones to finish, so no
    worker is killed. The in-process blocks share the scanner's fort table;
    each pool worker builds its own in _worker_init."""

    def __init__(self, adj, seeds, cand, workers: int):
        self._payload = (adj, seeds, cand)
        self._forts = _Forts(adj, cand)
        self._m = len(cand)
        self._workers = workers
        self._pool = None

    def __enter__(self) -> "_LevelScanner":
        return self

    def __exit__(self, *exc) -> None:
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)

    def scan(self, k: int, first_only: bool) -> List[Tuple[int, ...]]:
        """Successful combinations of positions of level k, in rank order."""
        specs = ((k, *block, first_only) for block in _blocks(self._m, k))
        if self._workers > 1 and math.comb(self._m, k) > _CHUNK:
            results = self._pooled(specs)
        else:
            results = (
                _scan_range(*self._payload, *spec, self._forts) for spec in specs
            )
        hits: List[Tuple[int, ...]] = []
        for block_hits in results:
            if first_only and block_hits:
                return block_hits
            hits.extend(block_hits)
        return hits

    def _pooled(self, specs):
        """The specs' results from the pool, in order. Two blocks per worker
        are submitted ahead, and one more each time a result is taken."""
        # imported here: at module top it would slow `import powerdom`
        from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

        if self._pool is None:
            fork = multiprocessing.get_context("fork")
            self._pool = ProcessPoolExecutor(self._workers, fork, _worker_init, self._payload)
        try:
            submit = self._pool.submit
            window = deque(submit(_scan_task, s) for s in islice(specs, 2 * self._workers))
            while window:
                block_hits = window.popleft().result()
                window.extend(submit(_scan_task, s) for s in islice(specs, 1))
                yield block_hits
        except BrokenProcessPool as exc:
            raise InternalError("a pool worker died") from exc


# -- component search ------------------------------------------------------


@dataclass
class _ComponentOutcome:
    contracted_n: int
    pdn: int = 0
    pds: Tuple[str, ...] = ()
    removed: int = 0
    pref_count: int = 0
    d: int = 0
    r: int = 0
    candidates: int = 0
    subsets_checked: int = 0
    levels_completed: int = 0
    pipeline: Optional[PipelineReport] = None


def _search(
    g: Graph,
    seeds: Sequence[str],
    cands: Sequence[str],
    workers: int,
    out: _ComponentOutcome,
) -> bool:
    """Test the seeds alone, then the seeds plus each k-combination of the
    candidates for k = 1, 2, ..., exhausting each level before the next.
    Add the subsets tested and the levels exhausted to out; on success set
    its pdn and pds (seeds, then the chosen candidates) and return True."""
    adj = g.adjacency
    seed_idx = tuple(g.index_of(v) for v in seeds)
    if seeds:
        out.subsets_checked += 1
        if observes_all(adj, seed_idx):
            out.pdn, out.pds = len(seeds), tuple(seeds)
            return True
    m = len(cands)
    cand_idx = tuple(g.index_of(v) for v in cands)
    with _LevelScanner(adj, seed_idx, cand_idx, workers) as scanner:
        for k in range(1, m + 1):
            hits = scanner.scan(k, first_only=True)
            if hits:
                chosen = tuple(cands[p] for p in hits[0])
                out.subsets_checked += combination_rank(m, hits[0]) + 1
                out.pdn, out.pds = len(seeds) + k, tuple(seeds) + chosen
                return True
            out.subsets_checked += math.comb(m, k)
            out.levels_completed += 1
    return False


def _solve_component(sub: Graph, cfg: SolverConfig) -> _ComponentOutcome:
    n = sub.node_count
    if cfg.mode == "naive":
        out = _ComponentOutcome(contracted_n=n, candidates=n)
    elif all(len(a) <= 2 for a in sub.adjacency):
        # path or cycle: any single node is a PDS
        return _ComponentOutcome(
            contracted_n=n, pdn=1, pds=(min(sub.nodes, key=label_key),), d=n
        )
    else:
        report = contract(sub)
        cg = report.contracted
        prep = preferred_nodes(cg)
        cands = candidate_list(cg, prep.pref)
        deg3 = [v for v in cg.nodes if cg.degree(v) >= 3]
        # Candidates are exactly the degree->=3 nodes that are neither preferred
        # nor redundant, so the redundant ones among the rest are the difference.
        free_deg3 = sum(1 for v in deg3 if v not in prep.pref)
        out = _ComponentOutcome(
            contracted_n=cg.node_count,
            removed=len(report.removed),
            pref_count=len(prep.pref),
            d=cg.node_count - len(deg3),
            r=free_deg3 - len(cands),
            candidates=len(cands),
            pipeline=PipelineReport(report, prep, tuple(cands)),
        )
        seeds = sorted(prep.pref, key=label_key)
        if _search(cg, seeds, [c.node for c in cands], cfg.workers, out):
            return out
        # Candidate levels exhausted without success. This is outside the
        # pipeline's structural guarantees; fall back to the naive plan so
        # the answer stays exact, keeping the pre-processing statistics of
        # the optimized attempt and adding up the subsets both tested.
        out.levels_completed = 0
    if not _search(sub, (), sorted(sub.nodes, key=label_key), cfg.workers, out):
        raise InternalError("exhausted all subsets without finding a PDS")
    return out


# -- public API ------------------------------------------------------------


def solve(g: Graph, config: Optional[SolverConfig] = None) -> SolveResult:
    """Compute the power domination number and a minimum PDS.

    Disconnected inputs are solved per component (pdn sums, placements
    union); the empty graph has pdn 0.
    """
    cfg = config or SolverConfig()
    comps = connected_components(g)
    outcomes = [_solve_component(g.induced(comp), cfg) for comp in comps]
    pdn = sum(o.pdn for o in outcomes)
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
        per_component=tuple((comp, o.pdn, o.pds) for comp, o in zip(comps, outcomes)),
        diagnostics=diag,
        pipeline=tuple(o.pipeline for o in outcomes),
    )


def allminpds(g: Graph, config: Optional[SolverConfig] = None) -> List[FrozenSet[str]]:
    """All minimum power dominating sets of the (original, uncontracted)
    graph, in deterministic enumeration order."""
    if g.node_count == 0:
        raise ParameterError("allminpds requires a nonempty graph")
    cfg = config or SolverConfig()
    k = solve(g, cfg).pdn
    labels = sorted(g.nodes, key=label_key)
    idx = tuple(g.index_of(v) for v in labels)
    with _LevelScanner(g.adjacency, (), idx, cfg.workers) as scanner:
        hits = scanner.scan(k, first_only=False)
    return [frozenset(labels[p] for p in hit) for hit in hits]
