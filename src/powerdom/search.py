"""Solve pipeline: components, trivial cases, contraction, preferred nodes,
candidate ordering, and level-by-level subset search, with a naive
unrestricted search as the reference mode.

Levels are strict barriers: size k+1 is only searched once every k-subset
has failed, which is what makes the reported pdn exact. Within a level,
workers scan contiguous chunks of combination ranks and return their hits
in rank order, so the minimum-rank success wins at any worker count.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import FrozenSet, List, Optional, Sequence, Tuple

from .errors import InternalError, ParameterError
from .graph import Graph, connected_components, label_key
from .propagation import is_power_dominating_set, observes_all
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
    """Available processors less one, floor 1."""
    return max((os.cpu_count() or 2) - 1, 1)


@dataclass(frozen=True)
class SolverConfig:
    workers: int = 1
    mode: str = "optimized"  # "optimized" | "naive"
    chunk_size: int = 4096

    def __post_init__(self):
        if self.workers < 1:
            raise ParameterError("workers must be >= 1")
        if self.chunk_size < 1:
            raise ParameterError("chunk_size must be >= 1")
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
        for w in range(prev + 1, v):
            rank += math.comb(n - 1 - w, k - 1 - picked)
        prev = v
    return rank


def _next_combination(combo: List[int], n: int) -> bool:
    """Advance to the lexicographic successor in place; False at the end."""
    k = len(combo)
    i = k - 1
    while i >= 0 and combo[i] == n - k + i:
        i -= 1
    if i < 0:
        return False
    combo[i] += 1
    for j in range(i + 1, k):
        combo[j] = combo[j - 1] + 1
    return True


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


# -- chunk scanning ----------------------------------------------------------

_POLL_MASK = 1023

_W_ADJ = None
_W_SEEDS = None
_W_CAND = None
_W_STOP = None


def _worker_init(adj, seeds, cand, stop):
    global _W_ADJ, _W_SEEDS, _W_CAND, _W_STOP
    _W_ADJ = adj
    _W_SEEDS = seeds
    _W_CAND = cand
    _W_STOP = stop


def _scan_range(adj, seeds, cand, k, start, end, first_only, stop=None) -> List[int]:
    """Test ranks [start, end) of k-combinations of candidate positions,
    each added to the seeds; return the successful ranks in order, stopping
    at the first when first_only. A raised stop flag, polled every 1024
    ranks, ends the scan early."""
    m = len(cand)
    combo = combination_unrank(m, k, start)
    hits = []
    for rank in range(start, end):
        if stop is not None and (rank - start) & _POLL_MASK == 0 and stop.value:
            break
        if observes_all(adj, seeds + tuple(cand[p] for p in combo)):
            hits.append(rank)
            if first_only:
                break
        _next_combination(combo, m)
    return hits


def _scan_task(spec):
    k, start, end, first_only = spec
    return _scan_range(_W_ADJ, _W_SEEDS, _W_CAND, k, start, end, first_only, _W_STOP)


class _WorkerTeam:
    """Process pool sharing an immutable search payload and an early-stop
    flag. Chunk results come back in rank order and only this process
    raises the flag, so a first-hit scan returns the minimum-rank hit."""

    def __init__(self, workers: int, adj, seeds, cand):
        ctx = multiprocessing.get_context("fork")
        self._stop = ctx.Value("b", 0, lock=False)
        self._pool = ctx.Pool(
            workers,
            initializer=_worker_init,
            initargs=(adj, seeds, cand, self._stop),
        )

    def scan_level(self, k: int, total: int, chunk: int, first_only: bool) -> List[int]:
        self._stop.value = 0
        specs = (
            (k, s, min(s + chunk, total), first_only) for s in range(0, total, chunk)
        )
        hits: List[int] = []
        for chunk_hits in self._pool.imap(_scan_task, specs):
            hits.extend(chunk_hits)
            if first_only and hits:
                self._stop.value = 1
        return hits[:1] if first_only else hits

    def close(self):
        self._pool.terminate()
        self._pool.join()


@contextmanager
def _level_scanner(adj, seeds: Tuple[int, ...], cand: Tuple[int, ...], cfg: SolverConfig):
    """Yield scan(k, first_only) -> successful ranks of level k. A level runs
    in this process unless workers > 1 and it spans more than one chunk; the
    pool is started on first need and stopped on exit."""
    m = len(cand)
    team = None

    def scan(k: int, first_only: bool) -> List[int]:
        nonlocal team
        total = math.comb(m, k)
        if cfg.workers > 1 and total > cfg.chunk_size:
            if team is None:
                team = _WorkerTeam(cfg.workers, adj, seeds, cand)
            return team.scan_level(k, total, cfg.chunk_size, first_only)
        return _scan_range(adj, seeds, cand, k, 0, total, first_only)

    try:
        yield scan
    finally:
        if team is not None:
            team.close()


# -- level search ----------------------------------------------------------


@dataclass
class _LevelSearchOutcome:
    k: int = 0
    combo_positions: Optional[List[int]] = None
    checked: int = 0
    levels_completed: int = 0


def _search_levels(
    adj,
    seeds: Tuple[int, ...],
    cand_idx: Tuple[int, ...],
    cfg: SolverConfig,
) -> _LevelSearchOutcome:
    """Search levels k = 1, 2, ... over the candidate positions, testing
    seeds + combination. Each level is exhausted before the next begins."""
    out = _LevelSearchOutcome()
    m = len(cand_idx)
    with _level_scanner(adj, seeds, cand_idx, cfg) as scan:
        for k in range(1, m + 1):
            hits = scan(k, first_only=True)
            if hits:
                out.k = k
                out.combo_positions = combination_unrank(m, k, hits[0])
                out.checked += hits[0] + 1
                return out
            out.checked += math.comb(m, k)
            out.levels_completed += 1
    return out


# -- per-component solvers -------------------------------------------------


@dataclass
class _ComponentOutcome:
    pdn: int
    pds: Tuple[str, ...]
    contracted_n: int
    removed: int = 0
    pref_count: int = 0
    d: int = 0
    r: int = 0
    candidates: int = 0
    subsets_checked: int = 0
    levels_completed: int = 0
    pipeline: Optional[PipelineReport] = None


def _solve_trivial_component(sub: Graph) -> _ComponentOutcome:
    # path or cycle: any single node is a PDS
    node = min(sub.nodes, key=label_key)
    return _ComponentOutcome(
        pdn=1,
        pds=(node,),
        contracted_n=sub.node_count,
        d=sub.node_count,
    )


def _solve_optimized_component(sub: Graph, cfg: SolverConfig) -> _ComponentOutcome:
    if all(len(a) <= 2 for a in sub.adjacency):
        return _solve_trivial_component(sub)
    report = contract(sub)
    cg = report.contracted
    prep = preferred_nodes(cg)
    pref_sorted = sorted(prep.pref, key=label_key)
    cands = candidate_list(cg, prep.pref)
    cand_labels = [c.node for c in cands]
    deg3 = [v for v in cg.nodes if cg.degree(v) >= 3]
    # Candidates are exactly the degree->=3 nodes that are neither preferred
    # nor redundant, so the redundant ones among the rest are the difference.
    free_deg3 = sum(1 for v in deg3 if v not in prep.pref)
    out = _ComponentOutcome(
        pdn=0,
        pds=(),
        contracted_n=cg.node_count,
        removed=len(report.removed),
        pref_count=len(prep.pref),
        d=cg.node_count - len(deg3),
        r=free_deg3 - len(cands),
        candidates=len(cands),
        pipeline=PipelineReport(report, prep, tuple(cands)),
    )
    cadj = cg.adjacency
    seeds = tuple(cg.index_of(v) for v in pref_sorted)
    if pref_sorted:
        out.subsets_checked += 1
        if observes_all(cadj, seeds):
            out.pdn = len(pref_sorted)
            out.pds = tuple(pref_sorted)
            return out
    cand_idx = tuple(cg.index_of(v) for v in cand_labels)
    level = _search_levels(cadj, seeds, cand_idx, cfg)
    out.subsets_checked += level.checked
    out.levels_completed = level.levels_completed
    if level.combo_positions is not None:
        chosen = tuple(cand_labels[p] for p in level.combo_positions)
        out.pdn = len(pref_sorted) + level.k
        out.pds = tuple(pref_sorted) + chosen
        return out
    # Candidate levels exhausted without success. This is outside the
    # pipeline's structural guarantees; fall back to an unrestricted
    # enumeration so the answer stays exact, keeping the pre-processing
    # statistics of the optimized attempt.
    naive = _solve_naive_component(sub, cfg)
    return replace(
        out,
        pdn=naive.pdn,
        pds=naive.pds,
        subsets_checked=out.subsets_checked + naive.subsets_checked,
        levels_completed=naive.levels_completed,
    )


def _solve_naive_component(sub: Graph, cfg: SolverConfig) -> _ComponentOutcome:
    labels = sorted(sub.nodes, key=label_key)
    idx = tuple(sub.index_of(v) for v in labels)
    level = _search_levels(sub.adjacency, (), idx, cfg)
    if level.combo_positions is None:
        raise InternalError("exhausted all subsets without finding a PDS")
    return _ComponentOutcome(
        pdn=level.k,
        pds=tuple(labels[p] for p in level.combo_positions),
        contracted_n=sub.node_count,
        candidates=sub.node_count,
        subsets_checked=level.checked,
        levels_completed=level.levels_completed,
    )


# -- public API ------------------------------------------------------------


def solve(g: Graph, config: Optional[SolverConfig] = None) -> SolveResult:
    """Compute the power domination number and a minimum PDS.

    Disconnected inputs are solved per component (pdn sums, placements
    union); the empty graph has pdn 0.
    """
    cfg = config or SolverConfig()
    solve_component = (
        _solve_naive_component if cfg.mode == "naive" else _solve_optimized_component
    )
    comps = connected_components(g)
    outcomes = [solve_component(g.induced(comp), cfg) for comp in comps]
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
    with _level_scanner(g.adjacency, (), idx, cfg) as scan:
        hits = scan(k, first_only=False)
    return [
        frozenset(labels[p] for p in combination_unrank(len(labels), k, rank))
        for rank in hits
    ]
