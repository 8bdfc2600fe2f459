"""Benchmark-owned correctness gate.

The propagation routine here is written from the definition of power
domination and shares no code with ``powerdom.propagation``: a PMU
observes its closed neighbourhood, then any observed node with exactly one
unobserved neighbour observes it, until nothing changes.
"""

from __future__ import annotations

import hashlib


def adjacency(edges) -> dict:
    adj: dict = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return adj


def observed_by(adj: dict, pmus) -> set:
    """Nodes observed by the power domination process from ``pmus``."""
    seen = set()
    for p in pmus:
        seen.add(p)
        seen.update(adj[p])
    changed = True
    while changed:
        changed = False
        for v in list(seen):
            left = [u for u in adj[v] if u not in seen]
            if len(left) == 1:
                seen.add(left[0])
                changed = True
    return seen


def is_pds(adj: dict, pmus) -> bool:
    return all(p in adj for p in pmus) and len(observed_by(adj, pmus)) == len(adj)


def digest(sets) -> str:
    """Order-free digest of a family of node sets."""
    lines = sorted(",".join(sorted(s)) for s in sets)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def check_solve(adj: dict, expect: dict, pds) -> list:
    """Problems with one ``solve`` answer; empty when it is right."""
    errors = []
    if len(pds) != expect["pdn"]:
        errors.append(f"pdn {len(pds)} != expected {expect['pdn']}")
    if len(set(pds)) != len(pds):
        errors.append("placement repeats a node")
    if not is_pds(adj, pds):
        errors.append("placement does not observe every node")
    return errors


def check_allminpds(adj: dict, expect: dict, sets) -> list:
    """Problems with one ``allminpds`` answer; empty when it is right."""
    errors = []
    if len(sets) != expect["count"]:
        errors.append(f"{len(sets)} sets != expected {expect['count']}")
    if digest(sets) != expect["digest"]:
        errors.append("digest of the sets differs from the expected one")
    for s in sets:
        if len(s) != expect["pdn"] or not is_pds(adj, s):
            errors.append(f"{sorted(s)} is not a minimum power dominating set")
            break
    return errors
