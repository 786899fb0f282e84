"""Structural improvement moves on hypergraphs and their weightings.

Of the package, only the property suites call them (uncovered calls
uncovered_pair_reduce, swaps calls find_improving_swap); the verifier does
not.  Three facts about Lagrangian maximizers justify these:

* if a pair of support vertices lies in no common edge, lambda(H) is attained
  after deleting one of the two vertices, so H reduces to a pair-covering part;
* swapping an edge A for a heavier non-edge B (at the current weighting)
  strictly increases L, certifying H is not extremal among m-edge graphs;
* lambda is invariant under vertex relabeling, so candidates can be
  normalized by descending degree.
"""

from __future__ import annotations

import itertools
import math

from .hypergraph import Hypergraph, covers_pairs, delete_vertex
from .lagrangian import Weighting

__all__ = [
    "uncovered_pair_reduce",
    "reduce_to_pair_covering",
    "find_improving_swap",
    "normalize_support",
]


def uncovered_pair_reduce(H: Hypergraph) -> list[Hypergraph]:
    """One reduction step: [H] if H covers pairs, else [H - i, H - j] for the
    first uncovered support pair {i, j}; lambda(H) <= max over the parts."""
    ok, uncovered = covers_pairs(H)
    if ok:
        return [H]
    i, j = uncovered[0]
    return [delete_vertex(H, i), delete_vertex(H, j)]


def reduce_to_pair_covering(
    H: Hypergraph, max_leaves: int = 1024
) -> tuple[list[Hypergraph], bool]:
    """Recurse uncovered_pair_reduce to fixpoint, deduplicating parts.

    Returns (parts, complete).  Branching doubles per uncovered pair, so the
    frontier is capped at max_leaves; when the cap is hit the remaining
    unreduced graphs are returned as-is and complete=False.
    """
    done: dict[Hypergraph, None] = {}
    frontier = [H]
    while frontier:
        if len(frontier) + len(done) > max_leaves:
            for g in frontier:
                done.setdefault(g)
            return list(done), False
        nxt = []
        for g in frontier:
            parts = uncovered_pair_reduce(g)
            if parts == [g]:
                done.setdefault(g)
            else:
                nxt.extend(p for p in parts if p not in done)
        frontier = nxt
    return list(done), True


def find_improving_swap(H: Hypergraph, y, margin: float = 1e-12):
    """Find (A in H, B not in H) with L(B, y) > L(A, y) + margin, if any.

    Candidates B are r-subsets of support(H) plus the smallest vertex label
    not already in the support; y may assign that vertex positive weight (it
    just has no edges yet), in which case swapping it in is a genuine
    improvement move.  Returns the extreme pair (lightest A, heaviest B) or
    None.  This is a sound but incomplete non-maximality test: a hit
    certifies (H \\ A) + B beats H at y, but single swaps need not exhaust
    all possible multi-edge exchanges.
    """
    if len(H) == 0:
        return None
    vals = list(y.values if isinstance(y, Weighting) else y)
    supp = set(H.support)
    fresh = next(v for v in itertools.count(1) if v not in supp)
    vals += [0] * (fresh - len(vals))
    pool = tuple(sorted(supp | {fresh}))
    if len(pool) < H.r:
        return None
    a_val, a_best = min((math.prod(vals[v - 1] for v in e), e) for e in H.edges)
    b_best = None
    b_val = None
    for b in itertools.combinations(pool, H.r):
        if b in H:
            continue
        w = math.prod(vals[v - 1] for v in b)
        if b_val is None or w > b_val:
            b_best, b_val = b, w
    if b_best is not None and b_val > a_val + margin:
        return a_best, b_best
    return None


def normalize_support(H: Hypergraph) -> tuple[Hypergraph, dict[int, int]]:
    """Relabel support vertices to 1..T by descending degree (ties: original
    label ascending).  Returns (relabeled H, old->new map).  lambda is
    invariant under this relabeling."""
    order = sorted(H.support, key=lambda v: (-H.degree(v), v))
    mapping = {v: i + 1 for i, v in enumerate(order)}
    return Hypergraph(H.r, ([mapping[v] for v in e] for e in H.edges)), mapping
