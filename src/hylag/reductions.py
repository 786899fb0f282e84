"""Structural improvement moves on hypergraphs and their weightings.

The property suites `uncovered` and `swaps` check these moves; the verifier
does not use them.  Two facts about Lagrangian maximizers justify them:

* if a pair of support vertices lies in no common edge, lambda(H) is attained
  after deleting one of the two vertices (uncovered_pair_reduce);
* swapping an edge A for a heavier non-edge B (at the current weighting)
  strictly increases L, certifying H is not extremal among m-edge graphs
  (find_improving_swap).
"""

from __future__ import annotations

import itertools
import math

from .hypergraph import Hypergraph, covers_pairs, delete_vertex
from .lagrangian import _coerce

__all__ = ["uncovered_pair_reduce", "find_improving_swap"]


def uncovered_pair_reduce(H: Hypergraph) -> list[Hypergraph]:
    """One reduction step: [H] if H covers pairs, else [H - i, H - j] for the
    first uncovered support pair {i, j}; lambda(H) <= max over the parts."""
    ok, uncovered = covers_pairs(H)
    if ok:
        return [H]
    i, j = uncovered[0]
    return [delete_vertex(H, i), delete_vertex(H, j)]


def find_improving_swap(H: Hypergraph, y):
    """Find (A in H, B not in H) with L(B, y) > L(A, y), if any, compared exactly.

    y holds Fraction/int entries and covers support(H).  Candidates B are
    r-subsets of support(H) plus the smallest vertex label not already in
    the support; y may assign that vertex positive weight (it just has no
    edges yet), in which case swapping it in is a genuine improvement move.
    Returns the extreme pair (lightest A, heaviest B) or None.  This is a
    sound but incomplete non-maximality test: a hit certifies (H \\ A) + B
    beats H at y, but single swaps need not exhaust all possible multi-edge
    exchanges.
    """
    vals = list(_coerce(H, y))
    if len(H) == 0:
        return None
    supp = set(H.support)
    fresh = next(v for v in itertools.count(1) if v not in supp)
    vals += [0] * (fresh - len(vals))
    pool = tuple(sorted(supp | {fresh}))
    a_val, a_best = min((math.prod(vals[v - 1] for v in e), e) for e in H.edges)
    b_best = None
    b_val = None
    for b in itertools.combinations(pool, H.r):
        if b in H:
            continue
        w = math.prod(vals[v - 1] for v in b)
        if b_val is None or w > b_val:
            b_best, b_val = b, w
    if b_best is not None and b_val > a_val:
        return a_best, b_best
    return None
