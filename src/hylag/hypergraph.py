"""Uniform hypergraphs with colexicographic structure.

Vertices are positive integers 1, 2, 3, ...  An r-graph is a finite set of
r-element subsets ("edges").  Everything downstream leans on the colex order
on r-sets -- A < B iff max(A difference B) lies in B -- which for ascending
tuples a = (a_1 < ... < a_r) is plain lexicographic order on the reversed
tuple (a_r, ..., a_1).  The initial segment of m r-sets in this order is
written H^{m,r} throughout.

Also here: links and pair-difference links, left-compression (ij-shifts),
the equivalent domination-downset test, the enumeration of left-compressed
m-edge candidates on a bounded support (the search space of the verifier),
pair coverage, vertex deletion, the uncovered-pair reduction, the twin-free
core, and the Kruskal-Katona-style bounds on link sizes of left-compressed
graphs.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Iterator

__all__ = [
    "Hypergraph",
    "binom",
    "colex_key",
    "colex_rank",
    "colex_unrank",
    "colex_segment",
    "clique",
    "minimal_clique_order",
    "link",
    "link_diff",
    "apply_shift",
    "left_compress",
    "is_left_compressed",
    "enumerate_left_compressed",
    "covers_pairs",
    "delete_vertex",
    "uncovered_pair_reduce",
    "twin_free_core",
    "kk_link_bounds",
]

def binom(n: int, k: int) -> int:
    """C(n, k) as a count: zero whenever k < 0 or n < k."""
    if k < 0 or n < k:
        return 0
    return math.comb(n, k)


def colex_key(edge: Iterable[int]) -> tuple[int, ...]:
    """Sort key realizing colex order: the edge sorted descending."""
    return tuple(sorted(edge, reverse=True))


def colex_rank(edge: Iterable[int]) -> int:
    """0-based position of an r-set in the colex order on all r-sets.

    For A = {a_1 < ... < a_r} this is sum_i C(a_i - 1, i): the number of
    r-sets that precede A.
    """
    a = sorted(edge)
    if not a:
        raise ValueError("empty edge has no colex rank")
    if a[0] < 1:
        raise ValueError(f"vertex labels must be positive, got {a}")
    if len(set(a)) != len(a):
        raise ValueError(f"edge {a} has repeated vertices")
    return sum(binom(v - 1, i + 1) for i, v in enumerate(a))


def _binom_floor(k: int, i: int) -> int:
    # largest c >= i-1 with C(c, i) <= k, for an int k >= 0; C(i-1, i) = 0 so
    # the bracket exists
    lo, hi = i - 1, i
    while binom(hi, i) <= k:
        lo, hi = hi, hi * 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if binom(mid, i) <= k:
            lo = mid
        else:
            hi = mid
    return lo


def colex_unrank(rank: int, r: int) -> tuple[int, ...]:
    """The r-set at 0-based position `rank` in colex order (combinadic)."""
    if r < 1:
        raise ValueError("uniformity r must be >= 1")
    if rank < 0:
        raise ValueError("rank must be nonnegative")
    k = rank
    out = []
    for i in range(r, 0, -1):
        c = _binom_floor(k, i)
        out.append(c + 1)
        k -= binom(c, i)
    out.reverse()
    return tuple(out)


class Hypergraph:
    """An immutable r-uniform hypergraph on positive-integer vertices.

    Edges are canonicalized on construction: each edge an ascending tuple,
    duplicates merged, the edge list sorted in colex order.  Equality and
    hashing follow the canonical form, so values are safe dict keys and safe
    to share across worker processes.
    """

    __slots__ = ("r", "edges", "_edge_set")

    def __init__(self, r: int, edges: Iterable[Iterable[int]] = ()):
        if r < 1:
            raise ValueError("uniformity r must be >= 1")
        canon = set()
        for e in edges:
            t = tuple(sorted(e))
            if len(t) != r:
                raise ValueError(f"edge {t} has {len(t)} vertices, expected r={r}")
            if len(set(t)) != r:
                raise ValueError(f"edge {t} has repeated vertices")
            if t[0] < 1:
                raise ValueError(f"edge {t} has a vertex < 1")
            canon.add(t)
        self.r = r
        self.edges = tuple(sorted(canon, key=colex_key))
        self._edge_set = frozenset(canon)

    # -- basic queries ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.edges)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.edges)

    def __contains__(self, edge: Iterable[int]) -> bool:
        return tuple(sorted(edge)) in self._edge_set

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return self.r == other.r and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.r, self.edges))

    def __repr__(self) -> str:
        shown = ",".join("".join(map(str, e)) if max(e, default=0) <= 9
                         else str(e) for e in self.edges[:8])
        more = f",... ({len(self.edges)} edges)" if len(self.edges) > 8 else ""
        return f"Hypergraph(r={self.r}, {{{shown}{more}}})"

    @property
    def support(self) -> tuple[int, ...]:
        """Sorted tuple of vertices that appear in at least one edge."""
        verts: set[int] = set()
        for e in self.edges:
            verts.update(e)
        return tuple(sorted(verts))

    def max_vertex(self) -> int:
        """Largest vertex label used (0 if edgeless)."""
        return max((e[-1] for e in self.edges), default=0)

    def degree(self, i: int) -> int:
        """Number of edges containing vertex i."""
        return sum(1 for e in self.edges if i in e)

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"r": self.r, "edges": [list(e) for e in self.edges]}

    def to_text(self) -> str:
        """Edge-list text: `r=<int>` header, one ascending edge per line."""
        lines = [f"r={self.r}"]
        lines.extend(" ".join(map(str, e)) for e in self.edges)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Hypergraph":
        r = None
        edges = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if r is None:
                if not line.startswith("r="):
                    raise ValueError(f"line {lineno}: expected header 'r=<int>', got {raw!r}")
                try:
                    r = int(line[2:])
                except ValueError as exc:
                    raise ValueError(f"line {lineno}: bad uniformity in {raw!r}") from exc
                if r < 1:
                    raise ValueError(f"line {lineno}: uniformity r must be >= 1, got {raw!r}")
                continue
            try:
                edge = tuple(int(tok) for tok in line.split())
            except ValueError as exc:
                raise ValueError(f"line {lineno}: bad edge line {raw!r}") from exc
            edges.append(edge)
        if r is None:
            raise ValueError("missing 'r=<int>' header line")
        try:
            return cls(r, edges)
        except ValueError as exc:
            # the constructor refused an edge: name the first refused edge's
            # line (edge lines are the non-blank lines after the header)
            numbered = [n for n, raw in enumerate(text.splitlines(), start=1)
                        if raw.split("#", 1)[0].strip()][1:]
            for lineno, edge in zip(numbered, edges):
                try:
                    cls(r, [edge])
                except ValueError as bad:
                    raise ValueError(f"line {lineno}: {bad}") from exc
            raise


def colex_segment(m: int, r: int) -> Hypergraph:
    """H^{m,r}: the first m r-sets in colex order."""
    if m < 0:
        raise ValueError("edge count m must be nonnegative")
    return Hypergraph(r, (colex_unrank(k, r) for k in range(m)))


def clique(t: int, r: int) -> Hypergraph:
    """[t]^{(r)}: all r-subsets of {1, ..., t} (edgeless when t < r)."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return colex_segment(binom(t, r), r)


def minimal_clique_order(m: int, r: int) -> int:
    """Smallest t with m <= C(t, r)."""
    if m < 1 or r < 1:
        raise ValueError("need m >= 1 and r >= 1")
    return _binom_floor(m - 1, r) + 1


# -- links ---------------------------------------------------------------


def link(H: Hypergraph, S: Iterable[int]) -> Hypergraph:
    """H_S: the (r-|S|)-graph {A : A disjoint from S, A union S in H}."""
    s = tuple(sorted(set(S)))
    if not 0 < len(s) < H.r:
        raise ValueError(f"link set must have 1..r-1 vertices, got {len(s)}")
    sset = set(s)
    out = []
    for e in H.edges:
        if sset.issubset(e):
            out.append(tuple(v for v in e if v not in sset))
    return Hypergraph(H.r - len(s), out)


def link_diff(H: Hypergraph, i: int, j: int) -> Hypergraph:
    """H_{i \\ j}: (r-1)-sets A avoiding j with A+i an edge but A+j not.

    These are the edges at i that j cannot imitate; the pair identity at a
    maximizer gives L(H_{i\\j}, x) = (x_i - x_j) L(H_{ij}, x).
    """
    if i == j:
        raise ValueError("link_diff needs two distinct vertices")
    if H.r < 2:
        raise ValueError("link_diff needs uniformity >= 2")
    out = []
    for e in H.edges:
        if i in e and j not in e:
            a = tuple(v for v in e if v != i)
            if tuple(sorted(a + (j,))) not in H:
                out.append(a)
    return Hypergraph(H.r - 1, out)


# -- left-compression ----------------------------------------------------


def apply_shift(H: Hypergraph, i: int, j: int) -> Hypergraph:
    """One simultaneous ij-shift: each edge with j but not i moves to
    (edge - j + i) unless that set is already an edge."""
    if not 0 < i < j:
        raise ValueError(f"shift pair needs 0 < i < j, got ({i}, {j})")
    out = []
    for e in H.edges:
        if j in e and i not in e:
            b = tuple(sorted(v if v != j else i for v in e))
            out.append(e if b in H else b)
        else:
            out.append(e)
    return Hypergraph(H.r, out)


def left_compress(H: Hypergraph) -> Hypergraph:
    """Apply all ij-shifts (ascending i, then j) repeatedly to fixpoint.

    Shifts preserve the edge count; the fixpoint is exactly the downset
    condition tested by is_left_compressed.
    """
    while not is_left_compressed(H):
        for i, j in itertools.combinations(range(1, H.max_vertex() + 1), 2):
            H = apply_shift(H, i, j)
    return H


def _lower_covers(edge: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    # decrement one coordinate by 1 where that keeps the tuple strictly ascending
    for pos, v in enumerate(edge):
        if v - 1 >= 1 and (pos == 0 or edge[pos - 1] < v - 1):
            yield edge[:pos] + (v - 1,) + edge[pos + 1 :]


def is_left_compressed(H: Hypergraph) -> bool:
    """True iff left_compress(H) = H, i.e. the edge set is a downset in the
    coordinatewise domination order (a_i <= b_i for all i).

    Downward closure under single-coordinate decrements is equivalent to
    closure under all ij-shifts, so only the covers are checked.
    """
    return all(below in H for e in H.edges for below in _lower_covers(e))


def enumerate_left_compressed(m: int, r: int, Tmax: int) -> Iterator[Hypergraph]:
    """All m-edge downsets of the domination order on [Tmax]^{(r)}, i.e. all
    fully left-compressed m-edge r-graphs with support in [Tmax].

    Edges are considered in colex order (a linear extension of domination),
    and an edge may join only once all its lower covers are in; each downset
    is therefore produced exactly once, as an increasing index sequence, in
    lexicographic order of those sequences.  The first, when there is one, is
    0..m-1: the colex segment H^{m,r}.  Empty stream when m > C(Tmax,r).
    """
    if m < 1:
        raise ValueError("edge count m must be >= 1")
    if r < 1 or Tmax < r:
        raise ValueError(f"need Tmax >= r >= 1, got r={r}, Tmax={Tmax}")
    # a set's position in colex order is its colex rank, so each set's lower
    # covers are indexed by their ranks
    elems = clique(Tmax, r).edges
    covers = [tuple(colex_rank(b) for b in _lower_covers(e)) for e in elems]
    total = len(elems)
    chosen: list[int] = []
    in_set = bytearray(total)

    def rec(start: int, need: int) -> Iterator[Hypergraph]:
        if need == 0:
            yield Hypergraph(r, (elems[i] for i in chosen))
            return
        for nxt in range(start, total - need + 1):
            if all(in_set[c] for c in covers[nxt]):
                chosen.append(nxt)
                in_set[nxt] = 1
                yield from rec(nxt + 1, need - 1)
                chosen.pop()
                in_set[nxt] = 0

    yield from rec(0, m)


# -- pair coverage, deletion & twins -------------------------------------


def covers_pairs(H: Hypergraph) -> tuple[bool, list[tuple[int, int]]]:
    """Does every pair of support vertices lie in a common edge?

    Returns (flag, sorted list of uncovered pairs).
    """
    support = H.support
    covered: set[tuple[int, int]] = set()
    for e in H.edges:
        covered.update(itertools.combinations(e, 2))
    uncovered = [p for p in itertools.combinations(support, 2) if p not in covered]
    return not uncovered, uncovered


def delete_vertex(H: Hypergraph, i: int) -> Hypergraph:
    """Drop every edge containing i (uniformity unchanged)."""
    return Hypergraph(H.r, (e for e in H.edges if i not in e))


def uncovered_pair_reduce(H: Hypergraph) -> list[Hypergraph]:
    """One reduction step: [H] if H covers pairs, else [H - i, H - j] for the
    first uncovered support pair {i, j}; lambda(H) <= max over the parts: no
    edge holds both, so L is affine in how y_i + y_j splits, best at an end."""
    ok, uncovered = covers_pairs(H)
    if ok:
        return [H]
    i, j = uncovered[0]
    return [delete_vertex(H, i), delete_vertex(H, j)]


def twin_free_core(H: Hypergraph) -> Hypergraph:
    """H without each support vertex whose link (its set of (r-1)-sets)
    equals a lower-labelled vertex's, and without the edges of those
    vertices: the graph on the lowest label of each twin class.

    Twins never share an edge: e in H with u, v in e would put e - v, which
    contains u, in the link of v, which is the link of u, whose sets all
    avoid u.  Equal links make twinship an equivalence, and replacing a
    vertex of an edge by its twin gives an edge, so H is the blow-up of its
    core.  A graph without twins is its own core (the same object).
    """
    links: dict[int, set] = {}
    for e in H.edges:
        for j, v in enumerate(e):
            links.setdefault(v, set()).add(e[:j] + e[j + 1:])
    first: dict[frozenset, int] = {}
    twins = {v for v in sorted(links) if first.setdefault(frozenset(links[v]), v) != v}
    return Hypergraph(H.r, (e for e in H.edges if twins.isdisjoint(e))) if twins else H


# -- Kruskal-Katona-style link bounds ------------------------------------


def kk_link_bounds(H: Hypergraph) -> tuple[bool, list[int]]:
    """Shadow bounds for a left-compressed H with e = e(H) = C(x, r), x >= r
    real: e(H_1) >= C(x-1, r-1) and e(H_j) <= r e / j.

    Returns (lower bound holds, sorted list of j whose degree bound fails),
    both decided exactly, without x.  Since C(x-1, r-1) = r e / x, the lower
    bound is x >= q := r e / e(H_1) (e(H_1) >= 1: the edge [r] is in H).
    Both x and q are >= r (C(x, r) = e >= 1, and e(H_1) <= e), where the
    falling factorial C(., r) increases, so this holds iff C(q, r) <= e.
    """
    if not is_left_compressed(H):
        raise ValueError("kk_link_bounds needs a left-compressed hypergraph")
    e, r = len(H), H.r
    if e == 0:
        raise ValueError("kk_link_bounds needs at least one edge")
    q = Fraction(r * e, H.degree(1))
    lower = math.prod(q - k for k in range(r)) <= e * math.factorial(r)
    return lower, [j for j in range(1, H.max_vertex() + 1) if j * H.degree(j) > r * e]
