"""Core combinatorics: colex order, links, compression, coverage, KK bounds.

Derived constants are frozen from independent oracles defined at the top of
this file (definition-level comparator, brute-force domination downset test),
which are themselves tested before anything relies on them.
"""

import functools
import itertools
import random

import pytest

from hylag import (
    Hypergraph,
    SolverConfig,
    apply_shift,
    binom,
    clique,
    colex_key,
    colex_rank,
    colex_segment,
    colex_unrank,
    covers_pairs,
    delete_vertex,
    is_left_compressed,
    kk_link_bounds,
    left_compress,
    link,
    link_diff,
    maximize,
    uncovered_pair_reduce,
)


# -- oracles -----------------------------------------------------------------


def colex_less(a, b):
    """Comparator straight from the definition: A < B iff max(A xor B) in B."""
    sa, sb = set(a), set(b)
    diff = sa ^ sb
    return bool(diff) and max(diff) in sb


def oracle_sorted_triples(n):
    cmp = lambda a, b: -1 if colex_less(a, b) else (1 if colex_less(b, a) else 0)
    return sorted(itertools.combinations(range(1, n + 1), 3), key=functools.cmp_to_key(cmp))


def is_domination_downset(edges, universe):
    """Brute-force downset test: every dominated r-set must also be present."""
    es = set(edges)
    for e in es:
        for f in universe:
            if f != e and all(x <= y for x, y in zip(f, e)) and f not in es:
                return False
    return True


def test_comparator_oracle_is_a_total_order():
    triples = list(itertools.combinations(range(1, 7), 3))
    for a, b in itertools.combinations(triples, 2):
        assert colex_less(a, b) != colex_less(b, a)
        assert not colex_less(a, a)


def test_rank_agrees_with_comparator_enumeration():
    # the comparator oracle fixes the order; rank must be its position index
    ordered = oracle_sorted_triples(6)
    for pos, tri in enumerate(ordered):
        assert colex_rank(tri) == pos
        assert colex_unrank(pos, 3) == tri


# frozen from the enumeration oracle above
def test_rank_frozen_values():
    assert colex_rank({1, 2, 3}) == 0
    assert colex_rank({2, 3, 4}) == 3
    assert colex_rank({1, 2, 5}) == 4


def test_unrank_frozen_values():
    assert colex_unrank(0, 3) == (1, 2, 3)
    assert colex_unrank(3, 3) == (2, 3, 4)
    assert colex_unrank(4, 3) == (1, 2, 5)


def test_rank_input_validation():
    with pytest.raises(ValueError):
        colex_rank([])
    with pytest.raises(ValueError):
        colex_rank([0, 1, 2])
    with pytest.raises(ValueError):
        colex_rank([1, 1, 2])


def test_unrank_input_validation():
    with pytest.raises(ValueError):
        colex_unrank(-1, 3)
    with pytest.raises(ValueError):
        colex_unrank(0, 0)


def test_rank_unrank_identity_exhaustive():
    for r in range(1, 7):
        for k in range(20000):
            assert colex_rank(colex_unrank(k, r)) == k


def test_rank_unrank_identity_random_large():
    rng = random.Random(20240811)
    for r in range(1, 7):
        for _ in range(500):
            k = rng.randrange(10**6)
            assert colex_rank(colex_unrank(k, r)) == k


def test_unrank_rank_identity_on_random_sets():
    rng = random.Random(7)
    for _ in range(500):
        r = rng.randint(1, 6)
        edge = tuple(sorted(rng.sample(range(1, 60), r)))
        assert colex_unrank(colex_rank(edge), r) == edge


def test_rank_monotone_iff_comparator():
    rng = random.Random(99)
    for _ in range(300):
        a = tuple(sorted(rng.sample(range(1, 30), 4)))
        b = tuple(sorted(rng.sample(range(1, 30), 4)))
        if a != b:
            assert (colex_rank(a) < colex_rank(b)) == colex_less(a, b)


# -- segments ------------------------------------------------------------------


def test_segment_examples():
    assert colex_segment(4, 3) == clique(4, 3)
    assert colex_segment(2, 3) == Hypergraph(3, [(1, 2, 3), (1, 2, 4)])
    five = colex_segment(5, 3)
    assert five == Hypergraph(3, list(clique(4, 3)) + [(1, 2, 5)])


def test_segment_edges_are_ranks():
    seg = colex_segment(50, 4)
    assert [colex_rank(e) for e in seg.edges] == list(range(50))


def test_segments_left_compressed_full_range():
    for r in range(1, 6):
        for m in range(501):
            assert is_left_compressed(colex_segment(m, r)), (m, r)


def test_segments_shift_fixpoint_subsample():
    # the literal shift-sweep is the slower characterization; spot-check it
    for m, r in [(0, 3), (1, 1), (7, 2), (13, 3), (57, 4), (201, 5), (500, 3)]:
        seg = colex_segment(m, r)
        assert left_compress(seg) == seg


def test_segment_rejects_negative():
    with pytest.raises(ValueError):
        colex_segment(-1, 3)
    with pytest.raises(ValueError):
        clique(-1, 3)


# -- hypergraph type -----------------------------------------------------------


def test_construction_canonicalizes():
    H = Hypergraph(3, [(3, 2, 1), (1, 2, 3), (4, 2, 1)])
    assert H.edges == ((1, 2, 3), (1, 2, 4))
    assert len(H) == 2
    assert (2, 1, 3) in H and (1, 2, 5) not in H


def test_construction_validation():
    with pytest.raises(ValueError):
        Hypergraph(0, [])
    with pytest.raises(ValueError):
        Hypergraph(3, [(1, 2)])
    with pytest.raises(ValueError):
        Hypergraph(2, [(1, 1)])
    with pytest.raises(ValueError):
        Hypergraph(2, [(0, 1)])


def test_equality_and_hash():
    a = Hypergraph(3, [(1, 2, 3), (1, 2, 4)])
    b = Hypergraph(3, [(2, 1, 4), (3, 2, 1)])
    assert a == b and hash(a) == hash(b)
    assert a != Hypergraph(3, [(1, 2, 3)])
    assert {a: "x"}[b] == "x"
    # a non-Hypergraph is left to the other operand, so an edge tuple never
    # equals the hypergraph it lists
    H = Hypergraph(2, [(1, 2)])
    assert H.__eq__(((1, 2),)) is NotImplemented
    assert H != ((1, 2),)


def test_support_degree_max_vertex():
    H = Hypergraph(3, [(1, 2, 3), (1, 2, 7)])
    assert H.support == (1, 2, 3, 7)
    assert H.max_vertex() == 7
    assert H.degree(1) == 2 and H.degree(3) == 1 and H.degree(5) == 0
    assert Hypergraph(3).max_vertex() == 0


def test_text_round_trip():
    H = colex_segment(6, 3)
    assert Hypergraph.from_text(H.to_text()) == H


def test_text_parsing_comments_and_blanks():
    text = "# leading comment\n\nr=3\n1 2 3  # inline\n\n2 3 4\n"
    assert Hypergraph.from_text(text) == Hypergraph(3, [(1, 2, 3), (2, 3, 4)])


def test_text_parse_errors():
    with pytest.raises(ValueError):
        Hypergraph.from_text("1 2 3\n")  # missing header
    with pytest.raises(ValueError):
        Hypergraph.from_text("r=x\n")
    with pytest.raises(ValueError):
        Hypergraph.from_text("r=3\n1 two 3\n")
    with pytest.raises(ValueError):
        Hypergraph.from_text("")
    # each refused edge or header names its line
    for text, message in (
        ("r=3\n1 2\n", "line 2: edge (1, 2) has 2 vertices, expected r=3"),
        ("# c\n\nr=3\n1 2 3\n\n2 2 4  # twice\n", "line 6: edge (2, 2, 4) has repeated vertices"),
        ("r=2\n1 2\n0 3\n", "line 3: edge (0, 3) has a vertex < 1"),
        ("\nr=0\n", "line 2: uniformity r must be >= 1, got 'r=0'"),
    ):
        with pytest.raises(ValueError) as exc:
            Hypergraph.from_text(text)
        assert str(exc.value) == message


def test_json_round_trip():
    H = colex_segment(5, 4)
    assert H.to_json_dict() == {"r": 4, "edges": [[1, 2, 3, 4], [1, 2, 3, 5], [1, 2, 4, 5],
                                                  [1, 3, 4, 5], [2, 3, 4, 5]]}
    assert Hypergraph(4, H.to_json_dict()["edges"]) == H


# -- links ---------------------------------------------------------------------


def test_link_examples():
    H = Hypergraph(3, [(1, 2, 3), (1, 2, 4), (1, 3, 4)])
    assert link(H, {1}) == Hypergraph(2, [(2, 3), (2, 4), (3, 4)])
    assert link(H, {1, 2}) == Hypergraph(1, [(3,), (4,)])
    assert link(clique(4, 3), {4}) == clique(3, 2)


def test_link_size_is_degree():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(4, 8)
        pool = list(itertools.combinations(range(1, n + 1), 3))
        H = Hypergraph(3, rng.sample(pool, rng.randint(1, len(pool))))
        total = 0
        for v in H.support:
            e_link = len(link(H, {v}))
            assert e_link == H.degree(v)
            total += e_link
        assert total == 3 * len(H)


def test_link_validation():
    H = clique(4, 3)
    with pytest.raises(ValueError):
        link(H, {1, 2, 3})
    with pytest.raises(ValueError):
        link(H, set())
    with pytest.raises(ValueError):
        link_diff(Hypergraph(1, [(1,), (2,)]), 1, 2)


def test_link_diff_examples():
    H = Hypergraph(3, [(1, 2, 3), (1, 2, 4), (1, 3, 4)])
    assert link_diff(H, 1, 2) == Hypergraph(2, [(3, 4)])
    assert link_diff(H, 2, 3) == Hypergraph(2, [])
    assert link_diff(clique(4, 3), 1, 4) == Hypergraph(2, [])
    with pytest.raises(ValueError):
        link_diff(H, 2, 2)


def test_link_diff_brute_force_agreement():
    # independent re-derivation: scan all (r-1)-subsets of the support
    rng = random.Random(11)
    for _ in range(40):
        pool = list(itertools.combinations(range(1, 7), 3))
        H = Hypergraph(3, rng.sample(pool, rng.randint(2, 10)))
        i, j = rng.sample(list(H.support), 2)
        expect = set()
        for a in itertools.combinations(H.support, 2):
            if j in a or i in a:
                continue
            if tuple(sorted(a + (i,))) in H and tuple(sorted(a + (j,))) not in H:
                expect.add(a)
        assert set(link_diff(H, i, j).edges) == expect


# -- compression -----------------------------------------------------------------


def test_shift_pair_validation():
    H = Hypergraph(3, [(1, 2, 3)])
    with pytest.raises(ValueError):
        apply_shift(H, 2, 2)
    with pytest.raises(ValueError):
        apply_shift(H, 0, 1)


def test_apply_shift_blocked_when_target_present():
    H = Hypergraph(3, [(1, 2, 3), (2, 3, 4)])
    # shifting (1,4) would create the existing edge 123, so 234 stays
    assert apply_shift(H, 1, 4) == H


def test_left_compress_examples():
    assert left_compress(Hypergraph(3, [(2, 3, 4)])) == Hypergraph(3, [(1, 2, 3)])
    assert left_compress(clique(4, 3)) == clique(4, 3)
    got = left_compress(Hypergraph(3, [(1, 3, 4), (2, 3, 4)]))
    assert got == Hypergraph(3, [(1, 2, 3), (1, 2, 4)])
    assert is_left_compressed(got)


def test_left_compress_idempotent_and_size_preserving():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(3, 7)
        pool = list(itertools.combinations(range(1, n + 1), 3))
        H = Hypergraph(3, rng.sample(pool, rng.randint(0, len(pool))))
        C = left_compress(H)
        assert len(C) == len(H)
        assert left_compress(C) == C


def test_is_left_compressed_examples():
    assert is_left_compressed(Hypergraph(3, [(1, 2, 3), (1, 2, 4)]))
    assert not is_left_compressed(Hypergraph(3, [(2, 3, 4)]))


def test_downset_equals_shift_fixpoint_exhaustive():
    # both characterizations over every 3-graph on [5] (2^10 subsets)
    universe = list(itertools.combinations(range(1, 6), 3))
    for bits in range(1 << len(universe)):
        edges = [e for k, e in enumerate(universe) if bits >> k & 1]
        H = Hypergraph(3, edges)
        by_downset = is_domination_downset(edges, universe)
        assert is_left_compressed(H) == by_downset
        # left_compress stops at the downset test: no single shift moves a
        # downset, and some shift moves every other graph
        fixed = all(apply_shift(H, i, j) == H for i, j in itertools.combinations(range(1, 6), 2))
        assert fixed == by_downset


# -- coverage, deletion and uncovered pairs ---------------------------------------


def test_covers_pairs_examples():
    ok, unc = covers_pairs(Hypergraph(3, [(1, 2, 3), (1, 2, 4)]))
    assert not ok and unc == [(3, 4)]
    assert covers_pairs(clique(4, 3)) == (True, [])


def test_covers_pairs_h53():
    # H^{5,3} = [4]^(3) + {125}: pairs {3,5} and {4,5} lie in no edge
    ok, unc = covers_pairs(colex_segment(5, 3))
    assert not ok
    assert unc == [(3, 5), (4, 5)]


def test_delete_vertex_examples():
    assert delete_vertex(clique(4, 3), 4) == clique(3, 3)
    assert delete_vertex(Hypergraph(3, [(1, 2, 3), (1, 2, 4)]), 3) == Hypergraph(3, [(1, 2, 4)])
    H = Hypergraph(3, [(1, 2, 3), (1, 2, 4)])
    assert delete_vertex(H, 5) == H


def test_uncovered_pair_reduce_branches():
    H = Hypergraph(3, [(1, 2, 3), (1, 2, 4)])
    parts = uncovered_pair_reduce(H)  # pair {3,4} is uncovered
    assert parts == [Hypergraph(3, [(1, 2, 4)]), Hypergraph(3, [(1, 2, 3)])]


def test_uncovered_pair_reduce_fixpoint_on_clique():
    assert uncovered_pair_reduce(clique(4, 3)) == [clique(4, 3)]


def test_reduction_respects_lagrangian_bound():
    # lambda(H) <= max lambda over the parts, numerically
    rng = random.Random(17)
    cfg = SolverConfig(starts=10, seed=0)
    for _ in range(12):
        pool = list(itertools.combinations(range(1, 7), 3))
        H = Hypergraph(3, rng.sample(pool, rng.randint(2, 9)))
        parts = uncovered_pair_reduce(H)
        if len(parts) == 1:
            continue
        lam = maximize(H, cfg).value
        best = max(maximize(p, cfg).value for p in parts)
        assert lam <= best + 1e-9


# -- KK link bounds ---------------------------------------------------------------


def degree_shifted(monkeypatch, vertex, by):
    """Make Hypergraph.degree report `by` more edges at `vertex`."""
    degree = Hypergraph.degree
    monkeypatch.setattr(Hypergraph, "degree",
                        lambda H, i: degree(H, i) + (by if i == vertex else 0))


def test_kk_bounds_clique4(monkeypatch):
    # at [t]^{(r)}, x = t: e(H_1) = C(t-1, r-1) and t e(H_t) = r e(H), both
    # bounds met with equality, so no slack may be needed to pass
    for t, r in [(4, 3), (5, 3), (2, 2), (7, 2), (6, 4), (8, 5), (6, 6)]:
        assert kk_link_bounds(clique(t, r)) == (True, []), (t, r)
    degree_shifted(monkeypatch, 1, -1)
    assert kk_link_bounds(clique(4, 3)) == (False, [])


def test_kk_bounds_clique5_upper(monkeypatch):
    H = clique(5, 3)
    assert [j * H.degree(j) for j in range(1, 6)] == [6, 12, 18, 24, 30]  # <= 3 e(H) = 30
    assert kk_link_bounds(H) == (True, [])
    degree_shifted(monkeypatch, 5, 1)
    assert kk_link_bounds(H) == (True, [5])


def test_kk_bounds_h53(monkeypatch):
    # C(x, 3) = 5 puts x near 4.2 and C(x-1, 2) near 3.55: e(H_1) = 4 clears
    # it and 3 does not
    H = colex_segment(5, 3)
    assert H.degree(1) == 4
    assert kk_link_bounds(H) == (True, [])
    degree_shifted(monkeypatch, 1, -1)
    assert kk_link_bounds(H) == (False, [])


def test_kk_bounds_requires_compressed():
    with pytest.raises(ValueError):
        kk_link_bounds(Hypergraph(3, [(2, 3, 4)]))
    with pytest.raises(ValueError):
        kk_link_bounds(Hypergraph(3, []))
