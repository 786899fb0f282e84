"""Evaluation, maximization, and certification of the simplex polynomial."""

import functools
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from hylag import (
    Hypergraph,
    KKTResidual,
    SizeError,
    SolverConfig,
    Weighting,
    certify,
    check_pair_identity,
    check_scaling_bound,
    clique,
    clique_lagrangian,
    colex_segment,
    enumerate_left_compressed,
    evaluate,
    find_improving_swap,
    grid_oracle,
    kkt_residual,
    left_compress,
    link,
    max_clique_number,
    maximize,
    minimal_clique_order,
    motzkin_straus_value,
    partials,
    symmetrize,
    twin_free_core,
)
from hylag import lagrangian
from hylag.lagrangian import _grid

THIRD = Fraction(1, 3)
STAR = Hypergraph(3, [(1, 2, 3), (1, 2, 4), (1, 3, 4)])
STAR_MAX = (THIRD, Fraction(2, 9), Fraction(2, 9), Fraction(2, 9))


def rational_simplex(rng, n):
    w = [rng.randint(0, 9) for _ in range(n)]
    if sum(w) == 0:
        w[0] = 1
    s = sum(w)
    return [Fraction(x, s) for x in w]


# -- weighting type ------------------------------------------------------------


def test_weighting_exact_mode():
    w = Weighting([Fraction(1, 2), Fraction(1, 2)])
    assert w.support == (1, 2)
    assert Weighting([1, 0]).values == (Fraction(1), Fraction(0))
    assert all(type(v) is Fraction for v in Weighting([1, 0]).values)


def test_weighting_validation():
    with pytest.raises(ValueError):
        Weighting([Fraction(1, 2), Fraction(1, 3)])  # exact sum != 1
    with pytest.raises(ValueError):
        Weighting([Fraction(3, 2), Fraction(-1, 2)])
    # float and numpy-float entries are rejected, even summing to 1
    for floats in ([0.5, 0.5], [Fraction(1, 2), 0.5], list(np.array([0.5, 0.5]))):
        with pytest.raises(ValueError):
            Weighting(floats)
    with pytest.raises(ValueError):
        Weighting([True, False])  # bool is not a weight
    Weighting(())  # empty is the degenerate weighting and is legal


def test_weighting_support_skips_zeros():
    w = Weighting([Fraction(1, 2), Fraction(0), Fraction(1, 2)])
    assert w.support == (1, 3)


def test_rationalize():
    assert lagrangian._rationalize([1 / 3, 2 / 3]) == [THIRD, Fraction(2, 3)]
    assert lagrangian._rationalize(np.array([0.25] * 4)) == [Fraction(1, 4)] * 4
    # continued fractions that miss sum 1 are renormalized: 1/7 + 6/7 - 1e-7
    fr = lagrangian._rationalize([1 / 7, 6 / 7 - 1e-7])
    assert sum(fr) == 1 and all(type(v) is Fraction for v in fr)
    assert fr[0] > Fraction(1, 7)


def test_weighting_json_is_strings():
    w = Weighting([Fraction(2, 5), Fraction(3, 5), 0])
    assert w.to_json_dict() == {"values": ["2/5", "3/5", "0"]}


# -- evaluate / partials ---------------------------------------------------------


def test_evaluate_single_edge():
    H = Hypergraph(2, [(1, 2)])
    assert evaluate(H, [Fraction(1, 2), Fraction(1, 2)]) == Fraction(1, 4)
    assert evaluate(H, Weighting([Fraction(1, 3), Fraction(2, 3)])) == Fraction(2, 9)
    assert type(evaluate(H, [1, 0])) is Fraction


def test_evaluate_triple_clique_uniform():
    assert evaluate(clique(3, 3), [THIRD] * 3) == Fraction(1, 27)


def test_evaluate_star_at_maximizer():
    assert evaluate(STAR, STAR_MAX) == Fraction(4, 81)


def test_evaluate_off_simplex_allowed():
    # evaluate treats y as a free vector (used by the unit-difference identity)
    assert evaluate(Hypergraph(2, [(1, 2)]), [2, 3]) == 6
    assert evaluate(Hypergraph(2, [(1, 2)]), [Fraction(5, 2), -1]) == Fraction(-5, 2)


def test_evaluate_short_vector_rejected():
    with pytest.raises(ValueError, match="cannot cover"):
        evaluate(clique(4, 3), [Fraction(1, 2), Fraction(1, 2)])
    with pytest.raises(ValueError, match="cannot cover"):
        find_improving_swap(clique(4, 3), [Fraction(1, 2), Fraction(1, 2)])


def test_partials_examples():
    assert partials(Hypergraph(2, [(1, 2)]), [Fraction(1, 2)] * 2) == [Fraction(1, 2)] * 2
    p = partials(STAR, STAR_MAX)
    assert p[0] == Fraction(4, 27)  # equals r * lambda = 3 * 4/81
    assert partials(clique(4, 3), [Fraction(1, 4)] * 4) == [Fraction(3, 16)] * 4


def test_partials_are_link_values():
    rng = random.Random(2)
    for _ in range(30):
        pool = list(itertools.combinations(range(1, 7), 3))
        H = Hypergraph(3, rng.sample(pool, rng.randint(1, 12)))
        y = rational_simplex(rng, 6)
        p = partials(H, y)
        for v in H.support:
            assert p[v - 1] == evaluate(link(H, {v}), y)


def test_euler_identity_exact():
    rng = random.Random(3)
    for _ in range(60):
        r = rng.randint(1, 4)
        n = rng.randint(max(2, r), 7)
        pool = list(itertools.combinations(range(1, n + 1), r))
        H = Hypergraph(r, rng.sample(pool, rng.randint(1, len(pool))))
        y = rational_simplex(rng, n)
        p = partials(H, y)
        assert sum(yi * pi for yi, pi in zip(y, p)) == r * evaluate(H, y)


def test_partials_match_finite_differences():
    # L is affine in each weight, so the forward difference with step 1 is
    # exact: L(y + e_i) - L(y) = L(H_i, y)
    rng = random.Random(4)
    for _ in range(25):
        pool = list(itertools.combinations(range(1, 7), 3))
        H = Hypergraph(3, rng.sample(pool, rng.randint(1, 15)))
        y = rational_simplex(rng, 6)
        p = partials(H, y)
        base = evaluate(H, y)
        for i in rng.sample(range(6), 3):
            bumped = list(y)
            bumped[i] += 1
            assert evaluate(H, bumped) - base == p[i]


def _fraction_reference(H, y):
    # L, the links and the KKT residuals in plain Fraction arithmetic
    y = [Fraction(v) for v in y]
    L = sum((math.prod(y[v - 1] for v in e) for e in H.edges), Fraction(0))
    g = [sum((math.prod(y[u - 1] for u in e if u != v) for e in H.edges if v in e), Fraction(0))
         for v in range(1, len(y) + 1)]
    d = [gi - H.r * L for gi in g]
    on = max((abs(di) for di, v in zip(d, y) if v > 0), default=Fraction(0))
    off = max((di for di, v in zip(d, y) if v == 0), default=Fraction(0))
    return L, g, KKTResidual(float(on), float(off))


def _exact_vectors(rng, n):
    # rationalized Dirichlet, grid points k/N, ints, zeros, off the simplex
    g = [rng.expovariate(1.0) for _ in range(n)]
    w = lagrangian._rationalize(v / math.fsum(g) for v in g)
    N = rng.randint(1, 30)
    cuts = sorted(rng.randint(0, N) for _ in range(n - 1))
    grid = [Fraction(b - a, N) for a, b in zip([0] + cuts, cuts + [N])]
    ints = [rng.randint(-3, 5) for _ in range(n)]
    zeros = [v if rng.random() < 0.5 else Fraction(0) for v in w]
    free = [Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**9)) for _ in range(n)]
    return [w, grid, ints, zeros, free]


def test_exact_pass_matches_fraction_reference():
    rng = random.Random(13)
    big = 0
    for _ in range(150):
        r = rng.randint(2, 5)
        n = rng.randint(r, 8)
        H = _random_graph(rng, r, n)
        vectors = _exact_vectors(rng, n)
        big += max(v.denominator for v in vectors[0]) > 10**6
        for y in vectors:
            L, g, kkt = _fraction_reference(H, y)
            got = evaluate(H, y)
            assert type(got) is Fraction and got == L
            assert partials(H, y) == g
            assert all(type(v) is Fraction for v in partials(H, y))
            assert kkt_residual(H, y) == kkt
    assert big >= 100  # renormalized, the Dirichlet weights pass MAX_DENOMINATOR


# -- numeric kernel ----------------------------------------------------------------


def _cumprod_kernel(E, IDX, n, Y):
    # reference: prefix and suffix products by np.cumprod along each edge
    P = Y[:, E]  # (s, m, r)
    s, m, r = P.shape
    if r == 1:
        L = P[:, :, 0].sum(axis=1)
        excl = np.ones_like(P)
    else:
        pref = np.cumprod(P, axis=2)
        suff = np.cumprod(P[:, :, ::-1], axis=2)[:, :, ::-1]
        excl = np.empty_like(P)
        excl[:, :, 0] = suff[:, :, 1]
        excl[:, :, -1] = pref[:, :, -2]
        for j in range(1, r - 1):
            excl[:, :, j] = pref[:, :, j - 1] * suff[:, :, j + 1]
        L = pref[:, :, -1].sum(axis=1)
    G = np.bincount(IDX.ravel(), weights=excl.ravel(), minlength=s * n).reshape(s, n)
    return L, G


def _kernel_args(H, Y):
    E, supp = lagrangian._compile_edges(H)
    IDX = (np.arange(len(Y)) * len(supp))[:, None, None] + E[None, :, :]
    return E, IDX, len(supp), Y


def test_kernel_matches_cumprod():
    # the same products in the same order: L and G agree to the last bit
    rng = np.random.default_rng(5)
    for r in range(1, 6):
        for n in (r, r + 1, r + 4):
            pool = list(itertools.combinations(range(1, n + 1), r))
            for m in sorted({1, (len(pool) + 1) // 2, len(pool)}):
                H = Hypergraph(r, [pool[i] for i in rng.choice(len(pool), m, replace=False)])
                k = len(H.support)
                for s in (1, 50, 641):
                    Y = rng.random((s, k))
                    Y[rng.random((s, k)) < 0.3] = 0.0  # zero weights, some whole rows
                    args = _kernel_args(H, Y)
                    L, G = lagrangian._batch_value_partials(*args)
                    Lref, Gref = _cumprod_kernel(*args)
                    assert np.array_equal(L, Lref) and np.array_equal(G, Gref), (r, n, m, s)


def _random_graph(rng, r, n):
    pool = list(itertools.combinations(range(1, n + 1), r))
    return Hypergraph(r, rng.sample(pool, rng.randint(1, len(pool))))


def test_kernel_accuracy():
    # L and every link value at random simplex points, against exact values
    rng = random.Random(6)
    for r in range(1, 6):
        for _ in range(8):
            H = _random_graph(rng, r, rng.randint(r, 8))
            Y = np.array([[rng.random() for _ in H.support] for _ in range(4)])
            Y /= Y.sum(axis=1, keepdims=True)
            L, G = lagrangian._batch_value_partials(*_kernel_args(H, Y))
            for y, l, g in zip(Y, L, G):
                full = [0] * H.max_vertex()
                for i, v in enumerate(H.support):
                    full[v - 1] = Fraction(y[i])
                assert abs(Fraction(l) - evaluate(H, full)) <= 1e-15
                exact = partials(H, full)
                for i, v in enumerate(H.support):
                    assert abs(Fraction(g[i]) - exact[v - 1]) <= 1e-15


def test_kernel_pair_links():
    # links are affine in each weight, so G(z + e_j) - G(z) is the pair link
    # row L(H_ij, z): the Jacobian _newton_batch builds; for r=2 it is the
    # 0/1 indicator of the edge {i, j}
    rng = random.Random(7)
    for r in range(2, 6):
        for _ in range(6):
            H = _random_graph(rng, r, rng.randint(r + 1, 8))
            supp, k = H.support, len(H.support)
            z = np.array([rng.random() for _ in supp])
            z /= z.sum()
            Z = np.vstack([z, z + np.eye(k)])
            _, G = lagrangian._batch_value_partials(*_kernel_args(H, Z))
            full = [0] * H.max_vertex()
            for i, v in enumerate(supp):
                full[v - 1] = Fraction(z[i])
            for a, b in itertools.product(range(k), repeat=2):
                i, j = supp[a], supp[b]
                if i == j:
                    pair = 0
                elif r == 2:
                    pair = int(tuple(sorted((i, j))) in H)
                else:
                    pair = evaluate(link(H, (i, j)), full)
                assert abs(Fraction(G[1 + b, a] - G[0, a]) - pair) <= 1e-14, (H, i, j)


# -- closed forms -----------------------------------------------------------------


def test_clique_lagrangian_values():
    assert clique_lagrangian(4, 3) == Fraction(1, 16)
    assert clique_lagrangian(5, 3) == Fraction(2, 25)
    for r in range(1, 7):
        assert clique_lagrangian(r, r) == Fraction(1, r**r)
    with pytest.raises(ValueError):
        clique_lagrangian(2, 3)


def test_max_clique_number():
    triangle = Hypergraph(2, [(1, 2), (1, 3), (2, 3)])
    assert max_clique_number(triangle) == 3
    c5 = Hypergraph(2, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    assert max_clique_number(c5) == 2
    with pytest.raises(ValueError):
        max_clique_number(clique(4, 3))
    path13 = Hypergraph(2, [(i, i + 1) for i in range(1, 13)])
    with pytest.raises(SizeError):
        max_clique_number(path13)


def test_motzkin_straus_examples():
    triangle = Hypergraph(2, [(1, 2), (1, 3), (2, 3)])
    assert motzkin_straus_value(triangle) == THIRD
    assert motzkin_straus_value(Hypergraph(2, [(1, 2)])) == Fraction(1, 4)
    c5 = Hypergraph(2, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    assert motzkin_straus_value(c5) == Fraction(1, 4)
    assert motzkin_straus_value(Hypergraph(2, [])) == 0
    with pytest.raises(ValueError):
        motzkin_straus_value(clique(4, 3))


# -- maximize ----------------------------------------------------------------------


def test_maximize_clique_4_3():
    res = maximize(clique(4, 3), SolverConfig(starts=12, seed=0))
    assert res.value_exact == Fraction(1, 16)
    assert res.weighting.values == (Fraction(1, 4),) * 4
    assert res.support_size == 4
    assert res.kkt_residual.on_support <= 1e-7
    assert res.kkt_residual.off_support <= 1e-7


def test_maximize_colex_2_3():
    res = maximize(colex_segment(2, 3), SolverConfig(starts=12, seed=1))
    assert res.value_exact == Fraction(1, 27)


def test_maximize_star():
    res = maximize(STAR, SolverConfig(starts=16, seed=2))
    assert res.value_exact == Fraction(4, 81)
    assert res.weighting.values == STAR_MAX
    assert res.support_size == 4
    # the reported value is the exact evaluation at the reported weighting
    assert evaluate(STAR, res.weighting) == res.value_exact
    assert res.value == float(res.value_exact)


def test_maximize_edgeless_degenerate():
    res = maximize(Hypergraph(3, []), SolverConfig(starts=4, seed=0))
    assert res.value == 0.0 and res.value_exact == 0
    assert res.support_size == 0


def test_maximize_r1_keeps_its_one_weight():
    # every vertex of a 1-graph is a twin of vertex 1, so the core is {1}
    # and its one run ties at L = 1 with a single weight, which it keeps:
    # shedding never hands the face solve an empty row
    res = maximize(Hypergraph(1, [(1,), (2,), (4,)]))
    assert res.value_exact == 1
    assert res.weighting.values == (1, 0, 0, 0)


def test_maximize_weighting_descends():
    # a left-compressed graph has a descending maximizer, and maximize
    # reports that canonical form
    rng = random.Random(12)
    cases = []
    for seed in range(6):
        pool = list(itertools.combinations(range(1, 7), 3))
        H = Hypergraph(3, rng.sample(pool, rng.randint(2, 12)))
        cases.append((left_compress(H), SolverConfig(starts=10, seed=seed)))
    # the raw best run, scored beside its rearrangement, could win here by
    # ~1e-19 from rationalization alone and break the order
    edges = "1234 1235 1245 1345 1236 1246 1346 1256 1237 1238".split()
    cases.append((Hypergraph(4, [tuple(map(int, e)) for e in edges]),
                  SolverConfig(starts=50, seed=114)))
    for C, cfg in cases:
        res = maximize(C, cfg)
        vals = list(res.weighting.values)
        assert vals == sorted(vals, reverse=True), (C, vals)
        assert evaluate(C, res.weighting) == res.value_exact


def _count_passes(monkeypatch):
    calls = []
    one_pass = lagrangian._value_links

    def counting(H, vals):
        calls.append(vals)
        return one_pass(H, vals)

    monkeypatch.setattr(lagrangian, "_value_links", counting)
    return calls


def test_maximize_polishes_unsorted_winner(monkeypatch):
    # not left-compressed: the descending rearrangement of the best run loses
    # value, so the reported weighting is the winner itself, and it must be
    # certified at the CLI's default tolerance without the rearrangement
    H = Hypergraph(3, [(1, 2, 3), (1, 3, 4), (2, 3, 4), (1, 2, 5), (1, 3, 5), (2, 3, 5),
                       (2, 4, 5), (1, 2, 6), (1, 3, 6), (2, 3, 6), (1, 4, 6), (4, 5, 6)])
    calls = _count_passes(monkeypatch)
    res = maximize(H, SolverConfig(starts=50, seed=0))
    assert res.kkt_residual.on_support <= 1e-7
    assert res.kkt_residual.off_support <= 1e-7
    # both orders were scored, one pass each, and the raw one won strictly
    assert len(calls) == 2
    vals = res.weighting.values
    assert res.value_exact == evaluate(H, vals) > evaluate(H, sorted(vals, reverse=True))
    assert res.kkt_residual == kkt_residual(H, vals)


def test_certified_scores_raw_order_only_when_unsorted(monkeypatch):
    calls = _count_passes(monkeypatch)
    desc = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]
    res = lagrangian._certified(clique(3, 2), desc)
    assert len(calls) == 1 and res.value_exact == Fraction(5, 16)
    calls.clear()
    grid_oracle(colex_segment(8, 3), 12)  # left-compressed: descending grid points
    assert len(calls) == 1
    calls.clear()
    # a descending star loses to its raw order: vertex 1 is the centre
    res = lagrangian._certified(STAR, [STAR_MAX[1], STAR_MAX[0], *STAR_MAX[2:]])
    assert len(calls) == 2
    assert res.weighting.values == STAR_MAX and res.value_exact == Fraction(4, 81)
    assert res.kkt_residual == KKTResidual(0.0, 0.0)


CRAWL = "1234 1235 1245 1345 1236 1246 1256 1237 1247 1257"


def test_maximize_finishes_crawl_family():
    # each maximizer has a vertex exactly tied with the support: under the
    # replicator its weight decays like 1/iteration, so only the Newton
    # finish on the face reaches the exact point
    graphs = [Hypergraph(4, [tuple(map(int, e)) for e in edges.split()])
              for edges in (CRAWL, CRAWL + " 1238 1248 1258")]
    graphs += [list(enumerate_left_compressed(m, 4, 8))[i] for m, i in ((7, 3), (8, 6), (9, 11))]
    for H in graphs:
        res = maximize(H)
        assert res.value_exact == Fraction(27, 4096), H
        assert res.kkt_residual.on_support == 0, H


FLAT = Hypergraph(3, [(1, 2, 3), (1, 2, 4), (1, 3, 4), (1, 2, 5), (1, 3, 5), (1, 2, 6)])
FAR = Hypergraph(4, [tuple(map(int, e)) for e in (
    "1234 1235 1245 1345 2345 1236 1246 1346 1256 1356 "
    "1237 1247 1347 1257 1267 1238 1248 1258 1239 1249").split()])


def test_maximize_flat_face_minimal_support():
    # vertices 4 and 5 are twins: any split of 2/9 between them gives 4/81,
    # and maximize reports the split with the fewest positive weights
    res = maximize(FLAT)
    assert res.value_exact == Fraction(4, 81)
    assert res.weighting.values == STAR_MAX + (0, 0)


@pytest.mark.parametrize("r, edges, support", [
    (3, "124 134", (1, 2, 4)),
    (2, "13 14 16 26", (1, 3)),
    (2, "23 14 34 15 35", (1, 4)),
    (2, "25 45 16", (1, 6)),
    (3, "123 345", (1, 2, 3)),
])
def test_maximize_tie_rule_picks_one_support(r, edges, support, monkeypatch):
    # not left-compressed: equal-valued maximizers carry the same weights on
    # different vertices, and the smallest support wins whatever the seed.
    # In 124 134 (twins 2, 3) and 25 45 16 (twins 2, 4) the core already
    # drops the higher twin; 123 345 has no twins, so the rank decides.
    # The rank reads only the tie rows' faces: the winner alone is
    # rationalized, though every case but 124 134 ends with two or three
    # distinct tie rows
    calls = []
    rationalize = lagrangian._rationalize
    monkeypatch.setattr(lagrangian, "_rationalize", lambda y: calls.append(1) or rationalize(y))
    H = Hypergraph(r, [tuple(map(int, e)) for e in edges.split()])
    for seed in range(12):
        assert maximize(H, SolverConfig(seed=seed)).weighting.support == support, seed
        assert len(calls) == seed + 1, seed


def test_maximize_rejects_far_stationary_point():
    # left-compressed, r=4: the burn-in leaves a decaying weight on vertex 7,
    # and Newton on the face that keeps it settles far away, at a stationary
    # point below the start; taken as the finish, the report would be the
    # uncertified K5 point of value 1/125
    res = maximize(FAR)
    assert res.value > 0.0083938
    assert res.kkt_residual.on_support <= 1e-7
    assert res.kkt_residual.off_support <= 1e-7


def _start_rows(n, *weights):
    # one row per {vertex: weight} dict, on vertices 1..n, scaled to sum 1
    Y = np.zeros((len(weights), n))
    for row, w in zip(Y, weights):
        row[[v - 1 for v in w]] = list(w.values())
    return Y / Y.sum(axis=1, keepdims=True)


def _uniform(*vertices):
    return dict.fromkeys(vertices, 1.0)


# each row's first Newton run: settles inside its face, settles on a point
# with a negative weight, or fails (leaves the box or ends below its start)
NEWTON_STACKS = [
    (FAR, [_uniform(1, 2, 3, 4, 5), {1: 0.25, 2: 0.2, 5: 0.2, 6: 0.2, 9: 0.15},
           {1: 0.2, 2: 0.2, 5: 0.2, 6: 0.15, 9: 0.25},
           _uniform(1, 2, 3, 5, 6, 8, 9)], ["settle", "fail", "fail", "negative"]),
    # vertices 4 and 5 of FLAT are twins, so the last three rows start on a
    # flat face, where the face system is singular
    (FLAT, [_uniform(1, 2, 3), _uniform(1, 3, 4, 6), _uniform(1, 2, 3, 4, 6),
            _uniform(1, 2, 3, 4, 5), {1: 0.3, 2: 0.2, 3: 0.2, 4: 0.25, 5: 0.05},
            {1: 0.3, 2: 0.2, 3: 0.2, 4: 0.05, 5: 0.25}],
     ["settle", "fail", "negative", "settle", "settle", "settle"]),
]


@pytest.mark.parametrize("H, weights, kinds", NEWTON_STACKS, ids=["far", "flat"])
def test_newton_rows_independent(H, weights, kinds, monkeypatch):
    # rows of every kind share one batch; each must come out exactly as it
    # does alone and in a reversed stack, so no mask or step leaks across rows
    E, supp = lagrangian._compile_edges(H)
    n, r = len(supp), H.r
    Y = _start_rows(n, *weights)
    S = Y > 0
    z, L, ok = lagrangian._newton_batch(E, n, r, Y, S)
    negative = ok & ((z <= 0) & S).any(axis=1)
    assert [("negative" if g else "settle") if o else "fail" for o, g in zip(ok, negative)] == kinds
    for t in range(len(Y)):
        zt, Lt, okt = lagrangian._newton_batch(E, n, r, Y[t:t + 1], S[t:t + 1])
        assert okt[0] == ok[t] and (not ok[t] or (np.array_equal(zt[0], z[t]) and Lt[0] == L[t]))

    Z, L = lagrangian._newton_faces(E, n, r, Y)
    for t in range(len(Y)):
        Zt, Lt = lagrangian._newton_faces(E, n, r, Y[t:t + 1])
        assert np.array_equal(Zt[0], Z[t]) and Lt[0] == L[t]
    Zr, Lr = lagrangian._newton_faces(E, n, r, Y[::-1])
    assert np.array_equal(Zr[::-1], Z) and np.array_equal(Lr[::-1], L)

    # each off-support coordinate j gets the identity row and column e_j, so
    # it decouples from the row's face system; the last row marks S
    seen = []
    step = lagrangian._face_step
    monkeypatch.setattr(lagrangian, "_face_step",
                        lambda A, rhs: seen.append(A.copy()) or step(A, rhs))
    lagrangian._newton_faces(E, n, r, Y)
    eye = np.eye(n + 1)
    off = [(A, j) for A in np.concatenate(seen) for j in np.flatnonzero(A[n, :n] == 0)]
    assert off
    for A, j in off:
        assert np.array_equal(A[j], eye[j]) and np.array_equal(A[:, j], eye[j])


def _graph(r, edges):
    return Hypergraph(r, [tuple(map(int, e)) for e in edges.split()])


def _bordered(J, S):
    # _newton_batch's face matrix: J on S, the identity off S, and the border
    # -1 on S in the last row and column
    A = np.where(S[:, None] & S[None, :], J, np.diag(~S * 1.0))
    return np.block([[A, -1.0 * S[:, None]], [-1.0 * S[None, :], np.zeros((1, 1))]])


def test_face_step_matches_pinv():
    # the eigen-solve gives the SVD pseudo-inverse's step: on well-conditioned
    # systems, and on exactly singular ones, where it is the minimal-norm step
    rng = np.random.default_rng(5)
    for n in range(2, 8):
        M = rng.normal(size=(30, n, n))
        S = rng.random((30, n)) < 0.7
        S[:, 0] = True
        A = np.stack([_bordered(m + m.T, s) for m, s in zip(M, S)])
        assert np.linalg.cond(A).max() < 1e5
        rhs = rng.normal(size=(30, n + 1))
        want = (np.linalg.pinv(A) @ rhs[:, :, None])[:, :, 0]
        assert np.abs(lagrangian._face_step(A, rhs) - want).max() <= 1e-12, n

    # FLAT's face S = {1..5}: twins 4 and 5 give A equal rows and columns,
    # so e_4 - e_5 spans its kernel and the step has d_4 = d_5
    S = np.array([True] * 5 + [False])
    for y in ([Fraction(k, 9) for k in (3, 2, 2, 1, 1, 0)],
              [Fraction(k, 20) for k in (6, 4, 4, 5, 1, 0)]):
        J = np.array([[float(evaluate(link(FLAT, (i, j)), y)) if i != j else 0.0
                       for j in range(1, 7)] for i in range(1, 7)])
        A = np.repeat(_bordered(J, S)[None], 20, axis=0)
        assert np.array_equal(A[0, 3], A[0, 4])
        rhs = rng.normal(size=(20, 7))
        d = lagrangian._face_step(A, rhs)
        assert np.abs(d - (np.linalg.pinv(A) @ rhs[:, :, None])[:, :, 0]).max() <= 1e-12
        assert np.abs(d[:, 3] - d[:, 4]).max() <= 1e-12


def test_newton_doubles_step_at_singular_root(monkeypatch):
    # vertex 5's link {12, 13, 14} equals 3 lambda at the K4 point, so the
    # face system on all five vertices is singular there: Newton's steps
    # halve while y_5 decays, and doubling them settles in far fewer steps
    E, _ = lagrangian._compile_edges(_graph(3, "123 124 134 234 125 135 145"))
    Y = np.array([[0.25 + tau, 0.25, 0.25, 0.25 - tau, eps]
                  for eps in (0.02, 0.01, 0.005, 0.001) for tau in (0, 0.003)])
    Y /= Y.sum(axis=1, keepdims=True)
    solved = []
    step = lagrangian._face_step
    monkeypatch.setattr(lagrangian, "_face_step",
                        lambda A, rhs: solved.append(len(A)) or step(A, rhs))
    _, _, ok = lagrangian._newton_batch(E, 5, 3, Y, Y > 0)
    assert ok.all()
    assert sum(solved) <= 100  # 152 row steps without the doubling
    Z, _ = lagrangian._newton_faces(E, 5, 3, Y)
    assert np.abs(Z - [0.25, 0.25, 0.25, 0.25, 0.0]).max() <= 1e-8


def _face_steps(monkeypatch):
    # the row count of each face step _newton_batch takes from here on
    sizes = []
    step = lagrangian._face_step
    monkeypatch.setattr(lagrangian, "_face_step",
                        lambda A, rhs: sizes.append(len(A)) or step(A, rhs))
    return sizes


def test_newton_row_meeting_an_earlier_row_takes_its_end(monkeypatch):
    # two runs toward the singular K4 root of test_newton_doubles_step_at_singular_root
    # meet mid-Newton: the first keeps its own trajectory bit for bit, the
    # second stops there and ends exactly where the first ends
    E, _ = lagrangian._compile_edges(_graph(3, "123 124 134 234 125 135 145"))
    Y = np.array([[0.25, 0.25, 0.25, 0.25, 0.02], [0.253, 0.25, 0.25, 0.247, 0.005]])
    Y /= Y.sum(axis=1, keepdims=True)
    sizes = _face_steps(monkeypatch)
    alone = []
    for t in range(2):
        sizes.clear()
        alone.append((*lagrangian._newton_batch(E, 5, 3, Y[t:t + 1], Y[t:t + 1] > 0), len(sizes)))
    sizes.clear()
    z, L, ok = lagrangian._newton_batch(E, 5, 3, Y, Y > 0)
    assert ok.all()
    (z0, L0, _, steps0), (_, _, _, steps1) = alone
    assert np.array_equal(z[0], z0[0]) and L[0] == L0[0]
    assert np.array_equal(z[1], z[0]) and L[1] == L[0]
    assert sum(sizes) - steps0 < steps1  # the second row's face steps: 3 against 15 alone


def test_newton_row_leaving_the_box_fails_at_once(monkeypatch):
    # H^{29,3}'s burn-in runs reach Newton on faces whose roots lie far
    # outside the simplex; a row fails as soon as it leaves [-2, 2]^n rather
    # than growing to |z| ~ 3,000 over 54 face steps
    sizes, calls = _face_steps(monkeypatch), []  # calls: face steps before each finish
    faces = lagrangian._newton_faces
    monkeypatch.setattr(lagrangian, "_newton_faces",
                        lambda *a, **kw: calls.append(len(sizes)) or faces(*a, **kw))
    res = maximize(colex_segment(29, 3), SolverConfig(starts=50, seed=1))
    assert res.value_exact == Fraction(5, 54)
    assert calls[1] - calls[0] <= 10  # the first finish's face steps: 6 here


# exact maximize outputs (seed 1, 50 starts) that a change to the Newton
# numerics must not move: the crawl graphs, whose maximizers are singular
# roots of the face system, FLAT, FAR, the graph of
# test_maximize_polishes_unsorted_winner, and H^{m,3} for m = 4..10
PINNED = [
    (_graph(3, "123 124 134 234 125 135 145"),
     "1/16", "1/4 1/4 1/4 1/4 0"),
    (_graph(3, "123 124 134 234 125 135 145 126"),
     "1/16", "1/4 1/4 1/4 1/4 0 0"),
    (_graph(3, "123 124 134 234 125 135 145 126 127"),
     "1/16", "1/4 1/4 1/4 1/4 0 0 0"),
    (_graph(3, "123 124 134 234 125 135 145 126 136"),
     "1/16", "1/4 1/4 1/4 1/4 0 0"),
    (_graph(3, "123 124 134 234 125 135 145 126 136 127"),
     "1/16", "1/4 1/4 1/4 1/4 0 0 0"),
    (_graph(3, "123 124 134 234 125 135 145 126 136 146"),
     "1/16", "1/4 1/4 1/4 1/4 0 0"),
    (FLAT,
     "4/81", "1/3 2/9 2/9 2/9 0 0"),
    (FAR,
     "199590333740483940080180205246789788408555543274546002525648050312762409064266754158247/23778274027516183484816632854604795278955842520592963030251324690328392267546002930243856", "2796361372689566369977/12417812039455372078822 2277900333411488114283/12417812039455372078822 2277900333411488114283/12417812039455372078822 976905260125935371024/6208906019727686039411 976905260125935371024/6208906019727686039411 1158028959439087996183/12417812039455372078822 0 0 0"),
    (_graph(3, "123 134 234 125 135 235 245 126 136 236 146 456"),
     "17615284758925683189310265244814438455720256075953975101696659279919520/280492458021852749504891431170595841731311470146442977768341528263162719", "155903093864317053860130/654596576176388110871839 155903093864317053860130/654596576176388110871839 161829765760286159362780/654596576176388110871839 25533811072846771694055/654596576176388110871839 77713405807310536047372/654596576176388110871839 77713405807310536047372/654596576176388110871839"),
    (colex_segment(4, 3),
     "1/16", "1/4 1/4 1/4 1/4"),
    (colex_segment(5, 3),
     "1/16", "1/4 1/4 1/4 1/4 0"),
    (colex_segment(6, 3),
     "1/16", "1/4 1/4 1/4 1/4 0"),
    (colex_segment(7, 3),
     "1/16", "1/4 1/4 1/4 1/4 0"),
    (colex_segment(8, 3),
     "12251467569332414126117838406278676887123341453/182107567515544973167744438733960060828136332750", "2255969635578278/8605947239754865 171053348708566/782358839977715 171053348708566/782358839977715 39796983578279/264798376607842 39796983578279/264798376607842"),
    (colex_segment(9, 3),
     "2912127738071479557/39737034546105282121", "793079/3412441 793079/3412441 608761/3412441 608761/3412441 608761/3412441"),
    (colex_segment(10, 3),
     "2/25", "1/5 1/5 1/5 1/5 1/5"),
]


def test_maximize_pinned_outputs():
    for H, value, weights in PINNED:
        res = maximize(H, SolverConfig(starts=50, seed=1))
        assert str(res.value_exact) == value, H
        assert " ".join(map(str, res.weighting.values)) == weights, H


def test_maximize_block_size(monkeypatch):
    # the Newton finish walks its rows in blocks; the block size cannot
    # change a result.  The graph 13 14 16 26 has a flat face that no
    # twins make (y_1 = 1/2, y_3 + y_6 = 1/2; 6 also meets 2), so its runs
    # reach Newton as more rows than the default block of 64 holds, yet no
    # _newton_batch call, whose memory grows with its rows, takes more
    graphs = [FAR, FLAT, STAR, colex_segment(30, 3), _graph(2, "13 14 16 26")]
    cfg = SolverConfig(starts=100, seed=1)
    faces, batch = lagrangian._newton_faces, lagrangian._newton_batch
    sizes, batch_rows = [], []
    monkeypatch.setattr(lagrangian, "_newton_faces",
                        lambda E, n, r, Y, **kw: sizes.append(len(Y)) or faces(E, n, r, Y, **kw))
    monkeypatch.setattr(lagrangian, "_newton_batch",
                        lambda E, n, r, Z, S: batch_rows.append(len(Z)) or batch(E, n, r, Z, S))
    want = [maximize(H, cfg) for H in graphs]
    assert max(sizes) > 64
    assert max(batch_rows) <= 64
    for chunk in (1, 7):
        monkeypatch.setattr(lagrangian, "_newton_faces", functools.partial(faces, chunk=chunk))
        assert [maximize(H, cfg) for H in graphs] == want, chunk


def _add_twin(H, v):
    # H plus a copy of v's edges on the fresh label max + 1: a twin of v
    w = H.max_vertex() + 1
    return Hypergraph(H.r, [*H.edges, *(tuple(w if u == v else u for u in e) for e in H.edges if v in e)])


def test_maximize_ignores_added_twin():
    # a twin above every label leaves the core alone, so the same seed gives
    # the same value and weights, with a zero for the twin
    rng = random.Random(16)
    for _ in range(40):
        r = rng.randint(2, 4)
        pool = list(itertools.combinations(range(1, 7), r))
        H = Hypergraph(r, rng.sample(pool, rng.randint(1, min(len(pool), 8))))
        H2 = _add_twin(H, rng.choice(H.support))
        cfg = SolverConfig(starts=20, seed=rng.randrange(100))
        a, b = maximize(H, cfg), maximize(H2, cfg)
        assert b.value_exact == a.value_exact, H2
        assert b.weighting.values == a.weighting.values + (0,), H2


def test_maximize_solves_twin_free_core(monkeypatch):
    # H^{30,3} (twins 6 and 7) and K4^{(3)} + {125, 135, 235} (twins 4 and
    # 5): on the core the maximizer is a point, not a segment every run
    # lands on at its own place.  Newton's face matrices, summed over its
    # steps: 6 and 2 here, over 300 each without the core
    sizes = _face_steps(monkeypatch)
    for H in (colex_segment(30, 3), _graph(3, "123 124 134 234 125 135 235")):
        sizes.clear()
        maximize(H, SolverConfig(starts=50, seed=1))
        assert sum(sizes) <= 10, H


def test_twin_free_core_keeps_adjacent_exchangeable_vertices():
    # clique vertices are exchangeable but share edges, so none is a twin
    K = clique(5, 3)
    assert twin_free_core(K) == K
    assert maximize(K).weighting.values == (Fraction(1, 5),) * 5
    # 4 and 5 of FLAT are twins, 6 is not: its link {12} is not theirs
    assert twin_free_core(FLAT) == _graph(3, "123 124 134 126")


def _random_graphs(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        r = rng.randint(2, 4)
        pool = list(itertools.combinations(range(1, 8), r))
        yield rng, Hypergraph(r, rng.sample(pool, rng.randint(1, min(len(pool), 10))))


def test_twin_free_core_of_a_blow_up_is_the_base_graph():
    # twins above every label leave a twin-free base as it was
    checked = 0
    for rng, H in _random_graphs(21, 200):
        if twin_free_core(H) != H:
            continue
        B = H
        for _ in range(rng.randint(1, 3)):
            B = _add_twin(B, rng.choice(H.support))
        assert twin_free_core(B) == H, B
        checked += 1
    assert checked > 50


def test_twin_free_core_is_idempotent():
    for _, H in _random_graphs(22, 200):
        C = twin_free_core(H)
        assert twin_free_core(C) == C, H


def test_twin_free_core_keeps_the_lowest_label_of_each_class():
    # classes by equal links, computed with link(); the core is H on the
    # lowest label of each class
    for _, H in _random_graphs(23, 200):
        classes: dict = {}
        for v in H.support:
            classes.setdefault(link(H, (v,)), []).append(v)
        kept = {min(c) for c in classes.values()}
        C = twin_free_core(H)
        assert set(C.support) == kept, H
        assert C.edges == tuple(e for e in H.edges if kept.issuperset(e)), H


def test_certify_takes_the_descending_order_unless_its_own_is_better():
    # left-compressed STAR: any order of its maximizer comes back descending
    res = certify(STAR, STAR_MAX[::-1])
    assert res.weighting.values == STAR_MAX
    assert res.value_exact == evaluate(STAR, STAR_MAX)
    assert res.kkt_residual == kkt_residual(STAR, STAR_MAX)
    # a star at 3 scores 1/4 at (1/4, 1/4, 1/2) and 3/16 sorted descending
    H = _graph(2, "13 23")
    y = (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))
    assert certify(H, y).weighting.values == y
    assert certify(H, y).value_exact == Fraction(1, 4)
    # entries past H's support are not part of the certificate
    assert certify(STAR, STAR_MAX + (0, 0)).weighting.values == STAR_MAX
    with pytest.raises(ValueError):
        certify(STAR, (0.25,) * 4)
    with pytest.raises(ValueError):
        certify(STAR, STAR_MAX[:3])


def test_certify_returns_a_solvers_result_unchanged():
    for rng, H in _random_graphs(24, 60):
        res = maximize(H, SolverConfig(starts=8, seed=rng.randrange(100)))
        assert certify(H, res.weighting) == res, H


def test_distinct_matches_greedy_loop():
    # reference: in order, keep a row unless a kept row lies within 1e-6
    def loop(Y, rows):
        out = []
        for t in rows:
            if not out or np.abs(Y[out] - Y[t]).max(axis=1).min() >= 1e-6:
                out.append(t)
        return out

    rng = np.random.default_rng(3)
    for s, clusters in ((1, 1), (50, 3), (50, 50), (300, 20)):
        # noise of 1.5e-6 chains rows of one cluster, so a row near a dropped
        # row but far from every kept one must still be kept
        Y = rng.random((clusters, 6))[rng.integers(0, clusters, s)] + rng.random((s, 6)) * 1.5e-6
        for rows in (np.arange(s), rng.permutation(s), rng.permutation(s)[: s // 2]):
            assert [rows[a] for a in lagrangian._distinct(Y[rows])] == loop(Y, list(rows))


def test_maximize_deterministic():
    H = colex_segment(6, 3)
    a = maximize(H, SolverConfig(starts=10, seed=42))
    b = maximize(H, SolverConfig(starts=10, seed=42))
    assert a.value_exact == b.value_exact
    assert a.weighting == b.weighting


def test_maximize_starts(monkeypatch):
    # the rows maximize hands the burn-in: the uniform point, then seeded
    # points of the simplex, the same rows for the same seed whatever the
    # number of starts
    seen = []
    burn_in = lagrangian._replicator_batch
    monkeypatch.setattr(lagrangian, "_replicator_batch",
                        lambda E, n, Y, r: seen.append(Y.copy()) or burn_in(E, n, Y, r))
    H = _graph(3, "123 124 134 234 125 135 126")  # twin-free, on 6 vertices

    def draw(starts, seed):
        res = maximize(H, SolverConfig(starts=starts, seed=seed))
        return seen[-1], res

    Y, res = draw(50, 1)
    assert Y.shape == (50, 6)
    assert np.array_equal(Y[0], np.full(6, 1 / 6))
    assert (Y >= 0).all() and np.abs(Y.sum(axis=1) - 1).max() < 1e-15
    assert np.array_equal(draw(20, 1)[0], Y[:20])
    assert (draw(50, 7)[0][1:] != Y[1:]).any(axis=1).all()
    again, res2 = draw(50, 1)
    assert np.array_equal(again, Y) and res2 == res


def test_burn_in_cap_is_output_neutral(monkeypatch):
    # rows the cap stops early are finished by Newton on the same faces:
    # on the colex segments of the t=7 window (r=3) and of r=4 up to m=15,
    # four of whose 26 burn-ins stop at BURN_IN = 100, four times the cap
    # gives the same results
    graphs = [colex_segment(m, 3) for m in range(21, 36)] + [colex_segment(m, 4) for m in range(5, 16)]
    cfg = SolverConfig(seed=1)
    want = [maximize(H, cfg).to_json_dict() for H in graphs]
    monkeypatch.setattr(lagrangian, "BURN_IN", 4 * lagrangian.BURN_IN)
    assert [maximize(H, cfg).to_json_dict() for H in graphs] == want


def test_maximize_monotone_under_edge_addition():
    rng = random.Random(8)
    for _ in range(10):
        pool = list(itertools.combinations(range(1, 6), 3))
        k = rng.randint(1, len(pool) - 1)
        sub = rng.sample(pool, k)
        sup = sub + [e for e in pool if e not in sub][: rng.randint(1, 3)]
        lo = maximize(Hypergraph(3, sub), SolverConfig(starts=10, seed=3)).value
        hi = maximize(Hypergraph(3, sup), SolverConfig(starts=10, seed=3)).value
        assert lo <= hi + 1e-9


def test_maximize_agrees_with_motzkin_straus():
    rng = random.Random(77)
    for seed in range(8):
        n = rng.randint(3, 8)
        edges = [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < 0.6]
        if not edges:
            edges = [(1, 2)]
        H = Hypergraph(2, edges)
        res = maximize(H, SolverConfig(starts=12, seed=seed))
        assert abs(res.value - float(motzkin_straus_value(H))) <= 1e-6


def test_result_json_dict():
    res = maximize(clique(3, 3), SolverConfig(starts=4, seed=0))
    d = res.to_json_dict()
    assert d["value"] == "1/27"
    assert d["value_float"] == 0.037037037037  # float12, not 0.037037037037037035
    assert d["support_size"] == 3
    # the certificate only: how it was found is the caller's to record
    assert set(d) == {"value", "value_float", "weighting", "support_size",
                      "kkt_on_support", "kkt_off_support"}


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(starts=0)
    with pytest.raises(ValueError):
        SolverConfig(seed=-1)


# -- grid oracle -------------------------------------------------------------------


def test_grid_oracle_examples():
    assert grid_oracle(clique(3, 3), 3).value_exact == Fraction(1, 27)
    assert grid_oracle(Hypergraph(2, [(1, 2)]), 2).value_exact == Fraction(1, 4)
    res = grid_oracle(STAR, 9)
    assert res.value_exact == Fraction(4, 81)
    assert res.weighting.values == STAR_MAX
    # not left-compressed: no grid maximizer is non-increasing
    res = grid_oracle(Hypergraph(2, [(1, 4), (2, 3)]), 2)
    assert res.value_exact == Fraction(1, 4)
    assert res.weighting.values == (0, Fraction(1, 2), Fraction(1, 2), 0)
    # the walk keeps (0, 1/2, 1/2), but its descending rearrangement scores
    # no lower, so that is the weighting reported
    res = grid_oracle(Hypergraph(2, [(1, 2), (2, 3)]), 2)
    assert res.value_exact == Fraction(1, 4)
    assert res.weighting.values == (Fraction(1, 2), Fraction(1, 2), 0)
    # a general H's ties go to fewer positive entries first, as for the
    # partitions of a left-compressed H: (1,1,1,2,1)/6 walks first, but
    # (1,1,2,2,0)/6 has the same value on four vertices
    res = grid_oracle(_graph(3, "124 134 234 125 235 145"), 6)
    assert res.value_exact == Fraction(5, 108)
    assert res.weighting.values == (Fraction(1, 6), Fraction(1, 6), THIRD, THIRD, 0)
    # fine grids on a small left-compressed support: the walk is blocked
    res = grid_oracle(Hypergraph(2, [(1, 2)]), 10**5)
    assert res.value_exact == Fraction(1, 4)
    assert res.weighting.values == (Fraction(1, 2), Fraction(1, 2))
    res = grid_oracle(clique(3, 2), 3000)
    assert res.value_exact == THIRD
    assert res.weighting.values == (THIRD, THIRD, THIRD)


def _all_compositions(N, k):
    for bars in itertools.combinations(range(N + k - 1), k - 1):
        cuts = (-1, *bars, N + k - 1)
        yield tuple(b - a - 1 for a, b in zip(cuts, cuts[1:]))


def _partition_count(n, k):
    # partitions of n into at most k parts
    if n == 0:
        return 1
    if n < 0 or k == 0:
        return 0
    return _partition_count(n, k - 1) + _partition_count(n - k, k)


def _grid_rows(N, k, descending, **kw):
    return [tuple(row) for block in _grid(N, k, descending, **kw) for row in block.tolist()]


def test_grid_rows():
    for N, k in [(1, 1), (7, 1), (2, 5), (3, 4), (6, 6), (9, 4), (24, 7), (18, 8)]:
        rows = _grid_rows(N, k, True)
        assert len(rows) == _partition_count(N, k)
        assert len(set(rows)) == len(rows)
        assert rows == sorted(rows)  # lexicographically ascending
        for row in rows:
            assert len(row) == k and sum(row) == N
            assert list(row) == sorted(row, reverse=True)
        # small blocks split rows and value ranges alike, same rows in order
        blocks = list(_grid(N, k, True, chunk=3))
        assert all(0 < len(block) <= 3 for block in blocks)
        assert [tuple(row) for block in blocks for row in block.tolist()] == rows
    # the general walk: every composition, in the reference's (lexicographic)
    # order, whole or in blocks of 3 rows
    for N, k in [(1, 1), (7, 1), (0, 3), (2, 5), (3, 4), (6, 6), (9, 4), (12, 3)]:
        full = list(_all_compositions(N, k))
        assert _grid_rows(N, k, False) == full
        blocks = list(_grid(N, k, False, chunk=3))
        assert all(0 < len(block) <= 3 for block in blocks)
        assert [tuple(row) for block in blocks for row in block.tolist()] == full


LEFT_COMPRESSED_SMALL = [
    *(H for m in range(1, 7) for H in enumerate_left_compressed(m, 3, minimal_clique_order(m, 3) + 2)),
    *(H for m in range(5, 8) for H in enumerate_left_compressed(m, 4, 7)),
]


@pytest.mark.parametrize("N", [6, 9])
def test_grid_oracle_left_compressed_matches_full_grid(N, monkeypatch):
    # Brute force over every composition; the oracle only walks the
    # non-increasing ones, so it must find the same maximum and return the
    # non-increasing maximizer with the fewest positive entries, then the
    # lexicographically smallest, also when the walk is split into blocks.
    picks = []
    for H in LEFT_COMPRESSED_SMALL:
        k = len(H.support)
        # N^r * L(H, c/N) in Python integers, exact
        vals = {
            c: sum(math.prod(c[v - 1] for v in e) for e in H.edges)
            for c in _all_compositions(N, k)
        }
        best = max(vals.values())
        pick = min(
            (c for c, v in vals.items() if v == best and list(c) == sorted(c, reverse=True)),
            key=lambda c: (sum(x > 0 for x in c), c),
        )
        pick = tuple(Fraction(c, N) for c in pick)
        assert evaluate(H, pick) == Fraction(best, N**H.r)
        picks.append(pick)
    for chunk in (1 << 16, 2):
        monkeypatch.setattr(lagrangian, "_grid", functools.partial(_grid, chunk=chunk))
        for H, pick in zip(LEFT_COMPRESSED_SMALL, picks):
            res = grid_oracle(H, N)
            assert res.value_exact == evaluate(H, pick), (chunk, H.edges)
            assert res.weighting.values == pick, (chunk, H.edges)


def test_grid_oracle_monotone_under_refinement():
    assert grid_oracle(STAR, 9).value_exact >= grid_oracle(STAR, 3).value_exact
    H = colex_segment(5, 3)
    assert grid_oracle(H, 12).value_exact >= grid_oracle(H, 6).value_exact


def test_grid_oracle_lower_bounds_maximize():
    rng = random.Random(6)
    for seed in range(6):
        pool = list(itertools.combinations(range(1, 6), 3))
        H = Hypergraph(3, rng.sample(pool, rng.randint(1, 8)))
        res = maximize(H, SolverConfig(starts=10, seed=seed))
        assert grid_oracle(H, 8).value <= res.value + 1e-9


def test_grid_oracle_guards():
    with pytest.raises(ValueError):
        grid_oracle(clique(3, 3), 0)
    with pytest.raises(SizeError):
        grid_oracle(clique(40, 2), 12)
    with pytest.raises(SizeError):  # numpy's int64 products would overflow
        grid_oracle(Hypergraph(1, [(1,)]), 2**63)
    # 12 units on the 18 vertices of one edge: no product can overflow (and
    # every one is 0), though 12**18 > 2**63
    assert grid_oracle(Hypergraph(18, [range(1, 19)]), 12).value_exact == 0
    assert grid_oracle(Hypergraph(3, []), 5) == maximize(Hypergraph(3, []))


# -- certificates ------------------------------------------------------------------


def test_symmetrize_single_edge():
    y = [Fraction(1, 2), Fraction(3, 10), Fraction(1, 5)]
    z = symmetrize(clique(3, 3), y, 2, 3)
    assert z == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
    before = evaluate(clique(3, 3), y)
    after = evaluate(clique(3, 3), z)
    assert before == Fraction(3, 100)
    assert after == Fraction(1, 32)
    assert after >= before


def test_symmetrize_fixpoint():
    y = [Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)]
    z = symmetrize(clique(3, 3), y, 1, 2)
    assert z == tuple(y)
    z = symmetrize(clique(3, 3), Weighting(y), 1, 3)
    assert z == (Fraction(3, 8), Fraction(1, 4), Fraction(3, 8))
    assert all(type(v) is Fraction for v in z)
    assert symmetrize(clique(3, 3), [1, 0, 0], 1, 2) == (Fraction(1, 2), Fraction(1, 2), 0)


STAR_Y = [Fraction(2, 5), Fraction(3, 10), Fraction(1, 5), Fraction(1, 10)]


def test_symmetrize_star_pair():
    z = symmetrize(STAR, STAR_Y, 3, 4)
    assert z == (Fraction(2, 5), Fraction(3, 10), Fraction(3, 20), Fraction(3, 20))
    assert evaluate(STAR, z) >= evaluate(STAR, STAR_Y)


def test_symmetrize_requires_exchangeable():
    with pytest.raises(ValueError, match="not exchangeable"):
        symmetrize(STAR, STAR_Y, 1, 2)


def test_vertex_labels_below_one_rejected():
    # y[label - 1] at label 0 is y[-1], the last vertex: vertices 0 and 2 are
    # both isolated, so both link diffs are empty, and averaging y_2 with y_4
    # would lower L from 1/27 to 1/54
    third = [THIRD, 0, THIRD, THIRD]
    with pytest.raises(ValueError, match="not labels"):
        symmetrize(Hypergraph(3, [(1, 3, 4)]), third, 0, 2)
    half = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]
    with pytest.raises(ValueError, match="not labels"):
        check_pair_identity(Hypergraph(3, [(1, 2, 3)]), half, 0, 2)
    with pytest.raises(ValueError, match="not labels"):
        symmetrize(clique(3, 3), half, 1, 4)
    # label 9 has an empty link, whose bound would hold trivially
    for i in (0, -1, 9):
        with pytest.raises(ValueError, match="not labels"):
            check_scaling_bound(clique(4, 3), [Fraction(1, 4)] * 4, i)


_FLOATY = {
    "float": [0.25] * 4,
    "numpy-float": list(np.array([0.25] * 4)),
    "mixed": [Fraction(1, 4), 0.25, Fraction(1, 4), Fraction(1, 4)],
    "bool": [True, False, False, False],
}
_TAKES_WEIGHTS = {
    "evaluate": evaluate,
    "partials": partials,
    "kkt_residual": kkt_residual,
    "symmetrize": lambda H, y: symmetrize(H, y, 1, 2),
    "check_pair_identity": lambda H, y: check_pair_identity(H, y, 1, 2),
    "check_scaling_bound": lambda H, y: check_scaling_bound(H, y, 1),
    "find_improving_swap": find_improving_swap,
}


@pytest.mark.parametrize("kind", sorted(_FLOATY))
@pytest.mark.parametrize("fn", sorted(_TAKES_WEIGHTS))
def test_weight_vectors_must_be_exact(fn, kind):
    with pytest.raises(ValueError, match="Fraction or int"):
        _TAKES_WEIGHTS[fn](clique(4, 3), _FLOATY[kind])
    # the same call on exact weights goes through
    _TAKES_WEIGHTS[fn](clique(4, 3), [Fraction(1, 4)] * 4)


@pytest.mark.parametrize("fn", sorted(_TAKES_WEIGHTS))
def test_weight_vectors_must_cover_support(fn):
    # every vertex label the call takes indexes y, but y leaves vertices 3
    # and 4 of H without a weight
    with pytest.raises(ValueError, match="cannot cover support up to 4"):
        _TAKES_WEIGHTS[fn](clique(4, 3), [Fraction(1, 2)] * 2)


def test_kkt_residual_examples():
    assert kkt_residual(clique(4, 3), [Fraction(1, 4)] * 4).on_support == 0.0
    res = kkt_residual(STAR, STAR_MAX)
    assert res.on_support == 0.0
    corner = kkt_residual(Hypergraph(2, [(1, 2)]), [Fraction(1), Fraction(0)])
    assert corner.on_support == 0.0
    assert corner.off_support == 1.0


def test_pair_identity_at_maximizers():
    assert check_pair_identity(STAR, STAR_MAX, 1, 2) == 0
    assert check_pair_identity(STAR, STAR_MAX, 2, 3) == 0
    uniform = [Fraction(1, 4)] * 4
    for i, j in itertools.combinations(range(1, 5), 2):
        assert check_pair_identity(clique(4, 3), uniform, i, j) == 0
    with pytest.raises(ValueError):
        check_pair_identity(STAR, STAR_MAX, 3, 2)
    with pytest.raises(ValueError):
        check_pair_identity(Hypergraph(1, [(1,), (2,)]), [Fraction(1, 2)] * 2, 1, 2)


def test_pair_identity_r2_uses_indicator():
    # for graphs the pair link degenerates to the edge indicator
    tri = Hypergraph(2, [(1, 2), (1, 3), (2, 3)])
    y = [Fraction(1, 3)] * 3
    assert check_pair_identity(tri, y, 1, 2) == 0


def test_scaling_bound_equality_case():
    assert check_scaling_bound(clique(4, 3), [Fraction(1, 4)] * 4, 1)


def test_scaling_bound_degenerate_weight_one():
    assert check_scaling_bound(clique(4, 3), [Fraction(1), Fraction(0), Fraction(0), Fraction(0)], 1)
    # vertex 3 has an empty link, whose Lagrangian bound holds trivially
    assert check_scaling_bound(Hypergraph(3, [(1, 2, 4)]), [Fraction(1, 4)] * 4, 3)
    with pytest.raises(ValueError):
        check_scaling_bound(Hypergraph(1, [(1,)]), [Fraction(1)], 1)


# -- improving swaps ---------------------------------------------------------------


def test_swap_example():
    G = Hypergraph(3, [(1, 2, 3), (1, 2, 5)])
    y = Weighting([Fraction(k, 20) for k in (6, 6, 4, 3, 1)])
    swap = find_improving_swap(G, y)
    assert swap == ((1, 2, 5), (1, 2, 4))


def test_swap_gain_below_float_spacing():
    # swapping 12 for 13 raises L by exactly 1e-13: the comparison is exact,
    # so a gain too small for a float margin still counts
    G = Hypergraph(2, [(1, 2)])
    eps = Fraction(1, 10**13)
    y = [Fraction(1, 2), Fraction(1, 4) - eps, Fraction(1, 4) + eps]
    assert find_improving_swap(G, y) == ((1, 2), (1, 3))


def test_swap_example_monomials():
    # the swap pair from the worked example has these weights
    y = [0.3, 0.3, 0.2, 0.15, 0.05]
    drop = y[0] * y[1] * y[4]
    gain = y[0] * y[1] * y[3]
    assert abs(drop - 0.0045) < 1e-15
    assert abs(gain - 0.0135) < 1e-15


def test_swap_none_at_colex_maximizers():
    for m in range(1, 8):
        H = colex_segment(m, 3)
        res = maximize(H, SolverConfig(starts=12, seed=m))
        assert find_improving_swap(H, res.weighting) is None, m


def test_swap_none_on_clique_at_uniform():
    assert find_improving_swap(clique(4, 3), [Fraction(1, 4)] * 4) is None


def test_swap_exact_mode():
    G = Hypergraph(3, [(1, 2, 3), (1, 2, 5)])
    y = [Fraction(3, 10), Fraction(3, 10), Fraction(1, 5), Fraction(3, 20), Fraction(1, 20)]
    swap = find_improving_swap(G, y)
    assert swap == ((1, 2, 5), (1, 2, 4))


def test_swap_improves_value():
    rng = random.Random(23)
    found = 0
    for _ in range(60):
        pool = list(itertools.combinations(range(1, 7), 3))
        H = Hypergraph(3, rng.sample(pool, rng.randint(2, 8)))
        w = [rng.randint(0, 9) for _ in range(6)]
        if sum(w) == 0:
            w[0] = 1
        y = [Fraction(x, sum(w)) for x in w]
        swap = find_improving_swap(H, y)
        if swap is None:
            continue
        found += 1
        a, b = swap
        assert a in H and b not in H
        improved = Hypergraph(3, [e for e in H.edges if e != a] + [b])
        assert evaluate(improved, y) > evaluate(H, y)
    assert found > 0  # the sampler must actually exercise the swap path


def test_swap_empty_graph():
    assert find_improving_swap(Hypergraph(3, []), []) is None
