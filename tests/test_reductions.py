"""Improvement moves: uncovered-pair deletion and edge swaps."""

import itertools
import random
from fractions import Fraction

from hylag import (
    Hypergraph,
    SolverConfig,
    Weighting,
    clique,
    colex_segment,
    evaluate,
    find_improving_swap,
    maximize,
    uncovered_pair_reduce,
)


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
