"""Seeded property suites: randomized (or exhaustive) checks of the
inequalities and identities the rest of the package relies on.

Each suite is a generator (seed, trials) registered in SUITES: for every
instance it checks it yields that instance's list of failure notes, empty
when the instance passes.  `run_suite` alone counts them into a SuiteResult
(one trial per list, one failure per note, the first five notes kept); the
CLI `check` subcommand runs suites through it by name.  Randomized suites
draw everything from one numpy Generator seeded at entry, so a (name, seed,
trials) triple always repeats exactly.  `trials` counts random instances:
the exhaustive `kk` ignores it; `kkt` and `swaps` add fixed instances.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .hypergraph import (
    Hypergraph,
    binom,
    clique,
    colex_segment,
    covers_pairs,
    enumerate_left_compressed,
    is_left_compressed,
    kk_link_bounds,
    left_compress,
    uncovered_pair_reduce,
)
from .lagrangian import (
    SolverConfig,
    check_pair_identity,
    check_scaling_bound,
    clique_lagrangian,
    evaluate,
    find_improving_swap,
    maximize,
    partials,
    symmetrize,
)

__all__ = ["SuiteResult", "SUITES", "run_suite", "available_suites"]


@dataclass
class SuiteResult:
    name: str
    trials: int
    failures: int
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.failures == 0


def _random_hypergraph(rng: np.random.Generator, r: int, n: int, m_max: int) -> Hypergraph:
    """m in [1, min(m_max, C(n, r))] edges drawn without replacement from [n]."""
    m = int(rng.integers(1, min(m_max, binom(n, r)) + 1))
    pool = list(itertools.combinations(range(1, n + 1), r))
    idx = rng.choice(len(pool), size=m, replace=False)
    return Hypergraph(r, (pool[i] for i in sorted(idx)))


def _random_instance(rng: np.random.Generator, r_hi: int, n_hi: int, m_max: int) -> Hypergraph:
    """r in [2, r_hi), n in [r + 1, n_hi), then _random_hypergraph."""
    r = int(rng.integers(2, r_hi))
    n = int(rng.integers(r + 1, n_hi))
    return _random_hypergraph(rng, r, n, m_max)


def _random_exact_simplex(rng: np.random.Generator, n: int) -> list[Fraction]:
    w = [int(x) for x in rng.integers(0, 20, n)]
    if sum(w) == 0:
        w[int(rng.integers(0, n))] = 1
    s = sum(w)
    return [Fraction(x, s) for x in w]


def suite_maclaurin(seed: int, trials: int) -> Iterator[list[str]]:
    """Elementary symmetric sums on the simplex: e_r(y) <= C(n,r)/n^r, exactly."""
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        n = int(rng.integers(2, 11))
        r = int(rng.integers(1, min(n, 5) + 1))
        y = _random_exact_simplex(rng, n)
        lhs = evaluate(clique(n, r), y)
        rhs = clique_lagrangian(n, r)
        yield [f"e_{r} = {lhs} > bound {rhs} at n={n}, y={y}"] if lhs > rhs else []


def suite_kk(seed: int, trials: int) -> Iterator[list[str]]:
    """Exhaustive shadow bounds, decided exactly: over every left-compressed
    3-graph with m <= 12 edges on [6], e(H_1) >= C(x-1,2) and
    e(H_j) <= 3 e(H) / j, where C(x,3) = m."""
    del seed, trials  # exhaustive
    for m in range(1, 13):
        for H in enumerate_left_compressed(m, 3, 6):
            lower, bad = kk_link_bounds(H)
            notes = []
            if not lower:
                notes.append(f"e(H_1)={H.degree(1)} < C(x-1,2) with C(x,3)={m} for {H!r}")
            if bad:
                notes.append(f"degree bound fails at vertices {bad} for {H!r}")
            yield notes


def suite_scaling(seed: int, trials: int) -> Iterator[list[str]]:
    """Link values scale: L(H_i, y) <= (1 - y_i)^(r-1) lambda(H_i)."""
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        H = _random_instance(rng, 5, 8, 8)
        y = _random_exact_simplex(rng, H.max_vertex())
        i = int(H.support[rng.integers(0, len(H.support))])
        ok = check_scaling_bound(H, y, i)
        yield [] if ok else [f"scaling bound fails at vertex {i} of {H!r}, y={y}"]


def suite_kkt(seed: int, trials: int) -> Iterator[list[str]]:
    """At every computed maximizer: on-support links equal r L within 1e-7,
    off-support links do not exceed it by 1e-7, and on left-compressed
    instances every support pair obeys the pair identity within 1e-6."""
    rng = np.random.default_rng(seed)
    instances = [colex_segment(m, 3) for m in range(1, 8)]
    instances += [clique(t, 3) for t in range(3, 7)]
    instances += [clique(t, 2) for t in range(2, 6)]
    extra = [H for m in range(4, 11) for H in enumerate_left_compressed(m, 3, 5)]
    for _ in range(trials):
        instances.append(extra[int(rng.integers(0, len(extra)))])
    cfg = SolverConfig(starts=24, seed=seed)
    for H in instances:
        res = maximize(H, cfg)
        kkt = res.kkt_residual
        notes = []
        if kkt.on_support > 1e-7 or kkt.off_support > 1e-7:
            notes.append(f"KKT residuals ({kkt.on_support}, {kkt.off_support}) for {H!r}")
        elif is_left_compressed(H):
            supp = res.weighting.support
            worst = max(
                (check_pair_identity(H, res.weighting, i, j)
                 for i, j in itertools.combinations(supp, 2)),
                default=Fraction(0),
            )
            if worst > 1e-6:
                notes.append(f"pair identity residual {float(worst)} for {H!r}")
        yield notes


def suite_compression(seed: int, trials: int) -> Iterator[list[str]]:
    """Left compression never lowers the Lagrangian."""
    rng = np.random.default_rng(seed)
    cfg = SolverConfig(starts=8, seed=seed)
    for _ in range(trials):
        H = _random_instance(rng, 4, 7, 7)
        HC = left_compress(H)
        a = maximize(H, cfg).value
        b = maximize(HC, cfg).value
        yield [f"lambda drops {a} -> {b} compressing {H!r}"] if b < a - 1e-6 else []


def suite_swaps(seed: int, trials: int) -> Iterator[list[str]]:
    """Soundness of the swap search: a reported (A, B) strictly improves L at
    the given weighting; and no improving swap exists at the maximizers of
    the colex segments H^{m,3}, m <= 7."""
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        H = _random_instance(rng, 4, 7, 7)
        y = _random_exact_simplex(rng, H.max_vertex())
        hit = find_improving_swap(H, y)
        notes = []
        if hit is not None:
            A, B = hit
            H2 = Hypergraph(H.r, [e for e in H.edges if e != A] + [B])
            pad = y + [Fraction(0)] * (max(B) - len(y)) if max(B) > len(y) else y
            if not evaluate(H2, pad) > evaluate(H, y):
                notes.append(f"swap {A}->{B} does not improve {H!r} at y={y}")
        yield notes
    for m in range(1, 8):
        H = colex_segment(m, 3)
        res = maximize(H, SolverConfig(starts=24, seed=seed))
        found = find_improving_swap(H, res.weighting) is not None
        yield [f"improving swap found at the maximizer of H^{{{m},3}}"] if found else []


def suite_uncovered(seed: int, trials: int) -> Iterator[list[str]]:
    """Uncovered-pair reduction bounds lambda: lambda(H) <= max over parts."""
    rng = np.random.default_rng(seed)
    cfg = SolverConfig(starts=8, seed=seed)
    for _ in range(trials):
        H = _random_instance(rng, 4, 8, 6)
        while covers_pairs(H)[0]:  # the reduction needs an uncovered pair
            H = _random_instance(rng, 4, 8, 6)
        whole = maximize(H, cfg).value
        parts = uncovered_pair_reduce(H)
        best = max(maximize(P, cfg).value for P in parts)
        yield [f"lambda({H!r}) = {whole} beats both parts ({best})"] if whole > best + 1e-6 else []


def suite_symmetrize(seed: int, trials: int) -> Iterator[list[str]]:
    """Averaging the weights of exchangeable vertices never lowers L (exact)."""
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        r = int(rng.integers(2, 4))
        n = int(rng.integers(r + 1, 8))
        H0 = _random_hypergraph(rng, r, n, 8)
        i, j = sorted(rng.choice(np.arange(1, n + 1), size=2, replace=False).tolist())
        swap = {i: j, j: i}
        H = Hypergraph(r, list(H0.edges)
                       + [tuple(sorted(swap.get(v, v) for v in e)) for e in H0.edges])
        y = _random_exact_simplex(rng, n)
        z = symmetrize(H, y, i, j)
        lowered = evaluate(H, z) < evaluate(H, y)
        yield [f"symmetrizing ({i},{j}) lowered L on {H!r} at y={y}"] if lowered else []


def suite_gradient(seed: int, trials: int) -> Iterator[list[str]]:
    """partials() is the unit difference: L is affine in each weight, so
    L(y + e_i) - L(y) = L(H_i, y), exactly."""
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        r = int(rng.integers(1, 5))
        n = int(rng.integers(max(2, r), 8))
        H = _random_hypergraph(rng, r, n, 10)
        y = _random_exact_simplex(rng, n)
        g = partials(H, y)
        base = evaluate(H, y)
        notes = []
        for i in rng.choice(np.arange(n), size=min(3, n), replace=False).tolist():
            bumped = list(y)
            bumped[i] += 1
            diff = evaluate(H, bumped) - base
            if diff != g[i]:
                notes.append(f"d/dy_{i + 1} = {g[i]} vs unit difference {diff} on {H!r}")
        yield notes


SUITES = {
    "maclaurin": suite_maclaurin,
    "kk": suite_kk,
    "scaling": suite_scaling,
    "kkt": suite_kkt,
    "compression": suite_compression,
    "swaps": suite_swaps,
    "uncovered": suite_uncovered,
    "symmetrize": suite_symmetrize,
    "gradient": suite_gradient,
}


def available_suites() -> list[str]:
    return sorted(SUITES)


def run_suite(name: str, seed: int = 0, trials: int = 500) -> SuiteResult:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; available: {', '.join(available_suites())}")
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    per_instance = list(SUITES[name](seed, trials))
    notes = [note for instance in per_instance for note in instance]
    return SuiteResult(name, len(per_instance), len(notes), notes[:5])
