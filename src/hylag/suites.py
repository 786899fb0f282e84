"""Seeded property suites: randomized (or exhaustive) checks of the
inequalities and identities the rest of the package relies on.

Each suite is a function (seed, trials) -> SuiteResult and is registered in
SUITES; the CLI `check` subcommand runs them by name.  Randomized suites draw
everything from one numpy Generator seeded at entry, so a (name, seed,
trials) triple always repeats exactly.  Exhaustive suites ignore `trials`
and report how many instances they swept.
"""

from __future__ import annotations

import itertools
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

    def _fail(self, note: str) -> None:
        self.failures += 1
        if len(self.notes) < 5:
            self.notes.append(note)


def _random_hypergraph(rng: np.random.Generator, r: int, n: int, m: int) -> Hypergraph:
    pool = list(itertools.combinations(range(1, n + 1), r))
    take = min(m, len(pool))
    idx = rng.choice(len(pool), size=take, replace=False)
    return Hypergraph(r, (pool[i] for i in sorted(idx)))


def _random_exact_simplex(rng: np.random.Generator, n: int) -> list[Fraction]:
    w = [int(x) for x in rng.integers(0, 20, n)]
    if sum(w) == 0:
        w[int(rng.integers(0, n))] = 1
    s = sum(w)
    return [Fraction(x, s) for x in w]


def suite_maclaurin(seed: int, trials: int) -> SuiteResult:
    """Elementary symmetric sums on the simplex: e_r(y) <= C(n,r)/n^r, exactly."""
    rng = np.random.default_rng(seed)
    out = SuiteResult("maclaurin", trials, 0)
    for _ in range(trials):
        n = int(rng.integers(2, 11))
        r = int(rng.integers(1, min(n, 5) + 1))
        y = _random_exact_simplex(rng, n)
        lhs = evaluate(clique(n, r), y)
        rhs = clique_lagrangian(n, r)
        if lhs > rhs:
            out._fail(f"e_{r} = {lhs} > bound {rhs} at n={n}, y={y}")
    return out


def suite_kk(seed: int, trials: int) -> SuiteResult:
    """Exhaustive shadow bounds, decided exactly: over every left-compressed
    3-graph with m <= 12 edges on [6], e(H_1) >= C(x-1,2) and
    e(H_j) <= 3 e(H) / j, where C(x,3) = m."""
    del seed, trials  # exhaustive
    out = SuiteResult("kk", 0, 0)
    for m in range(1, 13):
        for H in enumerate_left_compressed(m, 3, 6):
            out.trials += 1
            lower, bad = kk_link_bounds(H)
            if not lower:
                out._fail(f"e(H_1)={H.degree(1)} < C(x-1,2) with C(x,3)={m} for {H!r}")
            if bad:
                out._fail(f"degree bound fails at vertices {bad} for {H!r}")
    return out


def suite_scaling(seed: int, trials: int) -> SuiteResult:
    """Link values scale: L(H_i, y) <= (1 - y_i)^(r-1) lambda(H_i)."""
    rng = np.random.default_rng(seed)
    out = SuiteResult("scaling", trials, 0)
    for _ in range(trials):
        r = int(rng.integers(2, 5))
        n = int(rng.integers(r + 1, 8))
        m = int(rng.integers(1, min(8, binom(n, r)) + 1))
        H = _random_hypergraph(rng, r, n, m)
        y = _random_exact_simplex(rng, H.max_vertex())
        i = int(H.support[rng.integers(0, len(H.support))])
        if not check_scaling_bound(H, y, i):
            out._fail(f"scaling bound fails at vertex {i} of {H!r}, y={y}")
    return out


def _kkt_fixtures() -> list[Hypergraph]:
    fixtures = [colex_segment(m, 3) for m in range(1, 8)]
    fixtures += [clique(t, 3) for t in range(3, 7)]
    fixtures += [clique(t, 2) for t in range(2, 6)]
    return fixtures


def suite_kkt(seed: int, trials: int) -> SuiteResult:
    """At every computed maximizer: on-support links equal r L within 1e-7,
    off-support links do not exceed it by 1e-7, and on left-compressed
    instances every support pair obeys the pair identity within 1e-6."""
    rng = np.random.default_rng(seed)
    out = SuiteResult("kkt", 0, 0)
    instances = _kkt_fixtures()
    extra = [H for m in range(4, 11) for H in enumerate_left_compressed(m, 3, 5)]
    for _ in range(trials):
        instances.append(extra[int(rng.integers(0, len(extra)))])
    for k, H in enumerate(instances):
        out.trials += 1
        res = maximize(H, SolverConfig(starts=24, seed=seed + k))
        kkt = res.kkt_residual
        if kkt.on_support > 1e-7 or kkt.off_support > 1e-7:
            out._fail(f"KKT residuals ({kkt.on_support}, {kkt.off_support}) for {H!r}")
            continue
        if is_left_compressed(H):
            supp = res.weighting.support
            worst = max(
                (check_pair_identity(H, res.weighting, i, j)
                 for i, j in itertools.combinations(supp, 2)),
                default=Fraction(0),
            )
            if worst > 1e-6:
                out._fail(f"pair identity residual {float(worst)} for {H!r}")
    return out


def suite_compression(seed: int, trials: int) -> SuiteResult:
    """Left compression never lowers the Lagrangian."""
    rng = np.random.default_rng(seed)
    out = SuiteResult("compression", trials, 0)
    cfg = SolverConfig(starts=8, seed=seed)
    for _ in range(trials):
        r = int(rng.integers(2, 4))
        n = int(rng.integers(r + 1, 7))
        m = int(rng.integers(1, min(7, binom(n, r)) + 1))
        H = _random_hypergraph(rng, r, n, m)
        HC = left_compress(H)
        a = maximize(H, cfg).value
        b = maximize(HC, cfg).value
        if b < a - 1e-6:
            out._fail(f"lambda drops {a} -> {b} compressing {H!r}")
    return out


def suite_swaps(seed: int, trials: int) -> SuiteResult:
    """Soundness of the swap search: a reported (A, B) strictly improves L at
    the given weighting; and no improving swap exists at the maximizers of
    the colex segments H^{m,3}, m <= 7."""
    rng = np.random.default_rng(seed)
    out = SuiteResult("swaps", 0, 0)
    for _ in range(trials):
        out.trials += 1
        r = int(rng.integers(2, 4))
        n = int(rng.integers(r + 1, 7))
        m = int(rng.integers(1, min(7, binom(n, r)) + 1))
        H = _random_hypergraph(rng, r, n, m)
        y = _random_exact_simplex(rng, H.max_vertex())
        hit = find_improving_swap(H, y)
        if hit is None:
            continue
        A, B = hit
        H2 = Hypergraph(H.r, [e for e in H.edges if e != A] + [B])
        pad = y + [Fraction(0)] * (max(B) - len(y)) if max(B) > len(y) else y
        if not evaluate(H2, pad) > evaluate(H, y):
            out._fail(f"swap {A}->{B} does not improve {H!r} at y={y}")
    for m in range(1, 8):
        out.trials += 1
        H = colex_segment(m, 3)
        res = maximize(H, SolverConfig(starts=24, seed=seed))
        if find_improving_swap(H, res.weighting) is not None:
            out._fail(f"improving swap found at the maximizer of H^{{{m},3}}")
    return out


def suite_uncovered(seed: int, trials: int) -> SuiteResult:
    """Uncovered-pair reduction bounds lambda: lambda(H) <= max over parts."""
    rng = np.random.default_rng(seed)
    out = SuiteResult("uncovered", trials, 0)
    cfg = SolverConfig(starts=8, seed=seed)
    for _ in range(trials):
        r = int(rng.integers(2, 4))
        n = int(rng.integers(r + 1, 8))
        m = int(rng.integers(1, min(6, binom(n, r)) + 1))
        H = _random_hypergraph(rng, r, n, m)
        if covers_pairs(H)[0]:
            continue
        whole = maximize(H, cfg).value
        parts = uncovered_pair_reduce(H)
        best = max(maximize(P, cfg).value for P in parts)
        if whole > best + 1e-6:
            out._fail(f"lambda({H!r}) = {whole} beats both parts ({best})")
    return out


def suite_symmetrize(seed: int, trials: int) -> SuiteResult:
    """Averaging the weights of exchangeable vertices never lowers L (exact)."""
    rng = np.random.default_rng(seed)
    out = SuiteResult("symmetrize", trials, 0)
    for _ in range(trials):
        r = int(rng.integers(2, 4))
        n = int(rng.integers(r + 1, 8))
        m = int(rng.integers(1, min(8, binom(n, r)) + 1))
        H0 = _random_hypergraph(rng, r, n, m)
        i, j = sorted(rng.choice(np.arange(1, n + 1), size=2, replace=False).tolist())
        swap = {i: j, j: i}
        H = Hypergraph(r, list(H0.edges)
                       + [tuple(sorted(swap.get(v, v) for v in e)) for e in H0.edges])
        y = _random_exact_simplex(rng, n)
        z = symmetrize(H, y, i, j)
        if evaluate(H, z) < evaluate(H, y):
            out._fail(f"symmetrizing ({i},{j}) lowered L on {H!r} at y={y}")
    return out


def suite_gradient(seed: int, trials: int) -> SuiteResult:
    """partials() is the unit difference: L is affine in each weight, so
    L(y + e_i) - L(y) = L(H_i, y), exactly."""
    rng = np.random.default_rng(seed)
    out = SuiteResult("gradient", trials, 0)
    for _ in range(trials):
        r = int(rng.integers(1, 5))
        n = int(rng.integers(max(2, r), 8))
        m = int(rng.integers(1, min(10, binom(n, r)) + 1))
        H = _random_hypergraph(rng, r, n, m)
        y = _random_exact_simplex(rng, n)
        g = partials(H, y)
        base = evaluate(H, y)
        for i in rng.choice(np.arange(n), size=min(3, n), replace=False).tolist():
            bumped = list(y)
            bumped[i] += 1
            diff = evaluate(H, bumped) - base
            if diff != g[i]:
                out._fail(f"d/dy_{i + 1} = {g[i]} vs unit difference {diff} on {H!r}")
    return out


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
    return SUITES[name](seed, trials)
