#!/usr/bin/env python3
"""Maximize a few Lagrangians and inspect the certificates that come back.

The solver is numeric: a multistart replicator burn-in, then Newton's method
on each run's face system (all support links equal, weights summing to 1),
with every run advancing in one stacked solve per step.  It then
rationalizes its answer, so every result carries an exact weighting and the
exact value there, and the KKT residuals measure stationarity directly.
"""

from hylag import SolverConfig, clique, clique_lagrangian, colex_segment, maximize

cfg = SolverConfig(starts=24, seed=0)

print("Cliques first: lambda([t]^(3)) = C(t,3)/t^3.")
for t in (3, 4, 5, 6):
    res = maximize(clique(t, 3), cfg)
    assert res.value_exact == clique_lagrangian(t, 3)
    print(f"  t={t}:  lambda = {res.value_exact} = {res.value:.10f}   "
          f"kkt=({res.kkt_residual.on_support:.1e}, {res.kkt_residual.off_support:.1e})")

print()
print("Colex segments between cliques plateau, then climb:")
lam = {}
for m in range(1, 11):
    res = maximize(colex_segment(m, 3), cfg)
    lam[m] = res.value_exact
    if res.value_exact.denominator <= 10**6:
        tag = str(res.value_exact)
    else:
        tag = f"~{res.value:.12f} (irrational; rational witness nearby)"
        assert res.kkt_residual.on_support > 0
    print(f"  m={m:>2}:  lambda(H^{{m,3}}) = {tag}   support={res.support_size}")

# the plateaus and climbs the note below describes
assert lam[1] == lam[2] == clique_lagrangian(3, 3) < lam[3]
assert all(lam[m] == clique_lagrangian(4, 3) for m in range(4, 8)) and lam[8] > lam[7]
assert all(lam[m].denominator > 10**6 for m in (8, 9))

print()
print("Note m=1..2 share 1/27 and m=4..7 share 1/16: adding an edge beyond a")
print("clique buys nothing until the next clique is within reach.  For m=8")
print("and m=9 the maximum is irrational, so the certificate is a rational")
print("weighting whose value is a certified lower bound and whose KKT")
print("residual measures its distance from stationarity.")
