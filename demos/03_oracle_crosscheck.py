#!/usr/bin/env python3
"""Cross-check the numeric solver against the exact grid oracle.

grid_oracle(H, N) finds the exact maximum of L (integer arithmetic) over the
simplex grid with denominator N, so its value is a certified lower bound on
lambda.  For a left-compressed H, like every graph below, it needs only the
non-increasing grid points: swapping a smaller weight onto a lower vertex
never loses value.  The solver should never fall below it, and on small
fixtures the two should nearly agree.
"""

from hylag import SolverConfig, clique, colex_segment, grid_oracle, maximize

print(f"{'graph':<12} {'solver':>16} {'oracle N=18':>16} {'solver-oracle':>14}")
for name, H in [
    ("H^{2,3}", colex_segment(2, 3)),
    ("H^{5,3}", colex_segment(5, 3)),
    ("H^{9,3}", colex_segment(9, 3)),
    ("[5]^(3)", clique(5, 3)),
    ("[6]^(3)", clique(6, 3)),
]:
    res = maximize(H, SolverConfig(starts=24, seed=1))
    orc = grid_oracle(H, 18)
    gap = res.value - orc.value
    assert gap >= -1e-9, "solver fell below a certified lower bound!"
    print(f"{name:<12} {res.value:>16.12f} {orc.value:>16.12f} {gap:>14.2e}")

print()
print("The oracle is exact; it walks only the non-increasing grid points when")
print("H is left-compressed (733 of 593,775 for 7 vertices at N=24) and the")
print("full grid otherwise.  The solver is fast but numeric; its winner is")
print("certified by an exact evaluation at rational weights, which is what the")
print("verifier compares.")
