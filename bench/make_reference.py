"""Write reference.json: the exact values the benchmark checks outputs against.

    python3 bench/make_reference.py        # needs mpmath; run from the repo root

None of the values depends on a seed:

* lagrangian[r][m] is lambda(H^{m,r}), the Lagrangian of the colex segment,
  for every instance a workload reports.  The solver supplies only the
  support of the maximizer.  The value is then found again to 50 digits by
  Newton's method on the KKT system on that support (all links equal, weights
  sum to 1), and the off-support KKT condition is checked.  If every weight is
  a rational with denominator at most 10^4, "exact" holds the exact value.
  Otherwise "exact" is null and the benchmark compares floats within 1e-9.
  In the plateau window the value must equal lambda([t-1]^{(r)}), and it is
  checked against that closed form.
* oracle<N>[r][m] is the exact maximum of L(H^{m,r}, .) over the grid of
  weightings with entries k/N.  It is found by its own enumeration.  For a
  left-compressed graph that enumeration only needs descending weightings.
  It must agree with hylag's grid_oracle.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction

import mpmath

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

from hylag.hypergraph import binom, colex_segment  # noqa: E402
from hylag.lagrangian import grid_oracle, maximize  # noqa: E402
from workloads import WORKLOADS, LambdaWorkload  # noqa: E402

mpmath.mp.dps = 60


def _link_value(H, y, i):
    total = 0
    for e in H.edges:
        if i in e:
            p = 1
            for u in e:
                if u != i:
                    p = p * y.get(u, 0)
            total = total + p
    return total


def _value(H, y):
    total = 0
    for e in H.edges:
        p = 1
        for u in e:
            p = p * y.get(u, 0)
        total = total + p
    return total


def colex_lagrangian(m: int, r: int) -> dict:
    H = colex_segment(m, r)
    start = maximize(H).weighting
    S = [i for i, v in enumerate(start.values, 1) if v > 0]

    def system(*z):
        y = dict(zip(S, z[:-1]))
        return [_link_value(H, y, i) - z[-1] for i in S] + [sum(z[:-1]) - 1]

    z0 = [mpmath.mpf(float(start.values[i - 1])) for i in S]
    z0.append(r * _value(H, dict(zip(S, z0))))
    z = mpmath.findroot(system, z0, tol=mpmath.mpf(10) ** -55)
    y = dict(zip(S, z[:-1]))
    value = _value(H, y)
    if min(z[:-1]) <= 0:
        raise SystemExit(f"m={m} r={r}: Newton left the simplex")
    for i in range(1, H.max_vertex() + 1):
        if i not in y and _link_value(H, y, i) > r * value + mpmath.mpf(10) ** -40:
            raise SystemExit(f"m={m} r={r}: off-support vertex {i} violates KKT")

    exact = None
    frac = {i: Fraction(mpmath.nstr(v, 55)).limit_denominator(10**4) for i, v in y.items()}
    if all(abs(v - mpmath.mpf(frac[i].numerator) / frac[i].denominator) < mpmath.mpf(10) ** -45
           for i, v in y.items()):
        exact = _value(H, frac)
        if sum(frac.values()) != 1 or any(_link_value(H, frac, i) != r * exact for i in S):
            raise SystemExit(f"m={m} r={r}: rational weights are not an exact KKT point")

    t = r
    while binom(t, r) < m:
        t += 1
    if binom(t - 1, r) <= m <= binom(t, r) - binom(t - 2, r - 2):
        plateau = Fraction(binom(t - 1, r), (t - 1) ** r)
        if exact != plateau:
            raise SystemExit(f"m={m} r={r}: {exact} is not the plateau value {plateau}")
    return {"exact": None if exact is None else str(exact), "value": mpmath.nstr(value, 40)}


def _descending(total: int, parts: int, cap: int):
    if parts == 1:
        if total <= cap:
            yield (total,)
        return
    for first in range(min(total, cap), -1, -1):
        for rest in _descending(total - first, parts - 1, first):
            yield (first,) + rest


def grid_max(m: int, r: int, N: int) -> Fraction:
    H = colex_segment(m, r)
    k = len(H.support)
    best = max(
        sum(_prod(c[v - 1] for v in e) for e in H.edges) for c in _descending(N, k, N)
    )
    value = Fraction(best, N**r)
    if grid_oracle(H, N).value_exact != value:
        raise SystemExit(f"m={m} r={r}: hylag grid_oracle disagrees with {value}")
    return value


def _prod(xs) -> int:
    p = 1
    for x in xs:
        p *= x
    return p


def main() -> None:
    ref: dict = {"lagrangian": {}}
    for r, m in sorted({rm for w in WORKLOADS.values() for rm in w.instances()}):
        ref["lagrangian"].setdefault(str(r), {})[str(m)] = colex_lagrangian(m, r)
    for w in WORKLOADS.values():
        if isinstance(w, LambdaWorkload):
            table = ref.setdefault(f"oracle{w.oracle_n}", {}).setdefault(str(w.r), {})
            for m in w.ms:
                table[str(m)] = str(grid_max(m, w.r, w.oracle_n))
    with open(os.path.join(BENCH, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
