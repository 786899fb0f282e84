"""The Lagrangian of a uniform hypergraph.

For an r-graph H and a weight vector y, L(H, y) = sum over edges A of
prod_{i in A} y_i.  The Lagrangian lambda(H) is the maximum of L over the
standard simplex (y >= 0, sum y = 1).  This module evaluates L and its links
L(H_i, y) exactly in one pass (the weights as integers over a common
denominator), maximizes it by a multistart replicator burn-in (from the
uniform point and Dirichlet samples drawn from one generator per solve, at
most BURN_IN steps) finished by Newton's method on each run's face (all
runs stepped together, one stacked symmetric eigen-solve per step, the step
doubled where it halves at a singular root, each run stopped once it
meets an earlier run or leaves [-2, 2]^n), and certifies candidate
maximizers three independent ways:

* first-order (KKT) residuals -- at a maximizer with support S, every
  L(H_i, y) for i in S equals r * L(H, y), and off-support links cannot beat it;
* exact closed forms (cliques, Motzkin-Straus for r=2);
* an exact-rational grid oracle over weightings with entries k/N.

The solver runs on H's twin-free core (hypergraph.twin_free_core): each
vertex whose link equals a lower-labelled vertex's link leaves, with its
edges.  That keeps lambda and the minimal support size, and turns the flat
faces twins make into points; the winner, with zeros at the dropped
vertices, is certified on H itself.

Every function here that takes a weight vector passes one gate: its
entries are Fraction/int (floats raise ValueError) and cover H's support,
and any vertex labels it takes index them.  Floats live only inside the
solver (the batched kernel, the replicator and Newton).  Its float rows
become certificates in one place, _rationalize (continued fractions with
bounded denominator, renormalized to sum 1), and the reported value is the
exact evaluation at that rational point, so every result is a certified
lower bound on lambda(H).
A result is that certificate alone, built in one place for the solver, the
grid oracle, certify and an edgeless H: the exact weights in descending
order unless the found order is strictly better, with the exact value and
KKT residuals from that order's one pass.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

# numpy loads numpy.random only on first use.  Loading it here means worker
# processes forked by the verifier's pool (the fork start method, Linux's
# default) inherit it and do not import it on their first solve.
from numpy.random import default_rng

from .hypergraph import (
    Hypergraph,
    binom,
    is_left_compressed,
    link,
    link_diff,
    twin_free_core,
)

BURN_IN = 100  # replicator steps at most before the Newton finish
VALUE_TOL = 1e-11  # burn-in: a row is done once a step gains less than this
ZERO_TOL = 1e-9  # burn-in weights below this leave the support before Newton
DROP_TOL = 1e-15  # the value a support drop may lose to rounding
MEET_TOL = 1e-6  # runs this close (max norm) are one run: _distinct, Newton's merge
MAX_DENOMINATOR = 10**6  # continued-fraction bound of reported weights

__all__ = [
    "SizeError",
    "Weighting",
    "KKTResidual",
    "LagrangianResult",
    "SolverConfig",
    "evaluate",
    "partials",
    "maximize",
    "certify",
    "clique_lagrangian",
    "max_clique_number",
    "motzkin_straus_value",
    "grid_oracle",
    "symmetrize",
    "kkt_residual",
    "check_pair_identity",
    "check_scaling_bound",
    "find_improving_swap",
    "float12",
]


class SizeError(ValueError):
    """A requested computation exceeds the configured enumeration guards."""


def _exact(y: Iterable) -> tuple:
    # the entries of y (a Weighting iterates over its values), each a
    # Fraction or an int: float, numpy-float and bool entries raise ValueError
    vals = tuple(y)
    if not all(isinstance(v, (int, Fraction)) and not isinstance(v, bool) for v in vals):
        raise ValueError("weight entries must be Fraction or int")
    return vals


def float12(x) -> float:
    """Round to 12 significant digits (the stable float rendering used in
    reports, so that serialized output is diffable)."""
    return float(f"{float(x):.12g}")


@dataclass(frozen=True)
class Weighting:
    """An exact weight vector: values[i-1] is the weight of vertex i.

    Entries are Fraction/int, stored as a tuple of Fractions, nonnegative and
    summing to exactly 1; anything else raises ValueError.  The empty
    weighting is legal as the degenerate weighting of an edgeless
    hypergraph.  Every function that takes a weight vector accepts a
    Weighting or a plain sequence of Fraction/int entries.
    """

    values: tuple[Fraction, ...]

    def __post_init__(self):
        vals = tuple(Fraction(v) for v in _exact(self.values))
        if vals and sum(vals) != 1:
            raise ValueError(f"weighting sums to {sum(vals)}, not 1")
        if any(v < 0 for v in vals):
            raise ValueError("weighting entries must be nonnegative")
        object.__setattr__(self, "values", vals)

    @property
    def support(self) -> tuple[int, ...]:
        """1-based vertices with strictly positive weight."""
        return tuple(i + 1 for i, v in enumerate(self.values) if v > 0)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def to_json_dict(self) -> dict:
        return {"values": [str(v) for v in self.values]}


def _rationalize(y) -> list[Fraction]:
    # the certificate of a float row: each entry's continued fraction with
    # denominator at most MAX_DENOMINATOR, renormalized to sum 1
    fr = [Fraction(v).limit_denominator(MAX_DENOMINATOR) for v in y]
    total = sum(fr)
    return fr if total == 1 else [f / total for f in fr]


def _coerce(H: Hypergraph, y, *labels: int) -> tuple:
    # the one gate of every function that takes a weight vector: y's exact
    # entries, covering H's support, with each given vertex label indexing y
    # from 1 (label 0 or below would wrap to the end)
    vals = _exact(y)
    if H.max_vertex() > len(vals):
        raise ValueError(
            f"weighting of length {len(vals)} cannot cover support up to {H.max_vertex()}"
        )
    if not all(1 <= v <= len(vals) for v in labels):
        raise ValueError(f"vertices {labels} are not labels 1..{len(vals)} of the weighting")
    return vals


def _value_links(H: Hypergraph, vals: Sequence) -> tuple:
    # (S, G, D) with L(H, vals) = S / D**r and L(H_i, vals) = G[i-1] / D**(r-1),
    # from one walk over the edges.  The entries are scaled to integers
    # a_i = vals[i-1] * D over D, the lcm of their denominators, so the walk
    # adds Python ints and takes no gcd
    D = math.lcm(*(v.denominator for v in vals))
    x = [v.numerator * (D // v.denominator) for v in vals]
    S, G = 0, [0] * len(x)
    for e in H.edges:
        p = [x[v - 1] for v in e]
        pre = 1  # product of p[:j]
        for j, v in enumerate(e):
            G[v - 1] += math.prod(p[j + 1:], start=pre)
            pre *= p[j]
        S += pre
    return S, G, D


def evaluate(H: Hypergraph, y) -> Fraction:
    """L(H, y) = sum over edges of the product of entry weights, exactly.

    y may be any vector of Fraction/int entries covering the support of H;
    it need not lie on the simplex (L is affine in each weight, so
    L(y + e_i) - L(y) = L(H_i, y)).
    """
    S, _, D = _value_links(H, _coerce(H, y))
    return Fraction(S, D**H.r)


def partials(H: Hypergraph, y) -> list[Fraction]:
    """Vector of link values: entry i (0-based i-1) is L(H_i, y) = dL/dy_i."""
    _, G, D = _value_links(H, _coerce(H, y))
    return [Fraction(g, D ** (H.r - 1)) for g in G]


# -- numeric kernel --------------------------------------------------------
#
# _batch_value_partials carries the solver's float work: each replicator
# step calls it once on the runs, each Newton step once on rows * (n + 1)
# points.  It multiplies whole (s, m) columns, one per edge position: an
# edge has only r entries, too short an axis for numpy's inner loops.


def _compile_edges(H: Hypergraph) -> tuple[np.ndarray, tuple[int, ...]]:
    supp = H.support
    pos = {v: i for i, v in enumerate(supp)}
    E = np.array([[pos[v] for v in e] for e in H.edges], dtype=np.int64)
    return E, supp


def _batch_value_partials(E: np.ndarray, IDX: np.ndarray, n: int, Y: np.ndarray):
    # Y: (s, n) -> L: (s,), G: (s, n) with G[t, i] = L(H_i, Y[t]).  P_j is
    # the weight at position j of every edge; prefix and suffix products
    # multiply in the order a cumprod along each edge does, and excl[t, e, j]
    # (edge e's product without position j) follows IDX's (s, m, r) layout,
    # so the bincount adds each link value's terms in edge order
    s, (m, r) = Y.shape[0], E.shape
    P = Y[:, E.T]  # (s, r, m): one gather, P[:, j] is P_j
    pref, suff = [P[:, 0]], [P[:, -1]]  # pref[j] = P_0..P_j, suff[k] = P_{r-1-k}..P_{r-1}
    for j in range(1, r):
        pref.append(pref[-1] * P[:, j])
    for j in range(r - 2, 0, -1):
        suff.append(P[:, j] * suff[-1])
    if r == 1:
        excl = np.ones((s, m, 1))
    else:
        excl = np.empty((s, m, r))
        excl[:, :, 0] = suff[-1]
        excl[:, :, -1] = pref[-2]
        for j in range(1, r - 1):
            np.multiply(pref[j - 1], suff[r - 2 - j], out=excl[:, :, j])
    L = pref[-1].sum(axis=1)
    G = np.bincount(IDX.ravel(), weights=excl.ravel(), minlength=s * n).reshape(s, n)
    return L, G


def _replicator_batch(E, n, Y, r):
    """Multiplicative ascent y_i <- y_i L(H_i,y) / (r L(H,y)), batched by row.

    The objective is a polynomial with nonnegative coefficients, so each step
    cannot decrease L (Baum-Eagon) beyond last-bit rounding; fixpoints are
    exactly the points where all on-support links are equalized to r L.
    Every start carries an edge, so r L > 0.  The loop ends after BURN_IN
    steps, or once every row's last step gained less than VALUE_TOL: Newton
    finishes the rows.
    """
    s = Y.shape[0]
    IDX = (np.arange(s) * n)[:, None, None] + E[None, :, :]
    L, G = _batch_value_partials(E, IDX, n, Y)
    for _ in range(BURN_IN):
        Y = Y * G / (r * L)[:, None]
        Y /= Y.sum(axis=1, keepdims=True)
        Lnew, G = _batch_value_partials(E, IDX, n, Y)
        done = bool((Lnew - L < VALUE_TOL).all())
        L = Lnew
        if done:
            break
    return Y


def _face_step(A, rhs):
    # least-squares, minimal-norm solution of each symmetric system A d = rhs,
    # as pinv(A) @ rhs: the moduli of A's eigenvalues are its singular values,
    # so the same cutoff (1e-15 of the largest) drops the same directions
    w, V = np.linalg.eigh(A)
    big = np.abs(w) > 1e-15 * np.abs(w).max(axis=1, keepdims=True)
    c = np.divide((rhs[:, None, :] @ V)[:, 0], w, out=np.zeros_like(w), where=big)
    return (V @ c[:, :, None])[:, :, 0]


def _newton_batch(E, n, r, Z, S):
    # Newton on each row's [L(H_i, z) - mu for i in S; sum z - 1] from Z (zero
    # off S), all live rows a step at a time.  Each off-support coordinate gets
    # an identity row, so it decouples; with the last equation negated the
    # system is symmetric, and _face_step takes each row's least-squares step:
    # on a flat face the shortest one.  At a singular root (a weight going to
    # 0 whose link equals r * mu) Newton's steps halve each time, so a step
    # between 0.4 and 0.6 of the row's last one is doubled, Schroeder's step
    # for a double root.  A row stops once its outcome is decided: it fails
    # as soon as an iterate leaves [-2, 2]^n (every weighting of a face lies
    # in [0, 1]^n), and once it comes within MEET_TOL of an earlier row of
    # its face that runs on its own, it ends where that row ends.  So the
    # first row of each cluster keeps its own trajectory.  A row also fails
    # if 50 steps do not settle it or its value ends below its own start's (a
    # far stationary point).  Returns (Z, L, ok)
    s = Z.shape[0]
    Z = Z.copy()
    L = np.zeros(s)
    settled = np.zeros(s, dtype=bool)
    rows = np.arange(s)
    head = rows.copy()  # the earlier row each row met, or the row itself
    base = np.zeros((s, n + 1, n + 1))
    base[:, :n, :n] = np.eye(n) * ~S[:, :, None]
    base[:, :n, n] = base[:, n, :n] = -1.0 * S
    SS = S[:, :, None] & S[:, None, :]
    # row 1+j of z + D raises z_j by 1; links are affine in each weight, so
    # its links minus row 0's are the pair links L(H_ij, z), the Jacobian
    D = np.vstack([np.zeros(n), np.eye(n)])
    IDX = (np.arange(s * (n + 1)) * n)[:, None, None] + E[None, :, :]

    def links(t):
        P = (Z[t, None, :] + D).reshape(-1, n)
        Lt, G = _batch_value_partials(E, IDX[: len(P)], n, P)
        return Lt[:: n + 1], G.reshape(len(t), n + 1, n)

    live = np.arange(s)
    start, G = links(live)
    mu = r * start
    last = np.zeros(s)  # each row's last step size (max norm), before doubling
    for _ in range(50):
        A = base[live]
        A[:, :n, :n] += np.where(SS[live], G[:, 1:] - G[:, :1], 0.0)
        rhs = np.concatenate([np.where(S[live], mu[live, None] - G[:, 0], 0.0),
                              Z[live].sum(axis=1, keepdims=True) - 1.0], axis=1)
        d = _face_step(A, rhs)
        d[:, :n] *= S[live]  # off S, d is zero up to rounding
        size = np.abs(d).max(axis=1)
        d[(size > 0.4 * last[live]) & (size < 0.6 * last[live])] *= 2.0
        last[live] = size
        Z[live] += d[:, :n]
        mu[live] += d[:, n]
        inbox = np.abs(Z[live]).max(axis=1) <= 2.0
        live, size = live[inbox], size[inbox]
        # a row still moving meets the first earlier row of its face that
        # runs on its own and lies within MEET_TOL
        moving = live[size >= 1e-14]
        near = ((rows < moving[:, None]) & (head == rows) & (S[moving, None] == S).all(axis=2)
                & (np.abs(Z[moving, None] - Z).max(axis=2) < MEET_TOL))
        met = near.any(axis=1)
        head[moving[met]] = near[met].argmax(axis=1)
        own = head[live] == live
        live, size = live[own], size[own]
        Lt, G = links(live)
        done = size < 1e-14
        L[live[done]] = Lt[done]
        settled[live[done]] = True
        live, G = live[~done], G[~done]
        if not len(live):
            break
    for t in np.flatnonzero(head != rows):  # ascending, so head[t] is final
        Z[t], L[t], settled[t] = Z[head[t]], L[head[t]], settled[head[t]]
    return Z, L, settled & (L >= start - DROP_TOL)


def _newton_faces(E, n, r, Y, chunk=64):
    # solve the face system on each row's support S, each time from the row:
    # weights the solution drives negative leave S; when Newton fails, the
    # smallest start weight does, however early it failed.  No row of Y is
    # empty, and a one-vertex face settles at once (its right-hand side is
    # 0), so every row ends on its face.  Blocks of at most chunk rows retry
    # their pending rows in rounds.  Returns (Z, L), each row z > 0 exactly on its final S and L = L(H, z)
    s = Y.shape[0]
    Z = np.zeros_like(Y)
    L = np.zeros(s)
    for lo in range(0, s, chunk):
        rows = np.arange(lo, min(lo + chunk, s))
        S = Y[rows] > 0
        while len(rows):
            y = np.where(S, Y[rows], 0.0)
            z, l, ok = _newton_batch(E, n, r, y / y.sum(axis=1, keepdims=True), S)
            hit = ok & ((z > 0) | ~S).all(axis=1)
            Z[rows[hit]], L[rows[hit]] = z[hit], l[hit]
            fail = np.flatnonzero(~ok)
            S[fail, np.where(S[fail], y[fail], np.inf).argmin(axis=1)] = False
            S[ok] &= z[ok] > 0
            rows, S = rows[~hit], S[~hit]
    return Z, L


def _distinct(Y) -> list[int]:
    # the first rows of Y within MEET_TOL (max norm) of each other: in order,
    # each row kept drops every row near it.  X holds one weight coordinate
    # per row, so a distance row is a max over n long rows.  Kept for cost:
    # without it Newton would start every burn-in run, and its merge catches
    # a repeated run only after a step
    X = Y.T.copy()
    left = np.ones(len(Y), dtype=bool)
    out: list[int] = []
    while left.any():
        a = int(left.argmax())
        out.append(a)
        left &= np.abs(X - X[:, a, None]).max(axis=0) >= MEET_TOL
    return out


@dataclass(frozen=True)
class KKTResidual:
    """First-order certificate: on_support = max |L(H_i,y) - r L(H,y)| over
    the support of y; off_support = max of L(H_i,y) - r L(H,y) over
    zero-weight vertices (0 when there are none).  A maximizer needs
    on_support ~ 0 and off_support <= 0."""

    on_support: float
    off_support: float


@dataclass(frozen=True)
class LagrangianResult:
    """A certified lower bound on lambda(H), and nothing else: the rational
    weighting, value_exact = L(H, weighting) evaluated exactly there, and
    the KKT residuals there.  How it was found (solver or grid oracle, its
    starts and seed) is the caller's to record."""

    value_exact: Fraction
    weighting: Weighting
    kkt_residual: KKTResidual

    @property
    def value(self) -> float:
        return float(self.value_exact)

    @property
    def support_size(self) -> int:
        return len(self.weighting.support)

    def to_json_dict(self) -> dict:
        return {
            "value": str(self.value_exact),
            "value_float": float12(self.value),
            "weighting": self.weighting.to_json_dict(),
            "support_size": self.support_size,
            "kkt_on_support": float12(self.kkt_residual.on_support),
            "kkt_off_support": float12(self.kkt_residual.off_support),
        }


@dataclass(frozen=True)
class SolverConfig:
    starts: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.starts < 1:
            raise ValueError("starts must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


def _certified(H: Hypergraph, fr: Sequence[Fraction]) -> LagrangianResult:
    # the result for exact weights fr on the support of H, in support order:
    # canonical form takes the descending rearrangement unless fr's own order
    # is strictly better (never for left-compressed H), decided exactly
    supp, n = H.support, H.max_vertex()

    def expand(vals) -> Weighting:
        full = [Fraction(0)] * n
        for v, x in zip(supp, vals):
            full[v - 1] = x
        return Weighting(full)

    desc = sorted(fr, reverse=True)
    w = expand(desc)
    S, G, D = _value_links(H, w.values)
    if list(fr) != desc:
        raw = expand(fr)
        raw_S, raw_G, _ = _value_links(H, raw.values)
        if raw_S > S:  # the same entries, so the same D
            w, S, G = raw, raw_S, raw_G
    return LagrangianResult(
        value_exact=Fraction(S, D**H.r),
        weighting=w,
        kkt_residual=_kkt(H.r, w.values, S, G, D),
    )


def maximize(H: Hypergraph, cfg: SolverConfig | None = None) -> LagrangianResult:
    """Best local maximum of L(H, .) over the simplex across cfg.starts runs.

    The runs solve H's twin-free core C (hypergraph.twin_free_core).  H
    is the blow-up of C, so L(H, y) = L(C, z) where z_u is the total
    weight of u's twin class.  Hence lambda(H) = lambda(C); a maximizer of
    C, padded with zeros at the other labels, maximizes H; and merging a
    class never grows a support, so minimal supports have the same size.
    Of maximizers that differ only in which member of a class carries the
    weight, the lowest label is the one the rank below ends on (smallest
    support tuple).  On a class of twins L is flat along each exchange,
    which would leave every run at its own point of a flat face, each with
    its own Newton solve and shedding; on the core those faces are points.
    Adjacent exchangeable vertices, such as those of a clique, share an
    edge and so are never twins.

    Starts: uniform on the support, then Dirichlet(1) samples, all drawn at
    once from one generator seeded with cfg.seed (rows of exponentials,
    each normalized to sum 1), so the starts of a smaller cfg.starts are the
    first rows of a larger one's.  A batched replicator burn-in of at most
    BURN_IN steps brings each run near a face; Newton's method then solves
    every distinct run's face system, L(H_i, y) = r L(H, y) on the support
    and sum y = 1, dropping weights it drives negative, or the smallest
    weight where Newton fails; a one-vertex face always settles, so every
    distinct run ends at a point of a face.
    The runs step together: one kernel call and one stacked symmetric
    eigen-solve (the least-squares step) per Newton step, in blocks of runs
    so memory stays bounded; where a run's steps halve, as at a singular
    root, the step is doubled.  A run stops as soon as its outcome is
    decided: one whose iterate leaves [-2, 2]^n fails at once, and one that
    comes within MEET_TOL of an earlier run on its face ends where that run
    ends, so the first run of each cluster keeps its own trajectory.  Runs
    within 1e-10 of the best value drop their smallest weight while the
    value holds to rounding, so a flat face yields a point of minimal
    support.  Of those runs the one with the
    fewest positive weights wins, then the lexicographically smallest tuple
    of support vertices: both are properties of a run's face, on which Newton
    leaves it exactly zero elsewhere.  So of several maximizers found with
    the same weights on different vertices, the one reported does not depend
    on last-bit rounding.  Only the winner is rationalized, put back on H's
    support with zeros at the dropped twins, sorted descending unless its own
    order is strictly better, and re-evaluated exactly on H, KKT residuals
    over every vertex included (a dropped twin's link is its kept twin's);
    `value` is the float of that exact certificate.
    Deterministic given cfg.seed.  All float work depends only on (C, r,
    cfg), so graphs with one core get the same rationalized row.
    """
    cfg = cfg or SolverConfig()
    if len(H) == 0:
        return _certified(H, ())
    E, supp = _compile_edges(twin_free_core(H))
    k = len(supp)
    r = H.r

    Y0 = np.empty((cfg.starts, k))
    Y0[0] = 1.0 / k
    g = default_rng(cfg.seed).exponential(1.0, (cfg.starts - 1, k))
    Y0[1:] = g / g.sum(axis=1, keepdims=True)

    # finish each distinct burn-in run on its face
    Y = _replicator_batch(E, k, Y0, r)
    Y = Y[_distinct(Y)]
    Y, L = _newton_faces(E, k, r, np.where(Y > ZERO_TOL, Y, 0.0))

    # rows tied with the best shed their smallest weight, one a round, while
    # the value holds to rounding and a weight is left
    t = tie_rows = np.flatnonzero(L >= L.max() - 1e-10)
    while len(t := t[(Y[t] > 0).sum(axis=1) > 1]):
        y = Y[t]
        y[np.arange(len(t)), np.where(y > 0, y, np.inf).argmin(axis=1)] = 0.0
        Z, LZ = _newton_faces(E, k, r, y)
        shed = LZ >= L[t] - DROP_TOL
        Y[t[shed]], L[t[shed]] = Z[shed], LZ[shed]
        t = t[shed]

    # of the tie rows, each exactly zero off its face: fewest positive
    # weights, then the smallest support; only the winner is rationalized
    def rank(t):
        on = Y[t] > 0
        return on.sum(), tuple(np.flatnonzero(on))

    win = dict(zip(supp, _rationalize(Y[min(tie_rows, key=rank)])))
    fr = [win.get(v, Fraction(0)) for v in H.support]
    return _certified(H, fr)


def certify(H: Hypergraph, y) -> LagrangianResult:
    """The certificate of the exact weights y on H, in the one form
    maximize and grid_oracle report: y's entries at H's support vertices,
    in descending order unless their own order scores strictly higher
    (never for a left-compressed H), with the exact value and KKT residuals
    there.  Those entries must sum to 1.  Whatever y is, the value is a
    certified lower bound on lambda(H)."""
    vals = _coerce(H, y)
    return _certified(H, [vals[v - 1] for v in H.support])


# -- closed forms and oracles ----------------------------------------------


def clique_lagrangian(t: int, r: int) -> Fraction:
    """lambda([t]^{(r)}) = C(t,r) / t^r, exactly (uniform weights on [t])."""
    if r < 1 or t < r:
        raise ValueError(f"clique_lagrangian needs t >= r >= 1, got t={t}, r={r}")
    return Fraction(binom(t, r), t**r)


def max_clique_number(H: Hypergraph) -> int:
    """Clique number of a 2-uniform H, over support subsets largest first
    (support <= 12)."""
    if H.r != 2:
        raise ValueError("clique search is for 2-uniform hypergraphs")
    supp = H.support
    if len(supp) > 12:
        raise SizeError(f"clique search capped at 12 vertices, support has {len(supp)}")
    return next(
        (k for k in range(len(supp), 0, -1)
         if any(all(e in H for e in itertools.combinations(S, 2))
                for S in itertools.combinations(supp, k))),
        0,
    )


def motzkin_straus_value(H: Hypergraph) -> Fraction:
    """lambda of a graph: (w-1)/(2w) with w the clique number, exactly."""
    if H.r != 2:
        raise ValueError("motzkin_straus_value needs a 2-uniform hypergraph")
    if len(H) == 0:
        return Fraction(0)
    w = max_clique_number(H)
    return Fraction(w - 1, 2 * w)


def _grid(N: int, k: int, descending: bool, chunk: int = 1 << 16):
    # Compositions of N into k parts, in blocks of at most `chunk` rows, all
    # rows lexicographically ascending; if descending, only the non-increasing
    # ones (partitions of N into at most k parts, zero-padded).  Built column
    # by column, depth first: a row with remainder rem takes the values
    # 0 .. rem, the last column exactly rem, or if descending
    # ceil(rem / columns left) .. min(rem, previous entry).  These are
    # exactly the values whose new remainder still fits, so no candidate is
    # built and then dropped.
    def expand(rows, rem, cap):
        col = rows.shape[1]
        if col == k:
            yield rows
            return
        if descending or col == k - 1:
            lo = -(-rem // (k - col))
        else:
            lo = np.zeros_like(rem)
        cnt = (np.minimum(rem, cap) if descending else rem) - lo + 1
        end = np.cumsum(cnt)
        for start in range(0, int(end[-1]), chunk):
            idx = np.arange(start, min(start + chunk, int(end[-1])))
            parent = np.searchsorted(end, idx, side="right")
            v = lo[parent] + idx - (end[parent] - cnt[parent])
            yield from expand(np.column_stack([rows[parent], v]), rem[parent] - v, v)

    top = np.array([N], dtype=np.int64)
    yield from expand(np.zeros((1, 0), dtype=np.int64), top, top)


def grid_oracle(H: Hypergraph, N: int) -> LagrangianResult:
    """Exact maximum of L over weightings whose entries are multiples of 1/N.

    Integer arithmetic throughout, so the value is exact and is a certified
    lower bound on lambda(H).  Monotone under grid refinement N | N'.

    For a general H every composition of N over the k support vertices is
    tried.  When H is left-compressed only the non-increasing ones are (the
    partitions of N into at most k parts; 733 instead of 593,775 for k=7,
    N=24).  This is exact: in a left-compressed H every edge containing j
    but not i < j has e - j + i in H, so H_{j\\i} is a subset of H_{i\\j}, and
    swapping y_i < y_j changes L by (y_j - y_i)(L(H_{i\\j}) - L(H_{j\\i})) >= 0.
    Swaps stay on the grid, so some grid maximizer is non-increasing.  The
    support of a left-compressed H is {1..k}, so positions are vertex labels.
    Of the grid maximizers walked, the one with the fewest positive entries,
    then lexicographically smallest, is kept, as maximize ranks its runs by
    support size first, and reported descending unless its own order scores
    strictly higher: {12, 23} at N = 2 keeps (0, 1/2, 1/2) but returns
    (1/2, 1/2, 0).  One walk yields either set, in lexicographic order and
    in blocks of 65,536 points, so memory does not grow with N.

    The 1e8-point guard counts the full grid C(N+k-1, k-1) either way, so the
    same calls raise SizeError whatever the shape of H.
    """
    if N < 1:
        raise ValueError("grid denominator N must be >= 1")
    if len(H) == 0:
        return _certified(H, ())
    k = len(H.support)
    points = binom(N + k - 1, k - 1)
    if points > 10**8:
        raise SizeError(f"grid has {points} points, over the 1e8 guard")
    # j entries summing to at most N multiply to at most q^(j-s) (q+1)^s,
    # (q, s) = divmod(N, j): a bound on every prefix product np.prod forms
    # and, times len(H), on the sum
    peak = max(q ** (j - s) * (q + 1) ** s for j in range(1, H.r + 1) for q, s in [divmod(N, j)])
    if len(H) * peak > 2**63 - 1:
        raise SizeError("grid products exceed exact int64 range")
    E, _ = _compile_edges(H)
    best_key, best_comp = None, None
    for comp in _grid(N, k, is_left_compressed(H)):
        vals = np.prod(comp[:, E], axis=2, dtype=np.int64).sum(axis=1)
        tied = np.flatnonzero(vals == vals.max())
        # ties go to fewer positive entries, then to the earlier row of the
        # walk (which is lexicographically ascending)
        npos = (comp[tied] > 0).sum(axis=1)
        i = int(np.argmin(npos))
        key = (int(vals[tied[i]]), -int(npos[i]))
        if best_key is None or key > best_key:
            best_key, best_comp = key, comp[tied[i]].copy()
    return _certified(H, [Fraction(int(c), N) for c in best_comp])


# -- certificates and identities -------------------------------------------


def symmetrize(H: Hypergraph, y, i: int, j: int) -> tuple:
    """Average the weights of two exchangeable vertices: z_i = z_j = (y_i+y_j)/2.

    Requires i <-> j to be an automorphism direction, i.e. link_diff empty
    both ways; then L(H, z) >= L(H, y).  z is a tuple of the exact weights.
    """
    vals = list(_coerce(H, y, i, j))
    if len(link_diff(H, i, j)) or len(link_diff(H, j, i)):
        raise ValueError(f"vertices {i} and {j} are not exchangeable in H")
    vals[i - 1] = vals[j - 1] = Fraction(vals[i - 1] + vals[j - 1], 2)
    return tuple(vals)


def _kkt(r: int, vals: Sequence, S, G: list, D: int) -> KKTResidual:
    # KKTResidual from _value_links's output: L(H_i) - r L(H) is
    # (G_i D - r S) / D**r, so exact residuals stay integers until one
    # division, the correctly rounded float of the exact maximum
    res = [g * D - r * S for g in G]
    on = max((abs(d) for d, v in zip(res, vals) if v > 0), default=0)
    off = max((d for d, v in zip(res, vals) if v == 0), default=0)
    return KKTResidual(on_support=float(on / D**r), off_support=float(off / D**r))


def kkt_residual(H: Hypergraph, y) -> KKTResidual:
    """First-order residuals of y as a candidate maximizer (see KKTResidual)."""
    vals = _coerce(H, y)
    return _kkt(H.r, vals, *_value_links(H, vals))


def check_pair_identity(H: Hypergraph, y, i: int, j: int):
    """Residual |(y_i - y_j) L(H_{ij}, y) - L(H_{i\\j}, y)|.

    At a true maximizer of a left-compressed H with descending weights this
    vanishes for every support pair i < j.  For r = 2 the pair link L(H_{ij})
    degenerates to the 0/1 indicator of the edge {i,j}.
    """
    if not i < j:
        raise ValueError(f"need i < j, got ({i}, {j})")
    vals = _coerce(H, y, i, j)
    if H.r < 2:
        raise ValueError("pair identity needs uniformity >= 2")
    if H.r == 2:
        pair_val = 1 if (i, j) in H else 0
    else:
        pair_val = evaluate(link(H, (i, j)), vals)
    diff_val = evaluate(link_diff(H, i, j), vals)
    return abs((vals[i - 1] - vals[j - 1]) * pair_val - diff_val)


def check_scaling_bound(H: Hypergraph, y, i: int) -> bool:
    """Does L(H_i, y) <= (1 - y_i)^(r-1) lambda(H_i) hold, compared exactly?

    The link carries total weight at most 1 - y_i, and L is homogeneous of
    degree r-1 on it.  lambda(H_i) is the certified value maximize finds on
    the link.
    """
    if H.r < 2:
        raise ValueError("scaling bound needs uniformity >= 2")
    vals = _coerce(H, y, i)
    Hi = link(H, (i,))
    if len(Hi) == 0:
        return True
    lam = maximize(Hi, SolverConfig(starts=12)).value_exact
    return evaluate(Hi, vals) <= (1 - vals[i - 1]) ** (H.r - 1) * lam


def find_improving_swap(H: Hypergraph, y):
    """Find (A in H, B not in H) with L(B, y) > L(A, y), if any, compared exactly.

    Swapping an edge A for a heavier non-edge B strictly increases L at y,
    which certifies that H is not extremal among graphs with e(H) edges.  y
    holds Fraction/int entries and covers support(H).  Candidates B are
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
