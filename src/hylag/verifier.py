"""Exhaustive desk-scale verification that colex segments maximize the
Lagrangian among m-edge r-graphs.

The conjecture under test: lambda(H^{m,r}) = max{lambda(H) : e(H) = m}.
Compression arguments reduce the search to left-compressed candidates
(downsets in the domination order) with bounded support, which
hypergraph.enumerate_left_compressed lists exactly once each.  This module
classifies each m into its regime, solves each distinct twin-free core once
per run with the run's starts and seed, and decides the counterexample flag
by exact rational comparison of the two sides' rational certificates.  The
solver only proposes each core's weights: every candidate's value and
weighting come from certify on the candidate itself, exactly the result
maximize would give, so `hylag lambda` with the run's starts and seed
replays any witness.  The worker pool of a jobs > 1 run is fed one edge
count ahead: m's solves are queued before m-1's report waits on its own.
Reports still come out in order and byte-identical across jobs.

The support cap Tmax is a heuristic (minimal clique order plus a slack); a
report whose best witness uses all Tmax vertices is marked saturated as a
signal to re-run with a larger cap, since boundedness of maximizer supports
is only known conditionally.

For any candidate that does beat the baseline, counterexample_monitor
computes the structural statistics (support size T, delta = T - t, extreme
weights, the cut index q and the tail weight beyond it) that any genuine
counterexample is known to obey, and flags each bound pass/fail.
"""

from __future__ import annotations

import itertools
import json
from concurrent.futures import Executor, Future, ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import ClassVar, Sequence

from .hypergraph import (
    Hypergraph,
    binom,
    enumerate_left_compressed,
    minimal_clique_order,
    twin_free_core,
)
from .lagrangian import (
    LagrangianResult,
    SizeError,
    SolverConfig,
    Weighting,
    certify,
    clique_lagrangian,
    float12,
    maximize,
)

__all__ = [
    "VerifyConfig",
    "MonitorDiagnostics",
    "VerificationReport",
    "classify_regime",
    "verify_conjecture",
    "verify_many",
    "verify_range",
    "restricted_support_verify",
    "counterexample_monitor",
    "reports_json_text",
    "reports_csv_text",
]

CSV_HEADER = "m,t,regime,colex_value,best_value,gap,candidates,counterexample"

# enumeration limit per m
MAX_CANDIDATES = 200_000


@dataclass(frozen=True)
class VerifyConfig:
    """Knobs for the verification pipeline: starts (multistart solves per
    candidate), seed, support_slack (vertices allowed past the minimal clique
    order) and jobs (worker processes).  Defaults match the reported
    desk-scale runs.  Every candidate is solved with SolverConfig(starts,
    seed), so jobs never changes the output and `hylag lambda` with the
    same starts and seed replays any witness.  seed is written into every
    report.  starts and seed default to and are checked as SolverConfig's."""

    starts: int = SolverConfig.starts
    seed: int = SolverConfig.seed
    support_slack: int = 2
    jobs: int = 1

    def __post_init__(self):
        SolverConfig(starts=self.starts, seed=self.seed)
        if self.support_slack < 0:
            raise ValueError("support_slack must be nonnegative")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")


@dataclass(frozen=True)
class MonitorDiagnostics:
    """Structural statistics of a candidate maximizer measured against the
    bounds any counterexample with parameter t must satisfy.

    Weights are sorted descending; T is the support size, delta = T - t.
    q is the cut index with C(q-1,r-1) <= (t/(T-1)) C(t-1,r-1) < C(q,r-1)
    and tail_sum = sum of weights past position q.  bound_flags maps each
    named bound to "pass" / "fail" / "n/a" (conditional bounds are n/a when
    their hypothesis -- a premise or a delta threshold -- does not hold).
    """

    premise_holds: bool
    support_size: int
    delta: int
    x1: Fraction
    xT: Fraction
    q: int | None
    tail_sum: Fraction
    bound_flags: dict[str, str] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "premise_holds": self.premise_holds,
            "support_size": self.support_size,
            "delta": self.delta,
            "x1": float12(self.x1),
            "xT": float12(self.xT),
            "q": self.q,
            "tail_sum": float12(self.tail_sum),
            "bound_flags": dict(sorted(self.bound_flags.items())),
        }


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking one (m, r) instance against its colex baseline.
    The fields store what the run measured; counterexample and saturated are
    read from them."""

    m: int
    r: int
    t: int
    regime: str  # "R1" | "R2"
    colex_value: Fraction
    best_candidate_value: Fraction
    witness: Hypergraph
    witness_weighting: Weighting
    candidates_examined: int
    support_cap: int
    seed: int
    diagnostics: MonitorDiagnostics | None = None
    comparison: ClassVar[str] = "exact"  # both values are rational certificates

    @property
    def counterexample(self) -> bool:
        return self.best_candidate_value > self.colex_value

    @property
    def saturated(self) -> bool:
        return len(self.witness_weighting.support) >= self.support_cap

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "r": self.r,
            "t": self.t,
            "regime": self.regime,
            "colex_value": _num(self.colex_value),
            "best_candidate_value": _num(self.best_candidate_value),
            "gap": _num(self.colex_value - self.best_candidate_value),
            "witness": {
                "hypergraph": self.witness.to_json_dict(),
                "weighting": self.witness_weighting.to_json_dict(),
            },
            "counterexample": self.counterexample,
            "comparison": self.comparison,
            "candidates_examined": self.candidates_examined,
            "support_cap": self.support_cap,
            "saturated": self.saturated,
            "seed": self.seed,
            "diagnostics": None if self.diagnostics is None else self.diagnostics.to_json_dict(),
        }


def _num(exact: Fraction) -> dict:
    return {"exact": str(exact), "float": float12(exact)}


# -- regimes and baselines ---------------------------------------------------


def _plateau_window(r: int, t: int) -> tuple[int, int]:
    """[C(t-1,r), C(t,r) - C(t-2,r-2)]: the m for which the colex value
    plateaus at lambda([t-1]^{(r)})."""
    return binom(t - 1, r), binom(t, r) - binom(t - 2, r - 2)


def classify_regime(m: int, r: int) -> tuple[int, str]:
    """(t, regime) with t minimal such that m <= C(t,r).

    R1 is the window C(t-1,r) < m <= C(t,r) - C(t-2,r-2) where the colex
    value plateaus at lambda([t-1]^{(r)}); the rest -- including the principal
    boundary m = C(t,r) -- is tagged R2 and gets its baseline from a direct
    solve of H^{m,r}.
    """
    t = minimal_clique_order(m, r)
    if m <= _plateau_window(r, t)[1]:
        return t, "R1"
    return t, "R2"


# -- verification core -------------------------------------------------------


class _Inline(Executor):
    """The jobs=1 executor: submit runs the call at once and returns its
    finished Future."""

    def submit(self, fn, /, *args, **kwargs):
        future = Future()
        future.set_result(fn(*args, **kwargs))
        return future


def _submit(m: int, r: int, cfg: VerifyConfig, pool: Executor, solved: dict) -> tuple:
    """Enumerate m's candidates and queue maximize on the first candidate of
    each core not yet in solved, which then maps that core to its Future.
    Returns (m, support cap, candidates, their cores' edges)."""
    Tmax = minimal_clique_order(m, r) + cfg.support_slack
    if r < 2:
        raise ValueError("verification needs uniformity r >= 2 (r = 1 is degenerate)")
    candidates = list(itertools.islice(enumerate_left_compressed(m, r, Tmax), MAX_CANDIDATES + 1))
    if len(candidates) > MAX_CANDIDATES:
        raise SizeError(
            f"enumeration for (m={m}, r={r}, Tmax={Tmax}) exceeds "
            f"{MAX_CANDIDATES} candidates; lower the support cap"
        )
    cores = [twin_free_core(H).edges for H in candidates]
    solver = SolverConfig(starts=cfg.starts, seed=cfg.seed)
    for H, core in zip(candidates, cores):
        if core not in solved:
            solved[core] = pool.submit(maximize, H, solver)
    return m, Tmax, candidates, cores


def _report(batch: tuple, r: int, cfg: VerifyConfig, solved: dict) -> VerificationReport:
    """Build the report of one _submit batch.  Every candidate is certified
    on itself (certify) from its core's positive weights; a core's entry in
    solved becomes those weights at the first report that reads its solve."""
    m, Tmax, candidates, cores = batch

    results = []
    for H, core in zip(candidates, cores):
        if isinstance(solved[core], Future):
            solved[core] = tuple(v for v in solved[core].result().weighting if v > 0)
        w = solved[core]
        results.append(certify(H, w + (0,) * (H.max_vertex() - len(w))))

    t, regime = classify_regime(m, r)
    if regime == "R1":
        colex_exact = clique_lagrangian(t - 1, r)
    else:  # H^{m,r} is the first candidate (see enumerate_left_compressed)
        colex_exact = results[0].value_exact

    best_i = min(
        range(len(candidates)),
        key=lambda i: (-results[i].value_exact, candidates[i].edges),
    )
    best_res = results[best_i]
    rep = VerificationReport(
        m=m,
        r=r,
        t=t,
        regime=regime,
        colex_value=colex_exact,
        best_candidate_value=best_res.value_exact,
        witness=candidates[best_i],
        witness_weighting=best_res.weighting,
        candidates_examined=len(candidates),
        support_cap=Tmax,
        seed=cfg.seed,
    )
    if rep.counterexample:
        rep = replace(rep, diagnostics=counterexample_monitor(rep.witness, best_res, t))
    return rep


def verify_many(
    ms: Sequence[int], r: int, cfg: VerifyConfig | None = None
) -> list[VerificationReport]:
    """One report per m, in the order given.

    The support cap is each m's minimal clique order plus cfg.support_slack.
    Each distinct twin-free core is solved once per call: maximize runs on
    the first candidate of a core, and only the positive weights w of its
    result are kept.  Every candidate with that core, at this or a later m
    and the first one included, is certified on itself (certify) from w
    padded with zeros to its labels, so no number in a report is read from
    the solver's result.  This is byte-identical to solving the candidate:
    maximize's float work depends only on the core, r and the SolverConfig,
    so graphs with one core get the same rationalized row, and a
    left-compressed candidate's certificate is always its descending
    rearrangement, whose positive entries are w.  So `hylag lambda` with the
    run's starts and seed still replays any witness.

    The solves are queued one m ahead: m's candidates are enumerated and
    its solves submitted before m-1's report waits on its own, so at
    cfg.jobs > 1 the worker pool stays busy across m.  Reports still come
    out in order, byte-identical across jobs; at most two m's of candidates
    are held at once, plus one weight tuple per core, dropped when this
    returns.  At jobs=1 each solve runs as it is submitted.  The pool is
    shut down before this returns; on error its queued solves are cancelled
    first.  Deterministic given cfg.seed (also across jobs).
    """
    cfg = cfg or VerifyConfig()
    pool = ProcessPoolExecutor(max_workers=cfg.jobs) if cfg.jobs > 1 else _Inline()
    solved: dict = {}
    reports = []
    with pool:
        try:
            batch = None
            for m in ms:
                ahead = _submit(m, r, cfg, pool, solved)
                if batch is not None:
                    reports.append(_report(batch, r, cfg, solved))
                batch = ahead
            if batch is not None:
                reports.append(_report(batch, r, cfg, solved))
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
    return reports


def verify_conjecture(m: int, r: int, cfg: VerifyConfig | None = None) -> VerificationReport:
    """Check whether any left-compressed m-edge r-graph beats H^{m,r}.

    The support cap is the minimal clique order covering m edges plus
    cfg.support_slack.  Deterministic given cfg.seed (also across jobs).
    """
    return verify_many([m], r, cfg)[0]


def verify_range(r: int, t: int, cfg: VerifyConfig | None = None) -> list[VerificationReport]:
    """One report per m across the full plateau window
    [C(t-1,r), C(t,r) - C(t-2,r-2)] of the clique [t-1]^{(r)}."""
    if t < r + 1:
        raise ValueError(f"need t >= r + 1 for a nonempty window, got r={r}, t={t}")
    lo, hi = _plateau_window(r, t)
    return verify_many(range(lo, hi + 1), r, cfg)


def restricted_support_verify(
    m: int, r: int, t: int, cfg: VerifyConfig | None = None
) -> VerificationReport:
    """verify_conjecture with candidates restricted to support in [t]: the
    slack becomes t - minimal_clique_order(m, r), 1 at m = C(t-1, r) and 0
    elsewhere in the plateau window of [t-1]^{(r)}, where m must lie."""
    if t < r + 1:
        raise ValueError(f"need t >= r + 1, got r={r}, t={t}")
    lo, hi = _plateau_window(r, t)
    if not lo <= m <= hi:
        raise ValueError(
            f"m={m} outside the restricted-support window [{lo}, {hi}] for (r={r}, t={t})"
        )
    cfg = replace(cfg or VerifyConfig(), support_slack=t - minimal_clique_order(m, r))
    return verify_conjecture(m, r, cfg)


# -- counterexample instrumentation ------------------------------------------


def _flag(ok: bool) -> str:
    return "pass" if ok else "fail"


def counterexample_monitor(G: Hypergraph, result: LagrangianResult, t: int) -> MonitorDiagnostics:
    """Measure a candidate maximizer of G against the structural bounds that
    any graph with lambda(G) > lambda([t-1]^{(r)}) is known to satisfy.

    Bounds checked ("n/a" when the premise fails or the bound's
    delta-threshold is not met), each decided exactly in rationals by moving
    the roots of delta to the other side as powers, with k = (r-1)^2:

      T_bound:    T < 10 t
      x1_bound:   x1 <= r / t
      xT_bound:   xT <= 10 / (delta^{1/(r-1)} t)          [delta >= 1]
                  i.e. (xT t)^{r-1} delta <= 10^{r-1}
      xq_bound:   x_q <= 10 r delta^{-1/k} / t            [delta >= 1]
                  i.e. (x_q t / (10 r))^k delta <= 1
      tail_bound: tail_sum <= 20 r delta^{1-1/k} / t      [delta > 4r]
                  i.e. (tail_sum t / (20 r))^k <= delta^{k-1}
    """
    r = G.r
    if r < 2:
        raise ValueError("monitor needs uniformity >= 2")
    if t < 2:
        raise ValueError("monitor needs t >= 2")
    weights = sorted((v for v in result.weighting.values if v > 0), reverse=True)
    T = len(weights)
    delta = T - t

    premise = result.value_exact > Fraction(binom(t - 1, r), (t - 1) ** r)

    x1 = weights[0] if T else Fraction(0)
    xT = weights[-1] if T else Fraction(0)
    q = None
    tail = Fraction(0)
    if T >= 2:
        # first q with C(q, r-1) > (t/(T-1)) C(t-1, r-1); C(q, r-1) is an
        # integer, so the floor of the right side decides
        q = minimal_clique_order(t * binom(t - 1, r - 1) // (T - 1) + 1, r - 1)
        tail = sum(weights[q:], Fraction(0))

    flags = {name: "n/a" for name in ("T_bound", "x1_bound", "xT_bound", "xq_bound", "tail_bound")}
    if premise:
        k = (r - 1) ** 2
        flags["T_bound"] = _flag(T < 10 * t)
        flags["x1_bound"] = _flag(x1 <= Fraction(r, t))
        if delta >= 1:
            flags["xT_bound"] = _flag((xT * t) ** (r - 1) * delta <= 10 ** (r - 1))
            xq = weights[q - 1] if q <= T else Fraction(0)
            flags["xq_bound"] = _flag((xq * t / (10 * r)) ** k * delta <= 1)
        if delta > 4 * r:
            flags["tail_bound"] = _flag((tail * t / (20 * r)) ** k <= delta ** (k - 1))

    return MonitorDiagnostics(
        premise_holds=premise,
        support_size=T,
        delta=delta,
        x1=x1,
        xT=xT,
        q=q,
        tail_sum=tail,
        bound_flags=flags,
    )


# -- report serialization ----------------------------------------------------


def reports_json_text(reports: Sequence[VerificationReport]) -> str:
    """Canonical JSON for a list of reports: sorted keys, 12-significant-digit
    floats, no timestamps -- byte-identical across runs with equal seeds."""
    payload = {"reports": [rep.to_json_dict() for rep in reports]}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def reports_csv_text(reports: Sequence[VerificationReport]) -> str:
    """One summary row per report (floats only; see CSV_HEADER)."""
    lines = [CSV_HEADER]
    for rep in reports:
        lines.append(
            f"{rep.m},{rep.t},{rep.regime},{float(rep.colex_value):.12g},"
            f"{float(rep.best_candidate_value):.12g},"
            f"{float(rep.colex_value - rep.best_candidate_value):.12g},"
            f"{rep.candidates_examined},{str(rep.counterexample).lower()}"
        )
    return "\n".join(lines) + "\n"
