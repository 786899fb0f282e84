"""Candidate enumeration (in hypergraph) and the verifier: regime math,
reports, and the monitor.

The enumeration oracle here is independent of the library's internals: a set
of edges is a downset iff it contains, for every member edge, every edge it
dominates (elementwise-smaller after sorting).
"""

import hashlib
import itertools
import json
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from hylag import (
    Hypergraph,
    KKTResidual,
    LagrangianResult,
    SizeError,
    SolverConfig,
    VerifyConfig,
    Weighting,
    binom,
    classify_regime,
    clique,
    clique_lagrangian,
    colex_segment,
    counterexample_monitor,
    covers_pairs,
    enumerate_left_compressed,
    evaluate,
    float12,
    is_left_compressed,
    maximize,
    minimal_clique_order,
    reports_csv_text,
    reports_json_text,
    restricted_support_verify,
    verify_conjecture,
    verify_many,
    verify_range,
)
from hylag import lagrangian, verifier
from hylag.verifier import CSV_HEADER

FAST = VerifyConfig(starts=12, seed=0)


def dominates(a, b):
    """b <= a in the domination order (both sorted tuples)."""
    return all(x <= y for x, y in zip(b, a))


def brute_force_downsets(m, r, Tmax):
    elems = list(itertools.combinations(range(1, Tmax + 1), r))
    out = set()
    for combo in itertools.combinations(elems, m):
        chosen = set(combo)
        if all(b in chosen for a in combo for b in elems if dominates(a, b)):
            out.add(frozenset(combo))
    return out


# -- enumeration ---------------------------------------------------------------


def test_enumerate_singleton():
    assert list(enumerate_left_compressed(1, 3, 3)) == [Hypergraph(3, [(1, 2, 3)])]


def test_enumerate_two_edges():
    # {123,134} is not a downset: it dominates {124} without containing it
    assert list(enumerate_left_compressed(2, 3, 4)) == [Hypergraph(3, [(1, 2, 3), (1, 2, 4)])]


def test_enumerate_three_edges_order():
    got = list(enumerate_left_compressed(3, 3, 5))
    assert got == [
        Hypergraph(3, [(1, 2, 3), (1, 2, 4), (1, 3, 4)]),
        Hypergraph(3, [(1, 2, 3), (1, 2, 4), (1, 2, 5)]),
    ]


def test_enumerate_deterministic():
    a = list(enumerate_left_compressed(4, 3, 6))
    b = list(enumerate_left_compressed(4, 3, 6))
    assert a == b


def test_enumerate_matches_brute_force():
    for Tmax in range(3, 7):
        for m in range(1, 7):
            got = {frozenset(H.edges) for H in enumerate_left_compressed(m, 3, Tmax)}
            assert got == brute_force_downsets(m, 3, Tmax), (m, Tmax)


def test_enumerate_yields_left_compressed():
    for m in range(1, 8):
        for H in enumerate_left_compressed(m, 3, 6):
            assert is_left_compressed(H), H


def test_enumerate_empty_when_overfull():
    assert list(enumerate_left_compressed(2, 3, 3)) == []


def test_enumerate_pair_covering_filter():
    # the pair-covering downsets, as the reference for a generator that
    # builds only those
    cov = [H for H in enumerate_left_compressed(3, 3, 5) if covers_pairs(H)[0]]
    assert cov == [Hypergraph(3, [(1, 2, 3), (1, 2, 4), (1, 3, 4)])]


def test_enumerate_yields_colex_segment_first():
    # the verifier's R2 baseline is candidate 0: the index sequence 0..m-1 is
    # H^{m,r}, a downset, and the least sequence, so it comes first at every
    # cap that leaves a candidate; a cap below t leaves none
    checked = 0
    for r in range(2, 6):
        for m in range(1, 40):
            t = minimal_clique_order(m, r)
            if t - 1 >= r:
                assert next(enumerate_left_compressed(m, r, t - 1), None) is None
            for Tmax in range(t, t + 3):
                assert next(enumerate_left_compressed(m, r, Tmax)) == colex_segment(m, r)
                checked += 1
    assert checked == 468


def test_enumerate_validation():
    with pytest.raises(ValueError):
        list(enumerate_left_compressed(0, 3, 5))
    with pytest.raises(ValueError):
        list(enumerate_left_compressed(1, 3, 2))
    with pytest.raises(ValueError):
        list(enumerate_left_compressed(1, 0, 5))


# -- regimes -------------------------------------------------------------------


def test_minimal_clique_order():
    assert minimal_clique_order(1, 3) == 3
    assert minimal_clique_order(4, 3) == 4
    assert minimal_clique_order(5, 3) == 5
    assert minimal_clique_order(10, 3) == 5
    for r in range(1, 7):  # against the linear scan
        t = r
        for m in range(1, 2001):
            while binom(t, r) < m:
                t += 1
            assert minimal_clique_order(m, r) == t, (m, r)
    with pytest.raises(ValueError):
        minimal_clique_order(0, 3)


def test_classify_regime_frozen():
    assert classify_regime(1, 3) == (3, "R2")
    assert classify_regime(2, 3) == (4, "R1")
    assert classify_regime(3, 3) == (4, "R2")  # 3 > C(4,3) - C(2,1) = 2
    assert classify_regime(4, 3) == (4, "R2")
    assert classify_regime(7, 3) == (5, "R1")  # 7 <= C(5,3) - C(3,1) = 7
    assert classify_regime(10, 3) == (5, "R2")
    assert classify_regime(2, 4) == (5, "R1")


def test_regime_window_edges():
    # strictly inside (C(t-1,r), C(t,r)-C(t-2,r-2)] the classification is R1
    # with that t; the left endpoint C(t-1,r) itself is the principal boundary
    # of the previous order, hence R2 there
    for r in (3, 4):
        for t in range(r + 1, r + 4):
            lo, hi = binom(t - 1, r), binom(t, r) - binom(t - 2, r - 2)
            for m in range(lo + 1, hi + 1):
                assert classify_regime(m, r) == (t, "R1"), (m, r)
            assert classify_regime(lo, r) == (t - 1, "R2")
            assert classify_regime(hi + 1, r)[1] == "R2"


# -- verify_conjecture ---------------------------------------------------------


def test_verify_two_edges():
    rep = verify_conjecture(2, 3, FAST)
    assert (rep.m, rep.r, rep.t, rep.regime) == (2, 3, 4, "R1")
    assert rep.colex_value == Fraction(1, 27)
    assert rep.best_candidate_value == Fraction(1, 27)
    assert rep.witness == Hypergraph(3, [(1, 2, 3), (1, 2, 4)])
    assert rep.comparison == "exact"
    assert not rep.counterexample
    assert rep.candidates_examined == 1
    assert rep.diagnostics is None
    assert rep.colex_value == rep.best_candidate_value


def test_verify_four_edges():
    rep = verify_conjecture(4, 3, FAST)
    assert rep.colex_value == Fraction(1, 16)
    assert rep.regime == "R2"
    assert not rep.counterexample
    assert rep.best_candidate_value <= Fraction(1, 16)


def test_verify_three_edges_regime_two():
    rep = verify_conjecture(3, 3, FAST)
    assert rep.regime == "R2"
    assert rep.colex_value == Fraction(4, 81)
    assert not rep.counterexample


def test_verify_range_window_one():
    reps = verify_range(3, 4, FAST)
    assert [rep.m for rep in reps] == [1, 2]
    for rep in reps:
        assert rep.colex_value == Fraction(1, 27)
        assert not rep.counterexample


def test_verify_range_window_two():
    reps = verify_range(3, 5, FAST)
    assert [rep.m for rep in reps] == [4, 5, 6, 7]
    for rep in reps:
        assert rep.colex_value == Fraction(1, 16)
        assert not rep.counterexample
        assert rep.diagnostics is None  # the monitor never fires here


def test_verify_range_four_uniform():
    reps = verify_range(4, 5, FAST)
    assert [rep.m for rep in reps] == [1, 2]
    assert all(rep.colex_value == Fraction(1, 256) for rep in reps)


def test_verify_range_needs_window():
    with pytest.raises(ValueError):
        verify_range(3, 3)


def test_regime_one_baseline_is_clique_value():
    for m, t in ((2, 4), (5, 5), (7, 5)):
        rep = verify_conjecture(m, 3, FAST)
        assert rep.regime == "R1" and rep.t == t
        assert rep.colex_value == clique_lagrangian(t - 1, 3)
        solved = maximize(colex_segment(m, 3))
        assert abs(solved.value - float(rep.colex_value)) <= 1e-7


def test_restricted_support():
    rep = restricted_support_verify(2, 3, 4, FAST)
    assert rep.colex_value == Fraction(1, 27)
    assert rep.support_cap == 4
    assert not rep.counterexample

    rep = restricted_support_verify(7, 3, 5, FAST)
    assert rep.colex_value == Fraction(1, 16)
    assert not rep.counterexample

    # at the window's low end, m = C(t-1, r), the slack to [t] is 1
    rep = restricted_support_verify(4, 3, 5, FAST)
    assert rep.support_cap == 5
    assert not rep.counterexample

    with pytest.raises(ValueError):
        restricted_support_verify(8, 3, 5, FAST)
    with pytest.raises(ValueError):
        restricted_support_verify(1, 3, 3, FAST)


def test_saturation_flag():
    # with zero slack the winning clique uses every allowed vertex
    rep = verify_conjecture(4, 3, VerifyConfig(starts=12, seed=0, support_slack=0))
    assert rep.support_cap == 4
    assert rep.saturated
    assert hashlib.sha256(reports_csv_text([rep]).encode("utf-8")).hexdigest() == (
        "89b722a3581af727c1fa67df0a0d52f54558ba039979f2ffb4acf4d63a36392b"
    )
    assert hashlib.sha256(reports_json_text([rep]).encode("utf-8")).hexdigest() == (
        "4401c294f0cf813ba9a878c61fa8c83a96b1c539e12094a0ee69cb22a62c179d"
    )
    # the default slack leaves headroom
    assert not verify_conjecture(4, 3, FAST).saturated


def _count_solves(monkeypatch):
    seen = []

    def recorder(H, cfg=None):
        seen.append(cfg)
        return maximize(H, cfg)

    monkeypatch.setattr(verifier, "maximize", recorder)
    return seen


def test_every_candidate_solved_with_the_runs_solver_config(monkeypatch):
    # one solve per distinct twin-free core: 11 for the window's 19 candidates
    seen = _count_solves(monkeypatch)
    reports = verify_range(3, 5, VerifyConfig(starts=12, seed=3))
    assert sum(rep.candidates_examined for rep in reports) == 19
    assert len(seen) == 11
    assert set(seen) == {SolverConfig(starts=12, seed=3)}


def test_each_core_solved_once_per_call(monkeypatch):
    # 17 of the r=4, t=6 window's 47 candidates share a core with a
    # candidate at a smaller m; a second call solves them all again
    seen = _count_solves(monkeypatch)
    cfg = VerifyConfig(starts=12, seed=3)
    reports = verify_range(4, 6, cfg)
    assert sum(rep.candidates_examined for rep in reports) == 47
    assert len(seen) == 30
    verify_range(4, 6, cfg)
    assert len(seen) == 60


def test_reused_core_gives_the_solvers_result(monkeypatch):
    # every candidate, the first of its core included, is certified from its
    # core's weights and gets exactly the result maximize gives it: same
    # weighting, value and KKT residuals.  The windows and the replays run
    # in pools of two workers, which halves this test's time
    certified = []

    def recorder(H, y):
        res = lagrangian.certify(H, y)
        certified.append((H, res))
        return res

    monkeypatch.setattr(verifier, "certify", recorder)
    with ProcessPoolExecutor(max_workers=2) as pool:
        for r, t in ((3, 6), (4, 6)):
            for seed in (1, 7):
                certified.clear()
                verify_range(r, t, VerifyConfig(seed=seed, jobs=2))
                assert len(certified) == {3: 211, 4: 47}[r]
                graphs = [H for H, _ in certified]
                solver = itertools.repeat(SolverConfig(seed=seed))
                for (H, res), want in zip(certified, pool.map(maximize, graphs, solver)):
                    assert res == want, (H, seed)


def test_misreported_solver_value_moves_no_report(monkeypatch):
    # a report reads only the weights of a solve: a solver that adds 1 to
    # its value and reports KKT residuals of 9 leaves every byte as it was
    cfg = VerifyConfig(starts=12, seed=1)

    def run():
        return reports_json_text(verify_range(3, 5, cfg) + verify_range(4, 6, cfg))

    honest = run()

    def misreport(H, solver=None):
        res = maximize(H, solver)
        return replace(res, value_exact=res.value_exact + 1, kkt_residual=KKTResidual(9.0, 9.0))

    monkeypatch.setattr(verifier, "maximize", misreport)
    assert run() == honest


def test_candidate_cap(monkeypatch):
    monkeypatch.setattr(verifier, "MAX_CANDIDATES", 2)
    with pytest.raises(SizeError):
        verify_conjecture(6, 3, VerifyConfig(starts=4))


def test_r2_colex_segments_cover_every_pair():
    # in R2, H^{m,r} holds [t-1]^{(r)} plus more than C(t-2,r-1) edges at t,
    # so an enumerator of pair-covering downsets still yields the baseline
    checked = 0
    for r in range(2, 6):
        for m in range(1, binom(10, r) + 1):
            if classify_regime(m, r)[1] == "R2":
                assert covers_pairs(colex_segment(m, r))[0], (m, r)
                checked += 1
    assert checked == 255


def test_uniformity_guard():
    with pytest.raises(ValueError):
        verify_conjecture(3, 1, FAST)


def test_verify_config_validation():
    with pytest.raises(ValueError):
        VerifyConfig(starts=0)
    with pytest.raises(ValueError):
        VerifyConfig(seed=-1)
    with pytest.raises(ValueError):
        VerifyConfig(support_slack=-1)
    with pytest.raises(ValueError):
        VerifyConfig(jobs=0)


def test_jobs_do_not_change_reports():
    # one m, and whole windows whose edge counts share one worker pool
    for run in (
        lambda cfg: [verify_conjecture(4, 3, cfg)],
        lambda cfg: verify_range(3, 5, cfg),
        lambda cfg: verify_range(4, 6, cfg),
    ):
        one = run(VerifyConfig(starts=12, seed=3, jobs=1))
        two = run(VerifyConfig(starts=12, seed=3, jobs=2))
        assert reports_json_text(one) == reports_json_text(two)


def test_one_worker_pool_per_window(monkeypatch):
    built = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(verifier, "ProcessPoolExecutor", CountingPool)
    assert len(verify_range(4, 6, VerifyConfig(starts=12, jobs=2))) == 5
    assert built == [2]
    verify_range(4, 6, VerifyConfig(starts=12, jobs=1))
    assert built == [2]


def test_error_in_shared_pool_leaves_no_worker(monkeypatch):
    # m = 4, 5, 6 are solved in the pool (3, 4, 5 candidates); m = 7 has 7
    monkeypatch.setattr(verifier, "MAX_CANDIDATES", 6)
    with pytest.raises(SizeError) as exc:
        verify_range(3, 5, VerifyConfig(starts=4, jobs=2))
    assert str(exc.value) == (
        "enumeration for (m=7, r=3, Tmax=7) exceeds 6 candidates; lower the support cap"
    )
    assert multiprocessing.active_children() == []


def test_error_cancels_queued_solves(monkeypatch):
    # m = 13's 30 solves are queued when m = 14's 35 candidates exceed the
    # cap; the error cancels every solve no worker has taken yet
    queued = []

    class RecordingPool(ProcessPoolExecutor):
        def submit(self, *args, **kwargs):
            queued.append(super().submit(*args, **kwargs))
            return queued[-1]

    monkeypatch.setattr(verifier, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(verifier, "MAX_CANDIDATES", 30)
    with pytest.raises(SizeError):
        verifier.verify_many([13, 14], 3, VerifyConfig(starts=2000, jobs=2))
    assert len(queued) == 30
    assert all(f.done() for f in queued)
    assert sum(f.cancelled() for f in queued) >= 20
    assert multiprocessing.active_children() == []


def test_reports_built_one_m_behind(monkeypatch):
    # m's report waits until m + 1 is enumerated and its solves queued, and
    # is built before m + 2 is enumerated: at most two m's are held at once
    events = []

    def enumerate_recorder(m, r, Tmax):
        events.append(("enumerate", m))
        return enumerate_left_compressed(m, r, Tmax)

    report = verifier.VerificationReport

    def report_recorder(**fields):
        events.append(("report", fields["m"]))
        return report(**fields)

    monkeypatch.setattr(verifier, "enumerate_left_compressed", enumerate_recorder)
    monkeypatch.setattr(verifier, "VerificationReport", report_recorder)
    reports = verify_range(3, 5, VerifyConfig(starts=12))
    assert [rep.m for rep in reports] == [4, 5, 6, 7]
    assert events == [
        ("enumerate", 4),
        ("enumerate", 5),
        ("report", 4),
        ("enumerate", 6),
        ("report", 5),
        ("enumerate", 7),
        ("report", 6),
        ("report", 7),
    ]


WORKER_IMPORTS = """
import sys
from concurrent.futures import ProcessPoolExecutor

import hylag.verifier
from hylag import colex_segment, maximize


def first_solve_imports():
    before = set(sys.modules)
    maximize(colex_segment(7, 3))
    return sorted(set(sys.modules) - before)


with ProcessPoolExecutor(max_workers=1) as pool:
    print(pool.submit(first_solve_imports).result())
"""


def test_fresh_worker_imports_nothing_on_first_solve():
    # a worker forked from a process that imported only the verifier, from
    # this checkout
    src = str(Path(verifier.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", WORKER_IMPORTS],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert proc.stdout == "[]\n", proc.stdout


def test_r4_counterexample_report():
    # at m=11, r=4 the best candidate, K_5^{(4)} plus every edge {1, a, b, 6},
    # beats the solver's value for H^{11,4} (which has 2346 in place of 1456)
    # by 2.6e-5; the same report comes back at seeds 0, 1 and 7
    rep = verify_conjecture(11, 4)
    assert rep.counterexample is True
    witness = "1234 1235 1245 1345 2345 1236 1246 1346 1256 1356 1456"
    assert rep.witness == Hypergraph(4, [tuple(map(int, e)) for e in witness.split()])
    assert rep.best_candidate_value == evaluate(rep.witness, rep.witness_weighting)
    assert rep.best_candidate_value > rep.colex_value
    d = rep.diagnostics
    assert d.premise_holds
    assert d.bound_flags["T_bound"] == d.bound_flags["x1_bound"] == "pass"


# -- counterexample monitor ----------------------------------------------------


def synthetic_result(weights, value):
    return LagrangianResult(
        value_exact=value,
        weighting=Weighting(weights),
        kkt_residual=KKTResidual(0.0, 0.0),
    )


def test_monitor_clique_at_own_order():
    # lambda([5]^{(3)}) = 2/25 > C(4,3)/4^3 = 1/16, so the premise holds;
    # delta = 0 keeps the delta-conditional bounds out of play
    res = synthetic_result([Fraction(1, 5)] * 5, Fraction(2, 25))
    d = counterexample_monitor(clique(5, 3), res, 5)
    assert d.premise_holds
    assert (d.support_size, d.delta) == (5, 0)
    assert d.x1 == Fraction(1, 5)
    assert d.bound_flags["T_bound"] == "pass"
    assert d.bound_flags["x1_bound"] == "pass"
    assert d.bound_flags["xT_bound"] == "n/a"
    assert d.bound_flags["xq_bound"] == "n/a"
    assert d.bound_flags["tail_bound"] == "n/a"


def test_monitor_clique_at_smaller_order():
    # passing t-1 makes delta = 1 and activates the extra bounds
    res = synthetic_result([Fraction(1, 5)] * 5, Fraction(2, 25))
    d = counterexample_monitor(clique(5, 3), res, 4)
    assert d.premise_holds  # 2/25 > C(3,3)/3^3 = 1/27
    assert d.delta == 1
    assert d.bound_flags["xT_bound"] == "pass"
    assert d.bound_flags["xq_bound"] == "pass"
    assert d.bound_flags["tail_bound"] == "n/a"  # needs delta > 4r = 12


def test_monitor_premise_false():
    res = synthetic_result([Fraction(1, 3)] * 3, Fraction(1, 27))
    d = counterexample_monitor(Hypergraph(3, [(1, 2, 3)]), res, 5)
    assert not d.premise_holds  # 1/27 < C(4,3)/4^3 = 1/16
    assert set(d.bound_flags.values()) == {"n/a"}


def test_monitor_q_definition():
    # q is pinned by C(q-1,r-1) <= (t/(T-1)) C(t-1,r-1) < C(q,r-1), also
    # where the middle term is exactly a binomial
    exact = 0
    for r in range(2, 7):
        for t in range(2, 13):
            for T in range(2, 3 * t):
                w = [Fraction(1, T)] * T
                d = counterexample_monitor(clique(r, r), synthetic_result(w, Fraction(1, 2)), t)
                rhs = Fraction(t, T - 1) * binom(t - 1, r - 1)
                assert binom(d.q - 1, r - 1) <= rhs < binom(d.q, r - 1), (r, t, T, d.q)
                exact += rhs == binom(d.q - 1, r - 1)
    assert exact == 228


def test_monitor_tail_sum():
    # a long flat weighting past q produces a measurable tail
    T, t = 14, 3
    w = [Fraction(1, T)] * T
    d = counterexample_monitor(clique(T, 3), synthetic_result(w, Fraction(1, 2)), t)
    assert d.q is not None and d.q < T
    assert d.tail_sum == Fraction(T - d.q, T)


def two_levels(a, n, T):
    """n weights a, then T - n equal weights that make the sum 1."""
    return [a] * n + [(1 - n * a) / (T - n)] * (T - n)


JUST_PAST = Fraction(1, 10**13)  # inside the old float slack of 1e-12


@pytest.mark.parametrize("past", [0, JUST_PAST], ids=["at", "past"])
@pytest.mark.parametrize("flag, r, t, weights, shape", [
    # x1 <= r/t: x1 = 3/4 at r=3, t=4
    pytest.param("x1_bound", 3, 4, lambda e: two_levels(Fraction(3, 4) + e, 1, 2), (2, 6),
                 id="x1"),
    # (xT t)^2 delta <= 100: xT = 1/750 at t=500, delta=225
    pytest.param("xT_bound", 3, 500, lambda e: two_levels(Fraction(1, 750) + e, 1, 725),
                 (725, 415), id="xT"),
    # (x_q t / 30)^4 delta <= 1: x_q = 1/4 at t=20, delta=1296, q=3
    pytest.param("xq_bound", 3, 20, lambda e: two_levels(Fraction(1, 4) + e, 3, 1316),
                 (1316, 3), id="xq"),
    # r=2: tail_sum t / 40 <= 1: tail_sum = 4/5 at t=50, delta=100, q=17
    pytest.param("tail_bound", 2, 50, lambda e: two_levels((Fraction(1, 5) - e) / 17, 17, 150),
                 (150, 17), id="tail"),
])
def test_monitor_bounds_are_exact(past, flag, r, t, weights, shape):
    d = counterexample_monitor(clique(r, r), synthetic_result(weights(past), Fraction(1, 2)), t)
    assert (d.support_size, d.q) == shape
    assert d.bound_flags[flag] == ("fail" if past else "pass")


def test_monitor_support_bound_is_strict():
    for T, flag in ((39, "pass"), (40, "fail")):
        res = synthetic_result([Fraction(1, T)] * T, Fraction(1, 2))
        assert counterexample_monitor(clique(3, 3), res, 4).bound_flags["T_bound"] == flag


def test_monitor_validation():
    res = synthetic_result([Fraction(1, 3)] * 3, Fraction(1, 27))
    with pytest.raises(ValueError):
        counterexample_monitor(Hypergraph(1, [(1,)]), res, 5)
    with pytest.raises(ValueError):
        counterexample_monitor(Hypergraph(3, [(1, 2, 3)]), res, 1)


# -- reports -------------------------------------------------------------------


def test_gap_is_the_rounded_exact_gap():
    # colex and best values 1e-15 apart: the difference of their floats
    # would render as 9.99200722163e-16.  A report is built from what the
    # run measured alone; its verdicts are read from those values
    best = Fraction(1, 16) - Fraction(1, 10**15)
    measured = dict(
        m=4, r=3, t=4, regime="R2", colex_value=Fraction(1, 16), best_candidate_value=best,
        witness=clique(4, 3), witness_weighting=Weighting([Fraction(1, 4)] * 4),
        candidates_examined=1, support_cap=6, seed=0,
    )
    rep = verifier.VerificationReport(**measured)
    assert float(rep.colex_value - rep.best_candidate_value) == 1e-15
    assert (rep.counterexample, rep.saturated, rep.comparison) == (False, False, "exact")
    (entry,) = json.loads(reports_json_text([rep]))["reports"]
    assert entry["gap"] == {"exact": "1/1000000000000000", "float": 1e-15}
    assert reports_csv_text([rep]).splitlines()[1] == "4,4,R2,0.0625,0.0625,1e-15,1,false"
    # best above colex is flagged; a witness on support_cap vertices saturates
    flagged = verifier.VerificationReport(**{**measured, "colex_value": best - Fraction(1, 10**15)})
    assert (flagged.counterexample, flagged.saturated) == (True, False)
    assert json.loads(reports_json_text([flagged]))["reports"][0]["counterexample"] is True
    capped = verifier.VerificationReport(**{**measured, "support_cap": 4})
    assert (capped.counterexample, capped.saturated) == (False, True)
    # neither verdict can be passed in
    for verdict in ("counterexample", "saturated"):
        with pytest.raises(TypeError):
            verifier.VerificationReport(**measured, **{verdict: False})


def test_csv_header_and_row():
    rep = verify_conjecture(2, 3, FAST)
    text = reports_csv_text([rep])
    assert CSV_HEADER == "m,t,regime,colex_value,best_value,gap,candidates,counterexample"
    assert text == CSV_HEADER + "\n" + "2,4,R1,0.037037037037,0.037037037037,0,1,false\n"


def test_json_shape():
    rep = verify_conjecture(2, 3, FAST)
    payload = json.loads(reports_json_text([rep]))
    (entry,) = payload["reports"]
    assert entry["colex_value"] == {"exact": "1/27", "float": 0.037037037037}
    assert entry["best_candidate_value"]["exact"] == "1/27"
    assert entry["gap"] == {"exact": "0", "float": 0.0}
    assert entry["counterexample"] is False
    assert entry["comparison"] == "exact"
    assert entry["witness"]["hypergraph"]["edges"] == [[1, 2, 3], [1, 2, 4]]
    assert entry["diagnostics"] is None
    assert entry["seed"] == 0


def test_reports_byte_identical():
    cfg = VerifyConfig(starts=10, seed=5)
    a = reports_json_text(verify_range(3, 4, cfg))
    b = reports_json_text(verify_range(3, 4, cfg))
    assert a == b
    assert a.endswith("\n")
    assert reports_csv_text(verify_range(3, 4, cfg)) == reports_csv_text(verify_range(3, 4, cfg))


R3_T5_SEED1_SHA256 = "2293b974c02265e48b1fffd07bde62dac12bcc1593ff78070b81df074236510d"


def test_reports_pinned_bytes():
    # every report field, exact and float, of the r=3, t=5 window at seed 1:
    # a change to these bytes is a change to the report format or results
    text = reports_json_text(verify_range(3, 5, VerifyConfig(seed=1)))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == R3_T5_SEED1_SHA256


def test_reports_need_no_grid_oracle(monkeypatch):
    # every candidate's value and weighting come from certify, from the
    # weights the solver proposes for its core: the same bytes come back
    # when the grid oracle cannot be called
    def no_oracle(*args, **kwargs):
        raise AssertionError("grid_oracle called")

    monkeypatch.setattr(lagrangian, "grid_oracle", no_oracle)
    monkeypatch.setattr(verifier, "grid_oracle", no_oracle, raising=False)
    text = reports_json_text(verify_range(3, 5, VerifyConfig(seed=1)))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == R3_T5_SEED1_SHA256


def test_reports_pinned_bytes_most_core_reuse():
    # the r=3, t=6 window at seed 1, one worker: 68 of its 211 candidates
    # share a twin-free core with a candidate at a smaller m
    reports = verify_range(3, 6, VerifyConfig(seed=1))
    text = reports_json_text(reports)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "b04b04154c7000fc1f21dacc7ad2c1cbe02c192021ae56ba9d063a584c0c5bf3"
    )
    text = reports_csv_text(reports)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "8247957f949883fd9e4d6eba4a676f9620ebfa3c2910a231a08f780f733aa9f2"
    )


def test_reports_pinned_bytes_r4():
    # the same for the r=4, t=6 window at seed 7: the r=4 solves, with their
    # irrational maximizers and crawl graphs, must not move either
    text = reports_json_text(verify_range(4, 6, VerifyConfig(seed=7)))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "3bc329aa442e783b3914b8081f4064a442e0b11109101cebb33c70d24b091571"
    )


def test_reports_pinned_csv_r4_flag():
    # the CSV of r=4, m=10..15 at seed 1 in a pool of two workers: its one
    # flagged row (m=11) and the float columns of every row
    text = reports_csv_text(verify_many(range(10, 16), 4, VerifyConfig(seed=1, jobs=2)))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "01d89bb431108e328fa06e549aa7087fe30b33d24ef22a6312c8b2d1362d7ecd"
    )


def test_reports_pinned_bytes_r4_two_workers():
    # the r=4, t=6 window at seed 1, solved in a pool of two workers
    text = reports_json_text(verify_range(4, 6, VerifyConfig(seed=1, jobs=2)))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "a14e6852c57ea9186496d61533aa2184c44502d1777ee79022e814c40b12278f"
    )


def test_reports_pinned_bytes_r5_tail():
    # r=5, m=12..17 at seed 1 in a pool of two workers: the window where
    # Newton rows leave [-2, 2]^n most often, so the early stops of rows that
    # leave it or meet an earlier row must leave every report as it was; its
    # CSV holds three flagged rows (m=15, 16, 17)
    reports = verify_many(range(12, 18), 5, VerifyConfig(seed=1, jobs=2))
    text = reports_json_text(reports)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "0cdd00165f420afa971b08a176d9eb7faa0e83c96009eb12490f7d719cd69902"
    )
    text = reports_csv_text(reports)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "368127c463a407699a1a24704793c8c71d30aac9b401ece6c532b8d0e7efe37c"
    )


def test_reports_pinned_bytes_criterion_4_set():
    # acceptance criterion 4's instance set at seed 1, the verify-r3 bench
    # workload: two windows, then m = 1..10 one call each
    cfg = VerifyConfig(seed=1)
    reports = verify_range(3, 4, cfg) + verify_range(3, 5, cfg)
    reports += [verify_conjecture(m, 3, cfg) for m in range(1, 11)]
    text = reports_json_text(reports)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "23bfc541b4e2e4fabea80d1176a231792f237ab27d7fcbadd1314226924f8d50"
    )


def test_json_is_canonical():
    rep = verify_conjecture(1, 3, FAST)
    text = reports_json_text([rep])
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def test_float12():
    assert float12(Fraction(1, 27)) == 0.037037037037
    assert float12(0.25) == 0.25
    assert float12(1 / 3) == 0.333333333333
