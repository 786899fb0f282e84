"""Acceptance suite: the nine end-to-end guarantees this package ships under.

Each criterion prints a single PASS/FAIL line (run with `pytest -s` to see
them on success).  Heavy computations live in module-scoped fixtures so the
conjecture-verification runs are shared between the criteria that consume
them.  Time budgets are asserted where a criterion carries one.
"""

import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from hylag import (
    Hypergraph,
    SolverConfig,
    VerifyConfig,
    binom,
    check_pair_identity,
    clique,
    clique_lagrangian,
    colex_segment,
    enumerate_left_compressed,
    grid_oracle,
    is_left_compressed,
    kkt_residual,
    max_clique_number,
    maximize,
    minimal_clique_order,
    motzkin_straus_value,
    restricted_support_verify,
    verify_conjecture,
    verify_range,
)
from hylag.cli import main

VERIFY_CFG = VerifyConfig(seed=0)  # library defaults: 50 starts, support slack 2


def report(num, label, ok, detail=""):
    tail = f"  [{detail}]" if detail else ""
    print(f"\ncriterion {num} ({label}): {'PASS' if ok else 'FAIL'}{tail}")
    return ok


# -- shared heavy fixtures -------------------------------------------------------


@pytest.fixture(scope="module")
def clique_runs():
    t0 = time.monotonic()
    out = []
    for r in (2, 3, 4, 5):
        for t in range(r, 13):
            H = clique(t, r)
            res = maximize(H, SolverConfig(starts=12, seed=13 * t + r))
            out.append((H, res, clique_lagrangian(t, r)))
    return out, time.monotonic() - t0


@pytest.fixture(scope="module")
def motzkin_straus_runs():
    rng = random.Random(20240814)
    t0 = time.monotonic()
    out = []
    for k in range(100):
        n = rng.randint(2, 9)
        pool = list(itertools.combinations(range(1, n + 1), 2))
        G = Hypergraph(2, rng.sample(pool, rng.randint(1, len(pool))))
        res = maximize(G, SolverConfig(starts=12, seed=k))
        assert max_clique_number(G) >= 2  # the formula needs at least one edge
        out.append((G, res, motzkin_straus_value(G)))
    return out, time.monotonic() - t0


@pytest.fixture(scope="module")
def plateau_runs():
    out = []
    for t in range(4, 8):
        target = clique_lagrangian(t - 1, 3)
        for m in range(binom(t - 1, 3), binom(t, 3) - (t - 2) + 1):
            H = colex_segment(m, 3)
            out.append((H, maximize(H, SolverConfig(starts=12, seed=m)), target))
    return out


@pytest.fixture(scope="module")
def conjecture_reports():
    t0 = time.monotonic()
    reports = verify_range(3, 4, VERIFY_CFG) + verify_range(3, 5, VERIFY_CFG)
    reports += [verify_conjecture(m, 3, VERIFY_CFG) for m in range(1, 11)]
    return reports, time.monotonic() - t0


@pytest.fixture(scope="module")
def restricted_reports():
    t0 = time.monotonic()
    reports = []
    for t in range(4, 7):
        for m in range(binom(t - 1, 3), binom(t, 3) - binom(t - 2, 1) + 1):
            reports.append(restricted_support_verify(m, 3, t, VERIFY_CFG))
    return reports, time.monotonic() - t0


# -- criteria --------------------------------------------------------------------


def test_criterion_1_clique_values(clique_runs):
    runs, elapsed = clique_runs
    worst = max(abs(res.value - float(target)) for _, res, target in runs)
    exact = all(res.value_exact == target for _, res, target in runs)
    ok = worst <= 1e-8 and exact and elapsed < 120
    assert report(1, "clique values", ok,
                  f"{len(runs)} cliques, worst gap {worst:.2e}, all exact={exact}, {elapsed:.1f}s")


def test_criterion_2_motzkin_straus(motzkin_straus_runs):
    runs, elapsed = motzkin_straus_runs
    worst = max(abs(res.value - float(target)) for _, res, target in runs)
    ok = worst <= 1e-6 and elapsed < 60
    assert report(2, "Motzkin-Straus agreement", ok,
                  f"100 graphs, worst gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_colex_plateau(plateau_runs):
    worst = max(abs(res.value - float(target)) for _, res, target in plateau_runs)
    ok = worst <= 1e-7
    assert report(3, "colex plateau", ok,
                  f"{len(plateau_runs)} segments over t=4..7, worst gap {worst:.2e}")


def test_criterion_4_conjecture_verification(conjecture_reports):
    reports, elapsed = conjecture_reports
    hits = [rep.m for rep in reports if rep.counterexample]
    candidates = sum(rep.candidates_examined for rep in reports)
    ok = not hits and elapsed < 600
    assert report(4, "desk-scale verification", ok,
                  f"{len(reports)} reports, {candidates} candidates, "
                  f"counterexamples={hits}, {elapsed:.1f}s")


def test_criterion_5_restricted_support(restricted_reports):
    reports, elapsed = restricted_reports
    hits = [rep.m for rep in reports if rep.counterexample]
    ok = not hits and elapsed < 300
    assert report(5, "restricted-support verification", ok,
                  f"{len(reports)} windows for t<=6, counterexamples={hits}, {elapsed:.1f}s")


def test_criterion_6_kkt_certification(
    clique_runs, motzkin_straus_runs, plateau_runs, conjecture_reports, restricted_reports
):
    pairs = [(H, res.weighting, res.kkt_residual)
             for H, res, _ in clique_runs[0] + motzkin_straus_runs[0]]
    pairs += [(H, res.weighting, res.kkt_residual) for H, res, _ in plateau_runs]
    pairs += [(rep.witness, rep.witness_weighting, None)
              for rep in conjecture_reports[0] + restricted_reports[0]]

    worst_on = worst_off = 0.0
    worst_pair = Fraction(0)
    checked_pairs = 0
    for H, w, kkt in pairs:
        if kkt is None:
            kkt = kkt_residual(H, w)
        worst_on = max(worst_on, float(kkt.on_support))
        worst_off = max(worst_off, float(kkt.off_support))
        if is_left_compressed(H):
            for i, j in itertools.combinations(w.support, 2):
                worst_pair = max(worst_pair, check_pair_identity(H, w, i, j))
                checked_pairs += 1
    ok = worst_on <= 1e-7 and worst_off <= 1e-7 and worst_pair <= 1e-6
    assert report(6, "KKT certification", ok,
                  f"{len(pairs)} maximizers: residuals on={worst_on:.2e} off={worst_off:.2e}, "
                  f"pair identity {float(worst_pair):.2e} over {checked_pairs} pairs")


def test_criterion_7_property_suites():
    from hylag import run_suite

    plan = {"maclaurin": 500, "scaling": 500, "kk": 0, "compression": 500,
            "uncovered": 500, "symmetrize": 500, "gradient": 500}
    failures = {}
    for name, trials in plan.items():
        res = run_suite(name, seed=2026, trials=trials)
        assert res.trials >= (500 if name != "kk" else 45)
        if not res.passed:
            failures[name] = res.notes
    ok = not failures
    assert report(7, "property suites", ok,
                  f"{len(plan)} suites at >=500 trials (kk exhaustive), failures={failures or 'none'}")


def test_criterion_8_oracle_consistency(conjecture_reports):
    # every candidate of criterion 4's runs with support in [6]: the exact
    # N=18 grid value never exceeds the solver value beyond float slack
    del conjecture_reports  # shares the instance set and VERIFY_CFG's solves
    solver = SolverConfig(starts=VERIFY_CFG.starts, seed=VERIFY_CFG.seed)
    worst_over = -1.0
    scanned = 0
    for m in range(1, 11):
        Tmax = minimal_clique_order(m, 3) + VERIFY_CFG.support_slack
        for H in enumerate_left_compressed(m, 3, Tmax):
            if H.max_vertex() > 6:
                continue
            res = maximize(H, solver)
            over = grid_oracle(H, 18).value - res.value
            worst_over = max(worst_over, over)
            scanned += 1

    fixtures = [colex_segment(m, 3) for m in range(1, 8)] + [clique(t, 3) for t in range(3, 7)]
    worst_gap = 0.0
    for H in fixtures:
        res = maximize(H, SolverConfig(starts=24, seed=0))
        worst_gap = max(worst_gap, res.value - grid_oracle(H, 24).value)

    ok = worst_over <= 1e-9 and worst_gap <= 0.02
    assert report(8, "oracle consistency", ok,
                  f"{scanned} candidates: max oracle excess {worst_over:.2e}; "
                  f"fixture N=24 worst gap {worst_gap:.2e}")


def test_criterion_9_determinism(tmp_path, capsys):
    blobs = []
    for name in ("first", "second"):
        base = str(tmp_path / name)
        code = main(["verify", "--r", "3", "--m", "3", "--m", "4", "--starts", "24",
                     "--seed", "11", "--output", base])
        assert code == 0
        blobs.append(((tmp_path / f"{name}.json").read_bytes(),
                      (tmp_path / f"{name}.csv").read_bytes()))
    capsys.readouterr()
    ok = blobs[0] == blobs[1]
    assert report(9, "byte-identical reports", ok,
                  f"json {len(blobs[0][0])} bytes, csv {len(blobs[0][1])} bytes")
