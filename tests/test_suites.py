"""Smoke-run every registered property suite at reduced trial counts."""

from dataclasses import replace
from fractions import Fraction

import pytest

from hylag import SUITES, Hypergraph, KKTResidual, available_suites, run_suite, suites

# trials trimmed where a suite solves Lagrangians per trial; the acceptance
# tests run the full counts
TRIALS = {
    "maclaurin": 500,
    "gradient": 300,
    "scaling": 60,
    "kkt": 10,
    "compression": 60,
    "swaps": 120,
    "uncovered": 60,
    "symmetrize": 300,
    "kk": 0,  # exhaustive; ignores the count
}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_passes(name):
    res = run_suite(name, seed=2024, trials=TRIALS[name])
    assert res.name == name
    assert res.trials > 0
    assert res.passed, res.notes


def test_registry_listing():
    names = available_suites()
    assert names == sorted(names)
    assert set(names) == set(SUITES)
    assert {"maclaurin", "kk", "scaling", "kkt", "compression",
            "swaps", "uncovered", "symmetrize", "gradient"} == set(names)


def test_unknown_suite():
    with pytest.raises(KeyError):
        run_suite("nonesuch")


def test_negative_trials_rejected():
    # zero is legal (criterion 7 runs the exhaustive `kk` at 0); below it
    # nothing would be checked
    with pytest.raises(ValueError):
        run_suite("maclaurin", trials=-5)


def test_suites_repeat_exactly():
    for name in ("maclaurin", "gradient", "scaling"):
        a = run_suite(name, seed=7, trials=50)
        b = run_suite(name, seed=7, trials=50)
        assert (a.trials, a.failures, a.notes) == (b.trials, b.failures, b.notes), name


def test_exhaustive_suite_reports_sweep_size():
    # the shadow-bound sweep ignores `trials` and counts instances itself:
    # 45 left-compressed 3-graphs with 1..12 edges on [6]
    assert run_suite("kk", trials=1).trials == run_suite("kk", trials=99).trials == 45


def test_trial_and_failure_counts():
    # one trial per instance checked: the six random suites draw `trials`
    # instances, `kk` sweeps its 45, `kkt` adds 15 fixtures and `swaps` the
    # 7 colex segments H^{m,3}, m <= 7
    counts = {name: (res.trials, res.failures)
              for name in SUITES for res in [run_suite(name, seed=1, trials=20)]}
    assert counts == {
        "maclaurin": (20, 0), "scaling": (20, 0), "compression": (20, 0),
        "uncovered": (20, 0), "symmetrize": (20, 0), "gradient": (20, 0),
        "kk": (45, 0), "kkt": (35, 0), "swaps": (27, 0),
    }


def test_uncovered_checks_every_trial(monkeypatch):
    # every trial draws until its instance has an uncovered pair, so each
    # one runs the reduction
    calls = []
    reduce = suites.uncovered_pair_reduce
    monkeypatch.setattr(suites, "uncovered_pair_reduce", lambda H: calls.append(H) or reduce(H))
    assert run_suite("uncovered", seed=1, trials=20).trials == len(calls) == 20


# case -> (suite, trials, name broken in hylag.suites, breaker of the original
# callable, prefixes of the suite's notes); `trials=0` leaves `kkt` its
# fixtures and `swaps` its colex phase alone
BREAKS = {
    "maclaurin": ("maclaurin", 20, "clique_lagrangian",
                  lambda f: lambda n, r: Fraction(-1), ("e_",)),
    "kk": ("kk", 0, "kk_link_bounds",
           lambda f: lambda H: (False, [1]), ("e(H_1)=", "degree bound fails")),
    "scaling": ("scaling", 20, "check_scaling_bound",
                lambda f: lambda H, y, i: False, ("scaling bound fails",)),
    "kkt-residual": ("kkt", 0, "maximize",
                     lambda f: lambda H, cfg: replace(f(H, cfg), kkt_residual=KKTResidual(1.0, 0.0)),
                     ("KKT residuals",)),
    "kkt-pair-identity": ("kkt", 0, "check_pair_identity",
                          lambda f: lambda H, y, i, j: Fraction(1), ("pair identity residual",)),
    "compression": ("compression", 20, "left_compress",
                    lambda f: lambda H: Hypergraph(H.r, H.edges[:1]), ("lambda drops",)),
    "swaps-random": ("swaps", 20, "evaluate",
                     lambda f: lambda H, y: Fraction(0), ("swap ",)),
    "swaps-colex": ("swaps", 0, "find_improving_swap",
                    lambda f: lambda H, y: (H.edges[0], H.edges[0]), ("improving swap found",)),
    "uncovered": ("uncovered", 20, "uncovered_pair_reduce",
                  lambda f: lambda H: [Hypergraph(H.r, H.edges[:1])], ("lambda(",)),
    "symmetrize": ("symmetrize", 20, "symmetrize",
                   lambda f: lambda H, y, i, j: [Fraction(0)] * len(y), ("symmetrizing",)),
    "gradient": ("gradient", 20, "partials",
                 lambda f: lambda H, y: [g + 1 for g in f(H, y)], ("d/dy_",)),
}


@pytest.mark.parametrize("case", sorted(BREAKS))
def test_suite_reports_a_broken_check(monkeypatch, case):
    name, trials, target, breaker, prefixes = BREAKS[case]
    monkeypatch.setattr(suites, target, breaker(getattr(suites, target)))
    res = run_suite(name, seed=1, trials=trials)
    assert not res.passed and res.failures >= 1
    assert 1 <= len(res.notes) <= 5
    assert all(note.startswith(prefixes) for note in res.notes), res.notes


def test_kk_reports_both_bounds_per_instance(monkeypatch):
    monkeypatch.setattr(suites, "kk_link_bounds", lambda H: (False, [1]))
    res = run_suite("kk", trials=0)
    assert (res.trials, res.failures) == (45, 90)
