"""Smoke-run every registered property suite at reduced trial counts."""

import pytest

from hylag import SUITES, available_suites, run_suite

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


def test_suites_repeat_exactly():
    for name in ("maclaurin", "gradient", "scaling"):
        a = run_suite(name, seed=7, trials=50)
        b = run_suite(name, seed=7, trials=50)
        assert (a.trials, a.failures, a.notes) == (b.trials, b.failures, b.notes), name


def test_exhaustive_suite_reports_sweep_size():
    # the shadow-bound sweep ignores `trials` and counts instances itself:
    # 45 left-compressed 3-graphs with 1..12 edges on [6]
    assert run_suite("kk", trials=1).trials == run_suite("kk", trials=99).trials == 45
