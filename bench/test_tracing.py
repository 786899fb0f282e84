"""The tracer counts calls between layers and leaves hylag as it found it.

    python3 -m pytest bench/test_tracing.py      # from the repo root, ~1 s
"""

import os
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

from hylag import cli, lagrangian, suites, verifier  # noqa: E402
from hylag.hypergraph import clique  # noqa: E402
from tracing import Tracer  # noqa: E402


def test_tracer_sees_imported_names_and_restores_them():
    originals = (lagrangian.maximize, verifier.maximize, suites.maximize, cli.maximize)
    tracer = Tracer()
    tracer.install()
    try:
        assert verifier.maximize is not originals[1]
        report = verifier.verify_conjecture(3, 3, verifier.VerifyConfig(starts=4))
        with pytest.raises(lagrangian.SizeError):
            lagrangian.grid_oracle(clique(12, 3), 200)  # C(211, 11) grid points
    finally:
        tracer.uninstall()
    assert (lagrangian.maximize, verifier.maximize, suites.maximize, cli.maximize) == originals

    m = tracer.metrics()
    n = report.candidates_examined
    assert m["verifier.verify_conjecture.calls"] == 1
    assert m["verifier.enumerate_left_compressed.candidates"] == n
    assert m["lagrangian.maximize.calls"] == n
    assert m["lagrangian.maximize.work"] == 4 * 3 * 3 * n  # starts * edges * r
    assert 0 < m["lagrangian.maximize.self_s"] <= m["lagrangian.maximize.time_s"]
    assert m["lagrangian.grid_oracle.skipped"] == 1
    assert m["lagrangian.grid_oracle.calls"] >= 1
    assert m["verifier.verify_conjecture.time_s"] >= m["lagrangian.maximize.time_s"]
