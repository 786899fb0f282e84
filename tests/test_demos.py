"""Every demo script runs to completion against this checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hylag

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def child_env():
    env = dict(os.environ)
    src = str(Path(hylag.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=child_env())
    assert proc.returncode == 0, proc.stderr
