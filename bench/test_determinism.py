"""Determinism of verify reports, checked through the benchmark itself.

    python3 -m pytest bench/test_determinism.py      # from the repo root, ~1.5 min

With the same seed and code, reports_json_text must be byte-identical from
run to run, whether candidates are solved in one process or in a pool of two
workers, and with or without the tracer.  A traced run of verify-r4-jobs2
solves the instance set at jobs=1, then jobs=2, then jobs=1 traced.  An
untraced run solves it at jobs=2.  Each run reports the sha256 of every
pass's reports, and all of them must agree.
"""

import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))


def run_bench(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=os.path.dirname(BENCH), capture_output=True, text=True, timeout=600, check=True,
    )
    info, result = (json.loads(line) for line in out.stdout.splitlines()[-2:])
    return info, result


def test_reports_repeat_across_runs_jobs_and_tracing():
    traced_info, traced = run_bench("verify-r4-jobs2", seed=7, trace=1)
    assert [p["jobs"] for p in traced_info["passes"]] == [1, 2, 1]
    assert traced["correct"] and traced["failed"] == 0
    assert len(traced_info["reports_sha256"]) == 1

    info, result = run_bench("verify-r4-jobs2", seed=7, trace=0)
    assert result["correct"] and result["failed"] == 0
    assert info["reports_sha256"] == traced_info["reports_sha256"]
