"""Run one hylag benchmark workload and print its metrics.

    python3 bench/run.py --workload verify-r3 --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout: it imports hylag from ./src and fails
(exit code 1, no result) when the sources are not there.  The workloads are
in workloads.py and the reasons for them are in README.md.

The seed goes into VerifyConfig.seed and `hylag lambda --seed`.  A run
first sets the workload up in-process.  Then it repeats whole timed passes
until the workload's `min_passes` are done and --seconds of passes have been
measured; every pass has the same inputs.  Then the run checks every pass's
outputs against reference.json.  Last, it times SETUP_REPEATS fresh set-ups,
each in a new interpreter, from process start to the workload being ready.

--trace 0 reports the end-to-end metrics: medians over the passes, and
setup_s as the median of the fresh set-ups.  --trace 1 runs one untraced
pass and then one pass with every layer wrapped (tracing.py).  It reports the
per-layer metrics and trace.overhead_share.  Worker processes keep their
spans to themselves, so every traced pass runs at jobs=1.  A workload whose
`jobs` is above 1 adds an untraced pass at its own `jobs` for
verifier.cpu_util.

The last line of stdout is the result JSON.  The line before it records the
environment, each pass, the sha256 of each verify pass's reports_json_text
and failed_share.  The result has correct=false when an output does not match
its reference or when two verify passes of one run disagree byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 7


def _import_hylag() -> None:
    if not os.path.isfile(os.path.join(SRC, "hylag", "__init__.py")):
        raise SystemExit(f"run.py: hylag sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import hylag

    if os.path.dirname(os.path.dirname(os.path.abspath(hylag.__file__))) != SRC:
        raise SystemExit(f"run.py: imported hylag from {hylag.__file__}, not from {SRC}")


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


@dataclass
class Pass:
    jobs: int
    traced: bool
    wall_s: float
    cpu_s: float  # this process and its finished children
    outputs: object


def timed_pass(workload, inputs, jobs: int, traced: bool = False) -> Pass:
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    outputs = workload.run(inputs, jobs)
    wall = time.perf_counter() - t0
    return Pass(jobs, traced, wall, _cpu_s() - cpu0, outputs)


def time_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to the workload being ready."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up of {workload} exited with {code}")
    return elapsed


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="a workload named in workloads.py")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set the workload up, print 'ready' and exit (times setup_s)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")

    _import_hylag()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        p.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    if args.setup_only:
        with tempfile.TemporaryDirectory(dir=BENCH, prefix=".work-") as workdir:
            wl.setup(args.seed, workdir)
            print("ready", flush=True)
        return 0

    with open(os.path.join(BENCH, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    env = environment()
    tracer = None
    with tempfile.TemporaryDirectory(dir=BENCH, prefix=".work-") as workdir:
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
            inputs = wl.setup(args.seed, workdir)
            tracer.uninstall()
            passes = [timed_pass(wl, inputs, 1)]
            if wl.jobs != 1:
                passes.append(timed_pass(wl, inputs, wl.jobs))
            tracer.install()
            try:
                passes.append(timed_pass(wl, inputs, 1, traced=True))
            finally:
                tracer.uninstall()
        else:
            inputs = wl.setup(args.seed, workdir)
            passes = []
            while len(passes) < wl.min_passes or sum(x.wall_s for x in passes) < args.seconds:
                passes.append(timed_pass(wl, inputs, wl.jobs))
        peak_kb = max(resource.getrusage(who).ru_maxrss
                      for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
        checks = [wl.check(inputs, x.outputs, reference) for x in passes]
    setups = [time_setup(args.workload, args.seed) for _ in range(SETUP_REPEATS)]
    env["loadavg_1m_end"] = os.getloadavg()[0]

    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    digests = sorted({c.digest for c in checks if c.digest is not None})
    correct = failed == 0 and len(digests) <= 1
    maximizers = sum(c.maximizers for c in checks)

    if args.trace:
        untraced, parallel, traced = passes[0], passes[-2], passes[-1]
        metrics = {name: metric(v, _layer_unit(name)) for name, v in tracer.metrics().items()}
        metrics["verifier.cpu_util"] = metric(
            parallel.cpu_s / (parallel.wall_s * parallel.jobs), "ratio")
        metrics["cli.main.output_bytes"] = metric(checks[-1].output_bytes, "bytes")
        metrics["trace.overhead_share"] = metric(traced.wall_s / untraced.wall_s - 1, "ratio")
    else:
        wall = statistics.median(x.wall_s for x in passes)
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "wall_s": metric(wall, "s"),
            "solves_per_s": metric(
                statistics.median(c.solves / x.wall_s for c, x in zip(checks, passes)), "1/s"),
            "peak_rss_mb": metric(peak_kb / 1024, "MB"),
            "certified_share": metric(_ratio(sum(c.certified for c in checks), maximizers), "ratio"),
            "exact_kkt_share": metric(_ratio(sum(c.exact_kkt for c in checks), maximizers), "ratio"),
        }

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": env,
        "passes": [{"jobs": x.jobs, "traced": x.traced, "wall_s": x.wall_s, "cpu_s": x.cpu_s}
                   for x in passes],
        "setup_runs_s": setups,
        "failed_share": failed / attempted,
        "reports_sha256": digests,
        "notes": [n for c in checks for n in c.notes][:10],
    }
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}, sort_keys=True))
    return 0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    return {
        "calls": "count", "work": "count", "points": "count", "skipped": "count",
        "candidates": "count", "bytes": "bytes", "us_per_work": "us/work",
        "ns_per_point": "ns/point",
    }.get(last, "s" if last.endswith("_s") else "ratio")


if __name__ == "__main__":
    sys.exit(main())
