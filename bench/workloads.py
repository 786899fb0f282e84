"""The three benchmark workloads and the checks on their outputs.

A workload has three parts:

* setup(seed, workdir) builds its inputs (counted in setup_s);
* run(inputs, jobs) is one timed pass (a run makes at least `min_passes`
  of them), returning the raw outputs;
* check(inputs, outputs, reference) compares them with exact reference
  values kept in reference.json and returns a Check.

Every call into hylag goes through a module attribute (``verifier.verify_range``
and so on), so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass, field
from fractions import Fraction

from hylag import cli, hypergraph, lagrangian, verifier

CERT_TOL = 1e-7  # KKT residual bound for a certified maximizer (the CLI's --tol default)
FLOAT_TOL = 1e-9  # tolerance against a reference value that is irrational


@dataclass
class Check:
    attempted: int = 0  # reports or lambda calls
    failed: int = 0
    solves: int = 0  # hypergraphs solved by maximize
    maximizers: int = 0  # maximizers returned to the user
    certified: int = 0  # ... with both KKT residuals <= CERT_TOL
    exact_kkt: int = 0  # ... that are exact KKT points
    digest: str | None = None  # sha256 of reports_json_text (verify workloads)
    output_bytes: int = 0  # what cli.main printed (lambda workload)
    notes: list[str] = field(default_factory=list)

    def fail(self, note: str) -> None:
        self.failed += 1
        if len(self.notes) < 5:
            self.notes.append(note)

    def add_maximizer(self, H, weights) -> None:
        on, off = exact_kkt_residual(H, weights)
        self.maximizers += 1
        self.certified += abs(on) <= CERT_TOL and off <= CERT_TOL
        self.exact_kkt += on == 0 and off <= 0


def exact_kkt_residual(H, weights) -> tuple[Fraction, Fraction]:
    """(on_support, off_support) KKT residuals of an exact weighting, in
    rationals: max |L(H_i,y) - r L(H,y)| over the support and the max of
    L(H_i,y) - r L(H,y) off it (0 when the support is everything)."""
    y = tuple(Fraction(v) for v in weights)
    target = H.r * lagrangian.evaluate(H, y)
    g = lagrangian.partials(H, y)
    on = max((abs(g[i] - target) for i, v in enumerate(y) if v > 0), default=Fraction(0))
    off = max((g[i] - target for i, v in enumerate(y) if v == 0), default=Fraction(0))
    return on, off


def matches(value: Fraction, ref: dict) -> bool:
    """Exact equality when the reference maximizer is rational, else within FLOAT_TOL."""
    if ref["exact"] is not None:
        return value == Fraction(ref["exact"])
    return abs(float(value) - float(ref["value"])) <= FLOAT_TOL


# -- verify-r3 and verify-r4-jobs2 -------------------------------------------


@dataclass(frozen=True)
class VerifyWorkload:
    name: str
    jobs: int
    windows: tuple[tuple[int, int], ...]  # verify_range(r, t)
    ms: tuple[tuple[int, int], ...]  # verify_conjecture(m, r)
    min_passes: int = 1

    def instances(self) -> list[tuple[int, int]]:
        """(r, m) of every report, in order."""
        out = []
        for r, t in self.windows:
            lo = hypergraph.binom(t - 1, r)
            hi = hypergraph.binom(t, r) - hypergraph.binom(t - 2, r - 2)
            out.extend((r, m) for m in range(lo, hi + 1))
        return out + [(r, m) for m, r in self.ms]

    def setup(self, seed: int, workdir: str):
        return seed

    def run(self, seed: int, jobs: int):
        cfg = verifier.VerifyConfig(seed=seed, jobs=jobs)
        reports = []
        for r, t in self.windows:
            reports.extend(verifier.verify_range(r, t, cfg))
        for m, r in self.ms:
            reports.append(verifier.verify_conjecture(m, r, cfg))
        return reports, verifier.reports_json_text(reports)

    def check(self, seed, outputs, reference) -> Check:
        reports, text = outputs
        out = Check(digest=hashlib.sha256(text.encode("utf-8")).hexdigest())
        for rep in reports:
            out.attempted += 1
            out.solves += rep.candidates_examined
            out.add_maximizer(rep.witness, rep.witness_weighting.values)
            ref = reference["lagrangian"][str(rep.r)][str(rep.m)]
            where = f"verify r={rep.r} m={rep.m}"
            if rep.comparison != "exact" or rep.counterexample:
                out.fail(f"{where}: comparison={rep.comparison} counterexample={rep.counterexample}")
            elif not matches(rep.colex_value, ref):
                out.fail(f"{where}: colex value {rep.colex_value} != {ref}")
            elif not matches(rep.best_candidate_value, ref):
                out.fail(f"{where}: best value {rep.best_candidate_value} != {ref}")
        return out


# -- lambda-oracle-t7 ----------------------------------------------------------


@dataclass(frozen=True)
class LambdaWorkload:
    name: str
    r: int
    ms: tuple[int, ...]
    oracle_n: int
    min_passes: int
    jobs: int = 1

    def instances(self) -> list[tuple[int, int]]:
        return [(self.r, m) for m in self.ms]

    def setup(self, seed: int, workdir: str):
        inputs = []
        for m in self.ms:
            H = hypergraph.colex_segment(m, self.r)
            path = os.path.join(workdir, f"H{m}_{self.r}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(H.to_text())
            inputs.append((m, H, path))
        return seed, inputs

    def run(self, setup_out, jobs: int):
        seed, inputs = setup_out
        outputs = []
        for m, _, path in inputs:
            buf = io.StringIO()
            argv = ["lambda", "--input", path, "--oracle-n", str(self.oracle_n), "--seed", str(seed)]
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            outputs.append((code, buf.getvalue()))
        return outputs

    def check(self, setup_out, outputs, reference) -> Check:
        _, inputs = setup_out
        out = Check()
        for (m, H, _), (code, text) in zip(inputs, outputs, strict=True):
            out.attempted += 1
            out.solves += 1
            out.output_bytes += len(text.encode("utf-8"))
            where = f"lambda m={m} r={self.r}"
            if code != 0:
                out.fail(f"{where}: exit code {code}")
                continue
            payload = json.loads(text)
            out.add_maximizer(H, payload["weighting"]["values"])
            oracle_ref = reference[f"oracle{self.oracle_n}"][str(self.r)][str(m)]
            if Fraction(payload["oracle"]["value"]) != Fraction(oracle_ref):
                out.fail(f"{where}: oracle value {payload['oracle']['value']} != {oracle_ref}")
            elif not matches(Fraction(payload["value"]), reference["lagrangian"][str(self.r)][str(m)]):
                out.fail(f"{where}: value {payload['value']} is off the reference")
        return out


WORKLOADS = {
    w.name: w
    for w in (
        # criterion-4 instance set: serial solver path, maximize-bound
        VerifyWorkload("verify-r3", jobs=1, windows=((3, 4), (3, 5)),
                       ms=tuple((m, 3) for m in range(1, 11))),
        # the only workload on the ProcessPoolExecutor path; r=4, skewed solve times
        VerifyWorkload("verify-r4-jobs2", jobs=2, windows=((4, 6),), ms=()),
        # t=7 colex segments through the CLI: grid oracle and exact arithmetic
        LambdaWorkload("lambda-oracle-t7", r=3, ms=tuple(range(21, 36)), oracle_n=24, min_passes=2),
    )
}
