"""Command-line behavior: formats, exit codes, defaults."""

import ast
import hashlib
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

if sys.version_info >= (3, 11):
    import tomllib
else:
    import tomli as tomllib

import hylag
from hylag import (
    Hypergraph,
    KKTResidual,
    LagrangianResult,
    Weighting,
    clique,
    colex_segment,
)
from hylag import cli, hypergraph, lagrangian, suites, verifier
from hylag.cli import _lambda_exit_code, _verify_exit_code, main


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- colex ---------------------------------------------------------------------


def test_colex_to_file(tmp_path, capsys):
    out = tmp_path / "seg.txt"
    code, stdout, _ = run_main(capsys, "colex", "--m", "5", "--r", "3", "--output", str(out))
    assert code == 0 and stdout == ""
    assert Hypergraph.from_text(out.read_text()) == colex_segment(5, 3)


def test_colex_to_stdout(capsys):
    code, stdout, _ = run_main(capsys, "colex", "--m", "4", "--r", "3")
    assert code == 0
    assert Hypergraph.from_text(stdout) == clique(4, 3)


def test_colex_empty(capsys):
    code, stdout, _ = run_main(capsys, "colex", "--m", "0", "--r", "3")
    assert code == 0
    H = Hypergraph.from_text(stdout)
    assert H.r == 3 and len(H) == 0


def test_colex_rejects_negative_m(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["colex", "--m", "-1", "--r", "3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["lambda", "--input", write_graph(tmp_path, clique(3, 3)), "--starts", "0"])
    assert exc.value.code == 2
    assert "--starts: must be >= 1, got 0" in capsys.readouterr().err


def test_main_builds_its_parser_once(monkeypatch, tmp_path, capsys):
    # main reuses one parser across calls, and no call's arguments leak into
    # the next: the second writes to stdout, the default, not to the first's file
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    try:
        out = tmp_path / "seg.txt"
        assert run_main(capsys, "colex", "--m", "5", "--r", "3", "--output", str(out)) == (0, "", "")
        code, stdout, _ = run_main(capsys, "colex", "--m", "3", "--r", "2")
    finally:
        cli._parser.cache_clear()
    assert code == 0 and built == [1]
    assert Hypergraph.from_text(out.read_text()) == colex_segment(5, 3)
    assert Hypergraph.from_text(stdout) == colex_segment(3, 2)


def test_missing_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# -- lambda ----------------------------------------------------------------------


def write_graph(tmp_path, H, name="g.txt"):
    p = tmp_path / name
    p.write_text(H.to_text())
    return str(p)


def test_lambda_clique(tmp_path, capsys):
    path = write_graph(tmp_path, clique(4, 3))
    code, stdout, _ = run_main(capsys, "lambda", "--input", path, "--starts", "12")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["value"] == "1/16"
    assert payload["value_float"] == 0.0625
    assert payload["support_size"] == 4
    assert "oracle" not in payload


def test_lambda_with_oracle(tmp_path, capsys):
    path = write_graph(tmp_path, colex_segment(2, 3))
    code, stdout, _ = run_main(
        capsys, "lambda", "--input", path, "--starts", "12", "--oracle-n", "9"
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["value"] == "1/27"
    assert payload["oracle"]["value"] == "1/27"
    assert payload["oracle"]["support_size"] == 3


def test_lambda_prints_only_certificates(tmp_path, capsys):
    # the run's settings are on its command line: the output is the solver's
    # certificate, with the grid oracle's under "oracle"
    path = write_graph(tmp_path, colex_segment(5, 3))
    code, stdout, _ = run_main(capsys, "lambda", "--input", path, "--oracle-n", "6")
    assert code == 0
    payload = json.loads(stdout)
    cert = {"value", "value_float", "weighting", "support_size",
            "kkt_on_support", "kkt_off_support"}
    assert set(payload) == cert | {"oracle"}
    assert set(payload["oracle"]) == cert


def test_lambda_uncertified_exit(tmp_path, capsys):
    # the maximizer of H^{9,3} is irrational, so its rational certificate
    # always carries a positive stationarity residual, which --tol 0 flags
    path = write_graph(tmp_path, colex_segment(9, 3))
    code, stdout, _ = run_main(
        capsys, "lambda", "--input", path, "--starts", "12", "--tol", "0"
    )
    assert code == 3
    assert json.loads(stdout)["kkt_on_support"] > 0


def test_lambda_rejects_nan_and_negative_tol(tmp_path, capsys):
    # every comparison with nan fails, so --tol nan would certify anything
    path = write_graph(tmp_path, colex_segment(9, 3))
    for tol in ("nan", "-1"):
        with pytest.raises(SystemExit) as exc:
            main(["lambda", "--input", path, "--tol", tol])
        assert exc.value.code == 2
        assert f"--tol: must be a number >= 0, got {tol}" in capsys.readouterr().err


def test_lambda_crawl_instance_certified(tmp_path, capsys):
    # vertex 6 is exactly tied at the maximizer; a replicator finish alone
    # leaves its weight decaying and the certificate 1.3e-6 short (exit 3)
    H = Hypergraph(4, [tuple(map(int, e)) for e in
                       "1234 1235 1245 1345 1236 1246 1256 1237 1247 1257".split()])
    code, stdout, _ = run_main(capsys, "lambda", "--input", write_graph(tmp_path, H))
    assert code == 0
    assert json.loads(stdout)["value"] == "27/4096"


# stdout of `hylag lambda --oracle-n 24 --seed 1` on H^{31,3}, whose maximizer
# is irrational: the solver's rational witness and exact value at it, and the
# grid oracle's best weighting with entries k/24
H31_LAMBDA_STDOUT = """\
{
  "kkt_off_support": 0.0,
  "kkt_on_support": 4.21768965417e-12,
  "oracle": {
    "kkt_off_support": 0.0,
    "kkt_on_support": 0.0104166666667,
    "support_size": 7,
    "value": "3/32",
    "value_float": 0.09375,
    "weighting": {
      "values": [
        "1/6",
        "1/6",
        "1/6",
        "1/6",
        "1/6",
        "1/12",
        "1/12"
      ]
    }
  },
  "support_size": 7,
  "value": "16552596002189075324358720597942116811578062818359/176281659356515684663030814378195026070126817870739",
  "value_float": 0.0938985715395,
  "weighting": {
    "values": [
      "9715946768894417/56070665399559979",
      "17992961729335983/112141330799119958",
      "17992961729335983/112141330799119958",
      "17992961729335983/112141330799119958",
      "17992961729335983/112141330799119958",
      "5184397585996798/56070665399559979",
      "5184397585996798/56070665399559979"
    ]
  }
}
"""


def test_lambda_pinned_output(tmp_path, capsys):
    path = write_graph(tmp_path, colex_segment(31, 3))
    code, stdout, _ = run_main(capsys, "lambda", "--input", path, "--oracle-n", "24", "--seed", "1")
    assert code == 0
    assert stdout == H31_LAMBDA_STDOUT


def test_lambda_oracle_t7_pinned_bytes(tmp_path, capsys):
    # the stdouts of `hylag lambda --oracle-n 24 --seed 1` on H^{m,3},
    # m = 21..35, concatenated: every exact value, weighting, residual and
    # oracle result of the t=7 colex segments
    out = []
    for m in range(21, 36):
        path = write_graph(tmp_path, colex_segment(m, 3), f"H{m}.txt")
        code, stdout, _ = run_main(capsys, "lambda", "--input", path, "--oracle-n", "24",
                                   "--seed", "1")
        assert code == 0
        out.append(stdout)
    assert hashlib.sha256("".join(out).encode("utf-8")).hexdigest() == (
        "d7636553e595b552f1abbb6baf20a1094e5e413b9188b8824869a7247a5176fc"
    )


def test_lambda_missing_file(capsys):
    code, _, stderr = run_main(capsys, "lambda", "--input", "/nonexistent/g.txt")
    assert code == 2
    assert stderr.startswith("hylag: ")


def test_lambda_malformed_file(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("no header here\n1 2 3\n")
    code, _, stderr = run_main(capsys, "lambda", "--input", str(p))
    assert code == 2
    assert "hylag:" in stderr


def test_lambda_exit_code_unit():
    def fake(on, off):
        w = Weighting([Fraction(1)])
        return LagrangianResult(
            value_exact=Fraction(1), weighting=w,
            kkt_residual=KKTResidual(on, off),
        )

    assert _lambda_exit_code(fake(0.0, 0.0), 1e-7) == 0
    assert _lambda_exit_code(fake(1e-6, 0.0), 1e-7) == 3
    assert _lambda_exit_code(fake(0.0, 1e-6), 1e-7) == 3
    assert _lambda_exit_code(fake(1e-6, 1e-6), 1e-3) == 0


# -- verify ----------------------------------------------------------------------


def test_verify_writes_reports(tmp_path, capsys):
    base = str(tmp_path / "rep")
    code, stdout, _ = run_main(
        capsys, "verify", "--r", "3", "--m", "2", "--starts", "12", "--output", base
    )
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0] == (
        "m=2 r=3 t=4 R1 colex=0.037037037037 best=0.037037037037 candidates=1 ok"
    )
    assert lines[1] == f"wrote {base}.json and {base}.csv"
    payload = json.loads((tmp_path / "rep.json").read_text())
    assert payload["reports"][0]["m"] == 2
    csv = (tmp_path / "rep.csv").read_text().splitlines()
    assert csv[0] == "m,t,regime,colex_value,best_value,gap,candidates,counterexample"
    assert len(csv) == 2


def test_verify_deterministic_files(tmp_path, capsys):
    blobs = []
    for name, jobs in (("a", "1"), ("b", "1"), ("c", "2")):
        base = str(tmp_path / name)
        code, _, _ = run_main(
            capsys, "verify", "--r", "3", "--m", "4", "--m", "5", "--m", "6",
            "--starts", "12", "--seed", "9", "--jobs", jobs, "--output", base,
        )
        assert code == 0
        blobs.append(((tmp_path / f"{name}.json").read_bytes(),
                      (tmp_path / f"{name}.csv").read_bytes()))
    assert blobs[0] == blobs[1] == blobs[2]


def test_verify_repeatable_m(tmp_path, capsys):
    base = str(tmp_path / "multi")
    code, stdout, _ = run_main(
        capsys, "verify", "--r", "3", "--m", "1", "--m", "2", "--starts", "10",
        "--output", base,
    )
    assert code == 0
    assert len((tmp_path / "multi.csv").read_text().splitlines()) == 3


def test_verify_saturation_exit(tmp_path, capsys):
    base = str(tmp_path / "sat")
    code, stdout, _ = run_main(
        capsys, "verify", "--r", "3", "--m", "4", "--starts", "12",
        "--support-slack", "0", "--output", base,
    )
    assert code == 4
    assert stdout.splitlines()[:-1] == [
        "m=4 r=3 t=4 R2 colex=0.0625 best=0.0625 candidates=1 ok (saturated: raise --support-slack)",
    ]


def test_verify_window_flag(tmp_path, capsys):
    base = str(tmp_path / "win")
    code, stdout, _ = run_main(
        capsys, "verify", "--r", "4", "--t", "5", "--starts", "10", "--output", base
    )
    assert code == 0
    assert len((tmp_path / "win.csv").read_text().splitlines()) == 3  # header + m=1,2


def test_verify_counterexample_exit(tmp_path, capsys):
    base = str(tmp_path / "cx")
    code, stdout, _ = run_main(capsys, "verify", "--r", "4", "--m", "10", "--m", "11",
                               "--seed", "1", "--output", base)
    assert code == 1
    assert stdout.splitlines()[:-1] == [
        "m=10 r=4 t=6 R2 colex=0.00845566475981 best=0.00845566475981 candidates=21 ok",
        "m=11 r=4 t=6 R2 colex=0.0089930580682 best=0.00901892638059 candidates=26 COUNTEREXAMPLE",
    ]
    ok, flagged = json.loads((tmp_path / "cx.json").read_text())["reports"]
    assert (ok["counterexample"], ok["diagnostics"]) == (False, None)
    assert flagged["counterexample"] is True
    assert flagged["diagnostics"]["premise_holds"] is True


@pytest.mark.parametrize("r, m, seed, verify_code", [(4, 11, 7, 1), (3, 8, 1, 0)])
def test_verify_witness_replays_through_lambda(tmp_path, capsys, r, m, seed, verify_code):
    # every candidate is solved with the run's --starts and --seed, so lambda
    # with the same flags reproduces the report's witness: r=4, m=11 is the
    # flagged counterexample, r=3, m=8 an irrational R2 maximizer
    base = str(tmp_path / "rep")
    code, _, _ = run_main(capsys, "verify", "--r", str(r), "--m", str(m),
                          "--seed", str(seed), "--output", base)
    assert code == verify_code
    (entry,) = json.loads((tmp_path / "rep.json").read_text())["reports"]
    witness = entry["witness"]
    lines = [f"r={r}"] + [" ".join(map(str, e)) for e in witness["hypergraph"]["edges"]]
    path = tmp_path / "witness.txt"
    path.write_text("\n".join(lines) + "\n")
    _, stdout, _ = run_main(capsys, "lambda", "--input", str(path), "--seed", str(seed))
    payload = json.loads(stdout)
    assert payload["value"] == entry["best_candidate_value"]["exact"]
    assert payload["weighting"] == witness["weighting"]


def test_verify_rejects_r1(capsys):
    code, _, stderr = run_main(capsys, "verify", "--r", "1", "--m", "3")
    assert code == 2
    assert "hylag:" in stderr


def test_verify_t_and_m_conflict(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--r", "3", "--t", "5", "--m", "4"])
    assert exc.value.code == 2


def test_verify_exit_code_unit():
    rep = lambda cx, sat: SimpleNamespace(counterexample=cx, saturated=sat)
    assert _verify_exit_code([rep(False, False)]) == 0
    assert _verify_exit_code([rep(False, True)]) == 4
    assert _verify_exit_code([rep(True, False)]) == 1
    assert _verify_exit_code([rep(True, True), rep(False, True)]) == 1
    assert _verify_exit_code([]) == 0


# -- check -----------------------------------------------------------------------


def test_check_pass(capsys):
    code, stdout, _ = run_main(
        capsys, "check", "--suite", "maclaurin", "--seed", "7", "--trials", "200"
    )
    assert code == 0
    assert stdout == "maclaurin    trials=200    failures=0    pass\n"


def test_check_failure_exit(monkeypatch, capsys):
    # partials off by one fails every unit-difference check: 3 trials make at
    # least 6 failures, of which the report lists 5
    partials = suites.partials
    monkeypatch.setattr(suites, "partials", lambda H, y: [g + 1 for g in partials(H, y)])
    code, stdout, _ = run_main(capsys, "check", "--suite", "gradient", "--seed", "1",
                               "--trials", "3")
    assert code == 1
    head, *notes = stdout.splitlines()
    assert head.startswith("gradient") and head.endswith(" FAIL")
    assert len(notes) == 5 and all(n.startswith("  - d/dy_") for n in notes)


def test_check_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--suite", "nonesuch"])
    assert exc.value.code == 2


# -- environment and packaging -----------------------------------------------------


def test_environment_sets_nothing(monkeypatch, capsys, tmp_path):
    # the command line alone sets a run: no variable, valid or not, moves the
    # defaults of --seed and --jobs
    monkeypatch.setenv("HYLAG_SEED", "x")
    monkeypatch.setenv("HYLAG_JOBS", "0")
    code, _, _ = run_main(capsys, "verify", "--r", "3", "--m", "3", "--starts", "4",
                          "--output", str(tmp_path / "rep"))
    assert code == 0
    assert json.loads((tmp_path / "rep.json").read_text())["reports"][0]["seed"] == 0


def test_package_exports_every_module_name():
    modules = (hypergraph, lagrangian, suites, verifier)
    owners: dict[str, list[str]] = {}
    for m in modules:
        for name in m.__all__:
            owners.setdefault(name, []).append(m.__name__)
    # the package star-imports each module, so a name two modules export
    # would shadow one of them silently
    assert {n: o for n, o in owners.items() if len(o) > 1} == {}
    assert set(hylag.__all__) == set(owners)
    for m in modules:
        for name in m.__all__:
            assert getattr(hylag, name) is getattr(m, name), (m.__name__, name)


def test_modules_import_only_public_names():
    # a private name is its module's own business: no hylag module imports
    # a _-prefixed name from another
    found = []
    for path in sorted(Path(hylag.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "hylag"
            ):
                found += [(path.name, node.module, a.name) for a in node.names
                          if a.name.startswith("_")]
    assert found == []


def child_env():
    """Environment whose interpreter imports the same hylag as this process,
    so an older installed copy cannot answer for this checkout."""
    env = dict(os.environ)
    src = str(Path(hylag.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_console_entry_point():
    # run the declared script target the way an installer's wrapper does:
    # arguments in sys.argv, exit code from sys.exit(main())
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["hylag"]
    module, attr = target.split(":")
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys; from {module} import {attr}; sys.exit({attr}())",
         "colex", "--m", "3", "--r", "3"],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert Hypergraph.from_text(proc.stdout) == colex_segment(3, 3)


@pytest.mark.skipif(shutil.which("hylag") is None, reason="hylag console script not installed")
def test_installed_console_script():
    proc = subprocess.run(
        ["hylag", "colex", "--m", "3", "--r", "3"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert Hypergraph.from_text(proc.stdout) == colex_segment(3, 3)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "hylag.cli", "colex", "--m", "2", "--r", "3"],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0
    assert Hypergraph.from_text(proc.stdout) == colex_segment(2, 3)
