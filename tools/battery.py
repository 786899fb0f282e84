"""Print one sha256 per part of hylag's output battery.

    python3 tools/battery.py

Run it from any directory: it imports hylag from the checkout's src/.  Two
checkouts whose lines match produce the same outputs on the battery; a line
that differs names the part that moved.  The parts, each at the seeds shown:

* verify: the verify-r3 set (verify_range(3, 4), verify_range(3, 5) and
  verify_conjecture(m, 3) for m = 1..10; its seed-1 and seed-7 lines are the
  bench's reports_sha256), verify_range(3, 6), verify_range(4, 6),
  verify_many(10..15, 4) and verify_many(12..17, 5), at seeds 1 and 7 with
  jobs=2: the digest of reports_json_text, and on the ten lines before the
  compress line, the digest of reports_csv_text of the same reports;
* colex: maximize(H^{m,r}) for r = 3, 4 and m = 4..35 at 50 starts, seeds
  0 and 1: each result's JSON, one line per m;
* lambda: `hylag lambda --oracle-n 24 --seed S` on H^{m,3}, m = 21..35,
  seeds 1 and 7: each exit code and stdout;
* random2028: maximize on 1,500 graphs drawn with random.Random(2028):
  r in 2..4, n in r+1..7, 1..min(10, C(n, r)) distinct r-sets of [n],
  8, 20 or 50 starts, seed in 0..999;
* random2029: maximize on 3,000 graphs drawn with random.Random(2029):
  r in 2..5, n in r+1..8, 1..min(14, C(n, r)) distinct r-sets of [n],
  every third graph (the third, sixth, ...) left-compressed, 4..80 starts,
  seed in 0..999;
* compress: left_compress(H).to_text() for each of random2029's 3,000
  graphs, with the same draws, every graph compressed (random2029's digest
  hashes only maximize's JSON, which does not contain the graph).

It takes about half a minute on 2 cores.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from hylag import cli  # noqa: E402
from hylag.hypergraph import Hypergraph, binom, colex_segment, left_compress  # noqa: E402
from hylag.lagrangian import SolverConfig, maximize  # noqa: E402
from hylag.verifier import (  # noqa: E402
    VerifyConfig,
    reports_csv_text,
    reports_json_text,
    verify_conjecture,
    verify_many,
    verify_range,
)

SEEDS = (1, 7)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _result_line(res) -> str:
    return json.dumps(res.to_json_dict(), sort_keys=True) + "\n"


def _verify_parts(seed: int):
    cfg = VerifyConfig(seed=seed, jobs=2)
    r3 = verify_range(3, 4, cfg) + verify_range(3, 5, cfg)
    r3 += [verify_conjecture(m, 3, cfg) for m in range(1, 11)]
    yield "verify-r3", r3
    yield "verify_range(3, 6)", verify_range(3, 6, cfg)
    yield "verify_range(4, 6)", verify_range(4, 6, cfg)
    yield "verify_many(10..15, 4)", verify_many(range(10, 16), 4, cfg)
    yield "verify_many(12..17, 5)", verify_many(range(12, 18), 5, cfg)


def _colex(seed: int) -> str:
    cfg = SolverConfig(starts=50, seed=seed)
    return "".join(_result_line(maximize(colex_segment(m, r), cfg))
                   for r in (3, 4) for m in range(4, 36))


def _lambda(seed: int) -> str:
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for m in range(21, 36):
            path = os.path.join(tmp, f"H{m}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(colex_segment(m, 3).to_text())
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(["lambda", "--input", path, "--oracle-n", "24", "--seed", str(seed)])
            out.append(f"{code}\n{buf.getvalue()}")
    return "".join(out)


def _random_graph(rng: random.Random, rs: range, n_max: int, e_max: int) -> Hypergraph:
    r = rng.randint(rs.start, rs.stop - 1)
    n = rng.randint(r + 1, n_max)
    pool = list(itertools.combinations(range(1, n + 1), r))
    return Hypergraph(r, rng.sample(pool, rng.randint(1, min(e_max, binom(n, r)))))


def _random2028() -> str:
    rng = random.Random(2028)
    out = []
    for _ in range(1500):
        H = _random_graph(rng, range(2, 5), 7, 10)
        cfg = SolverConfig(starts=rng.choice((8, 20, 50)), seed=rng.randrange(1000))
        out.append(_result_line(maximize(H, cfg)))
    return "".join(out)


def _draws2029():
    # (graph, solver config) as random2029 draws them, none compressed
    rng = random.Random(2029)
    for _ in range(3000):
        H = _random_graph(rng, range(2, 6), 8, 14)
        yield H, SolverConfig(starts=rng.randint(4, 80), seed=rng.randrange(1000))


def _random2029() -> str:
    return "".join(_result_line(maximize(left_compress(H) if i % 3 == 2 else H, cfg))
                   for i, (H, cfg) in enumerate(_draws2029()))


def _compress() -> str:
    return "".join(left_compress(H).to_text() for H, _ in _draws2029())


def main() -> int:
    csv = []
    for seed in SEEDS:
        for name, reports in _verify_parts(seed):
            print(f"{_sha(reports_json_text(reports))}  {name} seed {seed}", flush=True)
            csv.append(f"{_sha(reports_csv_text(reports))}  {name} seed {seed} csv")
    for seed in (0, 1):
        print(f"{_sha(_colex(seed))}  colex r=3,4 m=4..35 seed {seed}", flush=True)
    for seed in SEEDS:
        print(f"{_sha(_lambda(seed))}  lambda --oracle-n 24 m=21..35 seed {seed}", flush=True)
    print(f"{_sha(_random2028())}  random2028", flush=True)
    print(f"{_sha(_random2029())}  random2029", flush=True)
    print("\n".join(csv), flush=True)
    print(f"{_sha(_compress())}  compress random2029 graphs", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
