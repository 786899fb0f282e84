"""Per-layer tracing of hylag from outside the package.

Tracer.install() replaces each traced public function with a wrapper, in
its own module and in every hylag module that imported it by name (such as
``from .lagrangian import maximize`` in verifier and cli), so calls
between layers are seen too.  Each call becomes a span (name, start, end,
parent); spans stay in memory and are aggregated into per-layer metrics by
Tracer.metrics().  uninstall() puts the original functions back.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from dataclasses import dataclass

from hylag import cli, hypergraph, lagrangian, verifier
from hylag.hypergraph import binom
from hylag.lagrangian import SizeError, SolverConfig

# (module, function) pairs whose calls are traced, named "<module>.<function>".
# hylag.reductions and hylag.suites are on no workload's path and are left out.
LAYERS = (
    (hypergraph, "colex_segment"),
    (lagrangian, "evaluate"),
    (lagrangian, "kkt_residual"),
    (lagrangian, "maximize"),
    (lagrangian, "grid_oracle"),
    (verifier, "enumerate_left_compressed"),
    (verifier, "verify_conjecture"),
    (verifier, "reports_json_text"),
    (cli, "main"),
)


@dataclass
class Span:
    name: str
    parent: "Span | None"
    start: float = 0.0
    end: float = 0.0
    child_s: float = 0.0  # time covered by direct child spans

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []
        self._solver_value: dict = {}  # hypergraph -> exact value maximize returned
        self.counts = {
            "maximize.work": 0,
            "grid_oracle.points": 0,
            "grid_oracle.skipped": 0,
            "grid_oracle.upgrades": 0,
            "grid_oracle.skipped_s": 0.0,
            "enumerate.time_s": 0.0,
            "enumerate.candidates": 0,
            "reports_json_text.bytes": 0,
        }

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        hylag_modules = [m for n, m in sys.modules.items() if n == "hylag" or n.startswith("hylag.")]
        for module, fname in LAYERS:
            orig = getattr(module, fname)
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{fname}"
            wrapper = self._wrap(name, orig)
            for mod in hylag_modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._restore):
            setattr(mod, attr, orig)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        if name == "verifier.enumerate_left_compressed":
            return self._wrap_generator(fn)
        after = {
            "lagrangian.maximize": self._after_maximize,
            "lagrangian.grid_oracle": self._after_grid_oracle,
            "verifier.reports_json_text": self._after_reports_json_text,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else None)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except SizeError:
                if name == "lagrangian.grid_oracle":
                    self.counts["grid_oracle.skipped"] += 1
                    self.counts["grid_oracle.skipped_s"] += time.perf_counter() - span.start
                raise
            finally:
                self._close(span)
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.duration
        self.spans.append(span)

    def _wrap_generator(self, fn):
        # the work of a generator happens in next(), interleaved with its
        # consumer, so only the time inside next() is counted
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)

            def timed():
                while True:
                    t0 = time.perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        counts["enumerate.time_s"] += time.perf_counter() - t0
                        return
                    counts["enumerate.time_s"] += time.perf_counter() - t0
                    counts["enumerate.candidates"] += 1
                    yield item

            return timed()

        return wrapper

    # -- per-layer counters --------------------------------------------------

    def _after_maximize(self, args, kwargs, res) -> None:
        H = args[0] if args else kwargs["H"]
        cfg = (args[1] if len(args) > 1 else kwargs.get("cfg")) or SolverConfig()
        self.counts["maximize.work"] += cfg.starts * len(H) * H.r
        self._solver_value[H] = res.value_exact

    def _after_grid_oracle(self, args, kwargs, res) -> None:
        H = args[0] if args else kwargs["H"]
        N = args[1] if len(args) > 1 else kwargs["N"]
        if len(H):
            k = len(H.support)
            self.counts["grid_oracle.points"] += binom(N + k - 1, k - 1)
        solver = self._solver_value.get(H)
        if solver is not None and res.value_exact > solver:
            self.counts["grid_oracle.upgrades"] += 1

    def _after_reports_json_text(self, args, kwargs, text) -> None:
        self.counts["reports_json_text.bytes"] += len(text.encode("utf-8"))

    # -- aggregation -----------------------------------------------------------

    def _durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def _self_s(self, name: str) -> float:
        return sum(s.duration - s.child_s for s in self.spans if s.name == name)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics over every span recorded so far."""
        c = self.counts
        out: dict[str, float] = {}

        mx = self._durations("lagrangian.maximize")
        mx_time = sum(mx)
        slowest = sorted(mx, reverse=True)[: math.ceil(len(mx) / 10)]
        out["lagrangian.maximize.calls"] = len(mx)
        out["lagrangian.maximize.time_s"] = mx_time
        out["lagrangian.maximize.self_s"] = self._self_s("lagrangian.maximize")
        out["lagrangian.maximize.work"] = c["maximize.work"]
        out["lagrangian.maximize.us_per_work"] = _ratio(mx_time * 1e6, c["maximize.work"])
        out["lagrangian.maximize.slow_share"] = _ratio(sum(slowest), mx_time)

        go = self._durations("lagrangian.grid_oracle")
        out["lagrangian.grid_oracle.calls"] = len(go)
        out["lagrangian.grid_oracle.time_s"] = sum(go)
        out["lagrangian.grid_oracle.points"] = c["grid_oracle.points"]
        out["lagrangian.grid_oracle.ns_per_point"] = _ratio(
            (sum(go) - c["grid_oracle.skipped_s"]) * 1e9, c["grid_oracle.points"])
        out["lagrangian.grid_oracle.skipped"] = c["grid_oracle.skipped"]

        for name in ("lagrangian.kkt_residual", "lagrangian.evaluate"):
            d = self._durations(name)
            out[f"{name}.calls"] = len(d)
            out[f"{name}.time_s"] = sum(d)

        vc = self._durations("verifier.verify_conjecture")
        out["verifier.verify_conjecture.calls"] = len(vc)
        out["verifier.verify_conjecture.time_s"] = sum(vc)
        out["verifier.verify_conjecture.max_s"] = max(vc, default=0.0)
        out["verifier.enumerate_left_compressed.time_s"] = c["enumerate.time_s"]
        out["verifier.enumerate_left_compressed.candidates"] = c["enumerate.candidates"]
        out["verifier.oracle_upgrade_share"] = _ratio(c["grid_oracle.upgrades"], len(go))
        out["verifier.reports_json_text.time_s"] = sum(self._durations("verifier.reports_json_text"))
        out["verifier.reports_json_text.bytes"] = c["reports_json_text.bytes"]

        out["hypergraph.colex_segment.time_s"] = sum(self._durations("hypergraph.colex_segment"))

        out["cli.main.calls"] = len(self._durations("cli.main"))
        out["cli.main.self_s"] = self._self_s("cli.main")
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
