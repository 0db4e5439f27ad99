"""Span tracing of randcorr's layers, installed from outside the program.

`Tracer.install` wraps every public function of the traced modules and
rebinds the wrapper under each name that refers to the original in any
loaded randcorr module (so `gamma2_bracket` is traced whether norms,
experiments or cli calls it), plus `linprog` as `randcorr.norms` sees it.
A call inside a traced call becomes a child span; a span's self time is its
duration minus its children's.  Spans stay in memory until the run ends.
The program's files are not touched.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time

LAYERS = ("linalg", "sampling", "norms", "spectral", "experiments")
SVD_SPANS = {"linalg.svd", "linalg.singular_values"}
SAMPLER_SPANS = {f"sampling.{name}" for name in (
    "gaussian", "haar_orthogonal", "bi_invariant", "gaussian_product",
    "unit_rows_correlation", "uniform_sphere")}
EXACT = "norms.infty_to_one_exact"
BRACKET = "norms.gamma2_bracket"
ORACLE = "norms.gamma2_oracle"
CLASSICAL_UPPER = "norms.classical_upper_bound"
LP = "norms.lp"
DENSITY = "spectral.density"
THRESHOLD = "spectral.alpha_threshold"
CLI_COMMAND = "cli.command"
CLI_VERIFY = "cli.verify"


class Span:
    __slots__ = ("name", "start", "end", "parent", "round", "request", "size",
                 "child_time")

    def __init__(self, name, start, parent, round_, request, size):
        self.name, self.start, self.end = name, start, start
        self.parent, self.round, self.request, self.size = parent, round_, request, size
        self.child_time = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """Records spans around calls into randcorr's public functions."""

    def __init__(self):
        self.spans: list[Span] = []
        self.report_bytes: dict[int, int] = {}
        self.round = 0
        self._request = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # --- recording -----------------------------------------------------------

    def _open(self, name: str, size=None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, self.round,
                               self._request, size))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_time += span.duration

    def request(self, name: str, fn, *args):
        """Run one request under a root span of the given name."""
        self._request += 1
        idx = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        sized = name == EXACT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            size = len(args[0]) if sized and args else None
            idx = self._open(name, size)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    # --- installation --------------------------------------------------------

    def _rebind(self, original, wrapper, attr: str) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "randcorr" and not mod_name.startswith("randcorr."):
                continue
            if getattr(mod, attr, None) is original:
                self._patches.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def install(self) -> None:
        for layer in LAYERS:
            mod = importlib.import_module(f"randcorr.{layer}")
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                self._rebind(obj, self._wrap(f"{layer}.{attr}", obj), attr)
        norms = importlib.import_module("randcorr.norms")
        self._rebind(norms.linprog, self._wrap(LP, norms.linprog), "linprog")

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    # --- output ---------------------------------------------------------------

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="ascii") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "parent": s.parent,
                    "round": s.round, "request": s.request, "size": s.size,
                    "start": s.start, "end": s.end, "self": s.self_time}))
                fh.write("\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of one round: counts of the (identical) rounds
        and the median over rounds of each time."""
        rounds = sorted({s.round for s in self.spans})
        per_round = [self._round_metrics(r) for r in rounds]
        return {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}

    def _round_metrics(self, round_: int) -> dict[str, float]:
        spans = [s for s in self.spans if s.round == round_]
        names = [s.name for s in self.spans]

        def pick(match):
            return [s for s in spans if match(s.name)]

        def self_s(group):
            return sum(s.self_time for s in group)

        def ratio(a, b):
            return a / b if b else 0.0

        def has_ancestor(span, name):
            while span.parent is not None:
                span = self.spans[span.parent]
                if span.name == name:
                    return True
            return False

        svd = pick(SVD_SPANS.__contains__)
        draws = pick(SAMPLER_SPANS.__contains__)
        exact = pick(EXACT.__eq__)
        brackets = pick(BRACKET.__eq__)
        oracle = pick(ORACLE.__eq__)
        upper = pick(CLASSICAL_UPPER.__eq__)
        lp = pick(LP.__eq__)
        density = pick(DENSITY.__eq__)
        thresholds = pick(THRESHOLD.__eq__)
        sign_vectors = sum(1 << (s.size - 1) for s in exact if s.size)
        svd_in_bracket = sum(1 for s in svd
                             if s.parent is not None and names[s.parent] == BRACKET)
        density_in_threshold = sum(1 for s in density if has_ancestor(s, THRESHOLD))
        return {
            "linalg.svd.calls": len(svd),
            "linalg.svd.self_s": self_s(svd),
            "sampling.draw.calls": len(draws),
            "sampling.draw.self_s": self_s(draws),
            "norms.exact.calls": len(exact),
            "norms.exact.sign_vectors": sign_vectors,
            "norms.exact.self_s": self_s(exact),
            "norms.exact.ns_per_sign_vector": ratio(1e9 * self_s(exact), sign_vectors),
            "norms.gamma2_bracket.calls": len(brackets),
            "norms.gamma2_bracket.self_s": self_s(brackets),
            "norms.gamma2_bracket.svd_per_call": ratio(svd_in_bracket, len(brackets)),
            "norms.gamma2_oracle.calls": len(oracle),
            "norms.gamma2_oracle.self_s": self_s(oracle),
            "norms.classical_upper.calls": len(upper),
            "norms.classical_upper.self_s": self_s(upper),
            "norms.lp.calls": len(lp),
            "norms.lp.self_s": self_s(lp),
            "norms.lp.calls_per_bound": ratio(len(lp), len(upper)),
            "norms.lp.ms_per_call": ratio(1e3 * sum(s.duration for s in lp), len(lp)),
            "spectral.density.calls": len(density),
            "spectral.density.self_s": self_s(density),
            "spectral.density.calls_per_threshold": ratio(density_in_threshold,
                                                          len(thresholds)),
            "experiments.run.self_s": self_s(pick(lambda n: n.startswith("experiments."))),
            "cli.command.self_s": self_s(pick(CLI_COMMAND.__eq__)),
            "cli.verify.self_s": self_s(pick(CLI_VERIFY.__eq__)),
            "cli.report_bytes": self.report_bytes.get(round_, 0),
        }
