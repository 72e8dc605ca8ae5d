"""Spans recorded from outside the package, and the per-layer metrics
derived from them.

`Tracer.instrument` replaces the public functions of each layer with
wrappers, in every package module that binds them, so calls the package
makes internally are recorded too.  A span is (name, start, end, parent,
item): times in perf_counter nanoseconds, parent the index of the
enclosing span or -1, item the id of the workload item it belongs to.
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager

# span name -> (module, public function).  `dist`, `rationals`, `errors`
# and `cli` do no per-item work of their own, so they are not layers.
LAYER_FUNCTIONS = {
    "matrices.graph": ("matrices", "graph_from_index"),
    "matrices.sample": ("matrices", "sample_matrix"),
    "spectrum.exact": ("spectrum", "simplicity_exact"),
    "spectrum.char_poly": ("spectrum", "char_poly"),
    "spectrum.numeric": ("spectrum", "simplicity_numeric"),
    "spectrum.eigen": ("spectrum", "eigen_decompose"),
    "polys.screen": ("polys", "poly_gcd_mod"),
    "polys.gcd_int": ("polys", "gcd_int"),
    "smallball.exact": ("smallball", "small_ball_exact"),
    "smallball.windowed": ("smallball", "small_ball_windowed"),
    "smallball.is_rich": ("smallball", "is_rich"),
    "gaps.is_proper": ("gaps", "is_proper"),
    "gaps.member_set": ("gaps", "member_set"),
    "structure.cover": ("structure", "covering_gap_with_indices"),
    "structure.refine": ("structure", "refine_structure"),
    "structure.verify": ("structure", "verify_report"),
    "harness.census": ("harness", "exhaustive_census"),
    "harness.montecarlo": ("harness", "monte_carlo_simplicity"),
}

# Calls that begin a new item when the harness drives the item loop.
ITEM_STARTS = ("matrices.graph", "matrices.sample")


class Tracer:
    """In-memory span store with the counters recorded beside the spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.charpolys: set = set()
        self.residual_max = 0.0
        self.item_id = -1
        self._in_item = False
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.item_id])
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx][2] = time.perf_counter_ns()

    @contextmanager
    def item(self):
        """Span of one benchmark-driven item; calls inside it share its id."""
        self.item_id += 1
        self._in_item = True
        try:
            with self.span("item"):
                yield
        finally:
            self._in_item = False

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in ITEM_STARTS and not self._in_item:
                self.item_id += 1  # the harness drives the item loop
            self.counts[name] += 1
            with self.span(name):
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    self.counts[f"{name}:{type(exc).__name__}"] += 1
                    raise
            self._record_outcome(name, result)
            return result

        return wrapper

    def _record_outcome(self, name: str, result):
        """Count what a call returned, so ratios are measured where the
        work happens."""
        if name == "spectrum.char_poly":
            self.charpolys.add(result.coeffs)
        elif name == "spectrum.eigen":
            self.residual_max = max(self.residual_max, result.residual)
        elif name == "polys.screen" and len(result) == 1:
            self.counts["polys.screen_hit"] += 1
        elif name == "smallball.windowed" and result.mode == "windowed":
            self.counts["smallball.windowed_exhaustive"] += 1
        elif name == "smallball.is_rich" and result[0]:
            self.counts["smallball.rich"] += 1
        elif name == "structure.verify" and result.ok:
            self.counts["structure.verified"] += 1

    @contextmanager
    def instrument(self, package: str = "simplespectrum"):
        """Wrap every layer function wherever a package module binds it;
        the originals are back in place when the block ends."""
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == package]
        replaced = []
        for name, (mod, attr) in LAYER_FUNCTIONS.items():
            original = getattr(sys.modules[f"{package}.{mod}"], attr)
            wrapped = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)
                        replaced.append((m, key, original))
        try:
            yield self
        finally:
            for m, key, original in replaced:
                setattr(m, key, original)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "item"],
                       "spans": self.spans}, fh)

    # ---- metrics -------------------------------------------------------

    def durations(self) -> tuple[dict, dict]:
        """Self time in seconds summed per span name, and each name's list
        of per-call (inclusive) times."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: Counter = Counter()
        calls: dict[str, list[float]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += (end - start - child[i]) / 1e9
            calls.setdefault(name, []).append((end - start) / 1e9)
        return self_s, calls

    def layer_shares(self) -> dict[str, float]:
        """Self time of each layer (and of the benchmark's own "item" glue)
        as a share of the root spans' time."""
        self_s, _ = self.durations()
        shares: Counter = Counter()
        for name, seconds in self_s.items():
            shares[name.split(".")[0]] += seconds
        root = self.root_seconds() or 1.0
        return {k: v / root for k, v in sorted(shares.items())}

    def root_seconds(self) -> float:
        return sum((e - s) / 1e9 for _, s, e, p, _ in self.spans if p < 0)

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric that spans and counters give; 0 where the
        workload never calls the layer."""
        self_s, calls = self.durations()
        root = self.root_seconds() or 1.0
        c = self.counts

        def ms(name):
            xs = calls.get(name)
            return statistics.median(xs) * 1e3 if xs else 0.0

        def total(name):
            return sum(calls.get(name, ()))

        def ratio(num, den):
            return c[num] / c[den] if c[den] else 0.0

        layer_self = sum(v for k, v in self_s.items() if k.startswith("matrices."))
        return {
            "matrices.graph_ms": ms("matrices.graph"),
            "matrices.sample_ms": ms("matrices.sample"),
            "matrices.share": layer_self / root,
            "spectrum.char_poly_ms": ms("spectrum.char_poly"),
            "spectrum.char_poly_share": total("spectrum.char_poly") / root,
            "spectrum.exact_ms": ms("spectrum.exact"),
            "spectrum.distinct_charpoly_ratio": (
                len(self.charpolys) / c["spectrum.char_poly"]
                if c["spectrum.char_poly"] else 0.0
            ),
            "spectrum.eigen_ms": ms("spectrum.eigen"),
            "spectrum.eigen_share": total("spectrum.eigen") / root,
            "spectrum.numeric_ms": ms("spectrum.numeric"),
            "spectrum.residual_max": self.residual_max,
            "spectrum.disagree_ratio": ratio("spectrum.disagree", "spectrum.numeric"),
            "spectrum.convergence_errors": c["spectrum.eigen:ConvergenceError"],
            "polys.screen_ms": ms("polys.screen"),
            "polys.screen_hit_ratio": ratio("polys.screen_hit", "polys.screen"),
            "polys.gcd_int_ms": ms("polys.gcd_int"),
            "polys.gcd_int_calls": c["polys.gcd_int"],
            "smallball.exact_ms": ms("smallball.exact"),
            "smallball.windowed_ms": ms("smallball.windowed"),
            "smallball.windowed_exhaustive_ratio": ratio(
                "smallball.windowed_exhaustive", "smallball.windowed"
            ),
            "smallball.rich_ratio": ratio("smallball.rich", "smallball.is_rich"),
            "gaps.is_proper_ms": ms("gaps.is_proper"),
            "gaps.member_set_ms": ms("gaps.member_set"),
            "structure.cover_ms": ms("structure.cover"),
            "structure.refine_ms": ms("structure.refine"),
            "structure.verify_ms": ms("structure.verify"),
            "structure.verified_ratio": ratio("structure.verified", "structure.verify"),
            "structure.budget_exhausted": c["structure.refine:SearchBudgetError"],
            "harness.overhead_frac": (
                sum(v for k, v in self_s.items() if k.startswith("harness."))
                / sum(total(k) for k in calls if k.startswith("harness."))
                if any(k.startswith("harness.") for k in calls) else 0.0
            ),
        }
