"""The four workloads: inputs made from the seed, the timed loop, the
traced loop and the correctness checks that run outside the timed region.

Calls go through the package's modules (`spectrum.char_poly`, not a name
imported from it), so the tracer's wrappers see them.
"""

from __future__ import annotations

import random
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from math import log

import numpy as np

from simplespectrum import dist, gaps, harness, matrices, smallball, spectrum, structure
from simplespectrum.errors import SimpleSpectrumError

import checks
from speed import Clock

RAD = dist.rademacher()
SIGN = matrices.EnsembleSpec(offdiag=RAD, diag=RAD)


@dataclass
class Measured:
    """One pass: items attempted, timed seconds and per-item latencies (both
    in reference seconds, see speed.py), the same time in raw seconds,
    failed items, and what the checks found wrong."""

    items: int = 0
    seconds: float = 0.0
    raw_seconds: float = 0.0
    latencies: list = field(default_factory=list)
    failed: int = 0
    mismatches: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    def check(self, what, problems):
        if problems:
            self.failed += 1
            self.mismatches += [f"{what}: {p}" for p in problems]


def repeat(fn, seconds=None, count=None, at_least=1):
    """Call fn(i) for i = 0, 1, ...: `count` times, or until `seconds` of
    wall time have passed, starting a call only when it is expected to end
    in time and making at least `at_least` calls.  Returns the results."""
    out = []
    start = time.perf_counter()
    while count is None or len(out) < count:
        out.append(fn(len(out)))
        elapsed = time.perf_counter() - start
        if count is None and len(out) >= at_least:
            if elapsed * (len(out) + 1) / len(out) > seconds:
                break
    return out


def check_matrix(m: Measured, what, M, rng, verdict=None) -> bool:
    """Char poly against an independent determinant, and the exact verdict
    against an independent squarefree test or its certificate."""
    cp = spectrum.char_poly(M)
    v = verdict or spectrum.simplicity_exact(M)
    m.check(what, checks.char_poly_at_random_x(M.entries, cp.coeffs, rng)
            + checks.verdict(cp.coeffs, v.is_simple, v.certificate))
    return v.is_simple


class Workload:
    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)  # for the checks' random choices


class HarnessWorkload(Workload):
    """Items run inside harness calls, so latency is the mean per item
    within one call."""

    def scaling_call(self, workers):
        return self.call(0, workers)

    def check_scaling(self, m: Measured, result):
        pass

    def _timed(self, seconds=None, count=None, workers=1):
        """Calls for `seconds`, or `count` calls; returns (Measured with the
        timings, results)."""
        clock = Clock()
        results = repeat(lambda i: clock.measure(self.call, i, workers), seconds, count)
        m = Measured(raw_seconds=sum(clock.raw))
        for d, r in zip(clock.corrected(), results):
            m.items += self.count(r)
            m.seconds += d
            m.latencies.append(d / self.count(r))
        return m, results

    def run(self, seconds) -> Measured:
        m, self.results = self._timed(seconds)
        self.check(m)
        return m

    def trace(self, seconds, tracer):
        """A checked untraced pass, one larger harness call with workers=1
        and with workers=2, then a traced pass over the untraced pass's
        calls; counts must agree across all of them."""
        m = self.run(seconds / 2)
        clock = Clock()
        w1, w2 = (clock.measure(self.scaling_call, workers) for workers in (1, 2))
        w1_s, w2_s = clock.corrected()
        if w1 != w2:
            m.mismatches.append(f"workers=1 gave {w1}, workers=2 gave {w2}")
        self.check_scaling(m, w1)
        with tracer.instrument():
            traced, traced_results = self._timed(count=len(self.results))
        if traced_results != self.results:
            m.mismatches.append("traced calls returned different counts")
        return m, {
            "harness.w1_s": w1_s,
            "harness.w2_s": w2_s,
            "harness.speedup_w2": w1_s / w2_s,
            "trace.overhead_frac": traced.seconds / m.seconds - 1,
        }


class Census(HarnessWorkload):
    """exhaustive_census(n, workers=1) over every graph on n vertices.

    n = 5 (1,024 graphs, about 0.6 s a call) and not n = 6: one n = 6
    census takes 14-19 s on a 2-vCPU VM, longer than the CPU's speed holds
    steady there, so the reference timed before the call (speed.py) could
    not correct it, and a run could time it only once.  The traced run
    times one n = 6 census for the workers=1 / workers=2 comparison.
    """

    def __init__(self, seed: int, n: int = 5, sample: int = 48):
        super().__init__(seed)
        self.n = n
        total = 1 << (n * (n - 1) // 2)
        self.sample = self.rng.sample(range(total), min(sample, total))

    def warmup(self):
        spectrum.simplicity_exact(matrices.graph_from_index(self.n, self.sample[0]))

    def call(self, i, workers=1):
        return harness.exhaustive_census(self.n, workers=workers)

    def scaling_call(self, workers):
        """One census at n + 1 (32,768 graphs at n = 6)."""
        return harness.exhaustive_census(self.n + 1, workers=workers)

    def check_scaling(self, m: Measured, result):
        m.mismatches += checks.census_counts(result.n, result.total, result.simple_count)

    def count(self, result):
        return result.total

    def check(self, m: Measured):
        for r in self.results:
            problems = checks.census_counts(self.n, r.total, r.simple_count)
            if problems:
                m.failed += abs(r.simple_count - checks.CENSUS_SNAPSHOT[self.n][1]) or 1
                m.mismatches += problems
        for index in self.sample:
            check_matrix(m, f"graph {index}", matrices.graph_from_index(self.n, index), self.rng)


class MonteCarlo(HarnessWorkload):
    """monte_carlo_simplicity at size n, workers=1.  Each call runs `batch`
    dense sign trials and `batch` sparse G(n, p) trials, p ~ log n / n."""

    checked_calls = 2

    def __init__(self, seed: int, n: int = 50, batch: int = 1):
        super().__init__(seed)
        self.n, self.batch = n, batch
        p = Fraction(round(100 * log(n) / n), 100)
        gnp = dist.make_distribution([0, 1], [1 - p, p])
        self.specs = (SIGN, matrices.EnsembleSpec(offdiag=gnp, diag=dist.zero_atom()))

    def harness_seed(self, i):
        return int(np.random.SeedSequence([self.seed, i]).generate_state(1)[0])

    def warmup(self):
        harness.monte_carlo_simplicity(self.specs[0], self.n, 1, self.harness_seed(0))

    def call(self, i, workers=1, trials=None):
        """`trials` (default `batch`) of each ensemble on call i's seed."""
        s = self.harness_seed(i)
        return tuple(
            harness.monte_carlo_simplicity(spec, self.n, trials or self.batch, s, workers=workers)
            for spec in self.specs
        )

    def scaling_call(self, workers):
        return self.call(0, workers, trials=4)  # enough trials for two workers to share

    def count(self, result):
        return sum(r.trials for r in result)

    def check(self, m: Measured):
        """Every trial of the first calls, re-derived from its (seed, trial)
        stream and verified, must give the harness's non-simple count."""
        for i, summaries in enumerate(self.results[:self.checked_calls]):
            s = self.harness_seed(i)
            for spec, summary in zip(self.specs, summaries):
                nonsimple = sum(
                    not check_matrix(m, f"call {i} trial {t}", self.matrix(spec, s, t), self.rng)
                    for t in range(self.batch))
                if nonsimple != summary.successes:
                    m.failed += abs(nonsimple - summary.successes)
                    m.mismatches.append(f"call {i}: harness counted {summary.successes} "
                                        f"non-simple, checks {nonsimple}")

    def matrix(self, spec, harness_seed, t):
        return matrices.sample_matrix(spec, self.n, matrices.trial_rng(harness_seed, t))


class ItemWorkload(Workload):
    """Items the benchmark drives one at a time, each timed on its own."""

    at_least = 1

    def warmup(self):
        self.item(self.unit(0)[0])

    def _pass(self, seconds=None, count=None, tracer=None):
        m = Measured()
        clock = Clock()
        outcomes = []

        def attempt(key):
            try:
                with tracer.item() if tracer else nullcontext():
                    return self.item(key, tracer)
            except Exception as exc:  # an item that raises is a failed item
                m.failed += 1
                m.errors.append(f"{key}: {type(exc).__name__}: {exc}")
                if not isinstance(exc, SimpleSpectrumError):
                    m.mismatches.append(traceback.format_exc())
                return None

        def run_unit(u):
            outcomes.extend((key, clock.measure(attempt, key)) for key in self.unit(u))

        units = len(repeat(run_unit, seconds, count, self.at_least))
        m.items = len(outcomes)
        m.latencies = clock.corrected()
        m.seconds, m.raw_seconds = sum(m.latencies), sum(clock.raw)
        return m, outcomes, units

    def check_all(self, m, outcomes):
        for key, out in outcomes:
            if out is not None:
                self.check(m, key, out)

    def run(self, seconds) -> Measured:
        m, outcomes, _ = self._pass(seconds)
        self.check_all(m, outcomes)
        return m

    def trace(self, seconds, tracer):
        """A checked untraced pass, then a traced pass over the same items
        that must return the same outputs."""
        m, outcomes, units = self._pass(seconds / 2)
        self.check_all(m, outcomes)
        with tracer.instrument():
            traced, traced_outcomes, _ = self._pass(count=units, tracer=tracer)
        if traced_outcomes != outcomes:
            m.mismatches.append("traced pass returned different outputs")
        return m, {"trace.overhead_frac": traced.seconds / m.seconds - 1}


class Reconcile(ItemWorkload):
    """Criterion-7 sweep: sample_matrix (sign, n) -> simplicity_exact ->
    simplicity_numeric.  The exact verdict wins on disagreement."""

    at_least = 100
    sampled = 16  # leading trials whose char poly is checked too

    def __init__(self, seed: int, n: int = 10):
        super().__init__(seed)
        self.n = n

    def unit(self, u):
        return [u]

    def matrix(self, t):
        return matrices.sample_matrix(SIGN, self.n, matrices.trial_rng(self.seed, t))

    def item(self, t, tracer=None):
        M = self.matrix(t)
        exact = spectrum.simplicity_exact(M)
        numeric = spectrum.simplicity_numeric(M)
        if tracer and exact.is_simple != numeric.is_simple:
            tracer.counts["spectrum.disagree"] += 1
        return exact, numeric

    def check(self, m, t, out):
        exact, numeric = out
        if exact.is_simple != numeric.is_simple:
            self.disagreements.append(numeric.min_gap)
        if t < self.sampled or not exact.is_simple:
            check_matrix(m, f"trial {t}", self.matrix(t), self.rng, exact)

    def check_all(self, m, outcomes):
        self.disagreements = []
        super().check_all(m, outcomes)
        m.check("reconcile", checks.reconcile(self.disagreements, len(outcomes)))


def _lo_schedule():
    """11 float vectors, 14 generic exact vectors of length 12 and 9
    structured exact vectors (rank, length), interleaved: 34 items."""
    # Floats of length <= 18 take the exhaustive path (2^n <= 2^20) and
    # those of length >= 21 the sampled one; lengths 19 and 20 alone would
    # take 1.8 s, more than the rest of a cycle.  Refinement at rank 2
    # and length > 24 has a slow tail of seconds.
    floats = [12, 13, 14, 15, 16, 17, 18, 21, 22, 23, 24]
    structured = [(1, 16), (2, 16), (1, 20), (2, 19), (1, 24), (2, 22), (1, 28), (2, 24), (1, 32)]
    schedule = []
    for j in range(14):
        schedule += [("float", floats[j])] if j < len(floats) else []
        schedule.append(("generic", 12))
        schedule += [("structured",) + structured[j]] if j < len(structured) else []
    return tuple(schedule)


LO_SCHEDULE = _lo_schedule()


class LittlewoodOfford(ItemWorkload):
    """Vectors only.  A cycle is a fixed schedule of 34 items, so every run
    has the same mix of kinds and lengths; the seed sets the values."""

    at_least = 3
    params = structure.StructureParams(A=2.0, eps=0.2, d0=3, C0=Fraction(100))
    float_A = 1.0
    delta = 1e-3
    schedule = LO_SCHEDULE

    def unit(self, u):
        return [(u, j) for j in range(len(self.schedule))]

    def vector(self, key):
        kind, *arg = self.schedule[key[1]]
        rng = np.random.default_rng([self.seed, *key])
        if kind == "float":
            v = rng.standard_normal(arg[0])
            return smallball.WeightVector.numeric(v / np.linalg.norm(v))
        if kind == "generic":
            a, b = rng.integers(-9, 10, arg[0]), rng.integers(1, 5, arg[0])
            return smallball.WeightVector.exact([Fraction(int(x), int(y)) for x, y in zip(a, b)])
        rank, n = arg
        g1 = Fraction(int(rng.integers(1, 10)), int(rng.integers(1, 6)))
        if rank == 1:
            return smallball.WeightVector.exact([g1 * int(k) for k in rng.choice([-2, -1, 1, 2], n)])
        g2 = Fraction(int(rng.choice([97, 101, 103, 107])), int(rng.integers(1, 4)))
        a, b = rng.integers(-1, 2, n), rng.choice([-1, 1], n)
        return smallball.WeightVector.exact([g1 * int(x) + g2 * int(y) for x, y in zip(a, b)])

    def item(self, key, tracer=None):
        kind = self.schedule[key[1]][0]
        V = self.vector(key)
        n = len(V)
        if kind == "float":
            rng = np.random.default_rng([self.seed, *key, 1])
            return V, smallball.is_rich(V, RAD, self.float_A, n, delta=self.delta, rng=rng)
        if kind == "generic":
            return V, smallball.small_ball_exact(V, RAD).p
        smallball.is_rich(V, RAD, self.params.A, n)
        report = structure.refine_structure(V, RAD, self.params)
        verified = structure.verify_report(V, RAD, self.params, report)
        proper = gaps.is_proper(report.gap, self.params.enum_cap)
        members = gaps.member_set(report.gap, self.params.enum_cap)
        return V, (report, verified.ok, proper, members)

    def check(self, m, key, out):
        kind = self.schedule[key[1]][0]
        V, result = out
        values = list(V.entries)
        if kind == "float":
            rich, p = result
            problems = [] if rich == (p >= len(V) ** -self.float_A) else ["richness verdict"]
            if len(V) <= 16:
                problems += checks.windowed_exhaustive(
                    values, RAD.atoms, RAD.probs, self.delta, p)
            m.check(f"{key} float", problems)
        elif kind == "generic":
            m.check(f"{key} generic", checks.small_ball(values, RAD.atoms, RAD.probs, result))
        else:
            report, ok, proper, members = result
            problems = checks.structure_report(values, report, self.params.eps, ok, members)
            m.check(f"{key} structured", problems + ([] if proper else ["GAP not proper"]))


WORKLOADS = {
    "census": Census,
    "montecarlo": MonteCarlo,
    "reconcile": Reconcile,
    "littlewood_offord": LittlewoodOfford,
}
