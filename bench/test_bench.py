"""Self-test of the benchmark: a tiny smoke run of every workload shows
each metric of BENCHMARK.json with its unit, and tampered outputs are
caught by the checks.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import random
from fractions import Fraction

import pytest

import run

run.load_package()

import checks  # noqa: E402
import workloads  # noqa: E402
from simplespectrum import matrices, spectrum, structure  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


class TinyLO(workloads.LittlewoodOfford):
    at_least = 1


class TinyReconcile(workloads.Reconcile):
    at_least = 20


TINY = {
    "census": lambda seed: workloads.Census(seed, n=4, sample=8),
    "montecarlo": lambda seed: workloads.MonteCarlo(seed, n=8, batch=2),
    "reconcile": TinyReconcile,
    "littlewood_offord": TinyLO,
}


def run_tiny(monkeypatch, capsys, workload, trace):
    monkeypatch.setattr(workloads, "WORKLOADS", {**workloads.WORKLOADS, **TINY})
    code = run.main(["--workload", workload, "--seed", "3",
                     "--seconds", "0.2", "--trace", str(trace)])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_every_metric_has_a_unit(monkeypatch, capsys, workload, trace):
    code, result = run_tiny(monkeypatch, capsys, workload, trace)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert result["metrics"] == {
        d["name"]: {"value": result["metrics"][d["name"]]["value"], "unit": d["unit"]}
        for d in declared
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name


def test_wrong_census_count_fails_the_run(monkeypatch, capsys):
    monkeypatch.setitem(checks.CENSUS_SNAPSHOT, 4, (64, 31))
    code, result = run_tiny(monkeypatch, capsys, "census", 0)
    assert code != 0 and not result["correct"] and result["failed"] >= 1


def test_corrupted_certificate_fails_the_run(monkeypatch, capsys):
    exact = spectrum.simplicity_exact

    def corrupted(M):
        v = exact(M)
        if v.certificate is None:
            return v
        return spectrum.SimplicityVerdict(v.tag, v.min_gap, (Fraction(7),) + v.certificate[1:])

    monkeypatch.setattr(spectrum, "simplicity_exact", corrupted)
    code, result = run_tiny(monkeypatch, capsys, "census", 0)
    assert code != 0 and not result["correct"]


K3 = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]  # det(xI - K3) = (x - 2)(x + 1)^2


def test_charpoly_and_verdict_checks():
    rng = random.Random(0)
    M = matrices.SymmetricMatrix.from_rows(K3)
    p = spectrum.char_poly(M).coeffs
    assert p == (-2, -3, 0, 1)
    assert checks.char_poly_at_random_x(M.entries, p, rng) == []
    assert checks.char_poly_at_random_x(M.entries, (-2, -3, 1, 1), rng)
    assert checks.verdict(p, False, (Fraction(1), Fraction(1))) == []
    assert checks.verdict(p, False, (Fraction(2), Fraction(1)))
    assert checks.verdict(p, False, None)
    assert checks.verdict(p, True, None)  # simple verdict on a repeated root
    assert checks.verdict((-2, -1, 1), True, None) == []  # (x - 2)(x + 1)


def test_det_matches_a_cofactor_expansion():
    def cofactor(a):
        if len(a) == 1:
            return a[0][0]
        return sum((-1) ** j * a[0][j] * cofactor([r[:j] + r[j + 1:] for r in a[1:]])
                   for j in range(len(a)))

    rng = random.Random(1)
    for n in range(1, 6):
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randint(-3, 3)
        x = rng.randint(-5, 5)
        shifted = [[(x if i == j else 0) - rows[i][j] for j in range(n)] for i in range(n)]
        assert checks.det_x_minus(rows, x) == cofactor(shifted)


def test_small_ball_checks():
    rad = workloads.RAD
    assert checks.small_ball([1, 1, 1, 1], rad.atoms, rad.probs, Fraction(3, 8)) == []
    assert checks.small_ball([1, 1, 1, 1], rad.atoms, rad.probs, Fraction(1, 4))
    assert checks.windowed_exhaustive([1.0, 1.0], rad.atoms, rad.probs, 0.5, 0.5) == []
    assert checks.windowed_exhaustive([1.0, 1.0], rad.atoms, rad.probs, 0.5, 0.25)


def test_tampered_structure_report_is_caught():
    w = workloads.LittlewoodOfford(2)
    key = (0, next(j for j, s in enumerate(w.schedule) if s[0] == "structured"))
    V, (report, ok, proper, members) = w.item(key)
    values, eps = list(V.entries), w.params.eps
    assert checks.structure_report(values, report, eps, ok, members) == []
    assert checks.structure_report(values, report, eps, False, members)
    assert checks.structure_report(values, report, eps, ok, set(members) | {Fraction(1, 997)})
    outside = [v + Fraction(1, 997) if i in report.w_indices else v
               for i, v in enumerate(values)]
    assert checks.structure_report(outside, report, eps, ok, members)
    wide = structure.StructureReport(report.w_indices, report.w_indices, report.p, report.gap)
    assert checks.structure_report(values, wide, eps, ok, members)


def test_reconcile_check():
    assert checks.reconcile([1e-9], 1000) == []
    assert checks.reconcile([1e-9, 1e-9], 1000)
    assert checks.reconcile([1e-3], 1000)
