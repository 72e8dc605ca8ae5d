"""Command-line interface.

Subcommands: census, montecarlo, richness, check-simple, conc-prob,
gap-cover, refine.  Records are emitted as newline-delimited JSON or CSV
with a header row; exit code 0 on success, 2 on contract errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from . import dist, gaps, harness, matrices, smallball, spectrum, structure
from .errors import SimpleSpectrumError
from .rationals import format_rational, parse_rational


def _emit(records: list[dict], out_format: str):
    if out_format == "csv":
        if not records:
            return
        keys = list(records[0].keys())
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=keys)
        writer.writeheader()
        for rec in records:
            writer.writerow({k: json.dumps(v) if isinstance(v, (dict, list)) else v
                             for k, v in rec.items()})
        sys.stdout.write(buf.getvalue())
    else:
        for rec in records:
            sys.stdout.write(json.dumps(rec) + "\n")


@contextmanager
def _reading(what: str, source: str):
    """Re-raise a malformed or unreadable input as a contract error naming
    it: a missing file, bad JSON, a missing key or an unparseable rational."""
    try:
        yield
    except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        raise SimpleSpectrumError(
            f"cannot read {what} {source!r}: {type(exc).__name__}: {exc}"
        ) from exc


def _load_matrix(path: str) -> matrices.SymmetricMatrix:
    with _reading("matrix", path):
        text = Path(path).read_text()
        stripped = text.lstrip()
        if stripped.startswith("{"):
            return matrices.SymmetricMatrix.from_json(json.loads(text))
        return matrices.SymmetricMatrix.from_text(text)


def _load_vector(path: str) -> list[Fraction]:
    with _reading("vector", path):
        obj = json.loads(Path(path).read_text())
        if isinstance(obj, dict):
            obj = obj["entries"]
        return [parse_rational(x) for x in obj]


def _load_dist(path: str) -> dist.AtomicDistribution:
    with _reading("distribution", path):
        return dist.AtomicDistribution.from_json(Path(path).read_text())


def _ensemble(name: str) -> matrices.EnsembleSpec:
    if name == "gnp":
        return matrices.EnsembleSpec(dist.bernoulli_half(), dist.zero_atom())
    if name == "sign":
        return matrices.EnsembleSpec(dist.rademacher(), dist.rademacher())
    raise SimpleSpectrumError(f"unknown ensemble {name!r}")


def _summary_record(kind: str, s: harness.ExperimentSummary, **extra) -> dict:
    rec = {
        "kind": kind,
        "trials": s.trials,
        "successes": s.successes,
        "point_estimate": s.point_estimate,
        "wilson_lo": s.wilson_ci_95[0],
        "wilson_hi": s.wilson_ci_95[1],
        "seed": s.seed,
        "wall_time": s.wall_time,
    }
    rec.update(extra)
    return rec


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="simplespectrum",
        description="Exact and empirical verification of spectral simplicity "
        "for discrete random symmetric matrices.",
    )
    ap.add_argument("--out", choices=["json", "csv"], default="json")
    ap.add_argument("--threads", type=int, default=1, metavar="N")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("census", help="exhaustive graph census")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("montecarlo", help="Monte Carlo simplicity estimate")
    p.add_argument("--ensemble", choices=["gnp", "sign"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("richness", help="rich-eigenvector frequency")
    p.add_argument("--ensemble", choices=["gnp", "sign"], default="sign")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--A", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("check-simple", help="exact simplicity of a matrix file")
    p.add_argument("--matrix", required=True)

    p = sub.add_parser("conc-prob", help="exact concentration probability")
    p.add_argument("--vector", required=True)
    p.add_argument("--dist", required=True)

    p = sub.add_parser("gap-cover", help="covering-GAP search for a vector")
    p.add_argument("--vector", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument(
        "--rmax", type=int, default=2,
        help="largest GAP rank (default 2); the search builds ranks 1 and 2, "
        "so 1 tries rank 1 only and any larger value tries both",
    )
    p.add_argument("--volmax", type=int, default=10**4)

    p = sub.add_parser("refine", help="inverse Littlewood-Offord refinement")
    p.add_argument("--vector", required=True)
    p.add_argument("--dist", required=True)
    p.add_argument("--A", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--d0", type=int, default=3)
    p.add_argument("--C0", type=str, default="10")
    return ap


def run(args) -> list[dict]:
    if args.threads < 1:
        raise SimpleSpectrumError(f"--threads must be >= 1, not {args.threads}")
    if args.command == "census":
        c = harness.exhaustive_census(args.n, workers=args.threads)
        return [{
            "kind": "census",
            "n": c.n,
            "total": c.total,
            "simple": c.simple_count,
            "nonsimple": c.nonsimple_count,
            "simple_fraction": c.simple_fraction,
        }]
    if args.command == "montecarlo":
        s = harness.monte_carlo_simplicity(
            _ensemble(args.ensemble), args.n, args.trials, args.seed,
            workers=args.threads,
        )
        return [_summary_record("montecarlo", s, n=args.n, ensemble=args.ensemble)]
    if args.command == "richness":
        s = harness.rich_eigenvector_frequency(
            _ensemble(args.ensemble), args.n, args.A, args.delta,
            args.trials, args.seed, workers=args.threads,
        )
        return [_summary_record("richness", s, n=args.n, A=args.A,
                                delta=args.delta)]
    if args.command == "check-simple":
        M = _load_matrix(args.matrix)
        v = spectrum.simplicity_exact(M)
        rec = {"kind": "check-simple", "n": M.n, "tag": v.tag,
               "simple": v.is_simple}
        if v.certificate is not None:
            rec["certificate"] = [format_rational(c) for c in v.certificate]
        return [rec]
    if args.command == "conc-prob":
        V = smallball.WeightVector.exact(_load_vector(args.vector))
        d = _load_dist(args.dist)
        res = smallball.small_ball_exact(V, d)
        return [{
            "p": format_rational(res.p),
            "atom": format_rational(res.attaining_atom),
            "mode": res.mode,
        }]
    if args.command == "gap-cover":
        if args.rmax < 1:
            raise SimpleSpectrumError(f"--rmax must be >= 1, not {args.rmax}")
        V = smallball.WeightVector.exact(_load_vector(args.vector))
        caps = (args.volmax, args.volmax if args.rmax >= 2 else 0)
        g = structure.find_covering_gap(V, args.m, vol_max=caps)
        if g is None:
            return [{"kind": "gap-cover", "found": False}]
        return [{"kind": "gap-cover", "found": True, "gap": g.to_json(),
                 "volume": gaps.volume(g)}]
    if args.command == "refine":
        V = smallball.WeightVector.exact(_load_vector(args.vector))
        d = _load_dist(args.dist)
        with _reading("--C0", args.C0):
            C0 = parse_rational(args.C0)
        params = structure.StructureParams(A=args.A, eps=args.eps, d0=args.d0, C0=C0)
        report = structure.refine_structure(V, d, params)
        rec = report.to_json()
        rec["kind"] = "refine"
        return [rec]
    raise SimpleSpectrumError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        records = run(args)
    except SimpleSpectrumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(records, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
