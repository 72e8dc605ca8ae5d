"""Structure of vectors with large concentration probability.

A symmetric generalized arithmetic progression (GAP) is the set of sums
sum m_i g_i over an integer box |m_i| <= M_i.  Vectors whose weighted-sign
sums concentrate are mostly covered by low-rank, low-volume GAPs; the
refinement pipeline finds such a cover, certifies it, and an independent
verifier re-checks every claim from scratch.
"""

from fractions import Fraction

from simplespectrum import (
    Gap,
    StructureParams,
    WeightVector,
    covering_gap_with_indices,
    full_rank_reduce,
    rademacher,
    refine_structure,
    verify_report,
    volume,
)


def main() -> None:
    print("covering GAPs:")
    V = WeightVector.exact([1, 2, 3, 4, 5, 100])
    g, _ = covering_gap_with_indices(V, m=1)
    print(f"  values {[str(v) for v in V.entries]} with one outlier allowed:")
    print(
        f"    generators {[str(x) for x in g.generators]}, "
        f"dims {[str(x) for x in g.dims]}, volume {volume(g)}"
    )

    print("\nfull-rank reduction drops generators that cannot matter:")
    P_I = Gap((Fraction(1), Fraction(10**6)), (Fraction(3), Fraction(3)))
    P = Gap((Fraction(1),), (Fraction(3),))
    reduced = full_rank_reduce(P_I, P)
    print(f"    rank {P_I.rank} -> {reduced.rank}, volume {volume(P_I)} -> {volume(reduced)}")
    print("    (the intersection with the target GAP is preserved exactly)")

    print("\nrefinement pipeline on the all-ones vector, n = 16:")
    params = StructureParams(A=1.0, eps=0.2, d0=3, C0=Fraction(10))
    V16 = WeightVector.exact([1] * 16)
    report = refine_structure(V16, rademacher(), params)
    print(f"    concentration probability p = {report.p} ~ {float(report.p):.4f}")
    print(
        f"    covering GAP: generators {[str(x) for x in report.gap.generators]}, "
        f"dims {[str(x) for x in report.gap.dims]}"
    )
    print(f"    covered indices: {len(report.w_indices)} of 16, "
          f"exceptional set size {len(report.wprime_indices)}")
    check = verify_report(V16, rademacher(), params, report)
    print(f"    independent verification: {'ok' if check.ok else check.failed}")


if __name__ == "__main__":
    main()
