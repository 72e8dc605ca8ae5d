"""Seeded, parallel Monte Carlo estimates of the non-simple fraction.

Random symmetric sign matrices and random graph adjacency matrices almost
always have simple spectrum once n grows; repeated eigenvalues are a
small-n phenomenon.  Per-trial derived seeds make every estimate
reproducible and independent of the worker count.

Sparse graphs are the exception: at p = c ln n / n, Luh and Vu's regime,
isolated vertices and twin vertices force repeated eigenvalues 0 and -1,
and the twin witness (repeated_by_twins) proves most such draws with no
char poly.
"""

from fractions import Fraction
from math import log

from simplespectrum import (
    EnsembleSpec,
    bernoulli_half,
    make_distribution,
    monte_carlo_simplicity,
    rademacher,
    repeated_by_twins,
    rich_eigenvector_frequency,
    sample_matrix,
    trial_rng,
    zero_atom,
)

GNP = EnsembleSpec(offdiag=bernoulli_half(), diag=zero_atom())
SIGN = EnsembleSpec(offdiag=rademacher(), diag=rademacher())


def main() -> None:
    print("non-simple fraction, random graphs G(n, 1/2), 2000 trials each:")
    print(f"{'n':>3} {'non-simple':>11} {'estimate':>9}  95% Wilson interval")
    for n in (4, 6, 8, 10, 12, 16):
        s = monte_carlo_simplicity(GNP, n, trials=2000, seed=42, workers=4)
        lo, hi = s.wilson_ci_95
        print(f"{n:>3} {s.successes:>11} {s.point_estimate:>9.4f}  [{lo:.4f}, {hi:.4f}]")

    s1 = monte_carlo_simplicity(SIGN, 8, trials=500, seed=7, workers=1)
    s4 = monte_carlo_simplicity(SIGN, 8, trials=500, seed=7, workers=4)
    print(f"\nworker invariance (sign matrices, n=8): {s1 == s4}")

    n, trials, seed = 50, 200, 11
    print(f"\nLuh-Vu sweep, G({n}, p), p = c ln n / n, {trials} trials each:")
    print(f"{'c':>4} {'p':>7} {'non-simple':>11} {'by twins':>9}")
    for c in (0.5, 1, 2):
        p = Fraction(round(1000 * c * log(n) / n), 1000)
        spec = EnsembleSpec(offdiag=make_distribution([0, 1], [1 - p, p]), diag=zero_atom())
        s = monte_carlo_simplicity(spec, n, trials=trials, seed=seed)
        twins = sum(repeated_by_twins(sample_matrix(spec, n, trial_rng(seed, t)))
                    for t in range(trials))
        print(f"{c:>4} {str(p):>7} {s.successes:>11} {twins:>9}")

    print("\nfrequency of matrices with a rich eigenvector (p >= n^-2):")
    for n in (4, 8):
        s = rich_eigenvector_frequency(SIGN, n, A=2.0, delta=1e-9, trials=100, seed=3)
        print(f"  n={n}: {s.successes}/{s.trials}")


if __name__ == "__main__":
    main()
