"""Concentration probabilities of weighted sums of random signs.

p(V) is the largest point mass of sum_i xi_i v_i for i.i.d. signs xi.
Structured weights concentrate (all-ones hits 0 with probability ~n^-1/2);
spread-out weights do not (distinct powers of two give the minimal 2^-n).
A vector is "rich" when p(V) >= n^-A; eigenvectors of random matrices are
almost never rich, which is the engine behind simple spectra.
"""

from simplespectrum import (
    WeightVector,
    is_rich,
    rademacher,
    small_ball_exact,
    small_ball_windowed,
)

RAD = rademacher()


def main() -> None:
    print("exact concentration probabilities (Rademacher signs):")
    for label, values in [
        ("all ones, n=4 ", [1, 1, 1, 1]),
        ("all ones, n=12", [1] * 12),
        ("all ones, n=64", [1] * 64),  # C(64, 32) / 2^64; masses pass 2^63
        ("powers of two ", [1, 2, 4, 8]),
        ("arithmetic    ", [1, 2, 3, 4, 5]),
    ]:
        res = small_ball_exact(WeightVector.exact(values), RAD)
        print(f"  {label}: p = {res.p}  (attained at sum = {res.attaining_atom})")

    print("\nwindowed mode for irrational weights (delta = 1e-9):")
    import math

    res = small_ball_windowed(
        WeightVector.numeric([1.0, math.sqrt(2), math.pi]), RAD, delta=1e-9
    )
    print(f"  (1, sqrt2, pi): p = {res.p}  [{res.mode}]")

    print("\nrichness at threshold n^-A, A = 1:")
    for label, values in [("all ones", [1] * 8), ("powers of two", [2**i for i in range(8)])]:
        rich, p = is_rich(WeightVector.exact(values), RAD, A=1.0, n=8)
        print(f"  {label}: p = {p}, rich = {rich}")


if __name__ == "__main__":
    main()
