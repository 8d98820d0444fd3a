"""Walkthrough of modulars and Luxemburg norms on variable-exponent spaces.

Runs a handful of small computations and prints what each one shows:
the closed form at constant exponent, the unit-modular identity, the
two-regime sandwich between norm and modular, and homogeneity.
"""

from varseq.exponent import ExponentFunction
from varseq.lattice import Sequence
from varseq.norm import check_norm_modular_relations, check_scaling_bounds, luxemburg_norm, modular


def main():
    a = Sequence(0, [3.0, 4.0])
    p2 = ExponentFunction.constant(2.0)
    nv = luxemburg_norm(a, p2)
    print("constant exponent p = 2 on (3, 4):")
    print(f"  norm = {nv.value:.12f}  (closed form sqrt(3^2 + 4^2) = 5)")
    print(f"  bisection iterations = {nv.iterations}, achieved modular = {nv.achieved_modular:.12f}")

    # exponent 1 on the left half, 3 on the right, 2.5 at infinity
    p = ExponentFunction(-2, [1.0, 1.0, 2.0, 3.0, 3.0], 2.5)
    b = Sequence(-2, [0.5, 1.25, 0.8, 0.3, 1.1])
    nb = luxemburg_norm(b, p)
    unit = modular(b.scaled(1.0 / nb.value), p)
    print("\nvariable exponent p(n) in {1, 2, 3} on five points:")
    print(f"  norm = {nb.value:.12f}")
    print(f"  modular of a/norm = {unit:.12f}  (equals 1 for nontrivial a)")

    print("\nnorm-modular sandwich in both regimes:")
    for target in (0.5, 2.0):
        scaled = b.scaled(target / nb.value)
        rep = check_norm_modular_relations(scaled, p)
        side = "modular <= norm" if rep.norm <= 1.0 else "norm <= modular side"
        print(f"  scaled to norm {target}: modular = {rep.modular_value:.6f}, ok = {rep.ok} ({side})")

    print("\nhomogeneity and modular scaling bounds at lambda = 2.7:")
    rep = check_scaling_bounds(b, p, 2.7)
    print(f"  lambda^p_- rho(a) <= rho(lambda a) <= lambda^p_+ rho(a):"
          f" {rep.modular_lower:.6f} <= {rep.modular_value:.6f} <= {rep.modular_upper:.6f}")
    print(f"  norm ratio ||2.7 a|| / ||a|| = {rep.norm_ratio:.12f}")


if __name__ == "__main__":
    main()
