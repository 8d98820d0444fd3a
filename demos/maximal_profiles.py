"""Profiles of the fractional maximal operator on integer sequences.

Evaluates M_alpha for the unit point mass against its closed form
(|n| + 1)^(alpha - 1), sweeps alpha on a small block, and shows how
superlevel sets grow as the threshold drops.
"""

import argparse

from varseq.lattice import Sequence, ZInterval
from varseq.maximal import MaximalEvaluator


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--radius", type=int, default=6, help="profile radius around 0")
    args = parser.parse_args(argv)

    delta = Sequence(0, [1.0])
    window = ZInterval(-args.radius, args.radius)
    print("unit point mass, M_alpha delta(n) = (|n| + 1)^(alpha - 1):")
    for alpha in (0.0, 0.25, 0.5):
        prof = MaximalEvaluator(delta, alpha).profile(window)
        closed = [(abs(n) + 1.0) ** (alpha - 1.0) for n in range(window.lo, window.hi + 1)]
        worst = max(abs(g - w) for g, w in zip(prof, closed))
        row = " ".join(f"{v:.4f}" for v in prof)
        print(f"  alpha = {alpha}: [{row}]  max deviation from closed form = {worst:.2e}")

    block = Sequence(1, [1.0] * 16)
    print("\nindicator of [1, 16], values of M_alpha at n = 0 (just outside):")
    for alpha in (0.0, 0.25, 0.5):
        ev = MaximalEvaluator(block, alpha)
        print(f"  alpha = {alpha}: M_alpha(0) = {ev.point(0):.6f}"
              f"  (best interval [0, 16]: 17^(alpha - 1) * 16)")

    print("\nsuperlevel sets {M_0 delta > s} (closed form: [-m, m], m = ceil(1/s) - 2):")
    ev = MaximalEvaluator(delta, 0.0)
    for s in (0.9, 0.5, 0.21, 0.11):
        runs = ev.superlevel(s)
        print(f"  s = {s}: {[(r.lo, r.hi) for r in runs]}")


if __name__ == "__main__":
    main()
