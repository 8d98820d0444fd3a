"""Empirical strong- and weak-type envelopes over a random corpus.

Generates a deterministic corpus, estimates the largest observed ratio
||M_alpha a||_q / ||a||_p and the grid-sup weak-type ratio, and prints
the per-alpha maxima with the corpus parameters that attained them.

The strong-type ratio takes ||M_alpha a||_q on a finite window around the
support (harness.strong_type_ratio), so it is a lower bound for the ratio
over all of Z, and a loose one as p -> 1.
"""

import argparse

from varseq.harness import CorpusSpec, estimate_strong_type, estimate_weak_type


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7, help="corpus seed")
    parser.add_argument("--count", type=int, default=40, help="corpus size")
    args = parser.parse_args(argv)

    for alpha in (0.0, 0.25, 0.5):
        spec = CorpusSpec(args.seed, args.count, 48, "uniform01", "lh-decay", (alpha,))
        lo, hi = spec.resolved_bounds()
        strong = estimate_strong_type(spec, alpha)
        weak = estimate_weak_type(spec, alpha)
        print(f"alpha = {alpha} (exponent range [{lo}, {hi:.3f}]):")
        print(f"  strong type: max windowed ||M_alpha a||_q / ||a||_p (a lower bound)"
              f" = {strong.empirical_constant:.6f}"
              f" over {strong.cases} items, failures = {strong.failures}")
        print(f"  worst case: {strong.worst_case}")
        print(f"  weak type:  max_t t ||chi||_q / ||a||_p = {weak.empirical_constant:.6f}"
              f" over {weak.cases} items, failures = {weak.failures}")


if __name__ == "__main__":
    main()
