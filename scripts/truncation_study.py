#!/usr/bin/env python3
"""Truncation-window study for the free monoid on two letters.

Compares level-1 norms of random algebra elements under the windowed regular
representation and under the boundary compressions at eventually periodic
characters, across a range of window depths. Output is evidence, not
certification. On this one-object monoid every ϑ_χ window equals the λ window,
so each printed gap is 0 by construction (see `truncation_norm_study`).
"""

import argparse

import numpy as np

from catenv.fixtures import fix_free2
from catenv.hull import InverseHull
from catenv.ideals import boundary_sample
from catenv.pipeline import truncation_norm_study


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--elements", type=int, default=12)
    ap.add_argument("--min-depth", type=int, default=3)
    ap.add_argument("--max-depth", type=int, default=7)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    pres = fix_free2()
    hull = InverseHull(pres)
    chars = boundary_sample(pres, count=3)
    rng = np.random.default_rng(args.seed)
    words = [pres.identity("*")] + [pres.word(w) for w in
                                    ("a", "b", "ab", "ba", "aab", "bba")]
    combos = []
    for _ in range(args.elements):
        support = rng.choice(len(words), size=3, replace=False)
        coeffs = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        combos.append([(complex(c), words[i]) for c, i in zip(coeffs, support)])

    depths = list(range(args.min_depth, args.max_depth + 1))
    gaps = truncation_norm_study(pres, hull, chars, combos, depths)
    print(f"{'depth':>6} {'max|λ-norm − ⊕ϑ-norm|':>24}")
    for depth in depths:
        print(f"{depth:>6} {gaps[depth]:>24.3e}")
    print("status: bounded-evidence (window comparison only)")


if __name__ == "__main__":
    main()
