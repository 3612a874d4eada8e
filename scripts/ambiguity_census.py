"""Count how many genuinely different signals share one intensity.

For each size the script draws generic instances, expands every root
selection, and tallies raw selections against canonical classes (phase
and conjugate reflection quotiented out). The last column shows the
survivor count once the leading entry is pinned.
"""

import argparse

import numpy as np

from fprlab.ambiguity import anchored_solutions, distinct_canonical, enumerate_solutions
from fprlab.generate import generic_instance


def census_row(n, draws, rng):
    raw = set()
    classes = set()
    anchored = set()
    for _ in range(draws):
        x, pairing = generic_instance(n, rng)
        sols = enumerate_solutions(pairing)
        raw.add(len(sols.codes))
        classes.add(len(distinct_canonical(sols.signals())))
        kept = anchored_solutions(pairing, complex(x.entries[0]))
        anchored.add(len(kept.codes))
    return raw, classes, anchored


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", default="2,3,4,5,6,7")
    ap.add_argument("--draws", type=int, default=12)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    sizes = [int(s) for s in args.sizes.split(",")]
    print(f"{'n':>3}  {'selections':>10}  {'classes':>8}  {'anchored':>8}")
    for n in sizes:
        raw, classes, anchored = census_row(n, args.draws, rng)
        fmt = lambda s: ",".join(str(v) for v in sorted(s))
        print(f"{n:>3}  {fmt(raw):>10}  {fmt(classes):>8}  {fmt(anchored):>8}")
    print()
    print("expected: selections 2^(n-1), classes 2^(n-2), anchored 1")


if __name__ == "__main__":
    main()
