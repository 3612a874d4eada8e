"""Exhaustive agreement check between retrieval decisions and brute force.

Sweeps every admissible product-partition instance in the given size and
value range, decides each one through the anchored retrieval pipeline
(enumeration oracle as the inner solver), and cross-checks against
brute_force_pp's exact subset search; the wall column times the
retrieval decisions, the brute column the brute-force references. Also reports how fast the exact integers in the
construction grow, which is the whole point: the instance data stays
polynomial-sized in bits while any linear-in-N sampling scheme has to
cope with anchor values like u_max^(N-1).
"""

import argparse
import time

from fprlab.generate import all_pp_instances
from fprlab.hardness import PPAnswer, brute_force_pp, decide_pp
from fprlab.solvers import oracle_solve


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", default="3,4,5")
    ap.add_argument("--lo", type=int, default=2)
    ap.add_argument("--hi", type=int, default=6)
    args = ap.parse_args()

    sizes = [int(s) for s in args.sizes.split(",")]
    total = 0
    mismatches = 0
    print(f"{'n':>3}  {'instances':>9}  {'positive':>8}  {'max anchor':>12}  {'wall':>7}  {'brute':>7}")
    for n in sizes:
        wall = 0.0  # decide_pp only
        brute = 0.0  # brute_force_pp only
        count = 0
        pos = 0
        max_anchor = 0
        for pp in all_pp_instances(n, args.lo, args.hi):
            t0 = time.perf_counter()
            want = brute_force_pp(pp).answer
            t1 = time.perf_counter()
            got = decide_pp(pp, oracle_solve).answer
            wall += time.perf_counter() - t1
            brute += t1 - t0
            mismatches += got is not want
            pos += got is PPAnswer.HAS_SOLUTION
            count += 1
            max_anchor = max(max_anchor, pp.u_max ** (pp.n - 1))
        total += count
        print(f"{n:>3}  {count:>9}  {pos:>8}  {max_anchor:>12}  {wall:>6.2f}s  {brute:>6.2f}s")
    verdict = "all agree" if mismatches == 0 else f"{mismatches} MISMATCHES"
    print(f"\n{total} instances checked against brute force: {verdict}")


if __name__ == "__main__":
    main()
