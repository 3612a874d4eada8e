"""decide_sweep: every admissible product-partition instance, decided by retrieval.

All instances with N = 3..5 and values 2..6 (3860 of them), in an order
shuffled by the seed. One item is ``decide_pp(pp, oracle_solve)``; the
solver argument is a wrapper that times and counts each oracle call, so
the package itself is not patched. At p <= 4 pairs per call the per-call
overhead of ``ambiguity`` and the oracle matters, not the per-selection
cost; the sweep makes 248 duplicate-pair removals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fprlab.generate import all_pp_instances
from fprlab.hardness import PPAnswer, PPDecision, PPInstance, brute_force_pp, decide_pp
from fprlab.solvers import oracle_solve

SIZES = (3, 4, 5)
LO, HI = 2, 6
WARMUP_ITEMS = 20


@dataclass(frozen=True)
class Item:
    pp: PPInstance
    reference: PPDecision


class Workload:
    unit_count = None  # throughput counts decisions

    def __init__(self, seed: int, tracer):
        self.tracer = tracer
        self.rounds = 0
        pps = [pp for n in SIZES for pp in all_pp_instances(n, LO, HI)]
        with tracer.span("hardness.brute_force_pp"):
            refs = [brute_force_pp(pp) for pp in pps]
        order = np.random.default_rng((seed, 2)).permutation(len(pps))
        self.items = [Item(pps[i], refs[i]) for i in order]
        for item in self.items[:WARMUP_ITEMS]:
            self.run(item)

    def _solver(self, inst, cfg):
        self.rounds += 1
        with self.tracer.span("solvers.oracle_solve"):
            return oracle_solve(inst, cfg)

    def run(self, item: Item):
        self.rounds = 0
        with self.tracer.span("hardness.decide_pp"):
            decision = decide_pp(item.pp, self._solver)
        return decision, self.rounds

    def check(self, item: Item, out):
        """Same answer as brute force; removed pairs hold equal values; a
        returned witness, plus one index of each removed pair, satisfies
        the product identity exactly."""
        u = item.pp.u
        if isinstance(out, Exception):
            return False, f"{u}:{type(out).__name__}", {}
        decision, rounds = out
        ok = decision.answer is item.reference.answer
        ok = ok and all(u[a - 1] == u[b - 1] for a, b in decision.removed_pairs)
        witness = decision.witness
        if witness is not None:
            side = witness | {a for a, _ in decision.removed_pairs}
            left = math.prod(u[k - 1] for k in side)
            right = u[-1] * math.prod(u[k - 1] for k in range(1, len(u)) if k not in side)
            ok = ok and decision.answer is PPAnswer.HAS_SOLUTION and left == right
        shown = sorted(witness) if witness is not None else None
        record = f"{u}:{decision.answer.value}:{shown}:{list(decision.removed_pairs)}:{rounds}"
        counts = {
            "hardness.rounds": rounds,
            "hardness.removed_pairs": len(decision.removed_pairs),
            "solvers.oracle_solve.calls": rounds,
        }
        return ok, record, counts
