"""Random and exhaustive instance generation for experiments and tests."""

from __future__ import annotations

import itertools
import math

import numpy as np

from .ambiguity import ANCHOR_REL_TOL, _survivor_codes
from .errors import FprlabError, NoFeasibleSolution
from .hardness import PPInstance, brute_force_pp, construct_hard_instance, enumerate_witnesses, ground_truth_signal
from .signal_core import ComplexSignal, autocorrelation
from .ztransform import ZeroPairing, factor

MIN_EDGE = 0.1
GENERIC_TRIES = 200
PP_LO, PP_HI = 2, 6
SOLVABLE_PP_TRIES = 5000


def random_signal(n: int, rng: np.random.Generator) -> ComplexSignal:
    """Complex Gaussian entries, resampled until both edge moduli clear MIN_EDGE."""
    if n < 1:
        raise ValueError("n must be >= 1")
    while True:
        e = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        if abs(e[0]) >= MIN_EDGE and abs(e[-1]) >= MIN_EDGE:
            return ComplexSignal(e, full_support=True)


def _decisively_unique(pairing: ZeroPairing, x0: complex) -> bool:
    """Exactly one code survives the anchor at 10x ANCHOR_REL_TOL and exactly one at 0.1x it."""
    return all(_survivor_codes(pairing, x0, f * ANCHOR_REL_TOL).size == 1 for f in (10.0, 0.1))


def generic_instance(n: int, rng: np.random.Generator) -> tuple:
    """Draw a signal whose zero pairing is numerically unambiguous.

    Rejects draws with near-unit-circle zeros, near-coincident zeros, or
    an anchor filter that is not decisively unique, for up to
    GENERIC_TRIES draws. Decisively unique means the survivor search keeps
    exactly one code at 10x the accept tolerance ANCHOR_REL_TOL and exactly
    one at 0.1x it, so the second-best residual is not within 10x of the
    accept threshold. Returns (signal, pairing).
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    for _ in range(GENERIC_TRIES):
        x = random_signal(n, rng)
        try:
            pairing = factor(autocorrelation(x))
        except FprlabError:
            continue
        roots = pairing.pairs.ravel().tolist()
        if any(abs(abs(g) - 1.0) < 1e-3 for g in roots):
            continue
        if any(
            abs(a - b) < 1e-3
            for a, b in itertools.combinations(roots, 2)
        ):
            continue
        if _decisively_unique(pairing, complex(x.entries[0])):
            return x, pairing
    raise NoFeasibleSolution(f"no clean draw of length {n} in {GENERIC_TRIES} tries")


def random_solvable_pp(n: int, rng: np.random.Generator, unique_witness: bool = True) -> PPInstance:
    """Random admissible instance that has a solution.

    Draws u_1..u_{N-1} uniformly from [PP_LO, PP_HI], picks a random
    subset as the planted side, and sets u_N to its product over the
    complement when that quotient is an integer >= 2, in up to
    SOLVABLE_PP_TRIES draws. unique_witness additionally requires exactly
    one solution subset.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    for _ in range(SOLVABLE_PP_TRIES):
        rest = [int(rng.integers(PP_LO, PP_HI + 1)) for _ in range(n - 1)]
        if max(rest) < 3:
            continue
        mask = int(rng.integers(0, 1 << (n - 1)))
        top = math.prod(rest[k] for k in range(n - 1) if (mask >> k) & 1)
        bottom = math.prod(rest) // top
        if top % bottom != 0:
            continue
        u_n = top // bottom
        if u_n < 2:
            continue
        inst = PPInstance(tuple(rest) + (u_n,))
        if unique_witness and len(enumerate_witnesses(inst)) != 1:
            continue
        return inst
    raise NoFeasibleSolution(f"no solvable instance of size {n} in {SOLVABLE_PP_TRIES} tries")


def all_pp_instances(n: int, lo: int = PP_LO, hi: int = PP_HI):
    """Every admissible instance with values in [lo, hi], lexicographic order."""
    for u in itertools.product(range(lo, hi + 1), repeat=n):
        if max(u[:-1]) >= 3:
            yield PPInstance(u)


def planted_retrieval(n: int, rng: np.random.Generator):
    """Random solvable hard instance plus its planted solution.

    Returns (hard, signal) where signal is the exact planted solution of
    the unique witness. Sizes stay small so the planted integers remain
    exactly representable in doubles.
    """
    pp = random_solvable_pp(n, rng)
    hard = construct_hard_instance(pp)
    witness = brute_force_pp(pp).witness
    return hard, ground_truth_signal(pp, witness)
