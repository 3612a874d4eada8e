"""Product-partition instances embedded into phase retrieval.

A multiset u_1..u_N of integers >= 2 asks whether some subset of the
first N-1 values has product u_N times the product of the rest. The
embedding plants the zero pairs (-u_k, -1/u_k) with anchor u_max^(N-1)
and top lag |x(0)|^2 * u_N, so that anchored solutions of the retrieval
instance correspond exactly to solution subsets. Reading a near-solution
back off is a root membership test with provable margins, which is what
``discriminate`` and ``decide_pp`` implement.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import starmap

import numpy as np

from .errors import (
    BudgetExceeded,
    HypothesisViolated,
    InvalidWitness,
    NoFeasibleSolution,
    OverflowBeyondPrecision,
    SolverFailure,
)
from .signal_core import ComplexSignal, _integer
from .solvers import PRInstance, SolverConfig
from .ztransform import ZeroPairing, eval_ztransform

BOTH_ROOTS_CAP = 0.25
SELECT_MARGIN = 0.75
BRUTE_FORCE_BUDGET = 26


class PPAnswer(Enum):
    HAS_SOLUTION = "has_solution"
    NO_SOLUTION = "no_solution"


class Verdict(Enum):
    SELECT_GAMMA = "select_gamma"
    SELECT_RECIP = "select_recip"
    BOTH_ROOTS = "both_roots"


@dataclass(frozen=True, eq=False)
class PPInstance:
    """Values u_1..u_N, all integers >= 2, with max(u_1..u_{N-1}) >= 3.

    Instances whose first N-1 values are all 2 are rejected; squaring
    every value yields an equivalent instance that is admissible.
    """

    u: tuple

    def __post_init__(self):
        u = tuple(self.u)  # the same object for a tuple; an iterator is read once
        try:
            vals = tuple(map(operator.index, u))
        except TypeError:  # name the first value that is not an integer
            vals = [_integer(v, "values must be integers") for v in u]
        if len(vals) < 2:
            raise ValueError("need at least two values")
        if min(vals) < 2:
            raise ValueError("all values must be >= 2")
        if max(vals[:-1]) < 3:
            raise ValueError(
                "max(u_1..u_{N-1}) must be >= 3; square all values to rescale"
            )
        object.__setattr__(self, "u", tuple(vals))

    @property
    def n(self) -> int:
        return len(self.u)

    @property
    def u_max(self) -> int:
        return max(self.u[:-1])


@dataclass(frozen=True, eq=False)
class PPDecision:
    """Outcome of a decision procedure.

    witness holds original 1-based indices into u_1..u_{N-1} when one is
    known; removed_pairs lists index pairs eliminated by the duplicate
    rule, each of which contributes one index to either side.
    """

    answer: PPAnswer
    witness: frozenset | None = None
    removed_pairs: tuple = ()


@dataclass(frozen=True, eq=False)
class HardInstance:
    """Constructed float retrieval instance plus its exact integers:
    anchor_exact = u_max^(N-1) and scale_exact = anchor_exact^2 * u_N."""

    pp: PPInstance
    pr: PRInstance

    @property
    def anchor_exact(self) -> int:
        return self.pp.u_max ** (self.pp.n - 1)

    @property
    def scale_exact(self) -> int:
        return self.anchor_exact ** 2 * self.pp.u[-1]


@dataclass(frozen=True, eq=False)
class DiscriminationResult:
    """The two measured root magnitudes of one value and the verdict
    discriminate reads off them."""

    mag_gamma: float
    mag_recip: float

    @property
    def verdict(self) -> Verdict:
        return _verdict(self.mag_gamma, self.mag_recip)


def _verdict(a: float, b: float) -> Verdict:
    """The verdict on measured magnitudes a = |X_m(gamma)|, b = |X_m(gamma_recip)|."""
    if max(a, b) <= BOTH_ROOTS_CAP:
        return Verdict.BOTH_ROOTS
    if b >= a + SELECT_MARGIN:
        return Verdict.SELECT_GAMMA
    return Verdict.SELECT_RECIP


@dataclass(frozen=True, eq=False)
class ClauseCheck:
    """Margin bookkeeping for one index of the separation estimate."""

    k: int
    double_root: bool
    mag_beta: float
    mag_recip: float
    margin: float

    @property
    def passed(self) -> bool:
        return self.margin >= 0.0


@dataclass(frozen=True, eq=False)
class LemmaBoundsReport:
    c0: float
    cap: float
    checks: tuple

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _identity_sides(pp: PPInstance, gamma) -> tuple:
    """Sides of the product identity: (prod of u over gamma, u_N * prod over the rest of 1..N-1)."""
    top = math.prod(pp.u[k - 1] for k in gamma)
    rest = math.prod(pp.u[k - 1] for k in range(1, pp.n) if k not in gamma)
    return top, pp.u[-1] * rest


def _witnesses(pp: PPInstance):
    """Solution subsets in increasing integer encoding (bit k-1 is index k).

    A subset solves when prod_Gamma^2 == u_N * prod(u_1..u_{N-1}), so only
    when that right side is a perfect square S^2, and then exactly the
    subsets with product S. These are met in the middle (Horowitz & Sahni
    1974), in exact integers: the products of every subset of the low
    h = p // 2 values and of the high ones, built by doubling, and for each
    high code in ascending order the low codes, ascending, whose product
    is S divided by the high product. O(2^(p/2)) products in all;
    reference.witnesses_by_scan is the division-free scan of all 2^p.
    """
    if pp.n > BRUTE_FORCE_BUDGET:
        raise BudgetExceeded(f"N={pp.n} exceeds brute-force budget {BRUTE_FORCE_BUDGET}")
    rest = pp.u[:-1]
    square = pp.u[-1] * math.prod(rest)
    s = math.isqrt(square)
    if s * s != square:
        return
    h = len(rest) // 2
    low_codes: dict = {}
    for code, prod in enumerate(_subset_products(rest[:h])):
        low_codes.setdefault(prod, []).append(code)
    for high, prod in enumerate(_subset_products(rest[h:])):
        quot, rem = divmod(s, prod)
        if rem == 0 and quot in low_codes:
            top = [k + 1 for k in range(h, len(rest)) if (high >> (k - h)) & 1]
            for low in low_codes[quot]:
                yield frozenset([k + 1 for k in range(h) if (low >> k) & 1] + top)


def _subset_products(values) -> list:
    """The product of every subset of values, indexed by its code (bit k is values[k])."""
    prods = [1]
    for v in values:
        prods += [q * v for q in prods]
    return prods


def brute_force_pp(pp: PPInstance) -> PPDecision:
    """Exhaustive reference decision: the first witness in encoding order."""
    witness = next(_witnesses(pp), None)
    answer = PPAnswer.NO_SOLUTION if witness is None else PPAnswer.HAS_SOLUTION
    return PPDecision(answer, witness, ())


def enumerate_witnesses(pp: PPInstance) -> list:
    """Every solution subset, in increasing integer encoding."""
    return list(_witnesses(pp))


def _embedding(values, u_last: int, u_max: int) -> PRInstance:
    """Float retrieval instance planting values as zero pairs (-u, -1/u).

    With N = len(values) + 1: anchor u_max^(N-1) and top lag
    anchor^2 * u_last. Refuses once u_max^(2N) exceeds 2^52 (below it the
    planted values, the anchor and its square are exact in doubles, so the
    top lag is rounded at most once) or when the top lag has no double.
    An instance it builds has a real pairing with positive scale and roots
    -u, -1/u for u >= 2, so its spectrum can always be sampled.
    The instance is built without samples: an oracle round never reads
    them, since the oracle samples them only when its trace's loss is read.
    """
    n = len(values) + 1
    if u_max ** (2 * n) > 2 ** 52:
        raise OverflowBeyondPrecision(
            f"u_max^(2N) = {u_max}^{2 * n} exceeds 2^52; below it the planted values, the anchor"
            " and its square are exact in doubles, and the top lag anchor^2 * u_N is rounded at most once"
        )
    anchor = float(u_max ** (n - 1))
    try:
        top = anchor ** 2 * u_last
    except OverflowError:  # u_last has no double
        top = math.inf
    if top == math.inf:
        raise OverflowBeyondPrecision(f"the top lag anchor^2 * u_N leaves double range (u_N has {u_last.bit_length()} bits)")
    return PRInstance(ZeroPairing(top, _planted_pairs(values)), anchor)


def _planted_pairs(values) -> tuple:
    """The float zero pair (-u, -1/u) planted for each value u."""
    return tuple((-float(v), -1.0 / v) for v in values)


def _readout(xm: ComplexSignal, pairs) -> list:
    """(|X_m(-u)|, |X_m(-1/u)|) for each row (-u, -1/u) of the (p, 2) planted pairs, in one evaluation."""
    return [(abs(a), abs(b)) for a, b in eval_ztransform(xm, pairs).tolist()]


def construct_hard_instance(pp: PPInstance) -> HardInstance:
    """Embed a product-partition instance as a retrieval instance.

    anchor = u_max^(N-1) and top lag |anchor|^2 * u_N, zero pairs
    (-u_k, -1/u_k) for k = 1..N-1, built by _embedding and so refused
    with OverflowBeyondPrecision past u_max^(2N) > 2^52. The exact
    integers are properties of the result.
    """
    return HardInstance(pp, _embedding(pp.u[:-1], pp.u[-1], pp.u_max))


def _check_witness(pp: PPInstance, gamma_set) -> frozenset:
    gamma = frozenset(int(k) for k in gamma_set)
    p = pp.n - 1
    if not gamma <= frozenset(range(1, p + 1)):
        raise InvalidWitness(f"indices must lie in 1..{p}")
    left, right = _identity_sides(pp, gamma)
    if left != right:
        raise InvalidWitness(f"product identity fails: {left} != {right}")
    return gamma


def ground_truth_exact(pp: PPInstance, gamma_set) -> tuple:
    """Entries of the planted solution as exact Fractions.

    x(0) = u_max^(N-1) and the remaining entries expand
    x(0) * prod (z - beta_k) with beta_k = -u_k on the witness side and
    -1/u_k off it. When prod of the off-side values divides x(0) the
    entries are verified integral; otherwise they stay rational.
    """
    return _planted_entries(pp, _check_witness(pp, gamma_set))


def _planted_entries(pp: PPInstance, gamma: frozenset) -> tuple:
    """ground_truth_exact for a witness that _check_witness has passed."""
    p = pp.n - 1
    betas = [
        Fraction(-pp.u[k - 1]) if k in gamma else Fraction(-1, pp.u[k - 1])
        for k in range(1, p + 1)
    ]
    anchor = pp.u_max ** (pp.n - 1)
    coeffs = [Fraction(anchor)]
    for b in betas:
        nxt = coeffs + [Fraction(0)]
        for i, c in enumerate(coeffs):
            nxt[i + 1] -= b * c
        coeffs = nxt
    off_product = math.prod(pp.u[k - 1] for k in range(1, p + 1) if k not in gamma)
    if anchor % off_product == 0:
        if any(c.denominator != 1 for c in coeffs):
            raise AssertionError("entries should be integral when the off product divides the anchor")
    return tuple(coeffs)


def ground_truth_signal(pp: PPInstance, gamma_set) -> ComplexSignal:
    """Float view of ground_truth_exact; exact while entries stay dyadic."""
    exact = ground_truth_exact(pp, gamma_set)
    return ComplexSignal(np.array([float(c) for c in exact], dtype=np.complex128), full_support=True)


def _separation(u_max, n) -> float:
    """The lemma's scale u_max^(-N), with u_max and n read as integers and u_max >= 2 (ValueError otherwise)."""
    u_max = _integer(u_max, "u_max must be an integer")
    if u_max < 2:
        raise ValueError("thresholds require u_max >= 2 and u_max^(-N) <= 1/4")
    return float(u_max) ** (-_integer(n, "n must be an integer"))


def discrimination_constant(u_max: int, n: int) -> float:
    """Guaranteed gap 1 - 2 * u_max^(-N) between the two root magnitudes.

    u_max and n must be integers and u_max >= 2, else ValueError.
    """
    return 1.0 - 2.0 * _separation(u_max, n)


def discriminate(xm: ComplexSignal, uk: int, u_max: int, n: int) -> DiscriminationResult:
    """Classify one value against a near-solution by root membership.

    Measures a = |X_m(-u_k)| and b = |X_m(-1/u_k)|. Both at most 1/4 means
    both roots are present (a duplicate value split across the sides);
    b >= a + 3/4 selects the gamma side; anything else selects the
    reciprocal side. The constant thresholds are valid whenever
    u_max^(-N) <= 1/4, which the admission rule guarantees. u_k, u_max
    and n must be integers with u_k >= 2 and u_max >= 2, else ValueError.
    """
    uk = _integer(uk, "u_k must be an integer")
    u_max = _integer(u_max, "u_max must be an integer")
    if uk < 2:
        raise ValueError("values are >= 2")
    if _separation(u_max, n) > BOTH_ROOTS_CAP:
        raise ValueError("thresholds require u_max >= 2 and u_max^(-N) <= 1/4")
    return DiscriminationResult(*_readout(xm, _planted_pairs((uk,)))[0])


def check_lemma_bounds(pp: PPInstance, gamma_set, perturbation: ComplexSignal) -> LemmaBoundsReport:
    """Measure the separation margins on a perturbed planted solution.

    With ||perturbation|| <= u_max^(-2N), every index k must satisfy
    either |X_m(1/beta_k)| >= |X_m(beta_k)| + c0 with
    c0 = 1 - 2 u_max^(-N) (reciprocal not a root), or, when both roots
    are present, max of both <= u_max^(-N). Both are read at the planted
    pair (-u_k, -1/u_k); a positive margin means the clause holds.

    The check runs in doubles, where from some N on a perturbation of
    norm u_max^(-2N) lies below the last bit of every entry. A nonzero
    perturbation that leaves every perturbed entry bitwise the planted
    one raises OverflowBeyondPrecision, naming N and u_max^(-2N), rather
    than report on the unperturbed signal. A zero perturbation is checked
    as given.
    """
    gamma = _check_witness(pp, gamma_set)
    n = pp.n
    u_max = pp.u_max
    if perturbation.n != n:
        raise ValueError("perturbation length must match the instance")
    hyp = float(u_max) ** (-2 * n)
    delta = perturbation.entries
    size = float(np.linalg.norm(delta))
    if size > hyp * (1.0 + 1e-12):
        raise HypothesisViolated(f"||perturbation|| = {size:.3e} exceeds u_max^(-2N) = {hyp:.3e}")
    planted = np.array([float(c) for c in _planted_entries(pp, gamma)])
    entries = planted + delta
    if delta.any() and np.array_equal(entries, planted):
        raise OverflowBeyondPrecision(
            f"at N={n} the perturbation (norm {size:.3e}, within u_max^(-2N) = {hyp:.3e}) leaves every"
            " entry bitwise unchanged: doubles cannot carry it"
        )
    xm = ComplexSignal(entries)
    c0 = discrimination_constant(u_max, n)
    cap = _separation(u_max, n)
    sides = {(uk, k in gamma) for k, uk in enumerate(pp.u[:-1], 1)}
    checks = []
    for k, (uk, (a, b)) in enumerate(zip(pp.u, _readout(xm, _planted_pairs(pp.u[:-1]))), 1):
        double = (uk, k not in gamma) in sides
        mag_beta, mag_recip = (a, b) if k in gamma else (b, a)
        margin = cap - max(mag_beta, mag_recip) if double else mag_recip - mag_beta - c0
        checks.append(ClauseCheck(k, double, mag_beta, mag_recip, float(margin)))
    return LemmaBoundsReport(c0, cap, tuple(checks))


def reduction_iteration_budget(n: int, u_max: int) -> int:
    """Iteration allowance 100 * n^2 * ceil(log2(u_max + 2)) for reduction runs."""
    return 100 * n * n * math.ceil(math.log2(u_max + 2))


@functools.lru_cache(maxsize=64)
def _round_config(n: int, u_max: int) -> SolverConfig:
    """decide_pp's default solver config for a round of size n, built once
    per (n, u_max): SolverConfig is frozen, so rounds can share it."""
    return SolverConfig(max_iters=reduction_iteration_budget(n, u_max), seed=0)


def decide_pp(
    pp: PPInstance,
    solver,
    cfg: SolverConfig | None = None,
) -> PPDecision:
    """Decide a product-partition instance through retrieval plus readout.

    Each round plants the surviving values of u_1..u_{N-1}, runs the
    solver to a near-solution, reads all root memberships in one pass
    and takes the verdicts in turn. The first both-roots verdict removes
    that index and the first other survivor of equal value (one lies on
    each side of any solution) and starts the next round; with no equal
    survivor it certifies that a solution exists. A clean round checks
    the product identity exactly for the gamma-side indices plus one
    index of each removed pair and, if it holds, returns the gamma side
    as witness. NoFeasibleSolution from the solver, running out of
    survivors and a failed identity all mean no solution. The anchor
    keeps the admission-time u_max through removals, so shrunken rounds
    stay well-posed even when the largest value was removed. Every round
    is built by _embedding, so an instance past u_max^(2N) > 2^52 raises
    OverflowBeyondPrecision, as construct_hard_instance does.
    """
    u_max = pp.u_max
    survivors = list(range(1, pp.n))
    removed: list = []
    while survivors:
        n_cur = len(survivors) + 1
        values = [pp.u[k - 1] for k in survivors]
        inst = _embedding(values, pp.u[-1], u_max)
        run_cfg = cfg or _round_config(n_cur, u_max)
        try:
            trace = solver(inst, run_cfg)
        except NoFeasibleSolution:
            break
        if not trace.iterates:
            raise SolverFailure("solver returned no iterate")
        xm = trace.iterates[-1]
        gamma = set()
        # the round's pairing holds the planted pairs of its values, in order
        for pos, verdict in enumerate(starmap(_verdict, _readout(xm, inst.pairing.pairs))):
            if verdict is Verdict.BOTH_ROOTS:
                break
            if verdict is Verdict.SELECT_GAMMA:
                gamma.add(survivors[pos])
        else:
            # a removed pair holds equal values, one per side: they cancel
            top, bottom = _identity_sides(pp, gamma | {k for k, _ in removed})
            if top != bottom:
                break
            return PPDecision(PPAnswer.HAS_SOLUTION, frozenset(gamma), tuple(removed))
        dup = next((i for i, v in enumerate(values) if v == values[pos] and i != pos), None)
        if dup is None:
            return PPDecision(PPAnswer.HAS_SOLUTION, None, tuple(removed))
        removed.append(tuple(sorted((survivors[pos], survivors[dup]))))
        survivors = [k for i, k in enumerate(survivors) if i not in (pos, dup)]
    return PPDecision(PPAnswer.NO_SOLUTION, None, tuple(removed))
