"""Enumeration and normalization of intensity-equivalent signals.

All 2^(N-1) root selections of a pairing share one Fourier intensity.
Modding out global phase, translation and conjugate reflection leaves
2^(N-2) genuinely different signals; an anchor value x(0) cuts the set
down further, generically to a single survivor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    EnumerationBudgetExceeded,
    NoFeasibleSolution,
    ZeroAnchor,
    ZeroSignal,
)
from .signal_core import ComplexSignal
from .ztransform import RootSelection, ZeroPairing, signal_from_selection

ENUM_BUDGET_PAIRS = 24
ANCHOR_REL_TOL = 1e-6
CANON_DECIMALS = 9
RESIDUAL_BLOCK_BITS = 12


@dataclass(frozen=True, eq=False)
class SolutionSet:
    """Signals sharing one intensity, tagged by their choice vectors."""

    pairing: ZeroPairing
    solutions: tuple

    def __post_init__(self):
        object.__setattr__(self, "solutions", tuple(self.solutions))

    def signals(self) -> list:
        return [sig for _, sig in self.solutions]


def _check_budget(pairing: ZeroPairing) -> int:
    p = pairing.n_pairs
    if p > ENUM_BUDGET_PAIRS:
        raise EnumerationBudgetExceeded(f"{p} pairs exceed the {ENUM_BUDGET_PAIRS}-pair budget")
    return p


def _choice_blocks(pairing: ZeroPairing):
    """Yield (lo, betas) for the choice-vector codes in blocks of
    2^RESIDUAL_BLOCK_BITS; row i of betas holds the roots code lo + i picks."""
    p = pairing.n_pairs
    gh = np.array(pairing.pairs, dtype=np.complex128).reshape(p, 2)
    total = 1 << p
    for lo in range(0, total, 1 << RESIDUAL_BLOCK_BITS):
        v = np.arange(lo, min(lo + (1 << RESIDUAL_BLOCK_BITS), total))
        yield lo, np.where((v[:, None] >> np.arange(p)) & 1, gh[:, 0], gh[:, 1])


def _expand(pairing: ZeroPairing, codes, alpha: float) -> SolutionSet:
    """Expand the selections with the given integer encodings, in that order."""
    out = []
    for v in codes:
        choices = tuple(bool((int(v) >> k) & 1) for k in range(pairing.n_pairs))
        out.append((choices, signal_from_selection(RootSelection(pairing, choices, alpha))))
    return SolutionSet(pairing, tuple(out))


def _expand_rows(scale: complex, betas: np.ndarray) -> np.ndarray:
    """signal_from_selection (alpha = 0) of every row of betas, as (B, p+1) entries.

    Bitwise equal to that reference. np.poly multiplies in one factor
    (z - beta) per pair; with w = -beta, coefficient j becomes
    a[j-1]*w + a[j], and the loop below spells out the real operations in
    the order np.convolve's complex dot (OpenBLAS zdotu) performs them.
    Rows whose roots are closed under conjugation get np.poly's real branch.
    """
    b, p = betas.shape
    re = np.zeros((p + 1, b))
    im = np.zeros((p + 1, b))
    re[0] = 1.0
    wr, wi = np.ascontiguousarray(-betas.real.T), np.ascontiguousarray(-betas.imag.T)
    for k in range(p):
        pr, pi, cr, ci = re[: k + 1], im[: k + 1], re[1 : k + 2], im[1 : k + 2]
        re[1 : k + 2], im[1 : k + 2] = (pr * wr[k] + cr) - pi * wi[k], pr * wi[k] + (pi * wr[k] + ci)
    im[:, np.all(np.sort(betas, axis=1) == np.sort(betas.conj(), axis=1), axis=1)] = 0.0
    coeffs = np.empty((b, p + 1), np.complex128)
    coeffs.real, coeffs.imag = re.T, im.T
    # exp(1j * 0) * gain is (gain, +0), the complex value gain promotes to
    gain = np.sqrt(abs(scale)) / np.sqrt(np.prod(np.abs(betas), axis=1))
    return gain[:, None] * coeffs


def enumerate_solutions(pairing: ZeroPairing) -> SolutionSet:
    """Expand every root selection, ordered by choice-vector integer encoding.

    Bit k of the encoding picks gamma (True) or gamma_recip (False) for
    pair k. The signals are built as arrays, block by block, bitwise equal
    to signal_from_selection. Raises EnumerationBudgetExceeded past 24 pairs.
    """
    choices = [()]
    for _ in range(_check_budget(pairing)):
        choices = [c + (False,) for c in choices] + [c + (True,) for c in choices]
    signals = []
    for _, betas in _choice_blocks(pairing):
        signals.extend(ComplexSignal.from_rows(_expand_rows(pairing.scale, betas)))
    return SolutionSet(pairing, tuple(zip(choices, signals)))


def _phase_fixed(e: np.ndarray) -> np.ndarray:
    w = e * np.exp(-1j * np.angle(e[0]))
    w[0] = abs(e[0])
    return w


def _lex_key(e: np.ndarray):
    rounded = np.round(np.column_stack([e.real, e.imag]), CANON_DECIMALS).ravel()
    return tuple(rounded)


def canonicalize(x: ComplexSignal) -> ComplexSignal:
    """Unique representative of x modulo the trivial ambiguities.

    Strips leading/trailing zero entries (translation), rotates the
    global phase so the first entry is real positive, and keeps the
    lexicographically smaller of the result and its conjugate
    reflection under (re, im) entry order after rounding to 1e-9.
    """
    mag = np.abs(x.entries)
    peak = float(np.max(mag))
    if peak == 0.0:
        raise ZeroSignal("the all-zero signal has no canonical form")
    nz = np.nonzero(mag > 1e-12 * peak)[0]
    core = x.entries[nz[0] : nz[-1] + 1]
    a = _phase_fixed(np.array(core))
    b = _phase_fixed(np.conj(core[::-1]))
    pick = a if _lex_key(a) <= _lex_key(b) else b
    return ComplexSignal(pick)


def product_constraint(sel: RootSelection, x0: complex) -> float:
    """Residual of the anchored product identity.

    A selection consistent with anchor x0 must satisfy
    prod(-beta_j) = r(N-1) / |x0|^2, the ratio x(N-1)/x(0) of the
    expanded signal. Returns |prod(-beta_j) - r(N-1)/|x0|^2|.
    """
    x0 = complex(x0)
    if x0 == 0:
        raise ZeroAnchor("x(0) = 0 cannot anchor")
    betas = sel.betas()
    prod = complex(np.prod(-betas)) if betas.size else 1.0 + 0j
    target = complex(sel.pairing.scale) / abs(x0) ** 2
    return float(abs(prod - target))


def anchor_residuals(pairing: ZeroPairing, x0: complex) -> np.ndarray:
    """product_constraint of every choice vector, in integer-encoding order.

    Bitwise equal to that reference: rows are reduced by np.prod in pair
    order and measured with hypot. Rows are built 2^RESIDUAL_BLOCK_BITS at
    a time so memory stays a few MB at any pair count. Raises
    EnumerationBudgetExceeded past 24 pairs and ZeroAnchor for x0 = 0.
    """
    p = _check_budget(pairing)
    x0 = complex(x0)
    if x0 == 0:
        raise ZeroAnchor("x(0) = 0 cannot anchor")
    target = complex(pairing.scale) / abs(x0) ** 2
    out = np.empty(1 << p)
    for lo, betas in _choice_blocks(pairing):
        d = np.prod(-betas, axis=1) - target
        out[lo : lo + d.size] = np.hypot(d.real, d.imag)
    return out


def anchor_threshold(pairing: ZeroPairing, x0: complex, tol: float) -> float:
    """Accept bound tol * |r(N-1)| / |x0|^2 on an anchor residual."""
    return tol * abs(complex(pairing.scale)) / abs(complex(x0)) ** 2


def anchored_solutions(pairing: ZeroPairing, x0: complex, tol: float = ANCHOR_REL_TOL) -> SolutionSet:
    """Selections whose anchor residual is within anchor_threshold, in
    choice-vector order. Only they are expanded, with alpha = arg(x0).

    Raises NoFeasibleSolution when nothing survives, which certifies the
    anchor is inconsistent with the pairing.
    """
    survivors = np.flatnonzero(anchor_residuals(pairing, x0) <= anchor_threshold(pairing, x0, tol))
    if not survivors.size:
        raise NoFeasibleSolution(f"no selection matches anchor {complex(x0)}")
    return _expand(pairing, survivors, float(np.angle(x0)))


def filter_by_anchor(sols: SolutionSet, x0: complex, tol: float = ANCHOR_REL_TOL) -> SolutionSet:
    """anchored_solutions of the set's pairing; its expanded signals are not reused."""
    return anchored_solutions(sols.pairing, x0, tol)


def trivial_orbit_distance(a: ComplexSignal, b: ComplexSignal, reflection: bool = True) -> float:
    """Euclidean distance between a and the trivial orbit of b.

    Minimizes over global phase in closed form; with reflection=True the
    conjugate reflection of b competes too. Length mismatches give inf.
    """
    if a.n != b.n:
        return float("inf")

    def phase_min(u, v):
        inner = abs(np.vdot(v, u))
        d2 = float(np.vdot(u, u).real + np.vdot(v, v).real - 2.0 * inner)
        return np.sqrt(max(d2, 0.0))

    best = phase_min(a.entries, b.entries)
    if reflection:
        best = min(best, phase_min(a.entries, np.conj(b.entries[::-1])))
    return float(best)


def distinct_canonical(signals, rel_tol: float = 1e-6) -> list:
    """Greedy clustering of canonical forms; returns one representative per cluster."""
    reps: list = []
    for sig in signals:
        can = canonicalize(sig)
        scale = float(np.linalg.norm(can.entries))
        hit = False
        for rep in reps:
            if rep.n == can.n and np.linalg.norm(rep.entries - can.entries) <= rel_tol * max(scale, 1e-300):
                hit = True
                break
        if not hit:
            reps.append(can)
    return reps
