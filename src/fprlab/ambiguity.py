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
from .ztransform import RootSelection, ZeroPairing

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


def _blocks(total: int):
    """(lo, hi) bounds of range(total) in blocks of 2^RESIDUAL_BLOCK_BITS, a few MB of rows each."""
    step = 1 << RESIDUAL_BLOCK_BITS
    return ((lo, min(lo + step, total)) for lo in range(0, total, step))


def _code_bits(codes: np.ndarray, p: int) -> np.ndarray:
    """(len(codes), p) bits of the choice-vector codes: bit k set picks gamma for pair k."""
    return ((codes[:, None] >> np.arange(p)) & 1).astype(bool)


def _picked_roots(pairing: ZeroPairing, codes: np.ndarray) -> np.ndarray:
    """Row i holds the roots that code codes[i] picks, in pair order."""
    gh = np.array(pairing.pairs, dtype=np.complex128).reshape(-1, 2)
    return np.where(_code_bits(codes, len(gh)), gh[:, 0], gh[:, 1])


def _expand_rows(scale: complex, betas: np.ndarray, alpha: float) -> np.ndarray:
    """signal_from_selection of every row of betas at phase alpha, as (B, p+1) entries.

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
    gain = np.exp(1j * alpha) * (np.sqrt(abs(scale)) / np.sqrt(np.prod(np.abs(betas), axis=1)))
    return gain[:, None] * coeffs


def _expand(pairing: ZeroPairing, codes: np.ndarray, alpha: float) -> list:
    """signal_from_selection of the selections with these codes, in order, at anchor phase alpha."""
    signals = []
    for lo, hi in _blocks(codes.size):
        rows = _expand_rows(pairing.scale, _picked_roots(pairing, codes[lo:hi]), alpha)
        signals.extend(ComplexSignal.from_rows(rows))
    return signals


def enumerate_solutions(pairing: ZeroPairing) -> SolutionSet:
    """Expand every root selection, ordered by choice-vector integer encoding.

    Bit k of the encoding picks gamma (True) or gamma_recip (False) for
    pair k. The signals are built as arrays, block by block, bitwise equal
    to signal_from_selection. Raises EnumerationBudgetExceeded past 24 pairs.
    """
    p = _check_budget(pairing)
    choices = [()]
    for _ in range(p):
        choices = [c + (False,) for c in choices] + [c + (True,) for c in choices]
    return SolutionSet(pairing, zip(choices, _expand(pairing, np.arange(1 << p), 0.0)))


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


def _anchor_power(x0: complex) -> float:
    """|x0|^2, the divisor of the anchored product identity; ZeroAnchor
    when it is 0, for x0 = 0 and for an x0 whose square underflows."""
    power = abs(complex(x0)) ** 2
    if power == 0:
        raise ZeroAnchor(f"x(0) = {complex(x0)} cannot anchor: |x(0)|^2 is 0 in double precision")
    return power


def product_constraint(sel: RootSelection, x0: complex) -> float:
    """Residual of the anchored product identity.

    A selection consistent with anchor x0 must satisfy
    prod(-beta_j) = r(N-1) / |x0|^2, the ratio x(N-1)/x(0) of the
    expanded signal. Returns |prod(-beta_j) - r(N-1)/|x0|^2|.
    """
    target = complex(sel.pairing.scale) / _anchor_power(x0)
    return float(abs(complex(np.prod(-sel.betas())) - target))


def anchor_residuals(pairing: ZeroPairing, x0: complex) -> np.ndarray:
    """product_constraint of every choice vector, in integer-encoding order.

    Bitwise equal to that reference: rows are reduced by np.prod in pair
    order and measured with hypot. Raises EnumerationBudgetExceeded past
    24 pairs and ZeroAnchor when |x0|^2 is 0.
    """
    p = _check_budget(pairing)
    target = complex(pairing.scale) / _anchor_power(x0)
    out = np.empty(1 << p)
    for lo, hi in _blocks(1 << p):
        d = np.prod(-_picked_roots(pairing, np.arange(lo, hi)), axis=1) - target
        out[lo:hi] = np.hypot(d.real, d.imag)
    return out


def anchor_threshold(pairing: ZeroPairing, x0: complex, tol: float) -> float:
    """Accept bound tol * |r(N-1)| / |x0|^2 on an anchor residual."""
    return tol * abs(complex(pairing.scale)) / _anchor_power(x0)


def anchored_solutions(pairing: ZeroPairing, x0: complex, tol: float = ANCHOR_REL_TOL) -> SolutionSet:
    """Selections whose anchor residual is within anchor_threshold, in
    choice-vector order. Only they are expanded, with alpha = arg(x0).

    Raises NoFeasibleSolution when nothing survives, which certifies the
    anchor is inconsistent with the pairing.
    """
    survivors = np.flatnonzero(anchor_residuals(pairing, x0) <= anchor_threshold(pairing, x0, tol))
    if not survivors.size:
        raise NoFeasibleSolution(f"no selection matches anchor {complex(x0)}")
    choices = map(tuple, _code_bits(survivors, pairing.n_pairs).tolist())
    return SolutionSet(pairing, zip(choices, _expand(pairing, survivors, float(np.angle(x0)))))


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
