"""Enumeration and normalization of intensity-equivalent signals.

All 2^(N-1) root selections of a pairing share one Fourier intensity.
Modding out global phase, translation and conjugate reflection leaves
2^(N-2) genuinely different signals; an anchor value x(0) cuts the set
down further, generically to a single survivor.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (
    EnumerationBudgetExceeded,
    NoFeasibleSolution,
    ZeroAnchor,
    ZeroSignal,
)
from .signal_core import ComplexSignal, frozen
from .ztransform import RootSelection, ZeroPairing

ENUM_BUDGET_PAIRS = 24
ENUM_BUDGET_BYTES = 1 << 30
ANCHOR_REL_TOL = 1e-6
CANON_DECIMALS = 9
RESIDUAL_BLOCK_BITS = 12


@dataclass(frozen=True, eq=False)
class SolutionSet:
    """Signals sharing one intensity, one per choice-vector code.

    Row i of the (K, N) complex128 block ``rows`` is the signal of the
    choice vector encoded by ``codes[i]`` (bit k picks gamma for pair k),
    K >= 1. The set takes a block that owns its data over: it is checked
    and frozen in place, not copied (signal_core.frozen copies any other).
    Choice tuples and signals are derived when read, and every signal is
    a row view, so one kept signal keeps the whole set alive.
    """

    pairing: ZeroPairing
    codes: np.ndarray
    rows: np.ndarray

    def __post_init__(self):
        rows = frozen(np.asarray(self.rows, dtype=np.complex128), "signal", 2)
        codes = frozen(np.asarray(self.codes, dtype=np.int64), "solution codes")
        if codes.shape != rows.shape[:1] or rows.shape[1] != self.pairing.n_pairs + 1:
            raise ValueError("a solution set needs one code per row and n_pairs + 1 entries per row")
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "rows", rows)

    @property
    def solutions(self) -> "_Solutions":
        """Read-only sequence of (choice tuple, ComplexSignal), in code order."""
        return _Solutions(self)

    def signals(self) -> list:
        return ComplexSignal.row_views(self.rows)


class _Solutions(Sequence):
    """A SolutionSet's (choice tuple, signal) pairs, each built when indexed."""

    def __init__(self, sols: SolutionSet):
        self._sols = sols

    def __len__(self) -> int:
        return self._sols.codes.size

    def __getitem__(self, i):
        i = range(len(self))[i]
        if isinstance(i, range):
            return tuple(self[j] for j in i)
        sols = self._sols
        code = int(sols.codes[i])
        choice = tuple(bool(code >> k & 1) for k in range(sols.pairing.n_pairs))
        return choice, ComplexSignal.row_views(sols.rows[i : i + 1])[0]


def _check_budget(pairing: ZeroPairing, bytes_per_selection: int = 0) -> int:
    """The pair count p; EnumerationBudgetExceeded past ENUM_BUDGET_PAIRS
    pairs, or when 2^p selections of bytes_per_selection each would pass
    ENUM_BUDGET_BYTES."""
    p = pairing.n_pairs
    if p > ENUM_BUDGET_PAIRS:
        raise EnumerationBudgetExceeded(f"{p} pairs exceed the {ENUM_BUDGET_PAIRS}-pair budget")
    need = (1 << p) * bytes_per_selection
    if need > ENUM_BUDGET_BYTES:
        raise EnumerationBudgetExceeded(
            f"{1 << p} selections need {need} bytes, over the {ENUM_BUDGET_BYTES}-byte budget"
        )
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


def _factor_in(re: np.ndarray, im: np.ndarray, k: int, wr, wi) -> None:
    """Multiply the coefficient columns (re, im), k factors in, by (z + w), in place.

    Bitwise np.poly: with w = -beta, coefficient j becomes a[j-1]*w + a[j],
    and the line below spells out the real operations in the order
    np.convolve's complex dot (OpenBLAS zdotu) performs them.
    """
    pr, pi, cr, ci = re[: k + 1], im[: k + 1], re[1 : k + 2], im[1 : k + 2]
    re[1 : k + 2], im[1 : k + 2] = (pr * wr + cr) - pi * wi, pr * wi + (pi * wr + ci)


def _expand(pairing: ZeroPairing, codes: np.ndarray, alpha: float, b: int) -> np.ndarray:
    """(len(codes), p + 1) block whose rows are signal_from_selection of
    the selections with these codes, in order, at anchor phase alpha.

    Bitwise equal to that reference. After k factors a code's partial
    product depends only on its low k bits, so the products of the first b
    factors are built once for all 2^b low codes, by doubling (bit k clear
    takes gamma_recip, set takes gamma); each block of codes starts from
    that table and multiplies in the other p - b factors. Rows whose roots
    are closed under conjugation get np.poly's real branch; no row can be
    unless some root's conjugate is a root of the pairing.
    """
    p = pairing.n_pairs
    re, im = np.zeros((p + 1, 1)), np.zeros((p + 1, 1))
    re[0] = 1.0
    for k in range(b):
        gamma, gamma_recip = pairing.pairs[k]
        w = -np.repeat(np.array([gamma_recip, gamma]), 1 << k)
        re, im = np.tile(re, 2), np.tile(im, 2)
        _factor_in(re, im, k, w.real, w.imag)
    roots = {z for pair in pairing.pairs for z in pair}
    closable = any(z.conjugate() in roots for z in roots)
    out = np.empty((codes.size, p + 1), np.complex128)
    for lo, hi in _blocks(codes.size):
        block = codes[lo:hi]
        betas = _picked_roots(pairing, block)
        low = block & ((1 << b) - 1)
        br, bi = re[:, low], im[:, low]
        wr, wi = -betas.real.T, -betas.imag.T
        for k in range(b, p):
            _factor_in(br, bi, k, wr[k], wi[k])
        if closable:
            bi[:, np.all(np.sort(betas, axis=1) == np.sort(betas.conj(), axis=1), axis=1)] = 0.0
        rows = out[lo:hi]
        rows.real, rows.imag = br.T, bi.T
        gain = np.exp(1j * alpha) * (np.sqrt(abs(pairing.scale)) / np.sqrt(np.prod(np.abs(betas), axis=1)))
        np.multiply(gain[:, None], rows, out=rows)
    return out


def enumerate_solutions(pairing: ZeroPairing) -> SolutionSet:
    """Expand every root selection, ordered by choice-vector integer encoding.

    Bit k of the encoding picks gamma (True) or gamma_recip (False) for
    pair k. The signals are built as one array, block by block, bitwise
    equal to signal_from_selection. Raises EnumerationBudgetExceeded past
    24 pairs, or before allocating anything when the codes and rows, 16 N + 8
    bytes per selection, would pass ENUM_BUDGET_BYTES.
    """
    p = _check_budget(pairing, 16 * (pairing.n_pairs + 1) + 8)
    codes = np.arange(1 << p)
    return SolutionSet(pairing, codes, _expand(pairing, codes, 0.0, min(p, RESIDUAL_BLOCK_BITS)))


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
    when it is 0 (x0 = 0, or a square that underflows) or overflows."""
    try:
        power = abs(complex(x0)) ** 2
    except OverflowError:
        power = math.inf
    if not 0 < power < math.inf:
        raise ZeroAnchor(f"x(0) = {complex(x0)} cannot anchor: |x(0)|^2 is {power:g} in double precision")
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
    24 pairs and ZeroAnchor when |x0|^2 is 0 or overflows.
    """
    p = _check_budget(pairing)
    target = complex(pairing.scale) / _anchor_power(x0)
    out = np.empty(1 << p)
    for lo, hi in _blocks(1 << p):
        d = np.prod(-_picked_roots(pairing, np.arange(lo, hi)), axis=1) - target
        out[lo:hi] = np.hypot(d.real, d.imag)
    return out


def anchor_threshold(pairing: ZeroPairing, x0: complex, tol: float) -> float:
    """Accept bound tol * |r(N-1)| / |x0|^2 on an anchor residual.

    ValueError unless tol is finite and nonnegative: NaN or a negative tol
    would reject every selection and so certify a false NoFeasibleSolution,
    and an infinite one would accept every selection.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"anchor tol must be finite and nonnegative, got {tol}")
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
    return SolutionSet(pairing, survivors, _expand(pairing, survivors, float(np.angle(x0)), 0))


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
