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
    OverflowBeyondPrecision,
    ZeroAnchor,
    ZeroSignal,
)
from .signal_core import ComplexSignal, checked_tol, frozen
from .ztransform import ZeroPairing

ENUM_BUDGET_PAIRS = 24
ENUM_BUDGET_BYTES = 1 << 30
ANCHOR_REL_TOL = 1e-6
CANON_DECIMALS = 9
CANON_REL_TOL = 1e-6
RESIDUAL_BLOCK_BITS = 12
# Cutovers to the Python-float paths, where a numpy call costs more than
# the arithmetic it would batch (crossovers measured in CHANGES.md).
_SMALL_CODES = 64  # _survivor_codes: at most this many codes, 2^p
_SMALL_ROWS = 4  # _expand: at most this many rows


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
        choice = tuple(_code_bits(sols.codes[i : i + 1], sols.pairing.n_pairs)[0].tolist())
        return choice, ComplexSignal.row_views(sols.rows[i : i + 1])[0]


def _check_budget(pairing: ZeroPairing, selections: int = 0, partial: bool = False) -> int:
    """The pair count p; EnumerationBudgetExceeded past ENUM_BUDGET_PAIRS
    pairs, or when the codes and rows of that many selections, 16 N + 8
    bytes each, would pass ENUM_BUDGET_BYTES. partial marks selections as
    a running count, a lower bound of the total, and the message says so."""
    p = pairing.n_pairs
    if p > ENUM_BUDGET_PAIRS:
        raise EnumerationBudgetExceeded(f"{p} pairs exceed the {ENUM_BUDGET_PAIRS}-pair budget")
    need = selections * (16 * (p + 1) + 8)
    if need > ENUM_BUDGET_BYTES:
        raise EnumerationBudgetExceeded(
            f"{'at least ' if partial else ''}{selections} selections need {need} bytes,"
            f" over the {ENUM_BUDGET_BYTES}-byte budget"
        )
    return p


def _blocks(total: int):
    """(lo, hi) bounds of range(total) in blocks of 2^RESIDUAL_BLOCK_BITS, a few MB of rows each."""
    step = 1 << RESIDUAL_BLOCK_BITS
    return ((lo, min(lo + step, total)) for lo in range(0, total, step))


def _code_bits(codes: np.ndarray, p: int) -> np.ndarray:
    """(len(codes), p) bits of the choice-vector codes: bit k set picks gamma for pair k."""
    return ((codes[:, None] >> np.arange(p)) & 1).astype(bool)


def _picked_roots(pairs: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Row i holds the roots of a pairing's pairs that code codes[i] picks, in pair order."""
    return np.where(_code_bits(codes, len(pairs)), pairs[:, 0], pairs[:, 1])


def _residuals(pairs: np.ndarray, codes: np.ndarray, target: complex) -> np.ndarray:
    """|prod(-beta) - target| of the codes' selections: np.prod in pair order, then hypot.

    OverflowBeyondPrecision when a product or residual leaves double range:
    an overflowed or underflowed product is no longer the root product.
    """
    try:
        with np.errstate(over="raise", under="raise", invalid="raise"):
            d = np.prod(-_picked_roots(pairs, codes), axis=1) - target
            return np.hypot(d.real, d.imag)
    except FloatingPointError as exc:
        raise OverflowBeyondPrecision(f"a root product leaves double range ({exc})") from None


def _factor_in(re: np.ndarray, im: np.ndarray, k: int, wr, wi) -> None:
    """Multiply the coefficient columns (re, im), k factors in, by (z + w), in place.

    Bitwise np.poly: with w = -beta, coefficient j becomes a[j-1]*w + a[j],
    and the lines below spell out the real operations in the order
    np.convolve's complex dot (OpenBLAS zdotu) performs them,
    re: (pr*wr + cr) - pi*wi and im: pr*wi + (pi*wr + ci), through three
    temporaries.
    """
    pr, pi = re[: k + 1], im[: k + 1]
    nr = pr * wr
    nr += re[1 : k + 2]
    t = pi * wi
    nr -= t
    np.multiply(pi, wr, out=t)
    t += im[1 : k + 2]
    ni = pr * wi
    ni += t
    re[1 : k + 2], im[1 : k + 2] = nr, ni


def _expand(pairing: ZeroPairing, codes: np.ndarray, alpha: float) -> np.ndarray:
    """(len(codes), p + 1) block whose rows are reference.signal_from_selection
    of the selections with these codes, in order, at anchor phase alpha.

    Bitwise equal to that reference. After k factors a code's partial
    product depends only on its low k bits, so the products of the first b
    factors are built once for all 2^b low codes, in place by doubling
    (bit k clear takes gamma_recip, set takes gamma), beside the products
    of their root moduli in pair order; each block of codes starts from
    that table and multiplies in the other p - b factors. The codes are
    increasing and distinct, as every caller passes them, so 2^p of them
    are every code in order: then b = min(p, RESIDUAL_BLOCK_BITS), and at
    b = p the table is the block itself and nothing is copied. Fewer codes
    take b = 0, a table of one empty product. Rows whose roots are closed
    under conjugation get np.poly's real branch; no row can be unless some
    root's conjugate is a root of the pairing.

    Up to _SMALL_ROWS codes (4) take _expand_small instead: the same
    arithmetic per row in Python floats, without the table and the ~10
    numpy calls per factor that cost more than the arithmetic there.
    """
    p, pairs = pairing.n_pairs, pairing.pairs
    roots = set(pairs.ravel().tolist())
    closable = any(z.conjugate() in roots for z in roots)
    if codes.size <= _SMALL_ROWS:
        re_rows, im_rows, mag = _expand_small(pairs, codes.tolist(), closable)
        out = np.empty((codes.size, p + 1), np.complex128)
        out.real, out.imag = re_rows, im_rows
        _apply_gain(out, np.array(mag), pairing.scale, alpha)
        return out
    b = min(p, RESIDUAL_BLOCK_BITS) if codes.size == 1 << p else 0
    width = 1 << b
    re, im, mag = np.zeros((p + 1, width)), np.zeros((p + 1, width)), np.ones(width)
    re[0] = 1.0
    for k in range(b):
        h = 1 << k
        re[: k + 1, h : 2 * h], im[: k + 1, h : 2 * h], mag[h : 2 * h] = re[: k + 1, :h], im[: k + 1, :h], mag[:h]
        w = -np.repeat(pairs[k, ::-1], h)
        _factor_in(re[:, : 2 * h], im[:, : 2 * h], k, w.real, w.imag)
        mag[: 2 * h] *= np.abs(w)
    out = np.empty((codes.size, p + 1), np.complex128)
    for lo, hi in _blocks(codes.size):
        block = codes[lo:hi]
        if b == p:  # the table holds every code, in order
            br, bi, bm = re, im, mag
        else:
            low = block & (width - 1)
            br, bi, bm = re[:, low], im[:, low], mag[low]
        if b < p:
            high = _picked_roots(pairs[b:], block >> b)  # the roots of pairs b..p-1
            wr, wi = -high.real.T, -high.imag.T
            for k in range(b, p):
                _factor_in(br, bi, k, wr[k - b], wi[k - b])
            mw = np.abs(high)
            mw[:, 0] *= bm  # np.prod then multiplies bm by the moduli in pair order
            bm = np.prod(mw, axis=1)
        if closable:
            betas = high if b == 0 else _picked_roots(pairs, block)
            bi[:, np.all(np.sort(betas, axis=1) == np.sort(betas.conj(), axis=1), axis=1)] = 0.0
        rows = out[lo:hi]
        rows.real, rows.imag = br.T, bi.T
        _apply_gain(rows, bm, pairing.scale, alpha)
    return out


def _expand_small(pairs: np.ndarray, codes: list, closable: bool) -> tuple:
    """Real rows, imaginary rows and root-modulus products of _expand's
    selections before the gain, as Python floats, bitwise _expand's blocks.

    Each row multiplies in its factors in pair order with _factor_in's
    real operations, highest coefficient first so each is updated in
    place. The moduli come from np.abs, which Python's abs(complex) does
    not always match in the last bit.
    """
    p, roots, mods = len(pairs), pairs.tolist(), np.abs(pairs).tolist()
    re_rows, im_rows, mags = [], [], []
    for code in codes:
        re, im, mag, picked = [1.0] + [0.0] * p, [0.0] * (p + 1), 1.0, []
        for k in range(p):
            pick = 1 - (code >> k & 1)  # bit k set takes gamma, column 0
            z = roots[k][pick]
            wr, wi = -z.real, -z.imag
            for j in range(k, -1, -1):
                pr, pi = re[j], im[j]
                re[j + 1] = (pr * wr + re[j + 1]) - pi * wi
                im[j + 1] = pr * wi + (pi * wr + im[j + 1])
            mag *= mods[k][pick]
            picked.append(z)
        if closable and sorted(picked, key=_re_im) == sorted((z.conjugate() for z in picked), key=_re_im):
            im = [0.0] * (p + 1)
        re_rows.append(re)
        im_rows.append(im)
        mags.append(mag)
    return re_rows, im_rows, mags


def _re_im(z: complex) -> tuple:
    """np.sort's order of complex values: by real part, then imaginary part."""
    return z.real, z.imag


def _apply_gain(rows: np.ndarray, mag: np.ndarray, scale: complex, alpha: float) -> None:
    """Scale each row by e^(i alpha) sqrt|scale| / sqrt(its root-modulus product), in place."""
    gain = np.exp(1j * alpha) * (np.sqrt(abs(scale)) / np.sqrt(mag))
    np.multiply(gain[:, None], rows, out=rows)


def enumerate_solutions(pairing: ZeroPairing) -> SolutionSet:
    """Expand every root selection, ordered by choice-vector integer encoding.

    Bit k of the encoding picks gamma (True) or gamma_recip (False) for
    pair k. The signals are built as one array, block by block, bitwise
    equal to reference.signal_from_selection. Raises
    EnumerationBudgetExceeded past 24 pairs, or before allocating anything
    when the codes and rows, 16 N + 8 bytes per selection, would pass
    ENUM_BUDGET_BYTES.
    """
    p = _check_budget(pairing, 1 << pairing.n_pairs)
    codes = np.arange(1 << p)
    return SolutionSet(pairing, codes, _expand(pairing, codes, 0.0))


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
    reflection under (re, im) entry order after rounding to 1e-9 of the
    peak modulus, so the choice does not depend on the signal's scale.
    """
    mag = np.abs(x.entries)
    peak = float(np.max(mag))
    if peak == 0.0:
        raise ZeroSignal("the all-zero signal has no canonical form")
    nz = np.nonzero(mag > 1e-12 * peak)[0]
    core = x.entries[nz[0] : nz[-1] + 1]
    a = _phase_fixed(np.array(core))
    b = _phase_fixed(np.conj(core[::-1]))
    pick = a if _lex_key(a / peak) <= _lex_key(b / peak) else b
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


def anchor_threshold(pairing: ZeroPairing, x0: complex, tol: float) -> float:
    """Accept bound tol * |r(N-1)| / |x0|^2 on an anchor residual.

    ValueError unless tol is finite and nonnegative: NaN or a negative tol
    would reject every selection and so certify a false NoFeasibleSolution,
    and an infinite one would accept every selection.
    """
    return checked_tol(tol, "anchor tol") * abs(complex(pairing.scale)) / _anchor_power(x0)


def _survivor_codes(pairing: ZeroPairing, x0: complex, tol: float) -> np.ndarray:
    """Codes whose anchor residual is within anchor_threshold, increasing.

    Bitwise np.flatnonzero(reference.anchor_residuals(pairing, x0) <= thr),
    found without a complex product per selection. Since ||P| - |T|| <= |P - T|,
    a survivor's root product P has log|P| in [log(|T| - thr),
    log(|T| + thr)], and log|P| is the sum of its roots' log-moduli. The
    sums of the first b = min(p, RESIDUAL_BLOCK_BITS) pairs form one table
    in code order (doubling, bit k clear takes gamma_recip); each high code
    adds its own sum to it, one block of 2^b codes at a time. Only the
    codes in the window get _residuals' arithmetic, and those within thr
    are kept. The survivors are counted block by block, and
    EnumerationBudgetExceeded is raised at the first block after which
    they would pass the byte budget of enumerate_solutions; before the
    last block its message gives the count so far as a lower bound.

    Rounding bound (u = 2^-53; a = the sum of |log|root|| over both roots
    of every pair, which bounds |log| of every partial product). A survivor
    has |P_fp - T| <= thr(1 + 4u): one rounding in the subtraction, one in
    hypot. abs(target) is |T| to 3u relative, and np.prod's p - 1 complex
    products, each within sqrt(5)u, keep |P_fp| within 3pu of |P|. Each
    log-modulus is within 3u(1 + |log|root||), and the p - 1 additions of
    a sum add at most 1.01(p - 1)u a. So the window's linear edges are
    |T|(1 -/+ 2^-49) -/+ thr, where 2^-49 = 16u also covers the rounding
    of the edges' own arithmetic, and their logs are widened by
    E = 4u(p + 2)(2 + a + L), L the larger |log| of the two edges, which
    exceeds the sum of the errors above. The lower edge is -inf when its
    linear edge is not positive. The bounds need every partial product in
    the normal range: a <= 700 (e^700 ~ 1e304) and |T| in [1e-300, 1e300].
    Otherwise every code is a candidate.

    Up to _SMALL_CODES codes (2^p <= 64) build the table and the window
    test in Python floats instead, with the same additions in the same
    order, from the same np.log moduli (math.log can differ in the last
    bit); their window codes take the same exact check.
    """
    p = _check_budget(pairing)
    target = complex(pairing.scale) / _anchor_power(x0)
    thr = anchor_threshold(pairing, x0, tol)
    lg = np.log(np.abs(pairing.pairs))
    a = sum(map(abs, lg.ravel().tolist()))
    t_mod = abs(target)
    if a <= 700.0 and 1e-300 <= t_mod <= 1e300:
        lo_lin, hi_lin = t_mod * (1 - 2.0**-49) - thr, t_mod * (1 + 2.0**-49) + thr
        hi = math.log(hi_lin)
        lo = math.log(lo_lin) if lo_lin > 0 else -math.inf
        slack = 2.0**-51 * (p + 2) * (2 + a + max(abs(hi), abs(lo) if lo_lin > 0 else 0.0))
        lo, hi = lo - slack, hi + slack
    else:
        lg, lo, hi = np.zeros_like(lg), -math.inf, math.inf
    kept = 0

    def survivors(codes: np.ndarray, base: int, size: int) -> np.ndarray:
        """Those of a block's window codes (relative to base; the block
        holds size codes) within thr, counted against the byte budget."""
        nonlocal kept
        if not codes.size:
            return codes
        codes += base
        codes = codes[_residuals(pairing.pairs, codes, target) <= thr]
        kept += codes.size
        _check_budget(pairing, kept, partial=base + size < 1 << p)
        return codes

    if 1 << p <= _SMALL_CODES:
        sums = [0.0]
        for g, r in lg.tolist():
            sums = [x + s for x in (r, g) for s in sums]
        return survivors(np.array([c for c, s in enumerate(sums) if lo <= s <= hi], np.intp), 0, len(sums))

    def window(sums: np.ndarray) -> np.ndarray:
        return ((sums >= lo) & (sums <= hi)).nonzero()[0]

    b = min(p, RESIDUAL_BLOCK_BITS)
    low = _log_sums(lg[:b])
    if p == b:
        return survivors(window(low), 0, low.size)
    return np.concatenate([survivors(window(low + s), h << b, low.size) for h, s in enumerate(_log_sums(lg[b:]))])


def _log_sums(lg: np.ndarray) -> np.ndarray:
    """Sum of the picked log-moduli of the rows of lg = log|(gamma, gamma_recip)|,
    for every code in order, built by doubling: bit k clear takes gamma_recip."""
    sums = np.zeros(1)
    for pair in lg[:, ::-1, None]:
        sums = (pair + sums).ravel()
    return sums


def anchored_solutions(pairing: ZeroPairing, x0: complex, tol: float = ANCHOR_REL_TOL) -> SolutionSet:
    """Selections whose anchor residual is within anchor_threshold, in
    choice-vector order. Only they are expanded, with alpha = arg(x0).

    The survivors come from _survivor_codes, which checks only the codes
    whose root-product modulus can match the anchor; the result is the
    same as thresholding reference.anchor_residuals. Raises
    NoFeasibleSolution when nothing survives, which certifies the anchor is
    inconsistent with the pairing, and EnumerationBudgetExceeded, before
    expanding any, when the survivors would pass the byte budget of
    enumerate_solutions: at the first block of the search that passes it.
    """
    survivors = _survivor_codes(pairing, x0, tol)
    if not survivors.size:
        raise NoFeasibleSolution(f"no selection matches anchor {complex(x0)}")
    return SolutionSet(pairing, survivors, _expand(pairing, survivors, float(np.angle(x0))))


def filter_by_anchor(sols: SolutionSet, x0: complex) -> SolutionSet:
    """anchored_solutions of the set's pairing; its expanded signals are not reused."""
    return anchored_solutions(sols.pairing, x0)


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


def distinct_canonical(signals) -> list:
    """Greedy clustering of canonical forms, within CANON_REL_TOL of a
    representative's norm; returns one representative per cluster."""
    reps: list = []
    for sig in signals:
        can = canonicalize(sig)
        scale = float(np.linalg.norm(can.entries))
        hit = False
        for rep in reps:
            if rep.n == can.n and np.linalg.norm(rep.entries - can.entries) <= CANON_REL_TOL * max(scale, 1e-300):
                hit = True
                break
        if not hit:
            reps.append(can)
    return reps
