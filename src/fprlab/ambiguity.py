"""Enumeration and normalization of intensity-equivalent signals.

All 2^(N-1) root selections of a pairing share one Fourier intensity.
Modding out global phase, translation and conjugate reflection leaves
2^(N-2) genuinely different signals; an anchor value x(0) cuts the set
down further, generically to a single survivor.

Selections are expanded in C-ordered blocks, a row per coefficient and a
column per code, so every numpy loop runs along codes. The blocks and
their scratch are views of one float64 workspace per thread, which grows
to the largest request (4.5 MB at the 24-pair budget) and never
shrinks. No view of it is returned: each call's rows are a new array.
"""

from __future__ import annotations

import itertools
import math
import threading
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
_SMALL_WINDOW = 4  # _survivor_codes' small search: at most this many window codes


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


# Parts (real and imaginary) inside which the Python-complex residuals
# cannot under- or overflow; see _residuals_small
_PART_LO, _PART_HI, _DIFF_LO, _DIFF_HI = 2.0**-511, 2.0**511, 2.0**-250, 2.0**250


def _residuals_small(roots: list, codes: list, target: complex) -> np.ndarray | None:
    """_residuals of a few codes, bitwise, with each product taken in
    Python complex; None where a step might under- or overflow, so that
    _residuals' errstate decides there. roots is pairs.tolist().

    Each product starts from the first picked root and multiplies in the
    others in pair order, as np.prod does; Python's complex product is
    the same four real products and two sums, never fused. A zero part
    may take the other sign, which neither a later nonzero part nor the
    residual's modulus can see. The moduli stay np.hypot: math.hypot
    differs from it in the last bit.

    No step raises a flag that _residuals' errstate would turn into an
    error when every nonzero part of each root and of each partial
    product lies in [2^-511, 2^511] (so each real product is normal) and
    every nonzero part of each difference P - target in [2^-250, 2^250]
    (so hypot's squares are normal too); otherwise None.
    """
    lo, hi, dlo, dhi = _PART_LO, _PART_HI, _DIFF_LO, _DIFF_HI
    for pair in roots:
        for z in pair:
            a, b = abs(z.real), abs(z.imag)
            if not ((lo <= a <= hi or not a) and (lo <= b <= hi or not b)):
                return None
    neg = [(-h, -g) for g, h in roots]  # bit k clear picks gamma_recip
    re, im = [], []
    for code in codes:
        acc = 1.0 + 0.0j  # np.prod of no roots
        for k, pair in enumerate(neg):
            z = pair[code >> k & 1]
            if k:
                acc = acc * z
                a, b = abs(acc.real), abs(acc.imag)
                if not ((lo <= a <= hi or not a) and (lo <= b <= hi or not b)):
                    return None
            else:
                acc = z
        d = acc - target
        a, b = abs(d.real), abs(d.imag)
        if not ((dlo <= a <= dhi or not a) and (dlo <= b <= dhi or not b)):
            return None
        re.append(d.real)
        im.append(d.imag)
    return np.hypot(re, im)


def _factor_in(re: np.ndarray, im: np.ndarray, k: int, wr, wi, scratch: np.ndarray) -> None:
    """Multiply the coefficient columns (re, im), k factors in, by (z + w), in place.

    Bitwise np.poly: with w = -beta, coefficient j becomes a[j-1]*w + a[j],
    and the lines below spell out the real operations in the order
    np.convolve's complex dot (OpenBLAS zdotu) performs them,
    re: (pr*wr + cr) - pi*wi and im: pr*wi + (pi*wr + ci). wr and wi are
    one root per column or one Python-float root for every column. The
    flat scratch holds the two partial results that must outlive the rows
    they are read from, twice the size of re[: k + 1]; nothing is allocated.
    """
    pr, pi, cr, ci = re[: k + 1], im[: k + 1], re[1 : k + 2], im[1 : k + 2]
    a, t = scratch[: 2 * pr.size].reshape(2, *pr.shape)
    np.multiply(pr, wi, out=a)
    np.multiply(pr, wr, out=t)
    t += cr
    np.multiply(pi, wi, out=cr)  # pr is read for the last time above
    np.subtract(t, cr, out=cr)
    np.multiply(pi, wr, out=t)
    t += ci
    np.add(a, t, out=ci)


class _Workspace(threading.local):
    """_expand's scratch in each thread: one flat float64 array, grown to
    the largest request and never shrunk, handed out as views.

    At the 24-pair budget it is 4.5 MB. Its views never leave
    _expand, and every value in them is written before it is read.
    """

    def __init__(self):
        self.buf = np.empty(0)

    def views(self, *sizes: int) -> list:
        """Consecutive flat views of the array with these sizes, growing it first if need be."""
        if self.buf.size < sum(sizes):
            self.buf = np.empty(sum(sizes))
        return [self.buf[end - size : end] for end, size in zip(itertools.accumulate(sizes), sizes)]


_WORKSPACE = _Workspace()


def _prefix_table(pairs: np.ndarray, b: int, bufs: tuple, mag: np.ndarray) -> np.ndarray:
    """Coefficients of the products of the first b factors for all 2^b
    low codes, in code order, as a (2, b + 1, 2, 2^(b-1)) view: the real
    and imaginary planes, a row per coefficient, then the codes with bit
    b - 1 clear and with it set (b = 0: the empty product, (2, 1, 1, 1)).
    mag[: 2^b] gets the products of their root moduli, in pair order.

    By doubling: level k, over h = 2^k codes, writes the flat array
    bufs[k % 2]. Both halves start as copies of the table so far, with a
    zero row for the new coefficient; the first half (bit k clear) takes
    gamma_recip, the second gamma. The other array held the table so far,
    so it is the level's _factor_in scratch. Below 64 codes a half, one
    _factor_in call takes both halves, each root broadcast along its
    half. From 64 on each half is a contiguous block of its own, factored
    with its one Python-float root: numpy's scalar loops run about twice
    as fast, and the scratch needs half the columns.
    """
    roots, neg, flip = pairs.tolist(), -pairs[:, ::-1, None], np.abs(pairs)[:, ::-1, None]
    table = bufs[1][:2].reshape(2, 1, 1, 1)
    table[:, 0, 0, 0], mag[0] = (1.0, 0.0), 1.0
    for k in range(b):  # table: (2, k + 1, ...) in code order, its last axis table.shape[3] long
        h = 1 << k
        new, free, halves = bufs[k % 2][: 4 * (k + 2) * h], bufs[1 - k % 2], mag[: 2 * h].reshape(2, h)
        halves[1] = halves[0]
        if h < 64:  # (2, k + 2, 2, h): code order
            new = new.reshape(2, k + 2, 2, h)
            new.reshape(2, k + 2, 2, -1, table.shape[3])[:, : k + 1] = table[:, :, None]
            new[:, k + 1] = 0.0
            _factor_in(new[0], new[1], k, neg[k].real, neg[k].imag, free)
            halves *= flip[k]
            table = new
        else:  # (2, 2, k + 2, h): half by half
            new = new.reshape(2, 2, k + 2, h)
            new.reshape(2, 2, k + 2, -1, table.shape[3])[:, :, : k + 1] = table
            new[:, :, k + 1] = 0.0
            for i, z in enumerate(roots[k][::-1]):
                _factor_in(new[i, 0], new[i, 1], k, -z.real, -z.imag, free)
                halves[i] *= flip[k, i, 0]
            table = new.transpose(1, 2, 0, 3)
    return table


def _expand(pairing: ZeroPairing, codes: np.ndarray, alpha: float) -> np.ndarray:
    """(len(codes), p + 1) block whose rows are reference.signal_from_selection
    of the selections with these codes, in order, at anchor phase alpha.

    Bitwise equal to that reference. After k factors a code's partial
    product depends only on its low k bits, so the products of the first b
    factors are built once for all 2^b low codes (_prefix_table), beside
    the products of their root moduli in pair order; each block of codes
    starts from that table and multiplies in the other p - b factors. The
    codes are increasing and distinct, as every caller passes them, so 2^p
    of them are every code in order: then b = min(p, RESIDUAL_BLOCK_BITS).
    At b = p the table is the block itself and nothing is copied; past
    that, each block of 2^b codes shares one high code, so its factors
    are Python-float roots. Fewer codes take b = 0: the one empty product
    is broadcast into each block, and each code has its own roots. Rows
    whose roots are closed under conjugation get np.poly's real branch;
    no row can be unless some root's conjugate is a root of the pairing.

    The table, the block and the scratch are C-ordered views of the
    thread's _WORKSPACE, and every factor runs along rows of codes, not
    along a code's few coefficients. A full enumeration allocates nothing
    of the block's size but the rows it returns; only per-code roots
    (b = 0, or the real-branch test) are still built block by block.

    Up to _SMALL_ROWS codes (4) take _expand_small instead: the same
    arithmetic per row in Python floats, without the table and the ~10
    numpy calls per factor that cost more than the arithmetic there.
    """
    if codes.size <= _SMALL_ROWS:
        return _expand_small(pairing, codes.tolist(), alpha)
    p, pairs = pairing.n_pairs, pairing.pairs
    roots = set(pairs.ravel().tolist())
    closable = any(z.conjugate() in roots for z in roots)
    b = min(p, RESIDUAL_BLOCK_BITS) if codes.size == 1 << p else 0
    width, cols = 1 << b, min(codes.size, 1 << RESIDUAL_BLOCK_BITS) if b < p else 0
    # the table's levels alternate between last and before, which also
    # holds the last level's scratch: twice as wide unless it is in halves
    last, before, table_mag, block_buf, block_mag, scratch = _WORKSPACE.views(
        2 * (b + 1) * width, b * width << (width < 128), width, 2 * (p + 1) * cols, cols, 2 * p * cols
    )
    table = _prefix_table(pairs, b, (last, before) if b % 2 else (before, last), table_mag)
    roots, mods = pairs.tolist(), np.abs(pairs).tolist()
    out = np.empty((codes.size, p + 1), np.complex128)
    for lo, hi in _blocks(codes.size):
        block = codes[lo:hi]
        if b == p:  # the table holds every code, in order
            (br, bi), bm = table, table_mag
        else:
            blk = block_buf[: 2 * (p + 1) * block.size].reshape(2, p + 1, 1, block.size)
            np.copyto(blk.reshape(2, p + 1, -1, table.shape[3])[:, : b + 1], table)  # b = 0 broadcasts
            blk[:, b + 1 :] = 0.0
            (br, bi), bm = blk, block_mag[: block.size]
            np.copyto(bm, table_mag)
            if b:  # one high code: a Python-float root per pair
                picks = [(k, 1 - (lo >> k & 1)) for k in range(b, p)]
                factors = [(-roots[k][c].real, -roots[k][c].imag) for k, c in picks]
                moduli = [mods[k][c] for k, c in picks]
            else:  # a root per code, pair by pair along rows
                high = _picked_roots(pairs, block)
                w = np.ascontiguousarray(high.T)
                factors, moduli = zip(-w.real, -w.imag), np.abs(w)
            for k, (wr, wi), m in zip(range(b, p), factors, moduli):
                _factor_in(br, bi, k, wr, wi, scratch)
                bm *= m  # in pair order, as signal_from_selection's np.prod
        if closable:
            betas = high if b == 0 else _picked_roots(pairs, block)
            real = np.all(np.sort(betas, axis=1) == np.sort(betas.conj(), axis=1), axis=1)
            bi[:, real.reshape(bi.shape[1:])] = 0.0
        rows = out[lo:hi].reshape(*br.shape[1:], p + 1)
        rows.real, rows.imag = br.transpose(1, 2, 0), bi.transpose(1, 2, 0)
        _apply_gain(rows, bm.reshape(br.shape[1:]), pairing.scale, alpha)
    return out


def _expand_small(pairing: ZeroPairing, codes: list, alpha: float) -> np.ndarray:
    """_expand of a few codes in Python floats, bitwise _expand's blocks.

    Each row multiplies in its factors in pair order with _factor_in's
    real operations, highest coefficient first so each is updated in
    place. A row whose picked roots are closed under conjugation takes
    np.poly's real branch, as in the blocks; a row can be only if a root's
    conjugate is a root of the pairing, which the blocks test first. The
    moduli come from np.abs, which Python's abs(complex) does not always
    match in the last bit. Each row's gain ratio sqrt|scale| / sqrt(modulus
    product) is taken in Python floats (sqrt and the quotient are
    correctly rounded, as numpy's), and the rows are scaled by
    e^(i alpha) times it in one numpy multiply, as _apply_gain does.
    """
    pairs = pairing.pairs
    p, roots, mods = len(pairs), pairs.tolist(), np.abs(pairs).tolist()
    amp = math.sqrt(abs(pairing.scale))
    rows, ratios = [], []
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
        if not any(z.imag for z in picked) or sorted(picked, key=_re_im) == sorted(
            (z.conjugate() for z in picked), key=_re_im
        ):
            rows.append(re)
        else:
            rows.append(list(map(complex, re, im)))
        ratios.append(amp / math.sqrt(mag))
    out = np.array(rows, np.complex128).reshape(len(codes), p + 1)
    gain = np.exp(1j * alpha) * np.array(ratios)
    np.multiply(gain[:, None], out, out=out)
    return out


def _re_im(z: complex) -> tuple:
    """np.sort's order of complex values: by real part, then imaginary part."""
    return z.real, z.imag


def _apply_gain(rows: np.ndarray, mag: np.ndarray, scale: complex, alpha: float) -> None:
    """Scale each row by e^(i alpha) sqrt|scale| / sqrt(its root-modulus product), in place."""
    gain = np.exp(1j * alpha) * (np.sqrt(abs(scale)) / np.sqrt(mag))
    np.multiply(gain[..., None], rows, out=rows)


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
    bit). Up to _SMALL_WINDOW window codes there take the exact check in
    _residuals_small, bitwise _residuals wherever it answers; more codes,
    or a part out of its range, take _residuals.
    """
    p = _check_budget(pairing)
    power = _anchor_power(x0)
    target = complex(pairing.scale) / power
    thr = checked_tol(tol, "anchor tol") * abs(complex(pairing.scale)) / power  # anchor_threshold
    lg = np.log(np.abs(pairing.pairs))
    flat = lg.ravel().tolist()
    a = sum(map(abs, flat))
    t_mod = abs(target)
    if a <= 700.0 and 1e-300 <= t_mod <= 1e300:
        lo_lin, hi_lin = t_mod * (1 - 2.0**-49) - thr, t_mod * (1 + 2.0**-49) + thr
        hi = math.log(hi_lin)
        lo = math.log(lo_lin) if lo_lin > 0 else -math.inf
        slack = 2.0**-51 * (p + 2) * (2 + a + max(abs(hi), abs(lo) if lo_lin > 0 else 0.0))
        lo, hi = lo - slack, hi + slack
    else:
        lg, lo, hi = np.zeros_like(lg), -math.inf, math.inf
        flat = lg.ravel().tolist()
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
        for g, r in zip(flat[::2], flat[1::2]):
            sums = [x + s for x in (r, g) for s in sums]
        found = [c for c, s in enumerate(sums) if lo <= s <= hi]
        if 0 < len(found) <= _SMALL_WINDOW:
            res = _residuals_small(pairing.pairs.tolist(), found, target)
            if res is not None:
                kept = np.array([c for c, r in zip(found, res.tolist()) if r <= thr], np.intp)
                _check_budget(pairing, kept.size)
                return kept
        return survivors(np.array(found, np.intp), 0, len(sums))

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
    survivors = _anchored_codes(pairing, x0, tol)
    return SolutionSet(pairing, survivors, _expand(pairing, survivors, float(np.angle(x0))))


def first_anchored_row(pairing: ZeroPairing, x0: complex) -> np.ndarray:
    """anchored_solutions(pairing, x0).rows[0] as a new writable row,
    bitwise: the same survivor search and refusals, but only the first
    survivor is expanded."""
    return _expand(pairing, _anchored_codes(pairing, x0, ANCHOR_REL_TOL)[:1], float(np.angle(x0)))[0]


def _anchored_codes(pairing: ZeroPairing, x0: complex, tol: float) -> np.ndarray:
    """_survivor_codes, with NoFeasibleSolution when nothing survives."""
    survivors = _survivor_codes(pairing, x0, tol)
    if not survivors.size:
        raise NoFeasibleSolution(f"no selection matches anchor {complex(x0)}")
    return survivors


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
