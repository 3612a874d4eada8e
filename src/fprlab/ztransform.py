"""Root structure of the autocorrelation polynomial.

The Laurent series R(z) = sum_{|n|<N} r(n) z^-n, lifted by z^(N-1), is an
ordinary polynomial of degree 2N-2 whose roots come in conjugate-reciprocal
partners (gamma, 1/conj(gamma)). Picking one member per partner pair and
expanding recovers a signal with the prescribed intensity; this module owns
that factorization and the pairing. `factor` is the roots-and-pairing stage
of the pipeline: autocorrelation in, ZeroPairing out.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateLeadingLag,
    NonConvergence,
    OddUnitCircleMultiplicity,
    OverflowBeyondPrecision,
    UnpairableRoots,
    ZeroArgument,
)
from .signal_core import Autocorrelation, ComplexSignal, _finite_angles, frozen

TAU_ROOT = 1e-9
NEWTON_STEPS = 5


def _modulus(z: complex) -> float:
    """|z|; OverflowBeyondPrecision where the modulus of finite parts passes
    double range (Python's abs raises OverflowError there)."""
    try:
        return abs(z)
    except OverflowError:
        raise OverflowBeyondPrecision(f"a root's modulus leaves double range (root {z})") from None


def pair_tolerance(gamma: complex) -> float:
    """Matching tolerance for the residual gamma * conj(partner) - 1.

    Linear in |gamma|, with a floor of 1e-6: the measured residual of
    true partners stays near machine precision at every |gamma|, while a
    bound growing like |gamma|^2 would accept pairs that are not partners.
    OverflowBeyondPrecision when |gamma| passes double range.
    """
    return 1e-6 * max(1.0, float(_modulus(gamma)))


def _near_unit_circle(z: complex) -> bool:
    """||z| - 1| within pair_tolerance(1); pair_tolerance(z) grows with
    |z| and would put every large enough |z| on the unit circle."""
    return abs(_modulus(z) - 1.0) <= pair_tolerance(1.0)


@dataclass(frozen=True, eq=False)
class PolyCoeffs:
    """Complex polynomial, ascending coefficients c(0..D).

    Trailing zero coefficients are stripped on construction so the leading
    coefficient of a nonzero polynomial is always nonzero.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        arr = frozen(np.asarray(self.coeffs, dtype=np.complex128).flatten(), "polynomial")
        nz = np.nonzero(arr)[0]
        if nz.size == 0:
            raise ValueError("zero polynomial has no root structure")
        object.__setattr__(self, "coeffs", arr[: nz[-1] + 1])

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1


def _check_pair(g: complex, h: complex) -> None:
    """Refuse the pair (g, h) as ZeroPairing does: ValueError for a zero root,
    a self-pair off the unit circle or a pair that is not conjugate-reciprocal
    within pair_tolerance(g); OverflowBeyondPrecision when |g| passes double
    range."""
    if g == 0 or h == 0:
        raise ValueError("paired roots must be nonzero")
    if h == g:
        if not _near_unit_circle(g):
            raise ValueError(f"self-pair ({g}, {h}) must lie on the unit circle")
    elif _pair_residual(g, h) > pair_tolerance(g):
        raise ValueError(f"pair ({g}, {h}) is not conjugate-reciprocal within tolerance")


@dataclass(frozen=True, eq=False)
class ZeroPairing:
    """Roots grouped into (gamma, gamma_recip) partners plus the scale r(N-1).

    pairs is a read-only (p, 2) complex128 array whose row k holds pair
    k's (gamma, gamma_recip); it is built from any nested sequence of
    pairs, and every root and the scale must be finite. A self-pair,
    gamma_recip == gamma, is a unit-circle root, which is its own
    conjugate reciprocal and must occur with even multiplicity; it must
    lie on the unit circle, and unit_circle_flags marks it.
    """

    scale: complex
    pairs: np.ndarray

    def __post_init__(self):
        scale = complex(self.scale)
        if not cmath.isfinite(scale):
            raise ValueError(f"pairing scale must be finite, got {scale}")
        if scale == 0:
            raise DegenerateLeadingLag("pairing scale r(N-1) must be nonzero")
        pairs = np.array(self.pairs, dtype=np.complex128)
        if not pairs.size:
            pairs.shape = (0, 2)
        pairs = frozen(pairs, "paired roots", 2)
        if pairs.shape[1] != 2:
            raise ValueError("each pair must be (gamma, gamma_recip)")
        # r <= 1e-6 or r <= 1e-6 |g| is r <= pair_tolerance(g); every
        # other pair, and one whose modulus leaves double range, takes
        # _check_pair's checks in their order
        for g, h in pairs.tolist():
            try:
                r, mod = abs(g * h.conjugate() - 1.0), abs(g)
            except OverflowError:
                r = mod = math.nan
            if h == g or h == 0 or not (r <= 1e-6 or r <= 1e-6 * mod):
                _check_pair(g, h)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "pairs", pairs)

    @property
    def unit_circle_flags(self) -> tuple:
        """One bool per pair: True for a self-paired unit-circle root."""
        return tuple((self.pairs[:, 0] == self.pairs[:, 1]).tolist())

    @property
    def n_pairs(self) -> int:
        return len(self.pairs)


def eval_ztransform(x: ComplexSignal, z: complex | np.ndarray) -> complex | np.ndarray:
    """X(z) = sum_k x(k) z^-k via Horner on z^(N-1) X(z), at one point or in one pass over
    a 1-D array of points. z^(N-1) is Python's complex power (numpy's can differ in the
    last bit), so each value is bitwise the one-point call.

    Horner runs np.polyval's ufunc calls (y = y * z + c from y = 0, on arrays
    of the points' shape) without its wrapper, so each value is bitwise
    reference.eval_by_polyval's."""
    pts = np.asarray(z, dtype=np.complex128)
    if x.n == 1:
        vals = np.full(pts.shape, x.entries[0])
    elif not pts.all():
        raise ZeroArgument("z = 0 not in the domain for N > 1")
    else:
        vals = np.zeros_like(pts)
        for c in x.entries.tolist():
            vals = np.add(np.multiply(vals, pts), c)
        powers = [w ** (x.n - 1) for w in pts.ravel().tolist()]
        vals = vals / np.array(powers).reshape(pts.shape)
    return complex(vals) if pts.ndim == 0 else vals


def build_S_poly(r: Autocorrelation) -> PolyCoeffs:
    """The degree 2N-2 polynomial z^(N-1) R(z); coefficient c(k) = r(N-1-k)."""
    if r.entries[r.n - 1] == 0:
        raise DegenerateLeadingLag("r(N-1) = 0: polynomial degenerates")
    asc = np.concatenate([r.entries[::-1], np.conj(r.entries[1:])])
    return PolyCoeffs(asc)


def _horner_pass(rows, z: np.ndarray, pts: np.ndarray, vals: np.ndarray):
    """p and p' at the k points z in one Horner loop; returns views (p(z), p'(z)) into vals.

    pts and vals are (2k,) buffers. pts holds z twice, and row i of rows
    holds p's coefficient of power D - i over its first k entries and p''s
    over its last k (0 in row 0, p' having degree D - 1). Each value takes
    np.polyval's operations in its order (y = y * x + c from y = 0), and
    numpy's complex multiply gives the same bits at any position of an
    array, so each is bitwise np.polyval's (the roots-stage differential
    test in tests/test_ztransform.py checks this on each numpy it runs on).
    """
    k = z.size
    pts[:k] = z
    pts[k:] = z
    vals.fill(0)
    for row in rows:
        np.multiply(vals, pts, out=vals)
        np.add(vals, row, out=vals)
    return vals[:k], vals[k:]


def find_roots(p: PolyCoeffs) -> np.ndarray:
    """All complex roots with multiplicity (none for a nonzero constant),
    lexicographically sorted by (re, im).

    Companion-matrix eigenvalues (LAPACK balances the matrix) followed by
    up to five Newton polish steps, each kept only when it lowers the
    residual; the polish stops after the first step that lowers none.
    Every returned root must satisfy |p(root)| <= TAU_ROOT * max|c| *
    max(1, |root|)^D, compared as D-th roots so that the bound cannot
    overflow for large roots. One Horner pass evaluates p and p' together
    at the same points, bitwise the values of np.polyval: one pass at the
    eigenvalues, then one per step at its candidates. Each step keeps the
    values of every root it keeps, so the next step and the residual cost
    no further evaluation.
    OverflowBeyondPrecision when the companion matrix, coefficients over
    the leading one, or a root's polynomial value leaves double range.
    """
    d = p.degree
    if d == 0:
        return np.empty(0, np.complex128)
    desc = p.coeffs[::-1]
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            roots = np.roots(desc)
    except FloatingPointError as exc:
        raise OverflowBeyondPrecision(f"the companion matrix leaves double range ({exc})") from None
    k = roots.size
    # Horner rows for p and p' side by side; see _horner_pass
    coef = np.zeros((d + 1, 2, k), np.complex128)
    coef[:, 0] = desc[:, None]
    coef[1:, 1] = np.polyder(desc)[:, None]
    rows = list(coef.reshape(d + 1, 2 * k))
    pts = np.empty(2 * k, np.complex128)
    vals = np.empty(2 * k, np.complex128)
    # a value past double range comes out inf or nan: such a candidate is
    # never better, and a root left with one is refused below, so numpy's
    # warnings would only repeat that refusal
    with np.errstate(over="ignore", invalid="ignore"):
        pv, dv = (v.copy() for v in _horner_pass(rows, roots, pts, vals))
        for _ in range(NEWTON_STEPS):
            ok = np.abs(dv) > 0
            step = np.where(ok, pv / np.where(ok, dv, 1.0), 0.0)
            cand = roots - step
            cv, dcand = _horner_pass(rows, cand, pts, vals)
            better = np.abs(cv) < np.abs(pv)
            if not better.any():  # roots and pv unchanged: every later step repeats this one
                break
            roots = np.where(better, cand, roots)
            pv = np.where(better, cv, pv)
            dv = np.where(better, dcand, dv)
        resid = np.abs(pv)
        rel = resid / (TAU_ROOT * np.max(np.abs(p.coeffs)))
    if not np.isfinite(resid).all():
        raise OverflowBeyondPrecision(
            f"the polynomial's value at a root leaves double range (largest |root| {float(np.abs(roots).max()):.3e})"
        )
    if np.any(rel ** (1.0 / d) > np.maximum(1.0, np.abs(roots))):
        raise NonConvergence(
            f"residual {float(resid.max()):.3e} exceeds bound after polish; coeffs={p.coeffs!r}"
        )
    return roots[np.lexsort((roots.imag, roots.real))]


def _pair_residual(g: complex, h: complex) -> float:
    """|g * conj(h) - 1| in Python complex; inf where the modulus of finite
    parts passes double range, as np.abs gives it (abs raises OverflowError)."""
    try:
        return abs(g * h.conjugate() - 1.0)
    except OverflowError:
        return math.inf


def pair_roots(roots, scale: complex) -> ZeroPairing:
    """Greedily group a root multiset into conjugate-reciprocal partners.

    Roots are sorted lexicographically and matched first-unmatched-first
    against the partner minimizing |gamma * conj(partner) - 1|, the first
    such partner on a tie, so the outcome is deterministic. Off-circle
    pairs store the larger-modulus member as gamma. Unit-circle roots must
    pair with a second copy of themselves; the self-pair is projected onto
    the circle exactly, in numpy's complex128 arithmetic.

    Residuals are Python complex scalars over the sorted roots' list. A
    residual whose modulus passes double range counts as inf, so it loses
    to any finite one. Python's product is not fused and numpy's SIMD loops
    may fuse theirs, so a residual can differ from np.abs(g * np.conj(h) -
    1.0) in its last bits; only a choice between residuals that close
    could differ from numpy's, which the roots-stage differential test in
    tests/test_ztransform.py checks. ValueError for non-finite roots
    (np.argmin would pick a nan residual, min does not), and
    OverflowBeyondPrecision for a root whose modulus passes double range.
    """
    arr = np.asarray(roots, dtype=np.complex128).reshape(-1)
    if arr.size % 2:
        raise ValueError("root count must be even")
    if np.any(arr == 0):
        raise ValueError("zero roots cannot occur when r(N-1) != 0")
    if not np.isfinite(arr).all():
        raise ValueError("roots must be finite")
    if complex(scale) == 0:
        raise DegenerateLeadingLag("pairing scale r(N-1) must be nonzero")
    pool = arr[np.lexsort((arr.imag, arr.real))].tolist()
    pairs = []
    while pool:
        g = pool.pop(0)
        resid = [_pair_residual(g, h) for h in pool]
        j = min(range(len(resid)), key=resid.__getitem__)
        tau = pair_tolerance(g)
        if resid[j] > tau:
            if _near_unit_circle(g):
                raise OddUnitCircleMultiplicity(
                    f"unit-circle root {g} lacks a second copy"
                )
            raise UnpairableRoots(
                f"no conjugate-reciprocal partner for {g} (best residual {resid[j]:.3e})"
            )
        h = pool.pop(j)
        if _near_unit_circle(g) and _near_unit_circle(h) and abs(g - h) <= tau * max(1.0, abs(g)):
            mid = np.complex128(g + h) / 2.0
            mid = mid / abs(mid)
            pairs.append((mid, mid))
        else:
            pairs.append((g, h) if _modulus(g) >= _modulus(h) else (h, g))
    return ZeroPairing(complex(scale), tuple(pairs))


def factor(r: Autocorrelation) -> ZeroPairing:
    """Zero pairing of an autocorrelation: roots of z^(N-1) R(z), paired, scale r(N-1)."""
    return pair_roots(find_roots(build_S_poly(r)), r.entries[r.n - 1])


def spectrum_from_pairing(pairing: ZeroPairing, omegas) -> np.ndarray:
    """R(omega) evaluated straight from the factored form.

    conj(r(N-1)) * e^(-i omega (N-1)) * prod (e^(i omega) - gamma)(e^(i omega) - gamma_recip)
    is real for a valid pairing; the real part is returned with tiny
    negative dust clamped to zero. ValueError, before any arithmetic, when
    an angle is not finite; OverflowBeyondPrecision when a partial product
    overflows; underflow is harmless here and passes.

    The factors are the rows of one (2p + 2, M) array, conj(r(N-1)), then
    z - gamma and z - gamma_recip pair by pair, then z^-p, and one
    multiply reduce along its rows takes their product at each angle in
    that order: bitwise reference.spectrum_by_pairs, the per-pair loop.
    """
    om = _finite_angles(omegas)
    z = np.exp(1j * om)
    p = pairing.n_pairs
    factors = np.empty((2 * p + 2, om.size), np.complex128)
    factors[0] = complex(pairing.scale).conjugate()
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            np.subtract(z, pairing.pairs.reshape(-1, 1), out=factors[1:-1])
            np.power(z, -p, out=factors[-1])
            acc = np.multiply.reduce(factors, axis=0)
            scale_mag = max(1.0, float(np.maximum.reduce(np.abs(acc), initial=1.0)))
    except FloatingPointError as exc:
        # every step of the reduce is a multiply, as in the per-pair loop
        why = str(exc).replace(" in reduce", " in multiply")
        raise OverflowBeyondPrecision(f"the spectrum of the pairing leaves double range ({why})") from None
    if float(np.maximum.reduce(np.abs(acc.imag), initial=0.0)) > 1e-6 * scale_mag:
        raise UnpairableRoots("pairing does not define a real spectrum")
    vals = acc.real
    floor = -1e-6 * scale_mag
    if float(np.minimum.reduce(vals, initial=0.0)) < floor:
        raise UnpairableRoots("pairing does not define a nonnegative spectrum")
    return np.maximum(vals, 0.0)
