"""Root structure of the autocorrelation polynomial.

The Laurent series R(z) = sum_{|n|<N} r(n) z^-n, lifted by z^(N-1), is an
ordinary polynomial of degree 2N-2 whose roots come in conjugate-reciprocal
partners (gamma, 1/conj(gamma)). Picking one member per partner pair and
expanding recovers a signal with the prescribed intensity; this module owns
that factorization, the pairing, and the expansion. `factor` is the
roots-and-pairing stage of the pipeline: autocorrelation in, ZeroPairing out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateLeadingLag,
    NonConvergence,
    OddUnitCircleMultiplicity,
    UnpairableRoots,
    ZeroArgument,
)
from .signal_core import Autocorrelation, ComplexSignal, frozen

TAU_ROOT = 1e-9
NEWTON_STEPS = 5


def pair_tolerance(gamma: complex) -> float:
    """Matching tolerance for the residual gamma * conj(partner) - 1.

    Linear in |gamma|, with a floor of 1e-6: the measured residual of
    true partners stays near machine precision at every |gamma|, while a
    bound growing like |gamma|^2 would accept pairs that are not partners.
    """
    return 1e-6 * max(1.0, float(abs(gamma)))


def _near_unit_circle(z: complex) -> bool:
    """||z| - 1| within pair_tolerance(1); pair_tolerance(z) grows with
    |z| and would put every large enough |z| on the unit circle."""
    return abs(abs(z) - 1.0) <= pair_tolerance(1.0)


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


@dataclass(frozen=True, eq=False)
class ZeroPairing:
    """Roots grouped into (gamma, gamma_recip) partners plus the scale r(N-1).

    Flagged pairs sit on the unit circle, where a root is its own
    conjugate reciprocal and must occur with even multiplicity; such
    pairs are stored self-paired with gamma_recip == gamma.
    """

    scale: complex
    pairs: tuple
    unit_circle_flags: tuple

    def __post_init__(self):
        scale = complex(self.scale)
        if scale == 0:
            raise DegenerateLeadingLag("pairing scale r(N-1) must be nonzero")
        pairs = tuple((complex(g), complex(h)) for g, h in self.pairs)
        flags = tuple(bool(f) for f in self.unit_circle_flags)
        if len(pairs) != len(flags):
            raise ValueError("one flag per pair required")
        for (g, h), f in zip(pairs, flags):
            if g == 0 or h == 0:
                raise ValueError("paired roots must be nonzero")
            tau = pair_tolerance(g)
            if f:
                if h != g or not _near_unit_circle(g):
                    raise ValueError("flagged pair must be a self-paired unit-circle root")
            elif abs(g * np.conj(h) - 1.0) > tau:
                raise ValueError(f"pair ({g}, {h}) is not conjugate-reciprocal within tolerance")
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "unit_circle_flags", flags)

    @property
    def n_pairs(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True, eq=False)
class RootSelection:
    """One chosen member per pair: True takes gamma, False takes gamma_recip."""

    pairing: ZeroPairing
    choices: tuple
    alpha: float = 0.0

    def __post_init__(self):
        choices = tuple(bool(c) for c in self.choices)
        if len(choices) != self.pairing.n_pairs:
            raise ValueError("one choice per pair required")
        object.__setattr__(self, "choices", choices)
        object.__setattr__(self, "alpha", float(self.alpha))

    def betas(self) -> np.ndarray:
        return np.array(
            [g if c else h for (g, h), c in zip(self.pairing.pairs, self.choices)],
            dtype=np.complex128,
        )


def eval_ztransform(x: ComplexSignal, z: complex) -> complex:
    """X(z) = sum_k x(k) z^-k via Horner on z^(N-1) X(z)."""
    if x.n == 1:
        return complex(x.entries[0])
    z = complex(z)
    if z == 0:
        raise ZeroArgument("z = 0 not in the domain for N > 1")
    return complex(np.polyval(x.entries, z) / z ** (x.n - 1))


def build_S_poly(r: Autocorrelation) -> PolyCoeffs:
    """The degree 2N-2 polynomial z^(N-1) R(z); coefficient c(k) = r(N-1-k)."""
    if r.entries[r.n - 1] == 0:
        raise DegenerateLeadingLag("r(N-1) = 0: polynomial degenerates")
    asc = np.concatenate([r.entries[::-1], np.conj(r.entries[1:])])
    return PolyCoeffs(asc)


def find_roots(p: PolyCoeffs, tau_root: float = TAU_ROOT) -> np.ndarray:
    """All complex roots with multiplicity (none for a nonzero constant),
    lexicographically sorted by (re, im).

    Companion-matrix eigenvalues (LAPACK balances the matrix) followed by
    up to five Newton polish steps, each kept only when it lowers the
    residual. Every returned root must satisfy
    |p(root)| <= tau_root * max|c| * max(1, |root|)^D, compared as D-th
    roots so that the bound cannot overflow for large roots.
    """
    d = p.degree
    if d == 0:
        return np.empty(0, np.complex128)
    desc = p.coeffs[::-1]
    roots = np.roots(desc)
    dp = np.polyder(desc)
    for _ in range(NEWTON_STEPS):
        pv = np.polyval(desc, roots)
        dv = np.polyval(dp, roots)
        ok = np.abs(dv) > 0
        step = np.where(ok, pv / np.where(ok, dv, 1.0), 0.0)
        cand = roots - step
        better = np.abs(np.polyval(desc, cand)) < np.abs(pv)
        roots = np.where(better, cand, roots)
    resid = np.abs(np.polyval(desc, roots))
    rel = resid / (tau_root * np.max(np.abs(p.coeffs)))
    if np.any(rel ** (1.0 / d) > np.maximum(1.0, np.abs(roots))):
        raise NonConvergence(
            f"residual {float(resid.max()):.3e} exceeds bound after polish; coeffs={p.coeffs!r}"
        )
    return roots[np.lexsort((roots.imag, roots.real))]


def pair_roots(roots, scale: complex) -> ZeroPairing:
    """Greedily group a root multiset into conjugate-reciprocal partners.

    Roots are sorted lexicographically and matched first-unmatched-first
    against the partner minimizing |gamma * conj(partner) - 1|, so the
    outcome is deterministic. Off-circle pairs store the larger-modulus
    member as gamma. Unit-circle roots must pair with a second copy of
    themselves; the self-pair is projected onto the circle exactly.
    """
    arr = np.asarray(roots, dtype=np.complex128).reshape(-1)
    if arr.size % 2:
        raise ValueError("root count must be even")
    if np.any(arr == 0):
        raise ValueError("zero roots cannot occur when r(N-1) != 0")
    if complex(scale) == 0:
        raise DegenerateLeadingLag("pairing scale r(N-1) must be nonzero")
    pool = list(arr[np.lexsort((arr.imag, arr.real))])
    pairs, flags = [], []
    while pool:
        g = pool.pop(0)
        resid = np.abs(g * np.conj(np.array(pool)) - 1.0)
        j = int(np.argmin(resid))
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
            mid = (g + h) / 2.0
            mid = mid / abs(mid)
            pairs.append((mid, mid))
            flags.append(True)
        else:
            pairs.append((g, h) if abs(g) >= abs(h) else (h, g))
            flags.append(False)
    return ZeroPairing(complex(scale), tuple(pairs), tuple(flags))


def factor(r: Autocorrelation) -> ZeroPairing:
    """Zero pairing of an autocorrelation: roots of z^(N-1) R(z), paired, scale r(N-1)."""
    return pair_roots(find_roots(build_S_poly(r)), r.entries[r.n - 1])


def signal_from_selection(sel: RootSelection) -> ComplexSignal:
    """Expand a root selection into the signal it determines.

    x is read off the descending coefficients of
    exp(i alpha) * |r(N-1)|^(1/2) * prod_n |beta_n|^(-1/2) * prod_n (z - beta_n),
    which has |X| consistent with the pairing's spectrum and x(0) equal
    to exp(i alpha) times a positive real.
    """
    betas = sel.betas()
    c = np.sqrt(abs(sel.pairing.scale)) / np.sqrt(np.prod(np.abs(betas)))
    coeffs = np.atleast_1d(np.poly(betas)).astype(np.complex128)
    return ComplexSignal(np.exp(1j * sel.alpha) * c * coeffs)


def spectrum_from_pairing(pairing: ZeroPairing, omegas) -> np.ndarray:
    """R(omega) evaluated straight from the factored form.

    conj(r(N-1)) * e^(-i omega (N-1)) * prod (e^(i omega) - gamma)(e^(i omega) - gamma_recip)
    is real for a valid pairing; the real part is returned with tiny
    negative dust clamped to zero.
    """
    om = np.asarray(omegas, dtype=np.float64).reshape(-1)
    z = np.exp(1j * om)
    acc = np.full(om.shape, np.conj(complex(pairing.scale)), dtype=np.complex128)
    for g, h in pairing.pairs:
        acc = acc * (z - g) * (z - h)
    acc = acc * z ** (-pairing.n_pairs)
    scale_mag = max(1.0, float(np.max(np.abs(acc), initial=1.0)))
    if float(np.max(np.abs(acc.imag), initial=0.0)) > 1e-6 * scale_mag:
        raise UnpairableRoots("pairing does not define a real spectrum")
    vals = acc.real
    floor = -1e-6 * scale_mag
    if float(np.min(vals, initial=0.0)) < floor:
        raise UnpairableRoots("pairing does not define a nonnegative spectrum")
    return np.maximum(vals, 0.0)


def autocorr_from_pairing(pairing: ZeroPairing) -> Autocorrelation:
    """Lags r(0..N-1) implied by a pairing, via expansion of conj(r(N-1)) * prod(z - root).

    The expansion is conjugate-symmetrized, which forces r(0) exactly real.
    """
    allroots = np.array([b for pair in pairing.pairs for b in pair], dtype=np.complex128)
    asc = (np.conj(complex(pairing.scale)) * np.atleast_1d(np.poly(allroots)))[::-1]
    n = pairing.n_pairs + 1
    down = asc[n - 1 :: -1]          # c(N-1-n) for n = 0..N-1
    up = np.conj(asc[n - 1 :])       # conj(c(N-1+n))
    return Autocorrelation((down + up) / 2.0)
