"""Slow reference paths that the fast runtime paths are tested against.

Each function here spells out one definition directly, one selection,
one product, one pair, one subset or one dense matrix at a time. The
tests prove the runtime engines of ``ambiguity`` and ``ztransform``
bitwise equal to them and the witness search of ``hardness`` equal to
its scan, and check the FFT passes of ``solvers`` against the dense
intensity, its loss and its Wirtinger gradient. No package module
imports this one, ``fprlab`` included, so ``import fprlab`` does not
load it: import these names from ``fprlab.reference``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ambiguity import _anchor_power, _blocks, _check_budget, _residuals
from .errors import BudgetExceeded, OverflowBeyondPrecision, UnpairableRoots, ZeroArgument
from .hardness import BRUTE_FORCE_BUDGET, PPInstance
from .signal_core import Autocorrelation, ComplexSignal, SpectrumSamples, _finite_angles, _intensity_rows, _intensity_values
from .ztransform import ZeroPairing, _check_pair


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
        pairs = self.pairing.pairs
        return np.where(self.choices, pairs[:, 0], pairs[:, 1])


def signal_from_selection(sel: RootSelection) -> ComplexSignal:
    """Expand a root selection into the signal it determines.

    x is read off the descending coefficients of
    exp(i alpha) * |r(N-1)|^(1/2) * prod_n |beta_n|^(-1/2) * prod_n (z - beta_n),
    which has |X| consistent with the pairing's spectrum and x(0) equal
    to exp(i alpha) times a positive real. ambiguity._expand must match it.
    """
    betas = sel.betas()
    c = np.sqrt(abs(sel.pairing.scale)) / np.sqrt(np.prod(np.abs(betas)))
    coeffs = np.atleast_1d(np.poly(betas)).astype(np.complex128)
    return ComplexSignal(np.exp(1j * sel.alpha) * c * coeffs)


def autocorr_from_pairing(pairing: ZeroPairing) -> Autocorrelation:
    """Lags r(0..N-1) implied by a pairing, via expansion of conj(r(N-1)) * prod(z - root).

    The expansion is conjugate-symmetrized, which forces r(0) exactly real.
    """
    asc = (np.conj(complex(pairing.scale)) * np.atleast_1d(np.poly(pairing.pairs.ravel())))[::-1]
    n = pairing.n_pairs + 1
    down = asc[n - 1 :: -1]          # c(N-1-n) for n = 0..N-1
    up = np.conj(asc[n - 1 :])       # conj(c(N-1+n))
    return Autocorrelation((down + up) / 2.0)


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
    order and measured with hypot. The full scan is the reference that
    ambiguity._survivor_codes must match. Raises EnumerationBudgetExceeded
    past 24 pairs, ZeroAnchor when |x0|^2 is 0 or overflows, and
    OverflowBeyondPrecision when a root product leaves double range.
    """
    p = _check_budget(pairing)
    target = complex(pairing.scale) / _anchor_power(x0)
    out = np.empty(1 << p)
    for lo, hi in _blocks(1 << p):
        out[lo:hi] = _residuals(pairing.pairs, np.arange(lo, hi), target)
    return out


def spectrum_by_pairs(pairing: ZeroPairing, omegas) -> np.ndarray:
    """ztransform.spectrum_from_pairing as a loop over the pairs: the product
    conj(r(N-1)) * prod (z - gamma)(z - gamma_recip) * z^-p built in place,
    one factor at a time, with the same checks, errors and messages."""
    om = _finite_angles(omegas)
    z = np.exp(1j * om)
    acc = np.full(om.shape, np.conj(complex(pairing.scale)), dtype=np.complex128)
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for g, h in pairing.pairs.tolist():
                acc *= z - g
                acc *= z - h
            acc *= z ** (-pairing.n_pairs)
            scale_mag = max(1.0, float(np.max(np.abs(acc), initial=1.0)))
    except FloatingPointError as exc:
        raise OverflowBeyondPrecision(f"the spectrum of the pairing leaves double range ({exc})") from None
    if float(np.max(np.abs(acc.imag), initial=0.0)) > 1e-6 * scale_mag:
        raise UnpairableRoots("pairing does not define a real spectrum")
    vals = acc.real
    if float(np.min(vals, initial=0.0)) < -1e-6 * scale_mag:
        raise UnpairableRoots("pairing does not define a nonnegative spectrum")
    return np.maximum(vals, 0.0)


def eval_by_polyval(x: ComplexSignal, z):
    """ztransform.eval_ztransform through np.polyval: z^(1-N) * polyval(x, z),
    with z^(N-1) as Python's complex power."""
    pts = np.asarray(z, dtype=np.complex128)
    if x.n == 1:
        vals = np.full(pts.shape, x.entries[0])
    elif not pts.all():
        raise ZeroArgument("z = 0 not in the domain for N > 1")
    else:
        powers = [w ** (x.n - 1) for w in pts.ravel().tolist()]
        vals = np.polyval(x.entries, pts) / np.reshape(powers, pts.shape)
    return complex(vals) if pts.ndim == 0 else vals


def check_pairs(pairs) -> None:
    """ZeroPairing's partner checks pair by pair, in order: every check of
    ztransform._check_pair on every pair, raising at the first that fails."""
    for g, h in np.asarray(pairs, dtype=np.complex128).reshape(-1, 2).tolist():
        _check_pair(g, h)


def fourier_intensity(x: ComplexSignal, omegas) -> SpectrumSamples:
    """|X(omega_j)|^2 with X(omega) = sum_n x(n) exp(-i omega n), as samples."""
    om = np.asarray(omegas, dtype=np.float64).reshape(-1)
    return SpectrumSamples(om, _intensity_values(x, om))


def intensity_loss(z: ComplexSignal, s: SpectrumSamples) -> float:
    """sum_j (|Z(omega_j)|^2 - R_j)^2 on the angles of s: the loss that
    solvers' Wirtinger flow passes report."""
    return float(np.sum((_intensity_values(z, s.omegas) - s.values) ** 2))


def wirtinger_gradient(z: ComplexSignal, s: SpectrumSamples) -> np.ndarray:
    """Gradient of intensity_loss with respect to (Re z, Im z), as a complex vector.

    4 * sum_j (|Z(omega_j)|^2 - R_j) * Z(omega_j) * conj(row_j), where row_j
    is the j-th sampling row exp(-i omega_j n). Matches central finite
    differences of intensity_loss.
    """
    rows = _intensity_rows(s.omegas, z.n)
    zh = rows @ z.entries
    diff = np.abs(zh) ** 2 - s.values
    return 4.0 * (rows.conj().T @ (diff * zh))


def witnesses_by_scan(pp: PPInstance):
    """hardness._witnesses as a scan of every subset: solution subsets in
    increasing integer encoding (bit k-1 is index k), tested by the exact,
    division-free identity prod_Gamma^2 == u_N * prod(all of u_1..u_{N-1}).
    """
    if pp.n > BRUTE_FORCE_BUDGET:
        raise BudgetExceeded(f"N={pp.n} exceeds brute-force budget {BRUTE_FORCE_BUDGET}")
    rest = pp.u[:-1]
    target = pp.u[-1]
    p = len(rest)
    total = math.prod(rest)
    for v in range(1 << p):
        gamma_prod = 1
        for k in range(p):
            if (v >> k) & 1:
                gamma_prod *= rest[k]
        if gamma_prod * gamma_prod == target * total:
            yield frozenset(k + 1 for k in range(p) if (v >> k) & 1)
