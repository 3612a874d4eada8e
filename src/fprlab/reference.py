"""Slow reference paths that the fast runtime paths are tested against.

Each function here spells out one definition directly, one selection or
one product at a time, and the tests prove the runtime engines of
``ambiguity`` bitwise equal to them. No runtime module imports this one;
``fprlab`` re-exports RootSelection, signal_from_selection and
product_constraint from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ambiguity import _anchor_power, _blocks, _check_budget, _residuals
from .signal_core import Autocorrelation, ComplexSignal
from .ztransform import ZeroPairing


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
