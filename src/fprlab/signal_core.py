"""Signals, autocorrelations, and sampled Fourier intensities.

The three types here are tied together by exact identities: the intensity
of a signal on a frequency grid equals the trigonometric sum of its
autocorrelation on that grid, and a fine enough uniform grid determines
the autocorrelation back again. Everything is a pure function on
immutable values.

Every array a value type holds, here and in ztransform, solvers and
ambiguity, passes through ``frozen`` once, when the value is built.
The constructor decides only whether it copies its input first; then
``frozen`` checks the block shape, at least one entry per row and that
every entry is finite, freezes the array that owns the data (copying
an array that does not) and hands back a read-only view of it. A view
cannot be made writable again while its owner is frozen, so no holder
of a value, nor of a signal cut from a block, can turn writes back on.
Signals built in bulk (ComplexSignal.from_rows, or read from an
ambiguity.SolutionSet) are such row views of one frozen block, so a
single kept signal keeps its whole block alive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ImaginaryResidueExceeded, InsufficientSamples, NonUniformGrid

DEFAULT_TOL = 1e-9


def frozen(arr: np.ndarray, what: str, ndim: int = 1) -> np.ndarray:
    """Check arr, freeze the array that holds its data and return a read-only view.

    arr must be ndim-D with at least one entry per row (along the last
    axis) and every entry finite; ValueError names it as what otherwise.
    The caller hands over arr: if it owns its data it is frozen in place,
    not copied; any other array is copied first, since only a frozen
    owner keeps its views from being made writable again.
    """
    if not arr.flags.owndata:
        arr = arr.copy()
    if arr.ndim != ndim:
        raise ValueError(f"{what} needs a {ndim}-D array, got {arr.ndim}-D")
    if arr.shape[-1] < 1:
        raise ValueError(f"{what} needs at least one entry")
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} entries must be finite")
    arr.setflags(write=False)
    return arr.view()


@dataclass(frozen=True, eq=False)
class ComplexSignal:
    """A finite complex sequence x(0..N-1), N >= 1.

    ``full_support=True`` additionally asserts x(0) != 0 and x(N-1) != 0,
    which is what makes the top autocorrelation lag nonzero and the root
    pairing machinery applicable.
    """

    entries: np.ndarray
    full_support: bool = False

    def __post_init__(self):
        arr = frozen(np.asarray(self.entries, dtype=np.complex128).flatten(), "signal")
        if self.full_support and (arr[0] == 0 or arr[-1] == 0):
            raise ValueError("full_support signal requires nonzero end entries")
        object.__setattr__(self, "entries", arr)

    @classmethod
    def from_rows(cls, rows) -> list:
        """One signal per row of a 2-D block, entry for entry equal to
        ComplexSignal(row), with full_support=False.

        The block is copied, checked and frozen once; each signal holds a
        read-only row view of that private copy.
        """
        return cls.row_views(frozen(np.array(rows, dtype=np.complex128), "signal", 2))

    @classmethod
    def row_views(cls, block: np.ndarray) -> list:
        """One signal per row of a 2-D block that frozen has passed, each
        holding a read-only row view of it: nothing is copied or checked."""
        out = []
        for row in block:
            sig = object.__new__(cls)
            object.__setattr__(sig, "entries", row)
            object.__setattr__(sig, "full_support", False)
            out.append(sig)
        return out

    @property
    def n(self) -> int:
        return self.entries.size

    def conj_reflect(self) -> "ComplexSignal":
        """Conjugate reflection x(k) -> conj(x(N-1-k)); a trivial ambiguity."""
        return ComplexSignal(np.conj(self.entries[::-1]), self.full_support)


@dataclass(frozen=True, eq=False)
class Autocorrelation:
    """Lags r(0..N-1); negative lags are implied by r(-n) = conj(r(n)).

    For an r that actually comes from a signal, r(0) is real nonnegative
    and dominates every |r(n)|, and the induced spectrum is nonnegative.
    Those facts are properties of the producing operations, not enforced
    here, so that corrupted values can be represented and then rejected
    by the residue checks downstream.
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = frozen(np.asarray(self.entries, dtype=np.complex128).flatten(), "autocorrelation")
        object.__setattr__(self, "entries", arr)

    @property
    def n(self) -> int:
        return self.entries.size

    def lag(self, k: int) -> complex:
        """r(k) for any integer k, zero outside |k| < N."""
        if abs(k) >= self.n:
            return 0j
        if k >= 0:
            return complex(self.entries[k])
        return complex(np.conj(self.entries[-k]))


@dataclass(frozen=True, eq=False)
class SpectrumSamples:
    """Real spectrum values on explicit angular frequencies."""

    omegas: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        om = frozen(np.asarray(self.omegas, dtype=np.float64).flatten(), "sample angles")
        vals = frozen(np.asarray(self.values, dtype=np.float64).flatten(), "sample values")
        if om.size != vals.size:
            raise ValueError("omegas and values must have equal length")
        object.__setattr__(self, "omegas", om)
        object.__setattr__(self, "values", vals)

    @property
    def m(self) -> int:
        return self.omegas.size


def uniform_grid(m: int) -> np.ndarray:
    """Angles 2*pi*j/m for j = 0..m-1."""
    if m < 1:
        raise ValueError("grid needs at least one point")
    return 2.0 * np.pi * np.arange(m) / m


def autocorrelation(x: ComplexSignal) -> Autocorrelation:
    """r(n) = sum_k conj(x(k)) * x(k+n), n = 0..N-1.

    Total on all signals; the implied negative lags carry conjugate
    symmetry automatically.
    """
    e = x.entries
    n = e.size
    r = np.array([np.vdot(e[: n - k], e[k:]) for k in range(n)], dtype=np.complex128)
    return Autocorrelation(r)


def fourier_intensity(x: ComplexSignal, omegas) -> SpectrumSamples:
    """|X(omega_j)|^2 with X(omega) = sum_n x(n) exp(-i omega n)."""
    om = np.asarray(omegas, dtype=np.float64).reshape(-1)
    phases = np.exp(-1j * np.outer(om, np.arange(x.n)))
    vals = np.abs(phases @ x.entries) ** 2
    return SpectrumSamples(om, vals)


def spectrum_from_autocorr(r: Autocorrelation, omegas, tol: float = DEFAULT_TOL) -> SpectrumSamples:
    """Evaluate R(omega) = sum_{|n|<N} r(n) exp(-i omega n) on the given angles.

    Parameters
    ----------
    r : Autocorrelation
        Stored nonnegative lags; negative lags are their conjugates.
    omegas : array_like
        Angles to evaluate on, any real values.
    tol : float
        Absolute bound on the imaginary residue of the sum, finite and
        nonnegative. A clean r produces an exactly conjugate-symmetric
        sum, so residue beyond tol signals corrupted input.

    Raises
    ------
    ValueError
        If tol is negative or not finite (NaN would turn the check off).
    ImaginaryResidueExceeded
        If any sample's imaginary part exceeds tol before clamping.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"imaginary residue tol must be finite and nonnegative, got {tol}")
    om = np.asarray(omegas, dtype=np.float64).reshape(-1)
    n = r.n
    lags = np.arange(-(n - 1), n)
    full = np.concatenate([np.conj(r.entries[:0:-1]), r.entries])
    vals = np.exp(-1j * np.outer(om, lags)) @ full
    worst = float(np.max(np.abs(vals.imag), initial=0.0))
    if worst > tol:
        raise ImaginaryResidueExceeded(
            f"imaginary residue {worst:.3e} exceeds tol {tol:.3e}"
        )
    return SpectrumSamples(om, vals.real)


def check_uniform_grid(s: SpectrumSamples, n: int, tol: float = DEFAULT_TOL) -> None:
    """Raise InsufficientSamples unless m >= 2n-1, and NonUniformGrid
    unless the sample angles are 2*pi*j/m within tol."""
    m = s.m
    if m < 2 * n - 1:
        raise InsufficientSamples(f"m={m} samples cannot determine {n} lags (need {2 * n - 1})")
    if np.max(np.abs(s.omegas - uniform_grid(m))) > tol:
        raise NonUniformGrid("sample angles must be 2*pi*j/m")


def autocorr_from_spectrum(s: SpectrumSamples, n: int, tol: float = DEFAULT_TOL) -> Autocorrelation:
    """Invert uniform samples of R back to lags r(0..n-1).

    Needs m >= 2n-1 samples on the uniform grid 2*pi*j/m; then the lags
    are exact trigonometric moments r(k) = (1/m) sum_j R_j exp(i omega_j k).

    Raises
    ------
    InsufficientSamples
        If m < 2n-1.
    NonUniformGrid
        If the sample angles are not 2*pi*j/m within tol.
    """
    if n < 1:
        raise ValueError("n must be positive")
    check_uniform_grid(s, n, tol)
    phases = np.exp(1j * np.outer(np.arange(n), s.omegas))
    r = (phases @ s.values.astype(np.complex128)) / s.m
    return Autocorrelation(r)
