"""Phase retrieval solvers over sampled intensity data.

Instances carry a zero pairing, an anchor x(0), and intensity samples on
a uniform grid (default four samples per signal entry). An instance
given no samples takes them from the pairing's spectrum on first read.
The oracle reads them only when its trace's loss is read, so a decide
round, which reads only the iterate, never samples its intensity.
Three iterative schemes and one exact enumeration oracle share the
instance type:

- error reduction: alternating projection between the magnitude torus and
  the support-plus-anchor subspace; its amplitude loss never increases.
- hybrid input-output: the classic feedback relaxation; not monotone.
- Wirtinger flow: plain gradient descent on the squared intensity misfit.
- oracle: search the selections whose root-product modulus can match
  the anchor, check only those exactly, and expand and return the first
  survivor; its amplitude loss is computed on the trace's first read of
  losses.

Iterative schemes run on a copy of the instance rescaled so r(0) = 1 and
report iterates and losses in original units; every reported iterate has
z(0) = x0 exactly (the anchor projection is applied last).

Each iterative scheme is a generator of passes, one (iterate, loss) per
pass, and one driver runs all three under one stop rule: a run stops
after the first pass whose loss is <= loss_tol (converged) or after
max_iters + 1 passes, that is max_iters updates, whichever comes first.
A generator allocates its work arrays once per run and writes every FFT
and ufunc result into them through out=; each row it yields is a new
array that no later pass writes. The transforms call numpy's pocketfft
gufuncs (_fft, _ifft) with the factor numpy.fft's wrappers pass them:
1 forward, 1/M inverse. The wrappers' Python argument handling costs
more than a 12- to 48-point transform itself, and each pass makes two
or three transforms. The gufunc zero-pads an input shorter than its out
array, as fft(a, n=M) does, and its output is bitwise the wrapper's.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import InitVar, dataclass
from functools import cached_property
from itertools import islice

import numpy as np
from numpy.fft._pocketfft_umath import fft as _fft, ifft as _ifft

from .errors import StepDiverged
from .signal_core import (
    ComplexSignal,
    SpectrumSamples,
    _intensity_values,
    autocorrelation,
    check_uniform_grid,
    checked_tol,
    frozen,
    spectrum_from_autocorr,
    uniform_grid,
)
from .ztransform import ZeroPairing, factor, spectrum_from_pairing
from . import ambiguity

_GRID_MULT = 4


def grid_size(n: int, grid_mult: int = _GRID_MULT) -> int:
    """Samples M = grid_mult * n, at least the 2n-1 that fix the autocorrelation."""
    return max(grid_mult * n, 2 * n - 1)


@dataclass(frozen=True, eq=False)
class PRInstance:
    """One retrieval problem: pairing, finite anchor x(0) != 0, intensity samples.

    Given samples are the grid from the start. Without them the pairing's
    spectrum is sampled on the first read of grid or normalization, as
    from_pairing samples it, and kept; a pairing whose spectrum cannot be
    sampled then fails at that read. from_pairing and from_signal sample
    at once, so they refuse such a pairing when the instance is built.
    """

    pairing: ZeroPairing
    anchor: complex
    samples: InitVar[SpectrumSamples | None] = None

    def __post_init__(self, samples):
        anchor = complex(self.anchor)
        if anchor == 0 or not cmath.isfinite(anchor):
            raise ValueError(f"anchor x(0) must be finite and nonzero, got {anchor}")
        object.__setattr__(self, "anchor", anchor)
        if samples is not None:
            object.__setattr__(self, "grid", samples)

    @cached_property
    def grid(self) -> SpectrumSamples:
        return _pairing_samples(self.pairing, _GRID_MULT)

    @property
    def n(self) -> int:
        return self.pairing.n_pairs + 1

    @property
    def normalization(self) -> float:
        """sqrt of the mean sample, floored at the smallest normal double:
        sqrt(r(0)) on a uniform grid of at least 2N-1 points."""
        return math.sqrt(max(float(np.mean(self.grid.values)), np.finfo(float).tiny))

    @classmethod
    def from_pairing(cls, pairing: ZeroPairing, anchor: complex, grid_mult: int = _GRID_MULT) -> "PRInstance":
        """Build the uniform sample grid (M = grid_mult * N, at least 2N-1) from a pairing."""
        return cls(pairing, anchor, _pairing_samples(pairing, grid_mult))

    @classmethod
    def from_signal(cls, x: ComplexSignal, pairing: ZeroPairing | None = None) -> "PRInstance":
        """Instance whose ground truth is x; the spectrum is computed exactly from x."""
        r = autocorrelation(x)
        if pairing is None:
            pairing = factor(r)
        om = uniform_grid(grid_size(x.n))
        samples = SpectrumSamples(om, np.maximum(spectrum_from_autocorr(r, om).values, 0.0))
        return cls(pairing, complex(x.entries[0]), samples)


def _pairing_samples(pairing: ZeroPairing, grid_mult: int) -> SpectrumSamples:
    """The pairing's spectrum on the uniform grid of grid_size(N, grid_mult) points."""
    om = uniform_grid(grid_size(pairing.n_pairs + 1, grid_mult))
    return SpectrumSamples(om, spectrum_from_pairing(pairing, om))


@dataclass(frozen=True)
class SolverConfig:
    """Iteration knobs shared by all solvers.

    step_size applies to the r(0)-normalized problem the iterative
    schemes actually run on; loss_tol is compared in original units.
    step_size must be finite and positive and loss_tol finite and
    nonnegative: a NaN loss_tol would never let a run converge.
    """

    max_iters: int = 500
    loss_tol: float = 1e-12
    step_size: float = 1e-3
    beta_hio: float = 0.9
    seed: int = 0

    def __post_init__(self):
        try:
            max_iters = operator.index(self.max_iters)
        except TypeError:
            max_iters = None
        if max_iters is None or max_iters < 1:
            raise ValueError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")
        object.__setattr__(self, "max_iters", max_iters)
        if not 0.0 < self.beta_hio < 1.0:
            raise ValueError("beta_hio must lie in (0, 1)")
        checked_tol(self.step_size, "step_size", positive=True)
        checked_tol(self.loss_tol, "loss_tol")


def _checked_losses(iterates: tuple, losses) -> np.ndarray:
    """losses as a read-only 1-D float array, once it holds one finite,
    nonnegative loss per iterate; ValueError otherwise."""
    # one row per iterate, so that the empty trace passes too
    losses = frozen(np.asarray(losses, dtype=np.float64).reshape(-1, 1), "loss", 2)[:, 0]
    if len(iterates) != losses.size:
        raise ValueError("one loss per iterate required")
    if (losses < 0).any():
        raise ValueError("losses must be nonnegative")
    return losses


@dataclass(frozen=True, eq=False)
class IterateTrace:
    """Iterates with matching per-iterate losses (amplitude loss for
    error reduction / HIO / oracle, intensity loss for Wirtinger flow).

    The constructor checks the losses at once. The oracle's trace defers
    its one loss: it is computed and checked the same way on the first
    read of losses, kept, and any error of that computation is raised by
    each read until one succeeds.
    """

    iterates: tuple
    losses: np.ndarray
    converged: bool

    def __post_init__(self):
        losses = _checked_losses(self.iterates, self.losses)
        object.__setattr__(self, "iterates", tuple(self.iterates))
        object.__setattr__(self, "losses", losses)

    @classmethod
    def _deferred(cls, iterates: tuple, loss, converged: bool) -> "IterateTrace":
        """A trace whose losses are loss() on their first read."""
        trace = object.__new__(cls)
        object.__setattr__(trace, "iterates", iterates)
        object.__setattr__(trace, "converged", converged)
        object.__setattr__(trace, "_loss", loss)
        return trace

    def __getattr__(self, name):
        # reached only when lookup fails: for losses, the first read of a
        # deferred trace. Once they are kept, the trace drops loss and with
        # it what loss holds; setdefault keeps one array if two reads race.
        state = self.__dict__
        loss = state.get("_loss") if name == "losses" else None
        if loss is not None:
            state.setdefault("losses", _checked_losses(self.iterates, loss()))
            state.pop("_loss", None)
        if name == "losses" and "losses" in state:
            return state["losses"]
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    @property
    def final(self) -> ComplexSignal:
        return self.iterates[-1]


def amplitude_loss(z: ComplexSignal, s: SpectrumSamples) -> float:
    """sum_j (|Z(omega_j)| - sqrt(R_j))^2 on the angles of s."""
    ivals = _intensity_values(z, s.omegas)
    return float(np.sum((np.sqrt(ivals) - np.sqrt(np.maximum(s.values, 0.0))) ** 2))


def _normalized_setup(inst: PRInstance, cfg: SolverConfig):
    # the FFT passes sample the grid 2*pi*j/m and nothing else
    check_uniform_grid(inst.grid, inst.n)
    n = inst.n
    m = inst.grid.m
    norm = inst.normalization
    r0 = norm ** 2
    target = np.sqrt(np.maximum(inst.grid.values, 0.0) / r0)
    anchor_n = inst.anchor / norm
    rng = np.random.default_rng(cfg.seed)
    z0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    field = np.zeros(m, dtype=np.complex128)
    field[:n] = z0
    field[0] = anchor_n
    return norm, (field, target, anchor_n, r0)


def _emit(inst: PRInstance, norm: float, rows: list) -> list:
    """One run's normalized iterates in original units, anchor imposed."""
    out = norm * np.array(rows)
    out[:, 0] = inst.anchor
    return ComplexSignal.from_rows(out)


def _drive(passes, inst: PRInstance, cfg: SolverConfig | None) -> IterateTrace:
    """Run one scheme's pass generator under the shared stop rule.

    passes(n, cfg, field, target, anchor_n, r0) yields one (normalized
    row, loss in original units) per pass. islice never resumes it past
    the last allowed pass, so no update beyond the reported iterates is
    computed.
    """
    cfg = cfg or SolverConfig()
    norm, setup = _normalized_setup(inst, cfg)
    rows, losses = [], []
    for row, loss in islice(passes(inst.n, cfg, *setup), cfg.max_iters + 1):
        rows.append(row)
        losses.append(loss)
        if loss <= cfg.loss_tol:
            break
    return IterateTrace(_emit(inst, norm, rows), np.array(losses), losses[-1] <= cfg.loss_tol)


def _mag_project(fh: np.ndarray, target: np.ndarray, mags: np.ndarray, pos: np.ndarray, ph: np.ndarray) -> None:
    """ph = target * fh / |fh|, with phase 1 where |fh| is not positive; mags holds |fh|.

    The division is numpy's promoted complex division, the operation
    fh / mags performs, whatever its rounding on a given numpy.
    """
    ph.fill(1.0)
    np.greater(mags, 0.0, out=pos)
    np.divide(fh, mags, out=ph, where=pos)
    np.multiply(target, ph, out=ph)


def _amplitude_misfit(fh: np.ndarray, target: np.ndarray, mags: np.ndarray, d: np.ndarray) -> float:
    """sum (|fh| - target)^2, leaving |fh| in mags."""
    np.abs(fh, out=mags)
    np.subtract(mags, target, out=d)
    np.square(d, out=d)
    return float(d.sum())


def _er_passes(n, cfg, field, target, anchor_n, r0):
    # field is this run's own array: its tail stays zero and its head is
    # rewritten each pass; the other work arrays are allocated once here
    m = field.size
    fh, ph = np.empty(m, np.complex128), np.empty(m, np.complex128)
    mags, d, pos = np.empty(m), np.empty(m), np.empty(m, bool)
    inv = 1.0 / m
    while True:
        _fft(field, 1.0, out=fh)
        yield field[:n].copy(), r0 * _amplitude_misfit(fh, target, mags, d)
        _mag_project(fh, target, mags, pos, ph)
        _ifft(ph, inv, out=fh)
        field[:n] = fh[:n]
        field[0] = anchor_n


def error_reduction_solve(inst: PRInstance, cfg: SolverConfig | None = None) -> IterateTrace:
    """Alternating projections; amplitude loss is non-increasing by construction.

    Each cycle replaces sampled magnitudes with sqrt(R) and then projects
    back onto signals supported on 0..N-1 with z(0) = x0. Both steps are
    metric projections in the padded coordinate space, which is what
    yields the monotone loss.
    """
    return _drive(_er_passes, inst, cfg)


def _hio_passes(n, cfg, field, target, anchor_n, r0):
    beta = cfg.beta_hio
    m = field.size
    fh, ph, w = np.empty(m, np.complex128), np.empty(m, np.complex128), np.empty(m, np.complex128)
    mags, d, pos = np.empty(m), np.empty(m), np.empty(m, bool)
    inv = 1.0 / m
    while True:
        _fft(field, 1.0, out=fh)
        np.abs(fh, out=mags)
        _mag_project(fh, target, mags, pos, ph)
        _ifft(ph, inv, out=w)
        rep = w[:n].copy()
        rep[0] = anchor_n
        _fft(rep, 1.0, out=fh)
        yield rep, r0 * _amplitude_misfit(fh, target, mags, d)
        # the feedback reads field[0] and field[n:] before they are overwritten
        head = field[0] - beta * (w[0] - anchor_n)
        tail = field[n:]
        np.multiply(beta, w[n:], out=w[n:])
        np.subtract(tail, w[n:], out=tail)
        field[:n] = w[:n]
        field[0] = head


def hio_solve(inst: PRInstance, cfg: SolverConfig | None = None) -> IterateTrace:
    """Hybrid input-output with feedback parameter beta_hio.

    The driving field keeps the magnitude-projected output inside the
    support and applies the feedback d - beta * (output - constraint)
    where the constraints are violated: off-support entries (target 0)
    and the anchor entry (target x0). Reported iterates are the
    support-truncated outputs with the anchor imposed; no loss
    monotonicity is promised.
    """
    return _drive(_hio_passes, inst, cfg)


def _wf_passes(n, cfg, field, target, anchor_n, r0):
    m = field.size
    r_target = np.square(target)
    z = field[:n].copy()
    zh, g = np.empty(m, np.complex128), np.empty(m, np.complex128)
    diff, d2 = np.empty(m), np.empty(m)
    inv = 1.0 / m
    loss0 = None
    while True:
        _fft(z, 1.0, out=zh)
        np.abs(zh, out=diff)
        np.square(diff, out=diff)
        np.subtract(diff, r_target, out=diff)
        np.square(diff, out=d2)
        loss_n = float(d2.sum())
        if loss0 is None:
            loss0 = max(loss_n, np.finfo(float).tiny)
        if not np.isfinite(loss_n) or loss_n > 1e12 * loss0:
            raise StepDiverged(f"intensity loss reached {loss_n:.3e} from {loss0:.3e}")
        yield z, r0 ** 2 * loss_n
        np.multiply(diff, zh, out=g)
        _ifft(g, inv, out=zh)
        grad = zh[:n]
        np.multiply(4.0 * m, grad, out=grad)
        np.multiply(cfg.step_size, grad, out=grad)
        z = z - grad
        z[0] = anchor_n


def wirtinger_flow_solve(inst: PRInstance, cfg: SolverConfig | None = None) -> IterateTrace:
    """Fixed-step gradient descent on the intensity loss.

    Raises StepDiverged once the loss exceeds 1e12 times its initial
    value (or stops being finite).
    """
    return _drive(_wf_passes, inst, cfg)


def oracle_solve(inst: PRInstance, cfg: SolverConfig | None = None) -> IterateTrace:
    """Exact solve by exhaustive search over root selections.

    ambiguity.first_anchored_row sums every selection's root log-moduli,
    checks only the selections whose sum falls in the anchor's window
    against the anchor exactly, and expands the first survivor. Returns
    that first anchor-consistent selection in choice-vector order as a
    single-iterate trace. NoFeasibleSolution propagates when the anchor
    rules every selection out; the enumeration budget applies.

    The trace's amplitude loss on the instance's grid is computed on its
    first read, so a caller that reads only the iterate never samples the
    grid. For an instance built without samples whose spectrum cannot be
    sampled, that read raises the sampling error, not this call.
    """
    del cfg
    out = ambiguity.first_anchored_row(inst.pairing, inst.anchor)
    out[0] = inst.anchor
    found = ComplexSignal(out)
    return IterateTrace._deferred((found,), lambda: np.array([amplitude_loss(found, inst.grid)]), True)


SOLVERS = {
    "er": error_reduction_solve,
    "hio": hio_solve,
    "wf": wirtinger_flow_solve,
    "oracle": oracle_solve,
}
