"""Phase retrieval solvers over sampled intensity data.

Instances carry a zero pairing, an anchor x(0), and intensity samples on
a uniform grid (default four samples per signal entry). Three iterative
schemes and one exact enumeration oracle share the instance type:

- error reduction: alternating projection between the magnitude torus and
  the support-plus-anchor subspace; its amplitude loss never increases.
- hybrid input-output: the classic feedback relaxation; not monotone.
- Wirtinger flow: plain gradient descent on the squared intensity misfit.
- oracle: test the root product of every selection against the anchor
  and expand only the survivor.

Iterative schemes run on a copy of the instance rescaled so r(0) = 1 and
report iterates and losses in original units; every reported iterate has
z(0) = x0 exactly (the anchor projection is applied last).

Each iterative scheme is a generator of passes, one (iterate, loss) per
pass, and one driver runs all three under one stop rule: a run stops
after the first pass whose loss is <= loss_tol (converged) or after
max_iters + 1 passes, that is max_iters updates, whichever comes first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import StepDiverged
from .signal_core import (
    ComplexSignal,
    SpectrumSamples,
    autocorrelation,
    check_uniform_grid,
    fourier_intensity,
    frozen,
    spectrum_from_autocorr,
    uniform_grid,
)
from .ztransform import ZeroPairing, factor, spectrum_from_pairing
from . import ambiguity


def grid_size(n: int, grid_mult: int = 4) -> int:
    """Samples M = grid_mult * n, at least the 2n-1 that fix the autocorrelation."""
    return max(grid_mult * n, 2 * n - 1)


@dataclass(frozen=True, eq=False)
class PRInstance:
    """One retrieval problem: pairing, anchor x(0) != 0, intensity samples."""

    pairing: ZeroPairing
    anchor: complex
    grid: SpectrumSamples
    normalization: float

    def __post_init__(self):
        anchor = complex(self.anchor)
        if anchor == 0:
            raise ValueError("anchor x(0) must be nonzero")
        if self.normalization <= 0:
            raise ValueError("normalization must be positive")
        object.__setattr__(self, "anchor", anchor)
        object.__setattr__(self, "normalization", float(self.normalization))

    @property
    def n(self) -> int:
        return self.pairing.n_pairs + 1

    @classmethod
    def _sampled(cls, pairing: ZeroPairing, anchor: complex, n: int, grid_mult: int, intensity) -> "PRInstance":
        """Sample intensity(omegas) on the uniform grid of grid_size(n,
        grid_mult) points; the normalization sqrt(mean of the samples) is
        sqrt(r(0)) on such a grid."""
        om = uniform_grid(grid_size(n, grid_mult))
        vals = intensity(om)
        norm = math.sqrt(max(float(np.mean(vals)), np.finfo(float).tiny))
        return cls(pairing, anchor, SpectrumSamples(om, vals), norm)

    @classmethod
    def from_pairing(cls, pairing: ZeroPairing, anchor: complex, grid_mult: int = 4) -> "PRInstance":
        """Build the uniform sample grid (M = grid_mult * N, at least 2N-1) from a pairing."""
        return cls._sampled(pairing, anchor, pairing.n_pairs + 1, grid_mult,
                            lambda om: spectrum_from_pairing(pairing, om))

    @classmethod
    def from_signal(cls, x: ComplexSignal, grid_mult: int = 4, pairing: ZeroPairing | None = None) -> "PRInstance":
        """Instance whose ground truth is x; the spectrum is computed exactly from x."""
        r = autocorrelation(x)
        if pairing is None:
            pairing = factor(r)
        tol = 1e-9 * (float(np.sum(np.abs(r.entries))) + 1.0)
        return cls._sampled(pairing, complex(x.entries[0]), x.n, grid_mult,
                            lambda om: np.maximum(spectrum_from_autocorr(r, om, tol=tol).values, 0.0))


@dataclass(frozen=True)
class SolverConfig:
    """Iteration knobs shared by all solvers.

    step_size applies to the r(0)-normalized problem the iterative
    schemes actually run on; loss_tol is compared in original units.
    """

    max_iters: int = 500
    loss_tol: float = 1e-12
    step_size: float = 1e-3
    beta_hio: float = 0.9
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not 0.0 < self.beta_hio < 1.0:
            raise ValueError("beta_hio must lie in (0, 1)")
        if self.step_size <= 0:
            raise ValueError("step_size must be positive")
        if self.loss_tol < 0:
            raise ValueError("loss_tol must be nonnegative")


@dataclass(frozen=True, eq=False)
class IterateTrace:
    """Iterates with matching per-iterate losses (amplitude loss for
    error reduction / HIO / oracle, intensity loss for Wirtinger flow)."""

    iterates: tuple
    losses: np.ndarray
    converged: bool

    def __post_init__(self):
        # one row per iterate, so that the empty trace passes too
        losses = frozen(np.asarray(self.losses, dtype=np.float64).reshape(-1, 1), "loss", 2)[:, 0]
        if len(self.iterates) != losses.size:
            raise ValueError("one loss per iterate required")
        if (losses < 0).any():
            raise ValueError("losses must be nonnegative")
        object.__setattr__(self, "iterates", tuple(self.iterates))
        object.__setattr__(self, "losses", losses)

    @property
    def final(self) -> ComplexSignal:
        return self.iterates[-1]


def amplitude_loss(z: ComplexSignal, s: SpectrumSamples) -> float:
    """sum_j (|Z(omega_j)| - sqrt(R_j))^2 on the angles of s."""
    ivals = fourier_intensity(z, s.omegas).values
    return float(np.sum((np.sqrt(ivals) - np.sqrt(np.maximum(s.values, 0.0))) ** 2))


def intensity_loss(z: ComplexSignal, s: SpectrumSamples) -> float:
    """sum_j (|Z(omega_j)|^2 - R_j)^2 on the angles of s."""
    ivals = fourier_intensity(z, s.omegas).values
    return float(np.sum((ivals - s.values) ** 2))


def wirtinger_gradient(z: ComplexSignal, s: SpectrumSamples) -> np.ndarray:
    """Gradient of intensity_loss with respect to (Re z, Im z), as a complex vector.

    4 * sum_j (|Z(omega_j)|^2 - R_j) * Z(omega_j) * conj(row_j), where row_j
    is the j-th sampling row exp(-i omega_j n). Matches central finite
    differences of intensity_loss.
    """
    rows = np.exp(-1j * np.outer(s.omegas, np.arange(z.n)))
    zh = rows @ z.entries
    diff = np.abs(zh) ** 2 - s.values
    return 4.0 * (rows.conj().T @ (diff * zh))


def _normalized_setup(inst: PRInstance, cfg: SolverConfig, start):
    # the FFT passes sample the grid 2*pi*j/m and nothing else
    check_uniform_grid(inst.grid, inst.n)
    n = inst.n
    m = inst.grid.m
    r0 = inst.normalization ** 2
    target = np.sqrt(np.maximum(inst.grid.values, 0.0) / r0)
    anchor_n = inst.anchor / inst.normalization
    if start is None:
        rng = np.random.default_rng(cfg.seed)
        z0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    else:
        if start.n != n:
            raise ValueError("start length must match instance size")
        z0 = start.entries / inst.normalization
    field = np.zeros(m, dtype=np.complex128)
    field[:n] = z0
    field[0] = anchor_n
    return field, target, anchor_n, r0


def _emit(inst: PRInstance, rows: list) -> list:
    """One run's normalized iterates in original units, anchor imposed."""
    out = inst.normalization * np.array(rows)
    out[:, 0] = inst.anchor
    return ComplexSignal.from_rows(out)


def _drive(passes, inst: PRInstance, cfg: SolverConfig | None, start) -> IterateTrace:
    """Run one scheme's pass generator under the shared stop rule.

    passes(n, cfg, field, target, anchor_n, r0) yields one (normalized
    row, loss in original units) per pass. islice never resumes it past
    the last allowed pass, so no update beyond the reported iterates is
    computed.
    """
    cfg = cfg or SolverConfig()
    setup = _normalized_setup(inst, cfg, start)
    rows, losses = [], []
    for row, loss in islice(passes(inst.n, cfg, *setup), cfg.max_iters + 1):
        rows.append(row)
        losses.append(loss)
        if loss <= cfg.loss_tol:
            break
    return IterateTrace(_emit(inst, rows), np.array(losses), losses[-1] <= cfg.loss_tol)


def _mag_project(field_hat: np.ndarray, target: np.ndarray) -> np.ndarray:
    mags = np.abs(field_hat)
    phase = np.where(mags > 0, field_hat / np.where(mags > 0, mags, 1.0), 1.0 + 0j)
    return target * phase


def _er_passes(n, cfg, field, target, anchor_n, r0):
    while True:
        fh = np.fft.fft(field)
        yield field[:n].copy(), r0 * float(np.sum((np.abs(fh) - target) ** 2))
        w = np.fft.ifft(_mag_project(fh, target))
        field = np.zeros_like(field)
        field[:n] = w[:n]
        field[0] = anchor_n


def error_reduction_solve(inst: PRInstance, cfg: SolverConfig | None = None, start: ComplexSignal | None = None) -> IterateTrace:
    """Alternating projections; amplitude loss is non-increasing by construction.

    Each cycle replaces sampled magnitudes with sqrt(R) and then projects
    back onto signals supported on 0..N-1 with z(0) = x0. Both steps are
    metric projections in the padded coordinate space, which is what
    yields the monotone loss.
    """
    return _drive(_er_passes, inst, cfg, start)


def _hio_passes(n, cfg, field, target, anchor_n, r0):
    beta = cfg.beta_hio
    while True:
        fh = np.fft.fft(field)
        w = np.fft.ifft(_mag_project(fh, target))
        rep = w[:n].copy()
        rep[0] = anchor_n
        rep_hat = np.fft.fft(rep, n=field.size)
        yield rep, r0 * float(np.sum((np.abs(rep_hat) - target) ** 2))
        nxt = np.empty_like(field)
        nxt[:n] = w[:n]
        nxt[0] = field[0] - beta * (w[0] - anchor_n)
        nxt[n:] = field[n:] - beta * w[n:]
        field = nxt


def hio_solve(inst: PRInstance, cfg: SolverConfig | None = None, start: ComplexSignal | None = None) -> IterateTrace:
    """Hybrid input-output with feedback parameter beta_hio.

    The driving field keeps the magnitude-projected output inside the
    support and applies the feedback d - beta * (output - constraint)
    where the constraints are violated: off-support entries (target 0)
    and the anchor entry (target x0). Reported iterates are the
    support-truncated outputs with the anchor imposed; no loss
    monotonicity is promised.
    """
    return _drive(_hio_passes, inst, cfg, start)


def _wf_passes(n, cfg, field, target, anchor_n, r0):
    m = field.size
    r_target = target ** 2
    z = field[:n].copy()
    loss0 = None
    while True:
        zh = np.fft.fft(z, n=m)
        diff = np.abs(zh) ** 2 - r_target
        loss_n = float(np.sum(diff ** 2))
        if loss0 is None:
            loss0 = max(loss_n, np.finfo(float).tiny)
        if not np.isfinite(loss_n) or loss_n > 1e12 * loss0:
            raise StepDiverged(f"intensity loss reached {loss_n:.3e} from {loss0:.3e}")
        yield z, r0 ** 2 * loss_n
        grad = 4.0 * m * np.fft.ifft(diff * zh)[:n]
        z = z - cfg.step_size * grad
        z[0] = anchor_n


def wirtinger_flow_solve(inst: PRInstance, cfg: SolverConfig | None = None, start: ComplexSignal | None = None) -> IterateTrace:
    """Fixed-step gradient descent on the intensity loss.

    Raises StepDiverged once the loss exceeds 1e12 times its initial
    value (or stops being finite).
    """
    return _drive(_wf_passes, inst, cfg, start)


def oracle_solve(inst: PRInstance, cfg: SolverConfig | None = None, start: ComplexSignal | None = None) -> IterateTrace:
    """Exact solve by exhaustive search: test every selection's root product
    against the anchor and expand only the survivors.

    Returns the first anchor-consistent selection in choice-vector order
    as a single-iterate trace. NoFeasibleSolution propagates when the
    anchor rules every selection out; the enumeration budget applies.
    """
    del cfg, start
    _, sig = ambiguity.anchored_solutions(inst.pairing, inst.anchor).solutions[0]
    out = sig.entries.copy()
    out[0] = inst.anchor
    found = ComplexSignal(out)
    loss = amplitude_loss(found, inst.grid)
    return IterateTrace((found,), np.array([loss]), True)


def reduction_iteration_budget(n: int, u_max: int) -> int:
    """Iteration allowance 100 * n^2 * ceil(log2(u_max + 2)) for reduction runs."""
    return 100 * n * n * math.ceil(math.log2(u_max + 2))


SOLVERS = {
    "er": error_reduction_solve,
    "hio": hio_solve,
    "wf": wirtinger_flow_solve,
    "oracle": oracle_solve,
}
