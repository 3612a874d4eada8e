import warnings

import numpy as np
import pytest
from conftest import entries_lists
from hypothesis import given, settings
from hypothesis import strategies as st

from fprlab import signal_core, solvers
from fprlab.ambiguity import SolutionSet, anchored_solutions, enumerate_solutions
from fprlab.errors import (
    ImaginaryResidueExceeded,
    InsufficientSamples,
    NonUniformGrid,
)
from fprlab.signal_core import (
    DEFAULT_TOL,
    Autocorrelation,
    ComplexSignal,
    SpectrumSamples,
    autocorr_from_spectrum,
    autocorrelation,
    spectrum_from_autocorr,
    uniform_grid,
)
from fprlab.reference import fourier_intensity, spectrum_by_pairs
from fprlab.solvers import PRInstance, SolverConfig, amplitude_loss, error_reduction_solve, oracle_solve
from fprlab.ztransform import build_S_poly, factor, spectrum_from_pairing


def autocorr_by_loops(e):
    # reference definition, written as the literal double sum
    n = len(e)
    out = []
    for k in range(n):
        acc = 0j
        for j in range(n - k):
            acc += np.conj(e[j]) * e[j + k]
        out.append(acc)
    return np.array(out)


@given(entries_lists())
@settings(max_examples=150)
def test_autocorrelation_matches_double_loop(vals):
    x = ComplexSignal(np.array(vals))
    r = autocorrelation(x)
    assert np.allclose(r.entries, autocorr_by_loops(vals), rtol=1e-12, atol=1e-12)


def test_autocorrelation_frozen_values():
    r = autocorrelation(ComplexSignal(np.array([1.0, -2.0])))
    assert np.allclose(r.entries, [5.0, -2.0])
    r = autocorrelation(ComplexSignal(np.array([9.0, 45.0, 54.0])))
    assert np.allclose(r.entries, [5022.0, 2835.0, 486.0])
    r = autocorrelation(ComplexSignal(np.array([1.0, 2.0j])))
    assert np.allclose(r.entries, [5.0, 2.0j])


@given(entries_lists())
@settings(max_examples=100)
def test_r0_is_energy(vals):
    r = autocorrelation(ComplexSignal(np.array(vals)))
    energy = float(np.sum(np.abs(np.array(vals)) ** 2))
    assert r.entries[0].imag == pytest.approx(0.0, abs=1e-12 * (energy + 1))
    assert r.entries[0].real == pytest.approx(energy, rel=1e-12, abs=1e-12)


def test_lag_symmetry_and_support():
    r = Autocorrelation(np.array([5.0, 1.0 + 2.0j]))
    assert r.lag(1) == 1.0 + 2.0j
    assert r.lag(-1) == 1.0 - 2.0j
    assert r.lag(2) == 0j
    assert r.lag(-2) == 0j


@given(entries_lists(max_n=8), st.integers(min_value=1, max_value=40))
@settings(max_examples=100)
def test_intensity_equals_autocorr_spectrum(vals, m):
    x = ComplexSignal(np.array(vals))
    om = uniform_grid(m)
    direct = fourier_intensity(x, om)
    r = autocorrelation(x)
    scale = float(np.sum(np.abs(r.entries))) + 1.0
    via_r = spectrum_from_autocorr(r, om)
    assert np.allclose(direct.values, via_r.values, rtol=1e-9, atol=1e-9 * scale)
    assert float(np.min(via_r.values)) >= -1e-9 * scale


@given(entries_lists(max_n=8), st.integers(min_value=0, max_value=30))
@settings(max_examples=100)
def test_spectrum_roundtrip_recovers_lags(vals, extra):
    x = ComplexSignal(np.array(vals))
    n = x.n
    m = 2 * n - 1 + extra
    r = autocorrelation(x)
    scale = float(np.sum(np.abs(r.entries))) + 1.0
    s = spectrum_from_autocorr(r, uniform_grid(m))
    back = autocorr_from_spectrum(s, n)
    assert np.allclose(back.entries, r.entries, rtol=1e-9, atol=1e-9 * scale)


def test_roundtrip_at_minimal_grid():
    x = ComplexSignal(np.array([1.0, 2.0 - 1.0j, 0.5j]))
    r = autocorrelation(x)
    s = spectrum_from_autocorr(r, uniform_grid(5))
    back = autocorr_from_spectrum(s, 3)
    assert np.allclose(back.entries, r.entries, atol=1e-12)


def test_insufficient_samples_rejected():
    x = ComplexSignal(np.array([1.0, 2.0, 3.0]))
    s = fourier_intensity(x, uniform_grid(4))
    with pytest.raises(InsufficientSamples):
        autocorr_from_spectrum(s, 3)


def test_nonuniform_grid_rejected():
    x = ComplexSignal(np.array([1.0, 2.0, 3.0]))
    om = uniform_grid(7)
    om = om + np.linspace(0.0, 1e-3, 7)
    s = fourier_intensity(x, om)
    with pytest.raises(NonUniformGrid):
        autocorr_from_spectrum(s, 3)
    # the accept bound is the largest angle offset: 0.5*tol passes, 2*tol fails
    tol = DEFAULT_TOL
    om = uniform_grid(7)
    om[3] += 0.5 * tol
    autocorr_from_spectrum(fourier_intensity(x, om), 3)
    om[3] += 1.5 * tol
    with pytest.raises(NonUniformGrid):
        autocorr_from_spectrum(fourier_intensity(x, om), 3)


def test_grid_tol_must_be_finite_and_nonnegative():
    """linspace(0, 1, 7) is no uniform grid, and its lags would come out
    wrong; the exact grid inverts a flat spectrum to a lone r(0)."""
    skewed = SpectrumSamples(np.linspace(0, 1, 7), np.ones(7))
    with pytest.raises(NonUniformGrid):
        autocorr_from_spectrum(skewed, 3)
    flat = SpectrumSamples(uniform_grid(7), np.ones(7))
    assert autocorr_from_spectrum(flat, 3).entries.tolist() == pytest.approx([1.0, 0.0, 0.0], abs=1e-15)


def test_imaginary_residue_guard():
    # r(0) must be real for the trigonometric sum to be real; a complex
    # r(0) leaves a residue of exactly its imaginary part, 1 against a
    # bound of 1e-9 * (1 + 0.5 + 1)
    bad = Autocorrelation(np.array([1.0j, 0.5]))
    with pytest.raises(ImaginaryResidueExceeded, match="exceeds tol 2.500e-09"):
        spectrum_from_autocorr(bad, uniform_grid(8))
    # clean lags of a signal at 1e8 leave a rounding residue of 8, which
    # the bound, grown with the lags to ~3e8, accepts
    r = autocorrelation(ComplexSignal(1e8 * np.array([1.0, 2.0 + 1.0j, 0.5 - 1.0j, 3.0 + 0.2j])))
    assert spectrum_from_autocorr(r, uniform_grid(8)).m == 8


def test_uniform_grid_frozen():
    assert np.allclose(uniform_grid(4), [0.0, np.pi / 2, np.pi, 3 * np.pi / 2])
    with pytest.raises(ValueError):
        uniform_grid(0)


def test_signal_validation():
    with pytest.raises(ValueError):
        ComplexSignal(np.array([]))
    with pytest.raises(ValueError):
        ComplexSignal(np.array([1.0, np.inf]))
    with pytest.raises(ValueError):
        ComplexSignal(np.array([0.0, 1.0]), full_support=True)
    with pytest.raises(ValueError):
        ComplexSignal(np.array([1.0, 0.0]), full_support=True)
    ok = ComplexSignal(np.array([2.0, 0.0, 1.0]), full_support=True)
    assert ok.n == 3


def test_conj_reflect_is_involution():
    x = ComplexSignal(np.array([1.0 + 1j, -2.0, 3.0j]))
    y = x.conj_reflect()
    assert np.allclose(y.entries, [-3.0j, -2.0, 1.0 - 1j])
    assert np.allclose(y.conj_reflect().entries, x.entries)


def test_arrays_are_read_only():
    x = ComplexSignal(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        x.entries[0] = 5.0
    r = autocorrelation(x)
    with pytest.raises(ValueError):
        r.entries[0] = 5.0


def test_no_held_array_can_be_made_writable():
    """Every array a value type holds, whether built alone, cut from a
    checked block or read from a solution set, refuses both item
    assignment and setflags(write=True)."""
    x = ComplexSignal(np.array([9.0, 45.0, 54.0]))
    r = autocorrelation(x)
    inst = PRInstance.from_signal(x)
    sampled = spectrum_from_autocorr(r, uniform_grid(5))
    trace = error_reduction_solve(inst, SolverConfig(max_iters=3))
    held = [
        x.entries, x.conj_reflect().entries, r.entries, autocorr_from_spectrum(sampled, 3).entries,
        sampled.omegas, sampled.values, inst.grid.omegas, inst.grid.values,
        build_S_poly(r).coeffs, trace.losses, oracle_solve(inst).losses,
    ]
    held += [sig.entries for sig in trace.iterates + tuple(ComplexSignal.from_rows(np.ones((2, 3))))]
    for sols in (enumerate_solutions(factor(r)), anchored_solutions(inst.pairing, inst.anchor)):
        held += [sols.codes, sols.rows] + [sig.entries for sig in sols.signals()]
        held += [sig.entries for _, sig in sols.solutions]
    # arrays that do not own their data are copied, then frozen; the source stays writable
    source = np.array(sols.rows)
    from_views = SolutionSet(sols.pairing, sols.codes[::-1], source[::-1])
    held += [from_views.codes, from_views.rows, from_views.signals()[0].entries]
    assert source.flags.writeable and not np.shares_memory(from_views.rows, source)
    for arr in held:
        with pytest.raises(ValueError):
            arr[0] = 1
        with pytest.raises(ValueError):
            arr.setflags(write=True)


def test_from_rows_contract():
    rng = np.random.default_rng(5)
    block = rng.standard_normal((7, 4)) + 1j * rng.standard_normal((7, 4))
    block[2] = [0.0, -0.0, 1e-300, -1e300]
    for rows in (block, block.real, np.arange(12).reshape(3, 4), block.tolist()):
        sigs = ComplexSignal.from_rows(rows)
        assert len(sigs) == len(rows)
        for sig, row in zip(sigs, rows):
            assert sig.entries.tobytes() == ComplexSignal(row).entries.tobytes()
            assert sig.n == 4 and sig.full_support is False
    kept = block.copy()
    sigs = ComplexSignal.from_rows(block)
    block[:] = 99.0
    for sig, row in zip(sigs, kept):
        assert sig.entries.tobytes() == row.tobytes()
        assert not sig.entries.flags.writeable
        with pytest.raises(ValueError):
            sig.entries[0] = 5.0
        with pytest.raises(ValueError):
            sig.entries.setflags(write=True)


def test_from_rows_checks_the_whole_block():
    with pytest.raises(ValueError, match="signal needs at least one entry"):
        ComplexSignal.from_rows(np.empty((3, 0)))
    with pytest.raises(ValueError, match="2-D"):
        ComplexSignal.from_rows(np.ones(3))
    for bad in (np.inf, -np.inf, np.nan, complex(0.0, np.inf), complex(np.nan, 1.0)):
        for i in range(3):
            for j in range(2):
                block = np.ones((3, 2), dtype=np.complex128)
                block[i, j] = bad
                with pytest.raises(ValueError, match="signal entries must be finite"):
                    ComplexSignal.from_rows(block)
                with pytest.raises(ValueError, match="signal entries must be finite"):
                    ComplexSignal(block[i])


def test_spectrum_samples_validation():
    with pytest.raises(ValueError):
        SpectrumSamples(np.array([0.0, 1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        SpectrumSamples(np.array([]), np.array([]))


def test_spectrum_samples_hold_a_frozen_grid_and_copy_other_arrays():
    """Samples on the uniform grid, from _pairing_samples and from
    PRInstance.from_pairing, hold it bitwise and read-only. A caller's
    writable array, and a read-only view of a writable owner, are copied.
    Both take every check."""
    x = ComplexSignal(np.array([9.0, 45.0, 54.0]))
    grid = uniform_grid(solvers.grid_size(x.n))
    pairing = factor(autocorrelation(x))
    for s in (solvers._pairing_samples(pairing, solvers._GRID_MULT), PRInstance.from_pairing(pairing, 9.0).grid):
        assert s.omegas.tobytes() == grid.tobytes()
        with pytest.raises(ValueError):
            s.omegas.setflags(write=True)
    om, vals = uniform_grid(12), np.ones(12)
    locked = vals.view()
    locked.setflags(write=False)
    s = SpectrumSamples(om, locked)
    assert om.flags.writeable and vals.flags.writeable
    assert not np.shares_memory(s.omegas, om) and not np.shares_memory(s.values, vals)
    assert s.omegas.tobytes() == om.tobytes() and s.values.tobytes() == vals.tobytes()
    with pytest.raises(ValueError, match="equal length"):
        SpectrumSamples(grid, np.ones(grid.size + 1))
    block = signal_core.frozen(np.arange(6.0).reshape(2, 3), "block", 2)
    assert SpectrumSamples(block, block).omegas.tolist() == list(range(6))


def test_grid_tables_are_the_dense_forms():
    """amplitude_loss, which once went through fourier_intensity, is
    bitwise that form on uniform grids; uniform_grid returns a new
    writable array on each call."""
    rng = np.random.default_rng(9)
    for n, m in ((3, 12), (10, 40), (14, 56)):
        om = uniform_grid(m)
        x = ComplexSignal(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        s = SpectrumSamples(om, rng.uniform(0, 2, m))
        old = float(np.sum((np.sqrt(fourier_intensity(x, om).values) - np.sqrt(np.maximum(s.values, 0.0))) ** 2))
        assert amplitude_loss(x, s) == old
    fresh_grid = uniform_grid(12)
    assert fresh_grid.flags.writeable and not np.shares_memory(fresh_grid, uniform_grid(12))


def test_non_finite_angles_are_refused_before_any_arithmetic():
    """An infinite or NaN angle raises the ValueError SpectrumSamples
    gives, with no RuntimeWarning first, and so does the per-pair
    reference; finite and empty angles still evaluate."""
    r = autocorrelation(ComplexSignal(np.array([9.0, 45.0, 54.0])))
    pairing = factor(r)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in ([np.inf], [-np.inf], [np.nan], [0.0, 1.0, np.nan]):
            with pytest.raises(ValueError, match="sample angles entries must be finite"):
                spectrum_from_autocorr(r, bad)
            for spectrum in (spectrum_from_pairing, spectrum_by_pairs):
                with pytest.raises(ValueError, match="sample angles entries must be finite"):
                    spectrum(pairing, bad)
        assert spectrum_from_pairing(pairing, []).size == 0
        assert spectrum_from_autocorr(r, [0.5]).m == spectrum_from_pairing(pairing, [0.5]).size == 1


def test_sizes_must_be_integers():
    """uniform_grid(2.5) is no uniform grid and 2.5 lags are none at all:
    both are refused by name, and so is a grid_mult that makes a grid
    size of 7.5. Numpy integers still count as sizes."""
    s = spectrum_from_autocorr(autocorrelation(ComplexSignal(np.array([1.0, 2.0]))), uniform_grid(8))
    with pytest.raises(ValueError, match="m must be an integer, got 7.5"):
        PRInstance.from_pairing(factor(autocorrelation(ComplexSignal(np.array([9.0, 45.0, 54.0])))), 9.0, grid_mult=2.5)
    for v in (2.5, 3.0, "3", None):
        with pytest.raises(ValueError, match="m must be an integer"):
            uniform_grid(v)
        with pytest.raises(ValueError, match="n must be an integer"):
            autocorr_from_spectrum(s, v)
    assert uniform_grid(np.int64(8)).tobytes() == uniform_grid(8).tobytes()
    assert autocorr_from_spectrum(s, np.int32(2)).entries.tobytes() == autocorr_from_spectrum(s, 2).entries.tobytes()
    with pytest.raises(ValueError, match="grid needs at least one point"):
        uniform_grid(np.int64(0))
    with pytest.raises(ValueError, match="n must be positive"):
        autocorr_from_spectrum(s, 0)
