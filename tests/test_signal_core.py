import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fprlab.errors import (
    ImaginaryResidueExceeded,
    InsufficientSamples,
    NonUniformGrid,
)
from fprlab.signal_core import (
    Autocorrelation,
    ComplexSignal,
    SpectrumSamples,
    autocorr_from_spectrum,
    autocorrelation,
    fourier_intensity,
    spectrum_from_autocorr,
    uniform_grid,
)


def entries_lists(min_n=1, max_n=10, mag=3.0):
    elem = st.complex_numbers(max_magnitude=mag, allow_nan=False, allow_infinity=False)
    return st.lists(elem, min_size=min_n, max_size=max_n)


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
    via_r = spectrum_from_autocorr(r, om, tol=1e-9 * scale)
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
    s = spectrum_from_autocorr(r, uniform_grid(m), tol=1e-9 * scale)
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
    tol = 1e-9
    om = uniform_grid(7)
    om[3] += 0.5 * tol
    autocorr_from_spectrum(fourier_intensity(x, om), 3, tol=tol)
    om[3] += 1.5 * tol
    with pytest.raises(NonUniformGrid):
        autocorr_from_spectrum(fourier_intensity(x, om), 3, tol=tol)


def test_imaginary_residue_guard():
    # r(0) must be real for the trigonometric sum to be real; a complex
    # r(0) leaves a residue of exactly its imaginary part
    bad = Autocorrelation(np.array([1.0j, 0.5]))
    with pytest.raises(ImaginaryResidueExceeded):
        spectrum_from_autocorr(bad, uniform_grid(8))
    loose = spectrum_from_autocorr(bad, uniform_grid(8), tol=2.0)
    assert loose.m == 8


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
    from fprlab.ambiguity import SolutionSet, anchored_solutions, enumerate_solutions
    from fprlab.solvers import PRInstance, SolverConfig, error_reduction_solve, oracle_solve
    from fprlab.ztransform import build_S_poly, factor

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


def test_spectrum_tol_must_be_finite_and_nonnegative():
    r = autocorrelation(ComplexSignal(np.array([9.0, 45.0, 54.0])))
    for bad in (-1.0, -1e-300, np.nan, np.inf):
        with pytest.raises(ValueError, match="imaginary residue tol"):
            spectrum_from_autocorr(r, uniform_grid(5), tol=bad)
    one = spectrum_from_autocorr(Autocorrelation(np.array([4.0])), uniform_grid(3), tol=0.0)
    assert one.values.tolist() == [4.0, 4.0, 4.0]


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
