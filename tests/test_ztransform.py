import itertools
import warnings

import numpy as np
import pytest
from conftest import entries_lists, pairing_of_signal, signals_with_clean_roots, well_separated
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fprlab import reference, ztransform
from fprlab.errors import (
    DegenerateLeadingLag,
    FprlabError,
    NoFeasibleSolution,
    NonConvergence,
    OddUnitCircleMultiplicity,
    OverflowBeyondPrecision,
    UnpairableRoots,
    ZeroArgument,
)
from fprlab.generate import generic_instance, random_signal
from fprlab.reference import RootSelection, autocorr_from_pairing, fourier_intensity, signal_from_selection
from fprlab.signal_core import (
    Autocorrelation,
    ComplexSignal,
    autocorrelation,
    uniform_grid,
)
from fprlab.solvers import PRInstance, oracle_solve
from fprlab.ztransform import (
    PolyCoeffs,
    ZeroPairing,
    build_S_poly,
    eval_ztransform,
    factor,
    find_roots,
    pair_roots,
    spectrum_from_pairing,
)


def test_factor_is_roots_then_pairing():
    # a one-entry signal has a constant polynomial: no roots, the empty pairing
    for entries in ([1.2 - 0.3j, 0.4 + 0.9j, -0.7 + 0.2j, 0.3 - 1.1j], [3j]):
        r, want = pairing_of_signal(ComplexSignal(np.array(entries)))
        got = factor(r)
        assert got.scale == want.scale == r.entries[-1]
        assert got.n_pairs == len(entries) - 1
        assert np.array_equal(got.pairs, want.pairs)
        assert got.unit_circle_flags == want.unit_circle_flags


def test_eval_ztransform_frozen():
    x = ComplexSignal(np.array([9.0, 45.0, 54.0]))
    assert eval_ztransform(x, -0.5) == pytest.approx(135.0)
    assert eval_ztransform(x, -1.0 / 3.0) == pytest.approx(360.0)
    assert eval_ztransform(x, -2.0) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ZeroArgument):
        eval_ztransform(x, 0.0)
    assert eval_ztransform(ComplexSignal(np.array([3.0 + 1j])), 0.0) == 3.0 + 1j


def test_eval_ztransform_on_an_array_is_the_per_point_call():
    """One pass over an array of points gives bitwise the one-point values,
    which are Horner on z^(N-1) X(z) over Python's complex power."""
    rng = np.random.default_rng(3)
    for n in range(1, 9):
        x = ComplexSignal(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        zs = np.concatenate([-rng.uniform(0.01, 60.0, 6), rng.standard_normal(6) + 1j * rng.standard_normal(6)])
        got = eval_ztransform(x, zs)
        assert got.shape == zs.shape and got.dtype == np.complex128
        one = [eval_ztransform(x, z) for z in zs.tolist()]
        assert all(type(v) is complex for v in one)
        assert got.tobytes() == np.array(one).tobytes()
        if n > 1:
            horner = [complex(np.polyval(x.entries, z) / z ** (n - 1)) for z in zs.tolist()]
            assert got.tobytes() == np.array(horner).tobytes()
        assert eval_ztransform(x, zs[:0]).shape == (0,)
    # N = 1 is x(0) everywhere, 0 included; for N > 1 one zero point refuses the array
    got = eval_ztransform(ComplexSignal(np.array([3.0 + 1j])), np.array([0.0, 2.0, -1j]))
    assert got.tolist() == [3.0 + 1j] * 3
    with pytest.raises(ZeroArgument):
        eval_ztransform(ComplexSignal(np.array([9.0, 45.0, 54.0])), np.array([-2.0, 0.0]))


@given(
    entries_lists(max_n=7, mag=2.0),
    st.floats(min_value=0.4, max_value=2.5),
    st.floats(min_value=0.0, max_value=2.0 * np.pi),
)
@settings(max_examples=100)
def test_eval_matches_direct_sum(vals, mod, ph):
    x = ComplexSignal(np.array(vals))
    z = mod * np.exp(1j * ph)
    direct = sum(v * z ** (-k) for k, v in enumerate(vals))
    got = eval_ztransform(x, z)
    assert got == pytest.approx(direct, rel=1e-9, abs=1e-9)


def test_build_S_poly_frozen():
    s = build_S_poly(Autocorrelation(np.array([5.0, -2.0])))
    assert np.allclose(s.coeffs, [-2.0, 5.0, -2.0])
    assert s.degree == 2
    # complex top lag: constant coeff r(N-1), leading coeff its conjugate
    s = build_S_poly(Autocorrelation(np.array([5.0, 2.0j])))
    assert np.allclose(s.coeffs, [2.0j, 5.0, -2.0j])
    with pytest.raises(DegenerateLeadingLag):
        build_S_poly(Autocorrelation(np.array([5.0, 0.0])))


@given(signals_with_clean_roots())
@settings(max_examples=80, deadline=None)
def test_S_poly_interpolates_spectrum(pair):
    roots, x = pair
    r = autocorrelation(x)
    s = build_S_poly(r)
    om = uniform_grid(8)
    lhs = np.polyval(s.coeffs[::-1], np.exp(1j * om))
    rhs = fourier_intensity(x, om).values * np.exp(1j * om * (x.n - 1))
    scale = float(np.max(np.abs(lhs))) + 1.0
    assert np.allclose(lhs, rhs, rtol=1e-8, atol=1e-8 * scale)


def test_find_roots_frozen_pair():
    s = build_S_poly(Autocorrelation(np.array([5.0, -2.0])))
    roots = find_roots(s)
    assert np.allclose(roots, [0.5, 2.0], atol=1e-12)
    # sorted by (re, im)
    assert roots[0].real <= roots[1].real


def test_find_roots_quadratic_formula_oracle():
    # S of a length-2 signal is a quadratic; compare against the formula
    for x0, x1 in [(1.0, -2.0), (2.0, 0.5j), (1.0 + 1j, 3.0), (0.5, 0.25 - 1j)]:
        x = ComplexSignal(np.array([x0, x1]))
        r = autocorrelation(x)
        s = build_S_poly(r)
        c0, c1, c2 = s.coeffs
        disc = np.sqrt(c1 ** 2 - 4.0 * c0 * c2 + 0j)
        expected = sorted([(-c1 + disc) / (2 * c2), (-c1 - disc) / (2 * c2)], key=lambda z: (z.real, z.imag))
        got = find_roots(s)
        assert np.allclose(got, expected, rtol=1e-9, atol=1e-9)


def test_find_roots_residual_gate(monkeypatch):
    # an impossible tolerance must trip the convergence check
    x = ComplexSignal(np.array([1.0, 1.0, 1.0]))
    s = build_S_poly(autocorrelation(x))
    with monkeypatch.context() as m:
        m.setattr(ztransform, "TAU_ROOT", 1e-18)
        with pytest.raises(NonConvergence):
            find_roots(s)
    # max(1, |root|)^D overflows for the root near -1e300; the gate must
    # neither overflow nor let the residual bound become inf
    s = build_S_poly(autocorrelation(ComplexSignal(np.array([1e-300, 1.0]))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        roots = find_roots(s)
    assert roots[0] == pytest.approx(-1e300)


def test_find_roots_bound_at_its_boundary(monkeypatch):
    """The gate passes a root iff (resid / (tau * max|c|))^(1/D) <= max(1, |root|).

    With polish off, the root 2.25 of z^2 - 4 keeps the residual 1.0625
    exactly, so TAU_ROOT sets rel. rel = 5 lies under |root|^D = 5.0625
    and passes; rel = 8 lies in (|root|^D, |root|^(D+1)] and fails, where
    a (D+1)-th-root rule would let it through.
    """
    monkeypatch.setattr(ztransform, "NEWTON_STEPS", 0)
    monkeypatch.setattr(np, "roots", lambda desc: np.array([2.25, -2.0], dtype=np.complex128))
    poly = PolyCoeffs(np.array([-4.0, 0.0, 1.0]))
    monkeypatch.setattr(ztransform, "TAU_ROOT", 1.0625 / (4 * 5.0))
    assert list(find_roots(poly)) == [-2.0, 2.25]
    monkeypatch.setattr(ztransform, "TAU_ROOT", 1.0625 / (4 * 8.0))
    with pytest.raises(NonConvergence, match="residual 1.062e"):
        find_roots(poly)


def test_pair_roots_unpairable():
    with pytest.raises(UnpairableRoots):
        pair_roots(np.array([2.0, 3.0]), scale=6.0)


def test_pair_roots_odd_circle_multiplicity():
    with pytest.raises(OddUnitCircleMultiplicity):
        pair_roots(np.array([1.0j, -1.0j]), scale=1.0)


def test_pair_roots_unit_circle_self_pair():
    p = pair_roots(np.array([1.0j, 1.0j]), scale=1.0)
    assert p.unit_circle_flags == (True,)
    g, h = p.pairs[0]
    assert g == h
    assert abs(g) == 1.0


def test_pair_roots_double_root_on_circle():
    # (z^2 + z + 1)^2: two unit-circle roots, each with multiplicity two
    s = build_S_poly(autocorrelation(ComplexSignal(np.array([1.0, 1.0, 1.0]))))
    p = pair_roots(find_roots(s), 1.0)
    assert p.unit_circle_flags == (True, True)
    for g, h in p.pairs:
        assert g == h
        assert abs(abs(g) - 1.0) <= 5e-16


def test_pair_roots_double_root_off_circle():
    # x-polynomial (z - 2)^2: S roots {2, 2, 1/2, 1/2}
    _, p = pairing_of_signal(ComplexSignal(np.array([1.0, -4.0, 4.0])))
    assert p.unit_circle_flags == (False, False)
    gs = sorted(abs(g) for g, _ in p.pairs)
    assert gs == pytest.approx([2.0, 2.0], rel=1e-6)
    for g, h in p.pairs:
        assert g * np.conj(h) == pytest.approx(1.0, rel=1e-6)


def test_pair_roots_validation():
    with pytest.raises(ValueError):
        pair_roots(np.array([2.0]), scale=1.0)
    with pytest.raises(ValueError):
        pair_roots(np.array([0.0, 2.0]), scale=1.0)
    with pytest.raises(DegenerateLeadingLag):
        pair_roots(np.array([2.0, 0.5]), scale=0.0)


def test_zero_pairing_validation():
    with pytest.raises(DegenerateLeadingLag):
        ZeroPairing(0.0, ((2.0, 0.5),))
    with pytest.raises(ValueError):
        ZeroPairing(1.0, ((2.0, 0.7),))
    # a self-pair is a unit-circle root: flagged on the circle, refused off it
    g = np.exp(0.3j)
    assert ZeroPairing(1.0, ((g, g), (2.0, 0.5))).unit_circle_flags == (True, False)
    with pytest.raises(ValueError, match="unit circle"):
        ZeroPairing(1.0, ((2.0, 0.5), (1.5, 1.5)))


def test_unit_circle_flags_mark_the_self_pairs(corpus):
    """Pair k is flagged iff gamma_recip == gamma, on every corpus pairing
    and on pair_roots outputs with unit-circle roots."""
    pairings = [p for kind in (corpus.generic, corpus.sweep, corpus.closable, corpus.empty, corpus.near, corpus.wide) for p, _ in kind]
    pairings += [corpus.sixteen[0], corpus.flagged[0], corpus.far[0]]
    for entries in ([1.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, -1.0], [2.0, 1.0j, 1.0], [1.0, -4.0, 4.0]):
        pairings.append(pairing_of_signal(ComplexSignal(np.array(entries)))[1])
    for pairing in pairings:
        assert pairing.unit_circle_flags == tuple(bool(g == h) for g, h in pairing.pairs)
    want = [(True, True), (True, True), (True,), (True, False), (False, False)]
    assert [p.unit_circle_flags for p in pairings[-5:]] == want


@pytest.mark.parametrize(
    "scale, pairs",
    [
        (6.0, ((-3.0, -1.0 / 3.0), (np.nan, np.nan))),
        (6.0, ((-3.0, -1.0 / 3.0), (np.inf, 0.0))),
        (1.0, ((complex(2.0, np.nan), 0.5),)),
        (np.nan, ((2.0, 0.5),)),
        (complex(1.0, np.inf), ((2.0, 0.5),)),
    ],
)
def test_zero_pairing_rejects_non_finite_values(scale, pairs):
    with pytest.raises(ValueError, match="finite"):
        ZeroPairing(scale, pairs)


def test_zero_pairing_holds_one_frozen_root_array():
    """Row k of pairs is pair k's (gamma, gamma_recip), read-only for every
    holder, from any nested sequence of pairs; the empty pairing is (0, 2)."""
    nested = [[-2.0, -0.5], np.array([-3.0, -1.0 / 3.0])]
    pairing = ZeroPairing(6.0, nested)
    assert pairing.pairs.dtype == np.complex128 and pairing.pairs.shape == (2, 2)
    assert pairing.pairs.tolist() == [[-2.0, -0.5], [-3.0, -1.0 / 3.0]]
    assert pairing.unit_circle_flags == (False, False)
    source = np.array([[2.0, 0.5]], dtype=np.complex128)
    held = ZeroPairing(1.0, source).pairs
    assert not np.shares_memory(held, source)
    for arr in (pairing.pairs, held, pairing.pairs[0]):
        with pytest.raises(ValueError):
            arr[0] = 1
        with pytest.raises(ValueError):
            arr.setflags(write=True)
    assert ZeroPairing(5.0, ()).pairs.shape == (0, 2)
    for bad in ([2.0, 0.5], [[2.0, 0.5, 1.0]], [[[2.0, 0.5]]]):
        with pytest.raises(ValueError):
            ZeroPairing(1.0, bad)
    betas = RootSelection(pairing, (True, False)).betas()
    assert betas.dtype == np.complex128 and betas.tolist() == [-2.0, -1.0 / 3.0]


def _five_step_find_roots(poly):
    """find_roots without its early stop: all NEWTON_STEPS polish steps run.

    Returns the sorted roots, or the error find_roots raises, and the steps
    up to and including the first that lowers no residual (the steps
    find_roots takes).
    """
    desc = poly.coeffs[::-1]
    roots = np.roots(desc)
    dp = np.polyder(desc)
    pv = np.polyval(desc, roots)
    taken = ztransform.NEWTON_STEPS
    for k in range(ztransform.NEWTON_STEPS):
        dv = np.polyval(dp, roots)
        ok = np.abs(dv) > 0
        cand = roots - np.where(ok, pv / np.where(ok, dv, 1.0), 0.0)
        cv = np.polyval(desc, cand)
        better = np.abs(cv) < np.abs(pv)
        if not better.any():
            taken = min(taken, k + 1)
        roots = np.where(better, cand, roots)
        pv = np.where(better, cv, pv)
    rel = np.abs(pv) / (ztransform.TAU_ROOT * np.max(np.abs(poly.coeffs)))
    if np.any(rel ** (1.0 / poly.degree) > np.maximum(1.0, np.abs(roots))):
        return NonConvergence, taken
    return roots[np.lexsort((roots.imag, roots.real))], taken


def test_find_roots_polish_evaluates_each_value_once(monkeypatch):
    """The polish keeps each accepted candidate's values of p and p', so
    the next step and the residual gate read them instead of evaluating
    again: one Horner pass for both at the eigenvalues, then one per Newton
    step taken, and no np.polyval call. This draw stops after its third
    step, the first that lowers no residual, and its roots are those of
    all five steps."""
    rng = np.random.default_rng(5)
    poly = PolyCoeffs(rng.standard_normal(13) + 1j * rng.standard_normal(13))
    want, taken = _five_step_find_roots(poly)
    assert taken == 3 < ztransform.NEWTON_STEPS
    calls, passes = [], []
    polyval = np.polyval
    monkeypatch.setattr(np, "polyval", lambda c, x: calls.append(1) or polyval(c, x))
    horner = ztransform._horner_pass
    monkeypatch.setattr(ztransform, "_horner_pass", lambda *a: passes.append(1) or horner(*a))
    got = find_roots(poly)
    assert len(passes) == 1 + taken
    assert not calls
    assert got.tobytes() == want.tobytes()


def test_find_roots_early_stop_matches_five_steps(corpus):
    """Stopping the polish at the first step that lowers no residual gives
    bitwise the roots of all five steps: on the S polynomial of each
    distinct corpus pairing (every 8th of the sweep's 3860 embeddings) and
    of 30 sampled signals at each N = 10..14."""
    pairings = {}
    for kind in ("generic", "closable", "near"):
        pairings.update((id(p), p) for p, _ in getattr(corpus, kind))
    pairings.update((id(p), p) for p, _ in corpus.sweep[::8] + [corpus.sixteen, corpus.flagged])
    polys = [build_S_poly(autocorr_from_pairing(p)) for p in pairings.values() if p.n_pairs]
    rng = np.random.default_rng(23)
    for n in range(10, 15):
        for _ in range(30):
            polys.append(build_S_poly(autocorrelation(random_signal(n, rng))))
    stopped = 0
    for poly in polys:
        want, taken = _five_step_find_roots(poly)
        stopped += taken < ztransform.NEWTON_STEPS
        if want is NonConvergence:
            with pytest.raises(NonConvergence):
                find_roots(poly)
        else:
            assert find_roots(poly).tobytes() == want.tobytes()
    assert stopped > len(polys) // 4  # the early stop is taken, not just allowed


_PAIRING_ERRORS = (ValueError, DegenerateLeadingLag, OddUnitCircleMultiplicity, UnpairableRoots)


def _numpy_greedy_pair_roots(roots, scale):
    """pair_roots with numpy scalars and arrays: each pop rebuilds the pool
    as an array and takes np.abs residuals and np.argmin. Returns the
    pairs' bytes, or the error's type and message."""
    arr = np.asarray(roots, dtype=np.complex128).reshape(-1)
    try:
        if arr.size % 2:
            raise ValueError("root count must be even")
        if np.any(arr == 0):
            raise ValueError("zero roots cannot occur when r(N-1) != 0")
        if complex(scale) == 0:
            raise DegenerateLeadingLag("pairing scale r(N-1) must be nonzero")
        pool = list(arr[np.lexsort((arr.imag, arr.real))])
        pairs = []
        while pool:
            g = pool.pop(0)
            with np.errstate(over="ignore", invalid="ignore"):
                resid = np.abs(g * np.conj(np.array(pool)) - 1.0)
            j = int(np.argmin(resid))
            tau = ztransform.pair_tolerance(g)
            if resid[j] > tau:
                if ztransform._near_unit_circle(g):
                    raise OddUnitCircleMultiplicity(f"unit-circle root {g} lacks a second copy")
                raise UnpairableRoots(f"no conjugate-reciprocal partner for {g} (best residual {resid[j]:.3e})")
            h = pool.pop(j)
            if ztransform._near_unit_circle(g) and ztransform._near_unit_circle(h) and abs(g - h) <= tau * max(1.0, abs(g)):
                mid = (g + h) / 2.0
                mid = mid / abs(mid)
                pairs.append((mid, mid))
            else:
                pairs.append((g, h) if abs(g) >= abs(h) else (h, g))
        return ZeroPairing(complex(scale), tuple(pairs)).pairs.tobytes()
    except _PAIRING_ERRORS as exc:
        return type(exc), str(exc)


def _pairing_outcome(roots, scale):
    try:
        return pair_roots(roots, scale).pairs.tobytes()
    except _PAIRING_ERRORS as exc:
        return type(exc), str(exc)


def test_roots_stage_matches_numpy_reference():
    """find_roots is bitwise the np.polyval polish of _five_step_find_roots,
    and pair_roots bitwise the numpy greedy loop (the same error type and
    message on refused input): on seeded signals at N = 2..16 (complex,
    real, scaled by 1e150 and 1e-150), signals with unit-circle double
    roots, and root multisets with repeated, unit-circle, odd-multiplicity
    or unpairable roots. numpy's complex multiply differs between builds
    and SIMD targets, which this test is there to catch."""
    rng = np.random.default_rng(41)
    signals = [np.array(e, dtype=complex) for e in ([1, 1, 1], [1, 0, 1], [1, -1], [2, 1j, 1], [1, -4, 4], [1, 2, 2, 1])]
    for n in range(2, 17):
        for kind in ("complex", "real", "1e150", "1e-150"):
            for _ in range(6):
                x = rng.standard_normal(n) + (0.0 if kind == "real" else 1j * rng.standard_normal(n))
                signals.append(x * (float(kind) if kind.startswith("1e") else 1.0))
    roots_sets = []
    for x in signals:
        r = autocorrelation(ComplexSignal(x))
        poly = build_S_poly(r)
        with np.errstate(all="ignore"):
            want, _ = _five_step_find_roots(poly)
        if want is NonConvergence:
            with pytest.raises((NonConvergence, OverflowBeyondPrecision)):
                find_roots(poly)
            continue
        got = find_roots(poly)
        assert got.tobytes() == want.tobytes()
        roots_sets.append((got, r.entries[r.n - 1]))
    assert len(roots_sets) > len(signals) * 3 // 4
    g, u = 2.0 - 1.5j, np.exp(0.7j)
    roots_sets += [
        (np.array([2.0, 2.0, 0.5, 0.5]), 1.0),
        (np.array([0.5, 0.5, 2.0 + 1e-9j, 2.0 - 1e-9j]), 1.0),  # two distinct partners tie
        (np.array([g, g, 1 / np.conj(g), 1 / np.conj(g), g, 1 / np.conj(g)]), 2.0),
        (np.array([u, u, u, u, 2.0, 0.5]), 1.0j),
        (np.array([u, u * (1 + 1e-9), -1.0, -1.0]), 3.0),
        (np.array([u, u, u]), 1.0),
        (np.array([u, u, u, 2.0]), 1.0),
        (np.array([1.0j, -1.0j]), 1.0),
        (np.array([2.0, 3.0]), 6.0),
        (np.array([2.0, 0.5, 3.0, 0.4]), 1.0),
        (np.array([g, 1 / np.conj(g), g]), 1.0),
        (np.array([g, 0.0]), 1.0),
        (np.array([g, 1 / np.conj(g)]), 0.0),
    ]
    for roots, scale in roots_sets:
        assert _pairing_outcome(roots, scale) == _numpy_greedy_pair_roots(roots, scale)


def test_pair_roots_overflowing_residual_is_inf():
    """A residual whose finite parts have a modulus past double range is inf,
    as np.abs gives it; Python's abs raises OverflowError there. The pairs
    are the numpy loop's, and nothing warns."""
    big = np.array([-1.3e154 * (1 + 1j), -1.3e154 + 0j])
    roots = np.concatenate([big, 1 / np.conj(big)])
    with pytest.raises(OverflowError):
        abs(complex(big[0]) * complex(big[1]).conjugate() - 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = pair_roots(roots, 1.0)
    assert got.pairs.tobytes() == _numpy_greedy_pair_roots(roots, 1.0)
    assert got.pairs[:, 0].tolist() == big.tolist()


def test_pair_roots_refuses_non_finite_roots():
    for bad in ([np.nan, 2.0, 0.5, 3.0], [2.0, np.inf], [complex(1.0, np.nan), 1.0]):
        with pytest.raises(ValueError, match="roots must be finite"):
            pair_roots(np.array(bad), 1.0)


@given(signals_with_clean_roots())
@settings(max_examples=80, deadline=None)
def test_root_pairing_roundtrip(pair):
    roots, x = pair
    assume(well_separated(roots))
    r, pairing = pairing_of_signal(x)
    assert pairing.n_pairs == x.n - 1
    back = autocorr_from_pairing(pairing)
    scale = float(np.abs(r.entries[0])) + 1.0
    assert np.allclose(back.entries, r.entries, rtol=1e-7, atol=1e-7 * scale)
    assert back.entries[0].imag == 0.0


@given(signals_with_clean_roots())
@settings(max_examples=80, deadline=None)
def test_pairing_spectrum_matches_intensity(pair):
    roots, x = pair
    assume(well_separated(roots))
    r, pairing = pairing_of_signal(x)
    om = uniform_grid(max(4 * x.n, 2 * x.n - 1))
    vals = spectrum_from_pairing(pairing, om)
    direct = fourier_intensity(x, om).values
    scale = float(np.max(direct)) + 1.0
    assert np.allclose(vals, direct, rtol=1e-7, atol=1e-7 * scale)
    assert float(np.min(vals)) >= 0.0


def test_signal_from_selection_frozen():
    _, pairing = pairing_of_signal(ComplexSignal(np.array([1.0, -2.0])))
    up = signal_from_selection(RootSelection(pairing, (True,)))
    down = signal_from_selection(RootSelection(pairing, (False,)))
    got = sorted([tuple(np.round(up.entries, 9)), tuple(np.round(down.entries, 9))])
    assert got == [((1 + 0j), (-2 + 0j)), ((2 + 0j), (-1 + 0j))]


def test_selection_alpha_rotates_global_phase():
    _, pairing = pairing_of_signal(ComplexSignal(np.array([1.0, -2.0])))
    base = signal_from_selection(RootSelection(pairing, (True,), alpha=0.0))
    rot = signal_from_selection(RootSelection(pairing, (True,), alpha=np.pi / 2))
    assert np.allclose(rot.entries, 1j * base.entries, atol=1e-12)


@given(signals_with_clean_roots())
@settings(max_examples=60, deadline=None)
def test_selections_share_the_intensity(pair):
    """The reference expansion of every selection has the intensity of x."""
    roots, x = pair
    assume(well_separated(roots))
    _, pairing = pairing_of_signal(x)
    om = uniform_grid(2 * x.n + 3)
    ref = fourier_intensity(x, om).values
    scale = float(np.max(ref)) + 1.0
    for choices in itertools.product((False, True), repeat=pairing.n_pairs):
        y = signal_from_selection(RootSelection(pairing, choices))
        assert np.allclose(fourier_intensity(y, om).values, ref, rtol=1e-6, atol=1e-6 * scale)


def test_poly_coeffs_strips_trailing_zeros():
    p = PolyCoeffs(np.array([1.0, 2.0, 0.0, 0.0]))
    assert p.degree == 1
    assert p.coeffs.tolist() == [1.0, 2.0]
    with pytest.raises(ValueError):
        PolyCoeffs(np.array([0.0, 0.0]))


def _outcome(run):
    """run()'s array bytes (or value), or the type and message of the error it raised."""
    try:
        out = run()
    except (FprlabError, ValueError) as exc:
        return type(exc), str(exc)
    return out.tobytes() if isinstance(out, np.ndarray) else out


def _oracle_sizes():
    """The pairings of the anchored_oracle benchmark items (N = 10, 12, 14) at
    seeds 0 and 7877, drawn as the benchmark draws them."""
    out = []
    for seed in (0, 7877):
        rng = np.random.default_rng((seed, 1))
        out += [generic_instance(n, rng)[1] for n in (10, 12, 14)]
    return out


def _all_pairings(corpus):
    kinds = (corpus.sweep, corpus.sweep6, corpus.generic, corpus.closable, corpus.near, corpus.wide, corpus.empty)
    pairings = [p for kind in kinds for p, _ in kind]
    return pairings + [corpus.sixteen[0], corpus.flagged[0], corpus.far[0], *_oracle_sizes()]


def test_spectrum_from_pairing_is_the_per_pair_loop(corpus):
    """The one-reduce spectrum is bitwise reference.spectrum_by_pairs, or
    raises the same error with the same message: on every N = 3..6 sweep
    embedding (values 2..6) at its sampled grid, and on the generic, anchored-oracle and
    edge pairings at that grid, the minimal grid and a grid that is not
    uniform. Pairings whose spectrum overflows (the far roots, scale
    1e308), is not real or is negative are refused alike."""
    edge = [
        ZeroPairing(1e308, ((-2, -0.5),)),
        ZeroPairing(1j, ((-2, -0.5),)),
        ZeroPairing(-1.0, ((-2, -0.5), (-3, -1 / 3))),
    ]
    cases = 0
    embedded = {id(p) for p, _ in corpus.sweep + corpus.sweep6}
    for pairing in _all_pairings(corpus) + edge:
        n = pairing.n_pairs + 1
        grids = [uniform_grid(4 * n)]
        if id(pairing) not in embedded:
            grids += [uniform_grid(2 * n - 1), uniform_grid(4 * n) + 1e-3, np.array([0.3])]
        for om in grids:
            got = _outcome(lambda: spectrum_from_pairing(pairing, om))
            assert got == _outcome(lambda: reference.spectrum_by_pairs(pairing, om))
            cases += 1
    assert cases > 3860 + 15620
    far = _outcome(lambda: spectrum_from_pairing(corpus.far[0], uniform_grid(20)))
    assert far == (OverflowBeyondPrecision, "the spectrum of the pairing leaves double range (overflow encountered in multiply)")
    assert [_outcome(lambda: spectrum_from_pairing(p, uniform_grid(8)))[0] for p in edge] == [OverflowBeyondPrecision, UnpairableRoots, UnpairableRoots]


def test_eval_ztransform_is_polyval(corpus):
    """eval_ztransform's Horner is bitwise reference.eval_by_polyval: at the
    planted pairs of every N = 3..6 sweep embedding, on random signals, and
    on the oracle's first survivor of some, and at the roots of the generic and
    anchored-oracle pairings; on 1-D arrays, and for every 16th case also
    at one point and on a 2-D array; and with the same ZeroArgument."""
    rng = np.random.default_rng(11)
    cases = []
    for pairing, x0 in corpus.sweep[::13]:
        try:
            cases.append((pairing, oracle_solve(PRInstance(pairing, x0)).final))
        except NoFeasibleSolution:
            pass
    assert len(cases) > 20
    for pairing, _ in corpus.sweep + corpus.sweep6:
        n = pairing.n_pairs + 1
        cases.append((pairing, ComplexSignal(rng.standard_normal(n) + 1j * rng.standard_normal(n))))
    for pairing in [p for p, _ in corpus.generic] + _oracle_sizes():
        n = pairing.n_pairs + 1
        cases.append((pairing, ComplexSignal(rng.standard_normal(n) + 1j * rng.standard_normal(n))))
    for k, (pairing, x) in enumerate(cases):
        pts = pairing.pairs.ravel()
        assert eval_ztransform(x, pts).tobytes() == reference.eval_by_polyval(x, pts).tobytes()
        if pts.size and k % 16 == 0:
            assert eval_ztransform(x, pts.reshape(-1, 2)).tobytes() == reference.eval_by_polyval(x, pts.reshape(-1, 2)).tobytes()
            z = pts.tolist()[-1]
            assert eval_ztransform(x, z) == reference.eval_by_polyval(x, z)
    x = ComplexSignal(np.array([9.0, 45.0, 54.0]))
    for z in (0.0, np.array([-2.0, 0.0])):
        assert _outcome(lambda: eval_ztransform(x, z)) == _outcome(lambda: reference.eval_by_polyval(x, z))


def _pair_outcome(scale, pairs):
    return _outcome(lambda: ZeroPairing(scale, pairs).pairs)


def _loop_outcome(scale, pairs):
    def run():
        reference.check_pairs(pairs)
        return np.array(pairs, dtype=np.complex128).reshape(-1, 2)
    return _outcome(run)


def test_zero_pairing_checks_are_the_pair_loop(corpus):
    """ZeroPairing's partner loop accepts exactly what reference.check_pairs
    accepts, and refuses the rest with its error and message: every corpus
    pairing, those pairings with one root moved across its tolerance, and
    zero roots, self-pairs on and off the unit circle, a zero partner of
    a root past 1e6 (whose residual 1 is within 1e-6 |gamma|) and roots
    whose modulus or residual passes double range."""
    cases = [(p.scale, p.pairs.tolist()) for p in _all_pairings(corpus)]
    rng = np.random.default_rng(5)
    for pairing in [p for p, _ in corpus.generic[::7]] + [p for p, _ in corpus.sweep[::53]]:
        if not pairing.n_pairs:
            continue
        pairs = pairing.pairs.tolist()
        k = int(rng.integers(len(pairs)))
        g, h = pairs[k]
        for rel in (0.5e-6, 0.99e-6, 1.01e-6, 2e-6):
            moved = [list(pair) for pair in pairs]
            moved[k] = [g, h * (1 + rel)]
            cases.append((pairing.scale, moved))
    u = np.exp(0.4j)
    c = (1 / 1.5e308) / 2
    cases += [
        (1.0, [[2.0, 0.5], [0.0, 3.0]]),
        (1.0, [[2.0, 0.7], [0.0, 0.0]]),
        (1.0, [[3.0, 0.0]]),
        (1.0, [[1e7, 0.0]]),
        (1.0, [[1e7, 1e-7], [2e7, 0.0]]),
        (1.0, [[u, u], [1.5, 1.5]]),
        (1.0, [[2.0, 0.5], [u * (1 + 1e-7), u * (1 + 1e-7)]]),
        (1.0, [[-1.5e308 - 1.5e308j, -c - c * 1j]]),
        (1.0, [[2.0, 0.5], [-c - c * 1j, -1.5e308 - 1.5e308j]]),
        (1.0, [[1e300, 1e300]]),
        (1.0, [[1e300 + 1e300j, 1e300 - 1e300j]]),
        (1.0, [[1e200, 1e200], [2.0, 0.5]]),
    ]
    refused = 0
    for scale, pairs in cases:
        got = _pair_outcome(scale, pairs)
        assert got == _loop_outcome(scale, pairs), pairs
        refused += isinstance(got, tuple)
    assert refused >= 40


def test_roots_whose_modulus_passes_double_range_are_refused():
    """A root with finite parts whose modulus has no double (Python's abs
    raises OverflowError) is refused with OverflowBeyondPrecision by
    ZeroPairing and by pair_roots, as the command line reports it."""
    c = (1 / 1.5e308) / 2
    big = complex(-1.5e308, -1.5e308)
    for pairs in ([[big, complex(-c, -c)]], [[2.0, 0.5], [big, complex(-c, -c)]], [[big, big]]):
        with pytest.raises(OverflowBeyondPrecision, match="^a root's modulus leaves double range"):
            ZeroPairing(1.0, pairs)
    for roots in ([big, complex(-c, -c)], [complex(-c, -c), big, 2.0, 0.5]):
        with pytest.raises(OverflowBeyondPrecision, match="^a root's modulus leaves double range"):
            pair_roots(np.array(roots), 1.0)
