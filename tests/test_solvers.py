import hashlib
import itertools
import re
import weakref

import numpy as np
import pytest
from conftest import pairing_of_signal

from fprlab import ambiguity
from fprlab.ambiguity import ANCHOR_REL_TOL, anchored_solutions, trivial_orbit_distance
from fprlab.errors import (
    FprlabError,
    InsufficientSamples,
    NoFeasibleSolution,
    NonUniformGrid,
    OverflowBeyondPrecision,
    StepDiverged,
)
from fprlab.generate import planted_retrieval
from fprlab.reference import fourier_intensity, intensity_loss, wirtinger_gradient
from fprlab.signal_core import ComplexSignal, SpectrumSamples, autocorrelation, uniform_grid
from fprlab import solvers
from fprlab.solvers import (
    SOLVERS,
    IterateTrace,
    PRInstance,
    SolverConfig,
    _drive,
    _er_passes,
    _hio_passes,
    _wf_passes,
    amplitude_loss,
    error_reduction_solve,
    hio_solve,
    oracle_solve,
    wirtinger_flow_solve,
)
from fprlab.ztransform import ZeroPairing


def random_full_support(n, seed):
    rng = np.random.default_rng(seed)
    while True:
        e = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        if abs(e[0]) > 0.3 and abs(e[-1]) > 0.3:
            return ComplexSignal(e, full_support=True)


def test_instance_normalization_is_r0():
    x = random_full_support(5, 1)
    inst = PRInstance.from_signal(x)
    r0 = float(autocorrelation(x).entries[0].real)
    assert inst.normalization ** 2 == pytest.approx(r0, rel=1e-12)
    assert inst.grid.m == 20
    assert inst.n == 5


def test_instance_validation():
    x = random_full_support(3, 2)
    pairing = pairing_of_signal(x)[1]
    grid = fourier_intensity(x, uniform_grid(12))
    with pytest.raises(ValueError):
        PRInstance(pairing, 0.0, grid)


def test_instance_refuses_non_finite_anchor():
    """An infinite or NaN anchor used to give an instance that only
    ZeroAnchor refused later, inside the anchored search."""
    pairing = pairing_of_signal(random_full_support(3, 2))[1]
    for bad in (np.inf, complex(np.nan, 1.0), complex(1.0, -np.inf)):
        with pytest.raises(ValueError, match="anchor x\\(0\\) must be finite and nonzero"):
            PRInstance.from_pairing(pairing, bad)


def test_instance_without_samples_samples_once_on_first_read(monkeypatch):
    """PRInstance(pairing, anchor) samples the pairing's spectrum on the
    first read of grid or normalization, bitwise as from_pairing does, and
    keeps it; given samples are kept as given."""
    pairing = pairing_of_signal(random_full_support(4, 3))[1]
    eager = PRInstance.from_pairing(pairing, 2.0)
    sampled = 0
    spectrum = solvers.spectrum_from_pairing

    def counting(pairing, omegas):
        nonlocal sampled
        sampled += 1
        return spectrum(pairing, omegas)

    monkeypatch.setattr(solvers, "spectrum_from_pairing", counting)
    for first in ("grid", "normalization"):
        sampled = 0
        inst = PRInstance(pairing, 2.0)
        assert sampled == 0
        getattr(inst, first)
        assert sampled == 1
        assert inst.grid is inst.grid
        assert sampled == 1
        assert inst.grid.omegas.tobytes() == eager.grid.omegas.tobytes()
        assert inst.grid.values.tobytes() == eager.grid.values.tobytes()
        assert inst.normalization == eager.normalization
    sampled = 0
    assert PRInstance(pairing, 2.0, eager.grid).grid is eager.grid
    assert sampled == 0
    # the pairing of a scale-1e308 document: its spectrum leaves double range
    huge = ZeroPairing(1e308, ((-2, -0.5),))
    inst = PRInstance(huge, 1.0)
    with pytest.raises(OverflowBeyondPrecision, match="spectrum of the pairing"):
        inst.grid
    with pytest.raises(OverflowBeyondPrecision, match="spectrum of the pairing"):
        PRInstance.from_pairing(huge, 1.0)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)
    with pytest.raises(ValueError):
        SolverConfig(beta_hio=1.5)
    with pytest.raises(ValueError):
        SolverConfig(step_size=0.0)
    with pytest.raises(ValueError):
        SolverConfig(loss_tol=-1.0)


@pytest.mark.parametrize("bad", [2.5, float("nan"), float("inf"), "3", None, 0, -1, np.float64(3.0)])
def test_solver_config_max_iters_must_be_an_integer(bad):
    """A fractional or NaN max_iters used to pass and then fail inside
    islice at run time; it is refused when the config is built, as
    PPInstance refuses its values, by operator.index. numpy integers pass
    and are kept as Python ints."""
    with pytest.raises(ValueError, match=f"^max_iters must be an integer >= 1, got {re.escape(repr(bad))}$"):
        SolverConfig(max_iters=bad)
    cfg = SolverConfig(max_iters=np.int64(7))
    assert cfg.max_iters == 7 and type(cfg.max_iters) is int


@pytest.mark.parametrize(
    "field, bad, rule",
    [
        ("loss_tol", np.nan, "finite and nonnegative"),
        ("loss_tol", np.inf, "finite and nonnegative"),
        ("loss_tol", -1e-300, "finite and nonnegative"),
        ("step_size", np.nan, "finite and positive"),
        ("step_size", np.inf, "finite and positive"),
        ("step_size", -1.0, "finite and positive"),
    ],
)
def test_solver_config_bounds_must_be_finite(field, bad, rule):
    """A NaN loss_tol never lets a run converge; a NaN or infinite step
    size turns every Wirtinger flow step into NaN."""
    with pytest.raises(ValueError, match=f"{field} must be {rule}, got "):
        SolverConfig(**{field: bad})


def test_iterate_trace_validation():
    x = ComplexSignal(np.array([1.0]))
    with pytest.raises(ValueError):
        IterateTrace((x,), np.array([1.0, 2.0]), False)
    with pytest.raises(ValueError):
        IterateTrace((x,), np.array([-1.0]), False)
    with pytest.raises(ValueError):
        IterateTrace((x,), np.array([np.nan]), False)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_error_reduction_monotone(seed):
    x = random_full_support(4 + seed % 3, 10 + seed)
    inst = PRInstance.from_signal(x)
    tr = error_reduction_solve(inst, SolverConfig(max_iters=250, seed=seed))
    slack = 1e-12 * np.maximum(tr.losses[:-1], 1.0)
    assert np.all(np.diff(tr.losses) <= slack)


def _from_truth(passes, x):
    """passes started from the field of x instead of the seeded draw."""

    def run(n, cfg, field, target, anchor_n, r0):
        field = np.zeros_like(field)
        field[:n] = x.entries / np.sqrt(r0)
        field[0] = anchor_n
        return passes(n, cfg, field, target, anchor_n, r0)

    return run


def test_error_reduction_fixed_point():
    x = random_full_support(5, 3)
    inst = PRInstance.from_signal(x)
    tr = _drive(_from_truth(_er_passes, x), inst, SolverConfig(max_iters=50))
    assert tr.converged
    assert len(tr.iterates) == 1
    assert trivial_orbit_distance(tr.final, x) <= 1e-9


def test_hio_fixed_point():
    x = random_full_support(4, 4)
    inst = PRInstance.from_signal(x)
    tr = _drive(_from_truth(_hio_passes, x), inst, SolverConfig(max_iters=50))
    assert tr.converged
    assert len(tr.iterates) == 1


def test_anchor_held_exactly_on_every_iterate():
    x = random_full_support(5, 5)
    inst = PRInstance.from_signal(x)
    for solver in (error_reduction_solve, hio_solve, wirtinger_flow_solve):
        cfg = SolverConfig(max_iters=40, step_size=1e-4, seed=7)
        tr = solver(inst, cfg)
        for it in tr.iterates:
            assert complex(it.entries[0]) == complex(inst.anchor)


# sha256 over the entries bytes of every recorded iterate (ER/HIO/WF, 40
# iterations): any change to a recorded value, not just the final one, shows.
FROZEN_TRACE_SHA256 = {
    error_reduction_solve: "4dc5fc1406d92d382ec1b355017b3bf0f38b76a89d6a58ab403b2fce3dd32733",
    hio_solve: "c9498769c930d2d20fa352594cc0964b0be6f9c2e0f8c89ee02f804c1cf58a82",
    wirtinger_flow_solve: "5a86969df5ed127c681a03a67960a9161a18c557e73ce21dfaf54a5df3a8b41b",
}

# sha256 over the losses bytes of the same runs.
FROZEN_LOSSES_SHA256 = {
    error_reduction_solve: "47c01b4f525b0cf0b9c961a85922dc112b8eeb3f578b1104d12cefbe531258bf",
    hio_solve: "d2343571cc98936fd3270ffd7dd15ad97a0ebe6e49fc4ea09ca2935451e80bf0",
    wirtinger_flow_solve: "6796df102042e6e7243bc46706edda27ea6d3fe58528a8c8eb983f629eb62971",
}


def test_every_iterate_frozen():
    inst = PRInstance.from_signal(random_full_support(5, 11))
    cfg = SolverConfig(max_iters=40, step_size=1e-4, seed=3)
    for solver, want in FROZEN_TRACE_SHA256.items():
        tr = solver(inst, cfg)
        assert len(tr.iterates) == 41
        got = hashlib.sha256(b"".join(it.entries.tobytes() for it in tr.iterates)).hexdigest()
        assert got == want, solver.__name__
        got = hashlib.sha256(tr.losses.tobytes()).hexdigest()
        assert got == FROZEN_LOSSES_SHA256[solver], solver.__name__


@pytest.mark.parametrize("solver", [error_reduction_solve, hio_solve, wirtinger_flow_solve])
def test_stop_rule_is_a_prefix_of_the_full_run(solver):
    inst = PRInstance.from_signal(random_full_support(5, 11))
    full = solver(inst, SolverConfig(max_iters=40, loss_tol=0.0, step_size=1e-4, seed=3))
    assert len(full.losses) == 41
    assert not full.converged
    stops = []
    for tol in (full.losses[20], full.losses[-1]):
        tr = solver(inst, SolverConfig(max_iters=40, loss_tol=tol, step_size=1e-4, seed=3))
        stop = int(np.flatnonzero(full.losses <= tol)[0])
        stops.append(stop)
        assert len(tr.losses) == stop + 1
        assert tr.converged
        assert tr.losses.tobytes() == full.losses[: stop + 1].tobytes()
        for got, want in zip(tr.iterates, full.iterates):
            assert got.entries.tobytes() == want.entries.tobytes()
    # one stop inside the run, one exactly at the last allowed pass
    assert stops[0] < 40 == stops[1]


@pytest.mark.parametrize("solver", [error_reduction_solve, hio_solve, wirtinger_flow_solve])
def test_iterative_solvers_reject_grids_their_fft_does_not_sample(solver):
    x = random_full_support(4, 5)
    good = PRInstance.from_signal(x)
    om = good.grid.omegas + np.linspace(0.0, 0.3, good.grid.m)
    shifted = PRInstance(good.pairing, good.anchor, fourier_intensity(x, om))
    with pytest.raises(NonUniformGrid):
        solver(shifted, SolverConfig(max_iters=5))
    short = PRInstance(good.pairing, good.anchor, fourier_intensity(x, uniform_grid(3)))
    with pytest.raises(InsufficientSamples):
        solver(short, SolverConfig(max_iters=5))


def test_losses_reported_in_original_units():
    x = random_full_support(4, 6)
    inst = PRInstance.from_signal(x)
    tr = error_reduction_solve(inst, SolverConfig(max_iters=5, seed=1))
    got = amplitude_loss(tr.iterates[0], inst.grid)
    assert tr.losses[0] == pytest.approx(got, rel=1e-6)
    tw = wirtinger_flow_solve(inst, SolverConfig(max_iters=5, step_size=1e-5, seed=1))
    got = intensity_loss(tw.iterates[0], inst.grid)
    assert tw.losses[0] == pytest.approx(got, rel=1e-6)


def test_wirtinger_gradient_matches_finite_differences():
    x = random_full_support(3, 8)
    s = fourier_intensity(random_full_support(3, 9), uniform_grid(9))
    g = wirtinger_gradient(x, s)
    h = 1e-6
    e = x.entries
    fd = np.zeros(3, dtype=np.complex128)
    for k in range(3):
        for part, unit in ((0, 1.0), (1, 1.0j)):
            ep = e.copy()
            em = e.copy()
            ep[k] += h * unit
            em[k] -= h * unit
            d = (intensity_loss(ComplexSignal(ep), s) - intensity_loss(ComplexSignal(em), s)) / (2 * h)
            fd[k] += d * (1.0 if part == 0 else 1.0j)
    assert np.linalg.norm(g - fd) <= 1e-5 * max(np.linalg.norm(fd), 1.0)


def test_wf_pass_applies_the_dense_gradient():
    """Wirtinger flow steps with its own FFT gradient, 4 m ifft(diff * zh)[:n];
    on a uniform grid one pass moves z to z - step * wirtinger_gradient(z, s)
    on every entry but the anchor, which is reset after the step."""
    n, m = 5, 20
    z0 = random_full_support(n, 21).entries
    s = fourier_intensity(random_full_support(n, 22), uniform_grid(m))
    cfg = SolverConfig(step_size=1e-3)
    field = np.zeros(m, dtype=np.complex128)
    field[:n] = z0
    passes = _wf_passes(n, cfg, field, np.sqrt(s.values), z0[0], 1.0)
    (first, _), (second, _) = next(passes), next(passes)
    step = cfg.step_size * wirtinger_gradient(ComplexSignal(z0), s)
    assert np.array_equal(first, z0) and second[0] == z0[0]
    assert np.min(np.abs(step[1:]) / np.abs(z0[1:])) > 0.01  # the step is not lost in z
    want = z0 - step
    assert np.all(np.abs(second[1:] - want[1:]) <= 1e-12 * np.abs(want[1:]))


@pytest.mark.parametrize("passes", [_er_passes, _hio_passes, _wf_passes])
def test_pass_rows_own_their_memory(passes):
    """The passes reuse their work arrays, so no yielded row may be one of
    them: over 20 passes no two rows, nor a row and the driving field,
    share memory, and each row keeps the bytes it had when yielded."""
    inst = PRInstance.from_signal(random_full_support(5, 11))
    cfg = SolverConfig(max_iters=20, step_size=1e-4, seed=3)
    norm, setup = solvers._normalized_setup(inst, cfg)
    rows, seen = [], []
    for row, _ in itertools.islice(passes(inst.n, cfg, *setup), 20):
        rows.append(row)
        seen.append(row.tobytes())
    assert len(rows) == 20
    for i, row in enumerate(rows):
        assert not np.shares_memory(row, setup[0])
        assert not any(np.shares_memory(row, other) for other in rows[:i])
        assert row.tobytes() == seen[i]


def test_bound_kernels_match_numpy_fft_bitwise():
    """The passes call numpy's pocketfft gufuncs with the factor np.fft
    passes them; their outputs must be bitwise np.fft's at every M in
    1..64, primes included, and for the zero-padded forward transforms
    at every input length shorter than M. A numpy whose private module
    moves or changes fails here instead of moving results silently."""
    rng = np.random.default_rng(41)
    for m in range(1, 65):
        a = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        out = np.empty(m, np.complex128)
        solvers._fft(a, 1.0, out=out)
        assert out.tobytes() == np.fft.fft(a).tobytes(), m
        solvers._ifft(a, 1.0 / m, out=out)
        assert out.tobytes() == np.fft.ifft(a).tobytes(), m
        for k in range(1, m):
            solvers._fft(a[:k], 1.0, out=out)
            assert out.tobytes() == np.fft.fft(a[:k], n=m).tobytes(), (m, k)


def test_passes_do_not_call_the_numpy_fft_wrappers(monkeypatch):
    """ER, HIO and WF run their transforms on the bound kernels alone: with
    np.fft.fft and np.fft.ifft made to raise, each still runs on a planted
    instance and gives bitwise the trace it gives without the patch."""
    hard, _ = planted_retrieval(3, np.random.default_rng(2))
    inst = hard.pr
    cfg = SolverConfig(max_iters=30, step_size=1e-4, seed=1)
    solves = (error_reduction_solve, hio_solve, wirtinger_flow_solve)
    want = [solve(inst, cfg) for solve in solves]

    def wrapper_called(*args, **kwargs):
        raise AssertionError("np.fft wrapper called")

    monkeypatch.setattr(np.fft, "fft", wrapper_called)
    monkeypatch.setattr(np.fft, "ifft", wrapper_called)
    for solve, ref in zip(solves, want):
        tr = solve(inst, cfg)
        assert len(tr.iterates) == len(ref.iterates) > 1
        assert tr.losses.tobytes() == ref.losses.tobytes()
        assert all(a.entries.tobytes() == b.entries.tobytes() for a, b in zip(tr.iterates, ref.iterates))


def test_wirtinger_flow_descends_with_small_step():
    x = random_full_support(3, 11)
    inst = PRInstance.from_signal(x)
    tr = wirtinger_flow_solve(inst, SolverConfig(max_iters=40, step_size=1e-4, seed=2))
    assert tr.losses[10] < tr.losses[0]


def test_wirtinger_flow_diverges_on_huge_step():
    x = random_full_support(5, 12)
    inst = PRInstance.from_signal(x)
    with pytest.raises(StepDiverged):
        wirtinger_flow_solve(inst, SolverConfig(max_iters=200, step_size=10.0, seed=0))


def test_oracle_recovers_ground_truth():
    x = random_full_support(6, 13)
    inst = PRInstance.from_signal(x)
    tr = oracle_solve(inst)
    assert tr.converged
    assert len(tr.iterates) == 1
    assert complex(tr.final.entries[0]) == complex(inst.anchor)
    assert trivial_orbit_distance(tr.final, x) <= 1e-7 * np.linalg.norm(x.entries)
    assert tr.losses[-1] <= 1e-9


def test_oracle_infeasible_anchor():
    x = ComplexSignal(np.array([9.0, 45.0, 54.0]))
    pairing = pairing_of_signal(x)[1]
    inst = PRInstance.from_pairing(pairing, 10.0)
    with pytest.raises(NoFeasibleSolution):
        oracle_solve(inst)


def test_zero_loss_iff_matching_intensity():
    x = random_full_support(4, 15)
    inst = PRInstance.from_signal(x)
    assert amplitude_loss(x, inst.grid) <= 1e-18
    assert intensity_loss(x, inst.grid) <= 1e-15
    y = ComplexSignal(x.entries * 2.0)
    assert amplitude_loss(y, inst.grid) > 1.0


def test_solver_registry():
    assert set(SOLVERS) == {"er", "hio", "wf", "oracle"}
    for fn in SOLVERS.values():
        assert callable(fn)


def test_oracle_expands_only_the_first_survivor(corpus):
    """oracle_solve's final iterate is row 0 of anchored_solutions with
    x(0) set to the anchor, bitwise, on every sweep embedding with 2 to 4
    survivors and on the 16-survivor hard instance, whose full set takes
    the block path while the oracle's one row does not."""
    several = [(p, a) for p, a in corpus.sweep if 2 <= ambiguity._survivor_codes(p, a, ANCHOR_REL_TOL).size <= 4]
    assert len(several) > 100
    for pairing, anchor in several + [corpus.sixteen]:
        want = anchored_solutions(pairing, anchor).rows[0].copy()
        want[0] = anchor
        assert oracle_solve(PRInstance(pairing, anchor)).final.entries.tobytes() == want.tobytes()


def test_oracle_loss_is_computed_on_first_read(corpus):
    """oracle_solve defers its loss to the first read of losses, which is
    bitwise the eager amplitude loss on from_pairing's grid, read-only and
    kept; the trace then lets go of the instance. It holds on every sweep
    embedding with a survivor, on the 16-survivor instance and on every
    anchored corpus pairing the oracle solves; where from_pairing refuses
    the pairing, each read raises its error."""
    anchored = [*corpus.generic, *corpus.closable, corpus.flagged, *corpus.empty, *corpus.near, *corpus.wide, corpus.far]
    solved = refused = 0
    for pairing, anchor in [*corpus.sweep, corpus.sixteen, *anchored]:
        inst = PRInstance(pairing, anchor)
        try:
            trace = oracle_solve(inst)
        except FprlabError:
            continue
        held = weakref.ref(inst)
        del inst
        assert held() is not None
        try:
            want = amplitude_loss(trace.final, PRInstance.from_pairing(pairing, anchor).grid)
        except FprlabError as exc:
            refused += 1
            for _ in range(2):
                with pytest.raises(type(exc)):
                    trace.losses
            continue
        solved += 1
        assert trace.converged and len(trace.iterates) == 1
        assert trace.losses.tobytes() == np.array([want]).tobytes()
        assert trace.losses is trace.losses
        assert not trace.losses.flags.writeable
        assert held() is None
    # 410 sweep embeddings, the 16-survivor instance, the 270 generic
    # pairings at their true anchor and 36 of the other kinds
    assert (solved, refused) == (717, 0)
    # the pairing of a scale-1e308 document, at the anchor of its survivor
    # z + 2 (at anchor 1.0 no selection fits): its spectrum leaves double range
    huge = ZeroPairing(1e308, ((-2, -0.5),))
    anchor = np.sqrt(0.5e308)
    trace = oracle_solve(PRInstance(huge, anchor))
    assert trace.final.entries.tobytes() == np.array([anchor, 2 * anchor], complex).tobytes()
    for _ in range(2):
        with pytest.raises(OverflowBeyondPrecision, match="spectrum of the pairing"):
            trace.losses
