import hashlib

import numpy as np
import pytest

from fprlab.ambiguity import trivial_orbit_distance
from fprlab.errors import (
    InsufficientSamples,
    NoFeasibleSolution,
    NonUniformGrid,
    StepDiverged,
)
from fprlab.signal_core import ComplexSignal, SpectrumSamples, autocorrelation, fourier_intensity, uniform_grid
from fprlab.solvers import (
    SOLVERS,
    IterateTrace,
    PRInstance,
    SolverConfig,
    amplitude_loss,
    error_reduction_solve,
    hio_solve,
    intensity_loss,
    oracle_solve,
    reduction_iteration_budget,
    wirtinger_flow_solve,
)
from fprlab.ztransform import build_S_poly, find_roots, pair_roots


def random_full_support(n, seed):
    rng = np.random.default_rng(seed)
    while True:
        e = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        if abs(e[0]) > 0.3 and abs(e[-1]) > 0.3:
            return ComplexSignal(e, full_support=True)


def pairing_of_signal(x):
    r = autocorrelation(x)
    return pair_roots(find_roots(build_S_poly(r)), r.entries[-1])


def test_instance_normalization_is_r0():
    x = random_full_support(5, 1)
    inst = PRInstance.from_signal(x)
    r0 = float(autocorrelation(x).entries[0].real)
    assert inst.normalization ** 2 == pytest.approx(r0, rel=1e-12)
    assert inst.grid.m == 20
    assert inst.n == 5


def test_instance_validation():
    x = random_full_support(3, 2)
    pairing = pairing_of_signal(x)
    grid = fourier_intensity(x, uniform_grid(12))
    with pytest.raises(ValueError):
        PRInstance(pairing, 0.0, grid, 1.0)
    with pytest.raises(ValueError):
        PRInstance(pairing, 1.0, grid, -2.0)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)
    with pytest.raises(ValueError):
        SolverConfig(beta_hio=1.5)
    with pytest.raises(ValueError):
        SolverConfig(step_size=0.0)
    with pytest.raises(ValueError):
        SolverConfig(loss_tol=-1.0)


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


def test_error_reduction_fixed_point():
    x = random_full_support(5, 3)
    inst = PRInstance.from_signal(x)
    tr = error_reduction_solve(inst, SolverConfig(max_iters=50), start=x)
    assert tr.converged
    assert len(tr.iterates) == 1
    assert trivial_orbit_distance(tr.final, x) <= 1e-9


def test_hio_fixed_point():
    x = random_full_support(4, 4)
    inst = PRInstance.from_signal(x)
    tr = hio_solve(inst, SolverConfig(max_iters=50), start=x)
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
    shifted = PRInstance(good.pairing, good.anchor, fourier_intensity(x, om), good.normalization)
    with pytest.raises(NonUniformGrid):
        solver(shifted, SolverConfig(max_iters=5))
    short = PRInstance(good.pairing, good.anchor, fourier_intensity(x, uniform_grid(3)), good.normalization)
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
    from fprlab.solvers import wirtinger_gradient

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
            d = (
                intensity_loss(ComplexSignal(ep), s)
                - intensity_loss(ComplexSignal(em), s)
            ) / (2 * h)
            fd[k] += d * (1.0 if part == 0 else 1.0j)
    assert np.linalg.norm(g - fd) <= 1e-5 * max(np.linalg.norm(fd), 1.0)


def test_wf_pass_applies_the_dense_gradient():
    """Wirtinger flow steps with its own FFT gradient, 4 m ifft(diff * zh)[:n];
    on a uniform grid one pass moves z to z - step * wirtinger_gradient(z, s)
    on every entry but the anchor, which is reset after the step."""
    from fprlab.solvers import _wf_passes, wirtinger_gradient

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
    pairing = pairing_of_signal(x)
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


def test_reduction_iteration_budget_frozen():
    assert reduction_iteration_budget(3, 3) == 2700
    assert reduction_iteration_budget(4, 6) == 4800


def test_solver_registry():
    assert set(SOLVERS) == {"er", "hio", "wf", "oracle"}
    for fn in SOLVERS.values():
        assert callable(fn)
