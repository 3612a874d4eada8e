import functools
import hashlib
from fractions import Fraction

import numpy as np
import pytest

from fprlab.errors import (
    BudgetExceeded,
    HypothesisViolated,
    InvalidWitness,
    OverflowBeyondPrecision,
    SolverFailure,
)
from fprlab.generate import all_pp_instances, random_solvable_pp
from fprlab.hardness import (
    DiscriminationResult,
    HardInstance,
    PPAnswer,
    PPDecision,
    PPInstance,
    Verdict,
    brute_force_pp,
    check_lemma_bounds,
    construct_hard_instance,
    decide_pp,
    discriminate,
    discrimination_constant,
    enumerate_witnesses,
    ground_truth_exact,
    ground_truth_signal,
)
from fprlab.reference import fourier_intensity, witnesses_by_scan
from fprlab.signal_core import ComplexSignal, autocorrelation
from fprlab import hardness, solvers
from fprlab.solvers import IterateTrace, PRInstance, amplitude_loss, oracle_solve
from fprlab.ztransform import eval_ztransform


def test_instance_admission():
    pp = PPInstance((2, 3, 6))
    assert pp.n == 3
    assert pp.u_max == 3
    with pytest.raises(ValueError, match="square"):
        PPInstance((2, 2))
    with pytest.raises(ValueError):
        PPInstance((2, 2, 4))
    with pytest.raises(ValueError):
        PPInstance((3,))
    with pytest.raises(ValueError):
        PPInstance((3, 1, 6))
    # values are integers, never truncated into a different instance
    for bad in ((2.5, 3, 6), (3.9, 3, 6), ("2", "3", "6")):
        with pytest.raises(ValueError, match=f"integers, got {bad[0]!r}"):
            PPInstance(bad)
    pp = PPInstance((np.int64(2), np.uint8(3), 6))
    assert pp.u == (2, 3, 6) and all(type(v) is int for v in pp.u)


def test_instance_reads_its_values_once():
    """A one-shot iterable of values is read once: a bad value is named,
    never skipped into a shorter instance."""
    with pytest.raises(ValueError, match="integers, got 2.5"):
        PPInstance(iter([2.5, 3, 6, 4]))
    assert PPInstance(iter([3, np.int64(2), 6])).u == (3, 2, 6)


def test_brute_force_frozen():
    d = brute_force_pp(PPInstance((2, 3, 6)))
    assert d.answer is PPAnswer.HAS_SOLUTION
    assert d.witness == frozenset({1, 2})
    d = brute_force_pp(PPInstance((2, 3, 5)))
    assert d.answer is PPAnswer.NO_SOLUTION
    assert d.witness is None
    d = brute_force_pp(PPInstance((2, 2, 3, 3)))
    assert d.witness == frozenset({1, 3})
    d = brute_force_pp(PPInstance((3, 3, 9)))
    assert d.witness == frozenset({1, 2})


def test_brute_force_first_witness_in_subset_integer_order():
    # both {1,2} and {1,3} solve (2,3,3,2); encoding 3 < 5 picks {1,2}
    d = brute_force_pp(PPInstance((2, 3, 3, 2)))
    assert d.witness == frozenset({1, 2})
    wits = enumerate_witnesses(PPInstance((2, 3, 3, 2)))
    assert wits == [frozenset({1, 2}), frozenset({1, 3})]
    assert enumerate_witnesses(PPInstance((2, 3, 5))) == []


def test_brute_force_budget():
    big = PPInstance((3,) * 27)
    with pytest.raises(BudgetExceeded):
        brute_force_pp(big)
    with pytest.raises(BudgetExceeded):
        enumerate_witnesses(big)


def _fact8_draws():
    """Seeded draws like ROADMAP fact 8's: N = 6..14, values 2..3, every
    other one planted solvable. A planted draw's values are an off side
    twice over plus extra values whose product is u_N, shuffled."""
    rng = np.random.default_rng(8)
    draws = []
    for n in range(6, 15):
        p = n - 1
        for i in range(10):
            while True:
                if i % 2:
                    extra = rng.integers(2, 4, int(rng.choice(range(2 - p % 2, p + 1, 2)))).tolist()
                    off = rng.integers(2, 4, (p - len(extra)) // 2).tolist()
                    u = rng.permutation(off + off + extra).tolist() + [int(np.prod(extra))]
                else:
                    u = rng.integers(2, 4, n).tolist()
                if max(u[:-1]) >= 3:
                    break
            draws.append(PPInstance(tuple(u)))
    return draws


def test_witness_search_matches_the_scan():
    """brute_force_pp's witness and every witness of enumerate_witnesses, in
    order, equal the division-free scan of all subsets: on the N = 3..5
    sweep (values 2..6), every instance with N = 2..7 and values 2..4,
    fact 8's draws and instances with many witnesses from repeated values."""
    cases = [pp for n in (3, 4, 5) for pp in all_pp_instances(n, 2, 6)]
    cases += [pp for n in range(2, 8) for pp in all_pp_instances(n, 2, 4)]
    draws = _fact8_draws()
    cases += draws
    many = [(2, 3, 3, 2), (3,) * 8 + (9,), (2, 3) * 5 + (6,), (2, 2, 3, 3, 6, 6, 4), (4,) * 10 + (16,)]
    cases += [PPInstance(u) for u in many]
    counts = []
    for pp in cases:
        want = list(witnesses_by_scan(pp))
        assert enumerate_witnesses(pp) == want, pp.u
        d = brute_force_pp(pp)
        assert d.witness == (want[0] if want else None) and d.removed_pairs == ()
        assert d.answer is (PPAnswer.HAS_SOLUTION if want else PPAnswer.NO_SOLUTION)
        counts.append(len(want))
    assert counts[-len(many):] == [2, 56, 100, 6, 210]
    assert all(brute_force_pp(pp).answer is PPAnswer.HAS_SOLUTION for pp in draws[1::2])


def test_construct_hard_instance_frozen():
    hard = construct_hard_instance(PPInstance((2, 3, 6)))
    assert hard.anchor_exact == 9
    assert hard.scale_exact == 486
    assert hard.pr is not None
    assert complex(hard.pr.anchor) == 9.0
    assert hard.pr.pairing.scale == 486.0
    assert hard.pr.pairing.pairs[0] == pytest.approx((-2.0, -0.5))
    assert hard.pr.pairing.pairs[1] == pytest.approx((-3.0, -1.0 / 3.0))
    assert hard.pr.grid.m == 12

    hard = construct_hard_instance(PPInstance((2, 2, 3, 3)))
    assert hard.anchor_exact == 27
    assert hard.scale_exact == 2187


def test_hard_instance_spectrum_matches_planted_signal():
    pp = PPInstance((2, 3, 6))
    hard = construct_hard_instance(pp)
    gt = ground_truth_signal(pp, {1, 2})
    direct = fourier_intensity(gt, hard.pr.grid.omegas).values
    assert np.allclose(hard.pr.grid.values, direct, rtol=1e-9, atol=1e-6)
    assert amplitude_loss(gt, hard.pr.grid) <= 1e-12


def test_overflow_guard():
    pp = PPInstance((6,) * 11 + (4,))
    with pytest.raises(OverflowBeyondPrecision) as refused:
        construct_hard_instance(pp)
    # the message says what the bound keeps exact; no exact mode exists
    assert str(refused.value).startswith("u_max^(2N) = 6^24 exceeds 2^52; below it the planted values")
    assert "exact mode" not in str(refused.value)
    with pytest.raises(OverflowBeyondPrecision):
        decide_pp(pp, oracle_solve)
    # solvable ({1,2} and {2,3}), but 362^8 > 2^52: with the planted
    # integers rounded, the readout can miss the solution
    with pytest.raises(OverflowBeyondPrecision):
        decide_pp(PPInstance((166, 362, 166, 362)), oracle_solve)
    # 3^6 is small, but the top lag 9^2 * 10^400 has no double
    with pytest.raises(OverflowBeyondPrecision, match="top lag"):
        construct_hard_instance(PPInstance((2, 3, 10**400)))
    # the refusal names u_max^(2N) without writing out its 4800 digits
    with pytest.raises(OverflowBeyondPrecision, match=r"u_max\^\(2N\) = 1000.*0\^6 exceeds 2\^52"):
        construct_hard_instance(PPInstance((2, 10**800, 3)))


def _recording_solver(seen, entries):
    """A solver whose only iterate is entries; it appends each instance it is given to seen."""
    sig = ComplexSignal(np.asarray(entries, dtype=np.complex128))

    def solver(inst, cfg=None):
        seen.append(inst)
        return IterateTrace((sig,), np.array([0.0]), True)

    return solver


@pytest.mark.parametrize("u", [(2, 3, 6), (2, 2, 3, 3), (2, 2, 3, 3, 5), (3, 5, 4, 6, 5)])
def test_decide_first_round_is_the_hard_instance(u):
    pp = PPInstance(u)
    seen = []
    decide_pp(pp, _recording_solver(seen, [1.0]))
    got, want = seen[0], construct_hard_instance(pp).pr
    assert np.array_equal(got.pairing.pairs, want.pairing.pairs)
    assert got.pairing.unit_circle_flags == want.pairing.unit_circle_flags
    assert got.pairing.scale == want.pairing.scale
    assert got.anchor == want.anchor
    assert got.normalization == want.normalization
    assert got.grid.omegas.tobytes() == want.grid.omegas.tobytes()
    assert got.grid.values.tobytes() == want.grid.values.tobytes()


@pytest.mark.parametrize("u, kept", [((2, 2, 3, 3, 5), 3), ((3, 3, 2, 2, 5), 2)])
def test_decide_removal_round_keeps_the_admission_anchor(u, kept):
    # both roots of u_1 force the removal of (1, 2); the second round
    # plants the kept pair under the anchor u_max^(n_cur-1) = 3^2, also
    # when the removed value was u_max
    seen = []
    decide_pp(PPInstance(u), _recording_solver(seen, np.poly([-u[0], -1.0 / u[0]])))
    assert len(seen) == 2
    second = seen[1]
    assert np.array_equal(second.pairing.pairs, ((-float(kept), -1.0 / kept),) * 2)
    assert second.anchor == 9.0
    assert second.pairing.scale == 81.0 * 5


def test_ground_truth_exact_frozen():
    got = ground_truth_exact(PPInstance((2, 3, 6)), {1, 2})
    assert got == (Fraction(9), Fraction(45), Fraction(54))
    got = ground_truth_exact(PPInstance((2, 2, 3, 3)), {1, 3})
    assert got == (Fraction(27), Fraction(297, 2), Fraction(459, 2), Fraction(81))


def test_ground_truth_signal_frozen():
    gt = ground_truth_signal(PPInstance((2, 2, 3, 3)), {1, 3})
    assert gt.full_support
    assert np.allclose(gt.entries, [27.0, 148.5, 229.5, 81.0])
    # top autocorrelation lag carries the planted product exactly
    r = autocorrelation(gt)
    assert complex(r.entries[-1]) == 27.0 * 81.0


def test_ground_truth_rejects_bad_witness():
    with pytest.raises(InvalidWitness):
        ground_truth_exact(PPInstance((2, 3, 6)), {1})
    with pytest.raises(InvalidWitness):
        ground_truth_exact(PPInstance((2, 3, 6)), {5})


def test_discriminate_frozen():
    xm = ComplexSignal(np.array([9.0, 45.0, 54.0]))
    res = discriminate(xm, 2, 3, 3)
    assert res.verdict is Verdict.SELECT_GAMMA
    assert res.mag_gamma == pytest.approx(0.0, abs=1e-9)
    assert res.mag_recip == pytest.approx(135.0, rel=1e-9)
    res = discriminate(xm, 3, 3, 3)
    assert res.verdict is Verdict.SELECT_GAMMA
    assert res.mag_recip == pytest.approx(360.0, rel=1e-9)


def test_discriminate_recip_and_both_roots():
    # planted solution of (2,2,3,3) for witness {1,3}: carries -2, -1/2, -3
    xm = ground_truth_signal(PPInstance((2, 2, 3, 3)), {1, 3})
    res = discriminate(xm, 2, 3, 4)
    assert res.verdict is Verdict.BOTH_ROOTS
    assert max(res.mag_gamma, res.mag_recip) <= 0.25
    res = discriminate(xm, 3, 3, 4)
    assert res.verdict is Verdict.SELECT_GAMMA
    assert res.mag_recip == pytest.approx(540.0, rel=1e-9)
    # reciprocal side: signal carrying -1/2 but not -2
    y = ComplexSignal(np.array([2.0, 1.0]))  # root -1/2
    res = discriminate(y, 2, 3, 2)
    assert res.verdict is Verdict.SELECT_RECIP
    assert res.mag_gamma > 0.25


def test_verdict_at_the_thresholds():
    """Both roots while max(a, b) <= 1/4; gamma side from b = a + 3/4 on."""
    assert DiscriminationResult(0.25, 0.25).verdict is Verdict.BOTH_ROOTS
    assert DiscriminationResult(0.0, 0.25).verdict is Verdict.BOTH_ROOTS
    assert DiscriminationResult(np.nextafter(0.25, 1.0), 0.0).verdict is Verdict.SELECT_RECIP
    assert DiscriminationResult(0.25, 1.0).verdict is Verdict.SELECT_GAMMA
    assert DiscriminationResult(0.25, np.nextafter(1.0, 0.0)).verdict is Verdict.SELECT_RECIP
    assert DiscriminationResult(0.0, 0.75).verdict is Verdict.SELECT_GAMMA
    assert DiscriminationResult(0.0, np.nextafter(0.75, 0.0)).verdict is Verdict.SELECT_RECIP


def test_discriminate_guards():
    xm = ComplexSignal(np.array([9.0, 45.0, 54.0]))
    with pytest.raises(ValueError):
        discriminate(xm, 1, 3, 3)
    with pytest.raises(ValueError):
        discriminate(xm, 2, 1, 1)
    # u_max = 0 must not divide by zero; (-3)^-3 <= 1/4 must not pass
    for u_max in (0, -3):
        with pytest.raises(ValueError, match="u_max >= 2"):
            discriminate(xm, 2, u_max, 3)
    # values are integers: 2.5 would be read at -2.5 and -0.4
    with pytest.raises(ValueError, match="u_k must be an integer, got 2.5"):
        discriminate(xm, 2.5, 3, 3)
    with pytest.raises(ValueError, match="u_max must be an integer, got 3.5"):
        discriminate(xm, 2, 3.5, 3)
    res, ref = discriminate(xm, np.int64(2), np.uint8(3), 3), discriminate(xm, 2, 3, 3)
    assert (res.mag_gamma, res.mag_recip) == (ref.mag_gamma, ref.mag_recip)


def test_discrimination_constant_frozen():
    assert discrimination_constant(3, 3) == pytest.approx(25.0 / 27.0)
    assert discrimination_constant(3, 3) == 1.0 - 2.0 * 3.0 ** -3


def test_lemma_bounds_clean():
    pp = PPInstance((2, 3, 6))
    zero = ComplexSignal(np.zeros(3))
    rep = check_lemma_bounds(pp, {1, 2}, zero)
    assert rep.all_passed
    assert rep.c0 == pytest.approx(25.0 / 27.0)
    assert rep.cap == pytest.approx(3.0 ** -3)
    assert [c.double_root for c in rep.checks] == [False, False]
    assert all(c.margin > 100.0 for c in rep.checks)


def test_lemma_bounds_at_hypothesis_boundary():
    pp = PPInstance((2, 3, 6))
    hyp = 3.0 ** -6
    rng = np.random.default_rng(0)
    for _ in range(20):
        d = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        d = d / np.linalg.norm(d) * hyp
        rep = check_lemma_bounds(pp, {1, 2}, ComplexSignal(d))
        assert rep.all_passed


def test_lemma_bounds_double_root_clause():
    pp = PPInstance((2, 2, 3, 3))
    zero = ComplexSignal(np.zeros(4))
    rep = check_lemma_bounds(pp, {1, 3}, zero)
    assert rep.all_passed
    assert [c.double_root for c in rep.checks] == [True, True, False]
    assert rep.cap == pytest.approx(3.0 ** -4)


def test_lemma_bounds_read_at_the_planted_roots():
    # the off-side 49 is read at -49 itself, not at 1/(-1/49) = -49.00000000000001
    rep = check_lemma_bounds(PPInstance((343, 49, 7)), {1}, ComplexSignal(np.zeros(3)))
    assert rep.checks[1].mag_recip == 705600.0
    assert rep.all_passed


def test_lemma_bounds_hypothesis_guard():
    pp = PPInstance((2, 3, 6))
    with pytest.raises(HypothesisViolated):
        check_lemma_bounds(pp, {1, 2}, ComplexSignal(np.array([0.1, 0.0, 0.0])))
    with pytest.raises(ValueError):
        check_lemma_bounds(pp, {1, 2}, ComplexSignal(np.zeros(4)))


def test_lemma_parameters_are_integers_and_u_max_at_least_2():
    """discriminate and discrimination_constant read u_max and n as integers
    and refuse u_max < 2 in one shared check."""
    xm = ComplexSignal(np.array([9.0, 45.0, 54.0]))
    with pytest.raises(ValueError, match="n must be an integer, got 2.5"):
        discriminate(xm, 2, 3, 2.5)
    res, ref = discriminate(xm, 2, 3, np.int64(3)), discriminate(xm, 2, 3, 3)
    assert (res.mag_gamma, res.mag_recip) == (ref.mag_gamma, ref.mag_recip)
    for u_max in (0, 1, -3):
        with pytest.raises(ValueError, match="u_max >= 2"):
            discrimination_constant(u_max, 3)
    with pytest.raises(ValueError, match="u_max must be an integer, got 3.5"):
        discrimination_constant(3.5, 3)
    with pytest.raises(ValueError, match="n must be an integer, got 2.5"):
        discrimination_constant(3, 2.5)
    assert discrimination_constant(np.uint8(3), np.int64(3)) == discrimination_constant(3, 3)


@pytest.mark.parametrize("u", [(2, 3) * 5 + (6,), (3, 3, 3, 3, 2, 2, 2, 2, 2, 3, 3, 2, 3, 192)])
def test_lemma_bounds_refuse_a_perturbation_rounding_absorbed(u):
    """At N = 11 and 14 a real perturbation of norm u_max^(-2N) moves no
    entry of the planted solution, so the float check cannot read it."""
    pp = PPInstance(u)
    gamma = enumerate_witnesses(pp)[0]
    hyp = float(pp.u_max) ** (-2 * pp.n)
    d = np.random.default_rng(0).standard_normal(pp.n)
    d *= hyp / np.linalg.norm(d)
    with pytest.raises(OverflowBeyondPrecision, match=rf"N={pp.n}.*u_max\^\(-2N\) = {hyp:.3e}"):
        check_lemma_bounds(pp, gamma, ComplexSignal(d))
    assert check_lemma_bounds(pp, gamma, ComplexSignal(np.zeros(pp.n))).all_passed
    # an imaginary part moves every (real) planted entry, so it is read
    check_lemma_bounds(pp, gamma, ComplexSignal(1j * d))


def test_lemma_readouts_match_one_point_evaluations():
    """On every solvable N = 3..5 sweep instance, with its first witness,
    check_lemma_bounds on a zero perturbation and discriminate on each
    value read bitwise the one-point |X(-u)| and |X(-1/u)| of the
    planted signal."""
    solvable = 0
    for n in (3, 4, 5):
        for pp in all_pp_instances(n, 2, 6):
            witnesses = enumerate_witnesses(pp)
            if not witnesses:
                continue
            solvable += 1
            gamma = witnesses[0]
            x = ground_truth_signal(pp, gamma)
            rep = check_lemma_bounds(pp, gamma, ComplexSignal(np.zeros(pp.n)))
            for k, (u, c) in enumerate(zip(pp.u[:-1], rep.checks, strict=True), 1):
                a = abs(eval_ztransform(x, -float(u)))
                b = abs(eval_ztransform(x, -1.0 / u))
                assert (c.mag_beta, c.mag_recip) == ((a, b) if k in gamma else (b, a))
                res = discriminate(x, u, pp.u_max, pp.n)
                assert (res.mag_gamma, res.mag_recip) == (a, b)
    assert solvable == 410


def test_decide_frozen_positive():
    d = decide_pp(PPInstance((2, 3, 6)), oracle_solve)
    assert d.answer is PPAnswer.HAS_SOLUTION
    assert d.witness == frozenset({1, 2})
    assert d.removed_pairs == ()


def test_decide_frozen_negative():
    d = decide_pp(PPInstance((2, 3, 5)), oracle_solve)
    assert d.answer is PPAnswer.NO_SOLUTION
    assert d.witness is None


def test_decide_duplicate_removal():
    d = decide_pp(PPInstance((2, 2, 3, 3)), oracle_solve)
    assert d.answer is PPAnswer.HAS_SOLUTION
    assert d.witness == frozenset({3})
    assert d.removed_pairs == ((1, 2),)

    d = decide_pp(PPInstance((3, 3, 2, 2)), oracle_solve)
    assert d.answer is PPAnswer.HAS_SOLUTION
    assert d.witness == frozenset({3})
    assert d.removed_pairs == ((1, 2),)


def test_decide_exhausting_removals_reports_no_solution():
    # a fake near-solution carrying all four root pairs forces the
    # duplicate rule twice, emptying the instance
    roots = np.array([-2.0, -0.5, -3.0, -1.0 / 3.0])
    stub = _recording_solver([], np.poly(roots))
    d = decide_pp(PPInstance((2, 2, 3, 3, 5)), stub)
    assert d.answer is PPAnswer.NO_SOLUTION
    assert d.removed_pairs == ((1, 2), (3, 4))


def test_decide_both_roots_without_duplicate_certifies_existence():
    stub = _recording_solver([], np.poly(np.array([-2.0, -0.5])))
    d = decide_pp(PPInstance((2, 3, 6)), stub)
    assert d.answer is PPAnswer.HAS_SOLUTION
    assert d.witness is None


def test_decide_rejects_empty_trace():
    def broken(inst, cfg=None):
        return IterateTrace((), np.array([]), False)

    with pytest.raises(SolverFailure):
        decide_pp(PPInstance((2, 3, 6)), broken)


def _witness_identity_holds(pp, decision):
    removed = {i for pair in decision.removed_pairs for i in pair}
    top, bot = 1, 1
    for k in range(1, pp.n):
        if k in removed:
            continue
        if k in decision.witness:
            top *= pp.u[k - 1]
        else:
            bot *= pp.u[k - 1]
    return top == pp.u[-1] * bot


def test_decide_agrees_with_brute_force_on_random_solvable():
    rng = np.random.default_rng(42)
    for trial in range(25):
        pp = random_solvable_pp(3 + trial % 3, rng, unique_witness=False)
        d = decide_pp(pp, oracle_solve)
        assert d.answer is PPAnswer.HAS_SOLUTION
        if d.witness is not None:
            assert _witness_identity_holds(pp, d)


def test_decide_mini_sweep_agreement():
    n_checked = 0
    for pp in all_pp_instances(3, 2, 4):
        want = brute_force_pp(pp).answer
        got = decide_pp(pp, oracle_solve).answer
        assert got is want, f"disagreement on {pp.u}"
        n_checked += 1
    assert n_checked == 27 - 3  # (2,2,*) inadmissible


# sha256 of one line per instance of the N=3,4,5 sweep (values 2..6):
# values, answer, sorted witness, removed pairs and solver calls
FROZEN_SWEEP_SHA256 = "4df84c505002aecb3a6eb8f241ccc24e9400270b661c31b6ce59389a06c9e4cd"


def test_decide_sweep_frozen():
    lines = []
    for n in (3, 4, 5):
        for pp in all_pp_instances(n, 2, 6):
            calls = 0

            def counting(inst, cfg=None):
                nonlocal calls
                calls += 1
                return oracle_solve(inst, cfg)

            d = decide_pp(pp, counting)
            witness = sorted(d.witness) if d.witness is not None else None
            lines.append(f"{pp.u}:{d.answer.value}:{witness}:{list(d.removed_pairs)}:{calls}")
    assert len(lines) == 3860
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == FROZEN_SWEEP_SHA256


def test_sweep_rounds_sample_only_when_read(monkeypatch):
    """A decide round never samples its intensity: over the N = 3..5
    sweep's 4108 rounds, the 658 with a survivor return a trace whose loss
    samples the spectrum only when it is read, once per round. Each
    round's grid, read later, is bitwise the one that from_pairing samples
    at once, and is kept."""
    sampled = 0
    spectrum = solvers.spectrum_from_pairing

    def counting(pairing, omegas):
        nonlocal sampled
        sampled += 1
        return spectrum(pairing, omegas)

    rounds, traces = [], []

    def recording(inst, cfg=None):
        rounds.append(inst)
        trace = oracle_solve(inst, cfg)
        traces.append(trace)
        return trace

    monkeypatch.setattr(solvers, "spectrum_from_pairing", counting)
    for n in (3, 4, 5):
        for pp in all_pp_instances(n, 2, 6):
            decide_pp(pp, recording)
    assert (len(rounds), len(traces), sampled) == (4108, 658, 0)
    for k, trace in enumerate(traces, 1):
        trace.losses
        trace.losses
        assert sampled == k
    for inst in rounds:
        eager = PRInstance.from_pairing(inst.pairing, inst.anchor)
        assert inst.grid.omegas.tobytes() == eager.grid.omegas.tobytes()
        assert inst.grid.values.tobytes() == eager.grid.values.tobytes()
        assert inst.normalization == eager.normalization
        assert inst.grid is inst.grid
    assert sampled == 2 * len(rounds)  # once per round, once per eager copy


def test_sweep_reads_out_once_per_survivor_round(monkeypatch):
    """Over the N = 3..5 sweep, each of the 658 rounds with a survivor
    evaluates the z-transform once, at exactly its planted pairs, and
    every magnitude is bitwise the one-point evaluation at its root."""
    calls = []
    evaluate = hardness.eval_ztransform

    def recording(x, z):
        calls.append((x, z))
        return evaluate(x, z)

    rounds = []

    def solving(inst, cfg=None):
        trace = oracle_solve(inst, cfg)
        rounds.append((inst, trace.iterates[-1]))
        return trace

    monkeypatch.setattr(hardness, "eval_ztransform", recording)
    for n in (3, 4, 5):
        for pp in all_pp_instances(n, 2, 6):
            decide_pp(pp, solving)
    monkeypatch.undo()
    assert len(calls) == len(rounds) == 658
    for (inst, xm), (x, z) in zip(rounds, calls):
        pairs = inst.pairing.pairs
        assert x is xm
        assert z.astype(np.complex128).tobytes() == pairs.ravel().tobytes()
        values = [round(-g) for g in pairs[:, 0].real.tolist()]
        readout = hardness._readout(xm, hardness._planted_pairs(values))
        for (mag_gamma, mag_recip), (g, h) in zip(readout, pairs.tolist(), strict=True):
            assert mag_gamma == abs(evaluate(xm, g))
            assert mag_recip == abs(evaluate(xm, h))


def test_reduction_iteration_budget_frozen():
    assert hardness.reduction_iteration_budget(3, 3) == 2700
    assert hardness.reduction_iteration_budget(4, 6) == 4800


def test_decide_builds_one_config_per_round_size(monkeypatch):
    """decide_pp's default SolverConfig depends only on the round size and
    u_max, so it is built once per (N, u_max) and shared by every round
    with them: over the N = 3..5 sweep's 4108 rounds, one config per pair
    seen, each equal to the one a round would build itself. A given cfg
    is passed to every round as it is."""
    built = 0
    make = hardness.SolverConfig

    def counting(**kwargs):
        nonlocal built
        built += 1
        return make(**kwargs)

    configs = {}

    def solving(inst, cfg, u_max):
        assert (cfg.max_iters, cfg.seed) == (hardness.reduction_iteration_budget(inst.n, u_max), 0)
        assert configs.setdefault((inst.n, u_max), cfg) is cfg
        return oracle_solve(inst, cfg)

    hardness._round_config.cache_clear()
    monkeypatch.setattr(hardness, "SolverConfig", counting)
    for n in (3, 4, 5):
        for pp in all_pp_instances(n, 2, 6):
            decide_pp(pp, functools.partial(solving, u_max=pp.u_max))
    monkeypatch.undo()
    hardness._round_config.cache_clear()
    assert built == len(configs) == 16  # N = 3..5 and, after removals, 2, each at u_max = 3..6
    mine = make(max_iters=3)
    got = []
    decide_pp(PPInstance((2, 2, 3, 3)), lambda inst, cfg: got.append(cfg) or oracle_solve(inst, cfg), mine)
    assert len(got) == 2 and all(cfg is mine for cfg in got)
