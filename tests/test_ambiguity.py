import itertools
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fprlab import ambiguity
from fprlab.ambiguity import (
    ANCHOR_REL_TOL,
    SolutionSet,
    anchor_residuals,
    anchor_threshold,
    anchored_solutions,
    canonicalize,
    distinct_canonical,
    enumerate_solutions,
    filter_by_anchor,
    product_constraint,
    trivial_orbit_distance,
)
from fprlab.errors import (
    EnumerationBudgetExceeded,
    NoFeasibleSolution,
    ZeroAnchor,
    ZeroSignal,
)
from fprlab.errors import FprlabError
from fprlab.generate import random_signal
from fprlab.hardness import PPInstance, construct_hard_instance
from fprlab.signal_core import ComplexSignal, autocorrelation, fourier_intensity, uniform_grid
from fprlab.solvers import PRInstance, oracle_solve
from fprlab.ztransform import (
    RootSelection,
    ZeroPairing,
    build_S_poly,
    find_roots,
    pair_roots,
    signal_from_selection,
)

from test_ztransform import signals_with_clean_roots, well_separated


def pairing_of_signal(x):
    r = autocorrelation(x)
    return r, pair_roots(find_roots(build_S_poly(r)), r.entries[-1])


def test_enumeration_cardinality_frozen():
    x = ComplexSignal(np.array([9.0, 45.0, 54.0]))
    _, pairing = pairing_of_signal(x)
    sols = enumerate_solutions(pairing)
    assert len(sols.solutions) == 4
    found = sorted(tuple(np.round(sig.entries.real, 6)) for _, sig in sols.solutions)
    assert found == [
        (9.0, 45.0, 54.0),
        (18.0, 63.0, 27.0),
        (27.0, 63.0, 18.0),
        (54.0, 45.0, 9.0),
    ]
    reps = distinct_canonical(sols.signals())
    assert len(reps) == 2


@given(signals_with_clean_roots())
@settings(max_examples=60, deadline=None)
def test_enumeration_counts(pair):
    roots, x = pair
    assume(x.n >= 2)
    assume(well_separated(roots))
    _, pairing = pairing_of_signal(x)
    sols = enumerate_solutions(pairing)
    assert len(sols.solutions) == 2 ** (x.n - 1)
    # modding out the trivial ambiguities halves the count exactly
    assert len(distinct_canonical(sols.signals())) == 2 ** (x.n - 2)


@given(signals_with_clean_roots())
@settings(max_examples=40, deadline=None)
def test_enumerated_solutions_share_intensity(pair):
    roots, x = pair
    assume(well_separated(roots))
    _, pairing = pairing_of_signal(x)
    om = uniform_grid(2 * x.n + 1)
    ref = fourier_intensity(x, om).values
    scale = float(np.max(ref)) + 1.0
    for _, sig in enumerate_solutions(pairing).solutions:
        got = fourier_intensity(sig, om).values
        assert np.allclose(got, ref, rtol=1e-6, atol=1e-6 * scale)


def test_single_entry_signal_roundtrip():
    x = ComplexSignal(np.array([3.0j]))
    r = autocorrelation(x)
    pairing = ZeroPairing(complex(r.entries[0]), (), ())
    sols = enumerate_solutions(pairing)
    assert len(sols.solutions) == 1
    kept = filter_by_anchor(sols, 3.0j)
    assert np.allclose(kept.solutions[0][1].entries, [3.0j])


def test_canonicalize_strips_translation_padding():
    a = canonicalize(ComplexSignal(np.array([0.0, 1.0, -2.0, 0.0])))
    b = canonicalize(ComplexSignal(np.array([1.0, -2.0])))
    assert a.n == b.n == 2
    assert np.allclose(a.entries, b.entries)


def test_canonicalize_zero_signal():
    with pytest.raises(ZeroSignal):
        canonicalize(ComplexSignal(np.array([0.0, 0.0])))


def test_canonicalize_picks_reflection_min():
    a = canonicalize(ComplexSignal(np.array([1.0, -2.0])))
    b = canonicalize(ComplexSignal(np.array([2.0, -1.0])))
    assert np.allclose(a.entries, b.entries)
    assert a.entries[0].imag == 0.0
    assert a.entries[0].real > 0.0


@given(
    signals_with_clean_roots(),
    st.floats(min_value=0.0, max_value=2 * np.pi),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_canonicalize_orbit_invariance(pair, phase, reflect):
    roots, x = pair
    assume(well_separated(roots))
    y = ComplexSignal(np.exp(1j * phase) * x.entries)
    if reflect:
        y = y.conj_reflect()
    cx = canonicalize(x)
    cy = canonicalize(y)
    assert cx.n == cy.n
    scale = float(np.linalg.norm(cx.entries)) + 1.0
    assert np.allclose(cx.entries, cy.entries, rtol=1e-7, atol=1e-7 * scale)
    assert trivial_orbit_distance(x, y) <= 1e-7 * scale


def test_orbit_distance_basics():
    a = ComplexSignal(np.array([1.0, -2.0]))
    assert trivial_orbit_distance(a, ComplexSignal(1j * a.entries)) <= 1e-12
    assert trivial_orbit_distance(a, a.conj_reflect()) <= 1e-12
    b = ComplexSignal(np.array([1.0, 2.0]))
    assert trivial_orbit_distance(a, b) > 0.5
    c = ComplexSignal(np.array([1.0, 2.0, 3.0]))
    assert trivial_orbit_distance(a, c) == float("inf")
    # no-reflection variant sees the reflected partner as far away
    d = ComplexSignal(np.array([9.0, 45.0, 54.0]))
    assert trivial_orbit_distance(d, d.conj_reflect(), reflection=False) > 1.0


def test_product_constraint_frozen():
    x = ComplexSignal(np.array([1.0, -2.0]))
    _, pairing = pairing_of_signal(x)
    up = RootSelection(pairing, (True,))
    down = RootSelection(pairing, (False,))
    # gamma = 2 matches r(1)/|x(0)|^2 = -2 after negation; 1/2 misses by 1.5
    assert product_constraint(up, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert product_constraint(down, 1.0) == pytest.approx(1.5, rel=1e-9)
    with pytest.raises(ZeroAnchor):
        product_constraint(up, 0.0)


def test_filter_by_anchor_frozen():
    x = ComplexSignal(np.array([9.0, 45.0, 54.0]))
    _, pairing = pairing_of_signal(x)
    sols = enumerate_solutions(pairing)
    kept = filter_by_anchor(sols, 9.0)
    assert len(kept.solutions) == 1
    assert np.allclose(kept.solutions[0][1].entries, [9.0, 45.0, 54.0], rtol=1e-9)
    kept = filter_by_anchor(sols, 54.0)
    assert np.allclose(kept.solutions[0][1].entries, [54.0, 45.0, 9.0], rtol=1e-9)
    for anchored in (lambda x0: filter_by_anchor(sols, x0), lambda x0: anchored_solutions(pairing, x0)):
        with pytest.raises(NoFeasibleSolution):
            anchored(10.0)
        for zero in (0.0, 1e-170):
            with pytest.raises(ZeroAnchor):
                anchored(zero)
    # |1e-170|^2 underflows to 0, so it cannot divide r(N-1) either
    for zero in (0.0, 1e-170):
        with pytest.raises(ZeroAnchor):
            anchor_residuals(pairing, zero)
        with pytest.raises(ZeroAnchor):
            anchor_threshold(pairing, zero, ANCHOR_REL_TOL)
        with pytest.raises(ZeroAnchor):
            product_constraint(RootSelection(pairing, (True, True)), zero)


def test_filter_by_anchor_sets_leading_phase():
    x = ComplexSignal(np.array([9.0, 45.0, 54.0]))
    _, pairing = pairing_of_signal(x)
    sols = enumerate_solutions(pairing)
    anchor = 9.0 * np.exp(0.7j)
    kept = filter_by_anchor(sols, anchor)
    lead = kept.solutions[0][1].entries[0]
    assert lead == pytest.approx(anchor, rel=1e-9)


def test_filter_keeps_all_matching_selections():
    # double unit-circle root: both selections expand to the same signal
    x = ComplexSignal(np.array([1.0, -1.0]))
    _, pairing = pairing_of_signal(x)
    sols = enumerate_solutions(pairing)
    kept = filter_by_anchor(sols, 1.0)
    assert len(kept.solutions) == 2
    for _, sig in kept.solutions:
        assert np.allclose(sig.entries, [1.0, -1.0], atol=1e-9)


def test_enumeration_budget():
    pairs = tuple((2.0, 0.5) for _ in range(25))
    flags = (False,) * 25
    pairing = ZeroPairing(1.0, pairs, flags)
    with pytest.raises(EnumerationBudgetExceeded):
        enumerate_solutions(pairing)
    with pytest.raises(EnumerationBudgetExceeded):
        anchored_solutions(pairing, 1.0)


def test_choice_vector_encoding_order():
    x = ComplexSignal(np.array([9.0, 45.0, 54.0]))
    _, pairing = pairing_of_signal(x)
    sols = enumerate_solutions(pairing)
    seen = [choices for choices, _ in sols.solutions]
    assert seen == [(False, False), (True, False), (False, True), (True, True)]


def _differential_corpus():
    """Seeded pairings at N = 1..14, each with its true anchor and an inconsistent one.

    N = 14 has 8192 selections, so the residual scan crosses a block boundary.
    """
    rng = np.random.default_rng(20220912)
    corpus = []
    for n in range(1, 15):
        for _ in range(24 if n <= 10 else 8 if n <= 13 else 2):
            x = random_signal(n, rng)
            if n == 1:
                pairing = ZeroPairing(complex(autocorrelation(x).entries[0]), (), ())
            else:
                try:
                    _, pairing = pairing_of_signal(x)
                except FprlabError:
                    continue
            x0 = complex(x.entries[0])
            corpus.append((pairing, x0))
            corpus.append((pairing, 1.5 * x0))
    return corpus


def _reference_anchored(pairing, x0):
    """Per-selection product_constraint scan, expanding survivors with alpha = arg(x0)."""
    p = pairing.n_pairs
    alpha = float(np.angle(x0))
    threshold = ANCHOR_REL_TOL * abs(complex(pairing.scale)) / abs(x0) ** 2
    residuals, keep = [], []
    for v in range(1 << p):
        choices = tuple(bool((v >> k) & 1) for k in range(p))
        sel = RootSelection(pairing, choices, alpha)
        residuals.append(product_constraint(sel, x0))
        if residuals[-1] <= threshold:
            keep.append((choices, signal_from_selection(sel)))
    return np.array(residuals), keep


def test_anchored_scan_matches_per_selection_reference():
    corpus = _differential_corpus()
    assert len(corpus) >= 400
    # anchors of modulus sqrt|r(N-1)| keep every equal-product split of the
    # real pairings, so several survivors are expanded at a nonzero phase;
    # the complex-scale pairings define no real spectrum to pose the oracle on
    phased = [
        (pairing, np.sqrt(abs(pairing.scale)) * np.exp(0.7j))
        for pairing in _real_polynomial_pairings()
        if pairing.scale.imag == 0
    ]
    feasible, several = 0, 0
    for pairing, x0 in corpus + phased:
        ref_res, ref_keep = _reference_anchored(pairing, x0)
        assert anchor_residuals(pairing, x0).tobytes() == ref_res.tobytes()
        if not ref_keep:
            with pytest.raises(NoFeasibleSolution):
                anchored_solutions(pairing, x0)
            with pytest.raises(NoFeasibleSolution):
                oracle_solve(PRInstance.from_pairing(pairing, x0))
            continue
        feasible += 1
        several += len(ref_keep) > 1
        outs = [anchored_solutions(pairing, x0)]
        if pairing.n_pairs < 8:  # full expansion is slow and filter_by_anchor reads only the pairing
            outs.append(filter_by_anchor(enumerate_solutions(pairing), x0))
        for got in outs:
            assert [c for c, _ in got.solutions] == [c for c, _ in ref_keep]
            for (_, sig), (_, ref) in zip(got.solutions, ref_keep):
                assert sig.entries.tobytes() == ref.entries.tobytes()
        expected = ref_keep[0][1].entries.copy()
        expected[0] = x0
        found = oracle_solve(PRInstance.from_pairing(pairing, x0)).final
        assert found.entries.tobytes() == expected.tobytes()
    assert feasible - several >= len(corpus) // 2
    assert several >= 20


def _real_polynomial_pairings():
    """Pairings with selections whose roots are closed under conjugation.

    Real roots (-u, -1/u), u in 2..6, as the product-partition embedding
    builds them, and exact conjugate partners (g, h), (conj g, conj h).
    """
    for n in range(1, 5):
        for us in itertools.combinations_with_replacement(range(2, 7), n):
            yield ZeroPairing(float(np.prod(us)), tuple((-u, -1.0 / u) for u in us), (False,) * n)
    for g in (1 + 2j, -0.5 + 1.5j, 3 - 1j, 0.25 - 0.75j):
        h = 1 / np.conj(g)
        pairs = ((g, h), (np.conj(g), np.conj(h)), (-2.0, -0.5))
        yield ZeroPairing(3.0, pairs, (False,) * 3)
        yield ZeroPairing(2.0 - 1.0j, pairs + ((g * 1j, h * 1j), (np.conj(g * 1j), np.conj(h * 1j))), (False,) * 5)


def test_enumeration_matches_per_selection_reference():
    """enumerate_solutions equals a signal_from_selection loop bit for bit.

    Every code of the first 4 corpus pairings of each size up to 10 pairs
    (more would cost seconds of reference expansion), a stride through
    13-pair pairings that takes in codes 4095 and 4096 on either side of
    the block boundary, pairings that reach np.poly's real branch, the
    flagged self-pair of [1, -1], and the empty pairing. The 13-pair
    pairings are the generic corpus ones, where no root's conjugate is a
    root, and two closable ones: real roots (-u, -1/u), and six pairs of
    exact conjugate partners ahead of a real pair, so that codes 0, 4095,
    4096 and 8191 take np.poly's real branch in both blocks.
    """
    p13 = sorted({*range(0, 1 << 13, 97), 4095, 4096, (1 << 13) - 1})
    cases, taken = [], Counter()
    for pairing, _ in _differential_corpus()[::2]:
        p = pairing.n_pairs
        if p <= 10 and taken[p] < 4:
            taken[p] += 1
            cases.append((pairing, range(1 << p)))
        elif p == 13:
            roots = np.array(pairing.pairs).ravel()
            assert not np.any(roots.conj()[:, None] == roots)
            cases.append((pairing, p13))
    assert sum(codes is p13 for _, codes in cases) == 2
    us = 2.0 + 0.25 * np.arange(13)
    cases.append((ZeroPairing(float(np.prod(us)), tuple((-u, -1.0 / u) for u in us), (False,) * 13), p13))
    gs = [(1.1 + 0.2 * k) * np.exp(1j * (0.3 + 0.4 * k)) for k in range(6)]
    partners = [pair for g in gs for pair in ((g, 1 / np.conj(g)), (np.conj(g), 1 / g))]
    cases.append((ZeroPairing(5.0, (*partners, (-2.0, -0.5)), (False,) * 13), p13))
    cases += [(pairing, range(1 << pairing.n_pairs)) for pairing in _real_polynomial_pairings()]
    _, flagged = pairing_of_signal(ComplexSignal(np.array([1.0, -1.0])))
    assert flagged.unit_circle_flags == (True,)
    cases += [(flagged, range(2)), (ZeroPairing(-4.0 + 3.0j, (), ()), range(1))]
    for pairing, codes in cases:
        got = enumerate_solutions(pairing).solutions
        assert len(got) == 1 << pairing.n_pairs
        for v in codes:
            choices = tuple(bool((v >> k) & 1) for k in range(pairing.n_pairs))
            ref = signal_from_selection(RootSelection(pairing, choices))
            assert got[v][0] == choices
            assert got[v][1].entries.tobytes() == ref.entries.tobytes()


def test_large_root_pairs_off_the_unit_circle():
    """[1, t] has roots -t and -1/t. pair_tolerance(-1/t) grows like 1/t^2;
    measured against it rather than at unit scale, every |1/t| past ~1e6
    would sit on the unit circle and the pair would be flagged."""
    for t in 10.0 ** -np.arange(3, 10):
        x = ComplexSignal(np.array([1.0, t]))
        _, pairing = pairing_of_signal(x)
        assert pairing.unit_circle_flags == (False,)
        (g, h), = pairing.pairs
        assert g == pytest.approx(-1 / t, rel=1e-9) and h == pytest.approx(-t, rel=1e-9)
        got = [sig.entries for sig in enumerate_solutions(pairing).signals()]
        assert np.allclose(got, [[1.0, t], [t, 1.0]], rtol=1e-9, atol=0)
        assert oracle_solve(PRInstance.from_pairing(pairing, 1.0)).final.entries == pytest.approx([1.0, t])


def _assert_views(sols, want):
    """The pairs, signals and slices a set derives match the choice tuples
    want and the set's own rows, bit for bit, and cannot be written."""
    pairs, k = sols.solutions, len(want)
    assert len(pairs) == k == sols.rows.shape[0] == sols.codes.size
    assert [c for c, _ in pairs] == want
    for i, sig in enumerate(sols.signals()):
        assert sig.entries.tobytes() == sols.rows[i].tobytes() == pairs[i][1].entries.tobytes()
        assert sig.n == sols.pairing.n_pairs + 1 and sig.full_support is False
        with pytest.raises(ValueError):
            sig.entries[0] = 1.0
    for frozen in (pairs[-1][1].entries, sols.rows, sols.codes):
        with pytest.raises(ValueError):
            frozen[0] = 1
    with pytest.raises(ValueError):
        pairs[0][1].entries.setflags(write=True)
    ref = tuple(zip(want, range(k)))
    slices = (slice(None), slice(1, None, 2), slice(None, None, -1), slice(-3, k + 5), slice(3, 1), slice(-1, None))
    for key in slices:
        got = pairs[key]
        assert type(got) is tuple and [c for c, _ in got] == [c for c, _ in ref[key]]
        for (_, sig), (_, i) in zip(got, ref[key]):
            assert sig.entries.tobytes() == sols.rows[i].tobytes()
    for key in (0, -1, -k, k - 1, np.int64(k - 1)):
        choice, sig = pairs[key]
        assert choice == ref[key][0] and sig.entries.tobytes() == sols.rows[ref[key][1]].tobytes()
    for key in (k, -k - 1):
        with pytest.raises(IndexError):
            pairs[key]
    with pytest.raises(TypeError):
        pairs[1.0]


def test_solution_set_derived_views():
    """Choice tuples and signals are derived from codes and one row block:
    in the old itertools.product order for full sets, in survivor-code
    order for an anchored set with several survivors."""
    sizes = Counter()
    for pairing, _ in _differential_corpus()[::2]:
        p = pairing.n_pairs
        if p <= 10:
            sizes[p] += 1
            want = [c[::-1] for c in itertools.product((False, True), repeat=p)]
            _assert_views(enumerate_solutions(pairing), want)
    assert set(sizes) == set(range(11))
    pr = construct_hard_instance(PPInstance((3, 2, 3, 2, 3, 2, 3, 2, 36))).pr
    threshold = anchor_threshold(pr.pairing, pr.anchor, ANCHOR_REL_TOL)
    survivors = np.flatnonzero(anchor_residuals(pr.pairing, pr.anchor) <= threshold)
    kept = anchored_solutions(pr.pairing, pr.anchor)
    assert survivors.size == 16 and kept.codes.tolist() == survivors.tolist()
    _assert_views(kept, [tuple(bits) for bits in ambiguity._code_bits(survivors, pr.pairing.n_pairs).tolist()])


def test_anchor_tol_must_be_finite_and_nonnegative():
    """A NaN or negative tol would reject every selection, a false
    NoFeasibleSolution certificate; an infinite one would keep them all."""
    pairing = pairing_of_signal(ComplexSignal(np.array([9.0, 45.0, 54.0])))[1]
    for bad in (-1.0, -1e-300, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="anchor tol"):
            anchor_threshold(pairing, 9.0, bad)
        with pytest.raises(ValueError, match="anchor tol"):
            anchored_solutions(pairing, 9.0, bad)
    assert anchor_threshold(pairing, 9.0, 0.0) == 0.0


def test_solution_set_checks_its_block():
    sols = enumerate_solutions(pairing_of_signal(ComplexSignal(np.array([9.0, 45.0, 54.0])))[1])
    for bad in (np.inf, np.nan, complex(0.0, -np.inf)):
        rows = np.array(sols.rows)
        rows[1, 2] = bad
        with pytest.raises(ValueError, match="signal entries must be finite"):
            SolutionSet(sols.pairing, sols.codes, rows)
    with pytest.raises(ValueError, match="at least one entry"):
        SolutionSet(sols.pairing, sols.codes, np.empty((4, 0)))
    with pytest.raises(ValueError, match="2-D"):
        SolutionSet(sols.pairing, sols.codes, np.ones(4))
    for codes, rows in ((sols.codes[:3], sols.rows), (sols.codes, sols.rows[:, :2])):
        with pytest.raises(ValueError, match="one code per row"):
            SolutionSet(sols.pairing, codes, np.array(rows))
    rows = np.array(sols.rows)
    same = SolutionSet(sols.pairing, sols.codes, rows)
    assert np.shares_memory(same.rows, rows) and not rows.flags.writeable  # frozen in place, not copied


def test_enumeration_byte_budget():
    """2^p selections of 16 N + 8 bytes (a row and a code) are checked
    before anything is allocated. 24 pairs would need 6.8 GB, so only the
    check runs here; the anchored scan keeps only the pair budget."""
    us = 2.0 + 0.1 * np.arange(24)
    pairing = ZeroPairing(float(np.prod(us)), tuple((-u, -1.0 / u) for u in us), (False,) * 24)
    need = (1 << 24) * (16 * 25 + 8)
    assert ambiguity.ENUM_BUDGET_BYTES < need
    with pytest.raises(EnumerationBudgetExceeded, match=f"{1 << 24} selections need {need} bytes"):
        ambiguity._check_budget(pairing, 16 * 25 + 8)
    assert ambiguity._check_budget(pairing) == 24


def test_enumeration_bytes_per_selection():
    """Peak allocation of a 16-pair enumeration stays under twice the
    16 N + 8 bytes per selection that the set keeps. With 2^16 selections
    the 2^12-code block temporaries are a small share of the peak."""
    _, pairing = pairing_of_signal(random_signal(17, np.random.default_rng(16)))
    p = pairing.n_pairs
    assert p == 16
    tracemalloc.start()
    try:
        sols = enumerate_solutions(pairing)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(sols.solutions) == 1 << p
    assert peak < 2 * (1 << p) * (16 * (p + 1) + 8)
