import ast
import itertools
import os
import pathlib
import subprocess
import sys
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from conftest import pairing_of_signal, signals_with_clean_roots, well_separated
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fprlab
from fprlab import ambiguity
from fprlab.ambiguity import (
    ANCHOR_REL_TOL,
    SolutionSet,
    anchor_threshold,
    anchored_solutions,
    canonicalize,
    distinct_canonical,
    enumerate_solutions,
    filter_by_anchor,
    trivial_orbit_distance,
)
from fprlab.errors import (
    EnumerationBudgetExceeded,
    NoFeasibleSolution,
    OverflowBeyondPrecision,
    ZeroAnchor,
    ZeroSignal,
)
from fprlab.generate import generic_instance, random_signal
from fprlab.reference import RootSelection, anchor_residuals, fourier_intensity, product_constraint, signal_from_selection
from fprlab.signal_core import ComplexSignal, autocorrelation, uniform_grid
from fprlab.solvers import PRInstance, oracle_solve
from fprlab.ztransform import ZeroPairing


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


SCALES = st.sampled_from((1e-13, 1e-10, 1e-7, 1.0, 1e6, 1e12))


@given(signals_with_clean_roots(), SCALES)
@settings(max_examples=60, deadline=None)
def test_enumeration_counts(pair, scale):
    """2^(N-1) selections, 2^(N-2) of them distinct up to the trivial
    ambiguities, at any scale of the signal."""
    roots, x = pair
    assume(well_separated(roots))
    x = ComplexSignal(scale * x.entries)
    _, pairing = pairing_of_signal(x)
    sols = enumerate_solutions(pairing)
    assert len(sols.solutions) == 2 ** (x.n - 1)
    # modding out the trivial ambiguities halves the count exactly
    assert len(distinct_canonical(sols.signals())) == 2 ** (x.n - 2)


@given(signals_with_clean_roots())
@settings(max_examples=60, deadline=None)
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
    pairing = ZeroPairing(complex(r.entries[0]), ())
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
    SCALES,
)
@settings(max_examples=60, deadline=None)
def test_canonicalize_orbit_invariance(pair, phase, reflect, scale):
    roots, x = pair
    assume(well_separated(roots))
    x = ComplexSignal(scale * x.entries)
    y = ComplexSignal(np.exp(1j * phase) * x.entries)
    if reflect:
        y = y.conj_reflect()
    cx = canonicalize(x)
    cy = canonicalize(y)
    assert cx.n == cy.n
    norm = float(np.linalg.norm(cx.entries))
    assert np.allclose(cx.entries, cy.entries, rtol=1e-7, atol=1e-7 * norm)
    assert trivial_orbit_distance(x, y) <= 1e-7 * norm


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
    # |1e-170|^2 underflows to 0, so it cannot divide r(N-1) either
    for zero in (0.0, 1e-170):
        for call in (
            lambda: filter_by_anchor(sols, zero),
            lambda: anchored_solutions(pairing, zero),
            lambda: anchor_residuals(pairing, zero),
            lambda: anchor_threshold(pairing, zero, ANCHOR_REL_TOL),
            lambda: product_constraint(RootSelection(pairing, (True, True)), zero),
        ):
            with pytest.raises(ZeroAnchor):
                call()


def test_filter_by_anchor_sets_leading_phase():
    x = ComplexSignal(np.array([9.0, 45.0, 54.0]))
    _, pairing = pairing_of_signal(x)
    sols = enumerate_solutions(pairing)
    anchor = 9.0 * np.exp(0.7j)
    kept = filter_by_anchor(sols, anchor)
    lead = kept.solutions[0][1].entries[0]
    assert lead == pytest.approx(anchor, rel=1e-9)


def test_filter_keeps_all_matching_selections(corpus):
    # double unit-circle root of [1, -1]: both selections expand to the same signal
    sols = enumerate_solutions(corpus.flagged[0])
    kept = filter_by_anchor(sols, 1.0)
    assert len(kept.solutions) == 2
    for _, sig in kept.solutions:
        assert np.allclose(sig.entries, [1.0, -1.0], atol=1e-9)


def test_enumeration_budget():
    pairing = ZeroPairing(1.0, ((2.0, 0.5),) * 25)
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


def test_anchored_scan_matches_per_selection_reference(corpus):
    """anchor_residuals equals a product_constraint loop, and
    anchored_solutions (with filter_by_anchor below 8 pairs) expands
    exactly its survivors, bitwise as signal_from_selection does, on every
    corpus pairing but the sweep's and those past 13 pairs (the loop would
    take seconds). oracle_solve returns the first survivor with x(0) set
    to the anchor, or NoFeasibleSolution when nothing survives."""
    generic = [case for case in corpus.generic if case[0].n_pairs <= 13]
    assert len(generic) >= 400
    # anchors of modulus sqrt|r(N-1)| keep every equal-product split of the
    # real pairings, so several survivors are expanded at a nonzero phase;
    # the complex-scale closable and empty pairings define no real spectrum
    # to pose the oracle on; every other pairing is posed
    cases = [(*case, True) for case in [*generic, corpus.sixteen, corpus.flagged, *corpus.near, *corpus.wide]]
    cases += [(*case, case[0].scale.imag == 0) for case in [*corpus.closable, *corpus.empty]]
    assert sum(posed for *_, posed in cases) >= len(generic) + 100
    unique, several = 0, 0
    for pairing, x0, posed in cases:
        ref_res, ref_keep = _reference_anchored(pairing, x0)
        assert anchor_residuals(pairing, x0).tobytes() == ref_res.tobytes()
        if not ref_keep:
            with pytest.raises(NoFeasibleSolution):
                anchored_solutions(pairing, x0)
            if posed:
                with pytest.raises(NoFeasibleSolution):
                    oracle_solve(PRInstance.from_pairing(pairing, x0))
            continue
        unique += len(ref_keep) == 1
        several += len(ref_keep) > 1
        outs = [anchored_solutions(pairing, x0)]
        if pairing.n_pairs < 8:  # full expansion is slow and filter_by_anchor reads only the pairing
            outs.append(filter_by_anchor(enumerate_solutions(pairing), x0))
        for got in outs:
            assert [c for c, _ in got.solutions] == [c for c, _ in ref_keep]
            for (_, sig), (_, ref) in zip(got.solutions, ref_keep):
                assert sig.entries.tobytes() == ref.entries.tobytes()
        if posed:
            expected = ref_keep[0][1].entries.copy()
            expected[0] = x0
            found = oracle_solve(PRInstance.from_pairing(pairing, x0)).final
            assert found.entries.tobytes() == expected.tobytes()
    assert unique >= len(generic) // 2
    assert several >= 20


def _scan_codes(pairing, x0, tol):
    """The survivor search's codes, asserted bitwise equal to the full residual scan's."""
    want = np.flatnonzero(anchor_residuals(pairing, x0) <= anchor_threshold(pairing, x0, tol))
    got = ambiguity._survivor_codes(pairing, x0, tol)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    return want


def _tol_at(pairing, x0, residual):
    """A tol whose anchor_threshold is exactly residual, or None if no double reaches it."""
    tol = residual / anchor_threshold(pairing, x0, 1.0)
    for _ in range(4):
        thr = anchor_threshold(pairing, x0, tol)
        if thr == residual:
            return tol
        tol = float(np.nextafter(tol, np.inf if thr < residual else -np.inf))
    return None


def test_survivor_search_matches_full_scan_at_its_boundaries(corpus):
    """_survivor_codes, which checks only the codes whose root-product
    modulus falls in the anchor window, keeps exactly the codes the full
    anchor_residuals scan keeps: on the generic pairings with N = 1..16
    (two blocks past 12 pairs) at the true anchor and at 1.5x it, on every
    sweep embedding, on the 16-survivor hard instance, on a flagged
    unit-circle pair, on the empty pairings, at tol = 0 and at tols whose
    threshold passes |T| = |r(N-1)|/|x0|^2, and on roots so far apart
    that partial products leave double range. At a tol whose threshold
    equals a code's residual, and one ulp of tol either side, the two
    still agree, for the best code (a window of a few ulps) and the
    runner-up (a window that ends at that code's modulus)."""
    stepped = 0
    assert {pairing.n_pairs for pairing, _ in corpus.generic} == set(range(16))
    for i, (pairing, x0) in enumerate(corpus.generic):
        kept = _scan_codes(pairing, x0, ANCHOR_REL_TOL)
        assert kept.size == (1 if i % 2 == 0 else 0)
        for tol in (0.0, 1.0, 3.0):
            _scan_codes(pairing, x0, tol)
        residuals = anchor_residuals(pairing, x0)
        for code in np.argsort(residuals, kind="stable")[:2]:
            tol = _tol_at(pairing, x0, float(residuals[code]))
            if tol is None:
                continue
            stepped += 1
            assert code in _scan_codes(pairing, x0, tol)
            assert code in _scan_codes(pairing, x0, float(np.nextafter(tol, np.inf)))
            if tol > 0:
                _scan_codes(pairing, x0, float(np.nextafter(tol, -np.inf)))
    assert stepped >= len(corpus.generic)
    for pairing, x0 in corpus.sweep + corpus.near:
        _scan_codes(pairing, x0, ANCHOR_REL_TOL)
    assert len(corpus.sweep) == 3860
    assert _scan_codes(*corpus.sixteen, ANCHOR_REL_TOL).size == 16
    assert _scan_codes(*corpus.sixteen, 0.0).size == 16
    assert corpus.flagged[0].unit_circle_flags == (True,)
    assert _scan_codes(*corpus.flagged, ANCHOR_REL_TOL).size == 2
    for (pairing, x0), survivors in zip(corpus.empty, (1, 0)):
        assert _scan_codes(pairing, x0, ANCHOR_REL_TOL).size == survivors
    # a wide pairing's planted code has a zero residual; at tol = 0 the
    # search finds it only through the window's rounding widening E
    for (pairing, x0), planted in zip(corpus.wide, corpus.planted):
        assert planted in _scan_codes(pairing, x0, 0.0)
    # roots 1e200 and 1e-200 take partial products out of double range: code
    # 0b1100 has the root product 1, but np.prod would underflow it to 0, so
    # the search and the full scan both refuse the pairing
    with pytest.raises(OverflowBeyondPrecision):
        ambiguity._survivor_codes(*corpus.far, ANCHOR_REL_TOL)
    with pytest.raises(OverflowBeyondPrecision):
        anchor_residuals(*corpus.far)


def _paths(monkeypatch, run):
    """run() with the Python-float paths taken wherever they apply, with
    only the numpy block paths, and at the default cutovers: one result
    each, or the exception each raised."""
    out = []
    for small_codes, small_rows in ((1 << 30, 1 << 30), (0, 0), (ambiguity._SMALL_CODES, ambiguity._SMALL_ROWS)):
        monkeypatch.setattr(ambiguity, "_SMALL_CODES", small_codes)
        monkeypatch.setattr(ambiguity, "_SMALL_ROWS", small_rows)
        try:
            out.append(run())
        except OverflowBeyondPrecision as exc:
            out.append(type(exc))
    return out


def test_small_paths_match_block_paths(corpus, monkeypatch):
    """The Python-float survivor search (2^p <= _SMALL_CODES) and
    expansion (at most _SMALL_ROWS codes) give bitwise the codes and rows
    of the numpy block paths: on every sweep embedding's survivors, on the
    generic pairings at each cutover and one past it (2^p = 64 and 128
    codes; 4 and 5 rows), on pairings whose rows take np.poly's real
    branch (complex conjugate partners among them), and on a flagged
    unit-circle pair. The far pairing is refused on every path."""
    assert (ambiguity._SMALL_CODES, ambiguity._SMALL_ROWS) == (64, 4)

    def codes(pairing, x0, tol=ANCHOR_REL_TOL):
        def run():
            got = ambiguity._survivor_codes(pairing, x0, tol)
            return got.dtype.str, got.tobytes()
        small, block, default = _paths(monkeypatch, run)
        assert small == block == default
        return np.frombuffer(small[1], small[0])

    def rows(pairing, picked, alpha=0.7):
        picked = np.asarray(picked, np.int64)
        small, block, default = _paths(monkeypatch, lambda: ambiguity._expand(pairing, picked, alpha).tobytes())
        assert small == block == default

    seen = Counter()
    for pairing, x0 in corpus.sweep:
        kept = codes(pairing, x0)
        if kept.size:
            rows(pairing, kept, float(np.angle(x0)))
        seen[kept.size] += 1
    assert seen == {0: 3450, 1: 62, 2: 270, 3: 74, 4: 4}  # 4 rows: the sweep reaches the row cutover
    at_cutover = [case for case in corpus.generic if case[0].n_pairs in (6, 7)]
    assert {pairing.n_pairs for pairing, _ in at_cutover} == {6, 7}
    for pairing, x0 in at_cutover:
        for tol in (ANCHOR_REL_TOL, 1.0):
            codes(pairing, x0, tol)
        for k in (1, 4, 5):
            rows(pairing, range(0, 1 << pairing.n_pairs, 11)[:k])
    sixteen = codes(*corpus.sixteen)
    for k in (1, 2, 4, 5, 16):
        rows(corpus.sixteen[0], sixteen[:k])
    for pairing, x0 in [*corpus.closable, corpus.flagged]:
        codes(pairing, x0)
        picked = np.arange(min(1 << pairing.n_pairs, 40))
        for k in (1, 4, 5):
            for lo in range(0, picked.size, k):
                rows(pairing, picked[lo : lo + k])
    assert corpus.flagged[0].unit_circle_flags == (True,)
    assert _paths(monkeypatch, lambda: ambiguity._survivor_codes(*corpus.far, ANCHOR_REL_TOL)) == [OverflowBeyondPrecision] * 3


def test_enumeration_matches_per_selection_reference(corpus):
    """enumerate_solutions equals a signal_from_selection loop bit for bit.

    Every code of the first 4 generic pairings of each size up to 10 pairs
    (more would cost seconds of reference expansion), a stride through
    13-pair pairings that takes in codes 4095 and 4096 on either side of
    the block boundary, the corpus pairings that reach np.poly's real
    branch, the flagged self-pair of [1, -1], and the empty pairings. The
    13-pair pairings are the generic ones, where no root's conjugate is a
    root, and the two closable ones, whose codes 0, 4095, 4096 and 8191
    take np.poly's real branch in both blocks.
    """
    p13 = sorted({*range(0, 1 << 13, 97), 4095, 4096, (1 << 13) - 1})
    cases, taken = [], Counter()
    for pairing, _ in corpus.generic[::2]:
        p = pairing.n_pairs
        if p <= 10 and taken[p] < 4:
            taken[p] += 1
            cases.append((pairing, range(1 << p)))
        elif p == 13:
            roots = np.array(pairing.pairs).ravel()
            assert not np.any(roots.conj()[:, None] == roots)
            cases.append((pairing, p13))
    assert sum(codes is p13 for _, codes in cases) == 2
    assert corpus.flagged[0].unit_circle_flags == (True,)
    for pairing, _ in [*corpus.closable, corpus.flagged, *corpus.empty]:
        cases.append((pairing, p13 if pairing.n_pairs == 13 else range(1 << pairing.n_pairs)))
    for pairing, codes in cases:
        got = enumerate_solutions(pairing).solutions
        assert len(got) == 1 << pairing.n_pairs
        for v in codes:
            choices = tuple(bool((v >> k) & 1) for k in range(pairing.n_pairs))
            ref = signal_from_selection(RootSelection(pairing, choices))
            assert got[v][0] == choices
            assert got[v][1].entries.tobytes() == ref.entries.tobytes()


def test_enumeration_past_one_high_factor_matches_reference(corpus):
    """Past 13 pairs every block multiplies two or three high factors
    into the prefix table, one Python-float root per pair, in pair order.
    Rows of the corpus's 14- and 15-pair generic pairings and of a
    15-pair pairing of real roots (np.poly's real branch in every row)
    equal signal_from_selection bit for bit: a stride of 97 codes, the
    last code, and both codes at every block boundary."""
    us = 2.0 + 0.25 * np.arange(15)
    cases = [pairing for pairing, _ in corpus.generic[::2] if pairing.n_pairs in (14, 15)]
    assert {pairing.n_pairs for pairing in cases} == {14, 15}
    cases.append(ZeroPairing(float(np.prod(us)), tuple((-u, -1.0 / u) for u in us)))
    step = 1 << ambiguity.RESIDUAL_BLOCK_BITS
    for pairing in cases:
        p = pairing.n_pairs
        edges = [c for lo in range(step, 1 << p, step) for c in (lo - 1, lo)]
        got = enumerate_solutions(pairing).rows
        for v in sorted({*range(0, 1 << p, 97), *edges, (1 << p) - 1}):
            choices = tuple(bool((v >> k) & 1) for k in range(p))
            ref = signal_from_selection(RootSelection(pairing, choices))
            assert got[v].tobytes() == ref.entries.tobytes(), (p, v)


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


def test_solution_set_derived_views(corpus):
    """Choice tuples and signals are derived from codes and one row block:
    in the old itertools.product order for full sets, in survivor-code
    order for an anchored set with several survivors."""
    sizes = Counter()
    for pairing, _ in corpus.generic[::2]:
        p = pairing.n_pairs
        if p <= 10:
            sizes[p] += 1
            want = [c[::-1] for c in itertools.product((False, True), repeat=p)]
            _assert_views(enumerate_solutions(pairing), want)
    assert set(sizes) == set(range(11))
    pairing, x0 = corpus.sixteen
    threshold = anchor_threshold(pairing, x0, ANCHOR_REL_TOL)
    survivors = np.flatnonzero(anchor_residuals(pairing, x0) <= threshold)
    kept = anchored_solutions(pairing, x0)
    assert survivors.size == 16 and kept.codes.tolist() == survivors.tolist()
    _assert_views(kept, [tuple(bits) for bits in ambiguity._code_bits(survivors, pairing.n_pairs).tolist()])


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
    check runs here; the anchored search applies the same rule to its
    survivors."""
    us = 2.0 + 0.1 * np.arange(24)
    pairing = ZeroPairing(float(np.prod(us)), tuple((-u, -1.0 / u) for u in us))
    need = (1 << 24) * (16 * 25 + 8)
    assert ambiguity.ENUM_BUDGET_BYTES < need
    with pytest.raises(EnumerationBudgetExceeded, match=f"{1 << 24} selections need {need} bytes"):
        ambiguity._check_budget(pairing, 1 << 24)
    assert ambiguity._check_budget(pairing) == 24


def test_anchored_survivors_byte_budget(monkeypatch):
    """A tol large enough to keep every code must not expand them all past
    the byte budget: with room for 1000 selections, 10 pairs fail, as the
    full enumeration does, while the default tol keeps the planted one."""
    us = 2.0 + 0.1 * np.arange(10)
    planted = 0b0110100101
    betas = np.where([planted >> k & 1 for k in range(10)], -us, -1.0 / us)
    pairing = ZeroPairing(float(np.prod(-betas)), tuple((-u, -1.0 / u) for u in us))
    monkeypatch.setattr(ambiguity, "ENUM_BUDGET_BYTES", 1000 * (16 * 11 + 8))
    with pytest.raises(EnumerationBudgetExceeded):
        enumerate_solutions(pairing)
    with pytest.raises(EnumerationBudgetExceeded, match="1024 selections"):
        anchored_solutions(pairing, 1.0, tol=1e12)
    assert anchored_solutions(pairing, 1.0).codes.tolist() == [planted]


def test_anchored_survivors_refused_block_by_block(monkeypatch):
    """An over-budget survivor set is refused at the first block of the
    search that passes the byte budget: 14 pairs make four blocks of 4096
    codes, tol=1e12 keeps every code, and room for 5000 selections is
    passed in the second block, so the message gives its count as a lower
    bound. Under the default budget all four blocks run and keep every code,
    and the anchored set of every code is the full enumeration, bit for bit."""
    us = 2.0 + 0.1 * np.arange(14)
    pairing = ZeroPairing(1.0, tuple((-u, -1.0 / u) for u in us))
    calls = 0
    residuals = ambiguity._residuals

    def counting(*args):
        nonlocal calls
        calls += 1
        return residuals(*args)

    monkeypatch.setattr(ambiguity, "_residuals", counting)
    with monkeypatch.context() as patch:
        patch.setattr(ambiguity, "ENUM_BUDGET_BYTES", 5000 * (16 * 15 + 8))
        with pytest.raises(EnumerationBudgetExceeded, match="^at least 8192 selections"):
            anchored_solutions(pairing, 1.0, tol=1e12)
    assert calls == 2
    calls = 0
    assert ambiguity._survivor_codes(pairing, 1.0, 1e12).tolist() == list(range(1 << 14))
    assert calls == 4
    assert anchored_solutions(pairing, 1.0, tol=1e12).rows.tobytes() == enumerate_solutions(pairing).rows.tobytes()


def test_enumeration_bytes_per_selection():
    """Peak allocation of an enumeration stays under 3.25 times the 16 N + 8
    bytes per selection that the set keeps at 11 and 13 pairs, and under
    twice at 16 pairs, where the 2^12-code block temporaries are a small share."""
    for n, bound in ((12, 3.25), (14, 3.25), (17, 2.0)):
        _, pairing = pairing_of_signal(random_signal(n, np.random.default_rng(16)))
        p = pairing.n_pairs
        assert p == n - 1
        tracemalloc.start()
        try:
            sols = enumerate_solutions(pairing)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(sols.solutions) == 1 << p
        assert peak < bound * (1 << p) * (16 * (p + 1) + 8)


def test_warm_enumeration_allocates_only_what_it_keeps():
    """A second enumeration of the same pairing in a thread reuses that
    thread's workspace: its peak allocation stays under 1.6 times the
    bytes the set keeps at 11 pairs and under 1.3 times at 13 pairs.
    A table allocated per call exceeds both bounds, and a block or its
    scratch (13 pairs take one high factor) exceeds the second."""
    for n, bound in ((12, 1.6), (14, 1.3)):
        _, pairing = pairing_of_signal(random_signal(n, np.random.default_rng(16)))
        p = pairing.n_pairs
        enumerate_solutions(pairing)
        tracemalloc.start()
        try:
            sols = enumerate_solutions(pairing)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(sols.solutions) == 1 << p
        assert peak < bound * (1 << p) * (16 * (p + 1) + 8), (p, peak)


def test_enumeration_threads_keep_their_own_workspace():
    """Four threads, two per pairing (11 and 13 pairs), each enumerate
    their pairing 20 times at once, with the interpreter switching threads
    every microsecond: every set is bitwise the single-thread one."""
    pairings = [pairing_of_signal(random_signal(n, np.random.default_rng(16)))[1] for n in (12, 14)]
    want = [enumerate_solutions(pairing).rows.tobytes() for pairing in pairings]
    results = [[] for _ in range(4)]

    def run(i):
        for _ in range(20):
            results[i].append(enumerate_solutions(pairings[i % 2]).rows.tobytes() == want[i % 2])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [[True] * 20] * 4


def test_reference_paths_stay_out_of_the_runtime():
    """No package module, __init__ included, imports fprlab.reference, and
    each reference name is defined only there, so no runtime path leans
    on a slow one or keeps a second copy of it."""
    moved = [
        "RootSelection", "anchor_residuals", "autocorr_from_pairing", "check_pairs", "eval_by_polyval",
        "fourier_intensity", "intensity_loss", "product_constraint", "signal_from_selection",
        "spectrum_by_pairs", "wirtinger_gradient", "witnesses_by_scan",
    ]
    defined = []
    for path in sorted(pathlib.Path(fprlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in moved:
                defined.append((node.name, path.name))
            elif isinstance(node, (ast.Import, ast.ImportFrom)) and path.name != "reference.py":
                names = [getattr(node, "module", None) or "", *(a.name for a in node.names)]
                assert "reference" not in {n.rpartition(".")[2] for n in names}, (path.name, node.lineno)
    assert sorted(defined) == [(name, "reference.py") for name in moved]


def test_import_fprlab_leaves_the_reference_unloaded():
    """A fresh interpreter that imports fprlab has not loaded fprlab.reference."""
    src = str(pathlib.Path(fprlab.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, fprlab; print(repr((fprlab.__file__, 'fprlab.reference' in sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert ast.literal_eval(done.stdout) == (fprlab.__file__, False)


def _tiny_part_pairing():
    """A pairing whose selection 0b11 meets the anchor 1 exactly, with a
    root part of 1e-300, below the Python-complex residuals' range."""
    g = complex(2.0, 1e-300)
    pairs = ((g, 1 / g.conjugate()), (-3.0, -1 / 3.0))
    return ZeroPairing(complex(np.prod([-g, 3.0])), pairs), 1.0


def test_python_residuals_are_the_numpy_products(corpus, monkeypatch):
    """_residuals_small is bitwise _residuals (np.prod in pair order, then
    np.hypot under errstate) on every code of every N = 3..6 sweep
    embedding (values 2..6) and of the generic, closable, near, flagged and empty
    pairings up to 6 pairs (2^p <= _SMALL_CODES), and on a stride of codes
    of the larger generic, wide and anchored-oracle pairings: code by code
    and all codes at once, against numpy on all codes and on one. It
    answers on every one of these pairings. Where a part of a root or of a
    partial product, or of a difference from the target, leaves its range
    (the far roots, a part of 1e-300, a target of 1e300) it answers None,
    and _survivor_codes' numpy path decides, as with the Python path
    turned off."""
    small_pairings = [p for p in corpus.generic + corpus.closable + corpus.near + corpus.empty + [corpus.flagged] if p[0].n_pairs <= 6]
    oracle = []
    for seed in (0, 7877):
        rng = np.random.default_rng((seed, 1))
        oracle += [(pairing, complex(x.entries[0])) for x, pairing in (generic_instance(n, rng) for n in (10, 12, 14))]
    large = [p for p in corpus.generic if p[0].n_pairs > 6] + corpus.wide + oracle + [corpus.sixteen]
    for cases, stride in ((corpus.sweep + corpus.sweep6 + small_pairings, 1), (large, None)):
        for pairing, x0 in cases:
            p = pairing.n_pairs
            codes = list(range(0, 1 << p, stride or (1 << p) // 37 + 1))
            roots, target = pairing.pairs.tolist(), complex(pairing.scale) / ambiguity._anchor_power(x0)
            want = ambiguity._residuals(pairing.pairs, np.array(codes), target)
            got = ambiguity._residuals_small(roots, codes, target)
            assert got is not None and got.tobytes() == want.tobytes(), (p, x0)
            for i in (0, len(codes) - 1):
                assert ambiguity._residuals_small(roots, codes[i : i + 1], target).tobytes() == want[i : i + 1].tobytes()
                assert ambiguity._residuals(pairing.pairs, np.array(codes[i : i + 1]), target).tobytes() == want[i : i + 1].tobytes()
            if p <= 4:
                assert b"".join(ambiguity._residuals_small(roots, [c], target).tobytes() for c in codes) == want.tobytes()
    tiny, x0 = _tiny_part_pairing()
    assert ambiguity._residuals_small(tiny.pairs.tolist(), [3], 1.0 + 0j) is None
    assert ambiguity._residuals_small(corpus.far[0].pairs.tolist(), [12], 1.0 + 0j) is None
    assert ambiguity._residuals_small([[-2.0, -0.5]], [0, 1], 1e300 + 0j) is None
    tiny_target = ambiguity._residuals_small([[-2.0, -0.5]], [0, 1], 1e-300 + 0j)
    assert tiny_target.tobytes() == ambiguity._residuals(np.array([[-2.0, -0.5]]), np.array([0, 1]), 1e-300 + 0j).tobytes()

    def searches(pairing, x0, tol=ANCHOR_REL_TOL):
        out = []
        for window in (ambiguity._SMALL_WINDOW, 0):
            monkeypatch.setattr(ambiguity, "_SMALL_WINDOW", window)
            try:
                got = ambiguity._survivor_codes(pairing, x0, tol)
                out.append((got.dtype.str, got.tobytes()))
            except OverflowBeyondPrecision as exc:
                out.append((type(exc), str(exc)))
        assert out[0] == out[1]
        return out[0]

    assert searches(tiny, x0)[1] == np.array([3], np.intp).tobytes()
    extreme = [(ZeroPairing(scale, ((-2.0, -0.5),)), 1.0) for scale in (1e300, 1e-300)]
    for pairing, x0 in corpus.sweep + corpus.sweep6 + small_pairings + extreme:
        searches(pairing, x0)
    assert searches(*corpus.far)[0] is OverflowBeyondPrecision
