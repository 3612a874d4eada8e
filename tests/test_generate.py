import numpy as np
import pytest

from fprlab.ambiguity import ANCHOR_REL_TOL, anchor_threshold, anchored_solutions
from fprlab.errors import OverflowBeyondPrecision
from fprlab.generate import (
    _decisively_unique,
    all_pp_instances,
    generic_instance,
    planted_retrieval,
    random_signal,
    random_solvable_pp,
)
from fprlab.hardness import PPAnswer, brute_force_pp, enumerate_witnesses
from fprlab.reference import anchor_residuals
from fprlab.solvers import amplitude_loss


def test_random_signal_edges():
    rng = np.random.default_rng(0)
    for n in (1, 2, 5, 9):
        x = random_signal(n, rng)
        assert x.n == n
        assert x.full_support
        assert abs(x.entries[0]) >= 0.1
        assert abs(x.entries[-1]) >= 0.1


def test_random_signal_deterministic():
    a = random_signal(6, np.random.default_rng(3))
    b = random_signal(6, np.random.default_rng(3))
    assert np.array_equal(a.entries, b.entries)


def test_generic_instance_is_unambiguous():
    rng = np.random.default_rng(1)
    for n in (3, 4, 5):
        x, pairing = generic_instance(n, rng)
        for g, h in pairing.pairs:
            assert abs(abs(g) - 1.0) >= 1e-3
            assert abs(abs(h) - 1.0) >= 1e-3
        kept = anchored_solutions(pairing, complex(x.entries[0]))
        assert len(kept.solutions) == 1


def test_decisive_uniqueness_matches_sorted_residuals(corpus):
    """generic_instance's rule, two survivor searches, gives the verdict of
    sorting the full anchor_residuals scan (the best residual within 0.1x
    the accept threshold, the second best at least 10x it) on every
    anchored corpus pairing, N = 1..16. Draws whose second-best residual
    is within 10x of the threshold are rejected: the 16-survivor instance,
    runner-ups at 3x and 7x it, and every 1.5x anchor."""
    cases = [*corpus.generic, *corpus.sweep, corpus.sixteen, *corpus.closable, corpus.flagged, *corpus.empty, *corpus.near, *corpus.wide]
    verdicts = set()
    for pairing, x0 in cases:
        residuals = np.sort(anchor_residuals(pairing, x0))
        threshold = anchor_threshold(pairing, x0, ANCHOR_REL_TOL)
        want = bool(residuals[0] <= threshold * 0.1 and np.all(residuals[1:2] >= 10.0 * threshold))
        assert _decisively_unique(pairing, x0) is want
        verdicts.add(want)
    assert verdicts == {True, False}
    assert max(pairing.n_pairs for pairing, _ in cases) == 15
    assert not _decisively_unique(*corpus.sixteen)
    assert [_decisively_unique(*case) for case in corpus.near] == [False, False, True]
    assert not any(_decisively_unique(pairing, x0) for pairing, x0 in corpus.generic[1::2])
    with pytest.raises(OverflowBeyondPrecision):
        _decisively_unique(*corpus.far)


def test_random_solvable_pp():
    rng = np.random.default_rng(2)
    for n in (3, 4, 5):
        pp = random_solvable_pp(n, rng)
        assert pp.n == n
        assert all(2 <= v <= 6 for v in pp.u[:-1])
        assert brute_force_pp(pp).answer is PPAnswer.HAS_SOLUTION
        assert len(enumerate_witnesses(pp)) == 1


def test_all_pp_instances_sweep():
    insts = list(all_pp_instances(3, 2, 4))
    assert len(insts) == 24
    assert insts[0].u == (2, 3, 2)
    assert all(max(pp.u[:-1]) >= 3 for pp in insts)


def test_planted_retrieval_consistency():
    rng = np.random.default_rng(4)
    hard, gt = planted_retrieval(4, rng)
    assert hard.pr is not None
    assert gt.n == 4
    assert complex(gt.entries[0]) == complex(hard.pr.anchor)
    assert amplitude_loss(gt, hard.pr.grid) <= 1e-9 * hard.pr.normalization ** 2
