import numpy as np

from fprlab.ambiguity import anchored_solutions
from fprlab.generate import (
    all_pp_instances,
    generic_instance,
    planted_retrieval,
    random_signal,
    random_solvable_pp,
)
from fprlab.hardness import PPAnswer, brute_force_pp, enumerate_witnesses
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
