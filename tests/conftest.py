"""Test helpers shared by the test modules, and the one pairing corpus
that every fast/reference differential test reads."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import strategies as st

from fprlab.errors import FprlabError
from fprlab.generate import all_pp_instances, random_signal
from fprlab.hardness import PPInstance, construct_hard_instance
from fprlab.signal_core import ComplexSignal, autocorrelation
from fprlab.ztransform import ZeroPairing, build_S_poly, find_roots, pair_roots

# moduli kept away from 1 and from each other's reciprocals so random
# draws never produce borderline pairings
SAFE_MODULI = [0.3, 0.5, 0.75, 1.3, 1.8, 2.5]


def entries_lists(min_n=1, max_n=10, mag=3.0):
    elem = st.complex_numbers(max_magnitude=mag, allow_nan=False, allow_infinity=False)
    return st.lists(elem, min_size=min_n, max_size=max_n)


def signals_with_clean_roots(max_roots=4):
    phase = st.floats(min_value=0.0, max_value=2.0 * np.pi, exclude_max=True)
    root = st.tuples(st.sampled_from(SAFE_MODULI), phase).map(lambda t: t[0] * np.exp(1j * t[1]))
    return st.lists(root, min_size=1, max_size=max_roots).map(
        lambda roots: (np.array(roots), ComplexSignal(1.3 * np.atleast_1d(np.poly(np.array(roots))), full_support=True))
    )


def well_separated(roots):
    return all(abs(a - b) >= 0.05 for a, b in itertools.combinations(roots, 2))


def pairing_of_signal(x):
    """(autocorrelation, pairing) of x, through the pipeline's stages one by one."""
    r = autocorrelation(x)
    return r, pair_roots(find_roots(build_S_poly(r)), r.entries[-1])


def _closable():
    """Real roots (-u, -1/u), u in 2..6, as the product-partition embedding
    builds them; exact conjugate partners (g, h), (conj g, conj h); and two
    13-pair pairings whose selections reach np.poly's real branch in both
    blocks: real roots, and six pairs of partners ahead of a real pair."""
    out = []
    for n in range(1, 5):
        for us in itertools.combinations_with_replacement(range(2, 7), n):
            out.append(ZeroPairing(float(np.prod(us)), tuple((-u, -1.0 / u) for u in us)))
    for g in (1 + 2j, -0.5 + 1.5j, 3 - 1j, 0.25 - 0.75j):
        h = 1 / np.conj(g)
        pairs = ((g, h), (np.conj(g), np.conj(h)), (-2.0, -0.5))
        out.append(ZeroPairing(3.0, pairs))
        out.append(ZeroPairing(2.0 - 1.0j, pairs + ((g * 1j, h * 1j), (np.conj(g * 1j), np.conj(h * 1j)))))
    us = 2.0 + 0.25 * np.arange(13)
    out.append(ZeroPairing(float(np.prod(us)), tuple((-u, -1.0 / u) for u in us)))
    gs = [(1.1 + 0.2 * k) * np.exp(1j * (0.3 + 0.4 * k)) for k in range(6)]
    partners = [pair for g in gs for pair in ((g, 1 / np.conj(g)), (np.conj(g), 1 / g))]
    out.append(ZeroPairing(5.0, (*partners, (-2.0, -0.5))))
    return [(pairing, np.sqrt(abs(pairing.scale)) * np.exp(0.7j)) for pairing in out]


@pytest.fixture(scope="session")
def corpus():
    """Anchored pairings (pairing, x0) by kind, built once per session.

    The generic draws are 24 per N up to 10, 8 up to 13 and 2 up to 16:
    N = 14 has 8192 selections, so a scan crosses a block boundary, and past
    13 pairs the survivor search adds a table of high codes. The wide
    pairings' log-moduli sum to ~10^2, whose rounding passes the survivor
    window's 2^-49 relative slack on most draws.
    """
    rng = np.random.default_rng(20220912)
    generic = []
    for n in range(1, 17):
        for _ in range(24 if n <= 10 else 8 if n <= 13 else 2):
            x = random_signal(n, rng)
            try:
                pairing = pairing_of_signal(x)[1] if n > 1 else ZeroPairing(autocorrelation(x).entries[0], ())
            except FprlabError:
                continue
            generic += [(pairing, complex(x.entries[0])), (pairing, 1.5 * complex(x.entries[0]))]
    wide, planted = [], []
    for _ in range(8):
        gammas = 10.0 ** rng.uniform(8, 18, 8) * np.exp(1j * rng.uniform(0, np.pi, 8))
        planted.append(int(rng.integers(1 << 8)))
        picked = np.where([planted[-1] >> k & 1 for k in range(8)], gammas, 1 / np.conj(gammas))
        wide.append((ZeroPairing(complex(np.prod(-picked)), tuple(zip(gammas, 1 / np.conj(gammas)))), 1.0))
    sweep = [construct_hard_instance(pp).pr for n in (3, 4, 5) for pp in all_pp_instances(n, 2, 6)]
    sweep6 = [construct_hard_instance(pp).pr for pp in all_pp_instances(6, 2, 6)]
    sixteen = construct_hard_instance(PPInstance((3, 2, 3, 2, 3, 2, 3, 2, 36))).pr
    return SimpleNamespace(
        generic=generic,  # signal pairings at N = 1..16, each at its true anchor, then at 1.5x it
        sweep=[(pr.pairing, pr.anchor) for pr in sweep],  # the N = 3..5 sweep's embeddings, values 2..6
        sweep6=[(pr.pairing, pr.anchor) for pr in sweep6],  # the N = 6 embeddings, values 2..6
        sixteen=(sixteen.pairing, sixteen.anchor),  # a hard instance with 16 exact survivors
        closable=_closable(),  # roots closed under conjugation, at anchor sqrt|r(N-1)| e^0.7i
        flagged=(pairing_of_signal(ComplexSignal(np.array([1.0, -1.0])))[1], 1.0),  # a self-paired unit-circle root
        empty=[(ZeroPairing(scale, ()), 2.0 + 1.0j) for scale in (5.0, -4.0 + 3.0j)],
        # flipping both pairs scales the root product by c^2: a runner-up code at 3, 7 and 12x the threshold
        near=[(ZeroPairing(1 / c, ((-2, -0.5), (-2 * c, -0.5 / c))), 1.0) for c in np.sqrt(1 + 1e-6 * np.array([3, 7, 12]))],
        wide=wide,  # |gamma| from 1e8 to 1e18, planted at the codes in planted
        planted=planted,
        far=(ZeroPairing(1.0, ((1e200, 1e-200),) * 4), 1.0),  # partial products leave double range
    )
