"""Fourier phase retrieval laboratory.

Autocorrelation measurements, the zero-pairing structure behind their
2^(N-1)-fold ambiguity, anchored solvers, and the embedding of
product-partition decision problems into anchored retrieval instances.
"""

from .ambiguity import (
    SolutionSet,
    canonicalize,
    distinct_canonical,
    enumerate_solutions,
    filter_by_anchor,
    trivial_orbit_distance,
)
from .errors import FprlabError
from .generate import all_pp_instances, generic_instance, planted_retrieval, random_signal, random_solvable_pp
from .hardness import (
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
    ground_truth_exact,
    ground_truth_signal,
)
from .signal_core import (
    Autocorrelation,
    ComplexSignal,
    SpectrumSamples,
    autocorr_from_spectrum,
    autocorrelation,
    spectrum_from_autocorr,
    uniform_grid,
)
from .solvers import (
    SOLVERS,
    IterateTrace,
    PRInstance,
    SolverConfig,
    amplitude_loss,
    error_reduction_solve,
    hio_solve,
    oracle_solve,
    wirtinger_flow_solve,
)
from .ztransform import (
    PolyCoeffs,
    ZeroPairing,
    build_S_poly,
    eval_ztransform,
    find_roots,
    pair_roots,
)

__version__ = "0.1.0"
