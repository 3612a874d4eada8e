"""anchored_oracle: sampled intensity -> roots -> every selection -> anchor -> oracle.

One item is the ``fprlab enumerate`` plus ``fprlab solve --solver oracle``
path on one generic signal. The benchmark samples the intensity itself
(numpy FFT on ``uniform_grid(4N)``), so the package only ever sees the
spectrum samples, the length and the anchor x(0). Sizes 10, 12 and 14
give 512, 2048 and 8192 selections per item, so a selection engine that
is fast at only one working set shows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fprlab.ambiguity import enumerate_solutions, filter_by_anchor, trivial_orbit_distance
from fprlab.generate import generic_instance
from fprlab.signal_core import ComplexSignal, SpectrumSamples, autocorr_from_spectrum, uniform_grid
from fprlab.solvers import PRInstance, oracle_solve
from fprlab.ztransform import build_S_poly, find_roots, pair_roots

SIZES = (10, 12, 14)
GRID_MULT = 4
ORBIT_REL_TOL = 1e-6


@dataclass(frozen=True)
class Item:
    n: int
    spectrum: SpectrumSamples
    anchor: complex
    planted: ComplexSignal


class Workload:
    unit_count = None  # throughput counts items

    def __init__(self, seed: int, tracer):
        self.tracer = tracer
        rng = np.random.default_rng((seed, 1))
        # one draw per size: an item's cost depends on N, not on the draw,
        # so repeating each item more often beats drawing more of them
        self.items = []
        for n in SIZES:
            with tracer.span("generate.generic_instance"):
                x, _ = generic_instance(n, rng)
            m = GRID_MULT * n
            vals = np.abs(np.fft.fft(x.entries, m)) ** 2
            spectrum = SpectrumSamples(uniform_grid(m), vals)
            self.items.append(Item(n, spectrum, complex(x.entries[0]), x))
        self.run(self.items[0])  # warm-up, counted in setup

    def run(self, item: Item):
        tr = self.tracer
        with tr.span("signal_core.autocorr_from_spectrum"):
            r = autocorr_from_spectrum(item.spectrum, item.n)
        with tr.span("ztransform.factor"):
            pairing = pair_roots(find_roots(build_S_poly(r)), r.entries[item.n - 1])
        with tr.span("ambiguity.enumerate_solutions"):
            sols = enumerate_solutions(pairing)
        with tr.span("ambiguity.filter_by_anchor"):
            kept = filter_by_anchor(sols, item.anchor)
        with tr.span("solvers.from_pairing"):
            inst = PRInstance.from_pairing(pairing, item.anchor, grid_mult=GRID_MULT)
        with tr.span("solvers.oracle_solve"):
            trace = oracle_solve(inst)
        return len(sols.solutions), kept.solutions, trace.final

    def check(self, item: Item, out):
        """2^(N-1) selections, one anchored survivor, and an oracle answer
        equal to it (x(0) replaced by the anchor) on the planted orbit."""
        if isinstance(out, Exception):
            return False, f"{item.n}:{type(out).__name__}", {}
        selections, kept, final = out
        ok = selections == 1 << (item.n - 1) and len(kept) == 1
        if ok:
            survivor = kept[0][1].entries
            lim = ORBIT_REL_TOL * float(np.linalg.norm(item.planted.entries))
            ok = (
                complex(final.entries[0]) == item.anchor
                and np.array_equal(final.entries[1:], survivor[1:])
                and trivial_orbit_distance(final, item.planted) <= lim
            )
        # ten significant digits: last-bit noise from a reordered sum does
        # not change the digest, a different answer does
        values = ",".join(f"{v.real:.9e},{v.imag:.9e}" for v in final.entries)
        record = f"{item.n}:{selections}:{len(kept)}:{values}"
        counts = {
            "ambiguity.selections": selections,
            "ambiguity.survivors": len(kept),
            "solvers.oracle_solve.calls": 1,
        }
        return ok, record, counts
