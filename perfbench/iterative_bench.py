"""iterative_bench: the tasks ``fprlab bench`` builds, run one at a time.

Hard suite at sizes 3, 4, 5 (``planted_retrieval``) and random suite at
sizes 8, 12 (``generic_instance``), eight trials each, solvers er, hio
and wf for 300 iterations, with the instance ids and seed formula of
``fprlab bench``. Only the iterative solver code runs; ``ambiguity`` is
bypassed. Hard-suite runs all reach the budget while random-suite runs
stop early at different iterations (convergence, or WF's
``StepDiverged``), so a batched solver that mishandles early exits
changes the results here.
"""

from __future__ import annotations

import io
import os
import time
from contextlib import redirect_stdout
from dataclasses import dataclass

import numpy as np

from fprlab import cli
from fprlab.ambiguity import trivial_orbit_distance
from fprlab.errors import StepDiverged
from fprlab.generate import generic_instance, planted_retrieval
from fprlab.signal_core import ComplexSignal
from fprlab.solvers import SOLVERS, PRInstance, SolverConfig

HARD_SIZES = (3, 4, 5)
RANDOM_SIZES = (8, 12)
TRIALS = 8
ITERS = 300
NAMES = ("er", "hio", "wf")
CSV_HEADER = "instance_id,solver,iterations,final_loss,recovered"
# monotonicity slack of the acceptance checklist (criterion 7)
ER_REL_SLACK = 1e-12


@dataclass(frozen=True)
class Task:
    suite: str
    iid: str
    name: str
    inst: PRInstance
    truth: ComplexSignal
    cfg: SolverConfig


def _ffts(name: str, iters: int) -> int:
    """FFTs a returned run computes: one per loss evaluation plus one
    inverse per update; HIO also transforms its readout every pass."""
    return 3 * (iters + 1) if name == "hio" else 2 * iters + 1


class Workload:
    unit_count = "solvers.iters"  # throughput counts solver iterations

    def __init__(self, seed: int, tracer):
        self.tracer = tracer
        self.seed = seed
        self.items = []
        for t in range(TRIALS):
            for suite, sizes in (("hard", HARD_SIZES), ("random", RANDOM_SIZES)):
                for size in sizes:
                    rng = np.random.default_rng((seed, size, t))
                    if suite == "hard":
                        with tracer.span("generate.planted_retrieval"):
                            hard, truth = planted_retrieval(size, rng)
                        inst = hard.pr
                    else:
                        with tracer.span("generate.generic_instance"):
                            truth, pairing = generic_instance(size, rng)
                        inst = PRInstance.from_signal(truth, pairing=pairing)
                    iid = f"n{size}_t{t:03d}"
                    for si, name in enumerate(NAMES):
                        cfg = SolverConfig(max_iters=ITERS, seed=seed + 7919 * si + 101 * t + size)
                        self.items.append(Task(suite, iid, name, inst, truth, cfg))
        for task in self.items[: len(NAMES)]:  # warm-up, counted in setup
            self.run(task)

    def run(self, task: Task):
        with self.tracer.span("solvers." + task.name):
            return SOLVERS[task.name](task.inst, task.cfg)

    def check(self, task: Task, out):
        """Final x(0) is the anchor bitwise, losses are finite and
        nonnegative, ER losses never increase; the only error accepted is
        WF's StepDiverged, recorded the way ``fprlab bench`` records it."""
        if isinstance(out, Exception):
            ok = isinstance(out, StepDiverged) and task.name == "wf"
            record = f"{task.iid},{task.name},0,nan,false"
            return ok, record, {"solvers.runs": 1, f"solvers.failed.{type(out).__name__}": 1}
        losses = out.losses
        ok = (
            complex(out.final.entries[0]) == task.inst.anchor
            and bool(np.all(np.isfinite(losses)))
            and bool(np.all(losses >= 0))
        )
        if task.name == "er":
            ok = ok and bool(np.all(np.diff(losses) <= ER_REL_SLACK * np.maximum(losses[:-1], 1.0)))
        iters = len(out.iterates) - 1
        lim = cli.RECOVERY_REL_TOL * float(np.linalg.norm(task.truth.entries))
        recovered = trivial_orbit_distance(out.final, task.truth) <= lim
        record = f"{task.iid},{task.name},{iters},{float(losses[-1])!r},{str(recovered).lower()}"
        counts = {
            "solvers.runs": 1,
            "solvers.iters": iters,
            f"solvers.{task.name}.iters": iters,
            "solvers.ffts_computed": _ffts(task.name, iters),
            "solvers.recovered": int(recovered),
        }
        return ok, record, counts

    def cli_parity(self, records: list, out_dir: str):
        """One in-process ``fprlab bench`` over the hard-suite tasks; its CSV
        must equal the rows built from this benchmark's own solver calls.

        Returns (matches, wall seconds).
        """
        path = os.path.join(out_dir, f"cli-bench-seed{self.seed}.csv")
        argv = [
            "bench", "--suite", "hard", "--sizes", ",".join(map(str, HARD_SIZES)),
            "--trials", str(TRIALS), "--solvers", ",".join(NAMES), "--seed", str(self.seed),
            "--iters", str(ITERS), "--out", path,
        ]
        t0 = time.perf_counter()
        with self.tracer.span("cli.bench"), redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        wall = time.perf_counter() - t0
        rows = sorted(
            (r for task, r in zip(self.items, records) if task.suite == "hard"),
            key=lambda r: tuple(r.split(",", 2)[:2]),
        )
        want = "\n".join([CSV_HEADER] + rows) + "\n"
        with open(path, encoding="utf-8") as fh:
            got = fh.read()
        return code == 0 and got == want, wall
