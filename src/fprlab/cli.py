"""Command line front end.

Five subcommands over JSON inputs:

- autocorr: autocorrelation of a signal, plus the sampled intensity floor
- enumerate: all intensity-equivalent signals, canonical or anchored
- solve: run one solver on a signal or an anchored pairing
- decide: product-partition decision through retrieval (exit 0/1/2)
- bench: deterministic solver benchmark, hard or random suite, CSV out

Complex numbers travel as [re, im] pairs. Input documents carry a
"kind" field, one of "signal", "pairing" or "pp"; the pairing kind may
carry an "anchor".
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .ambiguity import (
    ANCHOR_REL_TOL,
    anchored_solutions,
    distinct_canonical,
    enumerate_solutions,
    trivial_orbit_distance,
)
from .errors import (
    EnumerationBudgetExceeded,
    FprlabError,
    KindMismatch,
    NoFeasibleSolution,
    OutputUnwritable,
    ParseError,
    UnknownSolver,
)
from .generate import generic_instance, planted_retrieval
from .hardness import PPAnswer, PPInstance, decide_pp
from .signal_core import (
    ComplexSignal,
    autocorrelation,
    spectrum_from_autocorr,
    uniform_grid,
)
from .solvers import SOLVERS, PRInstance, SolverConfig, grid_size, oracle_solve
from .ztransform import ZeroPairing, factor

RECOVERY_REL_TOL = 1e-6


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _complex_in(value, where: str) -> complex:
    if _is_real(value):
        parts = (value, 0)
    elif isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_is_real, value)):
        parts = value
    else:
        raise ParseError(f"{where}: expected a number or [re, im] pair, got {value!r}")
    try:
        z = complex(*parts)
    except OverflowError:  # JSON integers are unbounded; one past double range has no float
        raise ParseError(f"{where}: expected a number within double range") from None
    if not cmath.isfinite(z):
        raise ParseError(f"{where}: expected a finite number, got {value!r}")
    return z


def _complex_out(z: complex) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _signal_out(x: ComplexSignal) -> list:
    return [_complex_out(z) for z in x.entries]


def load_document(path: str, command: str, kinds: tuple) -> dict:
    """Read a JSON document from a path or '-' (stdin) that command reads as one of kinds."""
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ParseError(f"{path}: document must be an object with a 'kind' field")
    if doc["kind"] not in ("signal", "pairing", "pp"):
        raise ParseError(f"{path}: unknown kind {doc['kind']!r}")
    if doc["kind"] not in kinds:
        wanted = " or ".join(f"'{k}'" for k in kinds)
        raise KindMismatch(f"{command} needs kind {wanted}, got '{doc['kind']}'")
    return doc


def parse_signal(doc: dict) -> ComplexSignal:
    entries = doc.get("entries")
    if not isinstance(entries, list) or not entries:
        raise ParseError("signal: 'entries' must be a nonempty list")
    vals = [_complex_in(v, f"entries[{i}]") for i, v in enumerate(entries)]
    return ComplexSignal(np.array(vals, dtype=np.complex128))


def parse_pairing(doc: dict) -> tuple:
    """Returns (ZeroPairing, anchor or None)."""
    if "scale" not in doc or "pairs" not in doc:
        raise ParseError("pairing: 'scale' and 'pairs' are required")
    scale = _complex_in(doc["scale"], "scale")
    raw_pairs = doc["pairs"]
    if not isinstance(raw_pairs, list):
        raise ParseError("pairing: 'pairs' must be a list")
    pairs = []
    for i, item in enumerate(raw_pairs):
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise ParseError(f"pairs[{i}]: expected [gamma, gamma_recip]")
        pairs.append(
            (_complex_in(item[0], f"pairs[{i}][0]"), _complex_in(item[1], f"pairs[{i}][1]"))
        )
    anchor = None
    if "anchor" in doc and doc["anchor"] is not None:
        anchor = _complex_in(doc["anchor"], "anchor")
    return ZeroPairing(scale, tuple(pairs)), anchor


def load_retrieval(path: str, command: str) -> tuple:
    """(signal or None, pairing, anchor or None) of a signal or pairing document."""
    doc = load_document(path, command, ("signal", "pairing"))
    if doc["kind"] == "pairing":
        return (None, *parse_pairing(doc))
    x = parse_signal(doc)
    return x, factor(autocorrelation(x)), None


def parse_pp(doc: dict) -> PPInstance:
    u = doc.get("u")
    if not isinstance(u, list) or len(u) < 2 or not all(
        isinstance(v, int) and not isinstance(v, bool) for v in u
    ):
        raise ParseError("pp: 'u' must be a list of at least two integers")
    return PPInstance(tuple(u))


def _solver_by_name(name: str):
    if name not in SOLVERS:
        raise UnknownSolver(f"unknown solver {name!r}; choose from {sorted(SOLVERS)}")
    return SOLVERS[name]


def _unwritable(path: str, exc: OSError) -> OutputUnwritable:
    return OutputUnwritable(f"cannot write {path}: {exc}")


def _write_out(path: str, text: str) -> None:
    """Write text to the file at path: the one writer of every --out."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _unwritable(path, exc) from exc


def _probe_out(path: str) -> None:
    """Fail as _write_out would if path cannot be opened for writing, and
    leave path as it was: a missing file is created exclusively and removed
    again, an existing one is opened in append mode, which keeps its bytes."""
    try:
        try:
            open(path, "x", encoding="utf-8").close()
            made = path
        except FileExistsError:
            # exists follows links: False here is a dangling symlink, whose
            # target append mode creates
            made = None if os.path.exists(path) else os.path.realpath(path)
            open(path, "a", encoding="utf-8").close()
        if made:
            os.remove(made)
    except OSError as exc:
        raise _unwritable(path, exc) from exc


def _emit_doc(doc: dict, out_path: str | None):
    text = json.dumps(doc, indent=2)
    if out_path:
        _write_out(out_path, text + "\n")
    else:
        print(text)


def cmd_autocorr(args) -> int:
    x = parse_signal(load_document(args.input, "autocorr", ("signal",)))
    r = autocorrelation(x)
    floor = float(np.min(spectrum_from_autocorr(r, uniform_grid(grid_size(x.n))).values))
    _emit_doc(
        {
            "kind": "autocorr",
            "n": x.n,
            "entries": [_complex_out(v) for v in r.entries],
            "r0": float(r.entries[0].real),
            "min_sampled_intensity": floor,
        },
        args.out,
    )
    return 0


def cmd_enumerate(args) -> int:
    _, pairing, anchor = load_retrieval(args.input, "enumerate")
    if anchor is not None:
        sigs = anchored_solutions(pairing, anchor, tol=args.tol).signals()
    else:
        sigs = distinct_canonical(enumerate_solutions(pairing).signals())
    out = {
        "kind": "solution_set",
        "n": pairing.n_pairs + 1,
        "total_selections": 1 << pairing.n_pairs,
        "anchored": anchor is not None,
        "count": len(sigs),
        "solutions": [_signal_out(sig) for sig in sigs],
    }
    _emit_doc(out, args.out)
    return 0


def _ground_truths(signal, inst: PRInstance) -> list:
    """The signal, else the anchored survivors: none if no selection fits or p > the budget."""
    if signal is not None:
        return [signal]
    try:
        return anchored_solutions(inst.pairing, inst.anchor).signals()
    except (NoFeasibleSolution, EnumerationBudgetExceeded):
        return []


def _recovered(final: ComplexSignal, truths: list) -> bool:
    for gt in truths:
        lim = RECOVERY_REL_TOL * float(np.linalg.norm(gt.entries))
        if trivial_orbit_distance(final, gt) <= lim:
            return True
    return False


def cmd_solve(args) -> int:
    signal, pairing, anchor = load_retrieval(args.input, "solve")
    if signal is not None:
        inst = PRInstance.from_signal(signal, pairing=pairing)
    elif anchor is None:
        raise ParseError("solve on a pairing requires an 'anchor' value")
    else:
        inst = PRInstance.from_pairing(pairing, anchor)
    solver = _solver_by_name(args.solver)
    cfg = SolverConfig(
        max_iters=args.iters,
        loss_tol=args.loss_tol,
        step_size=args.step_size,
        beta_hio=args.beta,
        seed=args.seed,
    )
    t0 = time.perf_counter()
    trace = solver(inst, cfg)
    final_loss = float(trace.losses[-1])  # the oracle computes its loss on this read
    wall_ms = (time.perf_counter() - t0) * 1000.0
    truths = _ground_truths(signal, inst)
    _emit_doc(
        {
            "kind": "solve_result",
            "solver": args.solver,
            "n": inst.n,
            "grid_m": inst.grid.m,
            "iterations": len(trace.iterates) - 1,
            "final_loss": final_loss,
            "converged": trace.converged,
            "recovered": _recovered(trace.final, truths) if truths else None,
            "wall_ms": round(wall_ms, 3),
            "entries": _signal_out(trace.final),
        },
        args.out,
    )
    return 0


def cmd_decide(args) -> int:
    pp = parse_pp(load_document(args.input, "decide", ("pp",)))
    solver = _solver_by_name(args.solver)
    cfg = None
    if args.iters is not None:
        cfg = SolverConfig(max_iters=args.iters, seed=args.seed or 0)
    elif args.seed is not None:
        raise ParseError("decide --seed applies only together with --iters")
    decision = decide_pp(pp, solver, cfg=cfg)
    _emit_doc(
        {
            "kind": "decision",
            "answer": decision.answer.value,
            "witness": sorted(decision.witness) if decision.witness is not None else None,
            "removed_pairs": [list(p) for p in decision.removed_pairs],
        },
        args.out,
    )
    return 0 if decision.answer is PPAnswer.HAS_SOLUTION else 1


@dataclass(frozen=True)
class ResultRow:
    """One (instance, solver) benchmark outcome; wall time and error type never enter the CSV."""

    instance_id: str
    solver: str
    iterations: int
    final_loss: float
    recovered: bool
    wall_ms: float
    error: str | None = None


CSV_HEADER = "instance_id,solver,iterations,final_loss,recovered"


def _csv_line(row: ResultRow) -> str:
    return (
        f"{row.instance_id},{row.solver},{row.iterations},"
        f"{row.final_loss!r},{str(row.recovered).lower()}"
    )


def _bench_one(task) -> ResultRow:
    iid, name, inst, gt, cfg = task
    solver = SOLVERS[name]
    t0 = time.perf_counter()
    try:
        trace = solver(inst, cfg)
        final_loss = float(trace.losses[-1])  # the oracle computes its loss on this read
        wall_ms = (time.perf_counter() - t0) * 1000.0
        rec = _recovered(trace.final, [gt])
        return ResultRow(iid, name, len(trace.iterates) - 1, final_loss, rec, wall_ms)
    except FprlabError as exc:
        wall_ms = (time.perf_counter() - t0) * 1000.0
        return ResultRow(iid, name, 0, float("nan"), False, wall_ms, type(exc).__name__)


def _comma_list(text: str, option: str, read) -> list:
    """The nonempty entries of a comma list option, each passed through read;
    ParseError names the option on an entry read refuses or one that repeats."""
    out = []
    for part in filter(None, (p.strip() for p in text.split(","))):
        try:
            value = read(part)
        except ValueError:
            raise ParseError(f"{option}: cannot read entry {part!r}") from None
        if value in out:
            raise ParseError(f"{option}: entry {part!r} repeats")
        out.append(value)
    return out


def cmd_bench(args) -> int:
    sizes = _comma_list(args.sizes, "--sizes", int)
    if any(s < 3 for s in sizes):
        raise ParseError("bench sizes must be >= 3")
    names = _comma_list(args.solvers, "--solvers", str)
    for name in names:
        _solver_by_name(name)
    if args.trials < 0:
        raise ParseError("trials must be >= 0")
    if args.out:
        # before the runs, so that a bad path does not cost them
        _probe_out(args.out)

    tasks = []
    for size in sizes:
        for t in range(args.trials):
            rng = np.random.default_rng((args.seed, size, t))
            if args.suite == "hard":
                hard, gt = planted_retrieval(size, rng)
                inst = hard.pr
            else:
                gt, pairing = generic_instance(size, rng)
                inst = PRInstance.from_signal(gt, pairing=pairing)
            iid = f"n{size}_t{t:03d}"
            for si, name in enumerate(names):
                cfg = SolverConfig(
                    max_iters=args.iters,
                    seed=args.seed + 7919 * si + 101 * t + size,
                )
                tasks.append((iid, name, inst, gt, cfg))

    rows = [_bench_one(t) for t in tasks]
    rows.sort(key=lambda r: (r.instance_id, r.solver))

    lines = [CSV_HEADER] + [_csv_line(r) for r in rows]
    csv_text = "\n".join(lines) + "\n"
    summary = _bench_summary(rows, names)
    if args.out:
        _write_out(args.out, csv_text)
        print(summary)
    else:
        sys.stdout.write(csv_text)
        print(summary, file=sys.stderr)
    return 0


def _bench_summary(rows, names) -> str:
    lines = [f"{len(rows)} runs"]
    for name in sorted(names):
        mine = [r for r in rows if r.solver == name]
        if not mine:
            continue
        rate = sum(r.recovered for r in mine) / len(mine)
        done = [r.iterations for r in mine if r.error is None]
        iters = sum(done) / len(done) if done else float("nan")
        wall = sum(r.wall_ms for r in mine) / len(mine)
        finals = [r.final_loss for r in mine if math.isfinite(r.final_loss)]
        med = sorted(finals)[len(finals) // 2] if finals else float("nan")
        lines.append(
            f"  {name}: recovery {rate:.2f}, mean iters {iters:.1f}, "
            f"median final loss {med:.3e}, mean wall {wall:.2f} ms"
        )
        failed = Counter(r.error for r in mine if r.error is not None)
        if failed:
            kinds = ", ".join(f"{k} {c}" for k, c in sorted(failed.items()))
            lines[-1] += f", failed {sum(failed.values())} ({kinds})"
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fprlab",
        description="Fourier phase retrieval laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("autocorr", help="autocorrelation of a signal")
    p.add_argument("input", help="JSON file with kind 'signal', or - for stdin")
    p.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_autocorr)

    p = sub.add_parser("enumerate", help="all signals sharing the intensity")
    p.add_argument("input", help="JSON file with kind 'signal' or 'pairing'")
    p.add_argument("--tol", type=float, default=ANCHOR_REL_TOL, help="anchor filter tolerance")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("solve", help="run one solver")
    p.add_argument("input", help="JSON file with kind 'signal' or anchored 'pairing'")
    p.add_argument("--solver", default="er", help="er, hio, wf or oracle")
    p.add_argument("--iters", type=int, default=SolverConfig.max_iters)
    p.add_argument("--seed", type=int, default=SolverConfig.seed)
    p.add_argument("--loss-tol", type=float, default=SolverConfig.loss_tol)
    p.add_argument("--step-size", type=float, default=SolverConfig.step_size)
    p.add_argument("--beta", type=float, default=SolverConfig.beta_hio)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("decide", help="decide a product-partition instance")
    p.add_argument("input", help="JSON file with kind 'pp'")
    p.add_argument("--solver", default="oracle")
    p.add_argument("--iters", type=int, default=None, help="override the per-round budget")
    p.add_argument("--seed", type=int, default=None, help="solver seed; needs --iters")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("bench", help="benchmark solvers on generated instances")
    p.add_argument("--sizes", default="3,4", help="comma list of signal lengths")
    p.add_argument("--trials", type=int, default=3, help="instances per size")
    p.add_argument(
        "--suite",
        default="hard",
        choices=("hard", "random"),
        help="hard: planted adversarial instances; random: generic signals",
    )
    p.add_argument("--solvers", default="er,hio,wf,oracle", help="comma list")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iters", type=int, default=300)
    p.add_argument("--out", default=None, help="CSV path; stdout when omitted")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FprlabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
