"""Seeded end-to-end and per-layer benchmark of the fprlab package.

Run from the repository root:

    python3 perfbench/run.py --workload anchored_oracle --seed 0 --seconds 40 --trace 0

Workloads: anchored_oracle, decide_sweep, iterative_bench (see README.md
beside this file). Load is a closed loop on one thread: the next item
starts when the previous one has returned and been checked. With
``--trace 0`` the run measures every end-to-end metric of
BENCHMARK.json; with ``--trace 1`` every item runs untraced and then
traced, and the run reports every per-layer metric. The last line of
standard output is the JSON result; the full record, the spans and a
ledger of per-seed digests go to ``.perfbench_out/`` under the
repository root.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import importlib
import itertools
import json
import math
import platform
import statistics
import sys
import time
import traceback
from collections import Counter

from hostspeed import HostSpeed
from tracing import Tracer, span_stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("anchored_oracle", "decide_sweep", "iterative_bench")
SETUP_REPEATS = 9
# Kept out of every tuning run; pass it as --seed to re-check a
# performance claim on inputs the benchmark was not tuned on.
HELDOUT_SEED = 7877
ITEM_MODULES = ("signal_core", "ztransform", "ambiguity", "solvers", "hardness")


def fail(msg: str):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        fail(f"cannot read {path}: {exc}")


def load_package():
    """Import fprlab from this checkout's src/ and nowhere else."""
    pkg = os.path.join(SRC, "fprlab")
    if not os.path.isfile(os.path.join(pkg, "__init__.py")):
        fail(f"no package source at {pkg}")
    sys.path.insert(0, SRC)
    import fprlab

    if os.path.realpath(os.path.dirname(fprlab.__file__)) != os.path.realpath(pkg):
        fail(f"fprlab imported from {fprlab.__file__}, not from {pkg}")
    return fprlab


def source_hash() -> str:
    """Hash of the package and benchmark sources, so the ledger only
    compares runs of the same code."""
    h = hashlib.sha256()
    for d in (os.path.join(SRC, "fprlab"), HERE):
        for name in sorted(os.listdir(d)):
            if name.endswith(".py"):
                with open(os.path.join(d, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


class Tally:
    """Timings, checks and per-item records of the timed items of one run.

    Counts and throughput units come from the first time each item runs
    (one pass); an item that runs again must reproduce its first record
    exactly. Every run of an item is timed. Traced runs also add their
    counts to ``traced_counts``, the denominators of per-unit span times.
    """

    def __init__(self, wl, error_type):
        self.wl = wl
        self.error_type = error_type
        self.records = [None] * len(wl.items)
        self.units = [0] * len(wl.items)
        self.times = [[] for _ in wl.items]
        self.counts: Counter = Counter()
        self.traced_counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.attempted = self.failed = self.unstable = self.first_raised = 0

    def run_item(self, i, tracer, tag) -> float:
        """Run and check item i; returns its latency in seconds."""
        wl = self.wl
        item = wl.items[i]
        tracer.item = f"{tag}:{i}"
        with tracer.span("item"):
            t0 = time.perf_counter()
            try:
                out = wl.run(item)
            except Exception as exc:  # noqa: BLE001 - an item that fails is reported, not fatal
                out = exc
            dt = time.perf_counter() - t0
        ok, record, counts = wl.check(item, out)
        if isinstance(out, Exception):
            self.errors[type(out).__name__] += 1
            if not isinstance(out, self.error_type):
                traceback.print_exception(out, file=sys.stderr)
        self.attempted += 1
        self.failed += not ok
        if tracer.enabled:
            self.traced_counts.update(counts)
        if self.records[i] is None:
            self.records[i] = record
            self.counts.update(counts)
            self.units[i] = counts.get(wl.unit_count, 0) if wl.unit_count else 1
            self.first_raised += isinstance(out, Exception)
        elif self.records[i] != record:
            self.unstable += 1
            print(f"perfbench: item {i} changed between passes: {self.records[i]!r} -> {record!r}", file=sys.stderr)
        self.times[i].append(dt)
        return dt

    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.records).encode()).hexdigest()


def timed_run(wl, tally, tracer, host, seconds: float, traced: bool, set_up):
    """Pass after pass over the items until at least one full pass is done
    and `seconds` have passed. `host` samples the host's speed between
    items, and once more at the end.

    The other SETUP_REPEATS - 1 set-ups (`set_up()`, whose result is
    dropped) run between items at evenly spaced times, so that their
    median samples the host's speed, which drifts over seconds, across
    the whole run rather than in its first seconds.

    With `traced`, each item runs untraced and then traced, so drift in
    machine speed hits both sides of the overhead estimate alike.
    Returns the untraced and traced busy seconds of those paired runs.
    """
    t0 = time.perf_counter()
    t_end = t0 + seconds
    due = [t0 + seconds * j / SETUP_REPEATS for j in range(1, SETUP_REPEATS)]
    base_s = traced_s = 0.0
    for p in itertools.count():
        for i in range(len(wl.items)):
            now = time.perf_counter()
            if p > 0 and now >= t_end:
                for _ in due:
                    set_up()
                host.sample(due_only=False)
                return base_s, traced_s
            if due and now >= due[0]:
                due.pop(0)
                set_up()
            host.sample()
            if not traced:
                tally.run_item(i, tracer, p)
                continue
            base_s += tally.run_item(i, tracer, f"untraced{p}")
            tracer.enabled = True
            traced_s += tally.run_item(i, tracer, f"traced{p}")
            tracer.enabled = False


def nearest_rank(values, q: float) -> float:
    """The q-quantile as one of the values themselves (nearest rank)."""
    ranked = sorted(values)
    return ranked[math.ceil(q * len(ranked)) - 1]


def end_to_end(tally, setup_times, scale: float) -> dict:
    """Every timing is multiplied by `scale`, the run's host-speed factor.

    Each item's latency is the mean of all its runs. The host's speed
    swings by up to 2x in phases of seconds to minutes; a mean over the
    whole run averages those phases the way the host-speed factor does,
    where a best-of depends on whether a fast phase came along, and it
    does not favour a program that gets more runs in.
    """
    mean = [scale * statistics.fmean(t) for t in tally.times]
    mean_ms = [1e3 * x for x in mean]
    att = tally.attempted
    return {
        "setup_s": scale * statistics.median(setup_times),
        "throughput_per_s": sum(tally.units) / sum(mean),
        "latency_p50_ms": statistics.median(mean_ms),
        "latency_p90_ms": nearest_rank(mean_ms, 0.9),
        "correct_frac": (att - tally.failed) / att,
        "ok_frac": 1.0 - tally.first_raised / len(tally.times),
    }


def per_layer(tally, item_spans, setup_spans, base_s, traced_s, cli_wall_s, ref_s) -> dict:
    st = span_stats(item_spans)
    su = span_stats(setup_spans)
    c = tally.counts
    tc = tally.traced_counts
    none = (0, 0.0, 0.0)

    def total(stats, name):
        return stats.get(name, none)[1]

    def mean(name, scale):
        calls, tot, _ = st.get(name, none)
        return scale * tot / calls if calls else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    item_s = total(st, "item")
    module_self: Counter = Counter()
    for name, (_, _, self_s) in st.items():
        module_self[name.split(".")[0]] += self_s
    decide_calls, _, decide_self = st.get("hardness.decide_pp", none)
    ambiguity_s = total(st, "ambiguity.enumerate_solutions") + total(st, "ambiguity.filter_by_anchor")
    failed_other = sum(v for k, v in c.items() if k.startswith("solvers.failed.") and k != "solvers.failed.StepDiverged")
    m = {
        "ambiguity.enumerate_solutions.ms": mean("ambiguity.enumerate_solutions", 1e3),
        "ambiguity.filter_by_anchor.ms": mean("ambiguity.filter_by_anchor", 1e3),
        "ambiguity.selections": c["ambiguity.selections"],
        "ambiguity.survivors": c["ambiguity.survivors"],
        "ambiguity.us_per_selection": 1e6 * ratio(ambiguity_s, tc["ambiguity.selections"]),
        "signal_core.autocorr_from_spectrum.us": mean("signal_core.autocorr_from_spectrum", 1e6),
        "ztransform.factor.us": mean("ztransform.factor", 1e6),
        "solvers.from_pairing.us": mean("solvers.from_pairing", 1e6),
        "solvers.oracle_solve.us_per_call": mean("solvers.oracle_solve", 1e6),
        "solvers.oracle_solve.calls": c["solvers.oracle_solve.calls"],
        "solvers.er.us_per_iter": 1e6 * ratio(total(st, "solvers.er"), tc["solvers.er.iters"]),
        "solvers.hio.us_per_iter": 1e6 * ratio(total(st, "solvers.hio"), tc["solvers.hio.iters"]),
        "solvers.wf.us_per_iter": 1e6 * ratio(total(st, "solvers.wf"), tc["solvers.wf.iters"]),
        "solvers.iters": c["solvers.iters"],
        "solvers.ffts_computed": c["solvers.ffts_computed"],
        "solvers.failed.StepDiverged": c["solvers.failed.StepDiverged"],
        "solvers.failed.other": failed_other,
        "solvers.recovered_frac": ratio(c["solvers.recovered"], c["solvers.runs"]),
        "hardness.decide_pp.self_ms": 1e3 * ratio(decide_self, decide_calls),
        "hardness.rounds": c["hardness.rounds"],
        "hardness.removed_pairs": c["hardness.removed_pairs"],
        "hardness.brute_force_pp.ms": 1e3 * total(su, "hardness.brute_force_pp"),
        "generate.generic_instance.ms": 1e3 * total(su, "generate.generic_instance"),
        "generate.planted_retrieval.ms": 1e3 * total(su, "generate.planted_retrieval"),
        "cli.bench.wall_s": cli_wall_s,
        "host.ref_ms": 1e3 * ref_s,
        "trace.overhead_pct": 100.0 * ratio(traced_s - base_s, base_s),
        "trace.coverage_frac": 1.0 - ratio(st.get("item", none)[2], item_s),
        "trace.spans": len(item_spans),
    }
    for mod in ITEM_MODULES:
        m[f"{mod}.self_frac"] = ratio(module_self[mod], item_s)
    return m


def check_ledger(workload: str, seed: int, digest: str, counts: dict) -> bool:
    """Compare this run's digest and counts with an earlier run of the same
    code on the same seed, or record them if this is the first."""
    ledger = os.path.join(OUT_DIR, "ledger")
    os.makedirs(ledger, exist_ok=True)
    path = os.path.join(ledger, f"{workload}-seed{seed}-{source_hash()}.json")
    mine = {"digest": digest, "counts": counts}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            earlier = json.load(fh)
        if earlier != mine:
            print(f"perfbench: counts or digest differ from an earlier run on seed {seed}: {earlier} vs {mine}", file=sys.stderr)
            return False
        return True
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(mine, fh, sort_keys=True)
    os.replace(tmp, path)
    return True


def environment(np, seed: int, args) -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "workload": args.workload,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": nproc,
        "platform": platform.platform(),
        "blas_env": {v: os.environ.get(v) for v in BLAS_VARS},
        "FPRLAB_THREADS": os.environ.get("FPRLAB_THREADS"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = load_spec()
    fprlab = load_package()
    import numpy as np

    workload = importlib.import_module(args.workload)
    seed = args.seed
    tracer = Tracer()

    setup_times = []

    def set_up():
        t0 = time.perf_counter()
        built = workload.Workload(seed, tracer)
        setup_times.append(time.perf_counter() - t0)
        return built

    # The first set-up builds the inputs of the run and is the traced one.
    tracer.enabled = bool(args.trace)
    tracer.item = "setup"
    wl = set_up()
    setup_spans = list(tracer.spans)
    tracer.spans.clear()
    tracer.enabled = False

    os.makedirs(OUT_DIR, exist_ok=True)
    tally = Tally(wl, fprlab.FprlabError)
    parity_ok = True
    host = HostSpeed()
    base_s, traced_s = timed_run(wl, tally, tracer, host, args.seconds, bool(args.trace), set_up)
    if args.trace:
        item_spans = list(tracer.spans)
        cli_wall_s = 0.0
        if hasattr(wl, "cli_parity"):
            tracer.item = "cli"
            tracer.enabled = True
            parity_ok, cli_wall_s = wl.cli_parity(tally.records, OUT_DIR)
            tracer.enabled = False
            if not parity_ok:
                print("perfbench: fprlab bench CSV differs from the benchmark's own rows", file=sys.stderr)
        tracer.write(os.path.join(OUT_DIR, f"{args.workload}-seed{seed}-spans.json"))
        values = per_layer(tally, item_spans, setup_spans, base_s, traced_s, cli_wall_s, host.ref_s())
        wanted = spec["per_layer"]
    else:
        values = end_to_end(tally, setup_times, host.scale())
        wanted = spec["end_to_end"]

    if set(values) != {m["name"] for m in wanted}:
        fail(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(m['name'] for m in wanted)}")
    counts = dict(sorted(tally.counts.items()))
    digest = tally.digest()
    ledger_ok = check_ledger(args.workload, seed, digest, counts)
    result = {
        "correct": tally.failed == 0 and tally.unstable == 0 and ledger_ok and parity_ok,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    env = environment(np, seed, args)
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{seed}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump({"env": env, "digest": digest, "counts": counts, "errors": dict(tally.errors),
                   "setup_s": setup_times, "host_samples": host.samples, "result": result}, fh, indent=1)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"host ref_ms={1e3 * host.ref_s():.4f} samples={len(host.samples)} scale={host.scale():.4f}")
    print(f"digest {args.workload} seed={seed} items={len(wl.items)} sha256={digest}")
    print("counts " + json.dumps(counts))
    if tally.errors:
        print("errors " + json.dumps(dict(tally.errors)))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
