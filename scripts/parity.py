"""Check that the working tree produces the same outputs as a git revision.

    python scripts/parity.py REV

Extracts REV with ``git archive`` and copies the working tree's files
(tracked and untracked, not ignored) into one temporary directory each,
then runs both trees, each with its own ``src`` on PYTHONPATH, and
compares:

- the perfbench digest and counts of every workload at seeds 0 and 7877
  (``--seconds 2 --trace 0``);
- the ``fprlab bench`` CSVs of the hard and random suites (sizes 3,4,5,
  6 trials, 300 iterations);
- ``pytest -s tests/test_acceptance.py`` output with timings masked;
- ``scripts/decision_sweep.py`` output without its wall and brute columns;
- the stdout, stderr, exit code and ``--out`` file of every ``fprlab``
  call in the working tree's CI step "Installed fprlab command". The
  step runs to its end under bash (not stopping at a failed line or at
  an ``exit``), through a shim that calls ``fprlab.cli:main`` as the
  console script does, so no installed command is needed.

Prints one line per check, ``same`` or ``differs`` with the first
differing line, and exits 1 on any difference. The two trees run side
by side, one process each at a time; nothing is written outside the
temporary directory.
"""

import argparse
import concurrent.futures
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("anchored_oracle", "decide_sweep", "iterative_bench")
SEEDS = (0, 7877)
BENCH = ("bench", "--sizes", "3,4,5", "--trials", "6", "--iters", "300")
CI_STEP = "Installed fprlab command"
TIMING = re.compile(r"\d+(?:\.\d+)?\s?m?s\b|(?<=\"wall_ms\": )[-+.\de]+")
SHIM = """#!{python}
import contextlib, io, json, sys, traceback
sys.path.insert(0, {src!r})
from fprlab.cli import main

argv = sys.argv[1:]
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:
        traceback.print_exc()
        code = 1
code = 0 if code is None else code
written = None
if "--out" in argv[:-1]:
    try:
        with open(argv[argv.index("--out") + 1], encoding="utf-8") as fh:
            written = fh.read()
    except OSError:
        pass
with open({log!r}, "a", encoding="utf-8") as fh:
    fh.write(json.dumps({{"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "out": written}}) + "\\n")
sys.stdout.write(out.getvalue())
sys.stderr.write(err.getvalue())
sys.exit(code)
"""


def extract(rev: str, dest: Path) -> None:
    dest.mkdir()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def copy_worktree(dest: Path) -> None:
    listed = subprocess.run(
        ["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        capture_output=True, check=True,
    ).stdout.decode().split("\0")
    for name in filter(None, listed):
        src = ROOT / name
        if src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def ci_script(workflow: Path) -> str:
    """The run block of the CI step named CI_STEP, dedented."""
    lines = workflow.read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line.strip() == f"- name: {CI_STEP}")
    run = next(i for i in range(start + 1, len(lines)) if lines[i].strip() == "run: |")
    body = []
    indent = None
    for line in lines[run + 1 :]:
        if line.strip() and indent is None:
            indent = len(line) - len(line.lstrip())
        if line.strip() and len(line) - len(line.lstrip()) < indent:
            break
        body.append(line[indent:] if indent else line)
    return "\n".join(body) + "\n"


class Tree:
    """One source tree and the commands that read its outputs."""

    def __init__(self, root: Path):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def run(self, *argv) -> subprocess.CompletedProcess:
        return subprocess.run(argv, cwd=self.root, env=self.env, capture_output=True, text=True)

    def masked(self, text: str) -> list:
        return text.replace(str(self.root), "<tree>").splitlines()

    def perfbench(self, workload: str, seed: int) -> list:
        done = self.run(sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                        "--seconds", "2", "--trace", "0")
        kept = [line for line in done.stdout.splitlines() if line.startswith(("digest ", "counts "))]
        return [f"exit {done.returncode}"] + kept

    def bench_csv(self, suite: str) -> list:
        out = self.root / f"parity_{suite}.csv"
        done = self.run(sys.executable, "-c", "import sys; from fprlab.cli import main; sys.exit(main())",
                        *BENCH, "--suite", suite, "--out", str(out))
        return [f"exit {done.returncode}"] + (out.read_text().splitlines() if out.exists() else [])

    def acceptance(self) -> list:
        done = self.run(sys.executable, "-m", "pytest", "-s", "-q", "-p", "no:cacheprovider", "tests/test_acceptance.py")
        return [f"exit {done.returncode}"] + [TIMING.sub("<t>", line) for line in self.masked(done.stdout)]

    def decision_sweep(self) -> list:
        done = self.run(sys.executable, "scripts/decision_sweep.py")
        rows = [re.sub(r"(\s+(wall|brute|\d+\.\d+s))+$", "", line) for line in done.stdout.splitlines()]
        return [f"exit {done.returncode}"] + rows + self.masked(done.stderr)

    def ci_calls(self, script: str) -> list:
        """(argv, lines) of every fprlab call the CI script makes, in order."""
        work = self.root / "parity_ci"
        bindir = work / "bin"
        bindir.mkdir(parents=True)
        log = work / "calls.jsonl"
        shim = bindir / "fprlab"
        shim.write_text(SHIM.format(python=sys.executable, src=str(self.root / "src"), log=str(log)))
        shim.chmod(0o755)
        env = dict(self.env, PATH=f"{bindir}{os.pathsep}{self.env.get('PATH', '')}")
        # a no-op exit lets a guard that fails in one tree (an exit 1 after a
        # grep) leave that tree's later calls in the comparison
        subprocess.run(["bash", "-c", "exit() { :; }\n" + script], cwd=work, env=env, capture_output=True, text=True)
        calls = []
        for line in log.read_text(encoding="utf-8").splitlines() if log.exists() else []:
            call = json.loads(line)
            lines = [f"exit {call['code']}"]
            for stream in ("stdout", "stderr", "out"):
                text = TIMING.sub("<t>", call[stream] or "")
                lines += [f"{stream}: {row}" for row in self.masked(text)]
            calls.append((" ".join(call["argv"]), lines))
        return calls

    def checks(self, script: str) -> dict:
        out = {}
        for workload in WORKLOADS:
            for seed in SEEDS:
                out[f"perfbench {workload} seed {seed}"] = self.perfbench(workload, seed)
        for suite in ("hard", "random"):
            out[f"fprlab bench {suite} csv"] = self.bench_csv(suite)
        out["acceptance"] = self.acceptance()
        out["decision_sweep"] = self.decision_sweep()
        for argv, lines in self.ci_calls(script):
            name = f"ci: fprlab {argv}"
            while name in out:
                name += " (again)"
            out[name] = lines
        return out


def first_difference(a: list, b: list) -> str:
    for i in range(max(len(a), len(b))):
        left = a[i] if i < len(a) else "<none>"
        right = b[i] if i < len(b) else "<none>"
        if left != right:
            return f"line {i + 1}: {left[:100]!r} vs {right[:100]!r}"
    return ""


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("rev", help="git revision to compare the working tree against")
    args = ap.parse_args()
    t0 = time.perf_counter()
    script = ci_script(ROOT / ".github" / "workflows" / "tests.yml")
    with tempfile.TemporaryDirectory(prefix="parity-") as tmp:
        base, work = Path(tmp) / "rev", Path(tmp) / "work"
        extract(args.rev, base)
        work.mkdir()
        copy_worktree(work)
        with concurrent.futures.ThreadPoolExecutor(2) as pool:
            futures = [pool.submit(Tree(root).checks, script) for root in (base, work)]
            theirs, ours = (f.result() for f in futures)
    differ = 0
    for name in dict.fromkeys([*theirs, *ours]):
        if name not in theirs or name not in ours:
            verdict = f"differs: only in {'the working tree' if name in ours else args.rev}"
        else:
            diff = first_difference(theirs[name], ours[name])
            verdict = f"differs at {diff}" if diff else "same"
        differ += verdict != "same"
        print(f"{name}: {verdict}")
    print(f"{differ} of {len(set(theirs) | set(ours))} checks differ from {args.rev} ({time.perf_counter() - t0:.1f} s)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
