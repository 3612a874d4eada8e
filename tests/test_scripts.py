import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


@pytest.mark.parametrize(
    "name, args",
    [
        ("ambiguity_census.py", ["--sizes", "2,3,4", "--draws", "2"]),
        ("decision_sweep.py", ["--sizes", "3"]),
    ],
)
def test_script_smallest_size_runs(name, args):
    done = run_script(name, *args)
    assert done.returncode == 0, done.stderr
    if name == "decision_sweep.py":
        assert done.stdout.splitlines()[0].split() == ["n", "instances", "positive", "max", "anchor", "wall", "brute"]
        assert "all agree" in done.stdout
