import hashlib
import json
from types import SimpleNamespace

import numpy as np
import pytest

from fprlab import ambiguity, cli, solvers
from fprlab.cli import main
from fprlab.signal_core import ComplexSignal
from fprlab.solvers import PRInstance, SolverConfig
from fprlab.ztransform import ZeroPairing

SIGNAL_2 = {"kind": "signal", "entries": [[1.0, 0.0], [-2.0, 0.0]]}
SIGNAL_3 = {"kind": "signal", "entries": [[9.0, 0.0], [45.0, 0.0], [54.0, 0.0]]}
PAIRING_3 = {
    "kind": "pairing",
    "scale": 486.0,
    "pairs": [[[-2.0, 0.0], [-0.5, 0.0]], [[-3.0, 0.0], [-1.0 / 3.0, 0.0]]],
    "anchor": 9.0,
}

SIGNAL_E18 = {"kind": "signal", "entries": [[c.real, c.imag] for c in np.poly(1e18 * np.exp(0.3j * np.arange(1, 9))).tolist()]}
# a root whose parts are finite but whose modulus passes double range, and its partner
_C = (1 / 1.5e308) / 2
PAIRING_HUGE_ROOT = {"kind": "pairing", "scale": [1, 0], "anchor": [1, 0], "pairs": [[[-1.5e308, -1.5e308], [-_C, -_C]]]}


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_autocorr_roundtrip(tmp_path, capsys):
    path = write(tmp_path, "sig.json", SIGNAL_2)
    code, out, _ = run(capsys, ["autocorr", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["entries"] == [[5.0, 0.0], [-2.0, 0.0]]
    assert doc["r0"] == 5.0
    assert doc["min_sampled_intensity"] == pytest.approx(1.0)
    # the imaginary residue bound grows with the lags: at 1e4 rounding
    # leaves a residue of ~1e-7, far inside a bound of ~3
    four = {"kind": "signal", "entries": [[1e4, 0], [2e4, 1e4], [5e3, -1e4], [3e4, 2e3]]}
    code, out, _ = run(capsys, ["autocorr", write(tmp_path, "four.json", four)])
    assert code == 0
    assert json.loads(out)["r0"] == pytest.approx(1.629e9)


def test_autocorr_kind_mismatch(tmp_path, capsys):
    path = write(tmp_path, "pp.json", {"kind": "pp", "u": [2, 3, 6]})
    code, _, err = run(capsys, ["autocorr", path])
    assert code == 2
    assert "kind" in err


@pytest.mark.parametrize(
    "command, doc, message",
    [
        ("autocorr", {"kind": "pp", "u": [2, 3, 6]}, "autocorr needs kind 'signal', got 'pp'"),
        ("enumerate", {"kind": "pp", "u": [2, 3, 6]}, "enumerate needs kind 'signal' or 'pairing', got 'pp'"),
        ("solve", {"kind": "pp", "u": [2, 3, 6]}, "solve needs kind 'signal' or 'pairing', got 'pp'"),
        ("decide", PAIRING_3, "decide needs kind 'pp', got 'pairing'"),
    ],
)
def test_kind_mismatch_messages(tmp_path, capsys, command, doc, message):
    code, out, err = run(capsys, [command, write(tmp_path, "doc.json", doc)])
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_malformed_inputs(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(capsys, ["autocorr", str(bad)])[0] == 2
    path = write(tmp_path, "nokind.json", {"entries": []})
    assert run(capsys, ["autocorr", path])[0] == 2
    path = write(tmp_path, "weird.json", {"kind": "mystery"})
    assert run(capsys, ["autocorr", path])[0] == 2
    assert run(capsys, ["autocorr", str(tmp_path / "missing.json")])[0] == 2


def test_booleans_are_not_numbers(tmp_path, capsys):
    # bool is an int subclass in Python; JSON true/false must not pass as 1/0
    bad_entries = {"kind": "signal", "entries": [True, [False, True], 2]}
    code, _, err = run(capsys, ["autocorr", write(tmp_path, "entries.json", bad_entries)])
    assert code == 2
    assert "entries[0]" in err
    code, _, err = run(capsys, ["enumerate", write(tmp_path, "scale.json", dict(PAIRING_3, scale=True))])
    assert code == 2
    assert "scale" in err
    bad_anchor = dict(PAIRING_3, anchor=[True, False])
    code, _, err = run(capsys, ["enumerate", write(tmp_path, "anchor.json", bad_anchor)])
    assert code == 2
    assert "anchor" in err


@pytest.mark.parametrize(
    "command, text, field",
    [
        # JSON 1e400 parses to inf; Python's json also reads NaN and Infinity
        ("enumerate", '{"kind":"pairing","scale":[1,0],"pairs":[[[1e400,0],[5,0]]]}', "pairs[0][0]"),
        ("solve", '{"kind":"pairing","scale":[NaN,0],"pairs":[[[-2,0],[-0.5,0]]],"anchor":[1,0]}', "scale"),
        ("solve", '{"kind":"pairing","scale":[1,0],"pairs":[[[-2,0],[-0.5,0]]],"anchor":-Infinity}', "anchor"),
        ("autocorr", '{"kind":"signal","entries":[[1,0],[2,NaN]]}', "entries[1]"),
        # JSON integers are unbounded: 10^400 has no double
        pytest.param("autocorr", json.dumps({"kind": "signal", "entries": [10**400, 1]}), "entries[0]", id="autocorr-int-entry"),
        pytest.param("solve", json.dumps(dict(PAIRING_3, anchor=10**400)), "anchor", id="solve-int-anchor"),
    ],
)
def test_non_finite_numbers_are_parse_errors(tmp_path, capsys, command, text, field):
    path = tmp_path / "doc.json"
    path.write_text(text)
    argv = [command, str(path)] + (["--solver", "oracle"] if command == "solve" else [])
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {field}: ") and err.count("\n") == 1


def test_enumerate_signal(tmp_path, capsys):
    path = write(tmp_path, "sig3.json", SIGNAL_3)
    code, out, _ = run(capsys, ["enumerate", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["total_selections"] == 4
    assert doc["count"] == 2
    assert doc["anchored"] is False


def test_enumerate_byte_budget_exits_2(tmp_path, monkeypatch, capsys):
    # 5 pairs: 32 selections of 16 * 6 + 8 bytes; the anchored path counts only its survivors
    entries = [[1, 0], [2, 1], [0.5, -1], [3, 0.2], [-1, 1], [2, 0]]
    signal = write(tmp_path, "sig6.json", {"kind": "signal", "entries": entries})
    monkeypatch.setattr(ambiguity, "ENUM_BUDGET_BYTES", 32 * 104)
    code, out, err = run(capsys, ["enumerate", signal])
    assert code == 0, err
    assert json.loads(out)["total_selections"] == 32
    monkeypatch.setattr(ambiguity, "ENUM_BUDGET_BYTES", 32 * 104 - 1)
    code, out, err = run(capsys, ["enumerate", signal])
    assert code == 2
    assert out == ""
    assert err == "error: 32 selections need 3328 bytes, over the 3327-byte budget\n"
    # room for one selection of 16 * 3 + 8 bytes, not for all four
    monkeypatch.setattr(ambiguity, "ENUM_BUDGET_BYTES", 56)
    assert run(capsys, ["enumerate", write(tmp_path, "pairing.json", PAIRING_3)])[0] == 0


def test_enumerate_anchored_pairing(tmp_path, capsys):
    path = write(tmp_path, "pairing.json", PAIRING_3)
    code, out, _ = run(capsys, ["enumerate", path])
    assert code == 0
    # self-pairs are read from the roots: a unit_circle_flags key is ignored
    flagged = write(tmp_path, "flagged.json", dict(PAIRING_3, unit_circle_flags=[True, "no"]))
    assert run(capsys, ["enumerate", flagged]) == (0, out, "")
    doc = json.loads(out)
    assert doc["anchored"] is True
    assert doc["count"] == 1
    entries = [complex(re, im) for re, im in doc["solutions"][0]]
    assert np.allclose(entries, [9.0, 45.0, 54.0], rtol=1e-6)


@pytest.mark.parametrize("command, doc, name", [pytest.param("enumerate", PAIRING_3, "anchor tol", id="enumerate-doc1-anchor tol")])
@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_tolerance_must_be_finite_and_nonnegative(tmp_path, capsys, command, doc, name, tol):
    code, out, err = run(capsys, [command, write(tmp_path, "doc.json", doc), "--tol", tol])
    assert code == 2 and out == ""
    assert err.startswith(f"error: {name} must be finite and nonnegative, got ")


@pytest.mark.parametrize("option, name, rule", [("--loss-tol", "loss_tol", "nonnegative"), ("--step-size", "step_size", "positive")])
@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_solve_bounds_must_be_finite(tmp_path, capsys, option, name, rule, value):
    code, out, err = run(capsys, ["solve", write(tmp_path, "sig.json", SIGNAL_3), option, value])
    assert code == 2 and out == ""
    assert err.startswith(f"error: {name} must be finite and {rule}, got ")


@pytest.mark.parametrize(
    "command, doc, message",
    [
        ("enumerate", {"kind": "pairing", "scale": [1, 0], "anchor": [1, 0], "pairs": [[[1e200, 0], [1e-200, 0]]] * 4}, "a root product"),
        ("enumerate", {"kind": "signal", "entries": [[5e-324, 0], [1, 0]]}, "the companion matrix"),
        ("solve", {"kind": "signal", "entries": [[5e-324, 0], [1, 0]]}, "the companion matrix"),
        ("solve", {"kind": "pairing", "scale": [1e308, 0], "anchor": [1, 0], "pairs": [[[-2, 0], [-0.5, 0]]]}, "the spectrum of the pairing"),
        ("solve --solver oracle", {"kind": "pairing", "scale": [1e308, 0], "anchor": [1, 0], "pairs": [[[-2, 0], [-0.5, 0]]]}, "the spectrum of the pairing"),
        ("decide", {"kind": "pp", "u": [2, 3, 10**400]}, "the top lag anchor^2 * u_N"),
        ("enumerate", SIGNAL_E18, "the polynomial's value at a root"),
        ("enumerate", PAIRING_HUGE_ROOT, "a root's modulus"),
        ("solve --solver oracle", PAIRING_HUGE_ROOT, "a root's modulus"),
    ],
    ids=["far-roots", "tiny-lead-enumerate", "tiny-lead-solve", "huge-scale", "huge-scale-oracle", "huge-top-lag", "e18-roots",
         "huge-root-enumerate", "huge-root-oracle"],
)
def test_out_of_double_range_is_a_typed_error(tmp_path, capsys, command, doc, message):
    """Roots 1e200 and 1e-200 take anchored partial products out of double
    range, x(0) = 5e-324 makes the companion matrix divide by 5e-324, and
    scale 1e308 overflows the sampled intensity, and u_N = 10^400 leaves the
    embedding's top lag without a double, and the S polynomial of a signal
    with eight roots of modulus 1e18 (entries up to 1e144) overflows at
    those roots during the Newton polish, and a root with finite parts
    whose modulus has no double cannot be paired: one typed error line each,
    no numpy warning, no misjudged survivor. A pairing instance samples its
    grid when it is built, so the oracle, which reads the grid only when its
    trace's loss is read, is refused by the same error and not by
    NoFeasibleSolution."""
    name, *options = command.split()
    code, out, err = run(capsys, [name, write(tmp_path, "doc.json", doc), *options])
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message} leaves double range (") and err.count("\n") == 1


def test_solve_oracle_on_signal(tmp_path, capsys):
    path = write(tmp_path, "sig3.json", SIGNAL_3)
    code, out, _ = run(capsys, ["solve", path, "--solver", "oracle"])
    assert code == 0
    doc = json.loads(out)
    assert doc["converged"] is True
    assert doc["recovered"] is True
    assert doc["iterations"] == 0
    assert doc["final_loss"] <= 1e-9
    assert "wall_ms" in doc


def test_solve_er_writes_out_file(tmp_path, capsys):
    path = write(tmp_path, "sig.json", SIGNAL_2)
    out_path = tmp_path / "result.json"
    code, _, _ = run(capsys, ["solve", path, "--solver", "er", "--iters", "200", "--out", str(out_path)])
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["solver"] == "er"
    assert doc["recovered"] is True


def test_solve_requires_anchor_on_pairing(tmp_path, capsys):
    path = write(tmp_path, "pairing.json", {k: v for k, v in PAIRING_3.items() if k != "anchor"})
    assert run(capsys, ["solve", path])[0] == 2


def test_solve_past_enumeration_budget_reports_no_ground_truth(tmp_path, capsys):
    # 25 real pairs: ER runs, and labeling ground truth would need the
    # anchored scan, which is past the 24-pair budget
    gammas = [-(2.0 + 0.1 * k) for k in range(25)]
    doc = {"kind": "pairing", "scale": 1.0, "pairs": [[g, 1.0 / g] for g in gammas], "anchor": 1.0}
    path = write(tmp_path, "wide.json", doc)
    code, out, err = run(capsys, ["solve", path, "--solver", "er", "--iters", "20"])
    assert code == 0, err
    result = json.loads(out)
    assert result["n"] == 26
    assert result["iterations"] == 20
    assert result["recovered"] is None


def test_solve_unknown_solver(tmp_path, capsys):
    path = write(tmp_path, "sig.json", SIGNAL_2)
    code, _, err = run(capsys, ["solve", path, "--solver", "magic"])
    assert code == 2
    assert "magic" in err


def test_solve_diverged_step_reports_error(tmp_path, capsys):
    path = write(tmp_path, "sig3.json", SIGNAL_3)
    code, _, err = run(capsys, ["solve", path, "--solver", "wf", "--step-size", "10.0", "--iters", "50"])
    assert code == 2
    assert "loss" in err


def test_decide_exit_codes(tmp_path, capsys):
    yes = write(tmp_path, "yes.json", {"kind": "pp", "u": [2, 3, 6]})
    no = write(tmp_path, "no.json", {"kind": "pp", "u": [2, 3, 5]})
    bad = write(tmp_path, "bad.json", {"kind": "pp", "u": [2, 2]})
    code, out, _ = run(capsys, ["decide", yes])
    assert code == 0
    doc = json.loads(out)
    assert doc["answer"] == "has_solution"
    assert doc["witness"] == [1, 2]
    code, out, _ = run(capsys, ["decide", no])
    assert code == 1
    assert json.loads(out)["answer"] == "no_solution"
    assert run(capsys, ["decide", bad])[0] == 2
    assert run(capsys, ["decide", yes, "--solver", "bogus"])[0] == 2


def test_decide_refuses_past_double_precision(tmp_path, capsys):
    # 362^8 > 2^52: refused like construct_hard_instance, since the planted integers would round
    path = write(tmp_path, "big.json", {"kind": "pp", "u": [166, 362, 166, 362]})
    code, out, err = run(capsys, ["decide", path])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "2^52" in err


def test_decide_seed_needs_iters(tmp_path, capsys):
    path = write(tmp_path, "yes.json", {"kind": "pp", "u": [2, 3, 6]})
    code, out, err = run(capsys, ["decide", path, "--seed", "5"])
    assert code == 2
    assert out == ""
    assert "--seed" in err and "--iters" in err
    code, out, _ = run(capsys, ["decide", path, "--seed", "5", "--iters", "50"])
    assert code == 0
    assert json.loads(out)["answer"] == "has_solution"


def test_decide_duplicate_instance(tmp_path, capsys):
    path = write(tmp_path, "dup.json", {"kind": "pp", "u": [2, 2, 3, 3]})
    code, out, _ = run(capsys, ["decide", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["witness"] == [3]
    assert doc["removed_pairs"] == [[1, 2]]


def _bench_twice(tmp_path, capsys, args):
    """The CSV lines of `fprlab bench args`, asserted byte-identical over two runs."""
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["bench", *args, "--out", str(a)]) == 0
    assert main(["bench", *args, "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    return a.read_text().splitlines()


def test_bench_csv_deterministic(tmp_path, capsys):
    lines = _bench_twice(tmp_path, capsys, ["--sizes", "3", "--trials", "2", "--iters", "30", "--solvers", "oracle,er"])
    assert lines[0] == "instance_id,solver,iterations,final_loss,recovered"
    assert len(lines) == 5
    ids = [ln.split(",")[0] for ln in lines[1:]]
    assert ids == sorted(ids)
    oracle_rows = [ln for ln in lines[1:] if ",oracle," in ln]
    assert all(ln.endswith("true") for ln in oracle_rows)


def test_bench_random_suite(tmp_path, capsys):
    args = ["--sizes", "3", "--trials", "2", "--iters", "30", "--solvers", "oracle,hio", "--suite", "random"]
    lines = _bench_twice(tmp_path, capsys, args)
    assert len(lines) == 5
    oracle_rows = [ln for ln in lines[1:] if ",oracle," in ln]
    assert len(oracle_rows) == 2
    assert all(ln.endswith("true") for ln in oracle_rows)


def test_bench_summary_reports_failed_runs(capsys):
    code, out, err = run(capsys, ["bench", "--suite", "random", "--sizes", "8", "--trials", "2", "--solvers", "er,hio,wf"])
    assert code == 0
    failed_rows = [ln for ln in out.splitlines() if ln.endswith(",0,nan,false")]
    assert len(failed_rows) == 1 and ",wf," in failed_rows[0]
    summary = {ln.split(":")[0].strip(): ln for ln in err.splitlines()[1:]}
    assert summary["wf"].endswith(", failed 1 (StepDiverged 1)")
    assert "failed" not in summary["er"] and "failed" not in summary["hio"]
    # mean iters averages the completed runs only
    wf_done = [int(ln.split(",")[2]) for ln in out.splitlines()[1:] if ",wf," in ln and ln not in failed_rows]
    assert len(wf_done) == 1
    assert f"mean iters {sum(wf_done) / len(wf_done):.1f}," in summary["wf"]


# sha256 of the CSVs of both bench suites. ER and HIO run all 300
# iterations; 11 of the random suite's 12 WF runs end early in StepDiverged.
BENCH_CSV_SHA256 = {
    ("--suite", "hard", "--sizes", "3,4,5", "--trials", "6", "--iters", "300"):
        "c6a341bd50c22082fdfc08eb0933184c745c8471600496ba58782f7bc48fe72d",
    ("--suite", "random", "--sizes", "8,12", "--trials", "6", "--solvers", "er,hio,wf"):
        "95d705a94fa4fb7b3e07522bccad7b5453411f2fb5ee182f9c41ac8632f298fa",
}


@pytest.mark.parametrize("args", list(BENCH_CSV_SHA256), ids=["hard", "random"])
def test_bench_csv_frozen(tmp_path, capsys, args):
    out = tmp_path / "bench.csv"
    assert main(["bench", *args, "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == BENCH_CSV_SHA256[args]
    if "random" in args:
        rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
        assert [r[1] for r in rows if r[2:] == ["0", "nan", "false"]] == ["wf"] * 11


def test_bench_zero_trials_header_only(capsys):
    code, out, _ = run(capsys, ["bench", "--trials", "0", "--sizes", "3"])
    assert code == 0
    assert out == "instance_id,solver,iterations,final_loss,recovered\n"


def test_bench_rejects_bad_config(capsys):
    assert run(capsys, ["bench", "--trials", "-1"])[0] == 2
    assert run(capsys, ["bench", "--solvers", "er,nope"])[0] == 2
    assert run(capsys, ["bench", "--sizes", "2"])[0] == 2


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--solvers", "er,er", "--solvers: entry 'er' repeats"),
        ("--solvers", "oracle, hio,oracle", "--solvers: entry 'oracle' repeats"),
        ("--sizes", "3,x", "--sizes: cannot read entry 'x'"),
        ("--sizes", "3,4,03", "--sizes: entry '03' repeats"),
    ],
)
def test_bench_comma_lists(capsys, option, value, message):
    """A repeated solver would run twice under two seeds and write two rows
    with one key; each list is refused by name, before anything runs."""
    code, out, err = run(capsys, ["bench", "--trials", "1", "--iters", "5", option, value])
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command", ["autocorr", "decide", "bench"])
@pytest.mark.parametrize("target", ["nodir/out", "."], ids=["missing-dir", "a-dir"])
def test_unwritable_out_is_a_typed_error(tmp_path, capsys, command, target):
    """--out to a path that cannot be written exits 2 with one error line
    naming the path; for decide, exit 1 would read as "no solution"."""
    out = str(tmp_path / target)
    docs = {"autocorr": SIGNAL_2, "decide": {"kind": "pp", "u": [2, 3, 5, 4, 6]}}
    if command in docs:
        argv = [command, write(tmp_path, "doc.json", docs[command])]
    else:
        argv = ["bench", "--sizes", "3", "--trials", "1", "--iters", "5", "--solvers", "oracle"]
    code, stdout, err = run(capsys, [*argv, "--out", out])
    assert (code, stdout) == (2, "")
    assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1


def test_unwritable_bench_out_fails_before_any_run(tmp_path, monkeypatch, capsys):
    """bench checks that --out can be opened before it runs anything, so a
    mistyped path costs no run; the error line is the one the final write
    would give. A writable path runs every solver once per instance."""
    calls = []
    for name, solver in list(cli.SOLVERS.items()):
        monkeypatch.setitem(cli.SOLVERS, name, lambda inst, cfg, name=name, solver=solver: calls.append(name) or solver(inst, cfg))
    monkeypatch.chdir(tmp_path)
    argv = ["bench", "--sizes", "3", "--trials", "1", "--iters", "5"]
    code, out, err = run(capsys, [*argv, "--out", "nodir/b.csv"])
    assert (code, out, calls) == (2, "", [])
    assert err.startswith("error: cannot write nodir/b.csv: [Errno 2] ") and err.count("\n") == 1
    assert run(capsys, [*argv, "--out", "b.csv"])[0] == 0
    assert sorted(calls) == ["er", "hio", "oracle", "wf"]


def test_failed_bench_leaves_out_as_it_was(tmp_path, monkeypatch, capsys):
    """The --out probe of a bench that then fails leaves no file it created,
    not even the target of a dangling symlink, and a file that was there
    keeps its bytes."""
    monkeypatch.chdir(tmp_path)
    argv = ["bench", "--sizes", "12", "--trials", "1", "--out", "b.csv"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "") and "exceeds 2^52" in err
    assert list(tmp_path.iterdir()) == []
    (tmp_path / "b.csv").write_bytes(b"kept\n")
    assert run(capsys, argv)[0] == 2
    assert (tmp_path / "b.csv").read_bytes() == b"kept\n"
    (tmp_path / "link").symlink_to("target")
    assert run(capsys, [*argv[:-1], "link"])[0] == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["b.csv", "link"]


def test_wall_time_covers_the_deferred_loss(tmp_path, monkeypatch, capsys):
    """solve and bench stop the clock only after reading the losses, which
    the oracle computes on that read; bench records an error of that read
    as the run's failure."""
    events = []
    loss = solvers.amplitude_loss
    monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: events.append("clock") or 0.0))
    monkeypatch.setattr(solvers, "amplitude_loss", lambda z, s: events.append("loss") or loss(z, s))
    assert run(capsys, ["solve", write(tmp_path, "p.json", PAIRING_3), "--solver", "oracle"])[0] == 0
    assert events == ["clock", "loss", "clock"]
    events.clear()
    assert run(capsys, ["bench", "--sizes", "3", "--trials", "1", "--solvers", "oracle"])[0] == 0
    assert events == ["clock", "loss", "clock"]
    # an instance built without samples whose spectrum leaves double range
    huge, anchor = ZeroPairing(1e308, ((-2, -0.5),)), np.sqrt(0.5e308)
    gt = ComplexSignal(np.array([anchor, 2 * anchor]))
    row = cli._bench_one(("n2_t000", "oracle", PRInstance(huge, anchor), gt, SolverConfig()))
    assert (row.iterations, np.isnan(row.final_loss), row.recovered, row.error) == (0, True, False, "OverflowBeyondPrecision")


def test_anchor_whose_square_underflows_is_a_zero_anchor(tmp_path, capsys):
    # |1e-170|^2 underflows to 0, so the anchor cannot divide r(N-1)
    pairing = {"kind": "pairing", "scale": [1e-300, 0], "pairs": [[[-2, 0], [-0.5, 0]]], "anchor": [1e-170, 0]}
    signal = {"kind": "signal", "entries": [[1e-300, 0], [1, 0]]}
    for doc, argv in [
        (pairing, ["enumerate"]),
        (pairing, ["solve", "--solver", "oracle"]),
        (pairing, ["solve", "--solver", "er"]),
        (signal, ["solve", "--solver", "oracle"]),
    ]:
        code, out, err = run(capsys, [argv[0], write(tmp_path, "doc.json", doc), *argv[1:]])
        assert code == 2, (doc, argv)
        assert out == ""
        assert err.startswith("error: ") and "cannot anchor" in err


def test_one_entry_signal_matches_its_pairing(tmp_path, capsys):
    signal = write(tmp_path, "sig.json", {"kind": "signal", "entries": [[2, 1]]})
    pairing = write(tmp_path, "pairing.json", {"kind": "pairing", "scale": [5, 0], "pairs": [], "anchor": [2, 1]})
    code, out, _ = run(capsys, ["enumerate", signal])
    assert code == 0
    assert json.loads(out)["count"] == 1
    results = []
    for path in (signal, pairing):
        code, out, err = run(capsys, ["solve", path])
        assert code == 0, err
        results.append(json.loads(out))
        del results[-1]["wall_ms"]
    assert results[0] == results[1]
    assert results[0]["n"] == 1 and results[0]["recovered"] is True


def test_squares_past_the_double_range(tmp_path, capsys):
    """|z|^2 overflows past |z| ~ 1.34e154, so an anchor that large
    cannot anchor. The pair tolerance is linear in |gamma|, so a root
    that large, or one of 1e7, with a partner that is not its conjugate
    reciprocal fails the pairing check. All are typed errors, not
    tracebacks."""
    huge_anchor = {"kind": "pairing", "scale": [1, 0], "pairs": [[[-2, 0], [-0.5, 0]]], "anchor": [1e200, 0]}
    huge_root = {"kind": "pairing", "scale": [1, 0], "pairs": [[[1e200, 0], [5, 0]]], "anchor": [1, 0]}
    large_root = {"kind": "pairing", "scale": [1, 0], "pairs": [[[1e7, 0], [5, 0]]]}
    for doc, argv, message in [
        (huge_anchor, ["enumerate"], "cannot anchor"),
        (huge_anchor, ["solve", "--solver", "oracle"], "cannot anchor"),
        (huge_root, ["enumerate"], "conjugate-reciprocal"),
        (huge_root, ["solve", "--solver", "oracle"], "conjugate-reciprocal"),
        (large_root, ["enumerate"], "conjugate-reciprocal"),
    ]:
        code, out, err = run(capsys, [argv[0], write(tmp_path, "doc.json", doc), *argv[1:]])
        assert code == 2, (doc, argv)
        assert out == ""
        assert err.startswith("error: ") and message in err


def test_large_root_signal_is_solved(tmp_path, capsys):
    """[1, 1e-6] has a root at -1e6. Paired as a unit-circle root, it
    would make the oracle reject the signal's own anchor."""
    path = write(tmp_path, "sig.json", {"kind": "signal", "entries": [[1, 0], [1e-6, 0]]})
    code, out, err = run(capsys, ["solve", path, "--solver", "oracle"])
    assert code == 0, err
    assert json.loads(out)["recovered"] is True
