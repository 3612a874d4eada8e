import json

import numpy as np
import pytest

from fprlab import ambiguity
from fprlab.cli import main

SIGNAL_2 = {"kind": "signal", "entries": [[1.0, 0.0], [-2.0, 0.0]]}
SIGNAL_3 = {"kind": "signal", "entries": [[9.0, 0.0], [45.0, 0.0], [54.0, 0.0]]}
PAIRING_3 = {
    "kind": "pairing",
    "scale": 486.0,
    "pairs": [[[-2.0, 0.0], [-0.5, 0.0]], [[-3.0, 0.0], [-1.0 / 3.0, 0.0]]],
    "unit_circle_flags": [False, False],
    "anchor": 9.0,
}


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
    # 5 pairs: 32 selections of 16 * 6 + 8 bytes; the anchored path checks only the pair count
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
    monkeypatch.setattr(ambiguity, "ENUM_BUDGET_BYTES", 0)
    assert run(capsys, ["enumerate", write(tmp_path, "pairing.json", PAIRING_3)])[0] == 0


def test_enumerate_anchored_pairing(tmp_path, capsys):
    path = write(tmp_path, "pairing.json", PAIRING_3)
    code, out, _ = run(capsys, ["enumerate", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["anchored"] is True
    assert doc["count"] == 1
    entries = [complex(re, im) for re, im in doc["solutions"][0]]
    assert np.allclose(entries, [9.0, 45.0, 54.0], rtol=1e-6)


@pytest.mark.parametrize("command, doc, name", [("autocorr", SIGNAL_3, "imaginary residue tol"), ("enumerate", PAIRING_3, "anchor tol")])
@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_tolerance_must_be_finite_and_nonnegative(tmp_path, capsys, command, doc, name, tol):
    code, out, err = run(capsys, [command, write(tmp_path, "doc.json", doc), "--tol", tol])
    assert code == 2 and out == ""
    assert err.startswith(f"error: {name} must be finite and nonnegative, got ")


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
    doc = dict(PAIRING_3)
    del doc["anchor"]
    path = write(tmp_path, "pairing.json", doc)
    assert run(capsys, ["solve", path])[0] == 2


def test_solve_past_enumeration_budget_reports_no_ground_truth(tmp_path, capsys):
    # 25 real pairs: ER runs, and labeling ground truth would need the
    # anchored scan, which is past the 24-pair budget
    gammas = [-(2.0 + 0.1 * k) for k in range(25)]
    doc = {
        "kind": "pairing",
        "scale": 1.0,
        "pairs": [[g, 1.0 / g] for g in gammas],
        "anchor": 1.0,
    }
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
    code, _, err = run(
        capsys, ["solve", path, "--solver", "wf", "--step-size", "10.0", "--iters", "50"]
    )
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


def test_bench_csv_deterministic(tmp_path, capsys):
    args = ["bench", "--sizes", "3", "--trials", "2", "--iters", "30", "--solvers", "oracle,er"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "instance_id,solver,iterations,final_loss,recovered"
    assert len(lines) == 5
    ids = [ln.split(",")[0] for ln in lines[1:]]
    assert ids == sorted(ids)
    oracle_rows = [ln for ln in lines[1:] if ",oracle," in ln]
    assert all(ln.endswith("true") for ln in oracle_rows)


def test_bench_random_suite(tmp_path, capsys):
    args = [
        "bench", "--sizes", "3", "--trials", "2", "--iters", "30",
        "--solvers", "oracle,hio", "--suite", "random",
    ]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert len(lines) == 5
    oracle_rows = [ln for ln in lines[1:] if ",oracle," in ln]
    assert len(oracle_rows) == 2
    assert all(ln.endswith("true") for ln in oracle_rows)


def test_bench_summary_reports_failed_runs(capsys):
    code, out, err = run(capsys, [
        "bench", "--suite", "random", "--sizes", "8", "--trials", "2",
        "--solvers", "er,hio,wf",
    ])
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


def test_bench_zero_trials_header_only(capsys):
    code, out, _ = run(capsys, ["bench", "--trials", "0", "--sizes", "3"])
    assert code == 0
    assert out == "instance_id,solver,iterations,final_loss,recovered\n"


def test_bench_rejects_bad_config(capsys):
    assert run(capsys, ["bench", "--trials", "-1"])[0] == 2
    assert run(capsys, ["bench", "--solvers", "er,nope"])[0] == 2
    assert run(capsys, ["bench", "--sizes", "2"])[0] == 2


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
