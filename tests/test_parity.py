"""tools/parity.py: the report it gives on two trees' results.

``compare`` is fed synthetic results, so no CLI call or git checkout runs.
"""

import dataclasses
import importlib.util
import os

import numpy as np
import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "parity.py")


def load_parity():
    spec = importlib.util.spec_from_file_location("parity", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_f32(path, values):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    np.asarray(values, dtype="<f4").tofile(path)


def test_compare_names_each_kind_of_difference(tmp_path):
    parity = load_parity()
    base_dir, head_dir = str(tmp_path / "commit"), str(tmp_path / "working")
    write_f32(os.path.join(base_dir, "rec", "recon.f32"), [1.0, -2.0, 4.0])
    write_f32(os.path.join(head_dir, "rec", "recon.f32"), [1.0, -2.0, 3.0])
    calls = [
        ["same", "--out", "same"],
        ["exit"],
        ["talk"],
        ["rec", "--out", "rec"],
    ]
    base = [
        (0, b"ok\n", b"", {"a.csv": "1"}),
        (0, b"", b"", {}),
        (0, b"one\n", b"warn\n", {}),
        (0, b"", b"", {"recon.f32": "1", "old.csv": "2", "manifest.json": "3"}),
    ]
    head = [
        (0, b"ok\n", b"", {"a.csv": "1"}),
        (3, b"", b"", {}),
        (0, b"two\n", b"other\n", {}),
        (0, b"", b"", {"recon.f32": "9", "new.csv": "4", "manifest.json": "5"}),
    ]
    problems = parity.compare(calls, base, head, base_dir, head_dir)
    assert problems == [
        "exit: exit code 0 -> 3",
        "talk: stdout differs",
        "talk: stderr differs",
        "rec --out rec: manifest.json differs",
        "rec --out rec: new.csv written only in the working tree",
        "rec --out rec: old.csv written only in the commit",
        "rec --out rec: recon.f32 differs, max relative difference 2.500e-01",
    ]


def test_identical_results_report_nothing(tmp_path):
    parity = load_parity()
    calls = [["a", "--out", "a"], ["b"]]
    results = [(0, b"x", b"", {"a.f32": "1"}), (3, b"", b"err", {})]
    assert parity.compare(calls, results, list(results), str(tmp_path), str(tmp_path)) == []


def test_matrix_starts_with_the_benchmark_calls():
    parity = load_parity()
    from bench.workloads import WORKLOADS

    calls = parity.matrix()
    bench = [c.argv for w in WORKLOADS.values() for c in w.calls(0, "seed_0", False)]
    assert calls[: len(bench)] == bench
    held_out = [c.argv for w in WORKLOADS.values() for c in w.calls(7919, "seed_7919", False)]
    assert all(argv in calls for argv in held_out)


def write_metrics(path, text):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)


def test_expected_calls_report_their_snr_changes_and_others_still_fail(tmp_path):
    parity = load_parity()
    base_dir, head_dir = str(tmp_path / "commit"), str(tmp_path / "working")
    write_metrics(os.path.join(base_dir, "tomo", "metrics.csv"), "method,snr_db\nfbp,12.5\ntv,16.25\n")
    write_metrics(os.path.join(head_dir, "tomo", "metrics.csv"), "method,snr_db\nfbp,12.5\ntv,16.0\n")
    write_metrics(os.path.join(base_dir, "sim", "metrics.csv"), "metric,value\nsnr_db,20.0\nkept,7\n")
    write_metrics(os.path.join(head_dir, "sim", "metrics.csv"), "metric,value\nsnr_db,20.0\nkept,8\n")
    write_f32(os.path.join(base_dir, "tomo", "recon.f32"), [2.0, 4.0])
    write_f32(os.path.join(head_dir, "tomo", "recon.f32"), [2.0, 3.0])
    calls = [
        ["fbp-vs-tv", "--out", "tomo"],
        ["simulate", "--out", "sim"],
        ["selftest"],
        ["phantom", "--out", "same"],
        ["reconstruct", "--out", "rec"],
    ]
    base = [
        (0, b"", b"", {"metrics.csv": "1", "recon.f32": "2"}),
        (0, b"", b"", {"metrics.csv": "3"}),
        (0, b"ok a 1\nok b 2\n", b"", {}),
        (0, b"", b"", {"p.f32": "5"}),
        (0, b"x\n", b"", {}),
    ]
    head = [
        (0, b"", b"", {"metrics.csv": "4", "recon.f32": "6"}),
        (0, b"", b"", {"metrics.csv": "7"}),
        (0, b"ok a 1\nok b 3\n", b"", {}),
        (0, b"", b"", {"p.f32": "5"}),
        (0, b"y\n", b"", {}),
    ]
    expect = {"tomo", "sim", "selftest", "same"}
    expected, problems = parity.report(calls, base, head, base_dir, head_dir, expect)
    assert expected == [
        "fbp-vs-tv --out tomo: metrics.csv differs",
        "fbp-vs-tv --out tomo: recon.f32 differs, max relative difference 2.500e-01",
        "tomo: metrics.csv tv 16.25 -> 16.0 (-2.50e-01 dB)",
        "simulate --out sim: metrics.csv differs",
        "sim: metrics.csv SNR unchanged",
        "selftest: stdout differs",
        "selftest: stdout - ok b 2",
        "selftest: stdout + ok b 3",
        "same: identical",
    ]
    assert problems == ["reconstruct --out rec: stdout differs"]
    # with nothing expected every difference is a problem, as compare reports it
    expected, problems = parity.report(calls, base, head, base_dir, head_dir)
    assert expected == []
    assert problems == parity.compare(calls, base, head, base_dir, head_dir)


def test_expect_naming_no_call_is_a_usage_error(capsys):
    parity = load_parity()
    with pytest.raises(SystemExit) as exc:
        parity.main(["HEAD", "--expect", "seed_0/fbp_vs_tv,no_such_call"])
    assert exc.value.code == 2
    assert "--expect names no call: no_such_call" in capsys.readouterr().err


def test_library_report_compares_bytes_and_files_operator_cases_under_selftest():
    parity = load_parity()
    base = {
        "solver gd final": np.array([1.0, 2.0]),
        "solver gd iterations": np.array(3),
        "solver cg final": np.array([0.0, 1.0]),
        "operator mask apply": np.array([1.0, 4.0]),
        "operator old apply": np.zeros(2),
    }
    head = {
        "solver gd final": np.array([1.0, 2.5]),
        "solver gd iterations": np.array(3),
        "solver cg final": np.array([-0.0, 1.0]),
        "operator mask apply": np.array([1.0, 4.0]),
        "operator new apply": np.ones(2),
    }
    operator_lines = [
        "selftest: operator new apply only in the working tree",
        "selftest: operator old apply only in the commit",
    ]
    solver_lines = [
        "library: solver cg final differs, max relative difference 0.000e+00",
        "library: solver gd final differs, max relative difference 2.500e-01",
    ]
    assert parity.report_library(base, head) == ([], operator_lines + solver_lines)
    assert parity.report_library(base, head, {"selftest"}) == (operator_lines, solver_lines)
    assert parity.report_library(base, dict(base)) == ([], [])


def test_library_covers_every_solver_and_selftest_operator():
    parity = load_parity()
    from reconkit import SolveReport
    from reconkit.cli import _selftest_cases

    results = parity.library()
    solvers = ("gd", "gd_fixed_step", "cg", "ista", "fista")
    solvers += ("admm_abs", "admm_quadratic", "admm_tv")
    # each solver again from a given start, once float32
    solvers += ("gd_warm", "cg_warm", "cg_warm_float32", "ista_warm", "fista_warm", "admm_tv_warm")
    # each solve's whole report
    assert set(parity.REPORT_PARTS) == {f.name for f in dataclasses.fields(SolveReport)}
    want = {f"solver {name} {part}" for name in solvers for part in parity.REPORT_PARTS}
    want |= {
        f"operator {name} {method}"
        for name, _, _ in _selftest_cases()
        for method in ("apply", "adjoint", "normal")
    }
    assert set(results) == want | {
        f"radon over-budget {method}" for method in ("apply", "adjoint", "normal")
    }
