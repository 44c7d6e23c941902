"""tools/parity.py: the report it gives on two trees' results.

``compare`` is fed synthetic results, so no CLI call or git checkout runs.
"""

import importlib.util
import os

import numpy as np

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
