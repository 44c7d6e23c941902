"""Compare the CLI outputs of a commit with those of this working tree.

Usage: ``python tools/parity.py <commit> [--expect <out-dir|subcommand>,...]``
(takes about a minute).

Makes a ``git worktree`` of ``<commit>`` in a temporary directory and runs a
fixed matrix of ``reconkit`` CLI calls against each tree's ``src/``, each call
in a fresh interpreter.  The matrix starts with the benchmark workloads' own
calls, read from ``bench.workloads`` at two seeds.  Both trees run the same
argv from a run directory of their own, with the same relative output paths,
so ``manifest.json`` (which echoes the output directory) and the stdout lines
that name it compare byte for byte.  For each call it compares the exit code, stdout, stderr and the
sha256 of every file the call wrote.  On a mismatch it prints the maximum
relative difference of each differing ``.f32`` raster and exits 1; otherwise
it exits 0.  The worktree is removed however the run ends.

``--expect`` names the calls a change may alter on purpose, each by its
``--out`` directory or, for a call without one, its subcommand.  Their
differences are listed under ``expected:`` with the changed SNRs of their
``metrics.csv`` and their changed stdout lines, and do not fail the run; a
difference in any other call still does.
"""

from __future__ import annotations

import argparse
import csv
import difflib
import hashlib
import os
import subprocess
import sys
import tempfile

import numpy as np

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)
from bench.workloads import WORKLOADS  # noqa: E402  (the benchmark's calls, read only)

RUN = "import sys; from reconkit.cli import main; sys.exit(main(sys.argv[1:]))"


def matrix() -> list:
    """The CLI calls, in order; a call may read an earlier call's outputs."""
    calls = []
    for seed in (0, 7919):
        root = f"seed_{seed}"
        for workload in WORKLOADS.values():
            calls += [call.argv for call in workload.calls(seed, root, False)]
        if seed == 0:
            # the solvers the benchmark leaves out, on its simulated data
            for solver in ("admm_tv", "admm_l1"):
                calls.append([
                    "reconstruct", "--data", f"{root}/data", "--solver", solver,
                    "--max-iter", "100", "--seed", "0", "--out", f"{root}/{solver}",
                ])
    calls += [
        ["compress-study", "--transform", "all", "--out", "compress_all"],
        ["nullspace-demo", "--out", "nullspace"],
        ["selftest"],
        ["phantom", "--size", "64", "--out", "phantom"],
        ["simulate", "--size", "64", "--blur", "airy", "--out", "airy"],
        ["simulate", "--size", "32", "--out", "small"],
        # an extreme penalty weight, and an overflowing step that exits 3
        ["reconstruct", "--data", "small", "--solver", "admm_tv", "--lam", "0.1",
         "--rho", "1e300", "--out", "rho_1e300"],
        ["reconstruct", "--data", "small", "--solver", "gd", "--lam", "0.1",
         "--step", "1e150", "--out", "step_1e150"],
        # the radon geometry path at an odd view count
        ["fbp-vs-tv", "--size", "48", "--angles", "17", "--max-iter", "5", "--out", "fbp_48_17"],
    ]
    return calls


def _out_dir(argv: list) -> str | None:
    return argv[argv.index("--out") + 1] if "--out" in argv else None


def run_tree(calls: list, src: str, run_dir: str) -> list:
    """Run ``calls`` against ``src``; per call (exit code, stdout, stderr, file hashes)."""
    os.makedirs(run_dir)
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    results = []
    for argv in calls:
        proc = subprocess.run(
            [sys.executable, "-c", RUN, *argv], cwd=run_dir, env=env, capture_output=True
        )
        hashes = {}
        out = _out_dir(argv)
        if out and os.path.isdir(os.path.join(run_dir, out)):
            for name in sorted(os.listdir(os.path.join(run_dir, out))):
                with open(os.path.join(run_dir, out, name), "rb") as fh:
                    hashes[name] = hashlib.sha256(fh.read()).hexdigest()
        results.append((proc.returncode, proc.stdout, proc.stderr, hashes))
    return results


def _max_rel_diff(a_path: str, b_path: str) -> str:
    a = np.fromfile(a_path, dtype="<f4").astype(np.float64)
    b = np.fromfile(b_path, dtype="<f4").astype(np.float64)
    if a.shape != b.shape:
        return f"sizes differ ({a.size} vs {b.size} samples)"
    scale = max(float(np.max(np.abs(a), initial=0.0)), 1e-300)
    return f"max relative difference {float(np.max(np.abs(a - b), initial=0.0)) / scale:.3e}"


def compare(calls: list, base: list, head: list, base_dir: str, head_dir: str) -> list:
    """Lines describing every difference between the two trees' results of ``calls``."""
    problems = []
    for argv, (b_code, b_out, b_err, b_files), (h_code, h_out, h_err, h_files) in zip(
        calls, base, head
    ):
        label = " ".join(argv)
        if b_code != h_code:
            problems.append(f"{label}: exit code {b_code} -> {h_code}")
        if b_out != h_out:
            problems.append(f"{label}: stdout differs")
        if b_err != h_err:
            problems.append(f"{label}: stderr differs")
        for name in sorted(set(b_files) | set(h_files)):
            if b_files.get(name) == h_files.get(name):
                continue
            if name not in b_files or name not in h_files:
                side = "commit" if name not in h_files else "working tree"
                problems.append(f"{label}: {name} written only in the {side}")
                continue
            line = f"{label}: {name} differs"
            if name.endswith(".f32"):
                out = _out_dir(argv)
                a, b = (os.path.join(d, out, name) for d in (base_dir, head_dir))
                line += f", {_max_rel_diff(a, b)}"
            problems.append(line)
    return problems


def _label(argv: list) -> str:
    """The name ``--expect`` knows a call by: its output directory, else its subcommand."""
    return _out_dir(argv) or argv[0]


def _snr_changes(base_csv: str, head_csv: str) -> list:
    """``name base -> head (delta dB)`` for each SNR cell that differs in two tables.

    An SNR cell sits in a column whose header names ``snr``, or in the value
    column of a row whose first cell does; the row's other cells name it.
    """
    with open(base_csv) as fb, open(head_csv) as fh:
        (header, *b_rows), (_, *h_rows) = list(csv.reader(fb)), list(csv.reader(fh))
    snr_cols = [j for j, name in enumerate(header) if "snr" in name]
    changes = []
    for b_row, h_row in zip(b_rows, h_rows):
        cols = snr_cols or ([len(b_row) - 1] if "snr" in b_row[0] else [])
        name = " ".join(cell for j, cell in enumerate(b_row) if j not in cols)
        for j in cols:
            if b_row[j] != h_row[j]:
                delta = float(h_row[j]) - float(b_row[j])
                changes.append(f"{name} {b_row[j]} -> {h_row[j]} ({delta:+.2e} dB)")
    return changes


def _changed_lines(base: bytes, head: bytes) -> list:
    """The stdout lines only one side printed, ``-`` for the commit's, ``+`` for the tree's."""
    diff = difflib.ndiff(base.decode().splitlines(), head.decode().splitlines())
    return [line[0] + " " + line[2:] for line in diff if line[:2] in ("- ", "+ ")]


def report(calls: list, base: list, head: list, base_dir: str, head_dir: str, expect=()):
    """``(expected, problems)``: difference lines of the calls ``expect`` names, and of the rest.

    An expected call that differs adds its changed ``metrics.csv`` SNRs (or
    ``SNR unchanged``) and its changed stdout lines; one that does not says so.
    """
    expected, problems = [], []
    for argv, b, h in zip(calls, base, head):
        lines = compare([argv], [b], [h], base_dir, head_dir)
        label = _label(argv)
        if label not in expect:
            problems += lines
            continue
        if not lines:
            expected.append(f"{label}: identical")
            continue
        expected += lines
        if "metrics.csv" in b[3] and "metrics.csv" in h[3]:
            paths = (os.path.join(d, label, "metrics.csv") for d in (base_dir, head_dir))
            changes = _snr_changes(*paths) or ["SNR unchanged"]
            expected += [f"{label}: metrics.csv {change}" for change in changes]
        expected += [f"{label}: stdout {line}" for line in _changed_lines(b[1], h[1])]
    return expected, problems


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(prog="python tools/parity.py")
    parser.add_argument("commit")
    parser.add_argument(
        "--expect", default="", help="comma-separated out-dirs or subcommands that may change"
    )
    args = parser.parse_args(argv)
    calls = matrix()
    expect = {label for label in args.expect.split(",") if label}
    unknown = expect - {_label(argv) for argv in calls}
    if unknown:
        parser.error(f"--expect names no call: {', '.join(sorted(unknown))}")
    with tempfile.TemporaryDirectory(prefix="reconkit-parity-") as tmp:
        tree = os.path.join(tmp, "tree")
        subprocess.run(
            ["git", "-C", REPO, "worktree", "add", "--detach", "--quiet", tree, args.commit],
            check=True,
        )
        try:
            base_dir, head_dir = os.path.join(tmp, "commit"), os.path.join(tmp, "working")
            base = run_tree(calls, os.path.join(tree, "src"), base_dir)
            head = run_tree(calls, os.path.join(REPO, "src"), head_dir)
            expected, problems = report(calls, base, head, base_dir, head_dir, expect)
        finally:
            subprocess.run(["git", "-C", REPO, "worktree", "remove", "--force", tree], check=True)
    files = sum(len(h[3]) for h in head)
    for line in expected:
        print(f"parity: expected: {line}")
    for line in problems:
        print(f"parity: {line}")
    verdict = f"{len(problems)} difference(s)" if problems else "identical"
    if expect:
        verdict += f" outside the {len(expect)} expected call(s)"
    print(f"parity: {len(head)} calls, {files} files against {args.commit}: {verdict}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
