"""Compare the CLI and library outputs of a commit with those of this working tree.

Usage: ``python tools/parity.py <commit> [--expect <label>,...]`` (takes about
a minute).

Extracts ``src/`` of ``<commit>`` with ``git archive`` into a temporary
directory and runs a fixed matrix of ``reconkit`` CLI calls against each
tree's ``src/``, each call in a fresh interpreter.  The matrix starts with
the benchmark workloads' own calls, read from ``bench.workloads`` at two
seeds, and ends with calls that break a config rule, whose exit code and
error text compare like any other output.  Both trees run the same argv from
a run directory of their own, with the same relative output paths, so
``manifest.json`` (which echoes the output directory) and the stdout lines
that name it compare byte for byte.  For each call it compares the exit
code, stdout, stderr and the sha256 of every file the call wrote; a
``manifest.json`` that differs is named by each JSON path, such as
``config.seed``, that only one tree wrote or that the two wrote differently.

Then one more fresh interpreter per tree computes ``library()``, and the two
trees' arrays are compared byte for byte: each solver's whole report (final,
objective and residual traces, iteration count and ``converged``) on one
small problem, gradient descent with both the auto and a fixed step, and
each solver again from a fixed non-zero start (once as a float32 array); the
auto step itself on that problem, for the abs penalty (``w = 0``, the range
side) and the quadratic one (``w > 0``, the domain side);
``apply``, ``adjoint`` and ``normal`` of every ``cli._selftest_cases``
operator; and ``op_radon``'s ``apply``, ``adjoint`` and ``normal`` at the
``fewview_tomo`` workload's geometry, where it keeps its tables, and on the
path that rebuilds its tables per call.

On a mismatch it prints the maximum relative difference of each differing
``.f32`` raster or library array and exits 1; otherwise it exits 0.

``--expect`` names the calls a change may alter on purpose, each by its
``--out`` directory or, for a call without one, its subcommand.  Their
differences are listed under ``expected:`` with the changed SNRs of their
``metrics.csv`` and their changed stdout lines, and do not fail the run; a
difference in any other call still does.  The operator cases' library
results go with the ``selftest`` call, and the other library results by the
label ``library``.
"""

from __future__ import annotations

import argparse
import csv
import difflib
import hashlib
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

TOOLS = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(TOOLS)
sys.path.insert(0, REPO)
from bench.workloads import WORKLOADS  # noqa: E402  (the benchmark's calls, read only)

# every field of a SolveReport, compared per library solve
REPORT_PARTS = ("final", "objective_trace", "residual_trace", "iterations", "converged")
RUN = "import sys; from reconkit.cli import main; sys.exit(main(sys.argv[1:]))"
LIBRARY = (
    "import sys; sys.path.insert(0, sys.argv[1]); import parity; parity.save_library(*sys.argv[2:])"
)


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
        # 96 is no power of two, so the unitary DFT's 1 / 96 scaling rounds; that
        # shows in the full keep's roundoff-limited SNR, not in the ranked ones
        ["compress-study", "--size", "96", "--transform", "all",
         "--fractions", "0.01,0.05,0.1,0.25,1", "--out", "compress_96"],
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
        # calls that break a config rule and exit 2, so the error texts compare too
        ["phantom", "--size", "16", "--out", "bad_size"],
        ["compress-study", "--levels", "0", "--out", "bad_levels"],
        ["reconstruct", "--solver", "gd", "--step", "inf", "--out", "bad_step"],
        ["compare-l2-l1", "--lambdas=0.1,-1", "--out", "bad_lambda"],
        ["fbp-vs-tv", "--angles", "0", "--out", "bad_angles"],
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


def library() -> dict:
    """The library results, by name, of the ``reconkit`` that ``import`` finds."""
    import reconkit as rk
    from reconkit.cli import _selftest_cases

    # real input: a commit whose operators still took complex arrays accepts it too
    def field(shape, seed):
        return rk.normal_stream(int(np.prod(shape)), 1.0, seed).reshape(shape)

    shape = (32, 32)
    mask = rk.random_mask(shape, 0.5, 1)
    # blur then mask plus seeded noise, from names public at every compared commit
    blur = rk.op_convolve(rk.embed_kernel(rk.gaussian_kernel(5, 1.0), shape))
    op = rk.op_compose(rk.op_mask(mask), blur)
    g = op.apply(rk.shepp_logan(32)) + rk.normal_stream(mask.size, 0.05, 2)[mask.ravel()]
    grad = rk.op_grad(shape)
    quadratic = rk.Objective(op, g, "quadratic", 0.01, reg_op=grad)
    l1 = rk.Objective(op, g, "abs", 0.01)
    tv = rk.Objective(op, g, "abs", 0.01, reg_op=grad)
    warm = 0.5 * field(shape, 5)  # a given start runs the f0 check and copy; None skips them
    solves = {
        "gd": (rk.gradient_descent, quadratic, {"power_seed": 3}),
        "gd_fixed_step": (rk.gradient_descent, quadratic, {"step": 0.4}),
        "cg": (rk.conjugate_gradient_normal, quadratic, {}),
        "ista": (rk.ista, l1, {"power_seed": 3}),
        "fista": (rk.ista, l1, {"accelerate": True, "power_seed": 3}),
        "admm_abs": (rk.admm, l1, {"inner_iter": 10}),
        "admm_quadratic": (rk.admm, quadratic, {"inner_iter": 10}),
        "admm_tv": (rk.admm, tv, {"inner_iter": 10}),
        "gd_warm": (rk.gradient_descent, quadratic, {"f0": warm, "power_seed": 3}),
        "cg_warm": (rk.conjugate_gradient_normal, quadratic, {"f0": warm}),
        "cg_warm_float32": (
            rk.conjugate_gradient_normal, quadratic, {"f0": warm.astype(np.float32)}
        ),
        "ista_warm": (rk.ista, l1, {"f0": warm, "power_seed": 3}),
        "fista_warm": (rk.ista, l1, {"f0": warm, "accelerate": True, "power_seed": 3}),
        "admm_tv_warm": (rk.admm, tv, {"f0": warm, "inner_iter": 10}),
    }
    # the auto step on its own, so a change to it shows before the solves it feeds
    results = {
        f"auto_step {name}": np.array(rk.variational._auto_step(obj, 3))
        for name, obj in (("abs", l1), ("quadratic", quadratic))
    }
    for name, (solve, obj, kwargs) in solves.items():
        solved = solve(obj, max_iter=30, **kwargs)
        for part in REPORT_PARTS:
            results[f"solver {name} {part}"] = np.array(getattr(solved, part))
    for name, case, _ in _selftest_cases():
        x = field(case.domain_shape, 1)
        y = field(case.range_shape, 3)
        results[f"operator {name} apply"] = case.apply(x)
        results[f"operator {name} adjoint"] = case.adjoint(y)
        results[f"operator {name} normal"] = case.normal(x)
    # 30 views at 64^2, as fbp-vs-tv runs by default, keeps its tables; 128
    # views x 128 detectors x 183 samples per ray is beyond op_radon's cache
    # budget of 2**21 samples, so each call rebuilds its tables
    for label, views, size in (("cached", 30, 64), ("over-budget", 128, 128)):
        radon = rk.op_radon(rk.RadonGeometry(views, size), (size, size))
        results[f"radon {label} apply"] = radon.apply(rk.shepp_logan(size))
        results[f"radon {label} adjoint"] = radon.adjoint(field(radon.range_shape, 3))
        results[f"radon {label} normal"] = radon.normal(field(radon.domain_shape, 1))
    return results


def save_library(src: str, path: str) -> None:
    """Write ``library()`` of the ``reconkit`` under ``src`` to the ``.npz`` file ``path``."""
    import reconkit

    if not os.path.abspath(reconkit.__file__).startswith(src + os.sep):
        raise SystemExit(f"reconkit was imported from {reconkit.__file__}, not from {src}")
    np.savez(path, **library())


def run_library(src: str, run_dir: str) -> tuple:
    """``(results, error)``: ``library()`` of the tree at ``src``, run in a fresh interpreter."""
    path = os.path.join(run_dir, "library.npz")
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", LIBRARY, TOOLS, src, path], cwd=run_dir, env=env, capture_output=True
    )
    if proc.returncode != 0:
        return {}, (proc.stderr.decode().strip().splitlines() or ["no message"])[-1]
    with np.load(path) as data:
        return {name: data[name] for name in data.files}, None


def _rel_diff(a: np.ndarray, b: np.ndarray) -> str:
    if a.shape != b.shape:
        return f"shapes differ ({a.shape} vs {b.shape})"
    scale = max(float(np.max(np.abs(a), initial=0.0)), 1e-300)
    return f"max relative difference {float(np.max(np.abs(a - b), initial=0.0)) / scale:.3e}"


def _max_rel_diff(a_path: str, b_path: str) -> str:
    a, b = (np.fromfile(path, dtype="<f4").astype(np.float64) for path in (a_path, b_path))
    return _rel_diff(a, b)


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
            a, b = (os.path.join(d, _out_dir(argv), name) for d in (base_dir, head_dir))
            if name == "manifest.json":
                changes = _json_changes(_read_json(a), _read_json(b)) or ["differs"]
                problems += [f"{label}: {name} {change}" for change in changes]
            elif name.endswith(".f32"):
                problems.append(f"{label}: {name} differs, {_max_rel_diff(a, b)}")
            else:
                problems.append(f"{label}: {name} differs")
    return problems


def _read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _json_changes(base, head, path: str = "") -> list:
    """``{path} only in the commit``, ``... only in the working tree`` or ``{path} differs``
    for each dotted path below which two JSON values differ; a list is one value."""
    if not (isinstance(base, dict) and isinstance(head, dict)):
        same = json.dumps(base, sort_keys=True) == json.dumps(head, sort_keys=True)
        return [] if same else [f"{path} differs"]
    changes = []
    for key in sorted(base.keys() | head.keys()):
        sub = f"{path}.{key}" if path else key
        if key not in head or key not in base:
            changes.append(f"{sub} only in the {'commit' if key in base else 'working tree'}")
        else:
            changes += _json_changes(base[key], head[key], sub)
    return changes


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


def report_library(base: dict, head: dict, expect=()) -> tuple:
    """``(expected, problems)``: a line per library result that differs or exists in one tree.

    A line is labelled ``selftest`` for an operator case and ``library``
    otherwise; it is expected when ``expect`` holds its label.
    """
    expected, problems = [], []
    for name in sorted(set(base) | set(head)):
        if name not in base or name not in head:
            line = f"{name} only in the {'commit' if name in base else 'working tree'}"
        elif base[name].dtype != head[name].dtype or base[name].tobytes() != head[name].tobytes():
            line = f"{name} differs, {_rel_diff(base[name], head[name])}"
        else:
            continue
        label = "selftest" if name.startswith("operator ") else "library"
        (expected if label in expect else problems).append(f"{label}: {line}")
    return expected, problems


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(prog="python tools/parity.py")
    parser.add_argument("commit")
    parser.add_argument(
        "--expect",
        default="",
        help="comma-separated out-dirs, subcommands or 'library' that may change",
    )
    args = parser.parse_args(argv)
    calls = matrix()
    expect = {label for label in args.expect.split(",") if label}
    unknown = expect - {_label(argv) for argv in calls} - {"library"}
    if unknown:
        parser.error(f"--expect names no call: {', '.join(sorted(unknown))}")
    with tempfile.TemporaryDirectory(prefix="reconkit-parity-") as tmp:
        tree = os.path.join(tmp, "tree")
        os.makedirs(tree)
        archive = subprocess.run(
            ["git", "-C", REPO, "archive", args.commit, "src"], check=True, capture_output=True
        )
        subprocess.run(["tar", "-x", "-C", tree], input=archive.stdout, check=True)
        srcs = os.path.join(tree, "src"), os.path.join(REPO, "src")
        base_dir, head_dir = os.path.join(tmp, "commit"), os.path.join(tmp, "working")
        base = run_tree(calls, srcs[0], base_dir)
        head = run_tree(calls, srcs[1], head_dir)
        expected, problems = report(calls, base, head, base_dir, head_dir, expect)
        (base_lib, base_err), (head_lib, head_err) = map(run_library, srcs, (base_dir, head_dir))
    for side, error in (("commit", base_err), ("working tree", head_err)):
        if error:
            problems.append(f"library: failed in the {side}: {error}")
    if not (base_err or head_err):
        lib_expected, lib_problems = report_library(base_lib, head_lib, expect)
        expected += lib_expected
        problems += lib_problems
    files = sum(len(h[3]) for h in head)
    for line in expected:
        print(f"parity: expected: {line}")
    for line in problems:
        print(f"parity: {line}")
    verdict = f"{len(problems)} difference(s)" if problems else "identical"
    if expect:
        verdict += f" outside the {len(expect)} expected call(s)"
    print(
        f"parity: {len(head)} calls, {files} files and {len(head_lib)} library results"
        f" against {args.commit}: {verdict}"
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
