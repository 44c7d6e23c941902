"""Tests of the benchmark itself: metric names, tracing, counts and run.py's result line."""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")
for path in (SRC, ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

import reconkit  # noqa: E402
import reconkit.cli  # noqa: E402
from reconkit.operators import LinearMap  # noqa: E402

from bench.metrics import END_TO_END, PER_LAYER, layer_metrics, rep_layer_metrics  # noqa: E402
from bench.run import result_payload  # noqa: E402
from bench.tracing import Tracer, installed  # noqa: E402
from bench.worker import Runner, load_cli  # noqa: E402
from bench.workloads import WORKLOADS, warm_up  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metric_names_are_safe_and_carry_units():
    names = [name for name, _, _ in END_TO_END + PER_LAYER]
    assert len(names) == len(set(names))
    for name, unit, better in END_TO_END + PER_LAYER:
        assert NAME.match(name), name
        assert UNIT.match(unit), (name, unit)
        assert better in ("higher", "lower"), name


def test_benchmark_json_matches_the_metric_lists():
    spec = _benchmark_json()
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert spec["command"] == ["python3", "bench/run.py"]


def _bindings():
    modules = [
        m for n, m in sorted(sys.modules.items()) if n == "reconkit" or n.startswith("reconkit.")
    ]
    table = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    table[("LinearMap", "apply")] = LinearMap.__dict__["apply"]
    table[("LinearMap", "adjoint")] = LinearMap.__dict__["adjoint"]
    return table


def test_wrappers_restore_the_originals():
    before = _bindings()
    original_admm = reconkit.cli.admm
    with pytest.raises(RuntimeError):
        with installed(Tracer()):
            assert reconkit.cli.admm is not original_admm
            prox = before[("reconkit.variational", "prox_apply")]
            assert reconkit.variational.prox_apply is not prox
            assert LinearMap.__dict__["apply"] is not before[("LinearMap", "apply")]
            raise RuntimeError("leave the block early")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_apply_counts_match_a_hand_count_on_the_nullspace_demo():
    tracer = Tracer()
    with installed(tracer):
        report = reconkit.variational.nullspace_demo()
    names = [span[2] for span in tracer.spans]
    iters = [rep.iterations for rep in report.reports]
    # per CG solve of k iterations: adjoint of the data, one normal apply for
    # the initial residual, then per iteration one normal apply (apply and
    # adjoint) and one objective evaluation (apply)
    assert names.count("operators.matrix.apply") == sum(1 + 2 * k for k in iters)
    assert names.count("operators.matrix.adjoint") == sum(2 + k for k in iters)
    assert [(kind, n) for _, kind, n, _ in tracer.solves] == [("cg", k) for k in iters]
    metrics = rep_layer_metrics(tracer, 1.0)
    assert metrics["variational.cg.calls"] == 3
    per_solve = sum(3 + 3 * k for k in iters) / 3
    assert metrics["variational.applies_per_solve"] == pytest.approx(per_solve)
    assert metrics["variational.objective_value.calls"] == sum(iters)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_workload_runs_every_path(name, tmp_path):
    cli = load_cli(SRC)
    runner = Runner(cli, WORKLOADS[name], 0, str(tmp_path / "work"), tiny=True)
    warm_up(WORKLOADS[name].setup(cli, runner.calls[0].argv))
    runner.rep()
    tracer = Tracer()
    wall, stolen, cpu, written = runner.rep(tracer)
    assert runner.failed == 0, runner.problems
    assert runner.attempted == 2 * len(runner.calls)
    rep = rep_layer_metrics(tracer, wall)
    assert rep["trace.self_s"] + rep["trace.untraced_s"] == pytest.approx(wall)
    assert rep["trace.untraced_s"] >= 0.0
    radon_calls = rep["operators.radon.apply_calls"] + rep["operators.radon.adjoint_calls"]
    assert (radon_calls > 0) == (name == "fewview_tomo")
    assert rep["variational.applies_per_solve"] > 0
    walls = [wall - stolen]
    metrics = layer_metrics([rep], walls, walls, walls, [cpu], written / 1e6)
    assert list(metrics) == [n for n, _, _ in PER_LAYER]


def _run_bench(args, cwd):
    proc = subprocess.run(
        [sys.executable, "bench/run.py"] + args,
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("names", [END_TO_END, PER_LAYER], ids=["trace0", "trace1"])
@pytest.mark.parametrize("failed", [0, 1])
def test_result_payload_has_the_contract_keys(names, failed):
    metrics = {name: 0.5 + i for i, (name, _, _) in enumerate(names)}
    metrics["not_declared"] = 1.0
    result = json.loads(json.dumps(result_payload(metrics, names, 5, failed)))
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is (failed == 0)
    assert (result["attempted"], result["failed"]) == (5, failed)
    got = [(name, m["value"], m["unit"]) for name, m in result["metrics"].items()]
    assert got == [(name, metrics[name], unit) for name, unit, _ in names]


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench", ignore=ignore)
    code, lines = _run_bench(["--workload", "deblur_sweep", "--seconds", "1"], str(tmp_path))
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
