"""One benchmark worker process: set-up, then repetitions of a workload.

    python3 -m bench.worker <setup|measure|trace> <workload> <seed> <seconds> <out dir>

Run from the repository root with ``src`` on PYTHONPATH.  The worker pins
itself to one vCPU and subtracts that vCPU's steal time (time the hypervisor
ran something else) from every wall time it reports, then rescales it to a
reference machine speed that ``bench.calibrate`` measures around it.  The
set-up clock starts before numpy and reconkit are imported, so
``bench.calibrate`` (which imports numpy) is imported only after it.  ``measure``
repeats the workload's CLI calls until ``seconds`` would be exceeded;
``trace`` alternates untraced and traced repetitions.  The last stdout line is one JSON object.
"""

import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

from .metrics import layer_metrics, rep_layer_metrics
from .tracing import Tracer, installed
from .workloads import WORKLOADS, check_call, output_digests, warm_up

MIN_REPS = 2  # timed repetitions at least: a traced run needs one untraced and one traced
REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")


def pin_to_one_cpu():
    """Pin this process to one vCPU, so that vCPU's steal counter is its own."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        return cpu
    except (AttributeError, OSError):
        return None


def stolen_s(cpu) -> float:
    """Seconds the hypervisor has kept vCPU ``cpu`` from running (/proc/stat
    "steal"); 0 when no CPU is pinned or the kernel does not report it."""
    if cpu is None:
        return 0.0
    try:
        with open("/proc/stat") as fh:
            for line in fh:
                if line.startswith(f"cpu{cpu} "):
                    fields = line.split()
                    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0
    except OSError:
        pass
    return 0.0


def calibration_s(calibrator, cpu) -> float:
    """Steal-corrected seconds of one calibration run right now."""
    stolen = stolen_s(cpu)
    start = time.perf_counter()
    calibrator.run()
    return time.perf_counter() - start - (stolen_s(cpu) - stolen)


def load_cli(src: str):
    """Import reconkit from ``src`` only; an installed copy would be measured otherwise."""
    import reconkit
    import reconkit.cli

    where = os.path.dirname(os.path.abspath(reconkit.__file__))
    if os.path.dirname(where) != os.path.abspath(src):
        raise SystemExit(f"reconkit was imported from {where}, not from {src}")
    return reconkit.cli


def references(workload, seed: int, tiny: bool):
    """Per-call reference values recorded from the seed commit, or None."""
    if tiny or not os.path.exists(REFERENCES):
        return None
    with open(REFERENCES) as fh:
        table = json.load(fh).get(workload.name, {})
    return table.get(str(seed) if workload.uses_seed else "any")


class Runner:
    """Runs repetitions of one workload and checks every call's outputs.

    ``tiny`` runs the workload at smoke-test sizes, where the references and
    acceptance-gate conditions do not apply; the benchmark's tests use it.
    """

    def __init__(self, cli, workload, seed, out, cpu=None, tiny=False):
        self.cli = cli
        self.cpu = cpu
        self.calls = workload.calls(seed, out, tiny)
        self.out = out
        self.gates = not tiny
        self.refs = references(workload, seed, tiny)
        self.first_digests = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.snrs = []

    def _invoke(self, argv):
        """One CLI call; returns (wall s, stolen s, exit code or error text)."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            stolen = stolen_s(self.cpu)
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                code = "exception: " + traceback.format_exc(limit=3)
            wall = time.perf_counter() - start
            return wall, stolen_s(self.cpu) - stolen, code

    def rep(self, tracer=None):
        """One repetition; returns (wall s and stolen s of the CLI calls, CPU s, bytes written)."""
        shutil.rmtree(self.out, ignore_errors=True)
        os.makedirs(self.out)
        cpu = time.process_time()
        codes = []
        wall = stolen = 0.0
        with installed(tracer) if tracer else contextlib.nullcontext():
            for call in self.calls:
                dt, lost, code = self._invoke(call.argv)
                wall += dt
                stolen += lost
                codes.append(code)
        cpu = time.process_time() - cpu
        snrs = []
        for call, code in zip(self.calls, codes):
            ref = None if self.refs is None else self.refs.get(call.label)
            _, call_snrs, problems = check_call(
                call, code if isinstance(code, int) else 1, ref, self.gates
            )
            if not isinstance(code, int):
                problems.append(f"{call.label}: {code}")
            if code == 0:
                digests = output_digests(call.out)
                first = self.first_digests.setdefault(call.label, digests)
                if digests != first:
                    problems.append(f"{call.label}: outputs differ from the first repetition")
            snrs += call_snrs
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems += [p for p in problems if p not in self.problems]
        self.snrs = snrs
        written = sum(
            os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(self.out) for f in files
        )
        return wall, stolen, cpu, written


def _loop(runner, start, seconds, traced_every, calibrator):
    """Repeat until another repetition would end more than ``seconds`` after
    ``start``.  Calibration runs bracket every repetition; the mean of the
    two before and after it gives its speed scale."""
    from .calibrate import REFERENCE_S

    reps, lengths = [], []
    before = calibration_s(calibrator, runner.cpu)
    while True:
        t = time.perf_counter()
        traced = traced_every and len(reps) % 2 == 1
        tracer = Tracer() if traced else None
        wall, stolen, cpu, written = runner.rep(tracer)
        after = calibration_s(calibrator, runner.cpu)
        scale = REFERENCE_S / ((before + after) / 2)
        before = after
        rep = {
            "wall_s": wall,
            "unscaled_s": wall - stolen,
            "scaled_s": (wall - stolen) * scale,
            "stolen_s": stolen,
            "scale": scale,
            "cpu_s": cpu,
            "bytes": written,
            "tracer": tracer,
        }
        if tracer is not None:
            rep["layers"] = rep_layer_metrics(tracer, wall)
            if len(reps) > 2:
                reps[-2]["tracer"] = None  # only the last traced repetition's spans are written
        reps.append(rep)
        lengths.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - start
        if len(reps) >= MIN_REPS and elapsed + statistics.median(lengths) > seconds:
            return reps


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    mode, name, seed, seconds, out = args[0], args[1], int(args[2]), float(args[3]), args[4]
    workload = WORKLOADS[name]
    work = os.path.join(out, "work")

    cpu = pin_to_one_cpu()
    start, stolen = time.perf_counter(), stolen_s(cpu)
    cli = load_cli(os.path.join(os.getcwd(), "src"))
    warm_up(workload.setup(cli, workload.calls(seed, work, False)[0].argv))
    setup = time.perf_counter() - start - (stolen_s(cpu) - stolen)

    from .calibrate import REFERENCE_S, Calibrator

    if mode == "setup":
        scale = REFERENCE_S / calibration_s(Calibrator(), cpu)
        print(json.dumps({"setup_s": setup * scale, "setup_unscaled_s": setup}))
        return 0

    import numpy

    runner = Runner(cli, workload, seed, work, cpu)
    start = time.perf_counter()
    # An untimed first repetition fills caches, records the outputs later
    # repetitions must match, and sets peak RSS before the calibration
    # kernel first runs.
    runner.rep()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    calibrator = Calibrator()
    scale = REFERENCE_S / calibration_s(calibrator, cpu)
    result = {"setup_s": setup * scale, "setup_unscaled_s": setup}
    reps = _loop(runner, start, seconds, mode == "trace", calibrator)
    plain = [r for r in reps if "layers" not in r]
    traced = [r for r in reps if "layers" in r]
    result.update(
        numpy=numpy.__version__,
        peak_rss_mb=peak_rss_mb,
        walls=[r["scaled_s"] for r in plain],
        raw_walls=[r["wall_s"] for r in plain],
        unscaled_walls=[r["unscaled_s"] for r in plain],
        stolen=[r["stolen_s"] for r in plain],
        scales=[r["scale"] for r in plain],
        snr_db=statistics.fmean(runner.snrs) if runner.snrs else 0.0,
        reconstructions=len(runner.snrs),
        attempted=runner.attempted,
        failed=runner.failed,
        problems=runner.problems[:20],
        reference=runner.refs is not None,
    )
    if traced:
        result["traced_reps"] = len(traced)
        result["per_layer"] = layer_metrics(
            [r["layers"] for r in traced],
            [r["scaled_s"] for r in traced],
            [r["scaled_s"] for r in plain],
            [r["unscaled_s"] for r in plain],
            [r["cpu_s"] for r in plain],
            traced[-1]["bytes"] / 1e6,
        )
        spans = os.path.join(out, "spans.jsonl")
        traced[-1]["tracer"].write(spans)
        result["spans"] = spans
    shutil.rmtree(runner.out, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
