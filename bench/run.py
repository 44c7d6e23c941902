"""Run one benchmark workload of the reconkit CLI and print its metrics.

    python3 bench/run.py --workload deblur_sweep --seed 0 --seconds 35 --trace 0

Run from the repository root (any checkout holding ``src/reconkit``).  With
``--trace 0`` it prints the end-to-end metrics: the median wall time of the
workload's CLI calls, the median set-up time over several fresh workers, the
measuring worker's peak RSS and the mean SNR of the checked reconstructions.
With ``--trace 1`` it prints the per-layer metrics of a traced run instead.
Every CLI call's outputs are checked; a failed call counts in ``failed``.
The last stdout line is one JSON object: correct, attempted, failed, metrics.
See bench/README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from bench.metrics import END_TO_END, PER_LAYER  # noqa: E402
from bench.workloads import HELD_OUT_SEED, WORKLOADS  # noqa: E402

SETUP_WORKERS = 5  # fresh set-up-only workers per run, besides the measuring one
TIME_LIMIT_S = 170.0  # the whole run ends well inside three minutes
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
OUT_DIR = os.path.join(ROOT, ".bench_out")


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"  # single-threaded BLAS and FFT helpers, as the workloads assume
    return env


def spawn(mode, args, out, deadline) -> dict:
    """Run one fresh worker to completion; returns its JSON result."""
    cmd = [sys.executable, "-m", "bench.worker", mode, args.workload, str(args.seed),
           str(args.seconds), out]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerError("no time left for another worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} worker ran out of time")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def git_sha() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        path = os.path.join(ROOT, ".git", ref[5:])
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + ref[5:]):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict:
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(index, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(index, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return caches


def provenance(args, numpy_version) -> dict:
    workload = WORKLOADS[args.workload]
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "caches_per_core": _caches(),
        "thread_env": {var: "1" for var in THREAD_VARS},
        "working_set_mb_computed": workload.working_set_mb,
        "seed": args.seed,
        "seed_used_by_workload": workload.uses_seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time per run (BENCHMARK.json: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    return parser.parse_args(argv)


def result_payload(metrics: dict, names: list, attempted: int, failed: int) -> dict:
    """The result line: correct, attempted, failed, and each of ``names``
    (``(name, unit, better)`` triples) with its value and unit."""
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in names},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "reconkit", "__init__.py")):
        print(f"bench: no reconkit sources under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    out = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(out, exist_ok=True)
    try:
        if args.trace:
            result = spawn("trace", args, out, deadline)
            metrics = result["per_layer"]
            names = PER_LAYER
        else:
            workers = [spawn("setup", args, out, deadline) for _ in range(SETUP_WORKERS)]
            result = spawn("measure", args, out, deadline)
            workers.append(result)
            setups = [w["setup_s"] for w in workers]
            unscaled_setups = [w["setup_unscaled_s"] for w in workers]
            wall_unscaled_s = statistics.median(result["unscaled_walls"])
            setup_unscaled_s = statistics.median(unscaled_setups)
            metrics = {
                "wall_s": statistics.median(result["walls"]),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": result["peak_rss_mb"],
                "snr_db": result["snr_db"],
            }
            names = END_TO_END
    except WorkerError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    walls = result["walls"]
    print(f"bench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(walls)} untraced repetitions, {attempted} CLI calls")
    if not args.trace:
        print(f"  wall_s      {metrics['wall_s']:.4f} s   median of {len(walls)} repetitions "
              f"(min {min(walls):.4f}, max {max(walls):.4f}), rescaled by the median speed "
              f"scale {statistics.median(result['scales']):.3f}")
        print(f"  wall_unscaled_s {wall_unscaled_s:.4f} s   the same median before rescaling "
              f"(as measured {statistics.median(result['raw_walls']):.4f} s, less steal "
              f"{statistics.median(result['stolen']):.4f} s)")
        print(f"  setup_s     {metrics['setup_s']:.4f} s   median of {len(setups)} fresh workers "
              f"(min {min(setups):.4f}, max {max(setups):.4f})")
        print(f"  setup_unscaled_s {setup_unscaled_s:.4f} s   the same median before rescaling")
        print(f"  peak_rss_mb {metrics['peak_rss_mb']:.1f} MB")
        print(f"  snr_db      {metrics['snr_db']:.4f} dB  mean of {result['reconstructions']} "
              "reconstructions")
    else:
        print(f"  traced repetitions: {result['traced_reps']}; "
              f"spans of the last in {result['spans']}")
        for name, unit, _ in PER_LAYER:
            print(f"  {name} {metrics[name]:.6g} {unit}")
    print(f"  failed_frac {failed / attempted:.4f}   ({failed} of {attempted} CLI calls; "
          f"reference values {'checked' if result['reference'] else 'not recorded for this seed'})")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    prov = provenance(args, result.get("numpy"))
    print("provenance " + json.dumps(prov, sort_keys=True))

    payload = result_payload(metrics, names, attempted, failed)
    with open(os.path.join(out, "result.json"), "w") as fh:
        keys = ("problems", "raw_walls", "unscaled_walls", "stolen", "scales")
        details = {key: result[key] for key in keys}
        details.update(provenance=prov, walls=walls, setups=None if args.trace else setups)
        if not args.trace:
            details.update(wall_unscaled_s=wall_unscaled_s, setup_unscaled_s=setup_unscaled_s)
        json.dump(dict(payload, **details), fh, indent=2)
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
