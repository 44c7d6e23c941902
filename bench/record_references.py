"""Record the reference output values the benchmark checks every run against.

    PYTHONPATH=src python3 bench/record_references.py --seeds 0-31,7919

Run from the repository root, on the commit whose outputs are the reference.
Each workload's CLI calls run once per seed, untimed, and the values their
output CSVs report (SNRs) are merged into bench/references.json under the
workload name and the seed ("any" for a workload that ignores the seed).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from bench.run import git_sha  # noqa: E402
from bench.worker import REFERENCES, load_cli  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402


def _seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def record(cli, workload, seed: int, out: str) -> dict:
    shutil.rmtree(out, ignore_errors=True)
    values = {}
    for call in workload.calls(seed, out, False):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(call.argv)
        if code != 0:
            raise SystemExit(f"{workload.name} seed {seed}: {call.label} exited {code}")
        values[call.label], _, problems = call.read(call.out)
        if problems:
            raise SystemExit(f"{workload.name} seed {seed}: {call.label}: {problems}")
    shutil.rmtree(out, ignore_errors=True)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="0-31,7919", help="e.g. 0-31,7919")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    cli = load_cli(os.path.join(ROOT, "src"))
    table = {}
    if os.path.exists(REFERENCES):
        with open(REFERENCES) as fh:
            table = json.load(fh)
    out = os.path.join(ROOT, ".bench_out", "references")
    for name in args.workload or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        rows = table.setdefault(name, {})
        for seed in _seeds(args.seeds) if workload.uses_seed else [0]:
            rows["any" if not workload.uses_seed else str(seed)] = record(cli, workload, seed, out)
            print(f"{name} seed {seed}: recorded", flush=True)
    table["recorded_at"] = git_sha()
    with open(REFERENCES, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
