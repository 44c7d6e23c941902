"""Metric names, units and better-directions, and the per-layer reduction of spans.

``END_TO_END`` and ``PER_LAYER`` are the lists BENCHMARK.json declares; the
bench's tests keep the two in step.  Per-layer values are per traced
repetition of a workload.
"""

from __future__ import annotations

import statistics

from .tracing import Tracer
from .workloads import radon_stencil_mb

END_TO_END = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("snr_db", "dB", "higher"),
]

OPERATOR_KINDS = ("convolve_circular", "mask", "grad", "radon", "mask_convolve_circular")
SOLVE_KINDS = ("cg", "gd", "ista", "fista", "admm")


def _per_layer_specs():
    specs = []
    for kind in OPERATOR_KINDS:
        p = f"operators.{kind}"
        specs += [
            (f"{p}.apply_calls", "count", "lower"),
            (f"{p}.adjoint_calls", "count", "lower"),
            (f"{p}.apply_us", "us", "lower"),
            (f"{p}.adjoint_us", "us", "lower"),
            (f"{p}.self_share", "fraction", "lower"),
            (f"{p}.mb_per_call", "MB-computed", "lower"),
        ]
    specs += [
        ("operators.compose.self_us", "us", "lower"),
        ("operators.radon.first_apply_s", "s", "lower"),
        ("operators.radon.stencil_mb", "MB-computed", "lower"),
    ]
    for solver in SOLVE_KINDS:
        specs += [
            (f"variational.{solver}.calls", "count", "lower"),
            (f"variational.{solver}.s_per_call", "s", "lower"),
            (f"variational.{solver}.iterations", "count", "lower"),
        ]
    specs += [
        ("variational.converged_frac", "fraction", "higher"),
        ("variational.applies_per_solve", "count", "lower"),
        ("variational.admm.applies_per_iter", "count", "lower"),
        ("variational.objective_value.calls", "count", "lower"),
        ("variational.objective_value.us", "us", "lower"),
        ("variational.prox_apply.calls", "count", "lower"),
        ("variational.prox_apply.us", "us", "lower"),
        ("variational.lambda_sweep.solves", "count", "lower"),
        ("direct.fbp.s", "s", "lower"),
        ("phantoms.shepp_logan.s", "s", "lower"),
        ("phantoms.degrade.s", "s", "lower"),
        ("phantoms.analytic_sinogram.s", "s", "lower"),
        ("grids.normal_stream.s", "s", "lower"),
        ("grids.uniform_stream.s", "s", "lower"),
    ]
    for fn in ("write_raster", "read_raster", "write_pgm"):
        specs += [(f"io.{fn}.calls", "count", "lower"), (f"io.{fn}.s", "s", "lower")]
    specs += [
        ("io.bytes_written_mb", "MB", "lower"),
        ("cli.self_s", "s", "lower"),
        ("proc.cpu_s", "s", "lower"),
        ("proc.wall_unscaled_s", "s", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.self_s", "s", "lower"),
        ("trace.untraced_s", "s", "lower"),
        ("trace.overhead_frac", "fraction", "lower"),
    ]
    return specs


PER_LAYER = _per_layer_specs()


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def rep_layer_metrics(tracer: Tracer, wall_s: float) -> dict:
    """Per-layer values of one traced repetition whose CLI calls took ``wall_s``."""
    spans = tracer.spans
    by_id = {s[0]: s for s in spans}
    by_name = {}
    for s in spans:
        by_name.setdefault(s[2], []).append(s)
    total_self = sum(s[5] for s in spans)
    out = {}

    def durations(name, skip_first=False):
        rows = by_name.get(name, [])
        if skip_first:
            steady = [s for s in rows if s[0] not in tracer.first_calls]
            rows = steady or rows
        return [(s[4] - s[3]) / 1e9 for s in rows]

    def inclusive_s(name):
        return sum(durations(name))

    for kind in OPERATOR_KINDS:
        p = f"operators.{kind}"
        for side in ("apply", "adjoint"):
            out[f"{p}.{side}_calls"] = len(by_name.get(f"{p}.{side}", []))
            out[f"{p}.{side}_us"] = _mean(durations(f"{p}.{side}", skip_first=True)) * 1e6
        own = sum(s[5] for side in ("apply", "adjoint") for s in by_name.get(f"{p}.{side}", []))
        out[f"{p}.self_share"] = own / total_self if total_self else 0.0
        out[f"{p}.mb_per_call"] = tracer.operator_bytes.get(kind, 0) / 1e6

    composite = [
        s for kind in tracer.composite_kinds for side in ("apply", "adjoint")
        for s in by_name.get(f"operators.{kind}.{side}", [])
    ]
    out["operators.compose.self_us"] = (
        sum(s[5] for s in composite) / len(composite) / 1e3 if composite else 0.0
    )
    firsts = [(s[4] - s[3]) / 1e9 for s in spans if s[0] in tracer.first_calls
              and s[2].startswith("operators.radon.")]
    out["operators.radon.first_apply_s"] = _mean(firsts)
    out["operators.radon.stencil_mb"] = max(
        (radon_stencil_mb(*g) for g in tracer.radon_geometries), default=0.0
    )

    # variational: solver calls, their iterations, and the operator calls under them
    solver_ids = {sid: kind for sid, kind, _, _ in tracer.solves}

    def ancestors(span):
        parent = span[1]
        while parent:
            yield parent
            parent = by_id[parent][1]

    applies = {sid: 0 for sid in solver_ids}
    for s in spans:
        if not s[2].startswith("operators.") or not s[2].endswith((".apply", ".adjoint")):
            continue
        parent = by_id.get(s[1])
        if parent is not None and parent[2].startswith("operators."):
            continue  # inner call of a composite operator
        for anc in ancestors(s):
            if anc in applies:
                applies[anc] += 1
                break

    for solver in SOLVE_KINDS:
        runs = [r for r in tracer.solves if r[1] == solver]
        out[f"variational.{solver}.calls"] = len(runs)
        out[f"variational.{solver}.s_per_call"] = _mean(
            [(by_id[r[0]][4] - by_id[r[0]][3]) / 1e9 for r in runs]
        )
        out[f"variational.{solver}.iterations"] = _mean([r[2] for r in runs])
    solves = tracer.solves
    out["variational.converged_frac"] = _mean([1.0 if r[3] else 0.0 for r in solves])
    out["variational.applies_per_solve"] = _mean(list(applies.values()))
    admm = [r for r in solves if r[1] == "admm"]
    admm_iters = sum(r[2] for r in admm)
    out["variational.admm.applies_per_iter"] = (
        sum(applies[r[0]] for r in admm) / admm_iters if admm_iters else 0.0
    )
    for fn in ("objective_value", "prox_apply"):
        name = f"variational.{fn}"
        out[f"{name}.calls"] = len(by_name.get(name, []))
        out[f"{name}.us"] = _mean(durations(name)) * 1e6
    sweep_roots = set()
    for s in by_name.get("variational.lambda_sweep", []):
        sweep_roots.update(a for a in ancestors(s) if by_id[a][1] == 0)
    out["variational.lambda_sweep.solves"] = sum(
        1 for sid in solver_ids if any(a in sweep_roots for a in ancestors(by_id[sid]))
    )

    out["direct.fbp.s"] = inclusive_s("direct.fbp")
    for name in ("phantoms.shepp_logan", "phantoms.degrade", "phantoms.analytic_sinogram",
                 "grids.normal_stream", "grids.uniform_stream"):
        out[f"{name}.s"] = inclusive_s(name)
    for fn in ("write_raster", "read_raster", "write_pgm"):
        out[f"io.{fn}.calls"] = len(by_name.get(f"io.{fn}", []))
        out[f"io.{fn}.s"] = inclusive_s(f"io.{fn}")
    out["cli.self_s"] = sum(s[5] for s in spans if s[2].startswith("cli.")) / 1e9
    out["trace.wall_s"] = wall_s
    out["trace.self_s"] = total_self / 1e9
    out["trace.untraced_s"] = wall_s - total_self / 1e9
    return out


def layer_metrics(
    reps: list,
    traced_walls: list,
    untraced_walls: list,
    unscaled_walls: list,
    cpu_s: list,
    bytes_written_mb: float,
) -> dict:
    """Mean of the per-rep values, plus run-level figures; every PER_LAYER name.

    The overhead compares rescaled, steal-corrected wall times of the traced
    and the untraced repetitions.  ``unscaled_walls`` are the untraced
    repetitions' steal-corrected wall times before rescaling.
    """
    out = {name: _mean([r[name] for r in reps]) for name in reps[0]}
    traced, untraced = statistics.median(traced_walls), statistics.median(untraced_walls)
    out["trace.overhead_frac"] = traced / untraced - 1.0
    out["proc.cpu_s"] = statistics.median(cpu_s)
    out["proc.wall_unscaled_s"] = statistics.median(unscaled_walls)
    out["io.bytes_written_mb"] = bytes_written_mb
    missing = [name for name, _, _ in PER_LAYER if name not in out]
    if missing:
        raise RuntimeError(f"per-layer metrics not computed: {missing}")
    return {name: out[name] for name, _, _ in PER_LAYER}

