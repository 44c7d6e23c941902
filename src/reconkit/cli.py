"""Command-line entry point: one binary with experiment subcommands.

Configuration lives in a JSON file (nested key/value sections); any flag
given on the command line overrides the corresponding config value.  One pass
builds the config: ``_section`` walks its dataclasses, rejecting an unknown
field by name, and ``_leaf`` reads each leaf, given or default, once, so a
wrong type and a broken rule both read ``{path} {text}``.  Every command
echoes its effective configuration, the seeds it used, and the package
version into ``manifest.json`` in the output directory, and writes canonical
float rasters (see ``reconkit.io``) next to PGM previews and CSV metric tables.

Each choice is declared once, and the parser, the config reader and the
commands read it there: each config leaf's rule beside its default (``_key``),
``_COMMANDS`` (subcommand -> help and its flags beyond
``--config``/``--out``/``--seed``; the handler of ``a-b`` is ``cmd_a_b``),
``_FLAGS`` (flag -> the config path it overrides, or ``None`` for a flag the
command reads itself, and its help or choices; its type is the annotation of
that path), and ``_SOLVERS``, ``_BLURS`` and ``_TRANSFORM_KINDS`` (the kinds
behind ``--solver``, ``--blur`` and ``--transform``).  ``_write_outputs``
writes every command's files.

Exit codes: 0 on success, 2 for a ``ValidationError`` (a malformed
configuration, or input data that is missing or does not fit together), 3 for
a ``DivergenceError``, a numerical failure (a diagnostic trace is written to
the output directory and its path printed).

Seeds: ``--seed`` sets the experiment seed (default 0).  Component streams
derive from it as seed * 1000 + {1: mask, 2: noise, 3: power iteration}.
"""

import argparse
import dataclasses
import functools
import json
import os
import pathlib
import sys
import types
import typing
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .direct import fbp
from .errors import DivergenceError, ValidationError
from .grids import _FRACTION, _NONNEGATIVE, _POSITIVE, _number, _raster, normal_stream
from .io import _beyond_f32, read_raster, write_csv, write_manifest, write_pgm, write_raster
from .operators import (
    LinearMap,
    RadonGeometry,
    dot_test,
    embed_kernel,
    fourier_slice_check,
    normal_test,
    op_compose,
    op_convolve,
    op_dft2,
    op_grad,
    op_mask,
    op_multiply,
    op_radon,
    random_mask,
)
from .phantoms import (
    SHEPP_LOGAN,
    _TRANSFORMS,
    airy_psf,
    analytic_sinogram,
    compressibility_study,
    gaussian_kernel,
    shepp_logan,
    snr_db,
)
from .variational import (
    Objective,
    SolveReport,
    admm,
    conjugate_gradient_normal,
    gradient_descent,
    ista,
    lambda_sweep,
    nullspace_demo,
    prox_apply,
)


# ---------------------------------------------------------------------------
# Configuration schema
# ---------------------------------------------------------------------------


def _key(default, rule, each=None):
    """A config leaf: its default and its rule, ``(check, text)``.

    A value of the wrong type or one that fails ``check`` reads as the leaf's
    path and ``text`` (``{!r}`` stands for the value), so ``text`` names the
    type.  ``each`` is the rule of each entry of a list leaf, named ``path[i]``.
    A None value, which only an ``X | None`` annotation admits, is not checked.
    A real-number leaf shares its rule with the library argument it feeds.
    """
    metadata = {"rule": rule, "each": each}
    if isinstance(default, list):
        return field(default_factory=lambda: list(default), metadata=metadata)
    return field(default=default, metadata=metadata)


# the largest seed whose stream seeds, seed * 1000 + {1, 2, 3}, stay below 2**64
_SEED_MAX = (2**64 - 4) // 1000
_TRANSFORM_KINDS = (*_TRANSFORMS, "all")  # "all" runs each of phantoms._TRANSFORMS

_UNSUPPORTED = "{!r} is not supported"
_OUT_DIR = "must name a directory, not {!r}"
# sigma divides by 10 ** (snr / 10), which overflows or reaches 0 past about 3000 dB
_SNR_DB = (lambda v: -300 <= v <= 300, "must lie in [-300, 300] dB")


def _can_be_directory(path: str) -> bool:
    """Not empty, and neither ``path`` nor an ancestor of it is a regular file."""
    p = pathlib.PurePath(path)
    return path != "" and not any(os.path.isfile(a) for a in (p, *p.parents))


@dataclass
class PhantomConfig:
    size: int = _key(128, (lambda v: v >= 32, "must be an integer >= 32"))


@dataclass
class DegradationConfig:
    blur: str = _key("gaussian", (lambda v: v in _BLURS, _UNSUPPORTED))
    mask_fraction: float = _key(0.5, _FRACTION)
    noise_snr_db: float | None = _key(20.0, _SNR_DB)
    noise_sigma: float | None = _key(None, _NONNEGATIVE)  # when set, wins over noise_snr_db


@dataclass
class GeometryConfig:
    n_angles: int = _key(30, (lambda v: v >= 1, "must be an integer >= 1"))
    # defaults to the image size
    n_detectors: int | None = _key(None, (lambda v: v >= 1, "must be an integer >= 1 when given"))
    detector_pitch: float = _key(1.0, _POSITIVE)


@dataclass
class SolverConfig:
    kind: str = _key("cg_tikhonov", (lambda v: v in _SOLVERS, _UNSUPPORTED))
    lam: float = _key(0.1, _NONNEGATIVE)
    lambdas: list[float] | None = _key(
        None, (len, "must be a list of at least one weight"), each=_NONNEGATIVE
    )
    rho: float = _key(1.0, _POSITIVE)
    max_iter: int = _key(200, (lambda v: v >= 0, "must be an integer >= 0"))
    tol: float = _key(1e-8, _NONNEGATIVE)
    inner_iter: int = _key(30, (lambda v: v >= 0, "must be an integer >= 0"))
    step: float | None = _key(None, _POSITIVE)  # gd only; None is the auto step 0.9 / Lip


@dataclass
class ExperimentConfig:
    phantom: PhantomConfig = field(default_factory=PhantomConfig)
    degradation: DegradationConfig = field(default_factory=DegradationConfig)
    geometry: GeometryConfig = field(default_factory=GeometryConfig)
    solver: SolverConfig = field(default_factory=SolverConfig)
    transform: str = _key("haar", (lambda v: v in _TRANSFORM_KINDS, _UNSUPPORTED))
    keep_fractions: list[float] = _key(
        [0.01, 0.05, 0.1, 0.25], (len, "must be a list of at least one fraction"), each=_FRACTION
    )
    levels: int = _key(4, (lambda v: v >= 1, "must be an integer >= 1"))
    out_dir: str = _key("out", (_can_be_directory, _OUT_DIR))
    seed: int = _key(0, (lambda v: 0 <= v <= _SEED_MAX, f"must be an integer in [0, {_SEED_MAX}]"))

    def mask_seed(self) -> int:
        return self.seed * 1000 + 1

    def noise_seed(self) -> int:
        return self.seed * 1000 + 2

    def power_seed(self) -> int:
        return self.seed * 1000 + 3


def _drop_none(typ):
    """``X`` for the annotation ``X | None`` (or ``typing.Optional[X]``), else ``typ``."""
    if typing.get_origin(typ) in (typing.Union, types.UnionType):
        (typ,) = [a for a in typing.get_args(typ) if a is not type(None)]
    return typ


def _leaf(value, typ, path: str, rule, each=None):
    """``value`` as the config leaf at ``path``, annotated ``typ``, or a ValidationError.

    A float goes through ``grids._number``, which also takes an int; any other
    value must have the annotated type (a bool is no integer) and then meet
    ``rule``.  Either failure reads ``"{path} {text}"``.  A list's entries are
    read in turn, as ``path[i]`` under ``each``.
    """
    inner = _drop_none(typ)
    if value is None and inner is not typ:
        return None
    if inner is float:
        return _number(value, path, rule)
    check, text = rule
    kind = typing.get_origin(inner) or inner
    if type(value) is not kind or not check(value):
        raise ValidationError(f"{path} {text.format(value)}")
    if kind is list:
        (entry,) = typing.get_args(inner)
        return [_leaf(v, entry, f"{path}[{i}]", each) for i, v in enumerate(value)]
    return value


def _section(cls, data, writes: bool, path: str = ""):
    """The config section ``cls`` at ``path`` from the table ``data``, each leaf read once."""
    if not isinstance(data, dict):
        raise ValidationError(f"{path or 'config'} must be a table of fields")
    prefix = path + "." if path else ""
    fields = {f.name: f for f in dataclasses.fields(cls)}
    for name in data:
        if name not in fields:
            raise ValidationError(f"unknown field {prefix}{name}")
    defaults = cls()
    values = {}
    for f in fields.values():
        key = prefix + f.name
        if dataclasses.is_dataclass(f.type):
            values[f.name] = _section(f.type, data.get(f.name, {}), writes, key)
            continue
        rule = f.metadata["rule"]
        if key == "out_dir" and not writes:  # a call that writes no file
            rule = (lambda v: True, _OUT_DIR)
        value = data.get(f.name, getattr(defaults, f.name))
        values[f.name] = _leaf(value, f.type, key, rule, f.metadata["each"])
    return cls(**values)


def _deep_merge(base: dict, patch: dict) -> dict:
    out = dict(base)
    for key, value in patch.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = value
    return out


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return dataclasses.asdict(cfg)


def config_from_dict(data: dict, writes: bool = True) -> ExperimentConfig:
    """The defaults patched by ``data``, every leaf checked; ``writes=False``,
    for a call that writes no file, leaves ``out_dir``'s rule unchecked."""
    return _section(ExperimentConfig, data, writes)


def load_config(args, base: dict | None = None, writes: bool = True) -> ExperimentConfig:
    """defaults <- command base <- config file <- explicit command-line flags.

    ``writes=False``, for a call that writes no file, leaves ``out_dir`` unchecked.
    """
    file_part: dict = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                file_part = json.load(fh)
        except FileNotFoundError:
            raise ValidationError(f"config file not found: {args.config}")
        except (OSError, UnicodeDecodeError) as exc:
            raise ValidationError(f"config file cannot be read: {args.config}: {exc}")
        except ValueError as exc:
            # a JSONDecodeError, or an integer literal beyond int()'s digit limit
            raise ValidationError(f"config file is not valid JSON: {exc}")
        if not isinstance(file_part, dict):
            raise ValidationError("config file must hold a JSON object")
    merged = _deep_merge(base or {}, file_part)
    return config_from_dict(_deep_merge(merged, _flag_patch(args)), writes)


# ---------------------------------------------------------------------------
# Shared pipeline pieces
# ---------------------------------------------------------------------------


# degradation.blur -> its 5x5 kernel builder (the identity blur is 1x1)
_BLURS = {
    "gaussian": lambda: gaussian_kernel(5, 1.0),
    "airy": lambda: airy_psf(5, 0.2),
    "none": lambda: np.array([[1.0]]),
}


def _blur_then_mask(kernel: np.ndarray, mask: np.ndarray) -> LinearMap:
    """The measurement model: circular blur by the centered ``kernel``, then the mask.

    The kernel is embedded on the mask's grid with its center at the origin,
    so the blur does not shift content.
    """
    return op_compose(op_mask(mask), op_convolve(embed_kernel(kernel, mask.shape)))


@dataclass
class _Degraded:
    """Measurements from blur + mask + noise, with the operator that made them."""

    measurements: np.ndarray
    op: LinearMap
    mask: np.ndarray
    sigma: float
    clean: np.ndarray
    measurement_snr_db: float


def _simulate(cfg: ExperimentConfig):
    """Phantom, blur, mask, and noise per the config; returns truth, kernel and data."""
    truth = shepp_logan(cfg.phantom.size)
    kernel = _BLURS[cfg.degradation.blur]()
    mask = random_mask(truth.shape, cfg.degradation.mask_fraction, cfg.mask_seed())
    op = _blur_then_mask(kernel, mask)
    clean = op.apply(truth)
    if cfg.degradation.noise_sigma is not None:
        sigma = float(cfg.degradation.noise_sigma)
    elif cfg.degradation.noise_snr_db is not None:
        # sigma hits the target expected measurement SNR: ||clean||^2 / (M sigma^2)
        power = float(np.vdot(clean, clean))
        sigma = float(
            np.sqrt(power / (clean.size * 10.0 ** (cfg.degradation.noise_snr_db / 10.0)))
        )
    else:
        sigma = 0.0
    # seeded noise over the whole grid, kept through the mask in flat order as op keeps pixels
    measurements = clean + normal_stream(mask.size, sigma, cfg.noise_seed())[mask.ravel()]
    data = _Degraded(measurements, op, mask, sigma, clean, snr_db(clean, measurements))
    return truth, kernel, data


def _write_outputs(cfg: ExperimentConfig, command: str, images=(), tables=(), extra=None):
    """Write a command's files into ``cfg.out_dir``, then its manifest.

    ``images`` holds ``(name, array)`` rasters; each 2-D one also gets a PGM
    preview and a ``windows`` entry with its display range.  ``tables`` holds
    ``(file name, header, rows)`` CSV tables.  ``extra`` adds manifest keys.
    A raster beyond float32's range is a numerical failure, raised before any
    file is written.
    """
    for name, data in images:
        if _beyond_f32(data):
            raise DivergenceError(f"{name} leaves the float32 range of its raster file")
    os.makedirs(cfg.out_dir, exist_ok=True)
    outputs: list[str] = []
    windows: dict = {}
    for name, data in images:
        base = os.path.join(cfg.out_dir, name)
        outputs += write_raster(base, data)
        if np.ndim(data) == 2:
            windows[name] = list(write_pgm(base + ".pgm", data))
            outputs.append(base + ".pgm")
    for name, header, rows in tables:
        write_csv(os.path.join(cfg.out_dir, name), header, rows)
        outputs.append(name)
    payload = {
        "command": command,
        "version": __version__,
        "config": config_to_dict(cfg),
        "seeds": {
            "seed": cfg.seed,
            "mask_seed": cfg.mask_seed(),
            "noise_seed": cfg.noise_seed(),
            "power_seed": cfg.power_seed(),
        },
        "outputs": sorted(os.path.basename(p) for p in outputs),
    }
    if windows:
        payload["windows"] = windows
    payload.update(extra or {})
    write_manifest(os.path.join(cfg.out_dir, "manifest.json"), payload)


def _cg_tikhonov(cfg: ExperimentConfig, forward, data, shape, lam: float) -> SolveReport:
    obj = Objective(forward, data, "quadratic", lam, reg_op=op_grad(shape))
    return conjugate_gradient_normal(obj, max_iter=cfg.solver.max_iter, tol=cfg.solver.tol)


def _gd(cfg: ExperimentConfig, forward, data, shape, lam: float) -> SolveReport:
    obj = Objective(forward, data, "quadratic", lam, reg_op=op_grad(shape))
    return gradient_descent(
        obj,
        step=cfg.solver.step,
        max_iter=cfg.solver.max_iter,
        tol=cfg.solver.tol,
        power_seed=cfg.power_seed(),
    )


def _ista(cfg: ExperimentConfig, forward, data, shape, lam: float, *, accelerate) -> SolveReport:
    return ista(
        Objective(forward, data, "abs", lam),
        accelerate=accelerate,
        max_iter=cfg.solver.max_iter,
        tol=cfg.solver.tol,
        power_seed=cfg.power_seed(),
    )


def _admm(cfg: ExperimentConfig, forward, data, shape, lam: float, *, tv) -> SolveReport:
    return admm(
        Objective(forward, data, "abs", lam, reg_op=op_grad(shape) if tv else None),
        rho=cfg.solver.rho,
        max_iter=cfg.solver.max_iter,
        tol=cfg.solver.tol,
        inner_iter=cfg.solver.inner_iter,
    )


# solver.kind -> solve(cfg, forward, data, image shape, lam); the config check,
# the --solver choices and every command that solves read this one table
_SOLVERS = {
    "cg_tikhonov": _cg_tikhonov,
    "gd": _gd,
    "ista": functools.partial(_ista, accelerate=False),
    "fista": functools.partial(_ista, accelerate=True),
    "admm_tv": functools.partial(_admm, tv=True),
    "admm_l1": functools.partial(_admm, tv=False),
}


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_phantom(args) -> int:
    cfg = load_config(args)
    truth = shepp_logan(cfg.phantom.size)
    _write_outputs(cfg, "phantom", images=[("phantom", truth)])
    print(f"phantom: wrote {cfg.phantom.size}x{cfg.phantom.size} head phantom to {cfg.out_dir}")
    return 0


def cmd_simulate(args) -> int:
    cfg = load_config(args)
    truth, kernel, data = _simulate(cfg)
    kept = np.count_nonzero(data.mask)
    images = [
        ("truth", truth),
        ("kernel", kernel),
        ("mask", data.mask.astype(np.float64)),
        ("measurements", data.measurements),
    ]
    rows = [
        ("measurement_snr_db", data.measurement_snr_db),
        ("noise_sigma", data.sigma),
        ("kept_entries", kept),
    ]
    _write_outputs(
        cfg,
        "simulate",
        images=images,
        tables=[("metrics.csv", ["metric", "value"], rows)],
        extra={"noise_sigma": data.sigma},
    )
    print(
        f"simulate: {kept} measurements at "
        f"{data.measurement_snr_db:.2f} dB, sigma={data.sigma:.6g}"
    )
    return 0


def cmd_reconstruct(args) -> int:
    cfg = load_config(args)
    data_dir = args.data if getattr(args, "data", None) else cfg.out_dir
    if not os.path.isdir(data_dir):
        raise ValidationError(f"data directory not found: {data_dir}")
    bases = [os.path.join(data_dir, name) for name in ("truth", "kernel", "mask", "measurements")]
    rasters = []
    for base in bases:
        try:
            rasters.append(read_raster(base))
        except FileNotFoundError as exc:
            raise ValidationError(f"data raster not found: {exc.filename}") from exc
        except (OSError, UnicodeDecodeError) as exc:
            # only the descriptor is read as text, so a decode error names it
            file = getattr(exc, "filename", None) or base + ".f32.txt"
            raise ValidationError(f"data raster cannot be read: {file}: {exc}") from exc
    # each raster is checked as it enters, then against the truth; a bad one is named by its file
    files = [base + ".f32" for base in bases]
    truth, kernel, mask, measurements = (_raster(r, name) for r, name in zip(rasters, files))
    if kernel.shape[0] > truth.shape[0] or kernel.shape[1] > truth.shape[1]:
        raise ValidationError(f"{files[1]}: kernel {kernel.shape} exceeds the truth {truth.shape}")
    if mask.shape != truth.shape:
        raise ValidationError(f"{files[2]}: mask {mask.shape} differs from the truth {truth.shape}")
    mask = mask > 0.5
    measurements = measurements.ravel()
    kept = np.count_nonzero(mask)
    if measurements.size != kept:
        raise ValidationError(f"{files[3]}: {measurements.size} samples; the mask keeps {kept}")

    forward = _blur_then_mask(kernel, mask)
    report = _SOLVERS[cfg.solver.kind](cfg, forward, measurements, truth.shape, cfg.solver.lam)
    recon = report.final
    snr = snr_db(truth, recon)
    rows = [
        ("snr_db", snr),
        ("lam", cfg.solver.lam),
        ("solver", cfg.solver.kind),
        ("iterations", report.iterations),
        ("converged", report.converged),
    ]
    _write_outputs(
        cfg,
        "reconstruct",
        images=[("recon", recon)],
        tables=[("metrics.csv", ["metric", "value"], rows)],
        extra={"iterations": report.iterations, "converged": report.converged},
    )
    status = "converged" if report.converged else "did not converge"
    print(
        f"reconstruct: {cfg.solver.kind} lam={cfg.solver.lam:g} snr={snr:.2f} dB, "
        f"{report.iterations} iterations, {status}"
    )
    return 0


def cmd_compress_study(args) -> int:
    cfg = load_config(args)
    img = shepp_logan(cfg.phantom.size)
    names = _TRANSFORMS if cfg.transform == "all" else [cfg.transform]
    rows = []
    for name in names:
        for fr, snr in compressibility_study(img, name, cfg.keep_fractions, cfg.levels):
            rows.append((name, fr, snr))
    header = ["transform", "keep_fraction", "snr_db"]
    _write_outputs(cfg, "compress-study", tables=[("metrics.csv", header, rows)])
    for name, fr, snr in rows:
        print(f"compress-study: {name} keep={fr:g} snr={snr:.2f} dB")
    return 0


def cmd_compare_l2_l1(args) -> int:
    cfg = load_config(args)
    truth, kernel, data = _simulate(cfg)
    lambdas = [0.003, 0.01, 0.03, 0.1, 0.3] if cfg.solver.lambdas is None else cfg.solver.lambdas

    def sweep(kind):
        def run(lam):
            return _SOLVERS[kind](cfg, data.op, data.measurements, truth.shape, lam).final

        return lambda_sweep(run, truth, lambdas)

    sweep_l2 = sweep("cg_tikhonov")
    sweep_l1 = sweep("admm_tv")

    rows = [("l2_grad", lam, snr) for lam, snr in sweep_l2.rows]
    rows += [("l1_tv", lam, snr) for lam, snr in sweep_l1.rows]
    gap = sweep_l1.best_snr - sweep_l2.best_snr
    summary = [
        ("l2_grad", sweep_l2.best_lambda, sweep_l2.best_snr),
        ("l1_tv", sweep_l1.best_lambda, sweep_l1.best_snr),
        ("gap_db", "", gap),
    ]
    _write_outputs(
        cfg,
        "compare-l2-l1",
        images=[
            ("truth", truth),
            ("recon_l2", sweep_l2.best_estimate),
            ("recon_l1", sweep_l1.best_estimate),
        ],
        tables=[
            ("metrics.csv", ["solver", "lambda", "snr_db"], rows),
            ("summary.csv", ["solver", "best_lambda", "best_snr_db"], summary),
        ],
        extra={"gap_db": gap},
    )
    print(
        f"compare-l2-l1: l2 best {sweep_l2.best_snr:.2f} dB (lam={sweep_l2.best_lambda:g}), "
        f"l1 best {sweep_l1.best_snr:.2f} dB (lam={sweep_l1.best_lambda:g}), gap {gap:.2f} dB"
    )
    return 0


# Low-view defaults: 64^2 image, 30 views, TV weight sized for unnormalized
# line integrals, and a light inner CG budget (warm starts take up the slack).
_FBP_VS_TV_BASE = {
    "phantom": {"size": 64},
    "geometry": {"n_angles": 30},
    "solver": {"kind": "admm_tv", "lam": 3.0, "max_iter": 100, "inner_iter": 10},
}


def cmd_fbp_vs_tv(args) -> int:
    cfg = load_config(args, base=_FBP_VS_TV_BASE)
    size = cfg.phantom.size
    n_det = cfg.geometry.n_detectors or size
    geom = RadonGeometry(cfg.geometry.n_angles, n_det, cfg.geometry.detector_pitch)
    truth = shepp_logan(size)
    sino = analytic_sinogram(SHEPP_LOGAN, geom, size)

    fbp_img = fbp(sino, geom, out_shape=(size, size))
    radon_op = op_radon(geom, (size, size))
    tv = _SOLVERS["admm_tv"](cfg, radon_op, sino, (size, size), cfg.solver.lam)
    snr_fbp = snr_db(truth, fbp_img)
    snr_tv = snr_db(truth, tv.final)

    _write_outputs(
        cfg,
        "fbp-vs-tv",
        images=[("truth", truth), ("recon_fbp", fbp_img), ("recon_tv", tv.final)],
        tables=[("metrics.csv", ["method", "snr_db"], [("fbp", snr_fbp), ("tv_admm", snr_tv)])],
        # iterations and converged stay out of metrics.csv, whose rows are all SNRs
        extra={"iterations": tv.iterations, "converged": tv.converged},
    )
    print(
        f"fbp-vs-tv: {cfg.geometry.n_angles} views, fbp {snr_fbp:.2f} dB, "
        f"tv {snr_tv:.2f} dB"
    )
    return 0


def cmd_nullspace_demo(args) -> int:
    cfg = load_config(args, writes=bool(args.out))
    report = nullspace_demo()
    print("start           solution                    sum sq error")
    for init, rep, sse in zip(report.inits, report.reports, report.sse):
        init_s = "(" + ", ".join(f"{v:g}" for v in init) + ")"
        sol_s = "(" + ", ".join(f"{v:7.4f}" for v in rep.final) + ")"
        print(f"{init_s:15s} {sol_s:27s} {sse:.6f}")
    if args.out:
        header = ["run", "f0_1", "f0_2", "f0_3", "f_1", "f_2", "f_3", "sse"]
        rows = [
            (i, *report.inits[i], *rep.final, report.sse[i])
            for i, rep in enumerate(report.reports)
        ]
        _write_outputs(cfg, "nullspace-demo", tables=[("metrics.csv", header, rows)])
    return 0


def _selftest_cases():
    """Every operator kind as ``(name, operator, dot-test tolerance)``.

    ``selftest``, the operator dot-test acceptance gate and the normal-operator
    tests all read this one list.
    """
    shape = (16, 16)
    kernel = embed_kernel(gaussian_kernel(5, 1.0), shape)
    w_real = normal_stream(256, 1.0, 10).reshape(shape)
    mask = random_mask(shape, 0.3, seed=3)
    cases = [
        ("mask", op_mask(mask), 1e-10),
        ("multiply_real", op_multiply(w_real), 1e-10),
        ("convolve_circular", op_convolve(kernel), 1e-6),
        ("grad", op_grad(shape), 1e-10),
        ("dft2", op_dft2(shape), 1e-6),
        ("radon", op_radon(RadonGeometry(12, 16), shape), 1e-6),
        ("radon_24", op_radon(RadonGeometry(30, 33, 0.7), (24, 24)), 1e-6),
        ("radon_32", op_radon(RadonGeometry(45, 24, 1.3), (32, 32)), 1e-6),
        ("mask_dft2", op_compose(op_mask(np.stack([mask, mask])), op_dft2(shape)), 1e-6),
        ("mask_convolve", op_compose(op_mask(mask), op_convolve(kernel)), 1e-6),
        # each orthonormal transform compress-study runs, at 2 Haar levels
        *((f"transform_{name}", build(shape, 2), 1e-10) for name, build in _TRANSFORMS.items()),
    ]
    compositions = [
        lambda m, c, w: op_compose(op_mask(m), op_convolve(c)),
        lambda m, c, w: op_compose(op_convolve(c), op_multiply(w)),
        lambda m, c, w: op_compose(op_mask(np.stack([m, m])), op_dft2(shape)),
        lambda m, c, w: op_compose(op_multiply(w), op_convolve(c)),
        lambda m, c, w: op_compose(op_compose(op_mask(m), op_convolve(c)), op_multiply(w)),
    ]
    for k, build in enumerate(compositions):
        m_k = random_mask(shape, 0.2 + 0.1 * k, seed=70 + k)
        c_k = embed_kernel(gaussian_kernel(3 + 2 * (k % 2), 0.5 + 0.3 * k), shape)
        w_k = normal_stream(256, 1.0, 80 + k).reshape(shape) + 0.1
        cases.append((f"compose_{k}", build(m_k, c_k, w_k), 1e-6))
    return cases


def _selftest_checks():
    """Yield ``(name, passed, line)`` for each selftest check."""
    for name, op, tol in _selftest_cases():
        err = dot_test(op, trials=25, seed=100)
        yield name, err <= tol, f"dot_test[{name}] err={err:.3e} tol={tol:.0e}"
        err = normal_test(op, seed=100)
        yield f"normal[{name}]", err <= 1e-12, f"normal[{name}] err={err:.3e} tol=1e-12"

    img = shepp_logan(64)
    fsc = fourier_slice_check(img, np.pi / 6)
    yield "fourier_slice", fsc < 3e-2, f"fourier_slice err={fsc:.3e} tol=3e-02"

    x = np.linspace(-2, 2, 9)
    soft = prox_apply("abs", x, 0.5)
    manual = np.sign(x) * np.maximum(np.abs(x) - 0.5, 0.0)
    yield "prox_abs", np.allclose(soft, manual, atol=1e-12), "prox_abs"

    dft = op_dft2(img.shape)
    rt = dft.adjoint(dft.apply(img)) / img.size
    yield "dft_roundtrip", np.allclose(rt, img, atol=1e-10), "dft_roundtrip"


def cmd_selftest(args) -> int:
    failures = []
    for name, passed, line in _selftest_checks():
        print(f"selftest: {'ok' if passed else 'FAIL'} {line}")
        if not passed:
            failures.append(name)
    if failures:
        print(f"selftest: {len(failures)} failure(s): {', '.join(failures)}", file=sys.stderr)
        return 3
    print("selftest: all checks passed")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


def _float_list(text: str) -> list:
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


# flag -> (config path it overrides, argparse options); a None path marks a
# flag the command reads itself.  The argparse dest is the flag's name with
# dashes turned into underscores, and its type is in _FLAG_TYPES.
_FLAGS = {
    "--config": (None, {"help": "JSON config file; flags override its values"}),
    "--out": (("out_dir",), {"help": "output directory"}),
    "--seed": (("seed",), {"help": "experiment seed (default 0)"}),
    "--data": (None, {"help": "directory holding simulate outputs (default: out dir)"}),
    "--size": (("phantom", "size"), {}),
    "--mask-fraction": (("degradation", "mask_fraction"), {}),
    "--snr-db": (("degradation", "noise_snr_db"), {}),
    "--sigma": (("degradation", "noise_sigma"), {}),
    "--blur": (("degradation", "blur"), {"choices": _BLURS}),
    "--angles": (("geometry", "n_angles"), {}),
    "--solver": (("solver", "kind"), {"choices": _SOLVERS}),
    "--lam": (("solver", "lam"), {}),
    "--lambdas": (("solver", "lambdas"), {}),
    "--rho": (("solver", "rho"), {}),
    "--max-iter": (("solver", "max_iter"), {}),
    "--step": (
        ("solver", "step"),
        {"help": "fixed gradient-descent step on 0.5 ||g - Hf||^2 + lam ||Lf||^2 / 2 "
         "(default: auto)"},
    ),
    "--transform": (("transform",), {"choices": _TRANSFORM_KINDS}),
    "--fractions": (("keep_fractions",), {}),
    "--levels": (("levels",), {}),
}


def _arg_type(path: tuple):
    """The argparse type of a flag that overrides the config leaf at ``path``."""
    typ = ExperimentConfig
    for name in path:
        typ = _drop_none(typing.get_type_hints(typ)[name])
    return _float_list if typing.get_origin(typ) is list else typ


# flag -> argparse type, from the annotation of the config leaf it overrides
_FLAG_TYPES = {flag: _arg_type(path) for flag, (path, _) in _FLAGS.items() if path}

# subcommand -> (help, the flags it takes beyond --config, --out and --seed).
# The handler of "name-x" is cmd_name_x, looked up when the parser is built
# so that a wrapper installed on this module runs in its place.
_COMMANDS = {
    "phantom": ("render the head phantom", ("--size",)),
    "simulate": (
        "blur + mask + noise measurements",
        ("--size", "--mask-fraction", "--snr-db", "--sigma", "--blur"),
    ),
    "reconstruct": (
        "solve for the image behind measurements",
        ("--data", "--solver", "--lam", "--rho", "--max-iter", "--step"),
    ),
    "compress-study": (
        "transform-domain compressibility table",
        ("--size", "--transform", "--fractions", "--levels"),
    ),
    "compare-l2-l1": (
        "smooth vs sparse regularization, swept",
        ("--size", "--mask-fraction", "--snr-db", "--lambdas", "--max-iter"),
    ),
    "fbp-vs-tv": (
        "few-view tomography: direct vs variational",
        ("--size", "--angles", "--lam", "--max-iter"),
    ),
    "nullspace-demo": ("one system, three equally good answers", ()),
    "selftest": ("adjoint and invariant spot checks", ()),
}


def _flag_patch(args) -> dict:
    patch: dict = {}
    for flag, (path, _) in _FLAGS.items():
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if path is None or value is None:
            continue
        node = patch
        for part in path[:-1]:
            node = node.setdefault(part, {})
        node[path[-1]] = value
    return patch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="reconkit", description=__doc__.split("\n")[0])
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, flags) in _COMMANDS.items():
        sub = subs.add_parser(command, help=help_text)
        for flag in ("--config", "--out", "--seed", *flags):
            sub.add_argument(flag, type=_FLAG_TYPES.get(flag), **_FLAGS[flag][1])
        sub.set_defaults(fn=globals()["cmd_" + command.replace("-", "_")])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValidationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        # every command that solves loads its config first, so this resolves
        # again to the out_dir its outputs would have gone to
        path = os.path.join(load_config(args).out_dir, "diagnostic.json")
        payload = {"error": type(exc).__name__, "message": str(exc)}
        trace = getattr(exc, "trace", None)
        if trace is not None:
            payload["objective_trace"] = [float(v) for v in np.asarray(trace).ravel()]
        write_manifest(path, payload)
        print(f"numerical failure: {exc}; diagnostic written to {path}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
