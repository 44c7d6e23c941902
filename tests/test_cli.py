"""Command-line harness: config handling, file formats, and exit codes.

Commands run in-process through ``main`` with temporary output directories;
byte-level determinism is asserted on the canonical artifacts.
"""

import dataclasses
import json
import os
import re
import sys
import typing

import numpy as np
import pytest

from reconkit import ValidationError, __version__, normal_stream
from reconkit.cli import (
    _COMMANDS,
    _FLAGS,
    _SEED_MAX,
    _simulate,
    ExperimentConfig,
    SolverConfig,
    build_parser,
    config_from_dict,
    config_to_dict,
    load_config,
    main,
)
from reconkit.io import read_raster, write_csv, write_pgm, write_raster


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestRaster:
    def test_round_trip(self, tmp_path):
        base = str(tmp_path / "img")
        data = np.linspace(-1.5, 2.5, 12).reshape(3, 4)
        paths = write_raster(base, data)
        assert paths == [base + ".f32", base + ".f32.txt"]
        back = read_raster(base)
        assert back.shape == (3, 4)
        assert np.array_equal(back, data.astype(np.float32).astype(np.float64))

    def test_sidecar_contents(self, tmp_path):
        base = str(tmp_path / "img")
        write_raster(base, np.array([[0.0, 4.0]]))
        text = (tmp_path / "img.f32.txt").read_text()
        assert "width=2" in text and "height=1" in text
        assert "dtype=float32-le" in text
        assert "min=0.0" in text and "max=4.0" in text

    def test_payload_is_little_endian_f32(self, tmp_path):
        base = str(tmp_path / "img")
        write_raster(base, np.array([[1.0, -2.0]]))
        raw = read_bytes(base + ".f32")
        assert raw == np.array([1.0, -2.0], dtype="<f4").tobytes()

    def test_vector_promoted_to_row(self, tmp_path):
        base = str(tmp_path / "vec")
        write_raster(base, np.arange(5.0))
        assert read_raster(base).shape == (1, 5)

    def test_descriptor_mismatch_rejected(self, tmp_path):
        base = str(tmp_path / "img")
        write_raster(base, np.ones((2, 2)))
        with open(base + ".f32", "wb") as fh:
            fh.write(b"\x00" * 8)  # wrong payload size
        with pytest.raises(Exception):
            read_raster(base)

    @pytest.mark.parametrize("width, height", [(0, 0), (-2, -2), (3, 0), (-1, 4)])
    def test_dimensions_below_one_rejected(self, tmp_path, width, height):
        base = str(tmp_path / "img")
        with open(base + ".f32.txt", "w") as fh:
            fh.write(f"width={width}\nheight={height}\ndtype=float32-le\n")
        np.ones(abs(width * height), dtype="<f4").tofile(base + ".f32")
        with pytest.raises(ValidationError, match="img.f32.txt: width and height must be >= 1"):
            read_raster(base)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_finite_sample_beyond_float32_is_rejected_not_written_as_inf(self, tmp_path):
        base = str(tmp_path / "img")
        f32_max = float(np.finfo(np.float32).max)
        write_raster(base, np.array([[-f32_max, f32_max]]))
        assert np.array_equal(read_raster(base), [[-f32_max, f32_max]])
        for value in (1e39, -1e39, 1e300):
            with pytest.raises(ValidationError, match="float32 range"):
                write_raster(str(tmp_path / "big"), np.array([[0.0, value]]))
        assert not (tmp_path / "big.f32").exists()


class TestPgm:
    def test_header_and_windowing(self, tmp_path):
        path = str(tmp_path / "img.pgm")
        lo, hi = write_pgm(path, np.array([[0.0, 1.0], [2.0, 4.0]]))
        assert (lo, hi) == (0.0, 4.0)
        raw = read_bytes(path)
        header, pixels = raw.split(b"255\n", 1)
        assert header == b"P5\n2 2\n"
        assert list(pixels) == [0, 64, 128, 255]

    @pytest.mark.filterwarnings("error")
    def test_constant_raster_beyond_2_53_maps_to_zero(self, tmp_path):
        # there the window (v, v + 1) has zero width
        path = str(tmp_path / "flat.pgm")
        assert write_pgm(path, np.full((1, 2), 2.0**60)) == (2.0**60, 2.0**60)
        assert read_bytes(path) == b"P5\n2 1\n255\n\x00\x00"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_range_beyond_the_largest_double(self, tmp_path):
        # hi - lo overflows to inf there
        path = str(tmp_path / "wide.pgm")
        big = np.finfo(np.float64).max
        assert write_pgm(path, np.array([[-1e308, 0.0, 1e308]])) == (-1e308, 1e308)
        assert read_bytes(path) == b"P5\n3 1\n255\n\x00\x80\xff"
        write_pgm(path, np.array([[-big, big / 2, big]]))
        assert read_bytes(path) == b"P5\n3 1\n255\n\x00\xbf\xff"


class TestCsv:
    def test_deterministic_formatting(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_csv(path, ["metric", "value"], [("snr", np.inf), ("ok", True), ("x", 0.1)])
        text = (tmp_path / "t.csv").read_text()
        assert text == "metric,value\nsnr,inf\nok,true\nx,0.1\n"


# one config that breaks each rule of the config check, the key its error names
# (with the rule's wording where one key has two rules), and the test id where it
# is not that key: the wording the case was first written against
CONFIG_RULES = [
    ({"phantom": {"kind": "disk"}}, "phantom.kind"),
    ({"phantom": {"size": 16}}, "phantom.size"),
    ({"degradation": {"blur": "motion"}}, "degradation.blur"),
    ({"degradation": {"blur_sigma": -1.0}}, "degradation.blur_sigma"),
    ({"degradation": {"blur_size": 0}}, "degradation.blur_size"),
    ({"degradation": {"blur_size": 4}}, "degradation.blur_size"),
    ({"phantom": {"size": 32}, "degradation": {"blur_size": 33}}, "degradation.blur_size"),
    ({"degradation": {"airy_cutoff": 0.0}}, "degradation.airy_cutoff"),
    ({"degradation": {"airy_cutoff": -1.0}}, "degradation.airy_cutoff"),
    ({"degradation": {"mask_fraction": 0.0}}, "degradation.mask_fraction"),
    ({"degradation": {"noise_sigma": -1.0}}, "degradation.noise_sigma"),
    ({"degradation": {"noise_sigma": float("inf")}}, "degradation.noise_sigma"),
    ({"degradation": {"noise_snr_db": float("nan")}}, "degradation.noise_snr_db"),
    (
        {"degradation": {"noise_snr_db": 4000.0}},
        "degradation.noise_snr_db must lie in [-300, 300] dB",
        "degradation.noise_snr_db=4000",
    ),
    (
        {"degradation": {"noise_snr_db": -4000.0}},
        "degradation.noise_snr_db must lie in [-300, 300] dB",
        "degradation.noise_snr_db=-4000",
    ),
    ({"solver": {"kind": "deep_net"}}, "solver.kind"),
    ({"solver": {"lam": -1.0}}, "solver.lam"),
    ({"solver": {"lam": float("nan")}}, "solver.lam must be finite"),
    (
        {"solver": {"lam": 10**400}},
        "solver.lam must be finite and >= 0",
        "solver.lam is beyond the double range",
    ),
    ({"solver": {"rho": -1.0}}, "solver.rho"),
    ({"solver": {"max_iter": -5}}, "solver.max_iter"),
    ({"solver": {"inner_iter": -1}}, "solver.inner_iter"),
    ({"solver": {"tol": -1.0}}, "solver.tol"),
    ({"solver": {"step": 0.0}}, "solver.step"),
    ({"solver": {"step": float("inf")}}, "solver.step must be positive and finite"),
    ({"solver": {"lambdas": [0.1, -2.0]}}, "solver.lambdas[1]"),
    ({"solver": {"lambdas": [float("nan")]}}, "solver.lambdas[0]"),
    ({"geometry": {"n_angles": 0}}, "geometry.n_angles"),
    ({"geometry": {"n_detectors": 0}}, "geometry.n_detectors"),
    ({"geometry": {"detector_pitch": float("inf")}}, "geometry.detector_pitch"),
    ({"transform": "wavelet"}, "transform"),
    ({"levels": 0}, "levels"),
    ({"keep_fractions": [0.5, 1.5]}, "keep_fractions"),
    ({"keep_fractions": [0.5, "x"]}, "keep_fractions[1]"),
    (
        {"keep_fractions": []},
        "keep_fractions must be a list of at least one",
        "keep_fractions must hold at least one",
    ),
    ({"seed": -1}, "seed must be an integer in", "seed must lie in0"),
    ({"seed": 2**64 - 1}, "seed must be an integer in", "seed must lie in1"),
    ({"degradation": {"mask_seed": -1}}, "degradation.mask_seed"),
    ({"degradation": {"noise_seed": -1}}, "degradation.noise_seed"),
    ({"solver": {"power_seed": -1}}, "solver.power_seed"),
]


class TestConfig:
    def test_round_trips_losslessly(self):
        cfg = ExperimentConfig(seed=7)
        cfg.solver.kind = "admm_tv"
        cfg.solver.lam = 0.25
        cfg.keep_fractions = [0.1, 0.5]
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_unknown_field_named(self):
        data = config_to_dict(ExperimentConfig())
        data["degradation"]["blur_sgima"] = 1.0
        with pytest.raises(ValidationError, match=r"degradation\.blur_sgima"):
            config_from_dict(data)

    def test_type_mismatch_named(self):
        data = config_to_dict(ExperimentConfig())
        data["phantom"]["size"] = "big"
        with pytest.raises(ValidationError, match=r"phantom\.size"):
            config_from_dict(data)

    def test_unknown_config_field_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"solver": {"kidn": "gd"}}))
        code = main(["phantom", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "solver.kidn" in capsys.readouterr().err

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{not json")
        code = main(["phantom", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="this Python has no integer digit limit"
    )
    def test_over_long_integer_literal_is_invalid_json(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"seed": ' + "1" * 5000 + "}")
        code = main(["phantom", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "config error: config file is not valid JSON" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "kind, message",
        [
            ("missing", "config file not found"),
            ("directory", "config file cannot be read"),
            ("not_utf8", "config file cannot be read"),
        ],
    )
    def test_unreadable_config_file_exits_2(self, tmp_path, capsys, kind, message):
        cfg_path = tmp_path / "cfg.json"
        if kind == "directory":
            cfg_path.mkdir()
        elif kind == "not_utf8":
            cfg_path.write_bytes(b'\xff\xfe{"seed": 1}')
        argv = ["phantom", "--size", "32", "--config", str(cfg_path), "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    def test_non_numeric_lambda_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"solver": {"lambdas": ["x"]}}))
        code = main(["compare-l2-l1", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "solver.lambdas" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "patch, key", [row[:2] for row in CONFIG_RULES], ids=[row[-1] for row in CONFIG_RULES]
    )
    def test_each_config_rule_exits_2_naming_its_key(self, tmp_path, capsys, patch, key):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(patch))
        assert main(["phantom", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "argv, patch, key",
        [
            (["compare-l2-l1"], {"solver": {"lambdas": []}}, "solver.lambdas"),
            (["compare-l2-l1", "--lambdas", ""], {}, "solver.lambdas"),
            (["compress-study"], {"keep_fractions": [True, 0.1]}, "keep_fractions[0]"),
            (["compress-study", "--levels", "0"], {}, "levels must be an integer >= 1"),
        ],
        ids=["empty_lambdas_in_config", "empty_lambdas_flag", "boolean_keep_fraction", "zero_levels_flag"],
    )
    def test_empty_sweeps_and_boolean_entries_exit_2(self, tmp_path, capsys, argv, patch, key):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(patch))
        argv = argv + ["--size", "32", "--config", str(cfg_path), "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"phantom": {"size": 16}}, "phantom.size must be an integer >= 32"),
            ({"keep_fractions": "x"}, "keep_fractions must be a list of at least one fraction"),
            ({"solver": {"lambdas": "x"}}, "solver.lambdas must be a list of at least one weight"),
            ({"phantom": {"size": None}}, "phantom.size must be an integer >= 32"),
            ({"phantom": 3}, "phantom must be a table of fields"),
            ({"solver": {"kidn": "gd"}}, "unknown field solver.kidn"),
            (3, "config must be a table of fields"),
        ],
        ids=[
            "broken_rule",
            "string_for_fractions",
            "string_for_lambdas",
            "null_for_size",
            "number_for_section",
            "unknown_key",
            "number_for_config",
        ],
    )
    def test_builds_only_checked_configs(self, data, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            config_from_dict(data)

    def test_largest_seed_is_the_last_whose_stream_seeds_fit_64_bits(self):
        cfg = config_from_dict({"seed": _SEED_MAX})
        assert max(cfg.mask_seed(), cfg.noise_seed(), cfg.power_seed()) < 2**64
        assert (_SEED_MAX + 1) * 1000 + 3 >= 2**64

    def test_list_entries_are_coerced_to_floats(self):
        cfg = config_from_dict({"keep_fractions": [1], "solver": {"lambdas": [2, 0.5]}})
        assert cfg.keep_fractions == [1.0] and type(cfg.keep_fractions[0]) is float
        assert [type(lam) for lam in cfg.solver.lambdas] == [float, float]

    def test_invalid_value_exits_2(self, tmp_path, capsys):
        code = main(["phantom", "--size", "8", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "phantom.size" in capsys.readouterr().err

    def test_flags_override_config_file(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"phantom": {"size": 32}, "seed": 3}))
        out = tmp_path / "o"
        code = main(["phantom", "--config", str(cfg_path), "--size", "48", "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["phantom"]["size"] == 48
        assert manifest["config"]["seed"] == 3


# a value that breaks the declared rule of each leaf of ExperimentConfig, by dotted path
BAD_LEAF_VALUES = {
    "phantom.kind": "disk",
    "phantom.size": 31,
    "degradation.blur": "motion",
    "degradation.blur_size": 6,
    "degradation.blur_sigma": 0.0,
    "degradation.airy_cutoff": 0.75,
    "degradation.mask_fraction": 1.5,
    "degradation.noise_snr_db": float("inf"),
    "degradation.noise_sigma": float("nan"),
    "degradation.mask_seed": 2**64,
    "degradation.noise_seed": 2**64,
    "geometry.n_angles": -1,
    "geometry.n_detectors": -3,
    "geometry.detector_pitch": 0.0,
    "solver.kind": "newton",
    "solver.lam": float("inf"),
    "solver.lambdas": [],
    "solver.rho": 0.0,
    "solver.max_iter": -1,
    "solver.tol": float("nan"),
    "solver.inner_iter": -2,
    "solver.step": float("nan"),
    "solver.power_seed": 2**64,
    "transform": "wavelet",
    "keep_fractions": [],
    "levels": -1,
    "out_dir": "",
    "seed": _SEED_MAX + 1,
}


def _leaf_fields(node, prefix=""):
    """``(dotted path, dataclass field)`` for each leaf of a config."""
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        if dataclasses.is_dataclass(value):
            yield from _leaf_fields(value, prefix + f.name + ".")
        else:
            yield prefix + f.name, f


LEAVES = dict(_leaf_fields(ExperimentConfig()))


def _patch(path, value):
    """The config table that sets the leaf at dotted ``path`` to ``value``."""
    *sections, name = path.split(".")
    patch = {name: value}
    for section in reversed(sections):
        patch = {section: patch}
    return patch


class TestLeafRules:
    def test_every_leaf_declares_a_rule_and_has_a_bad_value(self):
        for path, f in LEAVES.items():
            check, text = f.metadata["rule"]
            assert callable(check) and isinstance(text, str), path
        assert set(BAD_LEAF_VALUES) == set(LEAVES)

    def test_defaults_pass(self):
        assert config_from_dict({}) == ExperimentConfig()
        assert load_config(build_parser().parse_args(["phantom"])) == ExperimentConfig()

    @pytest.mark.parametrize("path", sorted(LEAVES))
    def test_bad_value_exits_2_naming_the_leaf(self, tmp_path, monkeypatch, capsys, path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_patch(path, BAD_LEAF_VALUES[path])))
        run = tmp_path / "run"
        run.mkdir()
        monkeypatch.chdir(run)
        # no --out: the output directory is the config's out_dir, relative to run
        assert main(["phantom", "--config", str(cfg_path)]) == 2
        assert re.search(rf"config error: {re.escape(path)}[ \[]", capsys.readouterr().err)
        assert os.listdir(run) == []

    @pytest.mark.parametrize("path", sorted(LEAVES))
    def test_a_wrong_type_reads_as_the_broken_rule(self, tmp_path, monkeypatch, capsys, path):
        # a bool, a value of another JSON type and a null where the annotation
        # admits none all exit 2 with the leaf's one message, as its bad value does
        f = LEAVES[path]
        wrong = [True, 3 if f.type is str else "3"]
        if type(None) not in typing.get_args(f.type):
            wrong.append(None)
        monkeypatch.chdir(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        for value in (*wrong, BAD_LEAF_VALUES[path]):
            cfg_path.write_text(json.dumps(_patch(path, value)))
            assert main(["phantom", "--config", str(cfg_path)]) == 2, value
            text = f.metadata["rule"][1].format(value)
            assert capsys.readouterr().err == f"config error: {path} {text}\n"
        assert os.listdir(tmp_path) == ["cfg.json"]

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["reconstruct", "--solver", "gd", "--step", "inf"], "solver.step"),
            (["compare-l2-l1", "--lambdas=-1,0.1"], "solver.lambdas[0]"),
            (["compare-l2-l1", "--lambdas=0.1,nan"], "solver.lambdas[1]"),
            (["compress-study", "--fractions", ""], "keep_fractions"),
            (["phantom", "--out", ""], "out_dir"),
            # beyond these, the noise level's 10 ** (snr / 10) overflows or reaches 0
            (["simulate", "--snr-db", "4000"], "degradation.noise_snr_db"),
            (["simulate", "--snr-db", "-4000"], "degradation.noise_snr_db"),
        ],
        ids=[
            "infinite_step",
            "negative_lambda",
            "nan_lambda",
            "empty_fractions",
            "empty_out",
            "huge_snr",
            "huge_negative_snr",
        ],
    )
    def test_bad_flag_value_exits_2_naming_its_key(self, tmp_path, monkeypatch, capsys, argv, key):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        assert f"config error: {key} " in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "argv, out",
        [
            (["phantom", "--size", "32"], "afile"),
            # a diverging solve, whose diagnostic would go to out_dir
            (["reconstruct", "--data", "small", "--solver", "gd", "--step", "1e150"], "afile"),
            (["phantom", "--size", "32"], "afile/sub"),
            (["reconstruct", "--data", "small", "--solver", "gd", "--step", "1e150"], "afile/sub"),
        ],
        ids=["phantom", "diverging_reconstruct", "phantom_under", "diverging_reconstruct_under"],
    )
    def test_out_dir_naming_a_file_exits_2_before_any_work(
        self, tmp_path, monkeypatch, capsys, argv, out
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--size", "32", "--out", "small"]) == 0
        (tmp_path / "afile").write_text("kept")
        capsys.readouterr()
        assert main(argv + ["--out", out]) == 2
        assert capsys.readouterr().err == f"config error: out_dir must name a directory, not {out!r}\n"
        assert (tmp_path / "afile").read_text() == "kept"
        assert sorted(os.listdir(tmp_path)) == ["afile", "small"]


def simulated(size=32, **degradation):
    """``_simulate``'s truth, kernel and data for a ``size`` phantom and these degradation keys."""
    return _simulate(config_from_dict({"phantom": {"size": size}, "degradation": degradation}))


class TestSimulate:
    def run(self, out, seed="7", extra=()):
        args = ["simulate", "--size", "48", "--seed", seed, "--out", str(out)]
        return main(args + list(extra))

    def test_writes_all_artifacts(self, tmp_path):
        out = tmp_path / "sim"
        assert self.run(out) == 0
        for name in ("truth", "kernel", "mask"):
            assert (out / f"{name}.f32").exists()
            assert (out / f"{name}.f32.txt").exists()
            assert (out / f"{name}.pgm").exists()
        assert (out / "measurements.f32").exists()
        assert (out / "metrics.csv").exists()
        assert (out / "manifest.json").exists()

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert self.run(a) == 0 and self.run(b) == 0
        for name in ("truth.f32", "kernel.f32", "mask.f32", "measurements.f32", "metrics.csv"):
            assert read_bytes(a / name) == read_bytes(b / name), name

    def test_seed_changes_measurements(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert self.run(a, seed="7") == 0 and self.run(b, seed="8") == 0
        assert read_bytes(a / "measurements.f32") != read_bytes(b / "measurements.f32")
        assert read_bytes(a / "truth.f32") == read_bytes(b / "truth.f32")

    def test_manifest_records_every_seed(self, tmp_path):
        out = tmp_path / "sim"
        assert self.run(out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["version"] == __version__
        assert manifest["seeds"] == {
            "seed": 7,
            "mask_seed": 7001,
            "noise_seed": 7002,
            "power_seed": 7003,
        }
        assert manifest["config"]["phantom"]["size"] == 48
        assert "measurements.f32" in manifest["outputs"]
        assert "windows" in manifest and "truth" in manifest["windows"]

    def test_noiseless_measurements_match_an_fft_oracle(self, tmp_path):
        out = tmp_path / "sim"
        assert self.run(out, extra=["--sigma", "0"]) == 0
        truth, kernel, mask = (read_raster(str(out / name)) for name in ("truth", "kernel", "mask"))
        measurements = read_raster(str(out / "measurements")).ravel()
        # circular blur: the centered kernel moved to the origin, multiplied
        # in the DFT domain; then the kept samples in raster order
        psf = np.zeros_like(truth)
        psf[: kernel.shape[0], : kernel.shape[1]] = kernel
        psf = np.roll(psf, (-(kernel.shape[0] // 2), -(kernel.shape[1] // 2)), axis=(0, 1))
        blurred = np.fft.ifft2(np.fft.fft2(truth) * np.fft.fft2(psf)).real
        expected = blurred[mask > 0.5]
        assert measurements.shape == expected.shape
        # the rasters hold float32: inputs and output each carry one rounding
        tol = 4 * np.finfo(np.float32).eps * np.max(np.abs(truth))
        assert np.max(np.abs(measurements - expected)) <= tol

    def test_snr_target_costs_one_measurement_apply(self, monkeypatch):
        # the noise level is read off the clean measurements, which are then
        # reused, not recomputed
        from reconkit import cli
        from reconkit.operators import LinearMap

        applies = []
        original = LinearMap.apply

        def counting(self, x):
            applies.append(self.name)
            return original(self, x)

        monkeypatch.setattr(LinearMap, "apply", counting)
        args = build_parser().parse_args(["simulate", "--size", "48", "--snr-db", "20"])
        truth, _, data = cli._simulate(load_config(args))
        assert applies.count("mask*convolve_circular") == 1
        assert np.array_equal(data.clean, data.op.apply(truth))

    def test_identity_blur_full_mask_noiseless(self):
        truth, _, data = simulated(blur="none", mask_fraction=1.0, noise_sigma=0.0)
        # the circular convolution runs through the FFT, so identity
        # passthrough holds to round-off rather than bit-exactly
        assert np.allclose(data.measurements, truth.ravel(), atol=1e-12)
        assert np.isinf(data.measurement_snr_db)

    def test_snr_target_is_met(self):
        _, _, data = simulated(size=64, noise_snr_db=20.0)
        assert abs(data.measurement_snr_db - 20.0) < 0.5

    def test_noise_seed_alone_moves_the_measurements(self):
        a, b, c = (simulated(noise_sigma=0.05, noise_seed=s)[2] for s in (10, 10, 11))
        assert np.array_equal(a.measurements, b.measurements)
        assert np.array_equal(a.clean, c.clean)
        assert not np.array_equal(a.measurements, c.measurements)

    def test_noise_is_a_seeded_raster_kept_through_the_mask(self):
        truth, _, data = simulated(noise_sigma=0.05, noise_seed=10)
        assert np.array_equal(data.op.apply(truth), data.clean)
        # the noise raster over the whole grid, read through the mask in raster order
        noise = normal_stream(32 * 32, 0.05, 10).reshape(32, 32)[data.mask]
        assert np.allclose(data.measurements - data.clean, noise)

    def test_blur_none_writes_a_constant_kernel_that_reconstruct_reads(self, tmp_path):
        out = tmp_path / "sim"
        assert self.run(out, extra=["--blur", "none"]) == 0
        assert np.array_equal(read_raster(str(out / "kernel")), [[1.0]])
        # the 1x1 kernel is the constant raster: its window is (1, 1 + 1) and it maps to 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["windows"]["kernel"] == [1.0, 2.0]
        assert read_bytes(out / "kernel.pgm") == b"P5\n1 1\n255\n\x00"
        rec = tmp_path / "rec"
        assert main(["reconstruct", "--data", str(out), "--max-iter", "5", "--out", str(rec)]) == 0
        assert (rec / "recon.f32").exists()

    def test_sigma_flag_overrides_snr_target(self, tmp_path):
        out = tmp_path / "sim"
        assert self.run(out, extra=["--sigma", "0.25"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["noise_sigma"] == 0.25


class TestReconstruct:
    def test_round_trip_improves_on_nothing(self, tmp_path):
        sim = tmp_path / "sim"
        assert main(["simulate", "--size", "48", "--seed", "7", "--out", str(sim)]) == 0
        rec = tmp_path / "rec"
        code = main(
            [
                "reconstruct", "--data", str(sim), "--out", str(rec),
                "--solver", "cg_tikhonov", "--lam", "0.05", "--max-iter", "150",
            ]
        )
        assert code == 0
        assert (rec / "recon.f32").exists()
        rows = dict(
            line.split(",") for line in (rec / "metrics.csv").read_text().splitlines()[1:]
        )
        assert float(rows["snr_db"]) > 5.0

    def test_divergent_fixed_step_exits_3_with_diagnostic(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        assert main(["simulate", "--size", "32", "--seed", "1", "--out", str(sim)]) == 0
        rec = tmp_path / "rec"
        code = main(
            [
                "reconstruct", "--data", str(sim), "--out", str(rec),
                "--solver", "gd", "--lam", "0.1", "--step", "1000.0",
            ]
        )
        assert code == 3
        diag = json.loads((rec / "diagnostic.json").read_text())
        assert diag["error"] == "DivergenceError"
        assert len(diag["objective_trace"]) >= 5
        assert "diagnostic" in capsys.readouterr().err

    def test_overflowing_step_exits_3_not_config_error(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        assert main(["simulate", "--size", "32", "--seed", "1", "--out", str(sim)]) == 0
        rec = tmp_path / "rec"
        code = main(
            [
                "reconstruct", "--data", str(sim), "--out", str(rec),
                "--solver", "gd", "--lam", "0.1", "--step", "1e150",
            ]
        )
        assert code == 3
        diag = json.loads((rec / "diagnostic.json").read_text())
        assert diag["error"] == "DivergenceError"
        assert "non-finite" in diag["message"]
        assert all(np.isfinite(diag["objective_trace"]))
        err = capsys.readouterr().err
        assert "diagnostic" in err and "config error" not in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_estimate_beyond_float32_exits_3_and_writes_no_raster(self, tmp_path, capsys):
        # four rising gd steps stay below the divergence rule but leave float32
        sim = tmp_path / "sim"
        assert main(["simulate", "--size", "32", "--out", str(sim)]) == 0
        rec = tmp_path / "rec"
        code = main(
            [
                "reconstruct", "--data", str(sim), "--out", str(rec),
                "--solver", "gd", "--step", "1e10", "--max-iter", "4",
            ]
        )
        assert code == 3
        assert os.listdir(rec) == ["diagnostic.json"]
        diag = json.loads((rec / "diagnostic.json").read_text())
        assert diag["error"] == "DivergenceError"
        assert "recon leaves the float32 range" in diag["message"]
        assert "diagnostic" in capsys.readouterr().err

    def test_diagnostic_goes_to_the_config_file_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--size", "32", "--seed", "1", "--out", "sim"]) == 0
        (tmp_path / "c.json").write_text(
            json.dumps({"out_dir": "cfgout", "solver": {"kind": "gd", "step": 1e150}})
        )
        assert main(["reconstruct", "--data", "sim", "--config", "c.json"]) == 3
        diag = json.loads((tmp_path / "cfgout" / "diagnostic.json").read_text())
        assert diag["error"] == "DivergenceError"
        assert not (tmp_path / "diagnostic.json").exists()

    def test_missing_data_exits_2(self, tmp_path, capsys):
        out = str(tmp_path / "r")
        assert main(["reconstruct", "--data", str(tmp_path / "nowhere"), "--out", out]) == 2
        assert capsys.readouterr().err.startswith("config error: data directory not found")
        sim = tmp_path / "sim"
        assert main(["simulate", "--size", "32", "--out", str(sim)]) == 0
        (sim / "mask.f32.txt").unlink()
        assert main(["reconstruct", "--data", str(sim), "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: data raster not found") and "mask.f32.txt" in err

    @pytest.mark.parametrize("kind", ["not_utf8", "directory", "samples_directory"])
    @pytest.mark.parametrize("name", ["truth", "kernel", "mask", "measurements"])
    def test_unreadable_data_raster_exits_2(self, tmp_path, capsys, name, kind):
        sim = tmp_path / "sim"
        assert main(["simulate", "--size", "32", "--out", str(sim)]) == 0
        bad = sim / (f"{name}.f32" if kind == "samples_directory" else f"{name}.f32.txt")
        if kind == "not_utf8":
            bad.write_bytes(b"\xff\xfewidth=32\n")
        else:
            bad.unlink()
            bad.mkdir()
        rec = tmp_path / "rec"
        assert main(["reconstruct", "--data", str(sim), "--out", str(rec)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: data raster cannot be read: {bad}: ")
        assert not rec.exists()

    def test_negative_raster_dimensions_exit_2(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        assert main(["simulate", "--size", "32", "--out", str(sim)]) == 0
        txt = sim / "truth.f32.txt"
        text = txt.read_text().replace("width=32", "width=-32")
        txt.write_text(text.replace("height=32", "height=-32"))
        assert main(["reconstruct", "--data", str(sim), "--out", str(tmp_path / "rec")]) == 2
        assert capsys.readouterr().err == (
            f"config error: bad raster descriptor {txt}: width and height must be >= 1\n"
        )

    @staticmethod
    def _reconstruct_with_nan(tmp_path, capsys, name, at):
        """``reconstruct`` after a NaN replaces sample ``at(raw)`` of ``<name>.f32``'s ``raw``.

        Checks that the call exits 2, names that file and writes nothing.
        """
        sim = tmp_path / "sim"
        assert main(["simulate", "--size", "32", "--out", str(sim)]) == 0
        path = sim / f"{name}.f32"
        raw = np.fromfile(path, dtype="<f4")
        raw[at(raw)] = np.nan
        raw.tofile(path)
        rec = tmp_path / "rec"
        assert main(["reconstruct", "--data", str(sim), "--out", str(rec)]) == 2
        assert capsys.readouterr().err == (
            f"config error: {path} input contains non-finite samples\n"
        )
        assert not rec.exists()

    @pytest.mark.parametrize(
        "name, raster, message",
        [
            ("kernel", np.ones((33, 3)), "kernel (33, 3) exceeds the truth (32, 32)"),
            ("mask", np.ones((32, 30)), "mask (32, 30) differs from the truth (32, 32)"),
            ("measurements", np.ones(5), "5 samples; the mask keeps 512"),
        ],
        ids=["kernel", "mask", "measurements"],
    )
    def test_raster_that_does_not_fit_exits_2_naming_its_file(
        self, tmp_path, capsys, name, raster, message
    ):
        sim = tmp_path / "sim"
        assert main(["simulate", "--size", "32", "--out", str(sim)]) == 0
        write_raster(str(sim / name), raster)
        rec = tmp_path / "rec"
        assert main(["reconstruct", "--data", str(sim), "--out", str(rec)]) == 2
        assert capsys.readouterr().err == f"config error: {sim / name}.f32: {message}\n"
        assert not rec.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_truth_exits_2(self, tmp_path, capsys):
        self._reconstruct_with_nan(tmp_path, capsys, "truth", lambda raw: 5)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "name, at",
        [
            ("kernel", lambda raw: 5),
            ("measurements", lambda raw: 5),
            # a NaN in the mask is neither kept nor dropped: the mask is corrupt
            ("mask", lambda raw: np.flatnonzero(raw == 0.0)[0]),
            ("mask", lambda raw: np.flatnonzero(raw == 1.0)[0]),
        ],
        ids=["kernel", "measurements", "mask_in_place_of_0", "mask_in_place_of_1"],
    )
    def test_non_finite_input_raster_exits_2(self, tmp_path, capsys, name, at):
        self._reconstruct_with_nan(tmp_path, capsys, name, at)


    @pytest.mark.parametrize(
        "rho, iterations, converged",
        [
            ("1e-300", 200, False),  # runs out of iterations far from the data
            ("1e300", 1, True),  # the stop test holds at once, at f = 0
        ],
    )
    def test_extreme_rho_reports_iterations_and_convergence(
        self, tmp_path, rho, iterations, converged
    ):
        sim = tmp_path / "sim"
        assert main(["simulate", "--size", "32", "--out", str(sim)]) == 0
        rec = tmp_path / "rec"
        code = main(
            [
                "reconstruct", "--data", str(sim), "--out", str(rec),
                "--solver", "admm_tv", "--lam", "0.1", "--rho", rho,
            ]
        )
        assert code == 0
        rows = dict(
            line.split(",") for line in (rec / "metrics.csv").read_text().splitlines()[1:]
        )
        manifest = json.loads((rec / "manifest.json").read_text())
        assert rows["iterations"] == str(iterations)
        assert rows["converged"] == ("true" if converged else "false")
        assert manifest["iterations"] == iterations
        assert manifest["converged"] is converged


class TestFbpVsTv:
    def test_manifest_reports_the_solve_and_metrics_only_snrs(self, tmp_path):
        out = tmp_path / "fvt"
        code = main(
            ["fbp-vs-tv", "--size", "32", "--angles", "8", "--max-iter", "3", "--out", str(out)]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["iterations"] == 3
        assert manifest["converged"] is False
        rows = (out / "metrics.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["fbp", "tv_admm"]


class TestStudyCommands:
    def test_compress_study_keeping_everything_is_lossless(self, tmp_path):
        out = tmp_path / "cs"
        code = main(
            [
                "compress-study", "--size", "64", "--transform", "haar",
                "--fractions", "0.05,1.0", "--out", str(out),
            ]
        )
        assert code == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0].startswith("transform")
        cells = [line.split(",") for line in lines[1:]]
        assert all(row[0] == "haar" for row in cells)
        snr = {float(row[1]): float(row[2]) for row in cells}
        # round-trip at keep=1 leaves only float noise
        assert snr[1.0] > 250.0
        assert snr[0.05] < snr[1.0]

    def test_nullspace_demo_prints_table(self, capsys):
        assert main(["nullspace-demo"]) == 0
        text = capsys.readouterr().out
        assert text.count("0.00333") >= 3
        for value in ("1.7000", "-2.3000", "4.3667", "5.3333"):
            assert value in text

    def test_nullspace_demo_without_out_ignores_a_file_named_out(
        self, tmp_path, monkeypatch, capsys
    ):
        # it writes nothing without --out, so the default out_dir is not checked
        monkeypatch.chdir(tmp_path)
        (tmp_path / "out").write_text("kept")
        assert main(["nullspace-demo"]) == 0
        assert capsys.readouterr().out.count("0.00333") >= 3
        assert (tmp_path / "out").read_text() == "kept"
        assert os.listdir(tmp_path) == ["out"]
        assert main(["nullspace-demo", "--out", "out"]) == 2
        assert "out_dir must name a directory, not 'out'" in capsys.readouterr().err

    def test_nullspace_demo_writes_its_table(self, tmp_path):
        out = tmp_path / "ns"
        assert main(["nullspace-demo", "--out", str(out)]) == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0] == "run,f0_1,f0_2,f0_3,f_1,f_2,f_3,sse"
        rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
        assert [row[:4] for row in rows] == [
            [0.0, 0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 1.0],
            [2.0, 13.0, 8.0, 17.0],
        ]
        assert all(abs(row[7] - 1.0 / 300.0) < 5e-4 for row in rows)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "nullspace-demo"
        assert manifest["outputs"] == ["metrics.csv"]

    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "ok" in out and "FAIL" not in out


class TestParser:
    def test_unknown_solver_choice_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["reconstruct", "--solver", "deep_net", "--out", str(tmp_path)])
        assert err.value.code == 2

    def test_nonpositive_step_rejected(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        assert main(["simulate", "--size", "32", "--out", str(sim)]) == 0
        code = main(
            ["reconstruct", "--data", str(sim), "--out", str(tmp_path / "r"),
             "--solver", "gd", "--step", "-2.0"]
        )
        assert code == 2
        assert "solver.step" in capsys.readouterr().err

    def test_config_equality_includes_solver_block(self):
        a = ExperimentConfig(solver=SolverConfig(kind="gd", step=2.0))
        b = config_from_dict(config_to_dict(a))
        assert b.solver.step == 2.0 and a == b


# every flag that overrides a config field: the config path it overrides, and
# a valid, non-default value as typed and as parsed
FLAG_VALUES = {
    "--out": (("out_dir",), "elsewhere", "elsewhere"),
    "--seed": (("seed",), "5", 5),
    "--size": (("phantom", "size"), "96", 96),
    "--mask-fraction": (("degradation", "mask_fraction"), "0.25", 0.25),
    "--snr-db": (("degradation", "noise_snr_db"), "12.5", 12.5),
    "--sigma": (("degradation", "noise_sigma"), "0.03", 0.03),
    "--blur": (("degradation", "blur"), "airy", "airy"),
    "--angles": (("geometry", "n_angles"), "17", 17),
    "--solver": (("solver", "kind"), "fista", "fista"),
    "--lam": (("solver", "lam"), "0.7", 0.7),
    "--lambdas": (("solver", "lambdas"), "0.5,2", [0.5, 2.0]),
    "--rho": (("solver", "rho"), "3.5", 3.5),
    "--max-iter": (("solver", "max_iter"), "9", 9),
    "--step": (("solver", "step"), "0.125", 0.125),
    "--transform": (("transform",), "dft", "dft"),
    "--fractions": (("keep_fractions",), "0.2,0.3", [0.2, 0.3]),
    "--levels": (("levels",), "3", 3),
}

FLAG_CASES = [
    (command, flag)
    for command, (_, flags) in _COMMANDS.items()
    for flag in ("--out", "--seed", *flags)
    if _FLAGS[flag][0] is not None
]


def _at(tree, path):
    for part in path:
        tree = tree[part]
    return tree


class TestFlagTable:
    @pytest.mark.parametrize("command,flag", FLAG_CASES, ids=[c + f for c, f in FLAG_CASES])
    def test_flag_lands_at_its_config_path(self, command, flag):
        path, text, value = FLAG_VALUES[flag]
        cfg = load_config(build_parser().parse_args([command, flag, text]))
        assert _at(config_to_dict(cfg), path) == value
        assert _at(config_to_dict(ExperimentConfig()), path) != value

    def test_every_path_flag_is_covered_and_declared(self):
        path_flags = {flag for flag, (path, _) in _FLAGS.items() if path is not None}
        assert set(FLAG_VALUES) == path_flags
        assert {flag for _, flag in FLAG_CASES} == path_flags

    @pytest.mark.parametrize(
        "argv",
        [["phantom", "--lam", "1"], ["selftest", "--size", "64"], ["simulate", "--solver", "gd"]],
    )
    def test_undeclared_flag_exits_2(self, argv):
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(argv)
        assert err.value.code == 2
