"""End-to-end command-line tests: JSON config in, CSV + sidecar out."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import constants as sc

import qcrlab
from qcrlab import (RatePair, cli, dynamics, junction, lamb, read_table,
                    source_calib, spectrum, write_table)
from qcrlab.cli import _build_junction, load_and_validate, main
from qcrlab.units import E_CHARGE, uev_to_joule

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def load_example(name):
    return json.loads((CONFIG_DIR / name).read_text())


def dump_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def fast_sweep_cfg(tmp_path, **grid):
    cfg = load_example("sweep_bias.json")
    cfg["epsrel"] = 1e-9
    cfg["grid"] = {"start": 0.0, "stop": 1.4, "points": 15, **grid}
    cfg.pop("out", None)
    return dump_cfg(tmp_path, cfg)


# shipped configs cut down to runs of a fraction of a second
SMALL_RUNS = {
    "sweep_bias.json": {"epsrel": 1e-9,
                        "grid": {"start": 0.0, "stop": 1.4, "points": 5}},
    "lamb_shift.json": {"grid": {"start": 0.9, "stop": 0.9, "points": 1},
                        "spectrum": {"points": 301, "epsrel": 1e-6}},
    "ep_map.json": {"flux": {"start": 0.0, "stop": 0.49, "points": 3},
                    "probe": {"f_start_ghz": 5.18, "f_stop_ghz": 5.27,
                              "points": 3}},
    "thermal.json": {"grid": {"start": 0.05, "stop": 0.2, "points": 3}},
    "rf_sweep.json": {"epsrel": 1e-9, "drive": {"fock_cut": 120},
                      "grid": {"start": 0.0, "stop": 50.0, "points": 2}},
    "source.json": {"grid": {"start": 0.05, "stop": 5.0, "points": 5}},
    "calibrate.json": {},
    "reset_sim.json": {"grid": {"start": 0.0, "stop": 80.0, "points": 9}},
}


def small_config(name):
    cfg = load_example(name)
    for block, val in SMALL_RUNS[name].items():
        cfg[block] = {**cfg[block], **val} if isinstance(val, dict) else val
    cfg.pop("out")
    return cfg


# (config, block, key, int value) for each integer-valued field of the
# schema: `integer` types and the enum of `junctions`
INTEGER_FIELDS = [
    ("sweep_bias.json", "grid", "points", 5),
    ("sweep_bias.json", "device", "junctions", 1),
    ("ep_map.json", "flux", "points", 3),
    ("ep_map.json", "probe", "points", 4),
    ("rf_sweep.json", "drive", "l_max", 3),
    ("rf_sweep.json", "drive", "fock_cut", 120),
    ("lamb_shift.json", "spectrum", "points", 301),
    ("reset_sim.json", "ladder", "n_cut", 30),
    ("calibrate.json", "synthesize", "points", 20),
]


class TestConfigHandling:
    def test_examples_all_validate(self):
        names = sorted(p.name for p in CONFIG_DIR.glob("*.json"))
        assert len(names) >= 9
        for name in names:
            cfg = load_and_validate(str(CONFIG_DIR / name))
            assert "command" in cfg

    def test_defaults_are_filled(self, tmp_path):
        cfg = load_example("sweep_bias.json")
        cfg.pop("epsrel", None)
        resolved = load_and_validate(dump_cfg(tmp_path, cfg))
        assert resolved["epsrel"] == 1e-11
        assert resolved["device"]["junctions"] == 2

    def test_schema_violation_exits_2_without_output(self, tmp_path, capsys):
        cfg = load_example("sweep_bias.json")
        cfg["junction"]["delta_uev"] = -5.0
        out = tmp_path / "never.csv"
        code = main(["--config", dump_cfg(tmp_path, cfg),
                     "--out", str(out)])
        assert code == 2
        assert "config error:" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_block_exits_2(self, tmp_path, capsys):
        cfg = load_example("sweep_bias.json")
        del cfg["junction"]
        code = main(["--config", dump_cfg(tmp_path, cfg),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "config error:" in capsys.readouterr().err

    def test_command_mismatch_exits_2(self, tmp_path, capsys):
        path = fast_sweep_cfg(tmp_path)
        code = main(["thermal", "--config", path,
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_missing_out_exits_2(self, tmp_path, capsys):
        code = main(["--config", fast_sweep_cfg(tmp_path)])
        assert code == 2

    def test_bad_cli_numbers_exit_2(self, tmp_path):
        path = fast_sweep_cfg(tmp_path)
        out = str(tmp_path / "x.csv")
        assert main(["--config", path, "--out", out, "--threads", "0"]) == 2
        assert main(["--config", path, "--out", out, "--seed", "-1"]) == 2

    @pytest.mark.parametrize("name", ["reset_sim.json", "calibrate.json"])
    def test_missing_out_dir_exits_2_before_running(self, tmp_path, capsys,
                                                    monkeypatch, name):
        def never(*args):
            raise AssertionError("run was entered")

        monkeypatch.setattr(cli, "run", never)
        out = tmp_path / "missing" / "x.csv"
        code = main(["--config", str(CONFIG_DIR / name), "--out", str(out)])
        assert code == 2
        assert ("config error: output directory does not exist"
                in capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []

    def test_unreadable_config_exits_2(self, tmp_path, capsys):
        code = main(["--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2

    # values the builders reject must already fail schema validation
    @pytest.mark.parametrize("name, block, key, value", [
        ("sweep_bias.json", "junction", "dynes", 1.0),
        ("calibrate.json", "calibration", "delta_uev", 0.0),
    ])
    def test_schema_bound_matches_builder(self, tmp_path, capsys, name,
                                          block, key, value):
        cfg = load_example(name)
        cfg[block][key] = value
        out = tmp_path / "never.csv"
        code = main(["--config", dump_cfg(tmp_path, cfg),
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"config error: invalid config at $.{block}.{key}:" in err
        assert not out.exists()

    # draft 2020-12 counts 5.0 as an integer; the builders must get 5
    @pytest.mark.parametrize("name, block, key, value", INTEGER_FIELDS)
    def test_integral_float_runs_like_its_int(self, tmp_path, monkeypatch,
                                              name, block, key, value):
        outputs = []
        for number in (value, float(value)):
            cfg = small_config(name)
            cfg.setdefault(block, {})[key] = number
            run_dir = tmp_path / type(number).__name__
            run_dir.mkdir()
            monkeypatch.chdir(run_dir)
            assert main(["--config", dump_cfg(run_dir, cfg),
                         "--out", "x.csv"]) == 0
            outputs.append([(run_dir / f).read_bytes()
                            for f in ("x.csv", "x.csv.meta.json")])
        assert outputs[0] == outputs[1]

    def test_integer_fields_are_all_covered(self):
        schema = cli._schema()
        covered = {(schema["properties"][block]["$ref"].split("/")[-1], key)
                   for _, block, key, _ in INTEGER_FIELDS}
        assert covered >= {
            (name, key) for name, sub in schema["$defs"].items()
            for key, prop in sub.get("properties", {}).items()
            if prop.get("type") == "integer" or "enum" in prop
            and all(isinstance(m, int) for m in prop["enum"])}

    @pytest.mark.parametrize("literal",
                             ["NaN", "Infinity", "-Infinity", "-1e999"])
    def test_non_finite_number_exits_2(self, tmp_path, capsys,
                                                 literal):
        cfg = load_example("ep_map.json")
        cfg["two_mode"]["g_mhz"] = "G_MHZ"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg).replace('"G_MHZ"', literal))
        out = tmp_path / "never.csv"
        code = main(["--config", str(path), "--out", str(out)])
        assert code == 2
        assert f"config error: config holds {literal}, which is not a " \
            in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [path]

    # numpy makes an object array of an int beyond int64, and np.linspace
    # then raised a casting error (exit 1)
    def test_int_beyond_int64_runs_like_its_float(self, tmp_path,
                                                  monkeypatch):
        outputs = []
        for literal in (str(10**30), "1e30"):
            cfg = small_config("sweep_bias.json")
            cfg["grid"]["stop"] = "STOP"
            run_dir = tmp_path / literal[-3:]
            run_dir.mkdir()
            path = run_dir / "cfg.json"
            path.write_text(json.dumps(cfg).replace('"STOP"', literal))
            monkeypatch.chdir(run_dir)
            assert main(["--config", str(path), "--out", "x.csv"]) == 0
            outputs.append([(run_dir / f).read_bytes()
                            for f in ("x.csv", "x.csv.meta.json")])
        assert outputs[0] == outputs[1]

    def test_int_beyond_double_exits_2(self, tmp_path, capsys):
        cfg = small_config("sweep_bias.json")
        cfg["grid"]["stop"] = "STOP"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg).replace('"STOP"', "1" + "0" * 399))
        out = tmp_path / "never.csv"
        assert main(["--config", str(path), "--out", str(out)]) == 2
        assert "config error: config holds 1000" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [path]


class TestSweepRuns:
    def test_sweep_bias_outputs_and_determinism(self, tmp_path):
        path = fast_sweep_cfg(tmp_path)
        out = str(tmp_path / "sweep.csv")
        assert main(["sweep-bias", "--config", path, "--out", out]) == 0
        blob_csv = Path(out).read_bytes()
        blob_meta = Path(out + ".meta.json").read_bytes()
        assert main(["--config", path, "--out", out]) == 0
        assert Path(out).read_bytes() == blob_csv
        assert Path(out + ".meta.json").read_bytes() == blob_meta

        t = read_table(out)
        rates = t.column("gamma_down")
        assert rates.max() / rates.min() > 1e3
        meta = json.loads(blob_meta)
        assert meta["command"] == "sweep-bias"
        assert meta["cli"] == {"threads": 1, "seed": 0}
        assert meta["config"]["epsrel"] == 1e-9
        assert "bias_scale_v" in meta

    def test_sweep_bias_without_smearing(self, tmp_path):
        # dynes = 0 is schema-valid; at finite temperature the gap-edge
        # divergence of the density of states must still integrate
        cfg = json.loads(Path(fast_sweep_cfg(tmp_path)).read_text())
        cfg["junction"]["dynes"] = 0.0
        out = str(tmp_path / "sharp.csv")
        assert main(["--config", dump_cfg(tmp_path, cfg, "sharp.json"),
                     "--out", out]) == 0
        rates = read_table(out).column("gamma_down")
        assert np.all(np.isfinite(rates)) and rates.min() > 0.0

    def test_bias_sweeps_make_one_forward_rate_call(self, tmp_path,
                                                    monkeypatch):
        calls = []
        rate = spectrum.forward_rate

        def counted(*args, **kwargs):
            calls.append(1)
            return rate(*args, **kwargs)

        monkeypatch.setattr(spectrum, "forward_rate", counted)
        assert main(["--config", fast_sweep_cfg(tmp_path),
                     "--out", str(tmp_path / "sweep.csv")]) == 0
        assert len(calls) == 1
        cfg = load_example("source.json")
        cfg["epsrel"] = 1e-9
        cfg["grid"] = {"start": 1.0, "stop": 5.0, "points": 9}
        calls.clear()
        assert main(["--config", dump_cfg(tmp_path, cfg, "src.json"),
                     "--out", str(tmp_path / "src.csv")]) == 0
        assert len(calls) == 1
        # the drive axis of rf-sweep too
        cfg = small_config("rf_sweep.json")
        cfg["grid"] = {"start": 0.0, "stop": 50.0, "points": 4}
        calls.clear()
        assert main(["--config", dump_cfg(tmp_path, cfg, "rf.json"),
                     "--out", str(tmp_path / "rf.csv")]) == 0
        assert len(calls) == 1

    def test_lamb_shift_makes_one_quadrature_call_per_bias(self, tmp_path,
                                                          monkeypatch):
        # the principal value is one batched quadrature per spectrum
        calls = []
        quad = lamb.adaptive_quad

        def counted(*args, **kwargs):
            calls.append(1)
            return quad(*args, **kwargs)

        monkeypatch.setattr(lamb, "adaptive_quad", counted)
        grid = lamb.default_grid(1.0, points=301, lo_factor=0.02,
                                 hi_factor=50.0)
        vals = (1.0 + np.tanh(grid - 2.0)) * grid
        lamb.lamb_shift(spectrum.SpectralDensity(grid, vals), 1.0)
        assert len(calls) == 1
        cfg = load_example("lamb_shift.json")
        cfg.pop("out")
        calls.clear()
        assert main(["--config", dump_cfg(tmp_path, cfg),
                     "--out", str(tmp_path / "lamb.csv")]) == 0
        assert len(calls) == cfg["grid"]["points"] == 11

    def test_thread_pool_output_identical(self, tmp_path):
        path = fast_sweep_cfg(tmp_path)
        out1 = str(tmp_path / "t1.csv")
        out4 = str(tmp_path / "t4.csv")
        assert main(["--config", path, "--out", out1]) == 0
        assert main(["--config", path, "--out", out4,
                     "--threads", "4"]) == 0
        assert Path(out1).read_bytes() == Path(out4).read_bytes()

    @pytest.mark.parametrize("name", ["sweep_bias.json", "lamb_shift.json",
                                      "rf_sweep.json", "reset_sim.json",
                                      "source.json", "ep_map.json",
                                      "thermal.json", "calibrate.json"])
    def test_reruns_and_thread_counts_write_identical_bytes(self, tmp_path,
                                                           name):
        cfg = load_example(name)
        cfg.pop("out")
        if name == "reset_sim.json":
            # a time grid in ns that crosses both ramps of the pulse
            cfg["grid"] = {"start": 0.0, "stop": 80.0, "points": 17}
        elif name in ("sweep_bias.json", "lamb_shift.json", "rf_sweep.json"):
            cfg["grid"] = {"start": 0.6, "stop": 1.1, "points": 5}
        else:
            cfg = small_config(name)
        if "spectrum" in cfg:
            cfg["spectrum"] = {"points": 301, "lo_factor": 0.02,
                               "hi_factor": 50.0, "epsrel": 1e-6}
        path = dump_cfg(tmp_path, cfg)
        out = tmp_path / "out.csv"
        meta = tmp_path / "out.csv.meta.json"

        def run(threads):
            # start each run with no cached F(E) interpolant, so that every
            # run fills the cache it reads itself; the seed draws the noise
            # of a calibrate run
            junction._published_bases.cache_clear()
            assert main(["--config", path, "--out", str(out),
                         "--threads", str(threads), "--seed", "3"]) == 0
            return out.read_bytes(), meta.read_bytes()

        one = run(1)
        assert run(1) == one
        two = run(2)
        assert run(2) == two
        assert two[0] == one[0]
        # the sidecar records the thread count and nothing else differs
        meta1, meta2 = json.loads(one[1]), json.loads(two[1])
        assert (meta1["cli"].pop("threads"), meta2["cli"].pop("threads")) \
            == (1, 2)
        assert meta1 == meta2

    def test_thermal_csv_physics(self, tmp_path):
        cfg = load_example("thermal.json")
        cfg["grid"] = {"start": 0.02, "stop": 0.3, "points": 15}
        out = str(tmp_path / "thermal.csv")
        assert main(["--config", dump_cfg(tmp_path, cfg),
                     "--out", out]) == 0
        t = read_table(out)
        tb, ta, gq = t.column("t_b"), t.column("t_a"), t.column("g_quantum")
        assert np.all(np.diff(ta) > 0)
        np.testing.assert_allclose(
            gq, math.pi * sc.k ** 2 * ta / (6.0 * sc.hbar), rtol=1e-12)
        i = int(np.argmin(np.abs(tb - 0.1)))
        assert ta[i] == pytest.approx(0.1, abs=1e-9)

    def test_reset_sim_reaches_ground(self, tmp_path):
        cfg = load_example("reset_sim.json")
        cfg["epsrel"] = 1e-9
        cfg["ladder"]["n_cut"] = 12
        cfg["pulse"]["width_ns"] = 20.0
        cfg["grid"] = {"start": 0.0, "stop": 40.0, "points": 21}
        out = str(tmp_path / "reset.csv")
        assert main(["--config", dump_cfg(tmp_path, cfg),
                     "--out", out]) == 0
        t = read_table(out)
        p0 = t.column("p0")
        assert p0[-1] > 0.9
        meta = json.loads(Path(out + ".meta.json").read_text())
        assert meta["infidelity_final"] == pytest.approx(1.0 - p0[-1],
                                                         abs=1e-12)
        assert meta["rates_on_per_s"]["down"] > meta["rates_off_per_s"]["down"]

    def test_reset_sim_leak_exits_3_without_output(self, tmp_path, capsys):
        cfg = load_example("reset_sim.json")
        cfg["ladder"]["n_cut"] = 2
        cfg["pulse"]["amplitude"] = 0.0
        cfg["pulse"]["width_ns"] = 1.0
        cfg["grid"] = {"start": 0.0, "stop": 10.0, "points": 11}
        out = tmp_path / "leak.csv"
        code = main(["--config", dump_cfg(tmp_path, cfg),
                     "--out", str(out)])
        assert code == 3
        assert "numeric error:" in capsys.readouterr().err
        assert not out.exists()
        assert not Path(str(out) + ".meta.json").exists()

    def test_reset_sim_grid_ending_at_zero_names_grid_stop(self, tmp_path,
                                                           capsys):
        cfg = load_example("reset_sim.json")
        cfg["grid"] = {"start": 0.0, "stop": 0.0, "points": 1}
        out = tmp_path / "reset.csv"
        code = main(["--config", dump_cfg(tmp_path, cfg), "--out", str(out)])
        assert code == 2
        assert "config error: time grid must end after zero: grid.stop" \
            in capsys.readouterr().err
        assert not out.exists()
        assert not Path(str(out) + ".meta.json").exists()

    @pytest.mark.parametrize("where", ["level", "ramp knot"])
    def test_reset_sim_nonfinite_rate_exits_3_naming_bias(
            self, tmp_path, capsys, monkeypatch, where):
        cfg = load_example("reset_sim.json")
        cfg["grid"] = {"start": 0.0, "stop": 80.0, "points": 9}
        v_on = cfg["pulse"]["amplitude"] * cli._bias_scale(
            _build_junction(cfg["junction"]))
        real = dynamics.transition_rates

        def poisoned(v, *args, **kwargs):
            r = real(v, *args, **kwargs)
            bad = v == v_on if where == "level" else 0.0 < v < v_on
            return RatePair(up=r.up, down=math.nan) if bad else r

        monkeypatch.setattr(dynamics, "transition_rates", poisoned)
        out = tmp_path / "nan.csv"
        code = main(["--config", dump_cfg(tmp_path, cfg), "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        # a level is read before the ramp knots, the lowest knot first
        v_bad = (v_on if where == "level"
                 else v_on / (dynamics.RAMP_SAMPLES - 1))
        assert f"at bias {v_bad!r} V are not finite" in err
        assert not out.exists()

    def test_rf_sweep_overlap_overflow_exits_3_without_output(self, tmp_path,
                                                              capsys):
        # rho of the supporting mode is about 40: the Laguerre polynomials
        # overflow below fock_cut = 400
        cfg = load_example("rf_sweep.json")
        cfg["support_mode"].update(alpha=1.0, impedance_ohm=1.3e7)
        cfg["drive"]["fock_cut"] = 400
        cfg["grid"] = {"start": 0.0, "stop": 1.0, "points": 2}
        out = tmp_path / "rf.csv"
        code = main(["--config", dump_cfg(tmp_path, cfg), "--out", str(out)])
        assert code == 3
        assert "fock_cut = 400" in capsys.readouterr().err
        assert not out.exists()

    def test_rf_sweep_truncated_drive_exits_3_naming_mean_n(self, tmp_path,
                                                            capsys):
        # Poisson(50) puts about 1e-5 above n = 80, Poisson(25) far less
        cfg = load_example("rf_sweep.json")
        cfg["drive"]["fock_cut"] = 80
        cfg["grid"] = {"start": 0.0, "stop": 50.0, "points": 3}
        out = tmp_path / "rf.csv"
        code = main(["--config", dump_cfg(tmp_path, cfg), "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert "numeric error: fock_cut=80 keeps only" in err
        assert "at mean_n = 50.0;" in err
        assert not out.exists()

    def test_rf_sweep_drive_activates_rates(self, tmp_path):
        cfg = load_example("rf_sweep.json")
        cfg["drive"]["fock_cut"] = 80
        cfg["grid"] = {"start": 0.0, "stop": 10.0, "points": 3}
        out = str(tmp_path / "rf.csv")
        assert main(["--config", dump_cfg(tmp_path, cfg),
                     "--out", out]) == 0
        t = read_table(out)
        up = t.column("gamma_up")
        assert up[-1] > max(1.0, 10.0 * up[0])
        assert np.all(t.column("gamma_down") > 0)
        meta = json.loads(Path(out + ".meta.json").read_text())
        assert meta["rho_support"] > 0

    def test_source_power_changes_sign(self, tmp_path):
        cfg = load_example("source.json")
        cfg["epsrel"] = 1e-9
        cfg["grid"] = {"start": 0.05, "stop": 5.0, "points": 12}
        out = str(tmp_path / "src.csv")
        assert main(["--config", dump_cfg(tmp_path, cfg),
                     "--out", out]) == 0
        t = read_table(out)
        p = t.column("power (W)")
        assert p.min() < 0 < p.max()
        dbm = t.column("power (dBm)")
        assert np.isnan(dbm[p <= 0]).all()

    def test_source_without_damping_exits_3_without_output(self, tmp_path,
                                                            capsys):
        # a valid config whose junction rates both vanish at zero bias
        cfg = load_example("source.json")
        cfg["junction"].update(dynes=0.0, temp_n_k=0.0)
        cfg["grid"] = {"start": 0.25, "stop": 1.0, "points": 3}
        out = tmp_path / "src.csv"
        code = main(["--config", dump_cfg(tmp_path, cfg), "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert "numeric error: junction channel must damp the mode" in err
        # biases 0.25 and 0.625 sit below the threshold; the first is named
        v = 0.25 * (2.0 * uev_to_joule(cfg["junction"]["delta_uev"])
                    / E_CHARGE)
        assert f"at bias {v!r} V" in err
        assert not out.exists()
        assert not Path(str(out) + ".meta.json").exists()

    def test_lamb_shift_single_bias(self, tmp_path):
        cfg = load_example("lamb_shift.json")
        cfg["spectrum"] = {"points": 801, "lo_factor": 0.02,
                           "hi_factor": 50.0, "epsrel": 1e-6}
        cfg["grid"] = {"start": 0.9, "stop": 0.9, "points": 1}
        out = str(tmp_path / "lamb.csv")
        assert main(["--config", dump_cfg(tmp_path, cfg),
                     "--out", out]) == 0
        t = read_table(out)
        shift_hz = t.column("lamb_shift")[0]
        assert 1e5 < abs(shift_hz) < 1e8

    def test_lamb_shift_sidecar_counts_the_interpolant(self, tmp_path):
        cfg = load_example("lamb_shift.json")
        cfg["grid"] = {"start": 0.6, "stop": 1.1, "points": 2}
        out = tmp_path / "lamb.csv"
        meta = tmp_path / "lamb.csv.meta.json"
        # 31 frequencies ask for 62 energies per bias, at least the 25 that
        # build the interpolant; at zero temperature F(E) is closed-form
        cfg["spectrum"] = {"points": 31, "lo_factor": 0.02,
                           "hi_factor": 50.0, "epsrel": 1e-6}
        for temp, built in ((0.1, True), (0.0, False)):
            cfg["junction"]["temp_n_k"] = temp
            junction._published_bases.cache_clear()
            assert main(["--config", dump_cfg(tmp_path, cfg),
                         "--out", str(out)]) == 0
            side = json.loads(meta.read_text())
            panels, nodes = junction.interpolant_size(
                _build_junction(cfg["junction"]), 1e-6)
            if built:
                assert panels > 0
                assert side["f_interpolant"] == {"panels": panels,
                                                 "nodes": nodes}
            else:
                assert "f_interpolant" not in side

    def test_ep_map_locus_in_sidecar(self, tmp_path):
        cfg = load_example("ep_map.json")
        cfg["flux"] = {"start": 0.0, "stop": 0.49, "points": 5}
        cfg["probe"] = {"f_start_ghz": 5.18, "f_stop_ghz": 5.27, "points": 9}
        g = cfg["two_mode"]["g_mhz"]
        # the shipped kappa1 (0.8 MHz), and 16 MHz at g = 8 MHz, whose
        # exceptional point at 48 MHz a numeric search once dropped
        for k1 in (cfg["two_mode"]["kappa1_mhz"], 16.0):
            cfg["two_mode"]["kappa1_mhz"] = k1
            out = str(tmp_path / f"ep_{k1}.csv")
            assert main(["--config", dump_cfg(tmp_path, cfg),
                         "--out", out]) == 0
            meta = json.loads(Path(out + ".meta.json").read_text())
            locus = meta["ep_locus"]
            assert len(locus) == 1
            assert locus[0]["kappa2_mhz"] == pytest.approx(k1 + 4 * g,
                                                           rel=1e-9)
            assert abs(locus[0]["delta_mhz"]) < 1e-9
            t = read_table(out)
            s21 = t.column("s21_abs")
            assert np.all(np.isfinite(s21))
            assert s21.min() >= 0.0


class TestBenchLambShift:
    """The benchmark's lamb-shift input, read from ``bench/`` only."""

    def run(self, tmp_path):
        cfg = json.loads((BENCH_DIR / "inputs.json").read_text())
        out = tmp_path / "lamb_shift.csv"
        # a cold interpolant cache, as in a fresh CLI process
        junction._published_bases.cache_clear()
        assert main(["--config",
                     dump_cfg(tmp_path, cfg["configs"]["lamb_shift"]),
                     "--out", str(out)]) == 0
        return read_table(str(out))

    def test_matches_reference(self, tmp_path):
        got = self.run(tmp_path)
        ref = read_table(str(BENCH_DIR / "ref" / "lamb_shift.csv"))
        np.testing.assert_array_equal(got.column("bias"), ref.column("bias"))
        np.testing.assert_allclose(got.column("lamb_shift"),
                                   ref.column("lamb_shift"),
                                   rtol=1e-9, atol=0.0)

    def test_integrates_few_energies(self, tmp_path, monkeypatch):
        # each bias point asks F(E) for 2402 distinct energies; the
        # interpolant built at the first serves both
        integrated = []
        direct = junction._rate_at_temperature

        def counted(e, p, epsrel):
            integrated.append(np.size(e))
            return direct(e, p, epsrel)

        monkeypatch.setattr(junction, "_rate_at_temperature", counted)
        self.run(tmp_path)
        assert 0 < sum(integrated) <= 400


class TestCalibrateCommand:
    def test_recovers_injected_chain(self, tmp_path):
        cfg = load_example("calibrate.json")
        out = str(tmp_path / "cal.json")
        assert main(["--config", dump_cfg(tmp_path, cfg), "--out", out,
                     "--seed", "7"]) == 0
        payload = json.loads(Path(out).read_text())
        inj = payload["injected"]
        rec = payload["record"]
        assert payload["n_samples"] == 50
        assert rec["gain"] == pytest.approx(inj["gain"], rel=0.02)
        assert rec["t_noise"] == pytest.approx(inj["t_noise_k"], rel=0.10)

    def test_seed_controls_noise(self, tmp_path):
        cfg = load_example("calibrate.json")
        path = dump_cfg(tmp_path, cfg)
        outs = {}
        for seed in ("7", "7", "8"):
            out = str(tmp_path / f"cal{len(outs)}.json")
            assert main(["--config", path, "--out", out,
                         "--seed", seed]) == 0
            outs[out] = json.loads(Path(out).read_text())["record"]["gain"]
        gains = list(outs.values())
        assert gains[0] == gains[1]
        assert gains[0] != gains[2]

    def test_noiseless_synthesis_is_exact(self, tmp_path):
        cfg = load_example("calibrate.json")
        cfg["synthesize"]["noise_sigma_w"] = 0.0
        out = str(tmp_path / "cal.json")
        assert main(["--config", dump_cfg(tmp_path, cfg),
                     "--out", out]) == 0
        payload = json.loads(Path(out).read_text())
        assert payload["record"]["gain"] == pytest.approx(
            payload["injected"]["gain"], rel=1e-6)
        assert payload["record"]["t_noise"] == pytest.approx(
            payload["injected"]["t_noise_k"], rel=1e-6)

    @pytest.mark.parametrize("key", ["power_csv", "reflection_csv"])
    def test_missing_input_table_exits_2_without_output(self, tmp_path,
                                                        capsys, key):
        cfg = load_example("calibrate.json")
        if key == "power_csv":
            # measured samples in place of synthesised ones
            del cfg["synthesize"]
            cfg["p_out_zero_w"] = 1e-12
        cfg[key] = str(tmp_path / "absent.csv")
        out = tmp_path / "cal.json"
        code = main(["--config", dump_cfg(tmp_path, cfg), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"config error: cannot read table {cfg[key]!r}" in err
        assert not out.exists()
        assert not Path(str(out) + ".meta.json").exists()

    @pytest.mark.parametrize("key,column,value", [
        ("power_csv", "power_W", math.nan),
        ("reflection_csv", "re_gamma", math.nan),
        ("reflection_csv", "im_gamma", math.inf)])
    def test_nonfinite_sample_exits_2_without_output(self, tmp_path, capsys,
                                                     key, column, value):
        cfg = load_example("calibrate.json")
        path = str(tmp_path / "input.csv")
        if key == "power_csv":
            del cfg["synthesize"]
            cfg["p_out_zero_w"] = 1e-12
            names = ["bias_V (V)", "power_W (W)"]
            data = np.column_stack([np.linspace(5e-3, 2e-2, 9),
                                    np.linspace(1e-9, 5e-9, 9)])
        else:
            names = ["freq_Hz (Hz)", "re_gamma", "im_gamma"]
            w = source_calib.reflection_model(
                np.linspace(4.6e9, 4.8e9, 41), 4.7e9, 2e6, 1e6)
            data = np.column_stack([np.linspace(4.6e9, 4.8e9, 41),
                                    w.real, w.imag])
        data[2, [n.split(" (")[0] for n in names].index(column)] = value
        write_table(path, names, data)
        cfg[key] = path
        out = tmp_path / "cal.json"
        code = main(["--config", dump_cfg(tmp_path, cfg), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert (f"config error: {path}: column {column!r} holds {value!r} "
                f"in data row 3, not a finite number") in err
        assert not out.exists()
        assert not Path(str(out) + ".meta.json").exists()

    def test_fits_a_reflection_trace(self, tmp_path):
        # the tolerances of the library's coupling-branch recovery test
        wr, gtr, gint = 2.0 * math.pi * 4.67e9, 2e6, 5e5
        lw = gtr + gint
        w = wr + np.linspace(-20 * lw, 20 * lw, 2001)
        g = source_calib.reflection_model(w, wr, gtr, gint)
        path = str(tmp_path / "trace.csv")
        write_table(path, ["freq_Hz (Hz)", "re_gamma", "im_gamma"],
                    np.column_stack([w / (2.0 * math.pi), g.real, g.imag]))
        cfg = load_example("calibrate.json")
        cfg["reflection_csv"] = path
        out = str(tmp_path / "cal.json")
        assert main(["--config", dump_cfg(tmp_path, cfg), "--out", out]) == 0
        fit = json.loads(Path(out).read_text())["reflection_fit"]
        assert 2.0 * math.pi * 1e9 * fit["f_r_ghz"] == pytest.approx(
            wr, abs=1e-3 * lw)
        assert fit["gamma_tr_per_s"] == pytest.approx(gtr, rel=1e-6)
        assert fit["gamma_int_per_s"] == pytest.approx(gint, rel=1e-6)


class TestDiffCommand:
    def write_pair(self, tmp_path, shift=1.0):
        x = np.linspace(0.0, 1.0, 6)
        pa = str(tmp_path / "a.csv")
        pb = str(tmp_path / "b.csv")
        write_table(pa, ["bias (eV/2Delta)", "lamb_shift (Hz)"],
                    np.column_stack([x, 3e5 * x - 1e5]))
        write_table(pb, ["bias (eV/2Delta)", "lamb_shift (Hz)"],
                    np.column_stack([x + (shift - 1.0), 2e5 * x]))
        return pa, pb

    def test_difference_is_exact(self, tmp_path):
        pa, pb = self.write_pair(tmp_path)
        cfg = {"command": "diff-lamb", "csv_a": pa, "csv_b": pb}
        out = str(tmp_path / "diff.csv")
        assert main(["--config", dump_cfg(tmp_path, cfg),
                     "--out", out]) == 0
        t = read_table(out)
        x = t.data[:, 0]
        np.testing.assert_array_equal(
            t.column("diff lamb_shift (Hz)"), (3e5 * x - 1e5) - 2e5 * x)

    def test_self_difference_is_zero(self, tmp_path):
        pa, _ = self.write_pair(tmp_path)
        cfg = {"command": "diff-lamb", "csv_a": pa, "csv_b": pa}
        out = str(tmp_path / "diff.csv")
        assert main(["--config", dump_cfg(tmp_path, cfg),
                     "--out", out]) == 0
        assert np.all(read_table(out).data[:, 1] == 0.0)

    @pytest.mark.parametrize("key", ["csv_a", "csv_b"])
    def test_missing_input_table_exits_2_without_output(self, tmp_path,
                                                        capsys, key):
        pa, pb = self.write_pair(tmp_path)
        cfg = {"command": "diff-lamb", "csv_a": pa, "csv_b": pb,
               key: str(tmp_path / "absent.csv")}
        out = tmp_path / "diff.csv"
        code = main(["--config", dump_cfg(tmp_path, cfg), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"config error: cannot read table {cfg[key]!r}" in err
        assert not out.exists()
        assert not Path(str(out) + ".meta.json").exists()

    def test_mismatched_grids_exit_3(self, tmp_path, capsys):
        pa, pb = self.write_pair(tmp_path, shift=1.01)
        cfg = {"command": "diff-lamb", "csv_a": pa, "csv_b": pb}
        code = main(["--config", dump_cfg(tmp_path, cfg),
                     "--out", str(tmp_path / "diff.csv")])
        assert code == 3
        assert "numeric error:" in capsys.readouterr().err


class TestOneFailureLine:
    """A failed run prints one line naming what failed and writes nothing."""

    def fails(self, capsys, args, out, named, code=2):
        assert main(args) == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        kind = "config" if code == 2 else "numeric"
        assert err[0].startswith(f"{kind} error: ")
        assert named in err[0]
        assert not os.path.isfile(out)
        assert not os.path.isfile(out + ".meta.json")

    @pytest.mark.parametrize("text", [
        json.dumps(small_config("thermal.json")).encode() + b"\xff",
        b"[" * 100_000 + b"]" * 100_000], ids=["byte-0xff", "deep-nesting"])
    def test_undecodable_config_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "cfg.json"
        path.write_bytes(text)
        out = str(tmp_path / "x.csv")
        self.fails(capsys, ["--config", str(path), "--out", out], out,
                   str(path))

    @pytest.mark.parametrize("directory", ["x.csv", "x.csv.meta.json"])
    def test_directory_in_place_of_output_exits_2(self, tmp_path, capsys,
                                                  monkeypatch, directory):
        def never(*args):
            raise AssertionError("run was entered")

        monkeypatch.setattr(cli, "run", never)
        (tmp_path / directory).mkdir()
        path = dump_cfg(tmp_path, small_config("thermal.json"))
        out = str(tmp_path / "x.csv")
        self.fails(capsys, ["--config", path, "--out", out], out,
                   str(tmp_path / directory))
        assert list((tmp_path / directory).iterdir()) == []

    def test_undecodable_input_table_exits_2(self, tmp_path, capsys):
        pa, pb = TestDiffCommand().write_pair(tmp_path)
        with open(pb, "ab") as fh:
            fh.write(b"\xff\n")
        cfg = {"command": "diff-lamb", "csv_a": pa, "csv_b": pb}
        out = str(tmp_path / "diff.csv")
        self.fails(capsys, ["--config", dump_cfg(tmp_path, cfg),
                            "--out", out], out, pb)

    def test_thermal_a_coeff_is_not_a_key(self, tmp_path, capsys):
        # the response constant comes from the material constants only
        cfg = small_config("thermal.json")
        cfg["thermal"]["a_coeff"] = 123.5
        out = str(tmp_path / "x.csv")
        self.fails(capsys, ["--config", dump_cfg(tmp_path, cfg),
                            "--out", out], out, "'a_coeff'")

    @pytest.mark.parametrize("temp", [0.0, 1e-8, 1e-30, 5e-324])
    def test_zero_and_nanokelvin_temperatures_run(self, tmp_path, temp):
        cfg = small_config("sweep_bias.json")
        cfg["junction"]["temp_n_k"] = temp
        out = tmp_path / "x.csv"
        assert main(["--config", dump_cfg(tmp_path, cfg),
                     "--out", str(out)]) == 0
        assert np.isfinite(read_table(str(out)).data[:, 1:3]).all()

    @pytest.mark.parametrize("seed", ["2", "5"])
    def test_negative_fitted_gain_exits_3(self, tmp_path, capsys, seed):
        # noise this strong tilts the fitted slope of the synthetic sweep
        # below zero: the fit failed, the config is sound
        cfg = small_config("calibrate.json")
        cfg["synthesize"]["noise_sigma_w"] = 1e-6
        out = str(tmp_path / "cal.json")
        self.fails(capsys, ["--config", dump_cfg(tmp_path, cfg), "--out", out,
                            "--seed", seed], out, "fitted slope a = -", code=3)

    @pytest.mark.parametrize("code", [2, 3])
    def test_fresh_process_prints_one_line(self, tmp_path, code):
        # in a fresh interpreter nothing but main writes to stderr
        cfg = small_config("calibrate.json")
        if code == 3:
            cfg["synthesize"]["noise_sigma_w"] = 1e-6
        else:
            cfg["synthesize"]["bias_max"] = 1.0
        src = str(Path(qcrlab.__file__).resolve().parent.parent)
        res = subprocess.run(
            [sys.executable, "-m", "qcrlab", "--config",
             dump_cfg(tmp_path, cfg), "--out", str(tmp_path / "cal.json"),
             "--seed", "2"], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")]))})
        assert res.returncode == code
        assert len(res.stderr.splitlines()) == 1, res.stderr
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]


# fields a property run draws, each within its schema bounds: block ->
# key -> strategy.  Grid ends are drawn as fractions of the shipped span.
FUZZED = {
    "junction": {"temp_n_k": st.floats(0.0, 0.5),
                 "delta_uev": st.floats(50.0, 400.0)},
    "calibration": {"delta_uev": st.floats(50.0, 400.0)},
    "thermal": {"t0_k": st.floats(0.0, 0.5, exclude_min=True)},
    "synthesize": {"noise_sigma_w": st.floats(0.0, 1e-6)},
}


@st.composite
def fuzzed_runs(draw):
    """(config, seed, shift) of a small schema-valid run of any command.
    A diff-lamb config gets its tables from ``TestDiffCommand.write_pair``
    with grid shift ``shift``."""
    name = draw(st.sampled_from(sorted(SMALL_RUNS) + ["diff-lamb"]))
    if name == "diff-lamb":
        return {"command": "diff-lamb"}, 0, draw(st.sampled_from([1.0, 1.01]))
    cfg = small_config(name)
    for block, fields in FUZZED.items():
        for key, values in fields.items():
            if block in cfg and draw(st.booleans()):
                cfg[block][key] = draw(values)
    for block in ("grid", "flux"):
        if block in cfg and draw(st.booleans()):
            start, stop = cfg[block]["start"], cfg[block]["stop"]
            span = stop - start or 1.0
            ends = st.floats(-0.5, 1.5)
            cfg[block].update(start=start + span * draw(ends),
                              stop=start + span * draw(ends))
    return cfg, draw(st.integers(0, 2 ** 32 - 1)), 1.0


class TestCliProperties:
    @settings(max_examples=60, deadline=None)
    @given(fuzzed_runs())
    def test_exit_code_output_and_rerun(self, run):
        cfg, seed, shift = run
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            if cfg["command"] == "diff-lamb":
                cfg["csv_a"], cfg["csv_b"] = TestDiffCommand().write_pair(
                    tmp, shift)
            args = ["--config", dump_cfg(tmp, cfg), "--out",
                    str(tmp / "x.csv"), "--seed", str(seed)]
            out, meta = tmp / "x.csv", tmp / "x.csv.meta.json"

            def run():
                # the first run starts from empty caches, as a fresh
                # process does; the rerun reads what the first one cached
                err = io.StringIO()
                with warnings.catch_warnings(record=True) as caught, \
                        contextlib.redirect_stderr(err):
                    warnings.simplefilter("always")
                    code = main(args)
                # a warning reaches stderr as lines of its own
                return code, err.getvalue().splitlines() + caught

            junction._published_bases.cache_clear()
            code, err = run()
            assert code in (0, 2, 3)
            if code:
                assert len(err) == 1, err
                assert not out.exists() and not meta.exists()
                return
            blobs = out.read_bytes(), meta.read_bytes()
            assert run()[0] == 0
            assert (out.read_bytes(), meta.read_bytes()) == blobs


class TestStartup:
    @staticmethod
    def probe(code, *args):
        # run ``code`` in a fresh interpreter and read the JSON it prints
        src = str(Path(qcrlab.__file__).resolve().parent.parent)
        res = subprocess.run(
            [sys.executable, "-c", code, *args], check=True,
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")]))})
        return json.loads(res.stdout)

    def test_cli_import_defers_scipy_submodules(self, tmp_path):
        # a fresh interpreter: this process has long imported everything.
        # scipy is blocked there, so importing any of it fails.  None of
        # these commands may load scipy, jsonschema, concurrent.futures,
        # logging, numpy.ma or numpy.polynomial, and only a noisy calibrate
        # numpy.random.
        runs = {}

        def add(name, cfg):
            out = str(tmp_path / f"{name}.csv")
            runs[name] = ["--config", dump_cfg(tmp_path, cfg, f"{name}.json"),
                          "--out", out]
            return out

        outs = {cfg["command"]: add(cfg["command"], cfg)
                for cfg in map(small_config, SMALL_RUNS)}
        add("diff-lamb", {"command": "diff-lamb",
                          "csv_a": outs["lamb-shift"],
                          "csv_b": outs["lamb-shift"]})
        quiet = small_config("calibrate.json")
        quiet["synthesize"]["noise_sigma_w"] = 0.0
        add("calibrate-noiseless", quiet)
        wr, gtr, gint = 2.0 * math.pi * 4.67e9, 2e6, 5e5
        w = wr + np.linspace(-20.0, 20.0, 401) * (gtr + gint)
        g = source_calib.reflection_model(w, wr, gtr, gint)
        quiet["reflection_csv"] = str(tmp_path / "trace.csv")
        write_table(quiet["reflection_csv"],
                    ["freq_Hz (Hz)", "re_gamma", "im_gamma"],
                    np.column_stack([w / (2.0 * math.pi), g.real, g.imag]))
        add("calibrate-reflection", quiet)
        # last, since the modules it loads stay loaded
        runs["calibrate"] = runs.pop("calibrate")
        report = self.probe(
            "import json, sys\n"
            "sys.modules['scipy'] = None\n"
            "BLOCKED = ('scipy', 'jsonschema', 'logging',\n"
            "           'concurrent.futures', 'numpy.random', 'numpy.ma',\n"
            "           'numpy.polynomial')\n"
            "def loaded():\n"
            "    return sorted(m for m, mod in sys.modules.items()\n"
            "                  if mod is not None and any(\n"
            "                      m == b or m.startswith(b + '.')\n"
            "                      for b in BLOCKED))\n"
            "import qcrlab\n"
            "report = {'qcrlab': loaded()}\n"
            "import qcrlab.cli, qcrlab.dynamics\n"
            "report['qcrlab.cli'] = loaded()\n"
            "report['solve_ivp'] = callable(\n"
            "    vars(qcrlab.dynamics).get('solve_ivp'))\n"
            "for name, args in json.loads(sys.argv[1]).items():\n"
            "    report[name] = [qcrlab.cli.main(args), loaded()]\n"
            "print(json.dumps(report))\n", json.dumps(runs))
        code, modules = report.pop("calibrate")
        assert code == 0 and modules
        assert all(m.startswith("numpy.random") for m in modules), report
        assert report == {
            "qcrlab": [], "qcrlab.cli": [], "solve_ivp": True,
            **{name: [0, []] for name in runs if name != "calibrate"}}

    def test_cli_import_freezes_the_import_time_objects(self, tmp_path):
        # the ~20,000 objects numpy and the package leave tracked would be
        # traversed by every full collection, the ones CPython forces at
        # exit included; importing the CLI moves them out of the collector
        runs = {name: ["--config", dump_cfg(tmp_path, small_config(name),
                                            name),
                       "--out", str(tmp_path / f"{name}.csv")]
                for name in ("ep_map.json", "calibrate.json")}
        assert load_example("calibrate.json")["synthesize"]["noise_sigma_w"]
        report = self.probe(
            "import gc, json, sys\n"
            "import qcrlab.cli\n"
            "report = {'import': [gc.get_freeze_count(),\n"
            "                     len(gc.get_objects())]}\n"
            "for name, args in json.loads(sys.argv[1]).items():\n"
            "    report[name] = [qcrlab.cli.main(args),\n"
            "                    len(gc.get_objects())]\n"
            "print(json.dumps(report))\n", json.dumps(runs))
        frozen, tracked = report.pop("import")
        assert frozen > 10_000 and tracked < 1_000, (frozen, tracked)
        assert all(rc == 0 and n < 2_000 for rc, n in report.values()), report
        assert report.keys() == runs.keys()

    def test_library_import_leaves_the_collector_alone(self):
        # a host application's cyclic garbage must stay collectable
        assert self.probe(
            "import gc, json, sys\n"
            "import qcrlab\n"
            "print(json.dumps([gc.get_freeze_count(),\n"
            "                  'qcrlab.cli' in sys.modules]))\n") == [0, False]

    def test_value_classes_share_the_record_methods(self):
        # @dataclass compiles these methods with exec for each class it
        # makes, about 1 ms apiece at import; every dataclass of the
        # package takes them from qcrlab._record instead
        import dataclasses
        import importlib
        import pkgutil

        from qcrlab._record import Frozen, Record

        modules = [importlib.import_module(f"qcrlab.{m.name}")
                   for m in pkgutil.iter_modules(qcrlab.__path__)
                   if m.name != "__main__"]
        classes = {obj for m in modules for obj in vars(m).values()
                   if dataclasses.is_dataclass(obj) and isinstance(obj, type)
                   and obj.__module__ == m.__name__}
        assert len(classes) == 17
        mutable = {c.__name__ for c in classes if not issubclass(c, Frozen)}
        assert mutable == {"LadderState", "LadderTrajectory",
                           "SpectralDensity", "Table"}
        for cls in classes:
            base = Frozen if issubclass(cls, Frozen) else Record
            shared = ["__init__", "__eq__", "__repr__", "__hash__"]
            if base is Frozen:
                shared += ["__setattr__", "__delattr__"]
            assert issubclass(cls, Record)
            assert [n for n in shared if n in vars(cls)] == [], cls
            assert all(getattr(cls, n) is getattr(base, n) for n in shared)

    def test_bench_trace_hooks_install(self):
        # bench/child.py --trace wraps module attributes by name; a renamed
        # or dropped import would make install() raise AttributeError
        root = Path(__file__).resolve().parent.parent
        path = os.pathsep.join(
            filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
        probe = (
            "import importlib.util, json, sys\n"
            "import qcrlab, qcrlab.cli\n"
            "spec = importlib.util.spec_from_file_location(\n"
            "    'bench_child', sys.argv[1])\n"
            "child = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(child)\n"
            "child.install(child.Tracer())\n"
            "print(json.dumps(sorted({m for m, _, _ in child.SPANS\n"
            "                         if m not in sys.modules})))\n")
        res = subprocess.run(
            [sys.executable, "-c", probe, str(root / "bench" / "child.py")],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": path})
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout) == []

    def test_module_entry_runs_a_shipped_config(self, tmp_path):
        # python -m qcrlab goes through __main__.py; its table and sidecar
        # are those of an in-process run of the same config
        out = tmp_path / "sweep_bias.csv"
        meta = tmp_path / "sweep_bias.csv.meta.json"
        args = ["--config", str(CONFIG_DIR / "sweep_bias.json"),
                "--out", str(out)]
        src = str(Path(qcrlab.__file__).resolve().parent.parent)
        res = subprocess.run(
            [sys.executable, "-m", "qcrlab", *args], capture_output=True,
            text=True, cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")]))})
        assert res.returncode == 0, res.stderr
        assert res.stderr == ""
        blobs = out.read_bytes(), meta.read_bytes()
        out.unlink()
        meta.unlink()
        assert main(args) == 0
        assert (out.read_bytes(), meta.read_bytes()) == blobs
