"""The package's seeded normal stream against numpy's, bit for bit.

``numpy.random`` is the oracle here only: the CLI draws its noise from
``qcrlab._normal`` and never imports it.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from qcrlab import _normal, source_calib
from qcrlab.cli import load_and_validate, main
from qcrlab.units import E_CHARGE, K_B, ghz_to_omega, uev_to_joule

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# 200 small seeds, the edges of the one- and two-word seeds, and two seeds
# above 2**64, of three 32-bit words
SEEDS = [*range(200), 2**32 - 1, 2**32, 2**64 + 5, 3**50]


def numpy_stream(seed, sigma, n):
    """``default_rng(seed).normal(0.0, sigma, n)`` then one scalar draw."""
    rng = np.random.default_rng(seed)
    return np.append(rng.normal(0.0, sigma, n), rng.normal(0.0, sigma))


def test_stream_equals_numpy_bit_for_bit(monkeypatch):
    # 2000 draws per seed, over 4e5 in all: enough that the ziggurat's
    # wedge (exp) and its idx == 0 tail (log1p) are both taken
    calls = {"exp": 0, "log1p": 0}

    def counted(name):
        fn = getattr(math, name)

        def wrapper(x):
            calls[name] += 1
            return fn(x)
        return wrapper

    monkeypatch.setattr(_normal, "exp", counted("exp"))
    monkeypatch.setattr(_normal, "log1p", counted("log1p"))
    draws = 0
    for k, seed in enumerate(SEEDS):
        sigma = 10.0 ** (k % 7 - 3)
        want = numpy_stream(seed, sigma, 2000)
        got = np.array(_normal.normal(seed, sigma, 2001))
        np.testing.assert_array_equal(got.view(np.uint64),
                                      want.view(np.uint64), err_msg=seed)
        draws += got.size
    assert draws >= 400_000
    assert calls["exp"] > 1000 and calls["log1p"] > 50, calls


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_calibrate_noise_is_numpy_default_rng(tmp_path, seed):
    # the payload the calibrate command wrote when it drew its noise from
    # numpy: one stream, a deviate per sample and then one for p_zero
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "cal.json"
    cfg_path.write_text((CONFIG_DIR / "calibrate.json").read_text())
    cfg = load_and_validate(str(cfg_path))
    cal, syn = cfg["calibration"], cfg["synthesize"]
    cp = source_calib.CalibrationParams(
        gamma_tr=cal["gamma_tr_per_s"], gamma_t_bar=cal["gamma_t_bar_per_s"],
        gamma_x=cal["gamma_x_per_s"], n_tr=cal["n_tr"], n_x=cal["n_x"],
        omega_r=ghz_to_omega(cal["f_r_ghz"]),
        delta=uev_to_joule(cal["delta_uev"]))
    volts = np.linspace(syn["bias_min"], syn["bias_max"], syn["points"]) \
        * (2.0 * cp.delta / E_CHARGE)
    floor = syn["gain"] * K_B * syn["t_noise_k"] * cfg["bandwidth_hz"]
    p_out = np.array([syn["gain"] * source_calib.p_tr_model(v, cp)
                      for v in volts]) + floor
    rng = np.random.default_rng(seed)
    p_out = p_out + rng.normal(0.0, syn["noise_sigma_w"], size=len(volts))
    p_zero = floor + float(rng.normal(0.0, syn["noise_sigma_w"]))
    samples = list(zip(volts.tolist(), p_out.tolist()))
    record = source_calib.calibration_pipeline(samples, p_zero, cp,
                                               cfg["bandwidth_hz"])
    want = {"injected": {"gain": syn["gain"], "t_noise_k": syn["t_noise_k"]},
            "record": record.as_dict(), "n_samples": len(samples)}

    assert main(["--config", str(cfg_path), "--out", str(out),
                 "--seed", str(seed)]) == 0
    assert json.loads(out.read_text()) == json.loads(json.dumps(want))
