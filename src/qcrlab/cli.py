"""Config-driven sweep runner: JSON in, deterministic CSV/JSON out.

Every run takes ``--config <file.json>`` validated against the schema
shipped with the package, computes all sweep points, and only then
writes the output table plus a ``<out>.meta.json`` sidecar holding the
fully-resolved parameters.  Each command is a function of its config
alone: ``sweep-bias`` and ``source`` compute their bias axis, and
``rf-sweep`` its drive axis, in one batched rate call.  ``--threads`` is
accepted and recorded in the sidecar but has no effect; ``--seed`` seeds
only ``calibrate``'s synthetic noise.

The schema is checked in this module, by ``_violations``, which
implements exactly the draft 2020-12 keywords ``schema.json`` uses
(``_KEYWORDS``), and names the violation the reference Python validator's
``best_match`` picks; importing the CLI loads numpy but no schema library.
A config's integral floats in ``integer`` fields reach the builders as
ints, and integer literals beyond int64 are read as floats; ``NaN``,
``Infinity``, ``-Infinity`` and number literals beyond the double range,
such as ``1e999``, are rejected.

Exit codes: 0 success, 2 configuration error, 3 numeric error.  A failed
run prints one ``config error:`` or ``numeric error:`` line to stderr and
writes nothing: a config that is not UTF-8 JSON, an unreadable input
table and an output path that cannot be written as a file are
configuration errors, each found before anything is written.

Importing this module ends with one ``gc.freeze()``.  Everything alive
then (the interpreter, the standard library, numpy and qcrlab's modules,
about 22,000 objects the cyclic collector tracks) lives until a CLI
process exits, so moving it into the collector's permanent generation
spares every later collection, and the full collections CPython forces
while finalising, from traversing it again: a process exits about 20 ms
sooner.  It is done at import, once per process, not in ``main``, whose
in-process callers would have their garbage frozen at every call.
``import qcrlab`` does not import this module, so a host application
that uses the library keeps its collector as it was.
"""

from __future__ import annotations

import argparse
import copy
import functools
import gc
import json
import math
import operator
import sys
from importlib import resources
from typing import NamedTuple

import numpy as np

from . import __version__, dynamics, ep, lamb, source_calib, spectrum
from . import thermal as thermal_mod
from .errors import ConfigError, GridError, QcrlabError
from .junction import DeviceConfig, JunctionParams, interpolant_size
from .spectrum import DriveState, ModeParams
from .tableio import (ensure_parent_dir, read_table, write_json,
                      write_sidecar, write_table)
from .units import E_CHARGE, K_B, ghz_to_omega, uev_to_joule

_TWO_PI = 2.0 * math.pi

_DEVICE_DEFAULTS = {"junctions": 2, "charging_energy_uev": 0.0}

_DEFAULTS: dict[str, dict] = {
    "sweep-bias": {"epsrel": 1e-11, "device": _DEVICE_DEFAULTS},
    "rf-sweep": {
        "epsrel": 1e-11,
        "bias": 0.0,
        "device": _DEVICE_DEFAULTS,
        "drive": {"distribution": "coherent", "l_max": 5, "fock_cut": 40},
    },
    "lamb-shift": {
        "device": _DEVICE_DEFAULTS,
        "spectrum": {"points": 1201, "lo_factor": 0.02, "hi_factor": 50.0,
                     "epsrel": 1e-9},
    },
    "reset-sim": {
        "epsrel": 1e-11,
        "device": _DEVICE_DEFAULTS,
        "pulse": {"amplitude": None, "rise_fall_ns": 0.0, "t_start_ns": 0.0},
        "ladder": {"n_cut": 30, "init_kind": "coherent", "init_mean_n": 1.0},
        "extra": {"gamma_per_s": 0.0, "occupation": 0.0},
    },
    "ep-map": {"two_mode": {"kappa_ext_mhz": None}},
    "source": {
        "epsrel": 1e-11,
        "device": _DEVICE_DEFAULTS,
        "line": {"n_tr": 0.0},
    },
    "calibrate": {
        "calibration": {"gamma_x_per_s": 0.0, "n_tr": 0.0, "n_x": 0.0},
    },
    "thermal": {
        "thermal": {"p_const_w": 0.0, "ep_sigma_w_m3_k5": 0.0,
                    "volume_m3": 0.0},
    },
    "diff-lamb": {},
}

_SYNTH_DEFAULTS = {"noise_sigma_w": 0.0, "points": 50,
                   "bias_min": 5.0, "bias_max": 20.0}


def _merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


@functools.cache
def _schema() -> dict:
    text = resources.files("qcrlab").joinpath("schema.json").read_text()
    return json.loads(text)


# the draft 2020-12 keywords _violations implements; additionalProperties
# only as false.  Annotations ($schema, title, $defs) need no code.
_KEYWORDS = frozenset({
    "$schema", "title", "$defs", "$ref", "type", "enum", "const",
    "minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum",
    "minLength", "required", "properties", "additionalProperties",
    "allOf", "anyOf", "if", "then"})

_JSON_TYPES = {"object": dict, "string": str, "null": type(None),
               "number": (int, float), "integer": (int, float)}

_BOUNDS = {
    "minimum": (operator.lt, "is less than the minimum of"),
    "maximum": (operator.gt, "is greater than the maximum of"),
    "exclusiveMinimum": (operator.le,
                         "is less than or equal to the minimum of"),
    "exclusiveMaximum": (operator.ge,
                         "is greater than or equal to the maximum of"),
}


class _Violation(NamedTuple):
    path: tuple
    keyword: str
    typed: bool     # the value has the type its schema declares
    message: str


def _types(schema: dict) -> list:
    types = schema.get("type", [])
    return [types] if isinstance(types, str) else types


def _is_type(value, name: str) -> bool:
    # a JSON boolean is never a number, and 5.0 is an integer
    return (isinstance(value, _JSON_TYPES[name])
            and not isinstance(value, bool)
            and (name != "integer" or isinstance(value, int)
                 or value.is_integer()))


def _json_equal(a, b) -> bool:
    # 1 == 1.0 but true != 1; the enum and const members are scalars
    return a == b and isinstance(a, bool) == isinstance(b, bool)


def _resolve(ref: str) -> dict:
    node = _schema()
    for part in ref.removeprefix("#/").split("/"):
        node = node[part]
    return node


def _violations(value, schema: dict, path: tuple = ()):
    """Yield every violation of ``schema`` by ``value``, in the order
    draft 2020-12 validation visits them."""
    types = _types(schema)
    typed = any(_is_type(value, t) for t in types)

    def fail(keyword, message):
        return _Violation(path, keyword, typed, message)

    for key, arg in schema.items():
        if key == "$ref":
            yield from _violations(value, _resolve(arg), path)
        elif key == "allOf":
            for sub in arg:
                yield from _violations(value, sub, path)
        elif key == "anyOf":
            if all(any(_violations(value, sub, path)) for sub in arg):
                yield fail(key, f"{value!r} is not valid under any of the "
                                "given schemas")
        elif key == "if":
            if "then" in schema and not any(_violations(value, arg, path)):
                yield from _violations(value, schema["then"], path)
        elif key == "type":
            if not typed:
                names = ", ".join(map(repr, types))
                yield fail(key, f"{value!r} is not of type {names}")
        elif key == "enum":
            if not any(_json_equal(value, m) for m in arg):
                yield fail(key, f"{value!r} is not one of {arg!r}")
        elif key == "const":
            if not _json_equal(value, arg):
                yield fail(key, f"{arg!r} was expected")
        elif key in _BOUNDS:
            beyond, text = _BOUNDS[key]
            if _is_type(value, "number") and beyond(value, arg):
                yield fail(key, f"{value!r} {text} {arg!r}")
        elif key == "minLength":
            if isinstance(value, str) and len(value) < arg:
                short = "should be non-empty" if arg == 1 else "is too short"
                yield fail(key, f"{value!r} {short}")
        elif not isinstance(value, dict):
            continue    # the keywords below apply to objects only
        elif key == "required":
            for name in arg:
                if name not in value:
                    yield fail(key, f"{name!r} is a required property")
        elif key == "properties":
            for name, sub in arg.items():
                if name in value:
                    yield from _violations(value[name], sub, path + (name,))
        elif key == "additionalProperties":
            extra = sorted(k for k in value
                           if k not in schema.get("properties", {}))
            if extra:
                verb = "was" if len(extra) == 1 else "were"
                yield fail(key, "Additional properties are not allowed "
                                f"({', '.join(map(repr, extra))} {verb} "
                                "unexpected)")


def _relevance(v: _Violation) -> tuple:
    # the reference validator's best_match order: shallow, then later
    # sibling, then anything but anyOf, then a value of the wrong type
    return (-len(v.path), v.path, v.keyword != "anyOf", not v.typed)


def _validate(cfg: dict) -> None:
    # best_match names a violation inside a failed anyOf when it outranks
    # its siblings; schema.json's one anyOf fails only on root `required`,
    # alike in both branches, so the anyOf is named itself
    best = max(_violations(cfg, _schema()), key=_relevance, default=None)
    if best is None:
        return
    where = "".join("." + part for part in best.path)
    where = "$" + where if where else "config root"
    raise ConfigError(f"invalid config at {where}: {best.message}")


def _canonical(value, schema: dict):
    """``value`` with an integral float under ``integer`` as an int and
    an enum member as the schema spells it (``2.0`` becomes ``2``)."""
    if "$ref" in schema:
        schema = _resolve(schema["$ref"])
    if isinstance(value, dict):
        props = schema.get("properties", {})
        return {k: _canonical(v, props.get(k, {})) for k, v in value.items()}
    if isinstance(value, float) and "integer" in _types(schema):
        return int(value)
    return next((m for m in schema.get("enum", ()) if _json_equal(value, m)),
                value)


def _finite_float(text: str) -> float:
    # json reads NaN, Infinity and -Infinity, and 1e999 as inf, but every
    # bound comparison with NaN is false
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"config holds {text}, which is not a finite "
                          "number")
    return value


def _config_int(text: str) -> int | float:
    # numpy makes object arrays of ints beyond int64, which its ufuncs
    # refuse; read those as floats.  int64 takes at most 20 characters.
    if len(text) <= 20 and -2**63 <= (value := int(text)) < 2**63:
        return value
    return _finite_float(text)


def load_and_validate(path: str) -> dict:
    """Parse, validate, and default-fill a run configuration."""
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh, parse_float=_finite_float,
                            parse_int=_config_int,
                            parse_constant=_finite_float)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config {path} is not valid UTF-8 JSON: {exc}") \
            from exc
    except RecursionError as exc:
        raise ConfigError(f"config {path} nests too deeply") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    _validate(cfg)
    # the defaults are schema-valid constants, so merging them in keeps
    # the config valid
    resolved = _merge(_DEFAULTS.get(cfg["command"], {}), cfg)
    if "synthesize" in resolved:
        resolved["synthesize"] = _merge(_SYNTH_DEFAULTS,
                                        resolved["synthesize"])
    return _canonical(resolved, _schema())


# ---------------------------------------------------------------- builders

def _build_junction(blk: dict) -> JunctionParams:
    return JunctionParams(delta=uev_to_joule(blk["delta_uev"]),
                          dynes=blk["dynes"], r_t=blk["r_t_ohm"],
                          temp_n=blk["temp_n_k"])


def _build_device(blk: dict) -> DeviceConfig:
    return DeviceConfig(junctions=blk["junctions"],
                        charging_energy=uev_to_joule(
                            blk["charging_energy_uev"]))


def _build_mode(blk: dict) -> ModeParams:
    return ModeParams(omega=ghz_to_omega(blk["freq_ghz"]),
                      impedance=blk["impedance_ohm"], alpha=blk["alpha"],
                      rho=blk.get("rho"))


def _build_drive(blk: dict, mean_n) -> DriveState:
    return DriveState(mean_n=mean_n, distribution=blk["distribution"],
                      l_max=blk["l_max"], fock_cut=blk["fock_cut"])


def _grid_axis(blk: dict) -> np.ndarray:
    start, stop, points = blk["start"], blk["stop"], blk["points"]
    if points > 1 and stop <= start:
        raise ConfigError("grid.stop must exceed grid.start")
    return np.linspace(start, stop, points)


def _bias_scale(j: JunctionParams) -> float:
    # device bias in volts per unit of eV/(2*delta)
    return 2.0 * j.delta / E_CHARGE


def _guarded(fn, *args) -> float:
    try:
        return fn(*args)
    except QcrlabError:
        return math.nan


def _rate_table(axis: str, xs, r: spectrum.RatePair,
                omega: float) -> tuple[list, list]:
    """Columns and rows ``[x, up, down, p1, t_eff]`` over the axis ``xs``."""
    pairs = map(spectrum.RatePair, r.up.tolist(), r.down.tolist())
    rows = [[x, *rx, _guarded(spectrum.steady_p1, rx),
             _guarded(spectrum.effective_temperature, rx, omega)]
            for x, rx in zip(xs, pairs)]
    return [axis, "gamma_up (1/s)", "gamma_down (1/s)", "p1 (1)",
            "t_eff (K)"], rows


# ---------------------------------------------------------------- commands

def _cmd_sweep_bias(cfg: dict) -> tuple:
    j = _build_junction(cfg["junction"])
    dev = _build_device(cfg["device"])
    mode = _build_mode(cfg["mode"])
    scale = _bias_scale(j)
    xs = _grid_axis(cfg["grid"])
    r = spectrum.transition_rates(xs * scale, mode, j, dev,
                                  epsrel=cfg["epsrel"])
    return (*_rate_table("bias (eV/2Delta)", xs, r, mode.omega),
            {"bias_scale_v": scale})


def _cmd_rf_sweep(cfg: dict) -> tuple:
    j = _build_junction(cfg["junction"])
    dev = _build_device(cfg["device"])
    mode = _build_mode(cfg["mode"])
    smode = _build_mode(cfg["support_mode"])
    v = cfg["bias"] * _bias_scale(j)
    ns = _grid_axis(cfg["grid"])
    r = spectrum.rf_transition_rates(v, mode, smode,
                                     _build_drive(cfg["drive"], ns), j, dev,
                                     epsrel=cfg["epsrel"])
    return (*_rate_table("drive_mean_n (1)", ns, r, mode.omega),
            {"bias_v": v, "rho_support": smode.rho_eff})


def _cmd_lamb_shift(cfg: dict) -> tuple:
    j = _build_junction(cfg["junction"])
    dev = _build_device(cfg["device"])
    mode = _build_mode(cfg["mode"])
    scale = _bias_scale(j)
    sp = cfg["spectrum"]
    wgrid = lamb.default_grid(mode.omega, points=sp["points"],
                              lo_factor=sp["lo_factor"],
                              hi_factor=sp["hi_factor"])

    def point(x: float) -> list[float]:
        dens = spectrum.tabulate_spectrum(x * scale, wgrid, mode, j, dev,
                                          epsrel=sp["epsrel"])
        res = lamb.lamb_shift(dens, mode.omega)
        return [x, res.shift / _TWO_PI]

    rows = [point(x) for x in _grid_axis(cfg["grid"])]
    cols = ["bias (eV/2Delta)", "lamb_shift (Hz)"]
    meta: dict = {"bias_scale_v": scale,
                  "spectrum_grid_rad_s": [float(wgrid[0]), float(wgrid[-1])]}
    # deterministic counts of the cached F(E) interpolant; in a fresh
    # process, what this run built
    panels, nodes = interpolant_size(j, sp["epsrel"])
    if panels:
        meta["f_interpolant"] = {"panels": panels, "nodes": nodes}
    return cols, rows, meta


def _cmd_reset_sim(cfg: dict) -> tuple:
    j = _build_junction(cfg["junction"])
    dev = _build_device(cfg["device"])
    mode = _build_mode(cfg["mode"])
    pulse = cfg["pulse"]
    ladder = cfg["ladder"]
    extra = cfg["extra"]
    eps = cfg["epsrel"]
    scale = _bias_scale(j)
    ts_ns = _grid_axis(cfg["grid"])
    if ts_ns[0] < 0:
        raise ConfigError("time grid must start at or after zero")
    if ts_ns[-1] <= 0:
        raise ConfigError("time grid must end after zero: grid.stop must be "
                          "positive and grid.points above 1")

    env = dynamics.DcRateSource(mode, j, dev, epsrel=eps)
    meta: dict = {}
    if pulse["amplitude"] is None:
        best = spectrum.optimal_bias(mode, j, dev, epsrel=eps)
        v_on = best.voltage
        meta["optimal_t_eff_k"] = best.t_eff
    else:
        v_on = pulse["amplitude"] * scale
    meta["v_on_v"] = v_on

    sched = dynamics.PulseSchedule(v_on=v_on,
                                   width=1e-9 * pulse["width_ns"],
                                   rise_fall=1e-9 * pulse["rise_fall_ns"],
                                   t_start=1e-9 * pulse["t_start_ns"])
    n_cut = ladder["n_cut"]
    kind = ladder["init_kind"]
    if kind == "ground":
        init = dynamics.LadderState.ground(n_cut)
    elif kind == "thermal":
        init = dynamics.LadderState.thermal(ladder["init_mean_n"], n_cut)
    else:
        init = dynamics.LadderState.coherent(ladder["init_mean_n"], n_cut)

    traj = dynamics.evolve(init, sched, env,
                           extra_gamma=extra["gamma_per_s"],
                           extra_occupation=extra["occupation"],
                           t_end=float(ts_ns[-1]) * 1e-9,
                           t_eval=1e-9 * ts_ns)
    rows = [[t * 1e9, float(m), float(p0)]
            for t, m, p0 in zip(traj.times, traj.mean_n, traj.ground_pop)]
    cols = ["time (ns)", "mean_n (1)", "p0 (1)"]
    r_on = env(v_on)
    r_off = env(sched.v_off)
    meta.update({
        "infidelity_final": 1.0 - float(traj.ground_pop[-1]),
        "rates_on_per_s": {"up": r_on.up, "down": r_on.down},
        "rates_off_per_s": {"up": r_off.up, "down": r_off.down},
    })
    return cols, rows, meta


def _cmd_ep_map(cfg: dict) -> tuple:
    tm = cfg["two_mode"]
    kappa1 = _TWO_PI * 1e6 * tm["kappa1_mhz"]
    p = ep.TwoModeParams(omega1=ghz_to_omega(tm["f1_ghz"]),
                         kappa1=kappa1,
                         omega2=ghz_to_omega(tm["f2_max_ghz"]),
                         kappa2=_TWO_PI * 1e6 * tm["kappa2_mhz"],
                         g=_TWO_PI * 1e6 * tm["g_mhz"])
    kext = kappa1 if tm["kappa_ext_mhz"] is None \
        else _TWO_PI * 1e6 * tm["kappa_ext_mhz"]
    fm = ep.FluxMap(phi_grid=tuple(_grid_axis(cfg["flux"])),
                    omega2_max=ghz_to_omega(tm["f2_max_ghz"]))
    probe_blk = cfg["probe"]
    if probe_blk["f_stop_ghz"] <= probe_blk["f_start_ghz"]:
        raise ConfigError("probe.f_stop_ghz must exceed probe.f_start_ghz")
    freqs_ghz = np.linspace(probe_blk["f_start_ghz"],
                            probe_blk["f_stop_ghz"], probe_blk["points"])
    amp = ep.transmission_map(fm, p, ghz_to_omega(freqs_ghz),
                              kappa_ext=kext)
    rows = []
    for i, phi in enumerate(fm.phi_grid):
        for k, f in enumerate(freqs_ghz):
            rows.append([phi, f, amp[i, k]])
    cols = ["phi (Phi_0)", "freq (GHz)", "s21_abs (1)"]
    meta: dict = {"kappa_ext_per_s": kext}
    meta["ep_locus"] = [{"delta_per_s": d, "kappa2_per_s": k,
                         "delta_mhz": d / (_TWO_PI * 1e6),
                         "kappa2_mhz": k / (_TWO_PI * 1e6)}
                        for d, k in ep.ep_locus(p)]
    return cols, rows, meta


def _cmd_source(cfg: dict) -> tuple:
    j = _build_junction(cfg["junction"])
    dev = _build_device(cfg["device"])
    mode = _build_mode(cfg["mode"])
    blk = cfg["source"]
    line = cfg["line"]
    src = source_calib.PhotonSourceParams(
        c_coupling=1e-15 * blk["c_coupling_ff"],
        omega0=mode.omega,
        z0=blk["z0_ohm"],
        l_res=1e-3 * blk["l_res_mm"],
        c_per_len=1e-12 * blk["c_per_len_pf_m"])
    xs = _grid_axis(cfg["grid"])
    scale = _bias_scale(j)
    sp = source_calib.source_sweep_point(
        xs * scale, src, mode, j, dev, gamma_tr=line["gamma_tr_per_s"],
        n_tr=line["n_tr"], epsrel=cfg["epsrel"])
    # math.log10 one element at a time: numpy's can differ in the last bit
    dbm = [10.0 * math.log10(p / 1e-3) if p > 0 else math.nan
           for p in sp.power.tolist()]
    rows = np.column_stack([xs, sp.power, dbm, sp.t_res, sp.n_res,
                            sp.gamma_t])
    cols = ["bias (eV/2Delta)", "power (W)", "power (dBm)", "t_res (K)",
            "n_res (1)", "gamma_t (1/s)"]
    return cols, rows, {"bias_scale_v": scale}


def _cmd_thermal(cfg: dict) -> tuple:
    blk = cfg["thermal"]
    net = thermal_mod.ThermalNetwork(t0=blk["t0_k"],
                                     p_const=blk["p_const_w"],
                                     ep_sigma=blk["ep_sigma_w_m3_k5"],
                                     volume=blk["volume_m3"])

    def point(tb: float) -> list[float]:
        ta = thermal_mod.steady_state(net, tb)
        return [tb, ta, thermal_mod.g_quantum(ta)]

    rows = [point(tb) for tb in _grid_axis(cfg["grid"])]
    cols = ["t_b (K)", "t_a (K)", "g_quantum (W/K)"]
    return cols, rows, {"a_coefficient": thermal_mod.a_coefficient(net)}


def _cmd_diff_lamb(cfg: dict) -> tuple:
    ta = read_table(cfg["csv_a"])
    tb = read_table(cfg["csv_b"])
    if ta.data.shape != tb.data.shape \
            or not np.array_equal(ta.data[:, 0], tb.data[:, 0]):
        raise GridError("input tables do not share a sweep grid")
    diff = ta.data[:, -1] - tb.data[:, -1]
    rows = np.column_stack([ta.data[:, 0], diff])
    cols = [ta.columns[0], "diff " + ta.columns[-1]]
    return cols, rows, {"minuend": cfg["csv_a"], "subtrahend": cfg["csv_b"]}


def _run_calibrate(cfg: dict, out: str, seed: int) -> dict:
    cal = cfg["calibration"]
    cp = source_calib.CalibrationParams(
        gamma_tr=cal["gamma_tr_per_s"],
        gamma_t_bar=cal["gamma_t_bar_per_s"],
        gamma_x=cal["gamma_x_per_s"],
        n_tr=cal["n_tr"], n_x=cal["n_x"],
        omega_r=ghz_to_omega(cal["f_r_ghz"]),
        delta=uev_to_joule(cal["delta_uev"]))
    bw = cfg["bandwidth_hz"]

    payload: dict = {}
    if "synthesize" in cfg:
        syn = cfg["synthesize"]
        if syn["bias_max"] <= syn["bias_min"]:
            raise ConfigError("synthesize.bias_max must exceed bias_min")
        scale = 2.0 * cp.delta / E_CHARGE
        volts = np.linspace(syn["bias_min"], syn["bias_max"],
                            syn["points"]) * scale
        noise_floor = syn["gain"] * K_B * syn["t_noise_k"] * bw
        p_out = np.array([syn["gain"] * source_calib.p_tr_model(v, cp)
                          for v in volts]) + noise_floor
        p_zero = noise_floor
        if syn["noise_sigma_w"] > 0:
            rng = np.random.default_rng(seed)
            p_out = p_out + rng.normal(0.0, syn["noise_sigma_w"],
                                       size=len(volts))
            p_zero = p_zero + float(rng.normal(0.0, syn["noise_sigma_w"]))
        samples = list(zip(volts.tolist(), p_out.tolist()))
        payload["injected"] = {"gain": syn["gain"],
                               "t_noise_k": syn["t_noise_k"]}
    else:
        samples = source_calib.load_power_samples(cfg["power_csv"])
        p_zero = cfg["p_out_zero_w"]

    record = source_calib.calibration_pipeline(samples, p_zero, cp, bw)
    payload["record"] = record.as_dict()
    payload["n_samples"] = len(samples)

    if "reflection_csv" in cfg:
        trace = source_calib.load_reflection_trace(cfg["reflection_csv"])
        wr, gtr, gint = source_calib.fit_reflection(trace)
        payload["reflection_fit"] = {
            "f_r_ghz": wr / (_TWO_PI * 1e9),
            "gamma_tr_per_s": gtr,
            "gamma_int_per_s": gint,
        }

    write_json(out, payload)
    return {"n_samples": len(samples)}


_COMMANDS = {
    "sweep-bias": _cmd_sweep_bias,
    "rf-sweep": _cmd_rf_sweep,
    "lamb-shift": _cmd_lamb_shift,
    "reset-sim": _cmd_reset_sim,
    "ep-map": _cmd_ep_map,
    "source": _cmd_source,
    "thermal": _cmd_thermal,
    "diff-lamb": _cmd_diff_lamb,
}


def run(cfg: dict, out: str, threads: int, seed: int) -> None:
    """Execute a validated, default-filled configuration."""
    command = cfg["command"]
    if command == "calibrate":
        extra = _run_calibrate(cfg, out, seed)
    else:
        cols, rows, extra = _COMMANDS[command](cfg)
        write_table(out, cols, rows, comments=[f"qcrlab {command}"])
    sidecar = {
        "command": command,
        "config": cfg,
        "cli": {"threads": threads, "seed": seed},
        "version": __version__,
    }
    sidecar.update(extra)
    write_sidecar(out, sidecar)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qcrlab",
        description="Tunable-environment sweeps for junction-cooled "
                    "circuits: validated JSON config in, CSV + sidecar out.")
    parser.add_argument("command", nargs="?", default=None,
                        help="optional; must match the config's command")
    parser.add_argument("--config", required=True, help="JSON run config")
    parser.add_argument("--out", help="output path (overrides config)")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted and recorded in the sidecar; "
                             "has no effect")
    parser.add_argument("--seed", type=int, default=0,
                        help="RNG seed for noise synthesis")
    args = parser.parse_args(argv)

    try:
        cfg = load_and_validate(args.config)
        if args.command is not None and args.command != cfg["command"]:
            raise ConfigError(
                f"command-line command {args.command!r} does not match "
                f"config command {cfg['command']!r}")
        if args.out:
            cfg["out"] = args.out
        if "out" not in cfg:
            raise ConfigError("no output path: set 'out' in the config or "
                              "pass --out")
        ensure_parent_dir(cfg["out"])
        if args.threads < 1:
            raise ConfigError("--threads must be at least 1")
        if args.seed < 0:
            raise ConfigError("--seed must be nonnegative")
        run(cfg, cfg["out"], args.threads, args.seed)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (QcrlabError, ZeroDivisionError, FloatingPointError,
            OverflowError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    return 0


def entrypoint() -> None:
    sys.exit(main())


# last, so that every import-time object is frozen: see the module docstring
gc.freeze()
