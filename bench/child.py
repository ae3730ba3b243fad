"""One benchmark operation in a fresh interpreter.

    python3 bench/child.py STATS [--trace] cli ARGV...
    python3 bench/child.py STATS [--trace] session INPUT OUTPUT

``cli`` imports ``qcrlab.cli`` and calls ``qcrlab.cli.main(ARGV)``.
``session`` imports ``qcrlab`` and runs the reset-pulse library session
described by the JSON file INPUT, writing its results to OUTPUT.

STATS receives, as JSON, the ``time.monotonic()`` reading at which the
import finished (the parent subtracts its own launch time from it to get
the set-up time), the reading at which the work finished, and the exit
code.  With ``--trace`` it also receives the spans and counters recorded
by wrappers installed at the import sites of each layer's public
functions.  Nothing of the program is changed; the wrappers only call
through.
"""

import sys
import time


class Tracer:
    """Spans and counters kept in memory and written when the process ends.

    A span is ``[name, start, end, parent, op]``: ``parent`` is the index
    of the enclosing span (-1 at top level) and ``op`` the operation the
    span belongs to.  Traced runs are single-threaded (``--threads 1``),
    so one stack of open spans suffices.
    """

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.op = 0

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def span(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [nid, clock(), 0.0, self.stack[-1] if self.stack else -1,
                   self.op]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                self.stack.pop()

        return wrapper

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans,
                "counters": self.counters}


# (module, attribute, span name): each attribute is the name through which
# callers reach the function, so replacing it there intercepts every call.
SPANS = [
    ("qcrlab.cli", "load_and_validate", "cli.load_and_validate"),
    ("qcrlab.cli", "run", "cli.run"),
    ("qcrlab.cli", "write_table", "tableio.write_table"),
    ("qcrlab.cli", "read_table", "tableio.read_table"),
    ("qcrlab.spectrum", "forward_rate", "junction.forward_rate"),
    ("qcrlab.spectrum", "transition_rates", "spectrum.transition_rates"),
    ("qcrlab.dynamics", "transition_rates", "spectrum.transition_rates"),
    ("qcrlab.source_calib", "transition_rates", "spectrum.transition_rates"),
    ("qcrlab.spectrum", "rf_transition_rates",
     "spectrum.rf_transition_rates"),
    ("qcrlab.spectrum", "tabulate_spectrum", "spectrum.tabulate_spectrum"),
    ("qcrlab.spectrum", "optimal_bias", "spectrum.optimal_bias"),
    ("qcrlab.lamb", "lamb_shift", "lamb.lamb_shift"),
    ("qcrlab.dynamics", "evolve", "dynamics.evolve"),
    ("qcrlab.ep", "transmission_map", "ep.transmission_map"),
    ("qcrlab.ep", "ep_locus", "ep.ep_locus"),
    ("qcrlab.thermal", "steady_state", "thermal.steady_state"),
    ("qcrlab.source_calib", "source_sweep_point",
     "source_calib.source_sweep_point"),
    ("qcrlab.source_calib", "calibration_pipeline",
     "source_calib.calibration_pipeline"),
]


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of every qcrlab module already imported."""
    import os

    import numpy as np

    from qcrlab.errors import QuadratureError

    def patch(modname, attr, make):
        mod = sys.modules.get(modname)
        if mod is not None:
            setattr(mod, attr, make(getattr(mod, attr)))

    for modname, attr, name in SPANS:
        patch(modname, attr, lambda fn, name=name: tracer.span(name, fn))

    def counted_dos(fn):
        def dos(eps, p):
            tracer.count("junction.dos.calls")
            tracer.count("junction.dos.nodes", np.size(eps))
            return fn(eps, p)
        return dos

    def counted_quad(fn, site):
        # each integrand call is one refinement round of the panel rule
        def adaptive_quad(f, *args, **kwargs):
            tracer.count("quadrature.adaptive_quad.calls")
            tracer.count(site + ".adaptive_quad.calls")

            def integrand(x):
                tracer.count(site + ".quad_rounds")
                return f(x)

            try:
                return fn(integrand, *args, **kwargs)
            except QuadratureError:
                tracer.count("quadrature.errors")
                raise
        return adaptive_quad

    def counted_ivp(fn):
        def solve_ivp(*args, **kwargs):
            sol = fn(*args, **kwargs)
            tracer.count("dynamics.ode_segments")
            tracer.count("dynamics.rhs_evals", sol.nfev)
            return sol
        return solve_ivp

    def counted_bytes(fn):
        def writer(path, *args, **kwargs):
            out = fn(path, *args, **kwargs)
            tracer.count("tableio.bytes_written",
                         os.path.getsize(out if isinstance(out, str)
                                         else path))
            return out
        return writer

    patch("qcrlab.junction", "dos", counted_dos)
    patch("qcrlab.junction", "adaptive_quad",
          lambda fn: counted_quad(fn, "junction"))
    patch("qcrlab.lamb", "adaptive_quad", lambda fn: counted_quad(fn, "lamb"))
    patch("qcrlab.dynamics", "solve_ivp", counted_ivp)
    patch("qcrlab.cli", "write_table", counted_bytes)
    patch("qcrlab.cli", "write_sidecar", counted_bytes)


def session(inp: dict, tracer: Tracer | None) -> dict:
    """Reset-pulse library session: one set-up, then one call per operation.

    Mirrors ``scripts/reset_pulse_demo.py``: rates come from one memoised
    ``DcRateSource``; the pulse bias is the scanned maximum of the net
    damping.  Every module function is looked up at call time so that
    the tracer's wrappers see it.
    """
    import numpy as np

    from qcrlab import dynamics, spectrum
    from qcrlab.junction import DeviceConfig, JunctionParams
    from qcrlab.spectrum import ModeParams
    from qcrlab.units import E_CHARGE, ghz_to_omega, uev_to_joule

    jb, mb = inp["junction"], inp["mode"]
    j = JunctionParams(delta=uev_to_joule(jb["delta_uev"]), dynes=jb["dynes"],
                       r_t=jb["r_t_ohm"], temp_n=jb["temp_n_k"])
    dev = DeviceConfig(junctions=2)
    mode = ModeParams(omega=ghz_to_omega(mb["freq_ghz"]),
                      impedance=mb["impedance_ohm"], alpha=mb["alpha"])
    env = dynamics.DcRateSource(mode, j, dev, epsrel=inp["epsrel"])
    init = dynamics.LadderState.coherent(inp["init_mean_n"], inp["n_cut"])
    ns = 1e-9
    results: dict = {}
    ops: list[dict] = []

    def op(name, fn):
        if tracer is not None:
            tracer.op = len(ops)
        rec = {"name": name, "error": None}
        ops.append(rec)
        try:
            results[name] = fn()
        except Exception as exc:  # a failed operation is counted, not fatal
            rec["error"] = f"{type(exc).__name__}: {exc}"

    def optimal():
        best = spectrum.optimal_bias(mode, j, dev, epsrel=inp["epsrel"])
        return {"voltage": best.voltage, "t_eff": best.t_eff}

    def scan():
        grid = np.linspace(0.0, 2.0 * j.delta / E_CHARGE, inp["scan_points"])
        nets = np.array([env(v).net for v in grid])
        return {"v_on": float(grid[np.argmax(nets)]),
                "programmed": float(nets.max() - nets[0])}

    def sweep(rise_fall):
        v_on = results["scan"]["v_on"]
        widths = ns * np.asarray(inp["widths_ns"])
        t0 = ns * inp["t_start_ns"]
        template = dynamics.PulseSchedule(v_on=v_on, width=widths[0],
                                          rise_fall=rise_fall, t_start=t0)
        t_after = t0 + widths.max() + 2 * rise_fall + ns * inp["tail_ns"]
        return dynamics.extract_gamma_by_pulse_sweep(
            widths, template, env, t_probe_before=t0, t_probe_after=t_after,
            init=init)

    def infidelity(hold):
        return dynamics.reset_infidelity(init, hold,
                                         env(results["scan"]["v_on"]))

    op("optimal_bias", optimal)
    op("scan", scan)
    op("pulse_square", lambda: sweep(0.0))
    op("pulse_ramped", lambda: sweep(ns * inp["rise_fall_ns"]))
    for hold in inp["holds_ns"]:
        op(f"infidelity_{hold:g}ns", lambda h=hold: infidelity(ns * h))
    return {"ops": ops, "results": results}


def main(argv: list[str]) -> int:
    stats_path, rest = argv[0], argv[1:]
    trace = rest[:1] == ["--trace"]
    if trace:
        rest = rest[1:]
    kind, args = rest[0], rest[1:]
    t0 = time.perf_counter()
    if kind == "cli":
        import qcrlab.cli
    else:
        import qcrlab
    import_s = time.perf_counter() - t0
    ready = time.monotonic()

    import json
    import os

    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    if os.path.commonpath([qcrlab.__file__, src]) != src:
        print(f"qcrlab imported from {qcrlab.__file__}, not {src}",
              file=sys.stderr)
        return 4

    tracer = Tracer() if trace else None
    if tracer is not None:
        install(tracer)
    if kind == "cli":
        rc = qcrlab.cli.main(args)
    else:
        with open(args[0]) as fh:
            inp = json.load(fh)
        out = session(inp, tracer)
        with open(args[1], "w") as fh:
            json.dump(out, fh)
        rc = 0
    stats = {"ready": ready, "end": time.monotonic(), "import_s": import_s,
             "rc": rc}
    if tracer is not None:
        stats["trace"] = tracer.dump()
    with open(stats_path, "w") as fh:
        json.dump(stats, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
