"""qcrlab: tunable dissipative environments for superconducting circuits.

Physics layers
--------------
``junction``      Dynes-broadened NIS tunnelling and the forward rate F(E).
``spectrum``      Photon-assisted coupling rates, dc- and drive-controlled.
``lamb``          Principal-value frequency shift of a mode from its bath.
``dynamics``      Fock-ladder master equation, pulse protocols, reset.
``ep``            Non-Hermitian two-mode spectra and exceptional points.
``source_calib``  High-bias photon source and amplifier-chain calibration.
``thermal``       Quantum-limited heat conduction between islands.
``cli``           Config-driven sweeps writing deterministic CSV tables.
"""

__version__ = "0.1.0"

from .dynamics import (LadderState, LadderTrajectory, PulseSchedule,
                       evolve, extract_gamma_by_pulse_sweep,
                       reset_infidelity)
from .ep import (FluxMap, TwoModeParams, eigenvalues, ep_locus,
                 transmission_map)
from .errors import (ConfigError, ConvergenceError, FitError, GridError,
                     NonpositiveTemperatureError, QcrlabError,
                     QuadratureError, TruncationError,
                     UndefinedSteadyStateError)
from .junction import DeviceConfig, JunctionParams, dos, fermi, forward_rate
from .lamb import LambResult, default_grid, lamb_shift, pv_integral
from .quadrature import QuadResult, adaptive_quad
from .source_calib import (CalibrationParams, CalibrationRecord,
                           PhotonSourceParams, SourcePoint,
                           bose_occupation, calibration_pipeline,
                           fit_output_power, fit_reflection, gain_from_fit,
                           junction_occupation, load_power_samples,
                           load_reflection_trace, noise_temperature,
                           output_power, p_tr_model, reflection_model,
                           source_sweep_point, temp_from_occupation,
                           two_bath_occupation)
from .spectrum import (DriveState, ModeParams, OptimalBias, RatePair,
                       SpectralDensity, effective_temperature,
                       fock_matrix_sq, on_off_ratio, optimal_bias,
                       rf_transition_rates, steady_p1, tabulate_spectrum,
                       transition_rates)
from .tableio import Table, read_table, write_sidecar, write_table
from .thermal import (ThermalNetwork, a_coefficient, differential_response,
                      g_quantum, steady_state)

__all__ = [
    "__version__",
    # junction
    "JunctionParams", "DeviceConfig", "dos", "fermi", "forward_rate",
    # spectrum
    "ModeParams", "DriveState", "RatePair", "SpectralDensity",
    "OptimalBias", "fock_matrix_sq", "transition_rates",
    "rf_transition_rates", "steady_p1",
    "effective_temperature", "optimal_bias", "on_off_ratio",
    "tabulate_spectrum",
    # lamb
    "LambResult", "pv_integral", "lamb_shift", "default_grid",
    # dynamics
    "LadderState", "PulseSchedule", "LadderTrajectory", "evolve",
    "extract_gamma_by_pulse_sweep", "reset_infidelity",
    # ep
    "TwoModeParams", "FluxMap", "eigenvalues", "ep_locus",
    "transmission_map",
    # source_calib
    "PhotonSourceParams", "CalibrationParams", "CalibrationRecord",
    "SourcePoint", "output_power", "bose_occupation",
    "temp_from_occupation", "p_tr_model", "fit_output_power",
    "gain_from_fit", "noise_temperature", "reflection_model",
    "fit_reflection", "two_bath_occupation", "junction_occupation",
    "source_sweep_point", "calibration_pipeline", "load_power_samples",
    "load_reflection_trace",
    # thermal
    "ThermalNetwork", "g_quantum", "a_coefficient",
    "differential_response", "steady_state",
    # numerics and tables
    "QuadResult", "adaptive_quad",
    "Table", "read_table", "write_table", "write_sidecar",
    # errors
    "QcrlabError", "QuadratureError", "TruncationError",
    "ConvergenceError", "GridError", "UndefinedSteadyStateError",
    "NonpositiveTemperatureError", "FitError", "ConfigError",
]
