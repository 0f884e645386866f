"""Simulation and inverse design of time-frequency-mode biphoton sources.

An integrated source built from an N-tap FIR pump shaper, an M-stage
coupled-ring resonator, and spontaneous four-wave mixing generates
biphoton states entangled in the time-frequency Hermite-Gaussian basis.
This package provides the forward model (pump shaping, coupled-mode
resonances, phase matching, joint spectral amplitude), the analysis
stack (Schmidt decomposition, mode projection, fidelity, pair rate),
and the inverse-design loop that recovers shaper and coupler settings
for a requested target state.
"""

from .config import (
    ConfigError,
    DeviceConfig,
    PRESET_NAMES,
    load_config,
    load_preset,
    preset_path,
    save_config,
)
from .jsa import load_jsa_binary
from .simulate import SimulationResult, analysis_report, simulate

__version__ = "1.0.0"

__all__ = [
    "ConfigError",
    "DeviceConfig",
    "PRESET_NAMES",
    "SimulationResult",
    "analysis_report",
    "fit_adp",
    "load_config",
    "load_jsa_binary",
    "load_preset",
    "preset_path",
    "save_config",
    "simulate",
    "__version__",
]


def __getattr__(name):
    # the one-row ADP fit lives with the inverse loop, which imports
    # scipy.optimize; that import waits until the fit is asked for
    if name == "fit_adp":
        from .inversion import fit_adp

        return fit_adp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
