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
    DeviceConfig,
    PRESET_NAMES,
    load_config,
    load_preset,
    preset_path,
)
from .errors import ConfigError, NumericalError
from .jsa import load_jsa_binary
from .simulate import SimulationResult, analysis_report, simulate

__version__ = "1.0.0"

__all__ = [
    "ConfigError",
    "DeviceConfig",
    "NumericalError",
    "PRESET_NAMES",
    "SimulationResult",
    "analysis_report",
    "load_config",
    "load_jsa_binary",
    "load_preset",
    "preset_path",
    "simulate",
    "__version__",
]

