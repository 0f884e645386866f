"""Phase mismatch and phase-matching function (PMF).

Default model: linearized mismatch Delta_k = s (c1 dw_s + c2 dw_i) with
detunings measured from the perfectly phase-matched frequencies; all
zeroth-order terms (including the gamma_0 P nonlinear shift) are absorbed
into the expansion point.  With c1 = -c2 the PMF depends on w_s - w_i
only (the symmetric group-velocity-matched regime).  For any c1 and c2
the linearized PMF is independent of the pump frequency, so the fast JSA
path covers every linear model.

A full dispersion variant accepting a tabulated/callable k(omega) is also
provided for forward checks outside the linear regime; its mismatch
depends on w_p and needs the slow pump quadrature.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class DispersionModel:
    """Linearized phase-mismatch model over an interaction length L."""

    c1: float = 1.0
    c2: float = -1.0
    slope: float = 1e-9          # (rad/s)^-1 m^-1, detuning -> wavenumber
    length: float = 1e-3         # m
    gamma0: float = 0.0          # W^-1 m^-1 (self/cross phase modulation)
    peak_power: float = 0.0      # W
    k_of_omega: Optional[Callable[[np.ndarray], np.ndarray]] = None
    omega_p0: float = 0.0        # expansion points, used by the full variant
    omega_s0: float = 0.0
    omega_i0: float = 0.0

    def __post_init__(self):
        if self.length <= 0:
            raise ValueError(f"length must be > 0, got {self.length}")
        if self.c1 == 0.0 and self.c2 == 0.0:
            raise ValueError("(c1, c2) must not both be zero")


def delta_k_linear(model: DispersionModel, d_omega_s, d_omega_i):
    """Linearized mismatch s (c1 dw_s + c2 dw_i); zero at zero detuning."""
    return model.slope * (model.c1 * np.asarray(d_omega_s) + model.c2 * np.asarray(d_omega_i))


def delta_k_full(model: DispersionModel, omega_p, omega_s, omega_i):
    """Mismatch from a tabulated k(omega): four wavevector terms minus gamma_0 P."""
    if model.k_of_omega is None:
        raise ValueError("model has no k(omega) table")
    k = model.k_of_omega
    return (
        k(np.asarray(omega_p))
        + k(np.asarray(omega_s) + np.asarray(omega_i) - np.asarray(omega_p))
        - k(np.asarray(omega_s))
        - k(np.asarray(omega_i))
        - model.gamma0 * model.peak_power
    )


def _sinc_phase(x):
    return np.sinc(np.asarray(x) / np.pi) * np.exp(1j * np.asarray(x))


def pmf(model: DispersionModel, d_omega_s, d_omega_i):
    """sinc(L dk / 2) exp(i L dk / 2) for the linearized mismatch."""
    x = 0.5 * model.length * delta_k_linear(model, d_omega_s, d_omega_i)
    return _sinc_phase(x)


def pmf_full(model: DispersionModel, omega_p, omega_s, omega_i):
    """PMF from the tabulated-dispersion mismatch (slow-path use)."""
    x = 0.5 * model.length * delta_k_full(model, omega_p, omega_s, omega_i)
    return _sinc_phase(x)


def orientation_angle(c1: float, c2: float) -> float:
    """Phase-matching orientation angle -arctan(c1/c2) in degrees.

    c2 = 0 returns +/-90 degrees by the limit convention.
    """
    if c2 == 0.0:
        warnings.warn("c2 = 0: orientation angle fixed to +/-90 deg by convention")
        return -90.0 if c1 > 0 else 90.0
    return float(np.degrees(-np.arctan(c1 / c2)))
