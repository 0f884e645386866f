"""Phase mismatch and phase-matching function (PMF).

The mismatch is linearized: Delta_k = s (c1 dw_s + c2 dw_i) with
detunings measured from the perfectly phase-matched frequencies; all
zeroth-order terms (including the gamma_0 P nonlinear shift) are absorbed
into the expansion point.  With c1 = -c2 the PMF depends on w_s - w_i
only (the symmetric group-velocity-matched regime).  For any c1 and c2
the linearized PMF is independent of the pump frequency, so the JSA's
anti-diagonal pump route covers every model a config can describe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DispersionModel:
    """Linearized phase-mismatch model over an interaction length L."""

    c1: float = 1.0
    c2: float = -1.0
    slope: float = 1e-9          # (rad/s)^-1 m^-1, detuning -> wavenumber
    length: float = 1e-3         # m

    def __post_init__(self):
        if self.length <= 0:
            raise ValueError(f"length must be > 0, got {self.length}")
        if self.c1 == 0.0 and self.c2 == 0.0:
            raise ValueError("(c1, c2) must not both be zero")


def delta_k_linear(model: DispersionModel, d_omega_s, d_omega_i):
    """Linearized mismatch s (c1 dw_s + c2 dw_i); zero at zero detuning."""
    return model.slope * (model.c1 * np.asarray(d_omega_s) + model.c2 * np.asarray(d_omega_i))


def pmf(model: DispersionModel, d_omega_s, d_omega_i):
    """sinc(L dk / 2) exp(i L dk / 2) for the linearized mismatch."""
    x = 0.5 * model.length * delta_k_linear(model, d_omega_s, d_omega_i)
    return np.sinc(x / np.pi) * np.exp(1j * x)
