"""N-tap FIR pump pulse shaper.

The shaper splits the input pulse into N delayed, amplitude- and
phase-modulated copies and recombines them, giving the frequency-domain
transfer function

    H(omega) = sum_{n=1..N} alpha_n exp[i (phi_n + n theta - n (omega - carrier) tau)]

Frequencies enter as detuning from the pump carrier.  theta is the comb
alignment phase: evaluating the delay phasor at the absolute optical
frequency instead of the detuning shifts tap n by n * (carrier * tau mod
2 pi), so the alignment of the FIR comb against the resonance grid is
set by digits of the carrier far below its quoted precision.  It is
therefore kept as an explicit calibration input (zero by default).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .spectral import Field1D, SpectralGrid, gaussian_envelope


@dataclass(frozen=True)
class Tap:
    """One FIR tap: amplitude in [0, 1] and phase in radians."""

    amplitude: float
    phase: float

    def __post_init__(self):
        if not 0.0 <= self.amplitude <= 1.0:
            raise ValueError(f"tap amplitude must be in [0, 1], got {self.amplitude}")


@dataclass(frozen=True)
class PumpSpec:
    """Gaussian input pulse plus the FIR tap configuration."""

    sigma_p: float          # rad/s, 1/sqrt(e) half-width of the field envelope
    carrier: float          # rad/s
    taps: tuple
    base_delay: float       # s
    comb_alignment: float = 0.0   # rad, per-tap-order alignment phase theta

    def __post_init__(self):
        taps = tuple(self.taps)
        if len(taps) < 1:
            raise ValueError("need at least one tap")
        if self.base_delay <= 0:
            raise ValueError(f"base_delay must be > 0, got {self.base_delay}")
        if self.sigma_p <= 0:
            raise ValueError(f"sigma_p must be > 0, got {self.sigma_p}")
        object.__setattr__(self, "taps", taps)


def tap_phasors(spec: PumpSpec, grid: SpectralGrid) -> np.ndarray:
    """Per-tap delay phasors exp[i n (theta - (omega - carrier) tau)].

    Row n - 1 belongs to tap n; H is tap_sum(weights, phasors).
    """
    detuning = grid.samples - spec.carrier
    n_idx = np.arange(1, len(spec.taps) + 1)
    return np.exp(
        1j
        * n_idx[:, None]
        * (spec.comb_alignment - detuning * spec.base_delay)[None, :]
    )


def tap_sum(weights: np.ndarray, phasors: np.ndarray) -> np.ndarray:
    """H = sum_n c_n phasors[n - 1] of the complex tap weights
    c_n = alpha_n exp(i phi_n); a stack of weight rows gives one H per row.

    The products are summed tap by tap, so a row's H does not depend on
    the rows around it.  As a matrix product this would be a complex gemv
    with a handful of rows, which OpenBLAS splits over threads from a few
    thousand frequencies on, and the threads cost more than the sum
    itself.
    """
    h = weights[..., :1] * phasors[0]
    for n in range(1, len(phasors)):
        h += weights[..., n : n + 1] * phasors[n]
    return h


def fir_response(spec: PumpSpec, grid: SpectralGrid) -> Field1D:
    """Complex FIR transfer function H on the grid.

    Periodic in omega with period 2 pi / base_delay; |H| <= sum of tap
    amplitudes everywhere.
    """
    if all(tap.amplitude == 0.0 for tap in spec.taps):
        raise NumericalError("all tap amplitudes are zero")
    alphas = np.array([tap.amplitude for tap in spec.taps])
    phis = np.array([tap.phase for tap in spec.taps])
    return Field1D(grid, tap_sum(alphas * np.exp(1j * phis), tap_phasors(spec, grid)))


def apply_envelope(spec: PumpSpec, response: Field1D) -> Field1D:
    """Shaped pump spectrum from a FIR response already evaluated on its
    grid: the Gaussian envelope times the response."""
    grid = response.grid
    envelope = gaussian_envelope(grid, spec.carrier, spec.sigma_p)
    return Field1D(grid, envelope.values * response.values)
