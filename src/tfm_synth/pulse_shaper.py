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
from typing import Sequence

import numpy as np

from .spectral import Field1D, SpectralGrid, gaussian_envelope


class DegenerateInputError(ValueError):
    """All-zero or otherwise vacuous input."""


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

    Row n - 1 belongs to tap n; H is (alpha_n exp(i phi_n)) @ phasors.
    """
    detuning = grid.samples - spec.carrier
    n_idx = np.arange(1, len(spec.taps) + 1)
    return np.exp(
        1j
        * n_idx[:, None]
        * (spec.comb_alignment - detuning * spec.base_delay)[None, :]
    )


def fir_response(spec: PumpSpec, grid: SpectralGrid) -> Field1D:
    """Complex FIR transfer function H on the grid.

    Periodic in omega with period 2 pi / base_delay; |H| <= sum of tap
    amplitudes everywhere.
    """
    if all(tap.amplitude == 0.0 for tap in spec.taps):
        raise DegenerateInputError("all tap amplitudes are zero")
    alphas = np.array([tap.amplitude for tap in spec.taps])
    phis = np.array([tap.phase for tap in spec.taps])
    return Field1D(grid, (alphas * np.exp(1j * phis)) @ tap_phasors(spec, grid))


def shaped_pump(spec: PumpSpec, grid: SpectralGrid) -> Field1D:
    """Shaped pump spectrum: Gaussian envelope times FIR response."""
    envelope = gaussian_envelope(grid, spec.carrier, spec.sigma_p)
    response = fir_response(spec, grid)
    return Field1D(grid, envelope.values * response.values)


def make_taps(amplitudes: Sequence[float], phases: Sequence[float]) -> tuple:
    if len(amplitudes) != len(phases):
        raise ValueError("amplitude and phase lists must have equal length")
    return tuple(Tap(a, p) for a, p in zip(amplitudes, phases))
