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

The shaped pump is the Gaussian input pulse times H,
alpha_p(omega) = exp[-(omega - carrier)^2 / 2 sigma_p^2] H(omega).
shaped_pump is the one place that evaluates it: simulate calls it once
per run, the inverse loop's ADP fit for a batch of search vectors at a
time, and its trial score once per candidate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import SpectralGrid


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

    Row n - 1 belongs to tap n; shaped_pump sums them into H.
    """
    detuning = grid.samples - spec.carrier
    n_idx = np.arange(1, len(spec.taps) + 1)
    return np.exp(
        1j
        * n_idx[:, None]
        * (spec.comb_alignment - detuning * spec.base_delay)[None, :]
    )


def shaped_pump(detuning2, sigma_p, amplitudes, phases, phasors):
    """The shaped pump's two factors, (envelope, response): the Gaussian
    envelope exp(-d^2 / 2 sigma_p^2) at the squared detunings detuning2,
    with peak 1 and 1/sqrt(e) half-width sigma_p, and the FIR response
    H = sum_n alpha_n exp(i phi_n) phasors[n - 1] (see tap_phasors).  The
    pump is their product.

    One parameter set is a scalar sigma_p and 1-D amplitudes and phases; a
    batch is a column of sigma_p and rows of taps, and gives one envelope
    and one response per row.  H is summed tap by tap, so a row's numbers
    do not depend on the rows around it.  As a matrix product this would
    be a complex gemv with a handful of rows, which OpenBLAS splits over
    threads from a few thousand frequencies on, and the threads cost more
    than the sum itself.
    """
    envelope = np.exp(-detuning2 / (2.0 * sigma_p * sigma_p))
    weights = amplitudes * np.exp(1j * phases)
    response = weights[..., :1] * phasors[0]
    for n in range(1, len(phasors)):
        response += weights[..., n : n + 1] * phasors[n]
    return envelope, response
