"""Temporal coupled-mode theory of the M-stage coupled-ring source.

A resonance is modeled as a linear chain of ring modes: the first (main)
ring couples to the bus waveguide with field coupling kappa, each further
stage couples to the previous one with mutual coupling mu.  In the
frequency domain the steady state obeys the tridiagonal system

    [i(w - w_x) + 1/tau_m] a_m + i mu_{m-1,m} a_{m-1} + i mu_{m,m+1} a_{m+1}
        = -i kappa S_i delta_{m,1}

and the field enhancement is l_x(w) = sqrt(v_g / L_1) a_1 / S_i, the
bus transmission S_t / S_i = 1 - i kappa a_1 / S_i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .spectral import Field1D, SpectralGrid


@dataclass(frozen=True)
class ResonanceChain:
    """One resonance (idler/pump/signal) of the M-stage coupled-ring chain."""

    omega0: float              # rad/s
    decay_rates: tuple         # 1/tau_m for m = 1..M, s^-1
    kappa: float               # bus field coupling, sqrt(rad/s)
    couplings: tuple           # mu_{m,m+1} for m = 1..M-1, s^-1
    perimeter: float           # main-ring perimeter L_1, m
    group_velocity: float      # m/s

    def __post_init__(self):
        rates = tuple(float(r) for r in self.decay_rates)
        mus = tuple(float(m) for m in self.couplings)
        if self.omega0 <= 0:
            raise ValueError(f"omega0 must be > 0, got {self.omega0}")
        if len(rates) < 1:
            raise ValueError("need at least one stage")
        if any(r <= 0 for r in rates):
            raise ValueError(f"decay rates must be > 0, got {rates}")
        if self.kappa <= 0:
            raise ValueError(f"kappa must be > 0, got {self.kappa}")
        if any(m < 0 for m in mus):
            raise ValueError(f"couplings must be >= 0, got {mus}")
        if len(mus) != len(rates) - 1:
            raise ValueError(
                f"need M-1 couplings for M={len(rates)} stages, got {len(mus)}"
            )
        if self.perimeter <= 0 or self.group_velocity <= 0:
            raise ValueError("perimeter and group velocity must be > 0")
        object.__setattr__(self, "decay_rates", rates)
        object.__setattr__(self, "couplings", mus)

    @property
    def stages(self) -> int:
        return len(self.decay_rates)


def _solve_chain_a1(chain: ResonanceChain, omega: np.ndarray) -> np.ndarray:
    """Main-ring amplitude a_1(omega) for unit input, by Thomas elimination.

    The diagonal entries have positive real part 1/tau_m, so the system is
    strictly diagonally dominant after elimination and never singular; a
    numerical breakdown would raise via the divisions below.
    """
    m_stages = chain.stages
    d = [1j * (omega - chain.omega0) + rate for rate in chain.decay_rates]
    # Backward elimination of stages M..2 onto the main ring: each stage m
    # contributes mu^2 / d_eff to the previous stage's effective diagonal.
    d_eff = d[m_stages - 1]
    for m in range(m_stages - 2, -1, -1):
        mu = chain.couplings[m]
        d_eff = d[m] + (mu * mu) / d_eff
    a1 = -1j * chain.kappa / d_eff
    if not np.all(np.isfinite(a1)):
        raise NumericalError("singular coupled-mode system")
    return a1


def field_enhancement_chain(chain: ResonanceChain, grid: SpectralGrid) -> Field1D:
    """Field enhancement l_x(omega) of the M-stage chain on the grid."""
    a1 = _solve_chain_a1(chain, grid.samples)
    scale = np.sqrt(chain.group_velocity / chain.perimeter)
    return Field1D(grid, scale * a1)


def bus_transmission(chain: ResonanceChain, grid: SpectralGrid) -> Field1D:
    """Complex bus transmission S_t / S_i on the grid."""
    a1 = _solve_chain_a1(chain, grid.samples)
    return Field1D(grid, 1.0 - 1j * chain.kappa * a1)


@dataclass(frozen=True)
class MziCouplerSpec:
    """Tunable MZI coupler: two identical couplers and three phase shifts.

    The composed 2x2 transfer matrix (lossless symmetric convention,
    cross amplitude -i sqrt(k'), bar amplitude sqrt(1-k')) acts as a point
    coupler whose power cross-coupling sets the effective mu.
    """

    k_prime: float             # power coupling of each coupling region
    perimeter_main: float      # L_1, m
    perimeter_aux: float       # L_2, m
    group_velocity: float      # m/s

    def __post_init__(self):
        # k' = 0 reaches no coupling at all: mu_max = 0
        if not 0.0 < self.k_prime < 1.0:
            raise ValueError(f"k_prime must be in (0, 1), got {self.k_prime}")


def mzi_max_mu(spec: MziCouplerSpec) -> float:
    """Largest mu_12 reachable for the given k_prime (balanced arms)."""
    k12_max = 4.0 * spec.k_prime * (1.0 - spec.k_prime)
    return k12_max * np.sqrt(
        spec.group_velocity**2 / (spec.perimeter_main * spec.perimeter_aux)
    )


@dataclass(frozen=True)
class MziPhases:
    phi_h1: float
    phi_h2: float
    phi_h3: float
    finesse: float    # |d phi_h1 / d mu|, rad per (rad/s)


def mzi_phase_for_mu(spec: MziCouplerSpec, target_mu: float) -> MziPhases:
    """Phase shifts realizing a target mu_12.

    Convention: the arm phases are split symmetrically, phi_h1 = -phi_h2 =
    delta/2, and phi_h3 compensates the bar-path phase so the ring
    round-trip phase is unchanged.  With r = target_mu / mu_max the
    balanced MZI's bar amplitude is (1 - 2k') sqrt(r) + i sqrt(1 - r) at
    phi_h1 = arccos(sqrt r), so phi_h3 = -atan2(sqrt(1 - r),
    (1 - 2k') sqrt(r)).  target_mu = 0 returns the fully-bar branch
    delta = pi.  The finesse is 1 / (2 mu_max sqrt(r (1 - r))), infinite
    at r = 0 and r = 1.
    """
    mu_max = mzi_max_mu(spec)
    if target_mu < 0 or target_mu > mu_max:
        raise ValueError(
            f"target mu {target_mu:.6g} outside achievable range [0, {mu_max:.6g}]"
        )
    r = target_mu / mu_max
    root = np.sqrt(r)
    phi_h1 = np.arccos(root)
    phi_h3 = -np.arctan2(np.sqrt(1.0 - r), (1.0 - 2.0 * spec.k_prime) * root)
    slope = 2.0 * mu_max * np.sqrt(r * (1.0 - r))
    finesse = 1.0 / slope if slope > 0 else np.inf
    return MziPhases(phi_h1, -phi_h1, phi_h3, finesse)
