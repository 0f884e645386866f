"""State analysis: Schmidt decomposition, TFM projection, fidelity, PGR.

The biphoton state is characterized by the Schmidt weights of the
(quadrature-weighted) JSA matrix, by its projection onto the
Hermite-Gaussian product basis, and by its fidelity against the ideal
maximally entangled target.  Both the pair-confined state and the target
are pure, so the fidelity is their plain overlap; the Uhlmann form on
density matrices is kept as an independent oracle.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .jsa import Jsa, normalize
from .spectral import Field1D, SpectralGrid, hg_mode


class PreconditionError(ValueError):
    """Input violates a documented precondition."""


@dataclass(frozen=True)
class SchmidtResult:
    """Schmidt weights (descending, summing to 1) of a JSA.

    The paired mode functions need a second SVD with singular vectors;
    it runs on the first read of signal_modes or idler_modes.
    """

    weights: np.ndarray
    jsa: Jsa = field(repr=False)

    @cached_property
    def _modes(self):
        ds = self.jsa.grid_s.spacing
        di = self.jsa.grid_i.spacing
        u, _, vh = np.linalg.svd(
            self.jsa.amplitude * np.sqrt(ds * di), full_matrices=False
        )
        keep = len(self.weights)
        signal = tuple(
            Field1D(self.jsa.grid_s, u[:, k] / np.sqrt(ds)) for k in range(keep)
        )
        idler = tuple(
            Field1D(self.jsa.grid_i, vh[k, :] / np.sqrt(di)) for k in range(keep)
        )
        return signal, idler

    @property
    def signal_modes(self) -> tuple:
        return self._modes[0]

    @property
    def idler_modes(self) -> tuple:
        return self._modes[1]


def schmidt_decompose(jsa: Jsa, max_modes: int = 0) -> SchmidtResult:
    """Values-only SVD of the quadrature-weighted amplitude; weights are
    squared singular values.

    max_modes = 0 keeps every mode with weight above 1e-14.
    """
    if not jsa.normalized:
        raise PreconditionError("schmidt_decompose requires a normalized JSA")
    a = jsa.amplitude * np.sqrt(jsa.grid_s.spacing * jsa.grid_i.spacing)
    s = np.linalg.svd(a, compute_uv=False)
    weights = s * s
    if max_modes <= 0:
        keep = int(np.sum(weights > 1e-14)) or 1
    else:
        keep = min(max_modes, len(weights))
    return SchmidtResult(weights[:keep], jsa)


def schmidt_number(weights) -> float:
    """Practical Schmidt number K' = 1 / sum(lambda_k^2)."""
    w = np.asarray(weights, dtype=float)
    if w.size == 0:
        raise PreconditionError("empty weight list")
    return float(1.0 / np.sum(w * w))


def purity(weights) -> float:
    """Spectral purity P = sum(lambda_k^2) = 1 / K'."""
    w = np.asarray(weights, dtype=float)
    if w.size == 0:
        raise PreconditionError("empty weight list")
    return float(np.sum(w * w))


@dataclass(frozen=True)
class TargetState:
    """Maximally entangled D-dimensional TFM target with alternating signs.

    coefficients c_k = (-1)^k / sqrt(D): the state is
    sum_k c_k |k>_s |k>_i in the Hermite-Gaussian mode basis of width sigma.
    """

    dimension: int
    sigma: float             # rad/s, HG basis width
    center_s: float
    center_i: float

    def __post_init__(self):
        if self.dimension < 1 or self.dimension > 4:
            raise ValueError(f"dimension must be in 1..4, got {self.dimension}")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")

    @property
    def coefficients(self) -> np.ndarray:
        d = self.dimension
        return np.array([(-1.0) ** k for k in range(d)]) / np.sqrt(d)


def target_jsa(target: TargetState, grid_s: SpectralGrid, grid_i: SpectralGrid) -> Jsa:
    """Ideal JSA sum_k c_k f_k(dw_s) f_k(dw_i), normalized on the grids."""
    amp = np.zeros((grid_s.n_points, grid_i.n_points), dtype=complex)
    for k, c in enumerate(target.coefficients):
        fs = hg_mode(k, grid_s, target.center_s, target.sigma)
        fi = hg_mode(k, grid_i, target.center_i, target.sigma)
        amp += c * np.outer(fs.values, fi.values)
    return normalize(Jsa(grid_s, grid_i, amp))


def hg_basis(dim: int, grid: SpectralGrid, center: float, sigma: float) -> np.ndarray:
    """The HG modes of orders 0..dim-1 on a grid, one real row each."""
    return np.array([hg_mode(k, grid, center, sigma).values.real for k in range(dim)])


def hg_overlaps(jsa: Jsa, modes_s: np.ndarray, modes_i: np.ndarray) -> np.ndarray:
    """HG pair amplitudes c_kl = <f_k x f_l, F> of real mode rows, as the
    matrix product modes_s F modes_i^T dw_s dw_i."""
    return modes_s @ jsa.amplitude @ modes_i.T * jsa.cell_area


@dataclass(frozen=True)
class TfmProjection:
    """Projection of a JSA onto the d x d HG pair basis."""

    coefficients: np.ndarray      # c_kl, d x d; real for a real JSA
    subspace_weight: float        # sum |c_kl|^2
    higher_order_weight: float    # 1 - sum of the first d Schmidt weights


def project_to_tfm(
    jsa: Jsa, sigma: float, center_s: float, center_i: float, dim: int = 4
) -> TfmProjection:
    """HG pair-basis amplitudes c_kl = <f_k x f_l, F>, the weight they
    carry, and the weight beyond the first d Schmidt modes."""
    if not jsa.normalized:
        raise PreconditionError("project_to_tfm requires a normalized JSA")
    c = hg_overlaps(
        jsa,
        hg_basis(dim, jsa.grid_s, center_s, sigma),
        hg_basis(dim, jsa.grid_i, center_i, sigma),
    )
    weight = float(np.sum(np.abs(c) ** 2))
    if weight < 0.5:
        warnings.warn(
            f"only {weight:.3f} of the state lies in the {dim}x{dim} HG subspace"
        )
    w = schmidt_decompose(jsa).weights
    higher = float(1.0 - np.sum(w[:dim]))
    return TfmProjection(c, weight, higher)


def pair_fidelity(coefficients: np.ndarray, target_coefficients) -> float:
    """Fidelity of the pair-confined state against the target.

    The state keeps only the diagonal pair amplitudes c_kk of the d x d
    projection; it and the target sum_k t_k |kk> (t padded with zeros to
    d) are pure, so the fidelity is |<t|c_kk>|^2 / sum_k |c_kk|^2.
    """
    ckk = np.diagonal(np.asarray(coefficients))
    w = float(np.sum(np.abs(ckk) ** 2))
    if w == 0.0:
        raise PreconditionError("state has no weight on the HG pair modes")
    t = np.zeros(ckk.size)
    t[: len(target_coefficients)] = target_coefficients
    return fidelity_pure(t, ckk) / w


def pair_confined_rho(coefficients: np.ndarray, dim: int = 4) -> np.ndarray:
    """Density matrix of the state confined to the HG pair modes |kk>
    (oracle for pair_fidelity through the Uhlmann form).

    The generated state is dominated by the diagonal pair amplitudes
    c_kk; its reported density matrix keeps only those (renormalized) and
    lives in the same d^2 basis as target_rho, with support on the pair
    positions.  The discarded off-diagonal weight is visible separately
    through subspace_weight.
    """
    c = np.asarray(coefficients)
    if c.shape != (dim, dim):
        raise PreconditionError(
            f"coefficient matrix shape {c.shape} does not match dim {dim}"
        )
    diag = np.diagonal(c)
    w = float(np.sum(np.abs(diag) ** 2))
    if w == 0.0:
        raise PreconditionError("state has no weight on the HG pair modes")
    psi = np.zeros(dim * dim, dtype=complex)
    for k in range(dim):
        psi[k * dim + k] = diag[k] / np.sqrt(w)
    return np.outer(psi, np.conj(psi))


def target_rho(target: TargetState, dim: int = 4) -> np.ndarray:
    """Ideal density matrix of the target in the d^2 HG pair basis
    (oracle for pair_fidelity through the Uhlmann form)."""
    psi = np.zeros(dim * dim, dtype=complex)
    for k, c in enumerate(target.coefficients):
        psi[k * dim + k] = c
    return np.outer(psi, np.conj(psi))


def fidelity(rho_a: np.ndarray, rho_b: np.ndarray) -> float:
    """Uhlmann fidelity [Tr sqrt(sqrt(a) b sqrt(a))]^2 via eigendecomposition."""
    for name, rho in (("first", rho_a), ("second", rho_b)):
        if abs(np.trace(rho).real - 1.0) > 1e-6:
            raise PreconditionError(f"{name} density matrix is not unit trace")
    evals, evecs = np.linalg.eigh(rho_a)
    evals = np.clip(evals.real, 0.0, None)
    sqrt_a = (evecs * np.sqrt(evals)) @ np.conj(evecs.T)
    m = sqrt_a @ rho_b @ sqrt_a
    mvals = np.linalg.eigvalsh(m)
    mvals = np.clip(mvals.real, 0.0, None)
    return float(np.sum(np.sqrt(mvals)) ** 2)


def fidelity_pure(psi_a: np.ndarray, psi_b: np.ndarray) -> float:
    """Pure-state overlap |<a|b>|^2, which the Uhlmann form reduces to."""
    return float(np.abs(np.vdot(psi_a, psi_b)) ** 2)


# ---------------------------------------------------------------------------
# pair generation rate

_C_LIGHT = 299792458.0


@dataclass(frozen=True)
class PgrInput:
    """Inputs to the pulsed-pump pairs-per-pulse estimate."""

    gamma: float          # W^-1 m^-1
    pulse_energy: float   # J
    group_velocity: float # m/s
    radius: float         # main-ring radius, m
    omega_p0: float       # rad/s
    q_tot: float
    q_ext: float
    rep_rate: float       # Hz

    def __post_init__(self):
        for name in (
            "gamma", "pulse_energy", "group_velocity", "radius",
            "omega_p0", "q_tot", "q_ext", "rep_rate",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")

    @classmethod
    def from_raw(
        cls,
        n2: float,
        a_eff: float,
        avg_power: float,
        rep_rate: float,
        group_velocity: float,
        radius: float,
        omega_p0: float,
        kappa: float,
        pump_decay_rates,
    ) -> "PgrInput":
        """Build from raw device constants.

        Q_tot = w_p0 / (2 sum 1/tau_m,p) over all pump stages (worst case:
        every resonance split), Q_ext = w_p0 / kappa^2, gamma = n2 w_p0 /
        (c A_eff), W = P_avg / R_rep.
        """
        gamma = n2 * omega_p0 / (_C_LIGHT * a_eff)
        q_tot = omega_p0 / (2.0 * float(np.sum(pump_decay_rates)))
        q_ext = omega_p0 / (kappa * kappa)
        return cls(
            gamma=gamma,
            pulse_energy=avg_power / rep_rate,
            group_velocity=group_velocity,
            radius=radius,
            omega_p0=omega_p0,
            q_tot=q_tot,
            q_ext=q_ext,
            rep_rate=rep_rate,
        )


def pair_generation_rate(inp: PgrInput):
    """Pairs per pulse and pairs per second for a pulsed pump.

    N_pulse = 3 gamma^2 W^2 V_g^4 / (8 pi^2 R^2 w_p0^2) * Q_tot^6 / Q_ext^4.
    """
    n_pulse = (
        3.0
        * inp.gamma**2
        * inp.pulse_energy**2
        * inp.group_velocity**4
        / (8.0 * np.pi**2 * inp.radius**2 * inp.omega_p0**2)
        * inp.q_tot**6
        / inp.q_ext**4
    )
    return n_pulse, n_pulse * inp.rep_rate
