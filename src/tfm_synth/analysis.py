"""State analysis: Schmidt decomposition, TFM projection, fidelity, PGR.

The biphoton state is characterized by the Schmidt weights of the
(quadrature-weighted) JSA matrix, by its projection onto the
Hermite-Gaussian product basis, and by its fidelity against the ideal
maximally entangled target.  K', purity and the higher-order weight need
the weights only, not the Schmidt mode functions (Law, Walmsley and
Eberly, PRL 84, 5304 (2000)).  Both the pair-confined state and the
target are pure, so the fidelity is their plain overlap; the Uhlmann
form on density matrices is kept in the tests as the reference.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .config import DeviceConfig, TargetConfig
from .errors import NumericalError
from .jsa import Jsa, normalize
from .spectral import SpectralGrid, hg_mode


def schmidt_decompose(jsa: Jsa) -> np.ndarray:
    """Schmidt weights (descending, summing to 1) as the eigenvalues of
    the Gram matrix F F^H dA of the amplitude F, taken on its smaller
    side; those above 1e-14 are kept.

    The weights are the squared singular values of F sqrt(dA).  The
    state is normalized, so the largest weight is at most 1, and the
    symmetric eigensolver returns every weight to an absolute error of
    about eps * lambda_max, the scale the 1e-14 threshold assumes.
    """
    if not jsa.normalized:
        raise NumericalError("schmidt_decompose requires a normalized JSA")
    a = jsa.amplitude
    if a.shape[0] > a.shape[1]:
        a = a.T
    gram = a @ a.conj().T
    gram *= jsa.cell_area
    weights = np.linalg.eigvalsh(gram)[::-1]
    np.clip(weights, 0.0, None, out=weights)
    keep = int(np.sum(weights > 1e-14)) or 1
    return weights[:keep]


def schmidt_number(weights) -> float:
    """Practical Schmidt number K' = 1 / sum(lambda_k^2)."""
    w = np.asarray(weights, dtype=float)
    if w.size == 0:
        raise NumericalError("empty weight list")
    return float(1.0 / np.sum(w * w))


def purity(weights) -> float:
    """Spectral purity P = sum(lambda_k^2) = 1 / K'."""
    w = np.asarray(weights, dtype=float)
    if w.size == 0:
        raise NumericalError("empty weight list")
    return float(np.sum(w * w))


def target_jsa(target: TargetConfig, grid_s: SpectralGrid, grid_i: SpectralGrid) -> Jsa:
    """Ideal JSA sum_k c_k f_k(dw_s) f_k(dw_i), normalized on the grids."""
    amp = np.zeros((grid_s.n_points, grid_i.n_points), dtype=complex)
    for k, c in enumerate(target.coefficients):
        fs = hg_mode(k, grid_s, grid_s.center, target.sigma)
        fi = hg_mode(k, grid_i, grid_i.center, target.sigma)
        amp += c * np.outer(fs.values, fi.values)
    return normalize(Jsa(grid_s, grid_i, amp))


def hg_basis(dim: int, grid: SpectralGrid, sigma: float) -> np.ndarray:
    """The HG modes of orders 0..dim-1 centred on a grid, one real row each."""
    return np.array(
        [hg_mode(k, grid, grid.center, sigma).values.real for k in range(dim)]
    )


@dataclass(frozen=True)
class TfmProjection:
    """Projection of a JSA onto the 4 x 4 HG pair basis."""

    coefficients: np.ndarray      # c_kl, 4 x 4; real for a real JSA
    subspace_weight: float        # sum |c_kl|^2
    higher_order_weight: float    # 1 - sum of the first 4 Schmidt weights


def project_to_tfm(jsa: Jsa, sigma: float) -> TfmProjection:
    """HG pair-basis amplitudes c_kl = <f_k x f_l, F> for k, l < 4 (the
    largest target dimension), with the modes centred on the JSA's grids,
    the weight they carry, and the weight beyond the first 4 Schmidt
    modes.  The amplitudes are the matrix product modes_s F modes_i^T
    dw_s dw_i of the real HG mode rows."""
    if not jsa.normalized:
        raise NumericalError("project_to_tfm requires a normalized JSA")
    modes_s = hg_basis(4, jsa.grid_s, sigma)
    modes_i = hg_basis(4, jsa.grid_i, sigma)
    c = modes_s @ jsa.amplitude @ modes_i.T * jsa.cell_area
    weight = float(np.sum(np.abs(c) ** 2))
    if weight < 0.5:
        warnings.warn(f"only {weight:.3f} of the state lies in the 4x4 HG subspace")
    w = schmidt_decompose(jsa)
    higher = float(1.0 - np.sum(w[:4]))
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
        raise NumericalError("state has no weight on the HG pair modes")
    t = np.zeros(ckk.size)
    t[: len(target_coefficients)] = target_coefficients
    return fidelity_pure(t, ckk) / w


def fidelity_pure(psi_a: np.ndarray, psi_b: np.ndarray) -> float:
    """Pure-state overlap |<a|b>|^2, which the Uhlmann fidelity reduces to."""
    return float(np.abs(np.vdot(psi_a, psi_b)) ** 2)


# ---------------------------------------------------------------------------
# pair generation rate

_C_LIGHT = 299792458.0


def pair_generation_rate(cfg: DeviceConfig) -> dict:
    """Pairs per pulse and per second for the config's pulsed pump, with
    the quantities derived on the way, keyed as `tfm-synth pgr` prints them.

    gamma = n2 w_p0 / (c A_eff), W = P_avg / R_rep, Q_tot = w_p0 / (2 sum
    1/tau_m,p) over all pump stages (worst case: every resonance split),
    Q_ext = w_p0 / kappa^2 and R = L_1 / (2 pi) give

        N_pulse = 3 gamma^2 W^2 V_g^4 / (8 pi^2 R^2 w_p0^2) * Q_tot^6 / Q_ext^4.

    A derived quantity that underflows to 0 or is not finite, a power that
    overflows on the way, or a result that is not finite is a
    NumericalError.
    """
    pgr, chain = cfg.pgr, cfg.pump_resonance
    omega_p0 = chain.omega0
    with np.errstate(divide="ignore", over="ignore"):
        derived = {
            "gamma": pgr.n2 * omega_p0 / (_C_LIGHT * pgr.a_eff),
            "pulse_energy": pgr.avg_power / pgr.rep_rate,
            "q_tot": omega_p0 / (2.0 * np.sum(chain.decay_rates)),
            # numpy's division: kappa^2 may underflow to 0
            "q_ext": np.float64(omega_p0) / (chain.kappa * chain.kappa),
        }
    for name, value in derived.items():
        if not 0.0 < value < np.inf:
            raise NumericalError(
                f"{name} = {value:g} is out of floating-point range"
            )
    gamma, pulse_energy, q_tot, q_ext = (float(v) for v in derived.values())
    radius = chain.perimeter / (2.0 * np.pi)
    try:
        n_pulse = (
            3.0
            * gamma**2
            * pulse_energy**2
            * chain.group_velocity**4
            / (8.0 * np.pi**2 * radius**2 * omega_p0**2)
            * q_tot**6
            / q_ext**4
        )
    except OverflowError as exc:
        raise NumericalError(f"pair rate overflows: {exc}") from None
    rate = n_pulse * pgr.rep_rate
    if not (np.isfinite(n_pulse) and np.isfinite(rate)):
        raise NumericalError(
            f"pair rate is not finite: {n_pulse} pairs per pulse, {rate} Hz"
        )
    return {
        "pairs_per_pulse": n_pulse,
        "pgr_hz": rate,
        "q_tot": q_tot,
        "q_ext": q_ext,
        "gamma": gamma,
        "pulse_energy": pulse_energy,
    }
