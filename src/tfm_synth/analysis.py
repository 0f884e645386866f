"""State analysis: Schmidt decomposition, TFM projection, fidelity, PGR.

The biphoton state is characterized by the Schmidt weights of the
(quadrature-weighted) JSA matrix, by its projection onto the
Hermite-Gaussian product basis, and by its fidelity against the ideal
maximally entangled target.  The report needs the 16 leading weights,
their first 4 for the higher-order weight, and the purity sum lambda^2
= 1 / K' (Law, Walmsley and Eberly, PRL 84, 5304 (2000)): the purity is
the squared Frobenius norm of the Gram matrix, the leading weights come
from a block Krylov method above 256 points, and neither needs the full
spectrum or the Schmidt mode functions.  Both the pair-confined state
and the target are pure, so the fidelity is their plain overlap; the
Uhlmann form on density matrices is kept in the tests as the reference.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .config import DeviceConfig, TargetConfig
from .errors import NumericalError
from .jsa import Jsa, normalize
from .spectral import SpectralGrid, hg_mode


# the leading Schmidt weights: how many are computed, the Ritz residual
# at which the block Krylov method stops, relative to the largest Ritz
# value, its largest basis in blocks, and the largest Gram matrix that
# the full eigensolve takes directly (measured crossover, 2-vCPU VM)
_LEADING = 16
_RESIDUAL_TOL = 1e-11
_MAX_BLOCKS = 16
_DIRECT_MAX_N = 256


def schmidt_decompose(jsa: Jsa) -> tuple[np.ndarray, float]:
    """The leading Schmidt weights, descending, and the purity sum lambda^2.

    The weights are the eigenvalues of the Gram matrix G = F F^H dA of
    the amplitude F, taken on its smaller side n: the squared singular
    values of F sqrt(dA).  The purity is ||G||_F^2, which is sum lambda^2
    with no eigensolve.  Of the 16 leading weights, those above 1e-14 are
    returned (at least one).  The state is normalized, so lambda_1 <= 1,
    and each weight carries an absolute error of about eps * lambda_1,
    the scale the 1e-14 threshold assumes.

    For n <= 256 the weights come from a full eigensolve of G, which is
    as fast there: on the presets' real states (2-vCPU VM, Gram product
    left out) it took 1.1-1.2 ms against the Krylov route's 1.3-2.6 ms
    at 256, and 5.1-5.3 ms against 2.0-3.7 ms at 512.  Above 256, a
    block Krylov method with Rayleigh-Ritz (Musco and Musco, NeurIPS
    2015) builds an orthonormal basis in blocks of 16: it starts from
    G's 16 largest-norm columns (a stable sort, so the start is
    deterministic), and each new block, G times the last, is
    orthogonalized twice against the basis, each pass a projection and
    a QR.  After each block the top 16 Ritz values theta_k of G on the
    basis are taken, and the method stops once every Ritz residual
    ||G x_k - theta_k x_k|| is at most 1e-11 theta_1.  A Ritz value is
    then off its eigenvalue by about ||r||^2 / gap (Kato-Temple), below
    round-off unless the gap to the rest of the spectrum is under
    1e-7 theta_1.  A spectrum without such decay, which the Krylov
    basis does not resolve within 16 blocks or n / 2 columns, falls back
    to the full eigensolve.  On the presets the method took 3-8 blocks
    and matched an SVD to 1e-15 at 512^2 and 1024^2.
    """
    if not jsa.normalized:
        raise NumericalError("schmidt_decompose requires a normalized JSA")
    a = jsa.amplitude
    if a.shape[0] > a.shape[1]:
        a = a.T
    gram = a @ a.conj().T
    gram *= jsa.cell_area
    weights = _leading_eigenvalues(gram)
    np.clip(weights, 0.0, None, out=weights)
    keep = int(np.sum(weights > 1e-14)) or 1
    return weights[:keep], float(np.vdot(gram, gram).real)


def _leading_eigenvalues(gram: np.ndarray) -> np.ndarray:
    """The _LEADING largest eigenvalues of the Hermitian PSD gram, in
    descending order, by the route schmidt_decompose describes."""
    k, n = _LEADING, gram.shape[0]
    if n <= _DIRECT_MAX_N:
        return np.linalg.eigvalsh(gram)[: -k - 1 : -1]
    max_basis = min(n // 2, _MAX_BLOCKS * k)
    basis = np.empty((n, max_basis), dtype=gram.dtype)
    # the lower triangle of basis^H G basis, which eigh reads
    t = np.zeros((max_basis, max_basis), dtype=gram.dtype)
    norms = np.einsum("ij,ij->j", gram.conj(), gram).real
    block = np.linalg.qr(gram[:, np.argsort(-norms, kind="stable")[:k]])[0]
    m = 0
    while True:
        basis[:, m : m + k] = block
        m += k
        q = basis[:, :m]
        image = gram @ block
        coef = q.conj().T @ image
        t[m - k : m, :m] = coef.conj().T
        theta, y = np.linalg.eigh(t[:m, :m])
        theta = theta[: -k - 1 : -1]
        # G q = q t + (image - q coef) on the last block, so a Ritz
        # vector's residual is that remainder times its last k entries
        image -= q @ coef
        residual = np.linalg.norm(image @ y[m - k :, : -k - 1 : -1], axis=0)
        if residual.max() <= _RESIDUAL_TOL * theta[0]:
            return theta
        if m + k > max_basis:
            return np.linalg.eigvalsh(gram)[: -k - 1 : -1]
        block = np.linalg.qr(image)[0]
        block -= q @ (q.conj().T @ block)
        block = np.linalg.qr(block)[0]


def target_jsa(target: TargetConfig, grid_s: SpectralGrid, grid_i: SpectralGrid) -> Jsa:
    """Ideal JSA sum_k c_k f_k(dw_s) f_k(dw_i), normalized on the grids,
    the f_k taken from hg_basis."""
    coefficients = target.coefficients
    modes_s = hg_basis(coefficients.size, grid_s, target.sigma)
    modes_i = hg_basis(coefficients.size, grid_i, target.sigma)
    amp = np.zeros((grid_s.n_points, grid_i.n_points), dtype=complex)
    for c, fs, fi in zip(coefficients, modes_s, modes_i):
        amp += c * np.outer(fs, fi)
    return normalize(Jsa(grid_s, grid_i, amp))


def hg_basis(dim: int, grid: SpectralGrid, sigma: float) -> np.ndarray:
    """The HG modes of orders 0..dim-1 centred on a grid, one real row each."""
    return np.array([hg_mode(k, grid, sigma).values.real for k in range(dim)])


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
    w, _ = schmidt_decompose(jsa)
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
