"""Reference implementations the tests compare the package against.

Each one computes a quantity the package computes another way: a direct
sum, a closed form, a per-row quadrature, a density-matrix formula or
the library optimizer whose loop the package ports.
None of them runs in the program; test files import them as
``import oracles``.
"""

import numpy as np
from scipy.optimize import least_squares, minimize

from tfm_synth.config import TargetConfig
from tfm_synth.errors import NumericalError
from tfm_synth.inversion import _FIT_GTOL, _FIT_MAX_NFEV, _FIT_XTOL, _magnitude_fit
from tfm_synth.jsa import Jsa, _sum_grid, normalize
from tfm_synth.phase_matching import DispersionModel, pmf
from tfm_synth.pulse_shaper import Tap
from tfm_synth.resonator import MziCouplerSpec, ResonanceChain
from tfm_synth.spectral import Field1D, SpectralGrid


def make_taps(amplitudes, phases) -> tuple:
    """FIR taps from parallel amplitude and phase lists."""
    if len(amplitudes) != len(phases):
        raise ValueError("amplitude and phase lists must have equal length")
    return tuple(Tap(a, p) for a, p in zip(amplitudes, phases))


def inner_product(a, b) -> complex:
    """Grid quadrature <a, b> = sum conj(a) b dw of two Field1D;
    conjugate-linear in a."""
    if a.grid != b.grid:
        raise NumericalError("inner_product requires identical grids")
    return complex(np.sum(np.conj(a.values) * b.values) * a.grid.spacing)


# ---------------------------------------------------------------------------
# JSA assembly

def convolve_direct(pump_times_lp: Field1D) -> Field1D:
    """Direct-sum self-convolution on the sum-frequency grid; the O(n^2)
    reference for jsa.AdpModel's FFT."""
    values = pump_times_lp.values
    grid = pump_times_lp.grid
    conv = np.convolve(values, values, mode="full") * grid.spacing
    return Field1D(_sum_grid(grid), conv)


def _interp_complex(x, xp, fp):
    real = np.interp(x, xp, fp.real, left=0.0, right=0.0)
    imag = np.interp(x, xp, fp.imag, left=0.0, right=0.0)
    return real + 1j * imag


def pump_quadrature_jsa(
    pump: Field1D,
    l_p: Field1D,
    l_s: Field1D,
    l_i: Field1D,
    dispersion: DispersionModel,
) -> Jsa:
    """The normalized JSA from the 1-D pump integral at every grid point.

    F(w_s, w_i) = l_s l_i sum_p a(w_p) a(w_s + w_i - w_p) PMF dw_p with
    a = pump * l_p, the mirror samples linearly interpolated on the pump
    grid: the reference for the ADP route of jsa.compute_jsa, which
    holds because the linear PMF does not depend on w_p.
    """
    apl = pump.values * l_p.values
    grid_s, grid_i = l_s.grid, l_i.grid
    omega_s = grid_s.samples
    omega_i = grid_i.samples
    d_s = omega_s - grid_s.center
    d_i = (omega_i - grid_i.center)[:, None]
    sums = omega_s[:, None] + omega_i[None, :]
    omega_p = pump.grid.samples
    dp = pump.grid.spacing
    amp = np.empty((grid_s.n_points, grid_i.n_points), dtype=complex)
    for j in range(grid_s.n_points):
        mirror = sums[j][:, None] - omega_p[None, :]
        apl_mirror = _interp_complex(mirror, omega_p, apl)
        pm_row = pmf(dispersion, d_s[j], d_i)
        amp[j] = np.sum(apl[None, :] * apl_mirror * pm_row, axis=1) * dp
    amp *= np.outer(l_s.values, l_i.values)
    return normalize(Jsa(grid_s, grid_i, amp))


# ---------------------------------------------------------------------------
# the inverse loop's fit profile

def decoupled_target(target: Jsa, l_s: Field1D, l_i: Field1D, epsilon: float):
    """The target divided by the signal-idler filter T = l_s l_i on the
    full grid, regularized: F conj(T) / (|T|^2 + eps^2 max|T|^2)."""
    tdsi = np.outer(l_s.values, l_i.values)
    mag2 = np.abs(tdsi) ** 2
    peak = np.max(mag2)
    return target.amplitude * np.conj(tdsi) / (mag2 + epsilon * epsilon * peak)


def bilinear(values, grid_s, grid_i, ws, wi):
    """Bilinear interpolation of the n^2 array values at (ws, wi): the
    reference for inversion._target_profile's read of its quotient at the
    four corners of each sample."""
    fs = (ws - grid_s.samples[0]) / grid_s.spacing
    fi = (wi - grid_i.samples[0]) / grid_i.spacing
    j0 = np.clip(np.floor(fs).astype(int), 0, grid_s.n_points - 2)
    k0 = np.clip(np.floor(fi).astype(int), 0, grid_i.n_points - 2)
    ts = np.clip(fs - j0, 0.0, 1.0)
    ti = np.clip(fi - k0, 0.0, 1.0)
    return (
        values[j0, k0] * (1 - ts) * (1 - ti)
        + values[j0 + 1, k0] * ts * (1 - ti)
        + values[j0, k0 + 1] * (1 - ts) * ti
        + values[j0 + 1, k0 + 1] * ts * ti
    )


def diagonal_profile(g, grid_s: SpectralGrid, grid_i: SpectralGrid, n_points: int):
    """(u, g(w_s0 + u/2, w_i0 + u/2)) at n_points offsets u spanning the
    grid, bilinearly interpolated, real and imaginary parts apart."""
    span = 2.0 * min(grid_s.half_span, grid_i.half_span)
    u = np.linspace(-span, span, n_points)
    ws = grid_s.center + u / 2.0
    wi = grid_i.center + u / 2.0
    values = bilinear(g.real, grid_s, grid_i, ws, wi) + 1j * bilinear(
        g.imag, grid_s, grid_i, ws, wi
    )
    return u, values


# ---------------------------------------------------------------------------
# ADP fit

def least_squares_fit(values, sums, template, l_p, x0):
    """scipy's least_squares on one row of the package's magnitude fit, the
    complex profile values at the absolute sum frequencies sums through
    the Field1D l_p, with the settings inversion._fit_batch's
    trust-region loop reproduces: method "trf", exact trust-region
    solves, x_scale 1, a linear loss, gtol _FIT_GTOL, xtol _FIT_XTOL, no
    ftol, at most _FIT_MAX_NFEV residual evaluations, and the bounds of
    the search vector."""
    residual, jacobian = _magnitude_fit(
        values[None, :], sums, template, l_p.grid, l_p.values[None, :]
    )
    row = np.array([0])

    def fun(x):
        return residual(row, x[None, :])[0][0]

    def jac(x):
        return jacobian(row, x[None, :], residual(row, x[None, :])[1])[0]

    n_taps = len(template.taps)
    lower = np.concatenate([[np.log(1e7)], np.zeros(n_taps), np.full(n_taps, -np.inf)])
    upper = np.concatenate([[np.log(1e13)], np.ones(n_taps), np.full(n_taps, np.inf)])
    return least_squares(
        fun, x0, jac=jac, bounds=(lower, upper), method="trf",
        tr_solver="exact", x_scale=1.0, gtol=_FIT_GTOL, xtol=_FIT_XTOL,
        ftol=None, max_nfev=_FIT_MAX_NFEV,
    )


def nelder_mead(f, x0, maxfev, xatol, fatol, callback=None):
    """scipy's minimize with method "Nelder-Mead" and the options
    inversion._nelder_mead takes (unbounded, not adaptive, the default
    initial simplex); callback(intermediate_result) runs once per
    iteration.  Returns the result's x."""
    return minimize(
        f, x0, method="Nelder-Mead", callback=callback,
        options=dict(maxfev=maxfev, xatol=xatol, fatol=fatol),
    ).x


# ---------------------------------------------------------------------------
# resonator

def field_enhancement_two_stage(chain: ResonanceChain, grid: SpectralGrid) -> Field1D:
    """Closed form of l_x(omega) for M = 2 (split resonance)."""
    if chain.stages != 2:
        raise ValueError(f"closed form requires M=2, got M={chain.stages}")
    delta = grid.samples - chain.omega0
    g1, g2 = chain.decay_rates
    mu = chain.couplings[0]
    numer = chain.kappa * (delta - 1j * g2)
    denom = (1j * delta + g1) * (1j * delta + g2) + mu * mu
    scale = np.sqrt(chain.group_velocity / chain.perimeter)
    return Field1D(grid, scale * numer / denom)


def _composed_matrix(
    k_prime: float, phi_h1: float, phi_h2: float, phi_h3: float
) -> np.ndarray:
    """Transfer matrix of the MZI with arm phases phi_h1, phi_h2 and the
    output phase phi_h3: two couplers of bar amplitude sqrt(1 - k') and
    cross amplitude -i sqrt(k') around the arms."""
    bar = np.sqrt(1.0 - k_prime)
    cross = -1j * np.sqrt(k_prime)
    coupler = np.array([[bar, cross], [cross, bar]])
    arms = np.diag([np.exp(1j * phi_h1), np.exp(1j * phi_h2)])
    out = np.diag([np.exp(1j * phi_h3), 1.0])
    return out @ coupler @ arms @ coupler


def mzi_effective_mu(
    spec: MziCouplerSpec, phi_h1: float, phi_h2: float, phi_h3: float
) -> float:
    """Effective mutual coupling mu_12 realized by the MZI coupler set to
    the phases phi_h1, phi_h2, phi_h3, the forward map of
    resonator.mzi_phase_for_mu.

    mu_12 = k_12 sqrt(v_g^2 / (L_1 L_2)) with k_12 the power cross-coupling
    of the composed transfer matrix.
    """
    k12 = abs(_composed_matrix(spec.k_prime, phi_h1, phi_h2, phi_h3)[0, 1]) ** 2
    return k12 * np.sqrt(
        spec.group_velocity**2 / (spec.perimeter_main * spec.perimeter_aux)
    )


# ---------------------------------------------------------------------------
# Schmidt weights

def svd_weights(jsa: Jsa) -> np.ndarray:
    """Schmidt weights as the squared singular values of the
    quadrature-weighted amplitude, from a values-only SVD, those above
    1e-14 kept: the reference for analysis.schmidt_decompose's leading
    weights, and through sum lambda^2 for its purity."""
    a = jsa.amplitude * np.sqrt(jsa.grid_s.spacing * jsa.grid_i.spacing)
    s = np.linalg.svd(a, compute_uv=False)
    weights = s * s
    return weights[: int(np.sum(weights > 1e-14)) or 1]


# ---------------------------------------------------------------------------
# fidelity

def pair_confined_rho(coefficients: np.ndarray, dim: int = 4) -> np.ndarray:
    """Density matrix of the state confined to the HG pair modes |kk>.

    The diagonal pair amplitudes c_kk, renormalized, in the d^2 basis of
    target_rho, with support on the pair positions: the state whose
    fidelity analysis.pair_fidelity reports.
    """
    c = np.asarray(coefficients)
    if c.shape != (dim, dim):
        raise NumericalError(
            f"coefficient matrix shape {c.shape} does not match dim {dim}"
        )
    diag = np.diagonal(c)
    w = float(np.sum(np.abs(diag) ** 2))
    if w == 0.0:
        raise NumericalError("state has no weight on the HG pair modes")
    psi = np.zeros(dim * dim, dtype=complex)
    for k in range(dim):
        psi[k * dim + k] = diag[k] / np.sqrt(w)
    return np.outer(psi, np.conj(psi))


def target_rho(target: TargetConfig, dim: int = 4) -> np.ndarray:
    """Ideal density matrix of the target in the d^2 HG pair basis."""
    psi = np.zeros(dim * dim, dtype=complex)
    for k, c in enumerate(target.coefficients):
        psi[k * dim + k] = c
    return np.outer(psi, np.conj(psi))


def fidelity(rho_a: np.ndarray, rho_b: np.ndarray) -> float:
    """Uhlmann fidelity [Tr sqrt(sqrt(a) b sqrt(a))]^2 via eigendecomposition."""
    for name, rho in (("first", rho_a), ("second", rho_b)):
        if abs(np.trace(rho).real - 1.0) > 1e-6:
            raise NumericalError(f"{name} density matrix is not unit trace")
    evals, evecs = np.linalg.eigh(rho_a)
    evals = np.clip(evals.real, 0.0, None)
    sqrt_a = (evecs * np.sqrt(evals)) @ np.conj(evecs.T)
    m = sqrt_a @ rho_b @ sqrt_a
    mvals = np.linalg.eigvalsh(m)
    mvals = np.clip(mvals.real, 0.0, None)
    return float(np.sum(np.sqrt(mvals)) ** 2)
