"""Inverse design: recover free parameters that realize a target state.

The six-step procedure: (1) fix the device constants and the target
state; (2) pick a value of the inter-ring coupling mu and build the
signal-idler filter TDSI; (3) divide the target JSA by the TDSI
(regularized) and read its anti-diagonal profile (_target_profile),
reducing the problem to one dimension; (4) least-squares fit the
magnitude of the pump-side model (envelope width sigma_p and the FIR
taps, through the ADP model the forward path uses and its exact
derivative) to that profile's magnitude; (5) repeat the fit from many
random initial tap settings; (6) sweep mu and keep the candidate whose
forward-simulated state scores best.  A final derivative-free polish
refines the leading candidates at the full configured resolution.

The fits of steps (4)-(5) for a run of consecutive mu points, every
restart of each, are the rows of one batch: one vectorized
trust-region-reflective loop (trf.least_squares_trf, a port of the loop
scipy's least_squares runs) steps all of them at once, with one FFT
stack and one stacked SVD per step, and a row's fit is bit for bit the
one it gets alone, so the trace does not depend on how the mu points are
split among the pool's workers.

The phase-matching function is treated as unity inside the loop (the
factorized model) and enters only in the forward verification of each
mu point's best candidate and of the polished ones.  With it unity, the
reported trial state is |ADP(w_s + w_i)| |l_s| |l_i| times the pi-flip
signs, a function of the sum frequency times a product, so every trial
score (each restart's record and every polish step) starts from the
2n - 1 sum frequencies of the n^2 grid: an entangled target reads its HG
pair amplitudes off them, and the separable target's purity takes the
Schmidt weights of the n^2 state built from them.
"""

from __future__ import annotations

import ctypes
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize

from .analysis import (
    TargetState,
    hg_basis,
    hg_overlaps,
    pair_fidelity,
    purity,
    schmidt_decompose,
    target_jsa,
)
from .config import ConfigError, DeviceConfig
from .jsa import (
    AdpModel,
    DegenerateFieldError,
    Jsa,
    _bilinear,
    _check_adp_input,
    find_cut_minima,
)
from .pulse_shaper import DegenerateInputError, PumpSpec, Tap, tap_phasors, tap_sum
from .resonator import field_enhancement_chain
from .simulate import build_grids, forward_chain
from .spectral import Field1D, GridError, SpectralGrid
from .trf import least_squares_trf


_TWO_PI_GHZ = 2.0 * np.pi * 1e9
# ADP fit: least-squares stopping tolerances and the residual evaluations
# one fit may spend (nfev; Jacobian evaluations count in njev).
# Most fits end at the cap, by design: past ~120 evaluations a fit's
# residual creeps down while the trial score that ranks it stays put, and
# the polish, not the fit's tail, takes the design the rest of the way.  In a
# sweep of one-restart Bell designs at 256^2 (seeds 0-19), every cap from
# 120 to 600 left two or three seeds below F = 0.9995 and a median F of
# 0.999998, while 100 and 80 dropped seed 3 (80 also seed 7) below it.
# Fitted one at a time by scipy's least_squares, the 21 fits of one design
# took 1.3-1.4 s at 120 against 4.9-7.7 s at 600; as one batch of the
# ported loop they take 0.52-0.72 s at 120 (one process, 2-core VM).
_FIT_GTOL = 1e-8
_FIT_XTOL = 1e-10
_FIT_MAX_NFEV = 120
# the most fits one batch steps together (see _run_mu_points): 64 Bell
# fits at 256^2 cost 42, 29, 25, 22 and 20 ms each in batches of 4, 8,
# 16, 32 and 64 (one process, 2-core VM); past that the per-step Python
# is paid off and the stacks only grow
_FIT_BATCH = 64
# TDSI decoupling regularization
_EPSILON = 1e-3
# internal working resolutions of the search loop; the final best
# candidate is always re-verified at the configured grid size
_FIT_PUMP_POINTS = 512
_FIT_PROFILE_POINTS = 129
_VERIFY_POINTS = 128
_POLISH_PUMP_POINTS = 2048


@dataclass(frozen=True)
class AdpProfile:
    """Complex anti-diagonal profile indexed by sum-frequency offset u."""

    u: np.ndarray            # rad/s, offsets of w_s + w_i from sum_center
    values: np.ndarray       # complex
    sum_center: float        # rad/s, w_s0 + w_i0

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        v = np.asarray(self.values, dtype=complex)
        if u.shape != v.shape or u.ndim != 1:
            raise GridError("profile u and values must be matching 1-D arrays")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class SearchConfig:
    """Multi-start / mu-sweep settings for the inverse loop."""

    restarts: int = 32
    mu_min: float = 0.0          # rad/s (1 GHz = 1e9 s^-1, no 2 pi)
    mu_max: float = 5.0e9
    mu_step: float = 0.25e9
    seed: int = 0
    # derivative-free refinement of the top candidates, run at the
    # configured grid size (0 evals disables the stage)
    polish_evals: int = 400
    polish_top: int = 2

    def __post_init__(self):
        if self.restarts < 1:
            raise ConfigError(f"restarts must be >= 1, got {self.restarts}")
        if self.mu_step <= 0:
            raise ConfigError(f"mu_step must be > 0, got {self.mu_step}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    @property
    def mu_values(self) -> np.ndarray:
        return mu_grid(self.mu_min, self.mu_max, self.mu_step)


def mu_grid(mu_min: float, mu_max: float, mu_step: float) -> np.ndarray:
    """mu_min, mu_min + mu_step, ... up to mu_max, which a step may
    overshoot by 1e-9 of itself; an empty range is a ConfigError."""
    n = int(np.floor((mu_max - mu_min) / mu_step + 1e-9)) + 1
    if n < 1:
        raise ConfigError(
            f"empty mu grid: min {mu_min}, max {mu_max}, step {mu_step}"
        )
    return mu_min + mu_step * np.arange(n)


@dataclass(frozen=True)
class FitResult:
    sigma_p: float
    taps: tuple              # of Tap
    scale: float             # fitted magnitude scale c >= 0
    residual: float
    converged: bool
    nfev: int                # residual evaluations of the fit
    njev: int                # Jacobian evaluations of the fit


@dataclass(frozen=True)
class OptimizeResult:
    best_config: DeviceConfig    # template with the best free parameters applied
    best_mu: tuple               # rad/s, the swept coupling values
    fidelity: float              # full-grid verified score of the winner
    residual: float
    trace: tuple                 # of dict, ordered by (mu index, restart)
    fits: dict                   # the ADP fits' converged fraction and
                                 # median nfev and njev


# ---------------------------------------------------------------------------
# step (3): decoupling and extraction

def _target_profile(target: Jsa, l_s: Field1D, l_i: Field1D) -> AdpProfile:
    """The target's anti-diagonal profile with the signal-idler filter
    divided out, at _FIT_PROFILE_POINTS sum-frequency offsets.

    The target F is divided by the filter T = l_s(w_s) l_i(w_i),
    regularized: G = F conj(T) / (|T|^2 + eps^2 max|T|^2); where |T| >>
    eps this approaches F / T, and the regularization keeps the quotient
    bounded in the filter's nulls.  The profile is u -> G(w_s0 + u/2,
    w_i0 + u/2), bilinearly interpolated, with u the offset of the sum
    frequency w_s + w_i from its center value w_s0 + w_i0; the cut runs
    along the main diagonal, on which the anti-diagonal coordinate is
    constant.
    """
    tdsi = np.outer(l_s.values, l_i.values)
    mag2 = np.abs(tdsi) ** 2
    peak = np.max(mag2)
    if peak == 0.0:
        raise DegenerateInputError("TDSI is identically zero")
    g = target.amplitude * np.conj(tdsi) / (mag2 + _EPSILON * _EPSILON * peak)
    grid_s, grid_i = target.grid_s, target.grid_i
    span = 2.0 * min(grid_s.half_span, grid_i.half_span)
    u = np.linspace(-span, span, _FIT_PROFILE_POINTS)
    ws = grid_s.center + u / 2.0
    wi = grid_i.center + u / 2.0
    vals = _bilinear(g.real, grid_s, grid_i, ws, wi) + 1j * _bilinear(
        g.imag, grid_s, grid_i, ws, wi
    )
    return AdpProfile(u, vals, grid_s.center + grid_i.center)


# ---------------------------------------------------------------------------
# step (4): least-squares ADP fit

def _pack(sigma_p: float, amplitudes, phases) -> np.ndarray:
    """Search vector x = (log sigma_p, tap amplitudes, tap phases)."""
    return np.concatenate([[np.log(sigma_p)], amplitudes, phases])


def _unpack(x: np.ndarray):
    """(sigma_p, taps) of a search vector, amplitudes clipped to [0, 1]."""
    n_taps = (len(x) - 1) // 2
    amps = np.clip(x[1 : 1 + n_taps], 0.0, 1.0)
    taps = tuple(Tap(float(a), float(p)) for a, p in zip(amps, x[1 + n_taps :]))
    return float(np.exp(x[0])), taps


def _magnitude_fit(profiles, template: PumpSpec, l_ps):
    """The batched magnitude fit's pieces: (residual, jacobian).

    Row r of the batch fits profiles[r] through l_ps[r].  The profiles
    share their sum frequencies and the l_p their pump grid, so the tap
    phasors, the squared detuning and the ADP model are built once; each
    row has its own profile and l_p, since the separable target sweeps
    the pump chain.  residual(rows, x) gives c |ADP| - data of the rows
    numbered rows at their search vectors x (see _pack), one per row, with
    data a row's unit-normalized profile magnitude and the scale c
    eliminated in closed form, and the evaluation it came from (the
    envelope, alpha_p l_p, its spectrum, the ADP, |ADP| and c);
    jacobian(rows, x, point) is the residual's exact Jacobian from that
    evaluation, so alpha_p l_p is built and transformed once per search
    point.  A row's numbers do not depend on the rows around it: the tap
    sums are products summed tap by tap, as tap_sum sums them, and every
    row reduction runs along a contiguous last axis.
    """
    u, sum_center, grid = profiles[0].u, profiles[0].sum_center, l_ps[0].grid
    if any(
        not np.array_equal(p.u, u) or p.sum_center != sum_center for p in profiles
    ):
        raise GridError("the profiles of one batch must share their sum frequencies")
    if any(l_p.grid != grid for l_p in l_ps):
        raise GridError("the l_p of one batch must share their pump grid")
    data = np.array([p.values for p in profiles])
    if not np.all(np.any(data, axis=-1)):
        raise DegenerateInputError("profile is identically zero")
    data_mag = np.abs(data / np.sqrt(np.sum(np.abs(data) ** 2, axis=-1))[:, None])
    lp_vals = np.array([l_p.values for l_p in l_ps])
    n_taps = len(template.taps)

    # the shaped pump's envelope and FIR factors on the pump grid, and the
    # ADP model at the profiles' sum frequencies, set up once per batch; the
    # model's FFT only spans the part of the sum grid the profile reads
    detuning2 = (grid.samples - template.carrier) ** 2
    phasors = tap_phasors(template, grid)
    adp = AdpModel(grid, sum_center + u, cyclic=True)

    def residual(rows, x):
        sigma_p = np.exp(x[:, :1])
        env = np.exp(-detuning2 / (2.0 * sigma_p * sigma_p))
        weights = x[:, 1 : 1 + n_taps] * np.exp(1j * x[:, 1 + n_taps :])
        fir = weights[:, :1] * phasors[0]
        for n in range(1, n_taps):
            fir += weights[:, n : n + 1] * phasors[n]
        # alpha_p l_p, zero-padded for the FFT in place
        padded = np.zeros((len(rows), adp.n_fft), dtype=complex)
        apl = padded[:, : grid.n_points]
        np.multiply(env, fir, out=apl)
        apl *= lp_vals[rows]
        spectrum = adp.spectrum(padded)
        a = adp.from_spectrum(spectrum)
        mag = np.abs(a)
        norm2 = np.sum(mag * mag, axis=-1)
        scale = np.divide(
            np.sum(mag * data_mag[rows], axis=-1), norm2,
            out=np.zeros_like(norm2), where=norm2 > 0.0,
        )
        point = (env, apl, spectrum, a, mag, scale)
        return scale[:, None] * mag - data_mag[rows], point

    def jacobian(rows, x, point):
        env, apl, spectrum, a, mag, scale = point
        # d apl / d log sigma_p, and d apl / d alpha_n without its phase
        # factor exp(i phi_n), which multiplies the convolution instead
        d_apl = np.zeros((len(rows), 1 + n_taps, adp.n_fft), dtype=complex)
        head = d_apl[..., : grid.n_points]
        np.multiply(apl, detuning2 * np.exp(-2.0 * x[:, :1]), out=head[:, 0])
        np.multiply((env * lp_vals[rows])[:, None, :], phasors, out=head[:, 1:])
        # d|A| = Re(conj(A) dA) / |A|, taken as 0 where |A| = 0, with
        # dA/d alpha_n = exp(i phi_n) times its convolution and
        # dA/d phi_n = i alpha_n dA/d alpha_n
        unit = np.divide(np.conj(a), mag, out=np.zeros_like(a), where=mag > 0.0)
        z = adp.derivative(spectrum[:, None, :], d_apl)
        z *= unit[:, None, :]
        z[:, 1:] *= np.exp(1j * x[:, 1 + n_taps :])[:, :, None]
        d_mag = np.empty((len(rows), 1 + 2 * n_taps, mag.shape[1]))
        d_mag[:, : 1 + n_taps] = z.real
        np.multiply(
            z[:, 1:].imag, -x[:, 1 : 1 + n_taps, None], out=d_mag[:, 1 + n_taps :]
        )
        # variable projection: c = (m.d)/(m.m) moves with the model, by
        # dc = d_mag.(d - 2 c m)/(m.m); all of a row is 0 where its |ADP| is
        norm2 = np.sum(mag * mag, axis=-1)[:, None]
        weight = data_mag[rows] - 2.0 * scale[:, None] * mag
        d_scale = np.sum(d_mag * weight[:, None, :], axis=-1)
        np.divide(d_scale, norm2, out=d_scale, where=norm2 > 0.0)
        jac = mag[:, :, None] * d_scale[:, None, :]
        jac += scale[:, None, None] * np.swapaxes(d_mag, 1, 2)
        return jac

    return residual, jacobian


def _fit_batch(profiles, template: PumpSpec, l_ps, x0) -> list:
    """fit_adp of every row of a batch: row r fits profiles[r] through
    l_ps[r] from the search vector x0[r] (see _pack), and its FitResult is
    what fit_adp returns for it alone, bit for bit.  The rows share one
    trust-region-reflective loop (trf.least_squares_trf) and leave it as
    they terminate."""
    residual, jacobian = _magnitude_fit(profiles, template, l_ps)
    n_taps = len(template.taps)
    lower = np.concatenate([[np.log(1e7)], np.zeros(n_taps), np.full(n_taps, -np.inf)])
    upper = np.concatenate([[np.log(1e13)], np.ones(n_taps), np.full(n_taps, np.inf)])
    x, nfev, njev, status = least_squares_trf(
        residual, jacobian, x0, lower, upper, _FIT_GTOL, _FIT_XTOL, _FIT_MAX_NFEV
    )
    # a phase comes back wound by whatever multiple of 2 pi the steps took
    # it through; |ADP| does not see the winding, but the polish's initial
    # simplex, scaled by each coordinate, would
    x[:, 1 + n_taps :] = np.mod(x[:, 1 + n_taps :], 2.0 * np.pi)
    f, (*_, scale) = residual(np.arange(len(x)), x)
    cost = np.sum(f * f, axis=-1)
    fits = []
    for r in range(len(x)):
        sigma_p, taps = _unpack(x[r])
        fits.append(
            FitResult(
                sigma_p=sigma_p,
                taps=taps,
                scale=float(scale[r]),
                residual=float(cost[r]),
                converged=bool(status[r] > 0),
                nfev=int(nfev[r]),
                njev=int(njev[r]),
            )
        )
    return fits


def fit_adp(
    profile: AdpProfile,
    template: PumpSpec,
    l_p: Field1D,
    init_sigma_p: float,
    init_alphas,
    init_phis,
) -> FitResult:
    """Fit sigma_p and the FIR taps so |ADP| matches the profile magnitude.

    Minimizes sum_u (c |ADP(u)| - |profile(u)|)^2 over sigma_p
    (log-space), the tap amplitudes (bounded to [0, 1]), the tap phases,
    and a real global scale c >= 0 eliminated in closed form at every
    step (both sides carry arbitrary normalization).  The minimizer is
    the trust-region-reflective loop of scipy's least_squares (method
    "trf", exact trust-region solves, x_scale 1, gtol _FIT_GTOL, xtol
    _FIT_XTOL, no ftol), ported in trf.least_squares_trf so that the
    inverse loop runs the fits of many restarts and mu points as one
    batch; this is a batch of one (_fit_batch).  The steps use the exact
    Jacobian of the variable-projection residual (Golub & Pereyra,
    Inverse Problems 19, R1 (2003)): every column d|ADP|/d theta comes
    from 2 alpha_p l_p * d(alpha_p l_p)/d theta, one batched FFT
    convolution through the ADP model's derivative, and the scale's own
    derivative enters each column.  The residual is evaluated at every
    trial point and the Jacobian only at accepted ones, from the
    spectrum of alpha_p l_p stored with that trial.  The budget of
    _FIT_MAX_NFEV residual evaluations is deliberately short, and most
    fits end at it unconverged: a fit only has to bring its restart near
    a good design, which the trial score ranks and the polish refines
    (see _FIT_MAX_NFEV).  Only magnitudes are compared: a profile
    obtained by decoupling a target from the measured filter carries the
    filter's conjugated phase, which the pump model cannot and need not
    reproduce -- the reported state is built from the magnitude with the
    pi flips re-imposed at the nodes, whose positions the magnitude still
    pins.  Tap solutions are non-unique; only the reconstructed |ADP| is
    meaningful.
    """
    n_taps = len(template.taps)
    alphas = np.asarray(init_alphas, dtype=float)
    phis = np.asarray(init_phis, dtype=float)
    if alphas.shape != (n_taps,) or phis.shape != (n_taps,):
        raise ValueError(
            f"initial taps must match the template's {n_taps} taps"
        )
    x0 = _pack(init_sigma_p, np.clip(alphas, 0.0, 1.0), phis)
    return _fit_batch([profile], template, [l_p], x0[None, :])[0]


# ---------------------------------------------------------------------------
# steps (5)-(6): multi-start search over the mu grid

def _swept_chains(cfg: DeviceConfig, mu: tuple):
    """Apply a coupling tuple symmetrically: signal/idler chains for an
    entangled target, the pump chain for the separable (D=1) target."""
    if cfg.target.dimension >= 2:
        signal = replace(cfg.signal, couplings=mu)
        idler = replace(cfg.idler, couplings=mu)
        return replace(cfg, signal=signal, idler=idler)
    pump_res = replace(cfg.pump_resonance, couplings=mu)
    return replace(cfg, pump_resonance=pump_res)


def apply_free_params(
    cfg: DeviceConfig, mu: tuple, sigma_p: float, taps
) -> DeviceConfig:
    """Template config with the searched free parameters substituted."""
    cfg = _swept_chains(cfg, tuple(mu))
    pump = replace(cfg.pump, sigma_p=sigma_p, taps=tuple(taps))
    return replace(cfg, pump=pump)


def _trial_score(state, modes_s, modes_i, target_coeff):
    """Score of a reported state on its full n^2 grid.

    For an entangled target this is the verification fidelity: the
    pair-confined state's overlap with the target over the full mode
    basis (weight leaking into pairs above the target dimension counts
    against the score).  For a target of one coefficient (the separable
    target) the pair-confined fidelity is trivially 1, so the score is
    the spectral purity instead, from the eigenvalues of the state's Gram
    matrix (analysis.schmidt_decompose).  The verification scores every
    candidate this way; _sum_index_score gives the same score of a trial
    state from its 2n - 1 sum frequencies.
    """
    if len(target_coeff) == 1:
        return purity(schmidt_decompose(state).weights)
    c = hg_overlaps(state, modes_s, modes_i)
    if not np.any(np.diagonal(c)):
        return 0.0
    return pair_fidelity(c, target_coeff)


def _sum_index_score(pump_grid, l_s, l_i, modes_s, modes_i, target_coeff):
    """The trial score as a map alpha_p * l_p -> score, from the 2n - 1
    sum indices m = j + k of an n^2 signal/idler grid pair.

    With a flat phase-matching function the reported state is
    |ADP(w_s + w_i)| |l_s(w_s)| |l_i(w_i)| s(w_s + w_i) / N, where s is the
    pi-flip sign field of impose_pi_phase; equal spacings make w_s + w_i
    depend on j + k alone.  Built once: the sum frequencies with their ADP
    model, C_k = (f_k |l_s|) * (f_k |l_i|) (linear convolutions) for the
    HG orders k, D = |l_s|^2 * |l_i|^2, and the weights of the centre cut
    impose_pi_phase reads (its even sample 2h is node (h, h), its odd
    sample 2h + 1 the mean of the four corners, on sums 2h, 2h + 1, 2h + 1
    and 2h + 2).  A score then takes |ADP| at the 2n - 1 sums, finds the
    cut's nodes with find_cut_minima, builds s there and N^2 =
    dA D.|ADP|^2.  An entangled target's score is pair_fidelity of
    c_kk = dA C_k.(s |ADP|) / N, the diagonal pair amplitudes (Brecht et
    al., PRX 5, 041017 (2015)).  A target of one coefficient (the
    separable target) scores the purity, which needs the Schmidt weights
    of the whole state: the score builds the n^2 state
    s |ADP|[j + k] |l_s[j]| |l_i[k]| / N from the sums, with the index
    j + k and the product |l_s| |l_i| built once for that target only, and
    takes its weights from schmidt_decompose, as _trial_score does.  It
    raises what the full-grid chain raises on degenerate input.
    """
    grid_s, grid_i = l_s.grid, l_i.grid
    n = grid_s.n_points
    if grid_i.n_points != n or grid_i.spacing != grid_s.spacing:
        raise GridError("signal and idler grids must share size and spacing")
    mag_s = np.abs(l_s.values)
    mag_i = np.abs(l_i.values)
    # sum index m stands for its node nearest the diagonal, (m // 2,
    # m - m // 2): the cut's even samples read those nodes, and the nodes of
    # one anti-diagonal differ in w_s + w_i by round-off only
    m = np.arange(2 * n - 1)
    sums = grid_s.samples[m // 2] + grid_i.samples[m - m // 2]
    adp = AdpModel(pump_grid, sums)
    overlaps = np.array(
        [np.convolve(fs * mag_s, fi * mag_i) for fs, fi in zip(modes_s, modes_i)]
    )
    weight = np.convolve(mag_s * mag_s, mag_i * mag_i)
    cell_area = grid_s.spacing * grid_i.spacing
    node = mag_s * mag_i
    corner = 0.25 * node
    cross = 0.25 * (mag_s[1:] * mag_i[:-1] + mag_s[:-1] * mag_i[1:])
    # antidiagonal_cut's offsets, and the sign ramp's as impose_pi_phase
    # builds them
    span = 2.0 * min(grid_s.half_span, grid_i.half_span)
    u = np.linspace(-span, span, 2 * n - 1)
    offsets = sums - (grid_s.center + grid_i.center)
    cell = grid_s.spacing + grid_i.spacing
    if len(target_coeff) == 1:
        index = np.add.outer(np.arange(n), np.arange(n))
        filt = np.outer(mag_s, mag_i)

    def score(apl):
        _check_adp_input(apl)
        a = np.abs(adp(apl))
        norm2 = cell_area * np.dot(weight, a * a)
        if norm2 == 0.0:
            raise DegenerateFieldError("cannot normalize an all-zero JSA")
        cut = np.empty(2 * n - 1)
        cut[0::2] = a[0::2] * node
        cut[1::2] = a[0:-1:2] * corner[:-1] + a[1::2] * cross + a[2::2] * corner[1:]
        # impose_pi_phase's product of clipped ramps, on |ADP| in place
        minima = find_cut_minima(u, cut)
        for u_min in minima:
            a *= np.clip((offsets - u_min) / cell, -1.0, 1.0)
        if len(minima) % 2:
            np.negative(a, out=a)
        if len(target_coeff) == 1:
            amp = a[index]
            amp *= filt
            amp *= 1.0 / np.sqrt(norm2)
            state = Jsa(grid_s, grid_i, amp, normalized=True)
            return purity(schmidt_decompose(state).weights)
        ckk = overlaps @ a * (cell_area / np.sqrt(norm2))
        if not np.any(ckk):
            return 0.0
        return pair_fidelity(np.diag(ckk), target_coeff)

    return score


def _trial_context(cfg: DeviceConfig, mu: tuple, pump_points: int, n_points: int):
    """What scoring trial pumps at one coupling point needs, built once.

    Returns (trial_cfg, target, l_p, score): the template with the swept
    couplings, the target state, the pump enhancement on a pump grid of
    pump_points, and score(sigma_p, taps), the trial score of the
    reported state with a flat phase-matching function on an
    n_points^2 signal/idler grid.  The chains, the HG bases, the tap
    phasors, the squared detuning and the state's model on the 2n - 1 sum
    frequencies (_sum_index_score) are built here, for every target.  A
    score evaluates the shaped pump times l_p and that model.
    """
    trial_cfg = _swept_chains(cfg, mu)
    pump_grid, grid_s, grid_i = build_grids(trial_cfg, n_points)
    pump_grid = SpectralGrid(pump_grid.center, pump_grid.half_span, pump_points)
    target = TargetState(
        cfg.target.dimension, cfg.target.sigma, grid_s.center, grid_i.center
    )
    l_p = field_enhancement_chain(trial_cfg.pump_resonance, pump_grid)
    state_score = _sum_index_score(
        pump_grid,
        field_enhancement_chain(trial_cfg.signal, grid_s),
        field_enhancement_chain(trial_cfg.idler, grid_i),
        hg_basis(4, grid_s, grid_s.center, cfg.target.sigma),
        hg_basis(4, grid_i, grid_i.center, cfg.target.sigma),
        target.coefficients,
    )
    phasors = tap_phasors(cfg.pump, pump_grid)
    detuning = pump_grid.samples - cfg.pump.carrier
    detuning2 = detuning * detuning

    def score(sigma_p, taps):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            # the shaped pump (apply_envelope): the Gaussian envelope
            # times the FIR response
            env = np.exp(-detuning2 / (2.0 * sigma_p * sigma_p))
            return state_score(env * tap_sum(taps, phasors) * l_p.values)

    return trial_cfg, target, l_p, score


def _mu_record(mu: tuple) -> dict:
    return {f"mu_{m + 1}{m + 2}": float(v) for m, v in enumerate(mu)}


def _verified_score(cfg: DeviceConfig, mu: tuple, sigma_p: float, taps) -> float:
    """Score of a candidate from the full forward model on the configured
    grid: the fidelity simulate reports, or its purity for the separable
    target.  The reported state comes from simulate's own forward_chain
    (the shaped pump, the chains, the JSA with its phase matching) and is
    scored by _trial_score; simulate's second Schmidt decomposition and
    pair rate do not run."""
    design = apply_free_params(cfg, mu, sigma_p, taps)
    sigma = design.target.sigma
    target = TargetState(
        design.target.dimension, sigma, design.signal.omega0, design.idler.omega0
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        *_, state = forward_chain(design)
        return _trial_score(
            state,
            hg_basis(4, state.grid_s, design.signal.omega0, sigma),
            hg_basis(4, state.grid_i, design.idler.omega0, sigma),
            target.coefficients,
        )


def _start(seed: int, mu_idx: int, restart: int, n_taps: int) -> np.ndarray:
    """The search vector a restart starts from, drawn from an RNG keyed by
    (seed, mu index, restart) in the order sigma_p, amplitudes, phases."""
    rng = np.random.default_rng([seed, mu_idx, restart])
    sigma0 = float(
        np.exp(rng.uniform(np.log(0.5 * _TWO_PI_GHZ), np.log(50.0 * _TWO_PI_GHZ)))
    )
    alpha0 = rng.uniform(0.1, 1.0, n_taps)
    phi0 = rng.uniform(0.0, 2.0 * np.pi, n_taps)
    return _pack(sigma0, alpha0, phi0)


def _run_mu_points(args):
    """All restarts of a run of consecutive mu points, and the best
    candidate of each point verified.

    The fits of every (mu point, restart) run as rows of _fit_batch, at
    most _FIT_BATCH rows at a time; a row's fit does not depend on the
    batch it runs in.  Returns, per point, (mu_idx, records, candidate,
    fits): candidate is (verified score, residual, sigma_p, taps, mu) of
    the restart with the best trial score, fits each restart's
    (converged, nfev, njev).
    """
    cfg, search, first, mu_points = args
    restarts = search.restarts
    n_taps = len(cfg.pump.taps)
    scores, profiles, l_ps, starts = [], [], [], []
    for offset, mu in enumerate(mu_points):
        trial_cfg, target, l_p, score = _trial_context(
            cfg, mu, _FIT_PUMP_POINTS, _VERIFY_POINTS
        )
        _, grid_s, grid_i = build_grids(trial_cfg)
        profile = _target_profile(
            target_jsa(target, grid_s, grid_i),
            field_enhancement_chain(trial_cfg.signal, grid_s),
            field_enhancement_chain(trial_cfg.idler, grid_i),
        )
        scores.append(score)
        profiles.extend([profile] * restarts)
        l_ps.extend([l_p] * restarts)
        starts.extend(
            _start(search.seed, first + offset, restart, n_taps)
            for restart in range(restarts)
        )
    fits = []
    for lo in range(0, len(starts), _FIT_BATCH):
        hi = lo + _FIT_BATCH
        fits.extend(
            _fit_batch(profiles[lo:hi], cfg.pump, l_ps[lo:hi], np.array(starts[lo:hi]))
        )
    results = []
    for offset, (mu, score) in enumerate(zip(mu_points, scores)):
        records = []
        best = None
        point_fits = fits[offset * restarts : (offset + 1) * restarts]
        for restart, fit in enumerate(point_fits):
            trial = score(fit.sigma_p, fit.taps)
            records.append({
                "mu": _mu_record(mu),
                "restart": restart,
                "sigma_p": fit.sigma_p,
                "alpha": [t.amplitude for t in fit.taps],
                "phi": [float(np.mod(t.phase, 2.0 * np.pi)) for t in fit.taps],
                "fidelity": trial,
                "residual": fit.residual,
                "converged": fit.converged,
            })
            if best is None or trial > best[0]:
                best = (trial, fit.residual, fit.sigma_p, fit.taps)
        _, residual, sigma_p, taps = best
        verified = _verified_score(cfg, mu, sigma_p, taps)
        results.append((
            first + offset,
            records,
            (verified, residual, sigma_p, taps, mu),
            [(fit.converged, fit.nfev, fit.njev) for fit in point_fits],
        ))
    return results


def _polish_candidate(args):
    """Derivative-free refinement of one candidate, verified.

    Maximizes the trial score directly (Nelder-Mead over the pump width
    and taps) on the configured signal/idler grid, where the score
    coincides with the verification fidelity up to the phase-matching
    function; the coarse restart grids admit spurious optima that do not
    survive verification, so the polish must run at full resolution.
    Each step scores from the 2n - 1 sum frequencies of that n^2 grid
    (_sum_index_score).  Returns (verified score, sigma_p, taps) of the
    polished parameters.
    """
    cfg, search, (_, _, sigma_p, taps, mu) = args
    *_, score = _trial_context(cfg, mu, _POLISH_PUMP_POINTS, cfg.grid.n_points)
    res = minimize(
        lambda x: -score(*_unpack(x)),
        _pack(sigma_p, [t.amplitude for t in taps], [t.phase for t in taps]),
        method="Nelder-Mead",
        options=dict(maxfev=search.polish_evals, xatol=1e-6, fatol=1e-10),
    )
    sigma_ref, taps_ref = _unpack(res.x)
    return _verified_score(cfg, mu, sigma_ref, taps_ref), sigma_ref, taps_ref


# OpenBLAS's thread-count setters, by build: the numpy and scipy wheels
# bundle prefixed copies (64 for the 64-bit-integer interface)
_OPENBLAS_SET_THREADS = (
    "openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "scipy_openblas_set_num_threads64_",
)


def _one_blas_thread() -> None:
    """Pool initializer: one thread for every OpenBLAS the worker has loaded.

    The workers already fill the cores.  A threaded BLAS call in one of
    them (the separable target's Gram eigensolve, the HG overlaps of a
    512^2 verification) leaves OpenBLAS threads spinning on the cores the
    other workers compute on.  Where no OpenBLAS is found (another BLAS,
    no /proc), this does nothing.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = {
                line.split()[-1]
                for line in fh
                if "openblas" in line.rsplit("/", 1)[-1].lower()
            }
    except OSError:
        return
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _OPENBLAS_SET_THREADS:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(1)
                break


def _worker_count(n_tasks: int) -> int:
    env = os.environ.get("TFM_SYNTH_THREADS")
    if env is not None:
        try:
            cap = int(env)
        except ValueError:
            cap = 0
        if cap < 1:
            raise ConfigError(
                f"TFM_SYNTH_THREADS must be an integer >= 1, got {env!r}"
            )
    else:
        cap = os.cpu_count() or 1
    return max(1, min(cap, n_tasks))


def _chunks(n_points: int, restarts: int, workers: int) -> list:
    """(start, stop) of the runs of consecutive mu points the pool's tasks
    take: at least one per worker (workers <= n_points), of sizes that
    differ by at most one, and no more points than _FIT_BATCH fits fill,
    but at least one."""
    per_chunk = max(1, _FIT_BATCH // restarts)
    n_chunks = max(workers, -(-n_points // per_chunk))
    bounds = [n_points * c // n_chunks for c in range(n_chunks + 1)]
    return list(zip(bounds, bounds[1:]))


def optimize_state(cfg: DeviceConfig, search: SearchConfig) -> OptimizeResult:
    """Full inverse loop over the mu grid with seeded multi-start fits.

    The trace is deterministic for a fixed seed: each restart draws from
    an RNG keyed by (seed, mu index, restart), the draw order is sigma_p,
    amplitudes, phases, and records are merged by (mu index, restart)
    regardless of execution order.  One process pool, of at most
    TFM_SYNTH_THREADS workers, runs the mu points (fits and the
    verification of each point's best candidate) and then the polish of
    the leading candidates; with one worker everything runs in this
    process.
    """
    n_swept = max(
        len(cfg.signal.couplings)
        if cfg.target.dimension >= 2
        else len(cfg.pump_resonance.couplings),
        1,
    )
    axis = search.mu_values
    grids = np.meshgrid(*([axis] * n_swept), indexing="ij")
    mu_points = [
        tuple(float(g.flat[i]) for g in grids) for i in range(grids[0].size)
    ]
    workers = _worker_count(len(mu_points))
    tasks = [
        (cfg, search, lo, mu_points[lo:hi])
        for lo, hi in _chunks(len(mu_points), search.restarts, workers)
    ]
    with ExitStack() as stack:
        if workers == 1:
            run = map
        else:
            pool = ProcessPoolExecutor(
                max_workers=workers, initializer=_one_blas_thread
            )
            run = stack.enter_context(pool).map
        results = [point for chunk in run(_run_mu_points, tasks) for point in chunk]
        trace = []
        scored = []
        fits = []
        for _, records, candidate, point_fits in results:
            trace.extend(records)
            scored.append(candidate)
            fits.extend(point_fits)
        # trial scores are computed at the reduced working resolution with
        # a flat phase-matching function, so the mu points are ranked by
        # their best candidate's full-model score on the configured grid
        scored.sort(key=lambda s: -s[0])
        best = scored[0]
        # refine the leading candidates at full resolution; keep a
        # polished parameter set only if it re-verifies better
        if search.polish_evals > 0:
            leaders = scored[: search.polish_top]
            polished = run(
                _polish_candidate, [(cfg, search, lead) for lead in leaders]
            )
            for (_, residual, _, _, mu), (vref, sigma_ref, taps_ref) in zip(
                leaders, polished
            ):
                if vref > best[0]:
                    best = (vref, residual, sigma_ref, taps_ref, mu)
    converged, nfev, njev = np.array(fits, dtype=float).T
    score, residual, sigma_p, taps, mu = best
    best_cfg = apply_free_params(cfg, mu, sigma_p, taps)
    return OptimizeResult(
        best_config=best_cfg,
        best_mu=tuple(mu),
        fidelity=score,
        residual=residual,
        trace=tuple(trace),
        fits={
            "converged_frac": float(np.mean(converged)),
            "nfev_median": float(np.median(nfev)),
            "njev_median": float(np.median(njev)),
        },
    )
