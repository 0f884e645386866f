"""Inverse design: recover free parameters that realize a target state.

The six-step procedure: (1) fix the device constants and the target
state; (2) pick a value of the inter-ring coupling mu and build the
signal-idler filter TDSI; (3) divide the target JSA by the TDSI
(regularized) and extract its anti-diagonal profile, reducing the
problem to one dimension; (4) least-squares fit the magnitude of the
pump-side model (envelope width sigma_p and the FIR taps, through the
ADP model the forward path uses) to that profile's magnitude; (5)
repeat the fit from many random initial tap settings; (6) sweep mu and
keep the candidate whose forward-simulated state scores best.  A final
derivative-free polish refines the leading candidates at the full
configured resolution.

The phase-matching function is treated as unity inside the loop (the
factorized model) and enters only in the final forward verification.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import least_squares, minimize

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
from .jsa import Jsa, _bilinear, adp_model, compute_jsa, compute_tdsi
from .phase_matching import DispersionModel
from .pulse_shaper import DegenerateInputError, PumpSpec, Tap, shaped_pump, tap_phasors
from .resonator import field_enhancement_chain
from .simulate import build_grids, reported_state, simulate
from .spectral import Field1D, Field2D, GridError, SpectralGrid


_TWO_PI_GHZ = 2.0 * np.pi * 1e9
# ADP fit: least-squares stopping tolerances and the residual evaluations
# one fit may spend, finite-difference Jacobians included
_FIT_GTOL = 1e-8
_FIT_XTOL = 1e-10
_FIT_MAX_NFEV = 600
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

    @property
    def mu_values(self) -> np.ndarray:
        n = int(np.floor((self.mu_max - self.mu_min) / self.mu_step + 1e-9)) + 1
        if n < 1:
            raise ConfigError(
                f"empty mu grid: min {self.mu_min}, max {self.mu_max}, "
                f"step {self.mu_step}"
            )
        return self.mu_min + self.mu_step * np.arange(n)


@dataclass(frozen=True)
class FitResult:
    sigma_p: float
    taps: tuple              # of Tap
    scale: float             # fitted magnitude scale c >= 0
    residual: float
    converged: bool


@dataclass(frozen=True)
class OptimizeResult:
    best_config: DeviceConfig    # template with the best free parameters applied
    best_mu: tuple               # rad/s, the swept coupling values
    fidelity: float              # full-grid verified score of the winner
    residual: float
    trace: tuple                 # of dict, ordered by (mu index, restart)


# ---------------------------------------------------------------------------
# steps (3): decoupling and extraction

def decouple_tdsi(target: Jsa, tdsi: Field2D, epsilon: float = _EPSILON) -> Field2D:
    """Regularized division of the target JSA by the signal-idler filter.

    G = F conj(T) / (|T|^2 + eps^2 max|T|^2); where |T| >> eps this
    approaches F / T, and the regularization keeps the quotient bounded
    in the filter's nulls.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    if target.grid_s != tdsi.grid_s or target.grid_i != tdsi.grid_i:
        raise GridError("target and TDSI must share the same grids")
    mag2 = np.abs(tdsi.values) ** 2
    peak = np.max(mag2)
    if peak == 0.0:
        raise DegenerateInputError("TDSI is identically zero")
    g = target.amplitude * np.conj(tdsi.values) / (mag2 + epsilon * epsilon * peak)
    return Field2D(target.grid_s, target.grid_i, g)


def extract_antidiagonal(
    g: Field2D, n_points: int | None = None, u: np.ndarray | None = None
) -> AdpProfile:
    """Profile u -> G(w_s0 + u/2, w_i0 + u/2), bilinearly interpolated.

    u is the offset of the sum frequency w_s + w_i from its center value
    w_s0 + w_i0; the cut runs along the main diagonal, on which the
    anti-diagonal coordinate is constant.
    """
    grid_s, grid_i = g.grid_s, g.grid_i
    span = 2.0 * min(grid_s.half_span, grid_i.half_span)
    if u is None:
        if n_points is None:
            n_points = 2 * max(grid_s.n_points, grid_i.n_points) - 1
        u = np.linspace(-span, span, n_points)
    else:
        u = np.asarray(u, dtype=float)
        if np.any(np.abs(u) > span * (1.0 + 1e-12)):
            raise GridError(
                f"requested cut extends past the grid (|u| up to "
                f"{np.max(np.abs(u)):.6g} > {span:.6g})"
            )
    ws = grid_s.center + u / 2.0
    wi = grid_i.center + u / 2.0
    vals = _bilinear(g.values.real, grid_s, grid_i, ws, wi) + 1j * _bilinear(
        g.values.imag, grid_s, grid_i, ws, wi
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


def _magnitude_scale(model_mag: np.ndarray, data_mag: np.ndarray) -> float:
    denom = np.sum(model_mag * model_mag)
    if denom == 0.0:
        return 0.0
    return float(np.sum(model_mag * data_mag) / denom)


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
    step (both sides carry arbitrary normalization).  Only magnitudes are
    compared: a profile obtained by decoupling a target from the measured
    filter carries the filter's conjugated phase, which the pump model
    cannot and need not reproduce -- the reported state is built from the
    magnitude with the pi flips re-imposed at the nodes, whose positions
    the magnitude still pins.  Tap solutions are non-unique; only the
    reconstructed |ADP| is meaningful.
    """
    data = np.asarray(profile.values, dtype=complex)
    peak = np.max(np.abs(data))
    if peak == 0.0:
        raise DegenerateInputError("profile is identically zero")
    data = data / np.sqrt(np.sum(np.abs(data) ** 2))
    data_mag = np.abs(data)
    n_taps = len(template.taps)
    alphas = np.asarray(init_alphas, dtype=float)
    phis = np.asarray(init_phis, dtype=float)
    if alphas.shape != (n_taps,) or phis.shape != (n_taps,):
        raise ValueError(
            f"initial taps must match the template's {n_taps} taps"
        )

    # the shaped pump's envelope and FIR factors on the pump grid, and the
    # ADP model at the profile's sum frequencies, set up once per fit
    detuning = l_p.grid.samples - template.carrier
    phasors = tap_phasors(template, l_p.grid)
    lp_vals = l_p.values
    adp = adp_model(l_p.grid, profile.sum_center + profile.u)

    def model_mag(x):
        sigma_p = np.exp(x[0])
        env = np.exp(-(detuning * detuning) / (2.0 * sigma_p * sigma_p))
        h = (x[1 : 1 + n_taps] * np.exp(1j * x[1 + n_taps :])) @ phasors
        return np.abs(adp(env * h * lp_vals))

    def residual_vec(x):
        mag = model_mag(x)
        return _magnitude_scale(mag, data_mag) * mag - data_mag

    x0 = _pack(init_sigma_p, np.clip(alphas, 0.0, 1.0), phis)
    lower = np.concatenate([[np.log(1e7)], np.zeros(n_taps), np.full(n_taps, -np.inf)])
    upper = np.concatenate([[np.log(1e13)], np.ones(n_taps), np.full(n_taps, np.inf)])
    res = least_squares(
        residual_vec,
        x0,
        bounds=(lower, upper),
        method="trf",
        gtol=_FIT_GTOL,
        xtol=_FIT_XTOL,
        ftol=None,
        max_nfev=_FIT_MAX_NFEV,
    )
    sigma_p, taps = _unpack(res.x)
    mag = model_mag(res.x)
    scale = _magnitude_scale(mag, data_mag)
    return FitResult(
        sigma_p=sigma_p,
        taps=taps,
        scale=scale,
        residual=float(np.sum((scale * mag - data_mag) ** 2)),
        converged=res.status > 0,
    )


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


def _unity_pmf(dispersion: DispersionModel) -> DispersionModel:
    return DispersionModel(
        c1=dispersion.c1, c2=dispersion.c2, slope=0.0, length=dispersion.length
    )


def _trial_score(cfg, state, modes_s, modes_i, target_coeff):
    """Score of a reported trial state.

    For an entangled target this is the verification fidelity: the
    pair-confined state's overlap with the target over the full mode
    basis (weight leaking into pairs above the target dimension counts
    against the score).  For the one-dimensional (separable) target the
    pair-confined fidelity is trivially 1, so the score is the spectral
    purity instead.
    """
    if cfg.target.dimension == 1:
        schmidt = schmidt_decompose(state)
        return purity(schmidt.weights)
    c = hg_overlaps(state, modes_s, modes_i)
    if not np.any(np.diagonal(c)):
        return 0.0
    return pair_fidelity(c, target_coeff)


def _trial_context(cfg: DeviceConfig, mu: tuple, pump_points: int, n_points: int):
    """What scoring trial pumps at one coupling point needs, built once.

    Returns (trial_cfg, target, l_p, score): the template with the swept
    couplings, the target state, the pump enhancement on a pump grid of
    pump_points, and score(sigma_p, taps), the trial score of the
    reported state with a flat phase-matching function on an
    n_points^2 signal/idler grid.
    """
    trial_cfg = _swept_chains(cfg, mu)
    pump_grid, grid_s, grid_i = build_grids(trial_cfg, n_points)
    pump_grid = SpectralGrid(pump_grid.center, pump_grid.half_span, pump_points)
    target = TargetState(
        cfg.target.dimension, cfg.target.sigma, grid_s.center, grid_i.center
    )
    unity = _unity_pmf(cfg.dispersion)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        l_p = field_enhancement_chain(trial_cfg.pump_resonance, pump_grid)
        l_s = field_enhancement_chain(trial_cfg.signal, grid_s)
        l_i = field_enhancement_chain(trial_cfg.idler, grid_i)
        modes_s = hg_basis(4, grid_s, grid_s.center, cfg.target.sigma)
        modes_i = hg_basis(4, grid_i, grid_i.center, cfg.target.sigma)

    def score(sigma_p, taps):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pump_spec = replace(cfg.pump, sigma_p=sigma_p, taps=taps)
            pump = shaped_pump(pump_spec, pump_grid)
            jsa = compute_jsa(pump, l_p, l_s, l_i, unity)
            state = reported_state(jsa)
            return _trial_score(
                cfg, state, modes_s, modes_i, target.coefficients
            )

    return trial_cfg, target, l_p, score


def _mu_record(mu: tuple) -> dict:
    return {f"mu_{m + 1}{m + 2}": float(v) for m, v in enumerate(mu)}


def _run_mu_point(args):
    """All restarts for one mu-grid point; returns (mu_idx, records, best)."""
    cfg, search, mu_idx, mu = args
    trial_cfg, target, l_p, score = _trial_context(
        cfg, mu, _FIT_PUMP_POINTS, _VERIFY_POINTS
    )
    _, grid_s, grid_i = build_grids(trial_cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        f_target = target_jsa(target, grid_s, grid_i)
        tdsi = compute_tdsi(
            field_enhancement_chain(trial_cfg.signal, grid_s),
            field_enhancement_chain(trial_cfg.idler, grid_i),
        )
        g = decouple_tdsi(f_target, tdsi)
        profile = extract_antidiagonal(g, n_points=_FIT_PROFILE_POINTS)
    n_taps = len(cfg.pump.taps)
    records = []
    best = None
    for restart in range(search.restarts):
        rng = np.random.default_rng([search.seed, mu_idx, restart])
        sigma0 = float(
            np.exp(rng.uniform(np.log(0.5 * _TWO_PI_GHZ), np.log(50.0 * _TWO_PI_GHZ)))
        )
        alpha0 = rng.uniform(0.1, 1.0, n_taps)
        phi0 = rng.uniform(0.0, 2.0 * np.pi, n_taps)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fit = fit_adp(profile, cfg.pump, l_p, sigma0, alpha0, phi0)
        trial = score(fit.sigma_p, fit.taps)
        record = {
            "mu": _mu_record(mu),
            "restart": restart,
            "sigma_p": fit.sigma_p,
            "alpha": [t.amplitude for t in fit.taps],
            "phi": [float(np.mod(t.phase, 2.0 * np.pi)) for t in fit.taps],
            "fidelity": trial,
            "residual": fit.residual,
            "converged": fit.converged,
        }
        records.append(record)
        if best is None or trial > best[0]:
            best = (trial, fit.residual, fit.sigma_p, fit.taps)
    return mu_idx, mu, records, best


def _polish_candidate(cfg, search, mu, sigma_p, taps):
    """Derivative-free refinement of one candidate.

    Maximizes the trial score directly (Nelder-Mead over the pump width
    and taps) on the configured signal/idler grid, where the score
    coincides with the verification fidelity; the coarse restart grids
    admit spurious optima that do not survive verification, so the
    polish must run at full resolution.
    """
    *_, score = _trial_context(cfg, mu, _POLISH_PUMP_POINTS, cfg.grid.n_points)
    res = minimize(
        lambda x: -score(*_unpack(x)),
        _pack(sigma_p, [t.amplitude for t in taps], [t.phase for t in taps]),
        method="Nelder-Mead",
        options=dict(maxfev=search.polish_evals, xatol=1e-6, fatol=1e-10),
    )
    return _unpack(res.x)


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


def optimize_state(cfg: DeviceConfig, search: SearchConfig) -> OptimizeResult:
    """Full inverse loop over the mu grid with seeded multi-start fits.

    The trace is deterministic for a fixed seed: each restart draws from
    an RNG keyed by (seed, mu index, restart), the draw order is sigma_p,
    amplitudes, phases, and records are merged by (mu index, restart)
    regardless of execution order.
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
    tasks = [(cfg, search, idx, mu) for idx, mu in enumerate(mu_points)]
    workers = _worker_count(len(tasks))
    if workers == 1:
        results = [_run_mu_point(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_mu_point, tasks))
    results.sort(key=lambda r: r[0])
    trace = []
    candidates = []
    for mu_idx, mu, records, point_best in results:
        trace.extend(records)
        candidates.append((point_best, mu))
    # trial scores are computed at the reduced working resolution with a
    # flat phase-matching function; re-verify each mu point's best
    # candidate on the configured grid with the full model and select by
    # that score
    def verified_score(mu, sigma_p, taps):
        cand_cfg = apply_free_params(cfg, mu, sigma_p, taps)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            verified = simulate(cand_cfg)
        return (
            verified.purity if cfg.target.dimension == 1 else verified.fidelity
        )

    scored = []
    for (score, residual, sigma_p, taps), mu in candidates:
        scored.append(
            (verified_score(mu, sigma_p, taps), residual, sigma_p, taps, mu)
        )
    scored.sort(key=lambda s: -s[0])
    best = scored[0]
    # refine the leading candidates at full resolution; keep a polished
    # parameter set only if it re-verifies better
    if search.polish_evals > 0:
        for vscore, residual, sigma_p, taps, mu in scored[: search.polish_top]:
            sigma_ref, taps_ref = _polish_candidate(
                cfg, search, mu, sigma_p, taps
            )
            vref = verified_score(mu, sigma_ref, taps_ref)
            if vref > best[0]:
                best = (vref, residual, sigma_ref, taps_ref, mu)
    score, residual, sigma_p, taps, mu = best
    best_cfg = apply_free_params(cfg, mu, sigma_p, taps)
    return OptimizeResult(
        best_config=best_cfg,
        best_mu=tuple(mu),
        fidelity=score,
        residual=residual,
        trace=tuple(trace),
    )

