"""Inverse design: recover free parameters that realize a target state.

The six-step procedure: (1) fix the device constants and the target
state; (2) pick a value of the inter-ring coupling mu for the chains
swept_chains names and build the signal-idler filter TDSI; (3) divide
the target JSA by the TDSI (regularized) and read its anti-diagonal
profile (_target_profile, at the offsets _profile_offsets, the quotient
taken only at the grid nodes the profile's bilinear read needs),
reducing the problem to one dimension; (4) least-squares fit the
magnitude of the pump-side model (envelope width sigma_p and the FIR
taps, the shaped pump of pulse_shaper.shaped_pump that simulate
evaluates, through the ADP model the forward path uses and its exact
derivative) to that profile's magnitude; (5) repeat the fit from many
random initial tap settings; (6) sweep mu over _MU_VALUES, rank the mu
points by their best restart's trial score, refine the _POLISH_TOP
leading ones with a derivative-free polish at the configured resolution,
and keep the candidate whose simulate figure is best.  optimize_state
returns that simulate result, the design and its verified figures, with
the trace and the fits' statistics, and no other copy of a figure.

The fits of steps (4)-(5) for the mu points of one task, every restart
of each, are the rows of one batch: one vectorized
trust-region-reflective loop (trf.least_squares_trf, a port of the loop
scipy's least_squares runs) steps all of them at once, with one FFT
stack and one stacked SVD per step, and a row's fit is bit for bit the
one it gets alone, so the trace does not depend on how the mu points are
split among the pool's workers.  The profiles and l_p enter the fit as
arrays, one row per fit, and a candidate stays the search vector x =
(log sigma_p, tap amplitudes, tap phases) of _pack from the fit through
the trial scores and the polish; it becomes a DeviceConfig only for a
verification (_unpack), whose result carries the final design.

The phase-matching function is treated as unity inside the loop (the
factorized model) and enters only in the verification (_verification),
which is a simulate call in the calling process: a verified score is
the figure simulate reports for the design, and the winner's
verification is the report.  With it unity, the reported trial state is
|ADP(w_s + w_i)| |l_s| |l_i| times the pi-flip signs, a function of the
sum frequency times a product, so every trial score (each restart's
record and every polish step) starts from the 2n - 1 sum frequencies of
the n^2 grid: an entangled target reads its HG pair amplitudes off them,
and the separable target's purity is the squared Frobenius norm of the
Gram matrix of the n^2 state built from them.  Every target's mu points
are ranked by their best restart's trial score, and only the polish's
leaders and their polished parameters are verified: 2 simulate calls
per leader, or 1 with the polish off.  The pool's workers fit, score and
polish; every verification runs in the calling process.
"""

from __future__ import annotations

import ctypes
import functools
import heapq
import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .analysis import hg_basis, pair_fidelity, target_jsa
from .config import DeviceConfig
from .errors import ConfigError, NumericalError
from .jsa import (
    AdpModel,
    Jsa,
    _centre_cut,
    _check_adp_input,
    flip_signs,
    sum_axis,
)
from .pulse_shaper import PumpSpec, Tap, shaped_pump, tap_phasors
from .resonator import field_enhancement_chain
from .simulate import SimulationResult, build_grids, simulate
from .spectral import Field1D, SpectralGrid
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
# internal working resolutions of the search loop: the fit's pump grid
# and profile; the most signal/idler points of the separable target's
# trial grid, whose pump grid is the fit's (a purity on the configured
# grid costs 6-8 ms a restart at 512^2; a coarser configured grid is
# scored on its own points); and the pump grid of every other
# trial score.  On 512 pump points the fitted Bell candidate at 0.25 GHz
# (256^2, seed 0) scores 0.836 against 0.9097 verified; on 2048 each of
# that design's 21 candidates scores within 9e-5 of its verification.
_FIT_PUMP_POINTS = 512
_FIT_PROFILE_POINTS = 129
_SEPARABLE_TRIAL_POINTS = 128
_POLISH_PUMP_POINTS = 2048
# the most points a mu grid may have: a 26.7 GHz MZI reach in steps of
# 27 kHz, far finer than any design needs, while the grid (8 MB) and
# sweep-mzi's table (about 60 MB) still fit in memory; the count is
# checked before the grid is allocated
_MU_GRID_MAX_POINTS = 10**6
# the most restarts per mu point: 10^4 on the default 21 mu points is
# 2.1e5 ADP fits, hours of CPU at 20-40 ms a fit, and as many trace
# records held in memory; the count is checked before any task is built
_MAX_RESTARTS = 10**4


def mu_grid(mu_min: float, mu_max: float, mu_step: float) -> np.ndarray:
    """mu_min, mu_min + mu_step, ... up to mu_max; a last point that
    overshoots mu_max by up to 1e-9 of a step is clipped to it, so no point
    passes mu_max.  An empty range, or a step so small that the grid would
    pass _MU_GRID_MAX_POINTS, is a ConfigError."""
    steps = np.floor((mu_max - mu_min) / mu_step + 1e-9)
    if not steps < _MU_GRID_MAX_POINTS:
        raise ConfigError(
            f"mu grid has no point count up to {_MU_GRID_MAX_POINTS}: min {mu_min}, "
            f"max {mu_max}, step {mu_step}"
        )
    n = int(steps) + 1
    if n < 1:
        raise ConfigError(
            f"empty mu grid: min {mu_min}, max {mu_max}, step {mu_step}"
        )
    return np.minimum(mu_min + mu_step * np.arange(n), mu_max)


# each swept coupling's values, (min, max, step) in rad/s (1 GHz = 1e9
# s^-1, no 2 pi); sweep-mzi tabulates the same points by default
_MU_RANGE = (0.0, 5.0e9, 0.25e9)
_MU_VALUES = mu_grid(*_MU_RANGE)
# the polish of the leading mu points, on the configured grid: evaluations
# per leader (0 disables it) and the leaders, verified either way
_POLISH_EVALS = 400
_POLISH_TOP = 2


@dataclass(frozen=True)
class OptimizeResult:
    verification: SimulationResult  # simulate of the winning design
    trace: tuple                 # of dict, ordered by (mu index, restart)
    fits: dict                   # the ADP fits' converged fraction and
                                 # median nfev and njev


# ---------------------------------------------------------------------------
# step (3): decoupling and extraction

def _profile_offsets(grid_s: SpectralGrid, grid_i: SpectralGrid) -> np.ndarray:
    """The _FIT_PROFILE_POINTS offsets u of the sum frequency w_s + w_i from
    its center value w_s0 + w_i0 at which _target_profile reads a target,
    spanning the smaller grid."""
    span = 2.0 * min(grid_s.half_span, grid_i.half_span)
    return np.linspace(-span, span, _FIT_PROFILE_POINTS)


def _filter_peak(l_s: np.ndarray, l_i: np.ndarray) -> float:
    """max |l_s[j] l_i[k]|^2 over all (j, k), bit for bit the maximum over
    the n^2 outer product, taken over the pairs whose factors each lie
    within 1e-12 of their own largest magnitude: rounding moves a product
    by a few 1e-16, so the pair that holds the maximum is among them."""
    a_s, a_i = np.abs(l_s), np.abs(l_i)
    js = np.flatnonzero(a_s >= (1.0 - 1e-12) * a_s.max())
    ks = np.flatnonzero(a_i >= (1.0 - 1e-12) * a_i.max())
    return np.max(np.abs(l_s[js, None] * l_i[ks]) ** 2)


def _target_profile(target: Jsa, l_s: Field1D, l_i: Field1D) -> np.ndarray:
    """The target's complex anti-diagonal profile with the signal-idler
    filter divided out, at the sum-frequency offsets _profile_offsets
    gives.

    The target F is divided by the filter T = l_s(w_s) l_i(w_i),
    regularized: G = F conj(T) / (|T|^2 + eps^2 max|T|^2); where |T| >>
    eps this approaches F / T, and the regularization keeps the quotient
    bounded in the filter's nulls.  The profile is u -> G(w_s0 + u/2,
    w_i0 + u/2), bilinearly interpolated, real and imaginary parts apart;
    the cut runs along the main diagonal, on which the anti-diagonal
    coordinate is constant.  T is formed only at the four nodes around
    each offset, the corners the interpolation reads, and at the few
    nodes that can hold max|T|^2 (_filter_peak).
    """
    peak = _filter_peak(l_s.values, l_i.values)
    if peak == 0.0:
        raise NumericalError("TDSI is identically zero")
    grid_s, grid_i = target.grid_s, target.grid_i
    u = _profile_offsets(grid_s, grid_i)
    fs = (grid_s.center + u / 2.0 - grid_s.samples[0]) / grid_s.spacing
    fi = (grid_i.center + u / 2.0 - grid_i.samples[0]) / grid_i.spacing
    j = np.clip(np.floor(fs).astype(int), 0, grid_s.n_points - 2)
    k = np.clip(np.floor(fi).astype(int), 0, grid_i.n_points - 2)
    ts = np.clip(fs - j, 0.0, 1.0)
    ti = np.clip(fi - k, 0.0, 1.0)
    # rows: the corners (j, k), (j + 1, k), (j, k + 1), (j + 1, k + 1); each
    # weight enters as two factors and the corners add left to right, the
    # order of a bilinear read of the whole quotient, so the bytes match it
    j = j + np.array([[0], [1], [0], [1]])
    k = k + np.array([[0], [0], [1], [1]])
    tdsi = l_s.values[j] * l_i.values[k]
    g = target.amplitude[j, k] * np.conj(tdsi) / (
        np.abs(tdsi) ** 2 + _EPSILON * _EPSILON * peak
    )
    w_s = np.array([1 - ts, ts, 1 - ts, ts])
    w_i = np.array([1 - ti, 1 - ti, ti, ti])
    re = g.real * w_s * w_i
    im = g.imag * w_s * w_i
    return (re[0] + re[1] + re[2] + re[3]) + 1j * (im[0] + im[1] + im[2] + im[3])


# ---------------------------------------------------------------------------
# step (4): least-squares ADP fit

def _pack(sigma_p: float, amplitudes, phases) -> np.ndarray:
    """Search vector x = (log sigma_p, tap amplitudes, tap phases)."""
    return np.concatenate([[np.log(sigma_p)], amplitudes, phases])


def _split(x: np.ndarray):
    """(sigma_p, amplitudes, phases) of a search vector, the amplitudes
    clipped to [0, 1]."""
    n_taps = (len(x) - 1) // 2
    return np.exp(x[0]), np.clip(x[1 : 1 + n_taps], 0.0, 1.0), x[1 + n_taps :]


def _unpack(x: np.ndarray):
    """(sigma_p, taps) of a search vector, amplitudes clipped to [0, 1]."""
    sigma_p, amps, phases = _split(x)
    return float(sigma_p), tuple(Tap(float(a), float(p)) for a, p in zip(amps, phases))


def _magnitude_fit(profiles, sums, template: PumpSpec, grid: SpectralGrid, l_ps):
    """The batched magnitude fit's pieces: (residual, jacobian).

    Row r of the batch fits the complex profile profiles[r], read at the
    absolute sum frequencies sums, through the l_p values l_ps[r] on the
    pump grid; both are arrays with one row per fit.  The rows share
    their sum frequencies and pump grid, so the tap phasors, the squared
    detuning and the ADP model are built once; each row has its own
    profile and l_p, since the separable target sweeps the pump chain.
    residual(rows, x) gives c |ADP| - data of the rows numbered rows at
    their search vectors x (see _pack), one per row, with data a row's
    unit-normalized profile magnitude and the scale c eliminated in
    closed form, and the evaluation it came from (the envelope, alpha_p
    l_p, its spectrum, the ADP, |ADP| and c); jacobian(rows, x, point) is
    the residual's exact Jacobian from that evaluation, so alpha_p l_p is
    built and transformed once per search point.  A row's numbers do not
    depend on the rows around it: shaped_pump sums tap by tap, and every
    row reduction runs along a contiguous last axis.
    """
    if not np.all(np.any(profiles, axis=-1)):
        raise NumericalError("profile is identically zero")
    data_mag = np.abs(
        profiles / np.sqrt(np.sum(np.abs(profiles) ** 2, axis=-1))[:, None]
    )
    n_taps = len(template.taps)

    # the squared detunings and tap phasors shaped_pump takes on the pump
    # grid, and the ADP model at the profiles' sum frequencies, set up once
    # per batch; the model's FFT only spans the part of the sum grid the
    # profile reads
    detuning2 = (grid.samples - template.carrier) ** 2
    phasors = tap_phasors(template, grid)
    adp = AdpModel(grid, sums)

    def residual(rows, x):
        env, fir = shaped_pump(
            detuning2, np.exp(x[:, :1]), x[:, 1 : 1 + n_taps], x[:, 1 + n_taps :],
            phasors,
        )
        # alpha_p l_p, zero-padded for the FFT in place
        padded = np.zeros((len(rows), adp.n_fft), dtype=complex)
        apl = padded[:, : grid.n_points]
        np.multiply(env, fir, out=apl)
        apl *= l_ps[rows]
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
        np.multiply((env * l_ps[rows])[:, None, :], phasors, out=head[:, 1:])
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


def _fit_batch(profiles, sums, template: PumpSpec, grid: SpectralGrid, l_ps, x0):
    """Fit sigma_p and the FIR taps so |ADP| matches each profile's
    magnitude: row r fits profiles[r] through l_ps[r] from the search
    vector x0[r] (see _pack and _magnitude_fit).

    Minimizes sum_u (c |ADP(u)| - |profile(u)|)^2 over sigma_p
    (log-space), the tap amplitudes (bounded to [0, 1]), the tap phases,
    and a real global scale c >= 0 eliminated in closed form at every
    step (both sides carry arbitrary normalization).  The minimizer is
    the trust-region-reflective loop of scipy's least_squares (method
    "trf", exact trust-region solves, x_scale 1, gtol _FIT_GTOL, xtol
    _FIT_XTOL, no ftol), ported in trf.least_squares_trf so that the
    inverse loop runs the fits of many restarts and mu points as one
    batch: the rows share one loop and leave it as they terminate, and a
    row's fit is bit for bit the one it gets alone.  The steps use the
    exact Jacobian of the variable-projection residual (Golub & Pereyra,
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

    Returns arrays with one entry per row: (x, residual, converged, nfev,
    njev), the fitted search vectors with their phases wrapped to
    [0, 2 pi), the squared residual norms, whether each fit met a
    tolerance, and its residual and Jacobian evaluations.
    """
    residual, jacobian = _magnitude_fit(profiles, sums, template, grid, l_ps)
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
    f, _ = residual(np.arange(len(x)), x)
    return x, np.sum(f * f, axis=-1), status > 0, nfev, njev


# ---------------------------------------------------------------------------
# steps (5)-(6): multi-start search over the mu grid

def swept_chains(cfg: DeviceConfig) -> tuple:
    """The chains the coupling mu sweeps, as (key under the config's
    resonator section, DeviceConfig field) pairs: the signal and idler
    chains for an entangled target, the pump chain for the separable
    (D = 1) target."""
    if cfg.target.dimension >= 2:
        return (("signal", "signal"), ("idler", "idler"))
    return (("pump", "pump_resonance"),)


def _swept_chains(cfg: DeviceConfig, mu: tuple):
    """The config with the coupling tuple mu on every swept chain."""
    return replace(cfg, **{
        field: replace(getattr(cfg, field), couplings=mu)
        for _, field in swept_chains(cfg)
    })


def apply_free_params(
    cfg: DeviceConfig, mu: tuple, sigma_p: float, taps
) -> DeviceConfig:
    """Template config with the searched free parameters substituted."""
    cfg = _swept_chains(cfg, tuple(mu))
    pump = replace(cfg.pump, sigma_p=sigma_p, taps=tuple(taps))
    return replace(cfg, pump=pump)


def _trial_contexts(cfg: DeviceConfig, pump_points: int, n_points: int, chain=None):
    """The trial scores of one template, as a map mu -> score.

    context(mu) returns score(sigma_p, amplitudes, phases), the trial
    score of the reported state with a flat phase-matching function on an
    n_points^2 signal/idler grid, the shaped pump taken on a pump grid of
    pump_points, for the template with the swept couplings mu.  That
    state is |ADP(w_s + w_i)| |l_s(w_s)| |l_i(w_i)| s[j + k] / N, where s
    is the pi-flip sign field over the sum index m = j + k that
    impose_pi_phase imposes (jsa.sum_axis, jsa.flip_signs), so a score
    starts from the 2n - 1 sum frequencies.  The grids, the HG bases, the
    tap phasors, the squared detuning, the sums with their ADP model and
    the cell area dA do not depend on mu and are built here, once.  A
    context builds the chains and what depends on them: C_k = (f_k |l_s|)
    * (f_k |l_i|) (linear convolutions) for the HG orders k, D = |l_s|^2
    * |l_i|^2, the weights of jsa._centre_cut's samples (|l_s[h]| |l_i[h]|
    on the centre diagonal, |l_s[h + 1]| |l_i[h]| + |l_s[h]| |l_i[h + 1]|
    beside it), and for a target of one coefficient the product
    |l_s| |l_i|.
    chain(spec, grid) builds the chains, field_enhancement_chain by
    default, or a task's cache of it that the fit's inputs share.

    A score evaluates the shaped pump times l_p, takes |ADP| at the sums,
    hands _centre_cut the diagonals |ADP| times those weights,
    multiplies the cut's sign field into |ADP| and takes N^2 = dA D.|ADP|^2;
    the taps come as arrays (see _split), so a search vector is scored
    without building Tap tuples.  An entangled target's score is
    pair_fidelity of c_kk = dA C_k.(s |ADP|) / N, the diagonal pair
    amplitudes (Brecht et al., PRX 5, 041017 (2015)).  A target of one
    coefficient (the separable target) scores the purity, which needs the
    whole state: the score builds the n^2 state A = s |ADP|[j + k] |l_s[j]|
    |l_i[k]| / N through a Hankel view of the sums and returns the sum of
    the squared Schmidt weights as ||G||_F^2 of the real Gram matrix
    G = A A^T dA.  A is normalized before the product: scaling the
    product by (dA / N^2)^2 instead gives NaN once N^2 is tiny (1.3e-203
    on one restart of the separable search).
    It raises what simulate raises on degenerate input.
    """
    chain = chain or field_enhancement_chain
    pump_grid, grid_s, grid_i = build_grids(cfg, n_points)
    pump_grid = SpectralGrid(pump_grid.center, pump_grid.half_span, pump_points)
    target_coeff = cfg.target.coefficients
    separable = len(target_coeff) == 1
    modes_s = hg_basis(4, grid_s, cfg.target.sigma)
    modes_i = hg_basis(4, grid_i, cfg.target.sigma)
    phasors = tap_phasors(cfg.pump, pump_grid)
    detuning2 = (pump_grid.samples - cfg.pump.carrier) ** 2
    n = grid_s.n_points
    sums, offsets, u, cell = sum_axis(grid_s, grid_i)
    # the 2n - 1 sums span half the sum grid: the model reads them off a
    # shorter FFT (2520 points instead of 4096 at 2048 pump points)
    adp = AdpModel(pump_grid, sums)
    cell_area = grid_s.spacing * grid_i.spacing

    def context(mu):
        trial_cfg = _swept_chains(cfg, mu)
        l_p = chain(trial_cfg.pump_resonance, pump_grid).values
        mag_s = np.abs(chain(trial_cfg.signal, grid_s).values)
        mag_i = np.abs(chain(trial_cfg.idler, grid_i).values)
        overlaps = np.array(
            [np.convolve(fs * mag_s, fi * mag_i) for fs, fi in zip(modes_s, modes_i)]
        )
        weight = np.convolve(mag_s * mag_s, mag_i * mag_i)
        node = mag_s * mag_i
        cross = mag_s[1:] * mag_i[:-1] + mag_s[:-1] * mag_i[1:]
        if separable:
            filt = np.outer(mag_s, mag_i)

        def score(sigma_p, amplitudes, phases):
            env, fir = shaped_pump(detuning2, sigma_p, amplitudes, phases, phasors)
            apl = env * fir * l_p
            _check_adp_input(apl)
            a = np.abs(adp(apl))
            norm2 = cell_area * np.dot(weight, a * a)
            if norm2 == 0.0:
                raise NumericalError("cannot normalize an all-zero JSA")
            cut = _centre_cut(a[0::2] * node, a[1::2] * cross)
            flip_signs(a, u, cut, offsets, cell)
            if separable:
                amp = sliding_window_view(a, n) * filt
                amp *= 1.0 / np.sqrt(norm2)
                g = amp @ amp.T
                g *= cell_area
                # no n^2 temporary, and unlike a BLAS dot, a sum that does
                # not depend on the BLAS thread count
                return float(np.einsum("ij,ij->", g, g))
            ckk = overlaps @ a * (cell_area / np.sqrt(norm2))
            if not np.any(ckk):
                return 0.0
            return pair_fidelity(np.diag(ckk), target_coeff)

        return score

    return context


def _mu_record(mu: tuple) -> dict:
    return {f"mu_{m + 1}{m + 2}": float(v) for m, v in enumerate(mu)}


def _verification(
    cfg: DeviceConfig, mu: tuple, sigma_p: float, taps
) -> SimulationResult:
    """simulate of a candidate, on the configured grid.  Its score is the
    fidelity it reports, or its purity for the separable target.  That
    target's fidelity is no use as a score: pair_fidelity pads the one
    coefficient to d = 4, so it reads |c_00|^2 / sum_{k<4} |c_kk|^2, the
    weight of HG 00 among the first four pair modes, not the state's
    separability."""
    return simulate(apply_free_params(cfg, mu, sigma_p, taps))


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
    """All restarts of one task's mu points, and each point's best
    candidate.

    The task takes the mu points numbered mu_idx, as (mu_idx, mu) pairs.
    It builds the target JSA once, and each resonance chain once per grid
    (a cache shared by the trial scores and the fits' inputs, so the
    chains that mu does not sweep are built once per task).  The fits of
    every (mu point, restart) run as rows of _fit_batch, at most
    _FIT_BATCH rows at a time; a row's fit does not depend on the batch it
    runs in.  Every restart gets a trial score, the record's fidelity,
    and the best one ranks the point: an entangled target's on the
    configured grid and the polish's pump grid (_POLISH_PUMP_POINTS), the
    separable target's on the reduced grids: _FIT_PUMP_POINTS pump
    points, and _SEPARABLE_TRIAL_POINTS signal/idler points or the
    configured count where that is smaller.  Returns, per point, (mu_idx,
    records, candidate, fits): candidate is (trial score, x, mu) of the
    restart with the best trial score, x its fitted search vector, and
    fits holds each restart's (converged, nfev, njev) as a row.
    """
    cfg, restarts, seed, points = args
    n_taps = len(cfg.pump.taps)
    chain = functools.lru_cache(maxsize=None)(field_enhancement_chain)
    pump_grid, grid_s, grid_i = build_grids(cfg)
    fit_grid = SpectralGrid(pump_grid.center, pump_grid.half_span, _FIT_PUMP_POINTS)
    target = target_jsa(cfg.target, grid_s, grid_i)
    trial_grids = (
        (_POLISH_PUMP_POINTS, grid_s.n_points)
        if cfg.target.dimension >= 2
        else (_FIT_PUMP_POINTS, min(_SEPARABLE_TRIAL_POINTS, grid_s.n_points))
    )
    context = _trial_contexts(cfg, *trial_grids, chain)
    sums = grid_s.center + grid_i.center + _profile_offsets(grid_s, grid_i)
    scores, profiles, l_ps, starts = [], [], [], []
    for mu_idx, mu in points:
        trial_cfg = _swept_chains(cfg, mu)
        scores.append(context(mu))
        profile = _target_profile(
            target, chain(trial_cfg.signal, grid_s), chain(trial_cfg.idler, grid_i)
        )
        profiles.extend([profile] * restarts)
        l_ps.extend([chain(trial_cfg.pump_resonance, fit_grid).values] * restarts)
        starts.extend(
            _start(seed, mu_idx, restart, n_taps)
            for restart in range(restarts)
        )
    batches = [
        _fit_batch(
            np.array(profiles[lo : lo + _FIT_BATCH]), sums, cfg.pump, fit_grid,
            np.array(l_ps[lo : lo + _FIT_BATCH]), np.array(starts[lo : lo + _FIT_BATCH]),
        )
        for lo in range(0, len(starts), _FIT_BATCH)
    ]
    x, residual, converged, nfev, njev = map(np.concatenate, zip(*batches))
    fits = np.stack((converged, nfev, njev), axis=-1)
    results = []
    for offset, ((mu_idx, mu), score) in enumerate(zip(points, scores)):
        rows = range(offset * restarts, (offset + 1) * restarts)
        records = []
        best = None
        for restart, r in enumerate(rows):
            sigma_p, amplitudes, phases = _split(x[r])
            trial = score(sigma_p, amplitudes, phases)
            records.append({
                "mu": _mu_record(mu),
                "restart": restart,
                "sigma_p": float(sigma_p),
                "alpha": amplitudes.tolist(),
                "phi": np.mod(phases, 2.0 * np.pi).tolist(),
                "fidelity": trial,
                "residual": float(residual[r]),
                "converged": bool(converged[r]),
            })
            if best is None or trial > best[0]:
                best = (trial, x[r], mu)
        results.append((mu_idx, records, best, fits[rows]))
    return results


def _polish_candidate(args):
    """The polished search vector of one leading mu point: a Nelder-Mead
    polish of the trial score from the point's best restart x, spending
    the task's evals (_POLISH_EVALS in optimize_state's process).

    The polish maximizes the trial score directly (Nelder-Mead over the
    pump width and taps) on the configured signal/idler grid, where the
    score coincides with the fidelity simulate reports up to the
    phase-matching function; coarse grids admit spurious optima that do
    not survive verification, so the polish must run at full resolution.
    Each step scores its search vector from the 2n - 1 sum frequencies of
    that n^2 grid (_trial_contexts).  The calling process verifies the
    polished vector.
    """
    cfg, evals, x, mu = args
    score = _trial_contexts(cfg, _POLISH_PUMP_POINTS, cfg.grid.n_points)(mu)
    # the start is the vector of the leader's parameters as scored and
    # verified: exp, log and the amplitude clip need not give back x
    return _nelder_mead(
        lambda v: -score(*_split(v)),
        _pack(*_split(x)),
        maxfev=evals, xatol=1e-6, fatol=1e-10,
    )


class _BudgetSpent(Exception):
    """The polish's evaluation budget ran out."""


def _nelder_mead(f, x0, maxfev, xatol, fatol):
    """Minimize f from x0 by the Nelder-Mead simplex (Nelder and Mead,
    Comput. J. 7, 308 (1965)); returns the best vertex.

    An operation-for-operation port of the unbounded, non-adaptive
    _minimize_neldermead of scipy 1.17, so a polish takes the steps
    scipy.optimize.minimize(method="Nelder-Mead") takes: its initial
    simplex (each coordinate times 1.05, or 0.00025 where it is 0), its
    reflection, expansion, contraction and shrink coefficients (1, 2, 0.5,
    0.5), its vertex order (np.argsort, not stable) and its budget, checked
    before every evaluation, so it may run out inside the initial simplex
    or a shrink.  The loop stops when the budget is spent or when every
    vertex lies within xatol of the best and every value within fatol.
    """
    n = len(x0)
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        sim[k + 1] = x0
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.full(n + 1, np.inf)
    nfev = 0

    def func(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _BudgetSpent
        nfev += 1
        return f(x)

    try:
        for k in range(n + 1):
            fsim[k] = func(sim[k])
    except _BudgetSpent:
        pass
    # scipy sorts twice here; an unstable sort may reorder equal values
    for _ in range(2):
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    while nfev < maxfev:
        try:
            if (
                np.max(np.abs(sim[1:] - sim[0])) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol
            ):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            # reflection
            xr = 2 * xbar - sim[-1]
            fxr = func(xr)
            if fxr < fsim[0]:
                # expansion
                xe = 3 * xbar - 2 * sim[-1]
                fxe = func(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:
                    # outside contraction
                    xc = 1.5 * xbar - 0.5 * sim[-1]
                    fxc = func(xc)
                    shrink = not fxc <= fxr
                    if not shrink:
                        sim[-1], fsim[-1] = xc, fxc
                else:
                    # inside contraction
                    xcc = 0.5 * xbar + 0.5 * sim[-1]
                    fxcc = func(xcc)
                    shrink = not fxcc < fsim[-1]
                    if not shrink:
                        sim[-1], fsim[-1] = xcc, fxcc
                if shrink:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = func(sim[j])
        except _BudgetSpent:
            pass
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    return sim[0]


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
    them (a trial score's Gram product or HG overlaps) leaves OpenBLAS
    threads spinning on the cores the other workers compute on; the
    verifications run in the calling process, on its threads.  Where no
    OpenBLAS is found (another BLAS, no /proc), this does nothing.
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
    """The mu indices each of the pool's tasks takes, dealt round-robin:
    of C tasks, task c takes c, c + C, ...  At least one task per worker
    (workers <= n_points), of sizes that differ by at most one, and no
    more points than _FIT_BATCH fits fill, but at least one.  Dealt, not
    cut into runs, because a fit's cost grows with mu: high-mu fits run
    to the evaluation cap, low-mu ones stop near 50 evaluations (one
    restart of Bell at 256^2, seed 0: the contiguous halves of the 21
    points take 896 and 1320 residual evaluations, the dealt ones 1211
    and 1005)."""
    per_chunk = max(1, _FIT_BATCH // restarts)
    n_chunks = max(workers, -(-n_points // per_chunk))
    return [range(c, n_points, n_chunks) for c in range(n_chunks)]


def optimize_state(cfg: DeviceConfig, restarts: int, seed: int) -> OptimizeResult:
    """Full inverse loop with seeded multi-start fits, each swept coupling
    taking the values of _MU_VALUES, restarts of them per mu point.

    The trace is deterministic for a fixed seed: each restart draws from
    an RNG keyed by (seed, mu index, restart), the draw order is sigma_p,
    amplitudes, phases, and records are merged by (mu index, restart)
    regardless of execution order.  One process pool, of at most
    TFM_SYNTH_THREADS workers, runs the mu points (the fits and their
    trial scores) and then the polish of each of the _POLISH_TOP leading
    mu points; with one worker everything runs in this process.  Every
    target's mu points are ranked by their best restart's trial score.
    Every verification (a simulate call, _verification) runs in this
    process once the pool has polished the leaders: of the leaders, then
    of their polished vectors; the winner's is returned, and its config
    is the design, the swept couplings included.  At most two
    verifications are held at a time (one of 8192^2 holds 512 MB).  Only
    this process reads the mu grid and the polish constants; a task
    carries what it needs of them.  A restart count outside
    1.._MAX_RESTARTS, a negative seed, and a config whose swept chains
    (see swept_chains) have no coupling, or different stage counts, are
    ConfigErrors, raised before any task is built.
    """
    if not 1 <= restarts <= _MAX_RESTARTS:
        raise ConfigError(f"restarts must be 1..{_MAX_RESTARTS}, got {restarts}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    keys, fields = zip(*swept_chains(cfg))
    swept = " and ".join(keys) + (" chains" if len(keys) > 1 else " chain")
    chains = [getattr(cfg, field) for field in fields]
    stages = sorted({chain.stages for chain in chains})
    if len(stages) > 1:
        raise ConfigError(
            f"the swept {swept} share one coupling tuple but have "
            f"{' and '.join(str(chain.stages) for chain in chains)} stages"
        )
    if stages == [1]:
        raise ConfigError(f"swept {swept} with one ring: no coupling to sweep")
    n_swept = stages[0] - 1
    # the last coupling varies fastest
    mu_points = list(itertools.product(_MU_VALUES.tolist(), repeat=n_swept))
    workers = _worker_count(len(mu_points))
    tasks = [
        (cfg, restarts, seed, [(i, mu_points[i]) for i in chunk])
        for chunk in _chunks(len(mu_points), restarts, workers)
    ]
    separable = cfg.target.dimension == 1

    def verified(x, mu):
        result = _verification(cfg, mu, *_unpack(x))
        return result.purity if separable else result.fidelity, result

    with ExitStack() as stack:
        if workers == 1:
            run = map
        else:
            pool = ProcessPoolExecutor(
                max_workers=workers, initializer=_one_blas_thread
            )
            run = stack.enter_context(pool).map
        results = sorted(
            (point for chunk in run(_run_mu_points, tasks) for point in chunk),
            key=lambda point: point[0],
        )
        trace = []
        scored = []
        fits = []
        for _, records, candidate, point_fits in results:
            trace.extend(records)
            scored.append(candidate)
            fits.append(point_fits)
        # the mu points are ranked by their best trial score (see
        # _run_mu_points); nlargest keeps sort's order of equal scores
        leaders = heapq.nlargest(_POLISH_TOP, scored, key=lambda c: c[0])
        polished = []
        if _POLISH_EVALS > 0:
            polished = list(run(
                _polish_candidate,
                [(cfg, _POLISH_EVALS, x, mu) for _, x, mu in leaders],
            ))
    # the leaders first: max keeps the first of equal scores, so a polished
    # parameter set wins only if it verifies better than every leader, and
    # only the best verification so far is kept while the next is made.  No
    # verification runs next to the polish: there, this process's threaded
    # BLAS competed with the busy workers for the cores, and one 256^2
    # verification took 0.15-0.39 s instead of 0.015 s (two workers,
    # 2-vCPU VM)
    best = max((verified(x, mu) for _, x, mu in leaders), key=lambda c: c[0])
    for x, (_, _, mu) in zip(polished, leaders):
        best = max(best, verified(x, mu), key=lambda c: c[0])
    converged, nfev, njev = np.concatenate(fits).T
    return OptimizeResult(
        verification=best[1],
        trace=tuple(trace),
        fits={
            "converged_frac": float(np.mean(converged)),
            "nfev_median": float(np.median(nfev)),
            "njev_median": float(np.median(njev)),
        },
    )
