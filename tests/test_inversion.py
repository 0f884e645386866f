"""Inverse-design pipeline: decoupling, extraction, fitting, search."""

import ctypes
import importlib
import os
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from scipy.signal import fftconvolve

import oracles
from tfm_synth import inversion
from tfm_synth.analysis import (
    pair_fidelity,
    project_to_tfm,
    target_jsa,
)
from tfm_synth.config import ConfigError, TargetConfig, load_preset
from tfm_synth.errors import NumericalError
from tfm_synth.inversion import (
    _EPSILON,
    _FIT_PROFILE_POINTS,
    _MU_VALUES,
    _FIT_PUMP_POINTS,
    _POLISH_PUMP_POINTS,
    _VERIFY_POINTS,
    SearchConfig,
    _filter_peak,
    _fit_batch,
    _magnitude_fit,
    _pack,
    _profile_offsets,
    _split,
    _start,
    _swept_chains,
    _target_profile,
    _trial_contexts,
    _unpack,
    _verified_score,
    apply_free_params,
    optimize_state,
    swept_chains,
)
from tfm_synth.jsa import AdpModel, Jsa, _check_adp_input, flip_signs, normalize
from tfm_synth.pulse_shaper import PumpSpec, shaped_pump, tap_phasors
from tfm_synth.resonator import field_enhancement_chain
from tfm_synth.simulate import build_grids, reported_state, simulate
from tfm_synth.spectral import Field1D, SpectralGrid, hg_mode

S0 = 1215.70e12
I0 = 1214.45e12
P0 = 1215.075e12
# the package's `simulate` attribute is the function, not the module
simulate_module = importlib.import_module("tfm_synth.simulate")
GS = SpectralGrid(S0, 56e9, 128)
GI = SpectralGrid(I0, 56e9, 128)


# ---------------------------------------------------------------------------
# decoupling and extraction: _target_profile

# 129-point grids put the _FIT_PROFILE_POINTS profile samples on the
# diagonal nodes (k, k): the offsets u / 2 step by the grid spacing
NS = SpectralGrid(S0, 56e9, _FIT_PROFILE_POINTS)
NI = SpectralGrid(I0, 56e9, _FIT_PROFILE_POINTS)


def unit_filter(grid):
    return Field1D(grid, np.ones(grid.n_points))


def bell_target_jsa(grid_s=GS, grid_i=GI):
    return target_jsa(TargetConfig(2, 6.0e9), grid_s, grid_i)


def test_decouple_identity_filter():
    """Unit filters leave the target: the profile is its diagonal."""
    f = bell_target_jsa(NS, NI)
    prof = _target_profile(f, unit_filter(NS), unit_filter(NI))
    np.testing.assert_allclose(prof, np.diagonal(f.amplitude), rtol=1e-5)
    # the middle offset is the center sum frequency S0 + I0 itself
    assert _profile_offsets(NS, NI)[_FIT_PROFILE_POINTS // 2] == 0.0


def test_decouple_self_gives_unity_on_support():
    """The separable target divided by its own HG-0 filters is 1 wherever
    the filter is strong."""
    sigma = 6.0e9
    f = target_jsa(TargetConfig(1, sigma), GS, GI)
    prof = _target_profile(f, hg_mode(0, GS, sigma), hg_mode(0, GI, sigma))
    f0 = np.exp(-((_profile_offsets(GS, GI) / 2.0) ** 2) / (2.0 * sigma * sigma))
    strong = f0 * f0 > 0.3
    assert np.count_nonzero(strong) > 5
    np.testing.assert_allclose(prof[strong], 1.0, atol=1e-3)


def test_decouple_round_trip():
    """Decouple then re-multiply recovers the target within 1% L2 on the
    diagonal nodes where the filter is well above the regularization
    floor, for seeded random complex 1-D filters."""
    f = bell_target_jsa(NS, NI)
    rng = np.random.default_rng(4)

    def random_filter(grid):
        return Field1D(
            grid,
            rng.uniform(0.5, 2.0, grid.n_points)
            * np.exp(1j * rng.uniform(0, 2 * np.pi, grid.n_points)),
        )

    l_s, l_i = random_filter(NS), random_filter(NI)
    prof = _target_profile(f, l_s, l_i)
    filt = l_s.values * l_i.values
    back = prof * filt
    want = np.diagonal(f.amplitude)
    region = np.abs(filt) > 10.0 * _EPSILON * np.max(np.abs(filt))
    err = np.linalg.norm((back - want)[region])
    assert err / np.linalg.norm(want[region]) < 0.01


def test_decouple_rejects_bad_inputs():
    f = bell_target_jsa()
    zero = Field1D(GS, np.zeros(GS.n_points))
    with pytest.raises(NumericalError):
        _target_profile(f, zero, unit_filter(GI))


def test_extract_pure_sum_function_exact_at_nodes():
    """A function of w_s + w_i alone is read exactly at the nodes, up to
    the regularization's factor 1 / (1 + eps^2) of a unit filter."""
    sums = NS.samples[:, None] + NI.samples[None, :] - (S0 + I0)
    sigma = 20e9
    f = Jsa(NS, NI, np.exp(-(sums**2) / (2 * sigma * sigma)))
    prof = _target_profile(f, unit_filter(NS), unit_filter(NI))
    u = _profile_offsets(NS, NI)
    expect = np.exp(-(u**2) / (2 * sigma * sigma)) / (1.0 + _EPSILON**2)
    np.testing.assert_allclose(prof.real, expect, atol=1e-12)
    assert not np.any(prof.imag)


def test_extract_gaussian_product_closed_form():
    """f0(dw_s) f0(dw_i) along the cut equals f0(u/2)^2."""
    sigma = 10e9
    f0s = hg_mode(0, GS, sigma).values
    f0i = hg_mode(0, GI, sigma).values
    f = Jsa(GS, GI, np.outer(f0s, f0i))
    prof = _target_profile(f, unit_filter(GS), unit_filter(GI))
    norm = 1.0 / np.sqrt(np.sqrt(np.pi) * sigma)
    u = _profile_offsets(GS, GI)
    expect = (norm * np.exp(-(u / 2.0) ** 2 / (2.0 * sigma * sigma))) ** 2
    # tolerance reflects the bilinear interpolation error at off-node points
    np.testing.assert_allclose(prof.real, expect, atol=2e-3 * expect.max())


def test_extract_symmetry():
    sums = GS.samples[:, None] + GI.samples[None, :] - (S0 + I0)
    f = Jsa(GS, GI, np.cos(sums / 30e9))
    prof = _target_profile(f, unit_filter(GS), unit_filter(GI))
    np.testing.assert_allclose(prof.real, prof.real[::-1], atol=1e-9)


@pytest.mark.parametrize("n_points", [256, 512])
@pytest.mark.parametrize(
    "preset", ["bell_phi_minus", "mes_d3", "mes_d4", "separable"]
)
def test_target_profile_is_the_two_step_profile_bit_for_bit(preset, n_points):
    """The fit's input, as _run_mu_points builds it from the quotient at
    the bilinear interpolation's corners only, equals, byte for byte, the
    reference's regularized division of the whole grid by the
    outer-product filter followed by the bilinear diagonal read, at the
    preset's couplings and at two swept mu."""
    cfg = load_preset(preset)
    cfg = replace(cfg, grid=replace(cfg.grid, n_points=n_points))
    swept = getattr(cfg, swept_chains(cfg)[0][1])
    n_mu = len(swept.couplings)
    for mu in (swept.couplings, (0.75e9,) * n_mu, (2.25e9,) * n_mu):
        trial_cfg = _swept_chains(cfg, mu)
        _, grid_s, grid_i = build_grids(trial_cfg)
        target = target_jsa(cfg.target, grid_s, grid_i)
        l_s = field_enhancement_chain(trial_cfg.signal, grid_s)
        l_i = field_enhancement_chain(trial_cfg.idler, grid_i)
        got = _target_profile(target, l_s, l_i)
        g = oracles.decoupled_target(target, l_s, l_i, _EPSILON)
        u, values = oracles.diagonal_profile(g, grid_s, grid_i, _FIT_PROFILE_POINTS)
        assert np.array_equal(_profile_offsets(grid_s, grid_i), u)
        assert got.tobytes() == values.tobytes()


@pytest.mark.parametrize("n_points", [256, 512])
@pytest.mark.parametrize(
    "preset", ["bell_phi_minus", "mes_d3", "mes_d4", "separable"]
)
def test_filter_peak_is_the_outer_product_maximum_bit_for_bit(preset, n_points):
    """max |l_s[j] l_i[k]|^2, read from the few pairs near both maxima,
    equals the maximum over the whole n^2 outer product, to the bit, at
    every swept mu of the search's grid with all couplings equal.  The
    product of the two largest magnitudes squared differs from it in the
    last bits, so it could not stand in."""
    cfg = load_preset(preset)
    cfg = replace(cfg, grid=replace(cfg.grid, n_points=n_points))
    n_mu = len(getattr(cfg, swept_chains(cfg)[0][1]).couplings)
    _, grid_s, grid_i = build_grids(cfg)
    for m in _MU_VALUES.tolist():
        trial_cfg = _swept_chains(cfg, (m,) * n_mu)
        l_s = field_enhancement_chain(trial_cfg.signal, grid_s).values
        l_i = field_enhancement_chain(trial_cfg.idler, grid_i).values
        want = np.max(np.abs(np.outer(l_s, l_i)) ** 2)
        assert _filter_peak(l_s, l_i).tobytes() == want.tobytes(), m


# ---------------------------------------------------------------------------
# ADP fitting

PUMP_GRID = SpectralGrid(P0, 250e9, 1024)


def pump_template():
    return PumpSpec(
        sigma_p=25.2584049e9,
        carrier=P0,
        taps=oracles.make_taps([0.5] * 6, [0.0] * 6),
        base_delay=75e-12,
        comb_alignment=0.297,
    )


def flat_lp():
    return Field1D(PUMP_GRID, np.ones(PUMP_GRID.n_points))


def lorentzian_lp():
    delta = PUMP_GRID.samples - P0
    return Field1D(PUMP_GRID, 1.0 / (1j * delta + 9.7e9))


def pump_of(spec, grid):
    """The shaped pump of spec on grid, envelope times FIR response."""
    envelope, response = shaped_pump(
        (grid.samples - spec.carrier) ** 2, spec.sigma_p, *tap_arrays(spec.taps),
        tap_phasors(spec, grid),
    )
    return envelope * response


def synth_adp(spec, l_p, u):
    """ADP of the shaped, resonance-filtered pump at sum offsets u, through
    the model the forward path and the fit share."""
    return AdpModel(l_p.grid, 2.0 * P0 + u)(pump_of(spec, l_p.grid) * l_p.values)


def unit_magnitude(values):
    return np.abs(values) / np.sqrt(np.sum(np.abs(values) ** 2))


def fitted_magnitude(fit, template, l_p, prof):
    """c |ADP| of a fit's search vector at the profile's offsets, with the
    scale c = (m.d)/(m.m) eliminated in closed form against the profile's
    unit magnitude d, as the fit eliminates it."""
    sigma_p, taps = _unpack(fit.x)
    spec = replace(template, sigma_p=sigma_p, taps=taps)
    mag = np.abs(synth_adp(spec, l_p, prof.u))
    return np.dot(mag, unit_magnitude(prof.values)) / np.dot(mag, mag) * mag


# a complex anti-diagonal profile at the sum-frequency offsets u from 2 P0
Profile = namedtuple("Profile", "u values")
# one row of _fit_batch's arrays
Fit = namedtuple("Fit", "x residual converged nfev njev")


def synth_profile(spec, l_p, n_u=257, span=112e9):
    u = np.linspace(-span, span, n_u)
    return Profile(u, synth_adp(spec, l_p, u))


def magnitude_fit(profiles, template, l_ps):
    """_magnitude_fit of Profile rows, which share their offsets, through
    Field1D l_p on one pump grid."""
    return _magnitude_fit(
        np.array([p.values for p in profiles]), 2.0 * P0 + profiles[0].u,
        template, l_ps[0].grid, np.array([l_p.values for l_p in l_ps]),
    )


def fit_one(prof, template, l_p, init_sigma_p, init_alphas, init_phis):
    """_fit_batch of one row, from the start with its amplitudes clipped to
    [0, 1]."""
    alphas = np.clip(np.asarray(init_alphas, dtype=float), 0.0, 1.0)
    x0 = _pack(init_sigma_p, alphas, np.asarray(init_phis, dtype=float))
    fit = _fit_batch(
        np.array([prof.values]), 2.0 * P0 + prof.u, template, l_p.grid,
        np.array([l_p.values]), x0[None, :],
    )
    return Fit(*(a[0] for a in fit))


def round_trip_case():
    """Seed-0 taps, their synthesized profile and the fit template."""
    rng = np.random.default_rng(0)
    amps = rng.uniform(0.1, 1.0, 6)
    phis = rng.uniform(0.0, 2.0 * np.pi, 6)
    truth = PumpSpec(
        sigma_p=20e9, carrier=P0, taps=oracles.make_taps(amps, phis),
        base_delay=75e-12, comb_alignment=0.297,
    )
    l_p = lorentzian_lp()
    return amps, phis, synth_profile(truth, l_p), l_p


def test_fit_round_trip_known_taps():
    """Residual < 1e-6 and pointwise |ADP| agreement < 1e-5 of the peak
    when the profile was synthesized from the model itself (seed 0
    taps)."""
    amps, phis, prof, l_p = round_trip_case()
    template = pump_template()
    fit = fit_one(prof, template, l_p, 20e9, amps, phis)
    assert fit.residual < 1e-6
    # reconstructed |ADP| against the input's, both unit-normalized
    got = fitted_magnitude(fit, template, l_p, prof)
    want = unit_magnitude(prof.values)
    np.testing.assert_allclose(got, want, atol=1e-5 * np.max(want))
    assert fit.converged


def test_fit_ignores_profile_phase():
    """The round-trip profile times a seeded random unit-modulus phase, as
    decoupling from the filter leaves it, still fits to < 1e-6."""
    amps, phis, prof, l_p = round_trip_case()
    rng = np.random.default_rng(11)
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, prof.u.shape))
    scrambled = Profile(prof.u, prof.values * phase)
    fit = fit_one(scrambled, pump_template(), l_p, 20e9, amps, phis)
    assert fit.residual < 1e-6


def test_fit_single_tap_gaussian_sigma_recovery():
    """One-tap profile: sigma_p recovered within 0.1%."""
    sigma_true = 18.0e9
    truth = PumpSpec(
        sigma_p=sigma_true, carrier=P0, taps=oracles.make_taps([1.0], [0.0]),
        base_delay=75e-12,
    )
    l_p = flat_lp()
    prof = synth_profile(truth, l_p)
    template = PumpSpec(
        sigma_p=10e9, carrier=P0, taps=oracles.make_taps([0.5], [0.0]),
        base_delay=75e-12,
    )
    fit = fit_one(prof, template, l_p, 10e9, [0.5], [0.0])
    assert np.exp(fit.x[0]) == pytest.approx(sigma_true, rel=1e-3)


def test_fit_zero_profile_rejected():
    prof = Profile(np.linspace(-1e9, 1e9, 33), np.zeros(33))
    with pytest.raises(NumericalError):
        fit_one(prof, pump_template(), flat_lp(), 20e9, [0.5] * 6, [0.0] * 6)


def test_fit_reported_residual_consistent():
    """Reported residual equals the residual of the returned parameters."""
    rng = np.random.default_rng(3)
    truth = PumpSpec(
        sigma_p=15e9, carrier=P0,
        taps=oracles.make_taps(rng.uniform(0.1, 1, 6), rng.uniform(0, 2 * np.pi, 6)),
        base_delay=75e-12,
    )
    l_p = lorentzian_lp()
    prof = synth_profile(truth, l_p)
    fit = fit_one(
        prof, pump_template(), l_p, 30e9,
        rng.uniform(0.1, 1, 6), rng.uniform(0, 2 * np.pi, 6),
    )
    got = fitted_magnitude(fit, pump_template(), l_p, prof)
    direct = float(np.sum((got - unit_magnitude(prof.values)) ** 2))
    assert direct == pytest.approx(fit.residual, rel=1e-6, abs=1e-12)


def single_tap_case():
    """One-tap profile on a flat l_p and its fit template."""
    truth = PumpSpec(
        sigma_p=18.0e9, carrier=P0, taps=oracles.make_taps([1.0], [0.0]),
        base_delay=75e-12,
    )
    template = replace(truth, sigma_p=10e9, taps=oracles.make_taps([0.5], [0.0]))
    return synth_profile(truth, flat_lp()), template, flat_lp()


def central_differences(fun, x, step=1e-6):
    cols = []
    for k in range(len(x)):
        dx = np.zeros_like(x)
        dx[k] = step
        cols.append((fun(x + dx) - fun(x - dx)) / (2.0 * step))
    return np.stack(cols, axis=1)


def jacobian_batch(case):
    """Three rows of one fit batch: the case's profile through its l_p, a
    second profile through another l_p, and the first again."""
    if case == "round_trip":
        _, _, prof, l_p = round_trip_case()
        template = pump_template()
        rng = np.random.default_rng(1)
        taps = oracles.make_taps(
            rng.uniform(0.1, 1.0, 6), rng.uniform(0.0, 2.0 * np.pi, 6)
        )
        other = replace(template, sigma_p=12e9, taps=taps)
        other_lp = flat_lp()
    else:
        prof, template, l_p = single_tap_case()
        other = replace(template, sigma_p=12e9)
        other_lp = lorentzian_lp()
    profiles = [prof, synth_profile(other, other_lp), prof]
    return profiles, template, [l_p, other_lp, l_p]


def row_residual(residual, r):
    """Row r's residual alone, as a function of its search vector."""
    return lambda x: residual(np.array([r]), x[None, :])[0][0]


@pytest.mark.parametrize("case", ["round_trip", "single_tap"])
def test_fit_jacobian_matches_central_differences(case):
    """On every row of a batch, the analytic Jacobian of the
    scale-eliminated magnitude residual agrees with central differences
    to 1e-6 of its largest entry at seeded points."""
    profiles, template, l_ps = jacobian_batch(case)
    residual, jacobian = magnitude_fit(profiles, template, l_ps)
    n_taps = len(template.taps)
    rows = np.arange(len(profiles))
    rng = np.random.default_rng(21)
    for _ in range(3):
        x = np.array([
            _pack(
                np.exp(rng.uniform(np.log(5e9), np.log(40e9))),
                rng.uniform(0.1, 1.0, n_taps),
                rng.uniform(0.0, 2.0 * np.pi, n_taps),
            )
            for _ in rows
        ])
        jac = jacobian(rows, x, residual(rows, x)[1])
        assert jac.shape == (len(rows), len(profiles[0].u), 1 + 2 * n_taps)
        for r in rows:
            np.testing.assert_allclose(
                jac[r], central_differences(row_residual(residual, r), x[r]),
                rtol=0.0, atol=1e-6 * np.max(np.abs(jac[r])),
            )


def test_fit_jacobian_finite_at_model_zeros():
    """Sum frequencies beyond the pump grid's self-convolution make
    |ADP| exactly 0 there; on every row of a batch the Jacobian stays
    finite, with zero rows."""
    prof, template, l_p = single_tap_case()
    span = 1.5 * 2.0 * l_p.grid.half_span
    u = np.linspace(-span, span, 101)
    wide = Profile(u, np.exp(-((u / 40e9) ** 2)))
    narrow = Profile(u, np.exp(-((u / 20e9) ** 2)))
    residual, jacobian = magnitude_fit(
        [wide, narrow], template, [l_p, lorentzian_lp()]
    )
    rows = np.arange(2)
    x = np.array([_pack(18e9, [0.7], [0.3]), _pack(25e9, [0.4], [1.1])])
    _, point = residual(rows, x)
    model = point[4]
    zeros = np.abs(u) > 2.0 * l_p.grid.half_span
    jac = jacobian(rows, x, point)
    for r in rows:
        assert np.any(zeros) and not np.any(model[r][zeros])
        assert np.all(np.isfinite(jac[r]))
        assert not np.any(jac[r][zeros])


def test_fit_port_reproduces_least_squares():
    """On the single-tap round trip the batched trust-region loop takes
    least_squares' path: the same status, residual and Jacobian
    evaluations, and the same fit to 1e-8.  A single tap's amplitude and
    phase leave |ADP| unchanged once the scale is eliminated, so their
    Jacobian columns are round-off and both optimizers leave them
    wherever that round-off steers; the width, the fitted magnitude and
    the residual are what the fit determines."""
    prof, template, l_p = single_tap_case()
    x0 = _pack(10e9, [0.5], [0.0])
    want = oracles.least_squares_fit(prof.values, 2.0 * P0 + prof.u, template, l_p, x0)
    fit = fit_one(prof, template, l_p, 10e9, [0.5], [0.0])
    assert want.status == 1 and fit.converged
    assert (fit.nfev, fit.njev) == (want.nfev, want.njev)
    assert fit.x[0] == pytest.approx(want.x[0], abs=1e-8)
    got = fitted_magnitude(fit, template, l_p, prof)
    np.testing.assert_allclose(
        got - unit_magnitude(prof.values), want.fun, rtol=0.0, atol=1e-8
    )
    assert fit.residual == pytest.approx(2.0 * want.cost, rel=0.0, abs=1e-8)


def mu_point_fit_rows(preset, n_rows):
    """The template, the profiles' sum frequencies, the pump grid and the
    (profile, l_p, start) of n_rows fits: the preset's default mu points
    in turn, each row with its own restart's start, at a 128^2 grid."""
    cfg = load_preset(preset)
    cfg = replace(cfg, grid=replace(cfg.grid, n_points=128))
    swept = getattr(cfg, swept_chains(cfg)[0][1])
    mu_values = inversion._MU_VALUES
    pump_grid, grid_s, grid_i = build_grids(cfg)
    pump_grid = SpectralGrid(pump_grid.center, pump_grid.half_span, _FIT_PUMP_POINTS)
    points = []
    for mu in mu_values:
        trial_cfg = _swept_chains(cfg, (mu,) * len(swept.couplings))
        l_p = field_enhancement_chain(trial_cfg.pump_resonance, pump_grid)
        profile = _target_profile(
            target_jsa(cfg.target, grid_s, grid_i),
            field_enhancement_chain(trial_cfg.signal, grid_s),
            field_enhancement_chain(trial_cfg.idler, grid_i),
        )
        points.append((profile, l_p.values))
    n_taps = len(cfg.pump.taps)
    rows = []
    for r in range(n_rows):
        k = r % len(points)
        rows.append((*points[k], _start(0, k, r // len(points), n_taps)))
    sums = grid_s.center + grid_i.center + _profile_offsets(grid_s, grid_i)
    return cfg.pump, sums, pump_grid, rows


def fit_row(fit, r):
    """Row r of _fit_batch's arrays, comparable with ==."""
    x, *rest = fit
    return (x[r].tolist(), *(a[r] for a in rest))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("preset", ["bell_phi_minus", "separable"])
def test_fit_batch_rows_do_not_depend_on_the_batch(preset):
    """One (profile, start) fitted alone and at rows 0, 17 and 31 of a
    32-row batch of the preset's mu points, some of whose rows end before
    others, gives the same fit bit for bit, evaluation counts included;
    so does every other row of the batch, fitted alone.  The separable
    preset sweeps the pump chain, so its rows differ in l_p too.  The fit
    raises no warning."""
    template, sums, grid, rows = mu_point_fit_rows(preset, 32)
    probe = rows[5]
    for r in (0, 17, 31):
        rows[r] = probe

    def fit(batch):
        profiles, l_ps, starts = map(np.array, zip(*batch))
        return Fit(*_fit_batch(profiles, sums, template, grid, l_ps, starts))

    batch = fit(rows)
    alone = fit([probe])
    for r in (0, 17, 31):
        assert fit_row(batch, r) == fit_row(alone, 0)
        assert (batch.nfev[r], batch.njev[r]) == (alone.nfev[0], alone.njev[0])
    nfev = batch.nfev
    assert min(nfev) < inversion._FIT_MAX_NFEV
    assert max(nfev) > min(nfev)
    for r in (1, 2, 16, 18, 30):
        assert fit_row(fit([rows[r]]), 0) == fit_row(batch, r)


# ---------------------------------------------------------------------------
# search loop

def tap_arrays(taps):
    """(amplitudes, phases) of a tuple of Tap, as arrays."""
    return np.array([t.amplitude for t in taps]), np.array([t.phase for t in taps])


def tap_score(cfg, mu, pump_points, n_points):
    """_trial_contexts's score at mu, called with a tuple of Tap."""
    score = _trial_contexts(cfg, pump_points, n_points)(mu)
    return lambda sigma_p, taps: score(sigma_p, *tap_arrays(taps))


def _parent_trial_score(cfg, mu, pump_points, n_points, sigma_p, taps):
    """The trial score as the chain shaped pump -> JSA -> reported_state ->
    the figure simulate reports rebuilt every time, with the ADP sampled by
    np.interp: the pair fidelity of the HG projection, or the purity for
    the separable target."""
    trial_cfg = _swept_chains(cfg, mu)
    pump_grid, grid_s, grid_i = build_grids(trial_cfg, n_points)
    pump_grid = SpectralGrid(pump_grid.center, pump_grid.half_span, pump_points)
    l_p = field_enhancement_chain(trial_cfg.pump_resonance, pump_grid)
    l_s = field_enhancement_chain(trial_cfg.signal, grid_s)
    l_i = field_enhancement_chain(trial_cfg.idler, grid_i)
    spec = replace(cfg.pump, sigma_p=sigma_p, taps=taps)
    apl = pump_of(spec, pump_grid) * l_p.values
    conv = fftconvolve(apl, apl) * pump_grid.spacing
    axis = np.linspace(
        2.0 * pump_grid.center - 2.0 * pump_grid.half_span,
        2.0 * pump_grid.center + 2.0 * pump_grid.half_span,
        conv.size,
    )
    sums = grid_s.samples[:, None] + grid_i.samples[None, :]
    adp = np.interp(sums, axis, conv.real, left=0.0, right=0.0) + 1j * np.interp(
        sums, axis, conv.imag, left=0.0, right=0.0
    )
    jsa = normalize(Jsa(grid_s, grid_i, adp * np.outer(l_s.values, l_i.values)))
    state = reported_state(jsa)
    if cfg.target.dimension == 1:
        weights = oracles.svd_weights(state)
        return float(np.sum(weights * weights))
    projection = project_to_tfm(state, cfg.target.sigma)
    return pair_fidelity(projection.coefficients, cfg.target.coefficients)


@pytest.mark.parametrize(
    "pump_points, n_points",
    [(_FIT_PUMP_POINTS, _VERIFY_POINTS), (_POLISH_PUMP_POINTS, 256)],
)
def test_trial_context_score_matches_the_rebuilt_chain(pump_points, n_points):
    """The context's score, with its grid constants built once, equals the
    chain rebuilt from scratch at seeded pump widths and taps."""
    cfg = load_preset("bell_phi_minus")
    rng = np.random.default_rng(pump_points)
    for mu in ((1.25e9,), (2.0e9,)):
        score = tap_score(cfg, mu, pump_points, n_points)
        for _ in range(2):
            sigma_p = cfg.pump.sigma_p * rng.uniform(0.7, 1.3)
            taps = oracles.make_taps(rng.uniform(0.1, 1.0, 6), rng.uniform(0.0, 2.0 * np.pi, 6))
            want = _parent_trial_score(cfg, mu, pump_points, n_points, sigma_p, taps)
            assert abs(score(sigma_p, taps) - want) <= 1e-10
        # the preset itself scores high, so the check covers a good state
        want = _parent_trial_score(
            cfg, mu, pump_points, n_points, cfg.pump.sigma_p, cfg.pump.taps
        )
        assert abs(score(cfg.pump.sigma_p, cfg.pump.taps) - want) <= 1e-10
    assert want > 0.9


def test_trial_contexts_of_one_template_score_as_fresh_ones():
    """The grids, HG bases and tap phasors one map of contexts shares
    across mu points give each point the score a context built for it
    alone gives, bit for bit."""
    cfg = load_preset("bell_phi_minus")
    cfg = replace(cfg, grid=replace(cfg.grid, n_points=128))
    shared = _trial_contexts(cfg, _POLISH_PUMP_POINTS, 128)
    mus = ((0.5e9,), (1.25e9,), (2.0e9,))
    scores = [shared(mu) for mu in mus]
    rng = np.random.default_rng(7)
    seeded = oracles.make_taps(rng.uniform(0.1, 1.0, 6), rng.uniform(0.0, 6.0, 6))
    for mu, score in zip(mus, scores):
        fresh = _trial_contexts(cfg, _POLISH_PUMP_POINTS, 128)(mu)
        for taps in (cfg.pump.taps, seeded):
            args = (cfg.pump.sigma_p, *tap_arrays(taps))
            assert score(*args) == fresh(*args)


def test_trial_contexts_of_one_template_build_one_adp_model(monkeypatch):
    """The sums and their ADP model do not depend on mu: one template
    builds one model, however many mu contexts it gives and scores."""
    built = []

    def counting(*args, **kwargs):
        built.append(args)
        return AdpModel(*args, **kwargs)

    monkeypatch.setattr(inversion, "AdpModel", counting)
    cfg = load_preset("bell_phi_minus")
    contexts = _trial_contexts(cfg, _FIT_PUMP_POINTS, _VERIFY_POINTS)
    for mu in ((0.5e9,), (1.25e9,), (2.0e9,)):
        contexts(mu)(cfg.pump.sigma_p, *tap_arrays(cfg.pump.taps))
    assert len(built) == 1


def inline_trial_cut(a, mag_s, mag_i):
    """The centre cut as the trial score read it inline before it called
    jsa._centre_cut: |ADP| at the sums against the filter weights, the
    quarter taken into the weights."""
    node = mag_s * mag_i
    corner = 0.25 * node
    cross = 0.25 * (mag_s[1:] * mag_i[:-1] + mag_s[:-1] * mag_i[1:])
    cut = np.empty(a.size)
    cut[0::2] = a[0::2] * node
    cut[1::2] = a[0:-1:2] * corner[:-1] + a[1::2] * cross + a[2::2] * corner[1:]
    return cut


@pytest.mark.parametrize(
    "preset, n_points, nodes",
    [("bell_phi_minus", 256, 2), ("mes_d3", 128, 4), ("separable", 128, 0)],
)
def test_trial_score_hands_flip_signs_the_inline_cut(
    monkeypatch, preset, n_points, nodes
):
    """The cut the trial score reads through jsa._centre_cut and hands to
    flip_signs is inline_trial_cut's bit for bit, at the preset's pump
    and at seeded pump widths and taps.  The preset's own pump puts nodes
    on the entangled targets' cuts, so the flips are exercised."""
    handed = []

    def recording(values, u, cut, offsets, cell):
        a = values.copy()
        minima = flip_signs(values, u, cut, offsets, cell)
        handed.append((a, cut.copy(), len(minima)))
        return minima

    cfg = load_preset(preset)
    swept = getattr(cfg, swept_chains(cfg)[0][1])
    mu = swept.couplings
    trial_cfg = _swept_chains(cfg, mu)
    _, grid_s, grid_i = build_grids(cfg, n_points)
    mag_s = np.abs(field_enhancement_chain(trial_cfg.signal, grid_s).values)
    mag_i = np.abs(field_enhancement_chain(trial_cfg.idler, grid_i).values)
    score = tap_score(cfg, mu, _FIT_PUMP_POINTS, n_points)
    n_taps = len(cfg.pump.taps)
    rng = np.random.default_rng([n_points, n_taps])
    trials = [(cfg.pump.sigma_p, cfg.pump.taps)] + [
        (
            cfg.pump.sigma_p * rng.uniform(0.7, 1.3),
            oracles.make_taps(
                rng.uniform(0.1, 1.0, n_taps), rng.uniform(0.0, 2.0 * np.pi, n_taps)
            ),
        )
        for _ in range(3)
    ]
    monkeypatch.setattr(inversion, "flip_signs", recording)
    for sigma_p, taps in trials:
        score(sigma_p, taps)
    assert len(handed) == len(trials)
    for a, cut, _ in handed:
        assert cut.tobytes() == inline_trial_cut(a, mag_s, mag_i).tobytes()
    assert handed[0][2] == nodes


@pytest.mark.parametrize(
    "pump_points, n_points", [(512, 128), (2048, 256), (2048, 512)]
)
@pytest.mark.parametrize("preset", ["mes_d3", "mes_d4"])
def test_sum_index_score_matches_the_rebuilt_chain_beyond_bell(
    preset, pump_points, n_points
):
    """The entangled trial score, on the 2n - 1 sum frequencies, equals
    the full-grid chain for the d = 3 and d = 4 targets, at the preset and
    at seeded pump widths and taps."""
    cfg = load_preset(preset)
    mu = cfg.signal.couplings
    n_taps = len(cfg.pump.taps)
    rng = np.random.default_rng([pump_points, n_points])
    score = tap_score(cfg, mu, pump_points, n_points)
    trials = [(cfg.pump.sigma_p, cfg.pump.taps)] + [
        (
            cfg.pump.sigma_p * rng.uniform(0.7, 1.3),
            oracles.make_taps(
                rng.uniform(0.1, 1.0, n_taps), rng.uniform(0.0, 2.0 * np.pi, n_taps)
            ),
        )
        for _ in range(3)
    ]
    for sigma_p, taps in trials:
        want = _parent_trial_score(cfg, mu, pump_points, n_points, sigma_p, taps)
        assert abs(score(sigma_p, taps) - want) <= 1e-10
    # the preset's own pump scores high, so the check covers a good state
    assert score(cfg.pump.sigma_p, cfg.pump.taps) > 0.8


@pytest.mark.parametrize("preset", ["bell_phi_minus", "separable"])
def test_trial_score_rejects_an_all_zero_pump(preset):
    """All-zero tap amplitudes raise on the sum-index score as on the
    full-grid one the separable target keeps."""
    cfg = load_preset(preset)
    score = tap_score(cfg, (1.0e9,), _FIT_PUMP_POINTS, _VERIFY_POINTS)
    taps = oracles.make_taps([0.0] * len(cfg.pump.taps), [0.3] * len(cfg.pump.taps))
    with pytest.raises(NumericalError):
        score(cfg.pump.sigma_p, taps)


@pytest.mark.parametrize("pump_points", [_FIT_PUMP_POINTS, _POLISH_PUMP_POINTS])
@pytest.mark.parametrize("preset", ["bell_phi_minus", "separable"])
def test_fit_and_trial_score_shape_the_pump_as_simulate(
    monkeypatch, preset, pump_points
):
    """alpha_p l_p as the ADP fit's residual builds it and as the trial
    score hands it to the ADP model are each what simulate hands
    _check_adp_input, its pump times l_p, bit for bit, at the config's own
    pump width and taps on simulate's pump grid.  The search vector
    carries log sigma_p, so simulate gets the width that gives back."""
    cfg = load_preset(preset)
    x = _pack(cfg.pump.sigma_p, *tap_arrays(cfg.pump.taps))
    cfg = replace(
        cfg,
        pump=replace(cfg.pump, sigma_p=float(np.exp(x[0]))),
        grid=replace(cfg.grid, n_points=64, pump_points=pump_points),
    )
    handed = []

    def recording(values):
        handed.append(values.copy())
        return _check_adp_input(values)

    monkeypatch.setattr(simulate_module, "_check_adp_input", recording)
    result = simulate(cfg)
    [want] = [a.tobytes() for a in handed]

    grid_s, grid_i = result.jsa.grid_s, result.jsa.grid_i
    sums = grid_s.center + grid_i.center + _profile_offsets(grid_s, grid_i)
    residual, _ = _magnitude_fit(
        np.ones((1, sums.size)), sums, cfg.pump, result.l_p.grid,
        result.l_p.values[None, :],
    )
    _, (_, apl, *_) = residual(np.array([0]), x[None, :])
    assert apl[0].tobytes() == want

    handed.clear()
    monkeypatch.setattr(inversion, "_check_adp_input", recording)
    mu = getattr(cfg, swept_chains(cfg)[0][1]).couplings
    _trial_contexts(cfg, pump_points, 64)(mu)(*_split(x))
    assert [a.tobytes() for a in handed] == [want]


@pytest.mark.parametrize(
    "preset, fields",
    [
        ("bell_phi_minus", ("signal", "idler")),
        ("mes_d3", ("signal", "idler")),
        ("mes_d4", ("signal", "idler")),
        ("separable", ("pump_resonance",)),
    ],
)
def test_swept_chains_follow_the_target_dimension(preset, fields):
    """mu sweeps the signal and idler chains of a d >= 2 target and the
    pump chain of the d = 1 target, each under its key in the config's
    resonator section; _swept_chains puts mu on those chains only."""
    cfg = load_preset(preset)
    keys = {"signal": "signal", "idler": "idler", "pump_resonance": "pump"}
    assert swept_chains(cfg) == tuple((keys[f], f) for f in fields)
    mu = (0.5e9,) * len(getattr(cfg, fields[0]).couplings)
    swept = _swept_chains(cfg, mu)
    for field in ("signal", "idler", "pump_resonance"):
        want = mu if field in fields else getattr(cfg, field).couplings
        assert getattr(swept, field).couplings == want


@pytest.mark.parametrize(
    "pump_points, n_points",
    [(_FIT_PUMP_POINTS, _VERIFY_POINTS), (_POLISH_PUMP_POINTS, 512)],
)
def test_separable_trial_score_is_the_purity_of_the_full_grid_state(
    pump_points, n_points
):
    """The separable target's trial score, built from the 2n - 1 sum
    frequencies, equals the purity of the full-grid chain's state at the
    trial and the polish resolutions."""
    cfg = load_preset("separable")
    mu = cfg.pump_resonance.couplings
    rng = np.random.default_rng(7)
    score = tap_score(cfg, mu, pump_points, n_points)
    n_taps = len(cfg.pump.taps)
    for sigma_p, taps in [
        (cfg.pump.sigma_p, cfg.pump.taps),
        (
            cfg.pump.sigma_p * 1.2,
            oracles.make_taps(
                rng.uniform(0.1, 1.0, n_taps), rng.uniform(0.0, 2.0 * np.pi, n_taps)
            ),
        ),
    ]:
        want = _parent_trial_score(cfg, mu, pump_points, n_points, sigma_p, taps)
        assert abs(score(sigma_p, taps) - want) <= 1e-10


def test_separable_trial_score_of_a_tiny_norm_is_finite():
    """A restart of `optimize --config separable --seed 0` (mu = 3.75 GHz,
    restart 9) whose squared norm N^2 is 1.3e-203: the state is normalized
    before its Gram product, so the purity stays finite (scaled by
    (dA / N^2)^2 after the product, it read NaN) and equals the purity of
    its Schmidt weights."""
    cfg = load_preset("separable")
    score = _trial_contexts(cfg, _FIT_PUMP_POINTS, _VERIFY_POINTS)((3.75e9,))
    alpha = [0.279408107, 0.355907574, 0.627134146, 0.280478043, 0.192264541,
             0.967887832]
    phi = [5.44590485, 4.40387311, 1.77651204, 5.15550354, 1.3057015, 2.96029558]
    got = score(349319230.0, np.array(alpha), np.array(phi))
    assert np.isfinite(got)
    assert abs(got - 0.7899905660503396) <= 1e-10


@pytest.mark.parametrize("n_points", [256, 512])
@pytest.mark.parametrize(
    "preset", ["bell_phi_minus", "mes_d3", "mes_d4", "separable"]
)
def test_verified_score_equals_simulate(preset, n_points):
    """The verification computes exactly the figure simulate reports:
    the fidelity, or the purity for the separable target."""
    cfg = load_preset(preset)
    cfg = replace(cfg, grid=replace(cfg.grid, n_points=n_points))
    swept = getattr(cfg, swept_chains(cfg)[0][1])
    mu = swept.couplings
    got = _verified_score(cfg, mu, cfg.pump.sigma_p, cfg.pump.taps)
    full = simulate(apply_free_params(cfg, mu, cfg.pump.sigma_p, cfg.pump.taps))
    want = full.purity if cfg.target.dimension == 1 else full.fidelity
    assert got == want


@pytest.mark.parametrize("n_points", [256, 512])
@pytest.mark.parametrize("preset", ["bell_phi_minus", "mes_d3", "mes_d4"])
def test_trial_score_ranks_as_the_verification(preset, n_points):
    """An entangled target's trial score, at the polish's pump grid and the
    configured signal/idler grid, is the verified score up to the
    phase-matching function it leaves out: within 1e-4 at the preset's
    pump, within 5e-4 at seeded pump widths and taps.  It ranks the mu
    points in its place.  The largest difference measured at the preset
    was 2.5e-5, at seeded pumps 2.3e-4 (Bell at 512^2, a state of
    F = 0.92)."""
    cfg = load_preset(preset)
    cfg = replace(cfg, grid=replace(cfg.grid, n_points=n_points))
    mu = cfg.signal.couplings
    n_taps = len(cfg.pump.taps)
    rng = np.random.default_rng([n_points, n_taps])
    score = tap_score(cfg, mu, _POLISH_PUMP_POINTS, n_points)
    trials = [(cfg.pump.sigma_p, cfg.pump.taps, 1e-4)] + [
        (
            cfg.pump.sigma_p * rng.uniform(0.7, 1.3),
            oracles.make_taps(
                rng.uniform(0.1, 1.0, n_taps), rng.uniform(0.0, 2.0 * np.pi, n_taps)
            ),
            5e-4,
        )
        for _ in range(4)
    ]
    for sigma_p, taps, tol in trials:
        want = _verified_score(cfg, mu, sigma_p, taps)
        assert abs(score(sigma_p, taps) - want) <= tol, (sigma_p, taps)


@pytest.mark.parametrize("preset", ["bell_phi_minus", "separable"])
def test_verified_score_goes_through_simulates_chain(monkeypatch, preset):
    """The verification is one simulate call, looked up as inversion's
    simulate: one call each through it and through simulate's
    compute_jsa and reported_state."""
    calls = {"simulate": 0, "compute_jsa": 0, "reported_state": 0}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counting(inversion, "simulate")
    counting(simulate_module, "compute_jsa")
    counting(simulate_module, "reported_state")
    cfg = load_preset(preset)
    cfg = replace(cfg, grid=replace(cfg.grid, n_points=128))
    swept = getattr(cfg, swept_chains(cfg)[0][1])
    _verified_score(cfg, swept.couplings, cfg.pump.sigma_p, cfg.pump.taps)
    assert calls == {"simulate": 1, "compute_jsa": 1, "reported_state": 1}


def _loaded_blas_threads():
    """Thread counts of the OpenBLAS copies this process has loaded."""
    with open("/proc/self/maps") as fh:
        paths = {
            line.split()[-1] for line in fh
            if "openblas" in line.rsplit("/", 1)[-1].lower()
        }
    counts = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in (
            "openblas_get_num_threads", "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
        ):
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                counts.append(getter())
                break
    return counts


def _worker_blas_threads(_):
    return _loaded_blas_threads()


def test_search_pool_workers_run_one_blas_thread(monkeypatch, tiny_search):
    """The workers of optimize_state's pool keep one BLAS thread each:
    the workers already fill the cores."""
    if not os.path.exists("/proc/self/maps") or not _loaded_blas_threads():
        pytest.skip("needs OpenBLAS and /proc")
    probed = []

    class ProbedPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            probed.append(self.submit(_worker_blas_threads, None).result())

    monkeypatch.setattr(inversion, "ProcessPoolExecutor", ProbedPool)
    monkeypatch.setenv("TFM_SYNTH_THREADS", "2")
    cfg = load_preset("bell_phi_minus")
    cfg = replace(cfg, grid=replace(cfg.grid, n_points=64))
    optimize_state(cfg, tiny_search(restarts=1))
    assert len(probed) == 1
    assert probed[0]
    assert all(c == 1 for c in probed[0])


@pytest.fixture
def tiny_search(monkeypatch):
    """A small search: sets the inverse loop's mu grid, mu_min to mu_max in
    0.25 GHz steps, and its polish budget, then returns
    SearchConfig(restarts, seed)."""

    def search(restarts=2, seed=0, mu_min=1.25e9, mu_max=1.5e9, polish_evals=0):
        mu_values = inversion.mu_grid(mu_min, mu_max, 0.25e9)
        monkeypatch.setattr(inversion, "_MU_VALUES", mu_values)
        monkeypatch.setattr(inversion, "_POLISH_EVALS", polish_evals)
        return SearchConfig(restarts=restarts, seed=seed)

    return search


def test_mu_grid_stops_at_its_max(tiny_search):
    """A last point that a step overshoots by round-off is clipped to
    mu_max, while grids of exact multiples, the default among them, keep
    every point as mu_min + k mu_step."""
    step = 267281406.35757124
    top = 100 * step * (1.0 - 5e-12)
    grid = inversion.mu_grid(0.0, top, step)
    assert grid.size == 101
    assert grid[-1] == top
    assert np.array_equal(grid[:-1], step * np.arange(100))
    assert np.array_equal(inversion._MU_VALUES, 0.25e9 * np.arange(21))
    tiny_search()
    assert np.array_equal(inversion._MU_VALUES, [1.25e9, 1.5e9])


def test_search_config_validation():
    with pytest.raises(ConfigError):
        SearchConfig(restarts=0)
    # a restart count past the cap is rejected before a task list of that
    # length is built; the cap admits the default 32
    cap = inversion._MAX_RESTARTS
    assert SearchConfig(restarts=cap).restarts == cap >= SearchConfig().restarts
    for restarts in (cap + 1, 10**30):
        with pytest.raises(ConfigError, match="restarts"):
            SearchConfig(restarts=restarts)
    with pytest.raises(ConfigError, match="seed"):
        SearchConfig(seed=-1)


@pytest.mark.parametrize(
    "n_points, restarts, workers",
    [(21, 1, 1), (21, 1, 2), (21, 1, 3), (21, 32, 2), (5, 1, 4), (9261, 1, 2),
     (3, 100, 2), (441, 2, 8)],
)
def test_mu_points_split_into_chunks_per_worker(n_points, restarts, workers):
    """The chunks deal the mu points round-robin: every index falls in
    exactly one chunk, in increasing order within it; the chunks give
    every worker one at least, differ in size by one at most and hold no
    more fits than one batch, unless a single point's restarts already
    exceed it."""
    chunks = [list(chunk) for chunk in inversion._chunks(n_points, restarts, workers)]
    assert sorted(i for chunk in chunks for i in chunk) == list(range(n_points))
    assert all(chunk == sorted(chunk) for chunk in chunks)
    for c, chunk in enumerate(chunks):
        assert chunk[0] == c
        assert all(b - a == len(chunks) for a, b in zip(chunk, chunk[1:]))
    assert len(chunks) >= workers
    sizes = [len(chunk) for chunk in chunks]
    assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
    assert all(
        size * restarts <= inversion._FIT_BATCH or size == 1 for size in sizes
    )


@pytest.mark.parametrize(
    "preset, polish_evals, want",
    # an entangled target verifies the 2 leaders and, with the polish on,
    # their 2 polished parameter sets; the separable one each of the 4 mu
    # points, and the 2 polished sets
    [("bell_phi_minus", 20, 4), ("bell_phi_minus", 0, 2),
     ("separable", 20, 6), ("separable", 0, 4)],
)
def test_optimize_verifies_only_the_polish_leaders(
    monkeypatch, tiny_search, preset, polish_evals, want
):
    """The full forward model runs on the polish's leaders and on their
    polished parameters only, except for the separable target, whose mu
    points are ranked by it; the winner is one of the verified
    candidates."""
    calls = []

    def counting(*args):
        calls.append(_verified_score(*args))
        return calls[-1]

    monkeypatch.setenv("TFM_SYNTH_THREADS", "1")
    monkeypatch.setattr(inversion, "_verified_score", counting)
    cfg = load_preset(preset)
    cfg = replace(cfg, grid=replace(cfg.grid, n_points=64))
    search = tiny_search(restarts=1, mu_max=2.0e9, polish_evals=polish_evals)
    assert len(inversion._MU_VALUES) == 4
    res = optimize_state(cfg, search)
    assert len(calls) == want
    assert res.fidelity == max(calls)


def test_trace_records_are_the_candidates_own_numbers(monkeypatch, tiny_search):
    """Each trace record carries the parameters its trial score was taken
    at: re-scoring its (sigma_p, alpha, phi) gives its fidelity exactly,
    and with the polish off the winner's pump is one record's sigma_p and
    taps (Bell at 64^2, 2 mu points, 2 restarts, one process)."""
    monkeypatch.setenv("TFM_SYNTH_THREADS", "1")
    cfg = load_preset("bell_phi_minus")
    cfg = replace(cfg, grid=replace(cfg.grid, n_points=64))
    search = tiny_search(restarts=2, polish_evals=0)
    assert len(inversion._MU_VALUES) == 2
    res = optimize_state(cfg, search)
    assert len(res.trace) == 4
    context = _trial_contexts(cfg, _POLISH_PUMP_POINTS, 64)
    for rec in res.trace:
        score = context((rec["mu"]["mu_12"],))
        got = score(rec["sigma_p"], np.array(rec["alpha"]), np.array(rec["phi"]))
        assert got == rec["fidelity"]
    pump = res.best_config.pump
    taps = ([t.amplitude for t in pump.taps], [t.phase for t in pump.taps])
    assert any(
        (rec["sigma_p"], rec["alpha"], rec["phi"]) == (pump.sigma_p, *taps)
        for rec in res.trace
    )


def test_optimize_trace_does_not_depend_on_the_fit_batches(monkeypatch, tiny_search):
    """A mu point whose restarts outnumber one batch fits them in
    successive batches, and the trace is the one of a single batch, bit
    for bit, on one worker and on two."""
    cfg = load_preset("bell_phi_minus")
    cfg = replace(cfg, grid=replace(cfg.grid, n_points=64))
    search = tiny_search(restarts=3)
    monkeypatch.setenv("TFM_SYNTH_THREADS", "1")
    whole = optimize_state(cfg, search)
    monkeypatch.setattr(inversion, "_FIT_BATCH", 2)
    split = optimize_state(cfg, search)
    monkeypatch.setenv("TFM_SYNTH_THREADS", "2")
    pooled = optimize_state(cfg, search)
    assert len(whole.trace) == 6
    assert whole.trace == split.trace == pooled.trace
    assert whole.fits == split.fits == pooled.fits
    assert whole.fidelity == split.fidelity == pooled.fidelity


@pytest.mark.slow
def test_optimize_trace_deterministic(tiny_search):
    """Identical seeds give identical traces, field by field."""
    cfg = load_preset("bell_phi_minus")
    a = optimize_state(cfg, tiny_search())
    b = optimize_state(cfg, tiny_search())
    assert len(a.trace) == len(b.trace) == 4
    for ra, rb in zip(a.trace, b.trace):
        assert ra == rb
    assert a.fidelity == b.fidelity
    assert a.best_mu == b.best_mu
    assert a.fits == b.fits


@pytest.mark.slow
def test_optimize_same_result_in_process_and_on_the_pool(monkeypatch, tiny_search):
    """One worker runs everything in this process, two run the mu points
    and the polish on a pool; both give the same result."""
    cfg = load_preset("bell_phi_minus")
    search = tiny_search(polish_evals=40)
    runs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("TFM_SYNTH_THREADS", threads)
        runs.append(optimize_state(cfg, search))
    serial, pooled = runs
    assert len(serial.trace) == 4
    assert serial.trace == pooled.trace
    assert serial.best_mu == pooled.best_mu
    assert serial.fidelity == pooled.fidelity
    assert serial.fits == pooled.fits
    assert serial.best_config == pooled.best_config


@pytest.mark.slow
def test_optimize_trace_ordering_and_verified_score(tiny_search):
    from tfm_synth.simulate import simulate

    cfg = load_preset("bell_phi_minus")
    res = optimize_state(cfg, tiny_search(restarts=3))
    keys = [(r["mu"]["mu_12"], r["restart"]) for r in res.trace]
    assert keys == sorted(keys)
    # the reported score is the winner's full-grid verified fidelity
    ver = simulate(res.best_config)
    assert res.fidelity == pytest.approx(ver.fidelity, rel=1e-12)


@pytest.mark.slow
def test_optimize_separable_end_to_end(tiny_search):
    """The separable design loop, polish included, around the coupling
    the full default search picks (3.25 GHz): the reported score is the
    winner's verified purity.  This search reached 0.9549 when the test
    was written; the floor of 0.95 leaves 0.005 of headroom."""
    cfg = load_preset("separable")
    res = optimize_state(
        cfg, tiny_search(mu_min=3.25e9, mu_max=3.5e9, polish_evals=40)
    )
    assert res.fidelity == pytest.approx(
        simulate(res.best_config).purity, rel=1e-12
    )
    assert res.fidelity > 0.95


@pytest.mark.slow
def test_optimize_best_reaches_known_quality(tiny_search):
    """A small sweep around the known optimum already beats 0.9."""
    cfg = load_preset("bell_phi_minus")
    res = optimize_state(cfg, tiny_search(restarts=3))
    assert res.fidelity > 0.9
    assert res.best_config.pump.sigma_p > 0
    assert len(res.best_config.pump.taps) == 6


@pytest.mark.slow
def test_optimize_restart_monotone(tiny_search):
    """Best fidelity is non-decreasing in the number of restarts."""
    cfg = load_preset("bell_phi_minus")
    one = optimize_state(cfg, tiny_search(restarts=1, mu_max=1.25e9))
    three = optimize_state(cfg, tiny_search(restarts=3, mu_max=1.25e9))
    assert three.fidelity >= one.fidelity - 1e-12


@pytest.mark.slow
def test_optimize_polish_improves_or_keeps_score(tiny_search):
    """The polish stage never returns a worse verified score than the
    unpolished winner (it keeps the better of the two)."""
    cfg = load_preset("bell_phi_minus")
    base = optimize_state(
        cfg, tiny_search(restarts=1, mu_min=1.5e9, mu_max=1.5e9)
    )
    polished = optimize_state(
        cfg, tiny_search(restarts=1, mu_min=1.5e9, mu_max=1.5e9, polish_evals=200)
    )
    assert polished.fidelity >= base.fidelity - 1e-12


@pytest.mark.slow
def test_fit_budget_keeps_the_design_quality(monkeypatch):
    """At the capped fit budget, one-restart designs of the Bell target at
    256^2 still verify at F >= 0.9995 on seeds 0-3, and no fit spends more
    residual evaluations than the cap."""
    nfevs = []

    def recording_batch(*args, **kwargs):
        fits = _fit_batch(*args, **kwargs)
        nfevs.extend(Fit(*fits).nfev)
        return fits

    # in this process, where the recording batch is seen
    monkeypatch.setenv("TFM_SYNTH_THREADS", "1")
    monkeypatch.setattr(inversion, "_fit_batch", recording_batch)
    cfg = load_preset("bell_phi_minus")
    cfg = replace(cfg, grid=replace(cfg.grid, n_points=256))
    n_mu = len(inversion._MU_VALUES)
    for seed in range(4):
        res = optimize_state(cfg, SearchConfig(seed=seed, restarts=1))
        assert res.fidelity >= 0.9995, (seed, res.fidelity)
    assert len(nfevs) == 4 * n_mu
    assert max(nfevs) <= inversion._FIT_MAX_NFEV


@pytest.mark.slow
def test_optimize_subspace_weight_of_best(tiny_search):
    """The practical JSA built from fitted parameters keeps most of its
    weight in the 4x4 HG basis.  The Lorentzian resonance tails hold
    roughly a quarter of the normalized state outside any finite
    Gaussian-envelope basis (the golden parameter sets themselves sit
    near 0.76), so the bound here is 0.7."""
    from tfm_synth.simulate import simulate

    cfg = load_preset("bell_phi_minus")
    res = optimize_state(cfg, tiny_search(restarts=2))
    verified = simulate(res.best_config, n_points=128)
    assert verified.projection.subspace_weight >= 0.7


# ---------------------------------------------------------------------------
# polish: the Nelder-Mead port against scipy's minimize

def rippled_bowl(x):
    """A bowl whose ripples make contractions fail, so that the simplex
    shrinks early: in the fourth iteration from RIPPLE_X0."""
    k = np.arange(1, len(x) + 1)
    return float(np.sum(x * x) + 0.5 * np.sin(25.0 * np.dot(x, k)))


# one coordinate 0, which the initial simplex steps by 0.00025
RIPPLE_X0 = np.array([0.8, -0.3, 0.0, 1.1, 0.5])


def assert_nelder_mead_is_scipys(f, x0, maxfev, xatol=1e-6, fatol=1e-10):
    """The port evaluates f at scipy's points, in scipy's order, and
    returns scipy's x, all bit for bit; returns the evaluation count."""
    runs = []
    for minimize in (inversion._nelder_mead, oracles.nelder_mead):
        points = []

        def counted(x):
            points.append(np.array(x).tobytes())
            return f(x)

        x = minimize(counted, x0.copy(), maxfev, xatol, fatol)
        runs.append((np.asarray(x).tobytes(), points))
    assert runs[0] == runs[1]
    return len(points)


def test_nelder_mead_port_polishes_a_bell_candidate_as_scipy_does(tiny_search):
    """The real polish objective: the Bell trial score at one mu point, on
    the polish's pump grid, from the mu point's fitted candidate."""
    cfg = load_preset("bell_phi_minus")
    cfg = replace(cfg, grid=replace(cfg.grid, n_points=128))
    mu = (1.5e9,)
    [(_, _, (_, _, x, _), _)] = inversion._run_mu_points(
        (cfg, tiny_search(restarts=1), [(1, mu)])
    )
    score = _trial_contexts(cfg, _POLISH_PUMP_POINTS, 128)(mu)
    # the polish's start (_polish_candidate)
    x0 = _pack(*_split(x))
    evals = assert_nelder_mead_is_scipys(lambda x: -score(*_split(x)), x0, 150)
    assert evals == 150


def test_nelder_mead_budget_ends_where_scipys_does():
    """Every budget from 1 to 59 on the rippled bowl, from a start with a
    zero coordinate: budgets below the simplex's n + 1 = 6 vertices run
    out inside the initial simplex, and some run out inside a shrink.
    scipy's callback marks the iterations; one that spends n + 2
    evaluations (reflection, contraction, n shrunk vertices) shrinks the
    simplex."""
    n = len(RIPPLE_X0)
    marks = []
    evals = []

    def counted(x):
        evals.append(None)
        return rippled_bowl(x)

    oracles.nelder_mead(
        counted, RIPPLE_X0.copy(), 60, 1e-6, 1e-10,
        callback=lambda intermediate_result: marks.append(len(evals)),
    )
    starts = [n + 1] + marks[:-1]
    shrinks = [s for s, e in zip(starts, marks) if e - s == n + 2]
    assert shrinks, "no shrink within 60 evaluations"
    # the reflection and the contraction, then part of the shrink
    assert shrinks[0] + 2 < shrinks[0] + 2 + n // 2 < 60
    for budget in range(1, 60):
        assert assert_nelder_mead_is_scipys(rippled_bowl, RIPPLE_X0, budget) == budget


def test_nelder_mead_stops_at_the_tolerances_as_scipy_does():
    """On a smooth bowl the simplex collapses within xatol and fatol long
    before the budget is spent, after scipy's number of evaluations."""
    weights = np.arange(1.0, 6.0)

    def bowl(x):
        return float(np.dot(weights, (x - 0.25) ** 2))

    evals = assert_nelder_mead_is_scipys(bowl, RIPPLE_X0, 5000, xatol=1e-4, fatol=1e-8)
    assert evals < 5000


def test_nelder_mead_ranks_nan_values_as_scipy_does():
    """An objective that is NaN on part of the space (a score of a
    degenerate state): NaN vertices sort last and fail every comparison,
    as in scipy."""

    def holed_bowl(x):
        # NaN at about a seventh of the points, scattered over the bowl
        k = np.arange(1, len(x) + 1)
        return np.nan if np.sin(1e3 * np.dot(x, k)) > 0.9 else rippled_bowl(x)

    for maxfev in (10, 40, 120, 400):
        assert_nelder_mead_is_scipys(holed_bowl, RIPPLE_X0, maxfev)
