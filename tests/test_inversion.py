"""Inverse-design pipeline: decoupling, extraction, fitting, search."""

import ctypes
import importlib
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from scipy.signal import fftconvolve

import oracles
from tfm_synth import inversion
from tfm_synth.analysis import TargetState, hg_basis, target_jsa
from tfm_synth.config import ConfigError, load_preset
from tfm_synth.inversion import (
    _EPSILON,
    _FIT_PROFILE_POINTS,
    _FIT_PUMP_POINTS,
    _POLISH_PUMP_POINTS,
    _VERIFY_POINTS,
    AdpProfile,
    SearchConfig,
    _fit_batch,
    _magnitude_fit,
    _pack,
    _start,
    _swept_chains,
    _target_profile,
    _trial_context,
    _trial_score,
    _verified_score,
    apply_free_params,
    fit_adp,
    optimize_state,
)
from tfm_synth.jsa import AdpModel, DegenerateFieldError, Jsa, normalize
from tfm_synth.pulse_shaper import (
    DegenerateInputError,
    PumpSpec,
    apply_envelope,
    fir_response,
)
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
    return target_jsa(TargetState(2, 6.0e9, S0, I0), grid_s, grid_i)


def test_decouple_identity_filter():
    """Unit filters leave the target: the profile is its diagonal."""
    f = bell_target_jsa(NS, NI)
    prof = _target_profile(f, unit_filter(NS), unit_filter(NI))
    np.testing.assert_allclose(prof.values, np.diagonal(f.amplitude), rtol=1e-5)
    assert prof.sum_center == S0 + I0


def test_decouple_self_gives_unity_on_support():
    """The separable target divided by its own HG-0 filters is 1 wherever
    the filter is strong."""
    sigma = 6.0e9
    f = target_jsa(TargetState(1, sigma, S0, I0), GS, GI)
    prof = _target_profile(f, hg_mode(0, GS, S0, sigma), hg_mode(0, GI, I0, sigma))
    f0 = np.exp(-((prof.u / 2.0) ** 2) / (2.0 * sigma * sigma))
    strong = f0 * f0 > 0.3
    assert np.count_nonzero(strong) > 5
    np.testing.assert_allclose(prof.values[strong], 1.0, atol=1e-3)


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
    back = prof.values * filt
    want = np.diagonal(f.amplitude)
    region = np.abs(filt) > 10.0 * _EPSILON * np.max(np.abs(filt))
    err = np.linalg.norm((back - want)[region])
    assert err / np.linalg.norm(want[region]) < 0.01


def test_decouple_rejects_bad_inputs():
    f = bell_target_jsa()
    zero = Field1D(GS, np.zeros(GS.n_points))
    with pytest.raises(DegenerateInputError):
        _target_profile(f, zero, unit_filter(GI))


def test_extract_pure_sum_function_exact_at_nodes():
    """A function of w_s + w_i alone is read exactly at the nodes, up to
    the regularization's factor 1 / (1 + eps^2) of a unit filter."""
    sums = NS.samples[:, None] + NI.samples[None, :] - (S0 + I0)
    sigma = 20e9
    f = Jsa(NS, NI, np.exp(-(sums**2) / (2 * sigma * sigma)))
    prof = _target_profile(f, unit_filter(NS), unit_filter(NI))
    expect = np.exp(-(prof.u**2) / (2 * sigma * sigma)) / (1.0 + _EPSILON**2)
    np.testing.assert_allclose(prof.values.real, expect, atol=1e-12)
    assert not np.any(prof.values.imag)


def test_extract_gaussian_product_closed_form():
    """f0(dw_s) f0(dw_i) along the cut equals f0(u/2)^2."""
    sigma = 10e9
    f0s = hg_mode(0, GS, S0, sigma).values
    f0i = hg_mode(0, GI, I0, sigma).values
    f = Jsa(GS, GI, np.outer(f0s, f0i))
    prof = _target_profile(f, unit_filter(GS), unit_filter(GI))
    norm = 1.0 / np.sqrt(np.sqrt(np.pi) * sigma)
    expect = (norm * np.exp(-(prof.u / 2.0) ** 2 / (2.0 * sigma * sigma))) ** 2
    # tolerance reflects the bilinear interpolation error at off-node points
    np.testing.assert_allclose(prof.values.real, expect, atol=2e-3 * expect.max())


def test_extract_symmetry():
    sums = GS.samples[:, None] + GI.samples[None, :] - (S0 + I0)
    f = Jsa(GS, GI, np.cos(sums / 30e9))
    prof = _target_profile(f, unit_filter(GS), unit_filter(GI))
    np.testing.assert_allclose(
        prof.values.real, prof.values.real[::-1], atol=1e-9
    )


@pytest.mark.parametrize("n_points", [256, 512])
@pytest.mark.parametrize(
    "preset", ["bell_phi_minus", "mes_d3", "mes_d4", "separable"]
)
def test_target_profile_is_the_two_step_profile_bit_for_bit(preset, n_points):
    """The fit's input, as _run_mu_point builds it, equals the reference's
    regularized division by the outer-product filter followed by the
    diagonal read, at the preset's couplings and at one swept mu."""
    cfg = load_preset(preset)
    cfg = replace(cfg, grid=replace(cfg.grid, n_points=n_points))
    swept = cfg.signal if cfg.target.dimension >= 2 else cfg.pump_resonance
    for mu in (swept.couplings, (2.25e9,) * len(swept.couplings)):
        trial_cfg = _swept_chains(cfg, mu)
        _, grid_s, grid_i = build_grids(trial_cfg)
        target = target_jsa(
            TargetState(
                cfg.target.dimension, cfg.target.sigma, grid_s.center, grid_i.center
            ),
            grid_s,
            grid_i,
        )
        l_s = field_enhancement_chain(trial_cfg.signal, grid_s)
        l_i = field_enhancement_chain(trial_cfg.idler, grid_i)
        got = _target_profile(target, l_s, l_i)
        g = oracles.decoupled_target(target, l_s, l_i, _EPSILON)
        u, values = oracles.diagonal_profile(g, grid_s, grid_i, _FIT_PROFILE_POINTS)
        assert np.array_equal(got.u, u)
        assert np.array_equal(got.values, values)
        assert got.sum_center == grid_s.center + grid_i.center


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


def synth_adp(spec, l_p, u):
    """ADP of the shaped, resonance-filtered pump at sum offsets u, through
    the model the forward path and the fit share."""
    pump = apply_envelope(spec, fir_response(spec, l_p.grid))
    return AdpModel(l_p.grid, 2.0 * P0 + u)(pump.values * l_p.values)


def fitted_magnitude(fit, template, l_p, u):
    spec = replace(template, sigma_p=fit.sigma_p, taps=fit.taps)
    return fit.scale * np.abs(synth_adp(spec, l_p, u))


def unit_magnitude(values):
    return np.abs(values) / np.sqrt(np.sum(np.abs(values) ** 2))


def synth_profile(spec, l_p, n_u=257, span=112e9):
    u = np.linspace(-span, span, n_u)
    return AdpProfile(u, synth_adp(spec, l_p, u), 2.0 * P0)


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
    fit = fit_adp(prof, template, l_p, 20e9, amps, phis)
    assert fit.residual < 1e-6
    # reconstructed |ADP| against the input's, both unit-normalized
    got = fitted_magnitude(fit, template, l_p, prof.u)
    want = unit_magnitude(prof.values)
    np.testing.assert_allclose(got, want, atol=1e-5 * np.max(want))
    assert fit.converged


def test_fit_ignores_profile_phase():
    """The round-trip profile times a seeded random unit-modulus phase, as
    decoupling from the filter leaves it, still fits to < 1e-6."""
    amps, phis, prof, l_p = round_trip_case()
    rng = np.random.default_rng(11)
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, prof.u.shape))
    scrambled = AdpProfile(prof.u, prof.values * phase, prof.sum_center)
    fit = fit_adp(scrambled, pump_template(), l_p, 20e9, amps, phis)
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
    fit = fit_adp(prof, template, l_p, 10e9, [0.5], [0.0])
    assert fit.sigma_p == pytest.approx(sigma_true, rel=1e-3)


def test_fit_zero_profile_rejected():
    prof = AdpProfile(np.linspace(-1e9, 1e9, 33), np.zeros(33), 2.0 * P0)
    with pytest.raises(DegenerateInputError):
        fit_adp(prof, pump_template(), flat_lp(), 20e9, [0.5] * 6, [0.0] * 6)


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
    fit = fit_adp(
        prof, pump_template(), l_p, 30e9,
        rng.uniform(0.1, 1, 6), rng.uniform(0, 2 * np.pi, 6),
    )
    got = fitted_magnitude(fit, pump_template(), l_p, prof.u)
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
    residual, jacobian = _magnitude_fit(profiles, template, l_ps)
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
    wide = AdpProfile(u, np.exp(-((u / 40e9) ** 2)), prof.sum_center)
    narrow = AdpProfile(u, np.exp(-((u / 20e9) ** 2)), prof.sum_center)
    residual, jacobian = _magnitude_fit(
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
    want = oracles.least_squares_fit(prof, template, l_p, x0)
    fit = fit_adp(prof, template, l_p, 10e9, [0.5], [0.0])
    assert want.status == 1 and fit.converged
    assert (fit.nfev, fit.njev) == (want.nfev, want.njev)
    assert np.log(fit.sigma_p) == pytest.approx(want.x[0], abs=1e-8)
    got = fitted_magnitude(fit, template, l_p, prof.u)
    np.testing.assert_allclose(
        got - unit_magnitude(prof.values), want.fun, rtol=0.0, atol=1e-8
    )
    assert fit.residual == pytest.approx(2.0 * want.cost, rel=0.0, abs=1e-8)


def mu_point_fit_rows(preset, n_rows):
    """(profile, l_p, start) of n_rows fits: the preset's default mu points
    in turn, each row with its own restart's start, at a 128^2 grid."""
    cfg = load_preset(preset)
    cfg = replace(cfg, grid=replace(cfg.grid, n_points=128))
    swept = cfg.signal if cfg.target.dimension >= 2 else cfg.pump_resonance
    mu_values = SearchConfig().mu_values
    points = []
    for mu in mu_values:
        trial_cfg, target, l_p, _ = _trial_context(
            cfg, (mu,) * len(swept.couplings), _FIT_PUMP_POINTS, _VERIFY_POINTS
        )
        _, grid_s, grid_i = build_grids(trial_cfg)
        profile = _target_profile(
            target_jsa(target, grid_s, grid_i),
            field_enhancement_chain(trial_cfg.signal, grid_s),
            field_enhancement_chain(trial_cfg.idler, grid_i),
        )
        points.append((profile, l_p))
    n_taps = len(cfg.pump.taps)
    rows = []
    for r in range(n_rows):
        k = r % len(points)
        rows.append((*points[k], _start(0, k, r // len(points), n_taps)))
    return cfg.pump, rows


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("preset", ["bell_phi_minus", "separable"])
def test_fit_batch_rows_do_not_depend_on_the_batch(preset):
    """One (profile, start) fitted alone and at rows 0, 17 and 31 of a
    32-row batch of the preset's mu points, some of whose rows end before
    others, gives the same fit bit for bit, evaluation counts included;
    so does every other row of the batch, fitted alone.  The separable
    preset sweeps the pump chain, so its rows differ in l_p too.  The fit
    raises no warning."""
    template, rows = mu_point_fit_rows(preset, 32)
    probe = rows[5]
    for r in (0, 17, 31):
        rows[r] = probe

    def fit(batch):
        profiles, l_ps, starts = zip(*batch)
        return _fit_batch(list(profiles), template, list(l_ps), np.array(starts))

    batch = fit(rows)
    alone = fit([probe])[0]
    for r in (0, 17, 31):
        assert batch[r] == alone
        assert (batch[r].nfev, batch[r].njev) == (alone.nfev, alone.njev)
    nfev = [f.nfev for f in batch]
    assert min(nfev) < inversion._FIT_MAX_NFEV
    assert max(nfev) > min(nfev)
    for r in (1, 2, 16, 18, 30):
        assert fit([rows[r]])[0] == batch[r]


# ---------------------------------------------------------------------------
# search loop

def _parent_trial_score(cfg, mu, pump_points, n_points, sigma_p, taps):
    """The trial score as the chain shaped pump -> JSA -> reported_state ->
    _trial_score rebuilt every time, with the ADP sampled by np.interp."""
    trial_cfg = _swept_chains(cfg, mu)
    pump_grid, grid_s, grid_i = build_grids(trial_cfg, n_points)
    pump_grid = SpectralGrid(pump_grid.center, pump_grid.half_span, pump_points)
    l_p = field_enhancement_chain(trial_cfg.pump_resonance, pump_grid)
    l_s = field_enhancement_chain(trial_cfg.signal, grid_s)
    l_i = field_enhancement_chain(trial_cfg.idler, grid_i)
    spec = replace(cfg.pump, sigma_p=sigma_p, taps=taps)
    pump = apply_envelope(spec, fir_response(spec, pump_grid))
    apl = pump.values * l_p.values
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
    target = TargetState(
        cfg.target.dimension, cfg.target.sigma, grid_s.center, grid_i.center
    )
    return _trial_score(
        reported_state(jsa),
        hg_basis(4, grid_s, grid_s.center, cfg.target.sigma),
        hg_basis(4, grid_i, grid_i.center, cfg.target.sigma),
        target.coefficients,
    )


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
        *_, score = _trial_context(cfg, mu, pump_points, n_points)
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
    *_, score = _trial_context(cfg, mu, pump_points, n_points)
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
    *_, score = _trial_context(cfg, (1.0e9,), _FIT_PUMP_POINTS, _VERIFY_POINTS)
    taps = oracles.make_taps([0.0] * len(cfg.pump.taps), [0.3] * len(cfg.pump.taps))
    with pytest.raises(DegenerateFieldError):
        score(cfg.pump.sigma_p, taps)


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
    *_, score = _trial_context(cfg, mu, pump_points, n_points)
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


@pytest.mark.parametrize("n_points", [256, 512])
@pytest.mark.parametrize(
    "preset", ["bell_phi_minus", "mes_d3", "mes_d4", "separable"]
)
def test_verified_score_equals_simulate(preset, n_points):
    """The verification computes exactly the figure simulate reports:
    the fidelity, or the purity for the separable target."""
    cfg = load_preset(preset)
    cfg = replace(cfg, grid=replace(cfg.grid, n_points=n_points))
    swept = cfg.signal if cfg.target.dimension >= 2 else cfg.pump_resonance
    mu = swept.couplings
    got = _verified_score(cfg, mu, cfg.pump.sigma_p, cfg.pump.taps)
    full = simulate(apply_free_params(cfg, mu, cfg.pump.sigma_p, cfg.pump.taps))
    want = full.purity if cfg.target.dimension == 1 else full.fidelity
    assert got == want


@pytest.mark.parametrize("preset", ["bell_phi_minus", "separable"])
def test_verified_score_goes_through_simulates_chain(monkeypatch, preset):
    """The verification builds its state with simulate's forward_chain:
    one call each through simulate's compute_jsa and reported_state."""
    calls = {"compute_jsa": 0, "reported_state": 0}

    def counting(name):
        original = getattr(simulate_module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(simulate_module, name, counting(name))
    cfg = load_preset(preset)
    cfg = replace(cfg, grid=replace(cfg.grid, n_points=128))
    swept = cfg.signal if cfg.target.dimension >= 2 else cfg.pump_resonance
    _verified_score(cfg, swept.couplings, cfg.pump.sigma_p, cfg.pump.taps)
    assert calls == {"compute_jsa": 1, "reported_state": 1}


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


def test_search_pool_workers_run_one_blas_thread(monkeypatch):
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


def tiny_search(**kw):
    defaults = dict(
        restarts=2, mu_min=1.25e9, mu_max=1.5e9, mu_step=0.25e9, seed=0,
        polish_evals=0,
    )
    defaults.update(kw)
    return SearchConfig(**defaults)


def test_search_config_validation():
    with pytest.raises(ConfigError):
        SearchConfig(restarts=0)
    with pytest.raises(ConfigError):
        SearchConfig(mu_step=0.0)
    with pytest.raises(ConfigError):
        SearchConfig(mu_min=2e9, mu_max=1e9).mu_values


@pytest.mark.parametrize(
    "n_points, restarts, workers",
    [(21, 1, 1), (21, 1, 2), (21, 1, 3), (21, 32, 2), (5, 1, 4), (9261, 1, 2),
     (3, 100, 2), (441, 2, 8)],
)
def test_mu_points_split_into_chunks_per_worker(n_points, restarts, workers):
    """The chunks cover the mu points in order, give every worker one at
    least and hold no more fits than one batch, unless a single point's
    restarts already exceed it."""
    chunks = inversion._chunks(n_points, restarts, workers)
    assert chunks[0][0] == 0 and chunks[-1][1] == n_points
    assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
    assert len(chunks) >= workers
    sizes = [hi - lo for lo, hi in chunks]
    assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
    assert all(
        size * restarts <= inversion._FIT_BATCH or size == 1 for size in sizes
    )


def test_optimize_trace_does_not_depend_on_the_fit_batches(monkeypatch):
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
def test_optimize_trace_deterministic():
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
def test_optimize_same_result_in_process_and_on_the_pool(monkeypatch):
    """One worker runs everything in this process, two run the mu points
    and the polish on a pool; both give the same result."""
    cfg = load_preset("bell_phi_minus")
    search = tiny_search(polish_top=2, polish_evals=40)
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
def test_optimize_trace_ordering_and_verified_score():
    from tfm_synth.simulate import simulate

    cfg = load_preset("bell_phi_minus")
    res = optimize_state(cfg, tiny_search(restarts=3))
    keys = [(r["mu"]["mu_12"], r["restart"]) for r in res.trace]
    assert keys == sorted(keys)
    # the reported score is the winner's full-grid verified fidelity
    ver = simulate(res.best_config)
    assert res.fidelity == pytest.approx(ver.fidelity, rel=1e-12)


@pytest.mark.slow
def test_optimize_separable_end_to_end():
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
def test_optimize_best_reaches_known_quality():
    """A small sweep around the known optimum already beats 0.9."""
    cfg = load_preset("bell_phi_minus")
    res = optimize_state(cfg, tiny_search(restarts=3))
    assert res.fidelity > 0.9
    assert res.best_config.pump.sigma_p > 0
    assert len(res.best_config.pump.taps) == 6


@pytest.mark.slow
def test_optimize_restart_monotone():
    """Best fidelity is non-decreasing in the number of restarts."""
    cfg = load_preset("bell_phi_minus")
    one = optimize_state(cfg, tiny_search(restarts=1, mu_max=1.25e9))
    three = optimize_state(cfg, tiny_search(restarts=3, mu_max=1.25e9))
    assert three.fidelity >= one.fidelity - 1e-12


@pytest.mark.slow
def test_optimize_polish_improves_or_keeps_score():
    """The polish stage never returns a worse verified score than the
    unpolished winner (it keeps the better of the two)."""
    cfg = load_preset("bell_phi_minus")
    base = optimize_state(
        cfg, tiny_search(restarts=1, mu_min=1.5e9, mu_max=1.5e9)
    )
    polished = optimize_state(
        cfg,
        tiny_search(
            restarts=1, mu_min=1.5e9, mu_max=1.5e9,
            polish_evals=200, polish_top=1,
        ),
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
        nfevs.extend(fit.nfev for fit in fits)
        return fits

    # in this process, where the recording batch is seen
    monkeypatch.setenv("TFM_SYNTH_THREADS", "1")
    monkeypatch.setattr(inversion, "_fit_batch", recording_batch)
    cfg = load_preset("bell_phi_minus")
    cfg = replace(cfg, grid=replace(cfg.grid, n_points=256))
    n_mu = len(SearchConfig().mu_values)
    for seed in range(4):
        res = optimize_state(cfg, SearchConfig(seed=seed, restarts=1))
        assert res.fidelity >= 0.9995, (seed, res.fidelity)
    assert len(nfevs) == 4 * n_mu
    assert max(nfevs) <= inversion._FIT_MAX_NFEV


@pytest.mark.slow
def test_optimize_subspace_weight_of_best():
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
