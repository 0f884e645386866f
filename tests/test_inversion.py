"""Inverse-design pipeline: decoupling, extraction, fitting, search."""

from dataclasses import replace

import numpy as np
import pytest

from tfm_synth.analysis import TargetState, target_jsa
from tfm_synth.config import ConfigError, load_preset
from tfm_synth.inversion import (
    AdpProfile,
    SearchConfig,
    decouple_tdsi,
    extract_antidiagonal,
    fit_adp,
    optimize_state,
)
from tfm_synth.jsa import Jsa, adp_model, normalize
from tfm_synth.pulse_shaper import (
    DegenerateInputError,
    PumpSpec,
    make_taps,
    shaped_pump,
)
from tfm_synth.resonator import field_enhancement_chain
from tfm_synth.simulate import build_grids
from tfm_synth.spectral import Field1D, Field2D, GridError, SpectralGrid, hg_mode

S0 = 1215.70e12
I0 = 1214.45e12
P0 = 1215.075e12
GS = SpectralGrid(S0, 56e9, 128)
GI = SpectralGrid(I0, 56e9, 128)


def bell_target_jsa():
    return target_jsa(TargetState(2, 6.0e9, S0, I0), GS, GI)


# ---------------------------------------------------------------------------
# decoupling

def test_decouple_identity_filter():
    f = bell_target_jsa()
    ones = Field2D(GS, GI, np.ones((128, 128)))
    g = decouple_tdsi(f, ones, epsilon=1e-6)
    np.testing.assert_allclose(g.values, f.amplitude, rtol=1e-5)


def test_decouple_self_gives_unity_on_support():
    f = bell_target_jsa()
    tdsi = Field2D(GS, GI, f.amplitude)
    g = decouple_tdsi(f, tdsi, epsilon=1e-4)
    strong = np.abs(f.amplitude) > 0.3 * np.max(np.abs(f.amplitude))
    np.testing.assert_allclose(g.values[strong], 1.0, atol=1e-3)


def test_decouple_round_trip():
    """Decouple then re-multiply recovers the target within 1% L2 on the
    region where the filter is well above the regularization floor."""
    f = bell_target_jsa()
    rng = np.random.default_rng(4)
    filt = (
        rng.uniform(0.5, 2.0, (128, 128))
        * np.exp(1j * rng.uniform(0, 2 * np.pi, (128, 128)))
    )
    tdsi = Field2D(GS, GI, filt)
    eps = 1e-3
    g = decouple_tdsi(f, tdsi, epsilon=eps)
    back = g.values * filt
    region = np.abs(filt) > 10.0 * eps * np.max(np.abs(filt))
    err = np.linalg.norm((back - f.amplitude)[region])
    ref = np.linalg.norm(f.amplitude[region])
    assert err / ref < 0.01


def test_decouple_rejects_bad_inputs():
    f = bell_target_jsa()
    with pytest.raises(ValueError):
        decouple_tdsi(f, Field2D(GS, GI, np.ones((128, 128))), epsilon=0.0)
    with pytest.raises(DegenerateInputError):
        decouple_tdsi(f, Field2D(GS, GI, np.zeros((128, 128))), epsilon=1e-3)
    other = SpectralGrid(S0, 40e9, 128)
    with pytest.raises(GridError):
        decouple_tdsi(f, Field2D(other, GI, np.ones((128, 128))), epsilon=1e-3)


# ---------------------------------------------------------------------------
# anti-diagonal extraction

def test_extract_pure_sum_function_exact_at_nodes():
    sums = GS.samples[:, None] + GI.samples[None, :] - (S0 + I0)
    sigma = 20e9
    g = Field2D(GS, GI, np.exp(-(sums**2) / (2 * sigma * sigma)))
    prof = extract_antidiagonal(g)
    expect = np.exp(-(prof.u**2) / (2 * sigma * sigma))
    np.testing.assert_allclose(prof.values[::2].real, expect[::2], atol=1e-12)


def test_extract_gaussian_product_closed_form():
    """f0(dw_s) f0(dw_i) along the cut equals f0(u/2)^2."""
    sigma = 10e9
    f0s = hg_mode(0, GS, S0, sigma).values
    f0i = hg_mode(0, GI, I0, sigma).values
    g = Field2D(GS, GI, np.outer(f0s, f0i))
    prof = extract_antidiagonal(g)
    norm = 1.0 / np.sqrt(np.sqrt(np.pi) * sigma)
    expect = (norm * np.exp(-(prof.u / 2.0) ** 2 / (2.0 * sigma * sigma))) ** 2
    # tolerance reflects the bilinear interpolation error at off-node points
    np.testing.assert_allclose(prof.values.real, expect, atol=2e-3 * expect.max())


def test_extract_symmetry():
    sums = GS.samples[:, None] + GI.samples[None, :] - (S0 + I0)
    g = Field2D(GS, GI, np.cos(sums / 30e9))
    prof = extract_antidiagonal(g)
    np.testing.assert_allclose(
        prof.values.real, prof.values.real[::-1], atol=1e-9
    )


def test_extract_out_of_range_rejected():
    g = Field2D(GS, GI, np.ones((128, 128)))
    with pytest.raises(GridError, match="past the grid"):
        extract_antidiagonal(g, u=np.array([0.0, 3.0e11]))


# ---------------------------------------------------------------------------
# ADP fitting

PUMP_GRID = SpectralGrid(P0, 250e9, 1024)


def pump_template():
    return PumpSpec(
        sigma_p=25.2584049e9,
        carrier=P0,
        taps=make_taps([0.5] * 6, [0.0] * 6),
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
    pump = shaped_pump(spec, l_p.grid)
    return adp_model(l_p.grid, 2.0 * P0 + u)(pump.values * l_p.values)


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
        sigma_p=20e9, carrier=P0, taps=make_taps(amps, phis),
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
        sigma_p=sigma_true, carrier=P0, taps=make_taps([1.0], [0.0]),
        base_delay=75e-12,
    )
    l_p = flat_lp()
    prof = synth_profile(truth, l_p)
    template = PumpSpec(
        sigma_p=10e9, carrier=P0, taps=make_taps([0.5], [0.0]),
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
        taps=make_taps(rng.uniform(0.1, 1, 6), rng.uniform(0, 2 * np.pi, 6)),
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


# ---------------------------------------------------------------------------
# search loop

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
