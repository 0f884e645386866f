"""Forward model on the shipped presets: the real reported state and the
figures of merit computed from it."""

import importlib

import numpy as np
import pytest

import oracles
from tfm_synth import load_preset, pulse_shaper, simulate
from tfm_synth.analysis import schmidt_decompose
from tfm_synth.jsa import Jsa, compute_jsa, normalize
from tfm_synth.simulate import build_grids, reported_state
from tfm_synth.spectral import SpectralGrid

# the package's `simulate` attribute is the function, not the module
simulate_module = importlib.import_module("tfm_synth.simulate")

PRESETS = ("bell_phi_minus", "mes_d3", "mes_d4", "separable")


def simulate_keeping_inputs(cfg, n_points):
    """(result, pump, raw): simulate's result, the shaped pump it hands
    compute_jsa and the complex JSA it hands reported_state, two arrays
    the result does not keep."""
    handed = []

    def first_argument(call):
        def recording(*args):
            handed.append(args[0])
            return call(*args)
        return recording

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate_module, "compute_jsa", first_argument(compute_jsa))
        mp.setattr(simulate_module, "reported_state", first_argument(reported_state))
        result = simulate(cfg, n_points=n_points)
    pump, raw = handed
    return result, pump, raw


@pytest.fixture(scope="module")
def results():
    return {
        name: simulate_keeping_inputs(load_preset(name), 512) for name in PRESETS
    }


@pytest.fixture(scope="module")
def results_96():
    return {
        name: simulate_keeping_inputs(load_preset(name), 96) for name in PRESETS
    }


def assert_weights_match_svd(jsa):
    """schmidt_decompose's leading weights agree with the values-only
    SVD to |d lambda_k| <= 1e-15 + 1e-12 lambda_k for k < 16, and its
    purity with the SVD's sum lambda^2 to 1e-14 relative."""
    got, purity = schmidt_decompose(jsa)
    want = oracles.svd_weights(jsa)
    k = min(16, got.size, want.size)
    assert k == min(16, want.size)
    err = np.abs(got[:k] - want[:k])
    assert np.all(err <= 1e-15 + 1e-12 * want[:k]), err
    assert purity == pytest.approx(np.sum(want * want), rel=1e-14, abs=0)


def test_reported_state_is_real(results):
    for result, _, _ in results.values():
        assert result.jsa.amplitude.dtype == np.float64


@pytest.mark.parametrize("name", PRESETS)
def test_reported_state_has_one_sign_factor_per_antidiagonal(name):
    """The pi-flip sign field is a function of j + k: along each
    anti-diagonal the reported state is |F| times one factor s, to the
    bit.  The quotient state / |F| may round an ulp off s, so s is taken
    among the quotients and checked through the product."""
    result, _, raw = simulate_keeping_inputs(load_preset(name), 128)
    state = result.jsa
    mag = np.abs(raw.amplitude)
    n = mag.shape[0]
    for m in range(2 * n - 1):
        j = np.arange(max(0, m - n + 1), min(m, n - 1) + 1)
        f, s = mag[j, m - j], state.amplitude[j, m - j]
        live = f > 0
        factors = np.unique(s[live] / f[live]) if live.any() else [0.0]
        assert any(np.array_equal(f * c, s) for c in factors), m


def test_values_only_weights_match_full_complex_svd(results):
    for result, _, _ in results.values():
        state = result.jsa
        a = state.amplitude.astype(complex) * np.sqrt(state.cell_area)
        s = np.linalg.svd(a, full_matrices=False)[1]
        weights = result.schmidt
        np.testing.assert_allclose(weights, (s * s)[: len(weights)], rtol=0, atol=1e-12)


def test_fidelity_matches_uhlmann_oracle(results):
    for result, _, _ in results.values():
        oracle = oracles.fidelity(
            oracles.pair_confined_rho(result.projection.coefficients),
            oracles.target_rho(result.config.target),
        )
        assert result.fidelity == pytest.approx(oracle, rel=1e-7)


@pytest.mark.parametrize("grid", ["results", "results_96"])
def test_gram_weights_match_svd_on_reported_and_raw_states(grid, request):
    for result, _, raw in request.getfixturevalue(grid).values():
        assert np.iscomplexobj(raw.amplitude)
        assert_weights_match_svd(result.jsa)
        assert_weights_match_svd(raw)


@pytest.mark.parametrize("n_s, n_i", [(160, 96), (96, 160)])
def test_gram_weights_match_svd_on_non_square_jsa(n_s, n_i):
    """A correlated complex Gaussian on unequal grids: the taller one is
    transposed before its Gram matrix is formed."""
    grid_s = SpectralGrid(1215.70e12, 40e9, n_s)
    grid_i = SpectralGrid(1214.45e12, 30e9, n_i)
    d_s = (grid_s.samples - grid_s.center)[:, None] / 10e9
    d_i = (grid_i.samples - grid_i.center)[None, :] / 10e9
    amp = np.exp(-((d_s + d_i) ** 2) / 0.5 - ((d_s - d_i) ** 2) / 8.0)
    amp = amp * np.exp(1j * (0.3 * d_s**2 - 0.7 * d_s * d_i))
    jsa = normalize(Jsa(grid_s, grid_i, amp))
    assert schmidt_decompose(jsa)[0].size > 4
    assert_weights_match_svd(jsa)


@pytest.mark.parametrize("name", ["bell_phi_minus", "mes_d4"])
def test_krylov_weights_match_svd_at_1024(name, monkeypatch):
    """At 1024^2 the leading weights come from the block Krylov method,
    with no full eigensolve, on the reported state and on the complex
    raw JSA, and they and the purity match the SVD as on smaller grids."""
    result, _, raw = simulate_keeping_inputs(load_preset(name), 1024)
    full = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(
        np.linalg, "eigvalsh", lambda a: full.append(a.shape) or eigvalsh(a)
    )
    for jsa in (result.jsa, raw):
        assert_weights_match_svd(jsa)
    assert full == []


def test_one_fir_evaluation_per_simulate(monkeypatch):
    """simulate evaluates the shaped pump, envelope and FIR response, once,
    counted through both the simulate module's binding and the pulse
    shaper's own."""
    calls = []
    original = pulse_shaper.shaped_pump

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(simulate_module, "shaped_pump", counted)
    monkeypatch.setattr(pulse_shaper, "shaped_pump", counted)
    simulate(load_preset("bell_phi_minus"), n_points=32)
    assert len(calls) == 1


def test_pump_is_the_shaped_pump_bit_for_bit(results):
    """The FIR response, and the pump simulate hands compute_jsa, equal,
    bit for bit, the per-tap formula H = sum_n alpha_n exp(i phi_n)
    exp[i n (theta - delta tau)], summed from tap 1 on, and that times the
    envelope exp(-delta^2 / 2 sigma_p^2)."""
    for result, pump, _ in results.values():
        spec = result.config.pump
        pump_grid = build_grids(result.config)[0]
        assert pump.grid == result.fir.grid == pump_grid
        delta = pump_grid.samples - spec.carrier
        envelope = np.exp(-(delta * delta) / (2.0 * spec.sigma_p * spec.sigma_p))
        terms = [
            np.array([tap.amplitude * np.exp(1j * tap.phase)])
            * np.exp(1j * n * (spec.comb_alignment - delta * spec.base_delay))
            for n, tap in enumerate(spec.taps, start=1)
        ]
        response = terms[0]
        for term in terms[1:]:
            response = response + term
        assert result.fir.values.tobytes() == response.tobytes()
        assert pump.values.tobytes() == (envelope * response).tobytes()
