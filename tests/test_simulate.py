"""Forward model on the shipped presets: the real reported state and the
figures of merit computed from it."""

import numpy as np
import pytest

import oracles
from tfm_synth import load_preset, simulate
from tfm_synth.analysis import TargetState

PRESETS = ("bell_phi_minus", "mes_d3", "mes_d4", "separable")


@pytest.fixture(scope="module")
def results():
    return {name: simulate(load_preset(name), n_points=512) for name in PRESETS}


def test_reported_state_is_real(results):
    for result in results.values():
        assert result.jsa.amplitude.dtype == np.float64


def test_values_only_weights_match_full_complex_svd(results):
    for result in results.values():
        state = result.jsa
        a = state.amplitude.astype(complex) * np.sqrt(state.cell_area)
        s = np.linalg.svd(a, full_matrices=False)[1]
        weights = result.schmidt.weights
        np.testing.assert_allclose(weights, (s * s)[: len(weights)], rtol=0, atol=1e-12)


def test_fidelity_matches_uhlmann_oracle(results):
    for result in results.values():
        cfg = result.config
        target = TargetState(
            cfg.target.dimension, cfg.target.sigma,
            cfg.signal.omega0, cfg.idler.omega0,
        )
        oracle = oracles.fidelity(
            oracles.pair_confined_rho(result.projection.coefficients),
            oracles.target_rho(target),
        )
        assert result.fidelity == pytest.approx(oracle, rel=1e-7)
