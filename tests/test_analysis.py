"""Schmidt analysis, mode projection, fidelity, and pair rate."""

from dataclasses import replace

import numpy as np
import pytest

import oracles
from tfm_synth.analysis import (
    _DIRECT_MAX_N,
    fidelity_pure,
    pair_fidelity,
    pair_generation_rate,
    project_to_tfm,
    schmidt_decompose,
    target_jsa,
)
from tfm_synth.config import PgrConfig, TargetConfig, load_preset
from tfm_synth.errors import NumericalError
from tfm_synth.jsa import Jsa, normalize
from tfm_synth.spectral import SpectralGrid, hg_mode

S0 = 1215.70e12
I0 = 1214.45e12
SIGMA = 6.0e9
GS = SpectralGrid(S0, 56e9, 256)
GI = SpectralGrid(I0, 56e9, 256)


def two_mode_state(c0, c1):
    amp = c0 * np.outer(
        hg_mode(0, GS, SIGMA).values, hg_mode(0, GI, SIGMA).values
    ) + c1 * np.outer(
        hg_mode(1, GS, SIGMA).values, hg_mode(1, GI, SIGMA).values
    )
    return normalize(Jsa(GS, GI, amp))


def test_schmidt_requires_normalized():
    jsa = Jsa(GS, GI, np.ones((256, 256)))
    with pytest.raises(NumericalError):
        schmidt_decompose(jsa)


def test_schmidt_weights_of_known_state():
    jsa = two_mode_state(np.sqrt(0.7), -np.sqrt(0.3))
    res, _ = schmidt_decompose(jsa)
    np.testing.assert_allclose(res[:2], [0.7, 0.3], atol=1e-6)
    assert np.sum(res) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize(
    "n, krylov", [(_DIRECT_MAX_N, False), (2 * _DIRECT_MAX_N, True)]
)
def test_flat_spectrum_weights_are_the_full_eigensolve(n, krylov, monkeypatch):
    """A seeded Gaussian state has a flat spectrum.  On the small-grid
    route, and above it, where the Krylov basis does not resolve the
    spectrum and falls back, the weights are the full eigensolve's top 16
    of the same Gram matrix, to the bit."""
    rng = np.random.default_rng(5)
    grid_s, grid_i = SpectralGrid(S0, 56e9, n), SpectralGrid(I0, 56e9, n)
    jsa = normalize(Jsa(grid_s, grid_i, rng.standard_normal((n, n))))
    gram = jsa.amplitude @ jsa.amplitude.T
    gram *= jsa.cell_area
    spectrum = np.linalg.eigvalsh(gram)[::-1]
    ritz = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(
        np.linalg, "eigh", lambda a: ritz.append(a.shape) or eigh(a)
    )
    weights, purity = schmidt_decompose(jsa)
    assert bool(ritz) == krylov
    assert np.array_equal(weights, spectrum[:16])
    assert purity == pytest.approx(np.sum(spectrum**2), rel=1e-14, abs=0)


def test_target_state_coefficients():
    t = TargetConfig(3, SIGMA)
    np.testing.assert_allclose(
        t.coefficients, np.array([1.0, -1.0, 1.0]) / np.sqrt(3.0)
    )
    with pytest.raises(ValueError):
        TargetConfig(5, SIGMA)


def test_target_jsa_schmidt_spectrum():
    t = TargetConfig(2, SIGMA)
    jsa = target_jsa(t, GS, GI)
    res, purity = schmidt_decompose(jsa)
    np.testing.assert_allclose(res[:2], [0.5, 0.5], atol=1e-6)
    assert 1.0 / purity == pytest.approx(2.0, abs=1e-4)


@pytest.mark.parametrize("n_points", [64, 65])
@pytest.mark.parametrize("dimension", [1, 2, 3, 4])
def test_target_jsa_is_the_per_mode_outer_product_sum(dimension, n_points):
    """target_jsa, built from hg_basis rows, equals the sum of the
    per-mode hg_mode outer products bit for bit, signed zeros included."""
    t = TargetConfig(dimension, SIGMA)
    gs = SpectralGrid(S0, 56e9, n_points)
    gi = SpectralGrid(I0, 56e9, n_points)
    amp = np.zeros((n_points, n_points), dtype=complex)
    for k, c in enumerate(t.coefficients):
        amp += c * np.outer(hg_mode(k, gs, SIGMA).values, hg_mode(k, gi, SIGMA).values)
    want = normalize(Jsa(gs, gi, amp)).amplitude
    got = target_jsa(t, gs, gi).amplitude
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_projection_of_ideal_target():
    t = TargetConfig(2, SIGMA)
    jsa = target_jsa(t, GS, GI)
    proj = project_to_tfm(jsa, SIGMA)
    c = proj.coefficients
    assert c[0, 0].real == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-6)
    assert c[1, 1].real == pytest.approx(-1.0 / np.sqrt(2.0), abs=1e-6)
    assert abs(c[0, 1]) < 1e-6 and abs(c[2, 2]) < 1e-6
    assert proj.subspace_weight == pytest.approx(1.0, abs=1e-6)
    assert proj.higher_order_weight == pytest.approx(0.0, abs=1e-6)


def test_projection_matrix_product_matches_pairwise_sums():
    """c_kl from one matrix product equals the per-pair outer-product
    sums, for a real and for a complex JSA."""
    rng = np.random.default_rng(3)
    real = two_mode_state(np.sqrt(0.6), -np.sqrt(0.4))
    noise = rng.normal(size=(256, 256)) + 1j * rng.normal(size=(256, 256))
    complex_state = normalize(
        Jsa(GS, GI, real.amplitude + 0.05 * np.max(real.amplitude) * noise)
    )
    modes_s = [hg_mode(k, GS, SIGMA).values for k in range(4)]
    modes_i = [hg_mode(k, GI, SIGMA).values for k in range(4)]
    for jsa in (real, complex_state):
        proj = project_to_tfm(jsa, SIGMA)
        expect = np.empty((4, 4), dtype=complex)
        for k in range(4):
            for l in range(4):
                expect[k, l] = np.sum(
                    np.conj(np.outer(modes_s[k], modes_i[l])) * jsa.amplitude
                ) * GS.spacing * GI.spacing
        scale = np.max(np.abs(expect))
        np.testing.assert_allclose(
            proj.coefficients, expect, rtol=0, atol=1e-12 * scale
        )


def test_pair_fidelity_of_target_and_orthogonal_pairs():
    t = TargetConfig(3, SIGMA)
    c = np.zeros((4, 4))
    c[:3, :3] = np.diag(t.coefficients)
    c[0, 1] = 0.3     # off-diagonal weight is not part of the pair state
    assert pair_fidelity(c, t.coefficients) == pytest.approx(1.0, abs=1e-15)
    c = np.diag([0.0, 0.0, 0.0, 1.0])
    assert pair_fidelity(c, t.coefficients) == 0.0
    with pytest.raises(NumericalError):
        pair_fidelity(np.zeros((4, 4)), t.coefficients)


def test_pair_confined_rho_keeps_diagonal_pairs():
    c = np.zeros((4, 4), dtype=complex)
    c[0, 0] = 0.6
    c[1, 1] = -0.4
    c[0, 1] = 0.5     # discarded off-diagonal weight
    rho = oracles.pair_confined_rho(c)
    assert np.trace(rho).real == pytest.approx(1.0)
    w = 0.36 + 0.16
    assert rho[0, 0].real == pytest.approx(0.36 / w)
    assert rho[5, 5].real == pytest.approx(0.16 / w)
    assert rho[1, 1].real == pytest.approx(0.0)
    with pytest.raises(NumericalError):
        oracles.pair_confined_rho(np.zeros((4, 4)))
    with pytest.raises(NumericalError):
        oracles.pair_confined_rho(np.zeros((3, 4)))


def test_fidelity_self_is_one():
    t = TargetConfig(4, SIGMA)
    rho = oracles.target_rho(t)
    assert oracles.fidelity(rho, rho) == pytest.approx(1.0, abs=1e-6)


def test_fidelity_orthogonal_states():
    a = np.zeros((4, 4), dtype=complex)
    b = np.zeros((4, 4), dtype=complex)
    a[0, 0] = 1.0
    b[1, 1] = 1.0
    assert oracles.fidelity(a, b) == pytest.approx(0.0, abs=1e-12)


def test_fidelity_matches_pure_overlap():
    rng = np.random.default_rng(2)
    psi = rng.normal(size=6) + 1j * rng.normal(size=6)
    psi /= np.linalg.norm(psi)
    chi = rng.normal(size=6) + 1j * rng.normal(size=6)
    chi /= np.linalg.norm(chi)
    rho_a = np.outer(psi, np.conj(psi))
    rho_b = np.outer(chi, np.conj(chi))
    assert oracles.fidelity(rho_a, rho_b) == pytest.approx(
        fidelity_pure(psi, chi), abs=1e-9
    )


def test_fidelity_requires_unit_trace():
    with pytest.raises(NumericalError):
        oracles.fidelity(np.eye(4), np.eye(4) / 4.0)


# ---------------------------------------------------------------------------
# pair generation rate

def pgr_config(
    n2, a_eff, avg_power, rep_rate, group_velocity, radius, omega_p0, kappa,
    pump_decay_rates,
):
    """The Bell preset with its pump chain and pair-rate constants replaced."""
    cfg = load_preset("bell_phi_minus")
    chain = replace(
        cfg.pump_resonance,
        omega0=omega_p0,
        decay_rates=pump_decay_rates,
        kappa=kappa,
        couplings=(0.0,) * (len(pump_decay_rates) - 1),
        perimeter=2.0 * np.pi * radius,
        group_velocity=group_velocity,
    )
    return replace(
        cfg, pump_resonance=chain, pgr=PgrConfig(n2, a_eff, avg_power, rep_rate)
    )


# gamma = 100 / (W m), W = 2 pJ, V_g = 7e7 m/s, R = 1e-4 m, w_p0 = 1.2e15
# rad/s, Q_tot = 3e4, Q_ext = 6e4 and 500 MHz, up to round-off
ROUND = dict(
    n2=100.0 * 299792458.0 * 1e-12 / 1.2e15, a_eff=1e-12, rep_rate=5e8,
    group_velocity=7e7, radius=1e-4, omega_p0=1.2e15, kappa=np.sqrt(2e10),
    pump_decay_rates=(2e10,),
)


def test_pgr_closed_form_oracle():
    """Hand-evaluated rate formula for simple round numbers."""
    rate = pair_generation_rate(pgr_config(avg_power=1e-3, **ROUND))
    expect = (
        3.0 * 100.0**2 * (2e-12) ** 2 * (7e7) ** 4
        / (8.0 * np.pi**2 * (1e-4) ** 2 * (1.2e15) ** 2)
        * (3e4) ** 6
        / (6e4) ** 4
    )
    assert rate["pairs_per_pulse"] == pytest.approx(expect, rel=1e-12, abs=0.0)
    assert rate["pgr_hz"] == pytest.approx(expect * 5e8, rel=1e-12)


def test_pgr_quadratic_in_pulse_energy():
    n1 = pair_generation_rate(pgr_config(avg_power=1e-3, **ROUND))
    n2 = pair_generation_rate(pgr_config(avg_power=4e-3, **ROUND))
    assert n2["pairs_per_pulse"] / n1["pairs_per_pulse"] == pytest.approx(
        16.0, rel=1e-12
    )


def test_pgr_from_raw_quality_factors():
    rate = pair_generation_rate(pgr_config(
        n2=5.59e-18,
        a_eff=1.91e-13,
        avg_power=1e-3,
        rep_rate=5e8,
        group_velocity=7.14e7,
        radius=1.1424e-4,
        omega_p0=1215.075e12,
        kappa=0.0985e6,
        pump_decay_rates=(7.26e9, 2.44e9),
    ))
    assert rate["q_tot"] == pytest.approx(1215.075e12 / (2.0 * 9.70e9), rel=1e-12)
    assert rate["q_ext"] == pytest.approx(1215.075e12 / 0.0985e6**2, rel=1e-12)
    assert rate["pulse_energy"] == pytest.approx(2e-12, rel=1e-12, abs=0.0)
    assert rate["gamma"] == pytest.approx(
        5.59e-18 * 1215.075e12 / (299792458.0 * 1.91e-13), rel=1e-12
    )
