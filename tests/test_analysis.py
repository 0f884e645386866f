"""Schmidt analysis, mode projection, fidelity, and pair rate."""

import numpy as np
import pytest

from tfm_synth.analysis import (
    PgrInput,
    PreconditionError,
    TargetState,
    fidelity,
    fidelity_pure,
    pair_confined_rho,
    pair_fidelity,
    pair_generation_rate,
    project_to_tfm,
    purity,
    schmidt_decompose,
    schmidt_number,
    target_jsa,
    target_rho,
)
from tfm_synth.jsa import Jsa, normalize
from tfm_synth.spectral import SpectralGrid, hg_mode

S0 = 1215.70e12
I0 = 1214.45e12
SIGMA = 6.0e9
GS = SpectralGrid(S0, 56e9, 256)
GI = SpectralGrid(I0, 56e9, 256)


def two_mode_state(c0, c1):
    amp = c0 * np.outer(
        hg_mode(0, GS, S0, SIGMA).values, hg_mode(0, GI, I0, SIGMA).values
    ) + c1 * np.outer(
        hg_mode(1, GS, S0, SIGMA).values, hg_mode(1, GI, I0, SIGMA).values
    )
    return normalize(Jsa(GS, GI, amp))


def test_schmidt_requires_normalized():
    jsa = Jsa(GS, GI, np.ones((256, 256)))
    with pytest.raises(PreconditionError):
        schmidt_decompose(jsa)


def test_schmidt_weights_of_known_state():
    jsa = two_mode_state(np.sqrt(0.7), -np.sqrt(0.3))
    res = schmidt_decompose(jsa)
    np.testing.assert_allclose(res.weights[:2], [0.7, 0.3], atol=1e-6)
    assert np.sum(res.weights) == pytest.approx(1.0, abs=1e-9)


def test_svd_reconstruction():
    """Sum of weighted Schmidt products reconstructs the JSA to 1e-6."""
    jsa = two_mode_state(np.sqrt(0.5), -np.sqrt(0.5))
    res = schmidt_decompose(jsa)
    recon = np.zeros_like(jsa.amplitude)
    for k, w in enumerate(res.weights):
        recon += np.sqrt(w) * np.outer(
            res.signal_modes[k].values, res.idler_modes[k].values
        )
    scale = np.max(np.abs(jsa.amplitude))
    # SVD fixes each pair's joint phase only; align mode pairs first
    np.testing.assert_allclose(
        np.abs(recon), np.abs(jsa.amplitude), atol=1e-6 * scale
    )
    overlap = np.sum(np.conj(recon) * jsa.amplitude) * jsa.cell_area
    assert abs(overlap) == pytest.approx(1.0, abs=1e-6)


def test_schmidt_number_purity_inverse():
    """K' * P = 1 for any weight vector."""
    rng = np.random.default_rng(11)
    for _ in range(20):
        w = rng.random(8)
        w /= w.sum()
        assert schmidt_number(w) * purity(w) == pytest.approx(1.0, rel=1e-12)


def test_schmidt_number_limits():
    assert schmidt_number([1.0]) == pytest.approx(1.0)
    assert schmidt_number([0.25] * 4) == pytest.approx(4.0)


def test_target_state_coefficients():
    t = TargetState(3, SIGMA, S0, I0)
    np.testing.assert_allclose(
        t.coefficients, np.array([1.0, -1.0, 1.0]) / np.sqrt(3.0)
    )
    with pytest.raises(ValueError):
        TargetState(5, SIGMA, S0, I0)


def test_target_jsa_schmidt_spectrum():
    t = TargetState(2, SIGMA, S0, I0)
    jsa = target_jsa(t, GS, GI)
    res = schmidt_decompose(jsa)
    np.testing.assert_allclose(res.weights[:2], [0.5, 0.5], atol=1e-6)
    assert schmidt_number(res.weights) == pytest.approx(2.0, abs=1e-4)


def test_projection_of_ideal_target():
    t = TargetState(2, SIGMA, S0, I0)
    jsa = target_jsa(t, GS, GI)
    proj = project_to_tfm(jsa, SIGMA, S0, I0)
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
    modes_s = [hg_mode(k, GS, S0, SIGMA).values for k in range(4)]
    modes_i = [hg_mode(k, GI, I0, SIGMA).values for k in range(4)]
    for jsa in (real, complex_state):
        proj = project_to_tfm(jsa, SIGMA, S0, I0)
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
    t = TargetState(3, SIGMA, S0, I0)
    c = np.zeros((4, 4))
    c[:3, :3] = np.diag(t.coefficients)
    c[0, 1] = 0.3     # off-diagonal weight is not part of the pair state
    assert pair_fidelity(c, t.coefficients) == pytest.approx(1.0, abs=1e-15)
    c = np.diag([0.0, 0.0, 0.0, 1.0])
    assert pair_fidelity(c, t.coefficients) == 0.0
    with pytest.raises(PreconditionError):
        pair_fidelity(np.zeros((4, 4)), t.coefficients)


def test_pair_confined_rho_keeps_diagonal_pairs():
    c = np.zeros((4, 4), dtype=complex)
    c[0, 0] = 0.6
    c[1, 1] = -0.4
    c[0, 1] = 0.5     # discarded off-diagonal weight
    rho = pair_confined_rho(c)
    assert np.trace(rho).real == pytest.approx(1.0)
    w = 0.36 + 0.16
    assert rho[0, 0].real == pytest.approx(0.36 / w)
    assert rho[5, 5].real == pytest.approx(0.16 / w)
    assert rho[1, 1].real == pytest.approx(0.0)
    with pytest.raises(PreconditionError):
        pair_confined_rho(np.zeros((4, 4)))
    with pytest.raises(PreconditionError):
        pair_confined_rho(np.zeros((3, 4)))


def test_fidelity_self_is_one():
    t = TargetState(4, SIGMA, S0, I0)
    rho = target_rho(t)
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-6)


def test_fidelity_orthogonal_states():
    a = np.zeros((4, 4), dtype=complex)
    b = np.zeros((4, 4), dtype=complex)
    a[0, 0] = 1.0
    b[1, 1] = 1.0
    assert fidelity(a, b) == pytest.approx(0.0, abs=1e-12)


def test_fidelity_matches_pure_overlap():
    rng = np.random.default_rng(2)
    psi = rng.normal(size=6) + 1j * rng.normal(size=6)
    psi /= np.linalg.norm(psi)
    chi = rng.normal(size=6) + 1j * rng.normal(size=6)
    chi /= np.linalg.norm(chi)
    rho_a = np.outer(psi, np.conj(psi))
    rho_b = np.outer(chi, np.conj(chi))
    assert fidelity(rho_a, rho_b) == pytest.approx(
        fidelity_pure(psi, chi), abs=1e-9
    )


def test_fidelity_requires_unit_trace():
    with pytest.raises(PreconditionError):
        fidelity(np.eye(4), np.eye(4) / 4.0)


# ---------------------------------------------------------------------------
# pair generation rate

def test_pgr_closed_form_oracle():
    """Hand-evaluated rate formula for simple round numbers."""
    inp = PgrInput(
        gamma=100.0,
        pulse_energy=2e-12,
        group_velocity=7e7,
        radius=1e-4,
        omega_p0=1.2e15,
        q_tot=3e4,
        q_ext=6e4,
        rep_rate=5e8,
    )
    n_pulse, rate = pair_generation_rate(inp)
    expect = (
        3.0 * 100.0**2 * (2e-12) ** 2 * (7e7) ** 4
        / (8.0 * np.pi**2 * (1e-4) ** 2 * (1.2e15) ** 2)
        * (3e4) ** 6
        / (6e4) ** 4
    )
    assert n_pulse == pytest.approx(expect, rel=1e-12)
    assert rate == pytest.approx(expect * 5e8, rel=1e-12)


def test_pgr_quadratic_in_pulse_energy():
    base = dict(
        gamma=100.0, group_velocity=7e7, radius=1e-4, omega_p0=1.2e15,
        q_tot=3e4, q_ext=6e4, rep_rate=5e8,
    )
    n1, _ = pair_generation_rate(PgrInput(pulse_energy=2e-12, **base))
    n2, _ = pair_generation_rate(PgrInput(pulse_energy=8e-12, **base))
    assert n2 / n1 == pytest.approx(16.0, rel=1e-12)


def test_pgr_from_raw_quality_factors():
    inp = PgrInput.from_raw(
        n2=5.59e-18,
        a_eff=1.91e-13,
        avg_power=1e-3,
        rep_rate=5e8,
        group_velocity=7.14e7,
        radius=1.1424e-4,
        omega_p0=1215.075e12,
        kappa=0.0985e6,
        pump_decay_rates=(7.26e9, 2.44e9),
    )
    assert inp.q_tot == pytest.approx(1215.075e12 / (2.0 * 9.70e9), rel=1e-12)
    assert inp.q_ext == pytest.approx(1215.075e12 / 0.0985e6**2, rel=1e-12)
    assert inp.pulse_energy == pytest.approx(2e-12)
    assert inp.gamma == pytest.approx(
        5.59e-18 * 1215.075e12 / (299792458.0 * 1.91e-13), rel=1e-12
    )


def test_pgr_rejects_nonpositive():
    with pytest.raises(ValueError):
        PgrInput(
            gamma=0.0, pulse_energy=1e-12, group_velocity=7e7, radius=1e-4,
            omega_p0=1e15, q_tot=1e4, q_ext=1e4, rep_rate=1e8,
        )
