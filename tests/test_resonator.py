"""Coupled-ring resonance chains and the MZI coupler."""

import numpy as np
import pytest

import oracles
from tfm_synth.resonator import (
    MziCouplerSpec,
    ResonanceChain,
    bus_transmission,
    field_enhancement_chain,
    mzi_max_mu,
    mzi_phase_for_mu,
)
from tfm_synth.spectral import SpectralGrid

OMEGA0 = 1215.70e12
KAPPA = 0.0985e6
L1 = 7.17791089e-4
VG = 7.14e7
GRID = SpectralGrid(OMEGA0, 56e9, 1024)


def chain(rates, mus):
    return ResonanceChain(OMEGA0, tuple(rates), KAPPA, tuple(mus), L1, VG)


def test_validation():
    with pytest.raises(ValueError):
        chain([], [])
    with pytest.raises(ValueError):
        chain([-1.0], [])
    with pytest.raises(ValueError):
        chain([7.26e9, 2.44e9], [])          # M-1 couplings required
    with pytest.raises(ValueError):
        ResonanceChain(OMEGA0, (1e9,), -1.0, (), L1, VG)


def test_two_stage_matches_closed_form():
    """General chain solver against the M=2 closed form, to 1e-12."""
    c = chain([7.26e9, 2.44e9], [1.45e9])
    general = field_enhancement_chain(c, GRID).values
    closed = oracles.field_enhancement_two_stage(c, GRID).values
    scale = np.max(np.abs(closed))
    np.testing.assert_allclose(general, closed, atol=1e-12 * scale)


def test_single_stage_is_lorentzian():
    """M=1: l(w) = sqrt(vg/L1) (-i kappa) / (i delta + gamma)."""
    gamma = 7.26e9
    c = chain([gamma], [])
    got = field_enhancement_chain(c, GRID).values
    delta = GRID.samples - OMEGA0
    expect = np.sqrt(VG / L1) * (-1j * KAPPA) / (1j * delta + gamma)
    np.testing.assert_allclose(got, expect, rtol=1e-13)


def test_zero_coupling_decouples_stage():
    """mu = 0 reduces M=2 to the single-ring Lorentzian."""
    c2 = chain([7.26e9, 2.44e9], [0.0])
    c1 = chain([7.26e9], [])
    np.testing.assert_allclose(
        field_enhancement_chain(c2, GRID).values,
        field_enhancement_chain(c1, GRID).values,
        rtol=1e-12,
    )


def test_chain_truncation():
    """M=3 with mu_23 = 0 equals the M=2 result."""
    c3 = chain([7.26e9, 2.44e9, 2.44e9], [1.45e9, 0.0])
    c2 = chain([7.26e9, 2.44e9], [1.45e9])
    np.testing.assert_allclose(
        field_enhancement_chain(c3, GRID).values,
        field_enhancement_chain(c2, GRID).values,
        rtol=1e-12,
    )


def test_split_resonance_has_two_peaks():
    """Strong inter-ring coupling splits the resonance by ~2 mu."""
    mu = 6.3e9
    c = chain([2.0e9, 2.0e9], [mu])
    fine = SpectralGrid(OMEGA0, 20e9, 8001)
    mag = np.abs(field_enhancement_chain(c, fine).values)
    delta = fine.samples - OMEGA0
    interior = (np.diff(np.sign(np.diff(mag))) < 0).nonzero()[0] + 1
    peaks = delta[interior[np.argsort(mag[interior])[-2:]]]
    split = abs(peaks.max() - peaks.min())
    assert split == pytest.approx(2.0 * mu, rel=0.05)


def test_bus_transmission_dip_on_resonance():
    c = chain([7.26e9, 2.44e9], [1.45e9])
    t = np.abs(bus_transmission(c, GRID).values)
    assert np.min(t) < 0.9
    assert np.all(t <= 1.0 + 1e-9)
    # far from resonance the bus is transparent
    assert abs(t[0] - 1.0) < 0.05


# ---------------------------------------------------------------------------
# MZI coupler

MZI = MziCouplerSpec(
    k_prime=0.05, perimeter_main=L1, perimeter_aux=L1 / 2.0, group_velocity=VG
)


def test_mzi_balanced_arms_give_max_coupling():
    assert oracles.mzi_effective_mu(MZI, 0.0, 0.0, 0.0) == pytest.approx(
        mzi_max_mu(MZI)
    )


def test_mzi_max_mu_formula():
    geometry = np.sqrt(VG**2 / (L1 * (L1 / 2.0)))
    assert mzi_max_mu(MZI) == pytest.approx(4.0 * 0.05 * 0.95 * geometry)


def test_mzi_phase_inverse_round_trip():
    """Forward map of the solved phases reproduces the target mu to 1e-6."""
    for mu in [0.0, 0.5e9, 1.45e9, 3.0e9, 5.0e9]:
        phases = mzi_phase_for_mu(MZI, mu)
        got = oracles.mzi_effective_mu(
            MZI, phases.phi_h1, phases.phi_h2, phases.phi_h3
        )
        assert abs(got - mu) <= 1e-6 * max(mu, 1.0), mu


def test_mzi_bar_state_at_zero():
    phases = mzi_phase_for_mu(MZI, 0.0)
    assert phases.phi_h1 == pytest.approx(np.pi / 2.0)
    assert phases.phi_h2 == pytest.approx(-np.pi / 2.0)


def test_mzi_out_of_range_rejected():
    with pytest.raises(ValueError, match="achievable range"):
        mzi_phase_for_mu(MZI, 2.0 * mzi_max_mu(MZI))


def test_mzi_output_phase_compensates_bar_path():
    """With phi_h3 applied the bar transmission is real and positive:
    the coupler leaves the ring round-trip phase unchanged."""
    phases = mzi_phase_for_mu(MZI, 1.45e9)
    bar = oracles._composed_matrix(
        MZI.k_prime, phases.phi_h1, phases.phi_h2, phases.phi_h3
    )[0, 0]
    assert abs(np.angle(bar)) < 1e-9


@pytest.mark.parametrize("k_prime", [0.05, 0.5, 0.9])
def test_mzi_closed_form_phases_through_the_transfer_matrix(k_prime):
    """The closed-form phases, set on the composed transfer matrix, give
    back the target mu and a bar amplitude of phase 0 over the whole
    reach, both ends included."""
    spec = MziCouplerSpec(k_prime, L1, L1 / 2.0, VG)
    mu_max = mzi_max_mu(spec)
    for mu in np.linspace(0.0, mu_max, 201):
        phases = mzi_phase_for_mu(spec, mu)
        h = (phases.phi_h1, phases.phi_h2, phases.phi_h3)
        assert abs(oracles.mzi_effective_mu(spec, *h) - mu) <= 1e-12 * mu_max, mu
        bar = oracles._composed_matrix(k_prime, *h)[0, 0]
        assert abs(np.angle(bar)) <= 1e-12, mu


def test_mzi_lower_k_prime_higher_finesse():
    """Weaker coupling regions give a steeper phase-vs-mu slope over the
    common reachable range."""
    weak = MziCouplerSpec(0.05, perimeter_main=L1, perimeter_aux=L1 / 2.0,
                          group_velocity=VG)
    strong = MziCouplerSpec(0.10, perimeter_main=L1, perimeter_aux=L1 / 2.0,
                            group_velocity=VG)
    for mu in [0.5e9, 1.5e9, 3.0e9]:
        f_weak = mzi_phase_for_mu(weak, mu).finesse
        f_strong = mzi_phase_for_mu(strong, mu).finesse
        assert f_weak > f_strong


def test_mzi_finesse_is_the_closed_form():
    """phi_h1 = arccos(sqrt(mu / mu_max)), so |d phi_h1 / d mu| =
    1 / (mu_max |sin 2 phi_h1|) inside the range and infinite at its ends."""
    mu_max = mzi_max_mu(MZI)
    for mu in [1e9, 5e9, 10e9, 20e9, 26e9]:
        phases = mzi_phase_for_mu(MZI, mu)
        want = 1.0 / (mu_max * abs(np.sin(2.0 * phases.phi_h1)))
        assert phases.finesse == pytest.approx(want, rel=1e-10, abs=0.0), mu
    assert mzi_phase_for_mu(MZI, 0.0).finesse == np.inf
    assert mzi_phase_for_mu(MZI, mu_max).finesse == np.inf


@pytest.mark.parametrize("k_prime", [0.0, 1.0])
def test_mzi_k_prime_outside_the_open_unit_interval_rejected(k_prime):
    with pytest.raises(ValueError, match="k_prime"):
        MziCouplerSpec(k_prime, L1, L1 / 2.0, VG)
