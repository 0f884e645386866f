"""Phase mismatch model and PMF."""

import numpy as np
import pytest

from tfm_synth.phase_matching import (
    DispersionModel,
    delta_k_full,
    delta_k_linear,
    orientation_angle,
    pmf,
    pmf_full,
)


def test_zero_detuning_is_phase_matched():
    m = DispersionModel(length=1e-3)
    assert delta_k_linear(m, 0.0, 0.0) == 0.0
    assert pmf(m, 0.0, 0.0) == pytest.approx(1.0)


def test_linear_mismatch_values():
    m = DispersionModel(c1=1.0, c2=-1.0, slope=1e-9, length=1e-3)
    assert delta_k_linear(m, 2e9, -1e9) == pytest.approx(3.0)
    assert delta_k_linear(m, 1e9, 1e9) == pytest.approx(0.0)


def test_pmf_sinc_oracle():
    """PMF = sinc(x) e^{ix} with x = L dk / 2 against direct evaluation."""
    m = DispersionModel(c1=1.0, c2=-1.0, slope=1e-9, length=7.17791089e-4)
    ds = np.linspace(-56e9, 56e9, 101)
    di = np.linspace(-56e9, 56e9, 101)[::-1]
    x = 0.5 * m.length * m.slope * (ds - di)
    got = pmf(m, ds, di)
    expect = np.where(
        x == 0.0, 1.0, np.sin(x) / np.where(x == 0.0, 1.0, x)
    ) * np.exp(1j * x)
    np.testing.assert_allclose(got, expect, atol=1e-12)


def test_pmf_magnitude_bounded():
    m = DispersionModel(slope=1e-6, length=1e-2)
    vals = pmf(m, np.linspace(-1e11, 1e11, 999), 0.0)
    assert np.max(np.abs(vals)) <= 1.0 + 1e-12


def test_full_dispersion_reduces_to_energy_conservation():
    """With k(w) linear in w, all four wavevector terms cancel."""
    m = DispersionModel(k_of_omega=lambda w: 5e-9 * np.asarray(w), length=1e-3)
    dk = delta_k_full(m, 1215.075e12, 1215.70e12, 1214.45e12)
    assert dk == pytest.approx(0.0, abs=1e-6)
    assert pmf_full(m, 1215.075e12, 1215.70e12, 1214.45e12) == pytest.approx(1.0)


def test_full_dispersion_nonlinear_shift():
    m = DispersionModel(
        k_of_omega=lambda w: 0.0 * np.asarray(w),
        gamma0=2.0,
        peak_power=0.5,
        length=1e-3,
    )
    assert delta_k_full(m, 1.0, 1.0, 1.0) == pytest.approx(-1.0)


def test_orientation_angle():
    assert orientation_angle(1.0, -1.0) == pytest.approx(45.0)
    assert orientation_angle(1.0, 1.0) == pytest.approx(-45.0)
    with pytest.warns(UserWarning):
        assert orientation_angle(1.0, 0.0) == pytest.approx(-90.0)


def test_validation():
    with pytest.raises(ValueError):
        DispersionModel(length=0.0)
    with pytest.raises(ValueError):
        DispersionModel(c1=0.0, c2=0.0)
