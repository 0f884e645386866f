"""Phase mismatch model and PMF."""

import numpy as np
import pytest

from tfm_synth.phase_matching import DispersionModel, delta_k_linear, pmf


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


def test_validation():
    with pytest.raises(ValueError):
        DispersionModel(length=0.0)
    with pytest.raises(ValueError):
        DispersionModel(c1=0.0, c2=0.0)
