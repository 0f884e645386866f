"""Grids, fields, and the Hermite-Gaussian basis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from tfm_synth.errors import NumericalError
from tfm_synth.pulse_shaper import shaped_pump
from tfm_synth.spectral import (
    Field1D,
    SpectralGrid,
    hg_mode,
)

SIGMA = 6.0e9
GRID = SpectralGrid(0.0, 60e9, 2001)


def test_grid_samples_and_spacing():
    g = SpectralGrid(10.0, 5.0, 11)
    assert g.samples[0] == 5.0
    assert g.samples[-1] == 15.0
    assert g.spacing == pytest.approx(1.0)


def test_grid_validation():
    with pytest.raises(NumericalError):
        SpectralGrid(0.0, -1.0, 10)
    with pytest.raises(NumericalError):
        SpectralGrid(0.0, 1.0, 1)
    with pytest.raises(NumericalError):
        Field1D(SpectralGrid(0.0, 1.0, 4), np.ones(5))


def test_hg_orthonormality():
    """<f_m, f_n> = delta_mn to better than 1e-5 on an adequate grid."""
    modes = [hg_mode(n, GRID, SIGMA) for n in range(5)]
    for m in range(5):
        for n in range(5):
            ip = oracles.inner_product(modes[m], modes[n])
            expect = 1.0 if m == n else 0.0
            assert abs(ip - expect) < 1e-5, (m, n, ip)


def test_hg_ground_state_is_gaussian():
    f0 = hg_mode(0, GRID, SIGMA)
    x = GRID.samples / SIGMA
    expect = np.exp(-0.5 * x * x) / np.sqrt(np.sqrt(np.pi) * SIGMA)
    np.testing.assert_allclose(f0.values.real, expect, atol=1e-12)


def test_hg_parity():
    for n in range(5):
        f = hg_mode(n, GRID, SIGMA).values.real
        np.testing.assert_allclose(f, (-1.0) ** n * f[::-1], atol=1e-12)


def test_hg_sign_structure():
    """n-th mode has exactly n sign changes."""
    for n in range(5):
        f = hg_mode(n, GRID, SIGMA).values.real
        big = f[np.abs(f) > 1e-4 * np.max(np.abs(f))]
        changes = np.sum(np.abs(np.diff(np.sign(big))) > 1)
        assert changes == n


def test_hg_rejects_bad_order_and_sigma():
    with pytest.raises(ValueError):
        hg_mode(-1, GRID, SIGMA)
    with pytest.raises(ValueError):
        hg_mode(11, GRID, SIGMA)
    with pytest.raises(ValueError):
        hg_mode(0, GRID, -1.0)


def test_narrow_grid_warns_via_field():
    narrow = SpectralGrid(0.0, 0.5 * SIGMA, 64)
    f = hg_mode(0, narrow, SIGMA)
    assert f.warning is not None


def test_gaussian_envelope_width_convention():
    """The shaped pump's envelope at detuning sigma_p is 1/sqrt(e): the
    full width at sqrt(1/e) of the maximum is 2 sigma_p."""
    sigma_p = 25.0e9
    g = SpectralGrid(100.0e12, 100e9, 4001)
    env, _ = shaped_pump(
        (g.samples - 100.0e12) ** 2, sigma_p, np.ones(1), np.zeros(1),
        np.ones((1, g.n_points)),
    )
    at_sigma = np.interp(100.0e12 + sigma_p, g.samples, env)
    assert at_sigma == pytest.approx(np.exp(-0.5), rel=1e-6)
    assert np.max(np.abs(env)) == pytest.approx(1.0)


@given(
    center=st.floats(-1e12, 1e12),
    half=st.floats(1e9, 1e11),
    n=st.integers(2, 256),
)
@settings(max_examples=50, deadline=None)
def test_grid_endpoints_property(center, half, n):
    g = SpectralGrid(center, half, n)
    s = g.samples
    assert s[0] == pytest.approx(center - half, rel=1e-12, abs=1e-3)
    assert s[-1] == pytest.approx(center + half, rel=1e-12, abs=1e-3)
    assert len(s) == n


def test_inner_product_conjugate_linearity():
    g = SpectralGrid(0.0, 1.0, 64)
    rng = np.random.default_rng(3)
    a = Field1D(g, rng.normal(size=64) + 1j * rng.normal(size=64))
    b = Field1D(g, rng.normal(size=64) + 1j * rng.normal(size=64))
    assert oracles.inner_product(a, b) == pytest.approx(
        np.conj(oracles.inner_product(b, a))
    )
