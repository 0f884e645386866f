"""JSA assembly, anti-diagonal machinery, and export formats."""

import numpy as np
import pytest

from tfm_synth.jsa import (
    DegenerateFieldError,
    Jsa,
    antidiagonal_cut,
    compute_adp,
    compute_jsa,
    compute_tdsi,
    convolve_direct,
    find_cut_minima,
    impose_pi_phase,
    load_jsa_binary,
    normalize,
    save_jsa_binary,
    save_jsa_csv,
)
from tfm_synth.phase_matching import DispersionModel
from tfm_synth.spectral import Field1D, SpectralGrid, hg_mode

S0 = 1215.70e12
I0 = 1214.45e12
P0 = 1215.075e12


def gaussian_field(grid, center, sigma):
    d = grid.samples - center
    return Field1D(grid, np.exp(-(d * d) / (2.0 * sigma * sigma)))


def test_normalize_unit_l2():
    g = SpectralGrid(0.0, 10.0, 64)
    jsa = Jsa(g, g, np.random.default_rng(0).normal(size=(64, 64)))
    n = normalize(jsa)
    assert n.norm_squared() == pytest.approx(1.0, rel=1e-12)
    assert n.normalized
    with pytest.raises(DegenerateFieldError):
        normalize(Jsa(g, g, np.zeros((64, 64))))


def test_adp_fft_matches_direct():
    """fftconvolve path against the O(n^2) direct sum, to 1e-10."""
    grid = SpectralGrid(P0, 250e9, 512)
    rng = np.random.default_rng(7)
    env = gaussian_field(grid, P0, 30e9).values
    noise = rng.normal(size=512) + 1j * rng.normal(size=512)
    f = Field1D(grid, env * noise)
    fast = compute_adp(f)
    slow = convolve_direct(f)
    scale = np.max(np.abs(slow.values))
    np.testing.assert_allclose(fast.values, slow.values, atol=1e-10 * scale)
    assert fast.grid == slow.grid


def test_adp_gaussian_closed_form():
    """Self-convolution of a Gaussian doubles the variance:
    conv has width sigma sqrt(2) and peak sigma sqrt(pi)."""
    sigma = 20e9
    grid = SpectralGrid(P0, 300e9, 4096)
    adp = compute_adp(gaussian_field(grid, P0, sigma))
    u = adp.grid.samples - 2.0 * P0
    expect = sigma * np.sqrt(np.pi) * np.exp(-(u * u) / (4.0 * sigma * sigma))
    np.testing.assert_allclose(adp.values.real, expect, rtol=1e-3, atol=1e-4 * expect.max())


def test_adp_warns_on_truncation():
    grid = SpectralGrid(P0, 30e9, 256)
    with pytest.warns(UserWarning, match="truncated"):
        compute_adp(gaussian_field(grid, P0, 100e9))


def test_adp_rejects_zero_input():
    grid = SpectralGrid(P0, 30e9, 64)
    with pytest.raises(DegenerateFieldError):
        compute_adp(Field1D(grid, np.zeros(64)))


def test_tdsi_outer_product():
    gs = SpectralGrid(S0, 50e9, 32)
    gi = SpectralGrid(I0, 50e9, 48)
    a = gaussian_field(gs, S0, 10e9)
    b = gaussian_field(gi, I0, 15e9)
    t = compute_tdsi(a, b)
    assert t.values.shape == (32, 48)
    np.testing.assert_allclose(
        t.values, np.outer(a.values, b.values), atol=1e-15
    )


def _assemble(force_slow, c2=-1.0):
    # grids commensurate with the pump grid: output sum frequencies land
    # on the self-convolution axis and the mirror points on pump nodes,
    # so both paths evaluate the same discrete quadrature
    pump_grid = SpectralGrid(P0, 200e9, 1025)
    spacing = 2.0 * 200e9 / 1024
    half = 32.0 * spacing
    gs = SpectralGrid(S0, half, 65)
    gi = SpectralGrid(I0, half, 65)
    pump = gaussian_field(pump_grid, P0, 25e9)
    l_p = Field1D(
        pump_grid,
        1.0 / (1j * (pump_grid.samples - P0) + 8e9),
    )
    l_s = Field1D(gs, 1.0 / (1j * (gs.samples - S0) + 6e9))
    l_i = Field1D(gi, 1.0 / (1j * (gi.samples - I0) + 6e9))
    disp = DispersionModel(c1=1.0, c2=c2, slope=1e-9, length=7.2e-4)
    return compute_jsa(pump, l_p, l_s, l_i, disp, force_slow=force_slow)


def test_fast_and_slow_paths_agree():
    """ADP-interpolation path against row-wise pump quadrature, 1e-8."""
    fast = _assemble(False)
    slow = _assemble(True)
    scale = np.max(np.abs(fast.amplitude))
    np.testing.assert_allclose(
        fast.amplitude, slow.amplitude, atol=1e-8 * scale
    )


@pytest.mark.parametrize("c2", [-0.5, -0.8, -1.3])
def test_fast_path_exact_for_asymmetric_linear_pmf(c2):
    """A linear PMF with c1 != -c2 is still independent of w_p, so the
    ADP route equals the pump quadrature."""
    fast = _assemble(False, c2)
    slow = _assemble(True, c2)
    scale = np.max(np.abs(fast.amplitude))
    np.testing.assert_allclose(
        fast.amplitude, slow.amplitude, atol=1e-8 * scale
    )


def test_jsa_grid_mismatch_rejected():
    pump_grid = SpectralGrid(P0, 200e9, 256)
    other = SpectralGrid(P0, 100e9, 256)
    pump = gaussian_field(pump_grid, P0, 25e9)
    l_p = gaussian_field(other, P0, 25e9)
    gs = SpectralGrid(S0, 40e9, 16)
    l_s = gaussian_field(gs, S0, 10e9)
    disp = DispersionModel()
    with pytest.raises(Exception, match="grid"):
        compute_jsa(pump, l_p, l_s, l_s, disp)


def test_antidiagonal_cut_of_sum_function():
    """For F depending only on w_s + w_i the cut reproduces it exactly."""
    gs = SpectralGrid(S0, 50e9, 129)
    gi = SpectralGrid(I0, 50e9, 129)
    sums = gs.samples[:, None] + gi.samples[None, :]
    sigma = 30e9
    amp = np.exp(-((sums - (S0 + I0)) ** 2) / (2.0 * sigma * sigma))
    jsa = normalize(Jsa(gs, gi, amp))
    u, mag = antidiagonal_cut(jsa)
    peak = np.max(np.abs(jsa.amplitude))
    expect = peak * np.exp(-(u * u) / (2.0 * sigma * sigma))
    # even cut samples coincide with grid nodes and are exact; odd
    # samples carry the bilinear interpolation error
    np.testing.assert_allclose(mag[::2], expect[::2], atol=1e-12 * peak)
    np.testing.assert_allclose(mag, expect, atol=2e-3 * peak)


def test_find_cut_minima_prominent_node():
    u = np.linspace(-1.0, 1.0, 2001)
    mag = np.abs(u)                     # sharp node at zero
    minima = find_cut_minima(u, mag)
    assert len(minima) == 1
    assert abs(minima[0]) < 2e-3


def test_find_cut_minima_rejects_shallow_ripple():
    u = np.linspace(-1.0, 1.0, 2001)
    mag = 1.0 + 0.05 * np.cos(8.0 * np.pi * u)
    assert find_cut_minima(u, mag) == []


def test_impose_pi_phase_identity_without_minima():
    gs = SpectralGrid(S0, 50e9, 65)
    gi = SpectralGrid(I0, 50e9, 65)
    f0s = hg_mode(0, gs, S0, 10e9).values
    f0i = hg_mode(0, gi, I0, 10e9).values
    jsa = normalize(Jsa(gs, gi, np.outer(f0s, f0i)))
    out = impose_pi_phase(jsa)
    np.testing.assert_allclose(out.amplitude, jsa.amplitude, atol=1e-15)


def test_impose_pi_phase_recovers_sum_coordinate_node():
    """A field with a sign change across one anti-diagonal is recovered
    (up to global sign) from its magnitude."""
    sigma = 12e9
    gs = SpectralGrid(S0, 50e9, 257)
    gi = SpectralGrid(I0, 50e9, 257)
    sums = gs.samples[:, None] + gi.samples[None, :] - (S0 + I0)
    d_s = (gs.samples - S0)[:, None]
    d_i = (gi.samples - I0)[None, :]
    signed = (
        sums
        * np.exp(-(sums**2) / (4.0 * sigma * sigma))
        * np.exp(-(d_s**2 + d_i**2) / (2.0 * sigma * sigma))
    )
    reference = normalize(Jsa(gs, gi, signed))
    out = impose_pi_phase(normalize(Jsa(gs, gi, np.abs(signed))))
    cell = gs.spacing * gi.spacing
    overlap = np.sum(np.conj(reference.amplitude) * out.amplitude) * cell
    assert abs(overlap) > 0.999


def test_save_load_binary_round_trip(tmp_path):
    gs = SpectralGrid(S0, 40e9, 33)
    gi = SpectralGrid(I0, 40e9, 17)
    rng = np.random.default_rng(5)
    jsa = normalize(
        Jsa(gs, gi, rng.normal(size=(33, 17)) + 1j * rng.normal(size=(33, 17)))
    )
    bin_path = tmp_path / "jsa.bin"
    meta_path = tmp_path / "jsa.json"
    save_jsa_binary(jsa, str(bin_path), str(meta_path))
    back = load_jsa_binary(str(bin_path), str(meta_path))
    np.testing.assert_allclose(back.amplitude, jsa.amplitude, atol=0)
    assert back.grid_s == jsa.grid_s
    assert back.grid_i == jsa.grid_i
    assert back.normalized


def test_save_csv_layout(tmp_path):
    gs = SpectralGrid(S0, 40e9, 4)
    gi = SpectralGrid(I0, 40e9, 3)
    jsa = Jsa(gs, gi, np.arange(12, dtype=float).reshape(4, 3))
    path = tmp_path / "jsa.csv"
    save_jsa_csv(jsa, str(path))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "omega_s_rad_per_s,omega_i_rad_per_s,re_f,im_f"
    assert len(lines) == 1 + 12
    first = lines[1].split(",")
    assert float(first[2]) == 0.0 and float(first[3]) == 0.0
