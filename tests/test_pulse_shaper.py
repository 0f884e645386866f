"""FIR pump shaper oracles and properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfm_synth.pulse_shaper import (
    DegenerateInputError,
    PumpSpec,
    Tap,
    fir_response,
    make_taps,
    shaped_pump,
)
from tfm_synth.spectral import SpectralGrid

TAU = 75e-12
CARRIER = 1215.075e12


def spec_with(amplitudes, phases, theta=0.0, sigma_p=25e9):
    return PumpSpec(
        sigma_p=sigma_p,
        carrier=CARRIER,
        taps=make_taps(amplitudes, phases),
        base_delay=TAU,
        comb_alignment=theta,
    )


def test_tap_amplitude_bounds():
    Tap(0.0, 1.0)
    Tap(1.0, -3.0)
    with pytest.raises(ValueError):
        Tap(1.01, 0.0)
    with pytest.raises(ValueError):
        Tap(-0.1, 0.0)


def test_all_zero_taps_rejected():
    spec = spec_with([0.0, 0.0], [0.0, 0.0])
    with pytest.raises(DegenerateInputError):
        fir_response(spec, SpectralGrid(CARRIER, 100e9, 64))


def test_single_tap_flat_magnitude():
    spec = spec_with([0.7], [1.2])
    grid = SpectralGrid(CARRIER, 100e9, 257)
    h = fir_response(spec, grid).values
    np.testing.assert_allclose(np.abs(h), 0.7, atol=1e-14)


def test_two_tap_closed_form():
    """|H|^2 = a1^2 + a2^2 + 2 a1 a2 cos(phi2 - phi1 + theta - delta tau)
    for two adjacent taps, to 1e-10."""
    a1, a2 = 0.8, 0.5
    p1, p2 = 0.3, 2.1
    theta = 0.7
    spec = spec_with([a1, a2], [p1, p2], theta=theta)
    grid = SpectralGrid(CARRIER, 100e9, 1025)
    h = fir_response(spec, grid).values
    delta = grid.samples - CARRIER
    expect = (
        a1 * a1
        + a2 * a2
        + 2.0 * a1 * a2 * np.cos(p2 - p1 + theta - delta * TAU)
    )
    np.testing.assert_allclose(np.abs(h) ** 2, expect, atol=1e-10)


def test_periodicity():
    """H is periodic in detuning with period 2 pi / tau, to 1e-10."""
    spec = spec_with(
        [0.216, 0.805, 0.123, 0.995, 0.754, 0.523],
        [1.590, 1.187, 2.670, 4.860, 1.108, 6.282],
        theta=0.297,
    )
    period = 2.0 * np.pi / TAU
    delta = np.linspace(-period, period, 401)
    grid_a = SpectralGrid(CARRIER, period, 401)
    shifted = SpectralGrid(CARRIER + period, period, 401)
    h_a = fir_response(spec, grid_a).values
    h_b = fir_response(spec, shifted).values
    np.testing.assert_allclose(h_a, h_b, atol=1e-10 * np.max(np.abs(h_a)))
    assert delta.shape == h_a.shape


def test_response_matches_per_tap_sum():
    """The phasor-matrix product against the per-tap sum
    sum_n alpha_n exp[i (phi_n + n theta - n delta tau)], to 1e-12."""
    amps = [0.216, 0.805, 0.123, 0.995, 0.754, 0.523]
    phases = [1.590, 1.187, 2.670, 4.860, 1.108, 6.282]
    theta = 0.297
    grid = SpectralGrid(CARRIER, 300e9, 2048)
    delta = grid.samples - CARRIER
    expect = sum(
        a * np.exp(1j * (p + n * (theta - delta * TAU)))
        for n, (a, p) in enumerate(zip(amps, phases), start=1)
    )
    h = fir_response(spec_with(amps, phases, theta=theta), grid).values
    np.testing.assert_allclose(h, expect, rtol=0.0, atol=1e-12)


def test_magnitude_bounded_by_tap_sum():
    spec = spec_with([0.9, 0.4, 0.6], [0.1, 2.0, 4.0])
    grid = SpectralGrid(CARRIER, 300e9, 2048)
    h = fir_response(spec, grid).values
    assert np.max(np.abs(h)) <= 0.9 + 0.4 + 0.6 + 1e-12


@given(
    shift=st.floats(0.0, 2.0 * np.pi),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=30, deadline=None)
def test_global_phase_invariance(shift, seed):
    """Adding a constant to every tap phase changes H by a global phase
    only: |H| is invariant."""
    rng = np.random.default_rng(seed)
    amps = rng.uniform(0.1, 1.0, 4)
    phases = rng.uniform(0.0, 2.0 * np.pi, 4)
    grid = SpectralGrid(CARRIER, 150e9, 257)
    h0 = fir_response(spec_with(amps, phases), grid).values
    h1 = fir_response(spec_with(amps, phases + shift), grid).values
    np.testing.assert_allclose(np.abs(h0), np.abs(h1), atol=1e-10)


def test_shaped_pump_is_envelope_times_response():
    spec = spec_with([0.8, 0.5], [0.0, 1.0])
    grid = SpectralGrid(CARRIER, 120e9, 513)
    pump = shaped_pump(spec, grid).values
    h = fir_response(spec, grid).values
    delta = grid.samples - CARRIER
    env = np.exp(-(delta**2) / (2.0 * spec.sigma_p**2))
    np.testing.assert_allclose(pump, env * h, atol=1e-14)


def test_comb_alignment_shifts_comb():
    """theta advances tap n by n theta: equivalent to translating the
    comb by theta / tau in detuning."""
    amps = [0.6, 0.9, 0.3]
    phases = [0.2, 1.4, 3.3]
    theta = 0.8
    grid = SpectralGrid(CARRIER, 100e9, 1001)
    h_theta = fir_response(spec_with(amps, phases, theta=theta), grid).values
    shifted_grid = SpectralGrid(CARRIER - theta / TAU, 100e9, 1001)
    h_shift = fir_response(spec_with(amps, phases, theta=0.0), shifted_grid).values
    np.testing.assert_allclose(h_theta, h_shift, atol=1e-9)
