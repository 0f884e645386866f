"""Joint spectral amplitude assembly.

The JSA of the ring-resonator SFWM source factorizes into three pieces:
an anti-diagonal pump function ADP(w_s + w_i) (self-convolution of the
resonance-filtered pump), a phase-matching function, and the rank-1
signal-idler filter TDSI(w_s, w_i) = l_s(w_s) l_i(w_i).  The linearized
PMF does not depend on the pump frequency, whatever c1 and c2, so the
pump integral reduces to ADP(w_s + w_i) times the PMF and the JSA is
assembled directly on the 2-D grid (fast path).  Only a tabulated
k(omega) makes the PMF depend on w_p; then the 1-D pump quadrature is
evaluated at every grid point (slow path).
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.signal import fftconvolve

from .phase_matching import DispersionModel, pmf, pmf_full
from .spectral import Field1D, Field2D, GridError, SpectralGrid


# alpha_p * l_p above this fraction of its peak at a grid edge truncates
# the self-convolution
_EDGE_THRESHOLD = 1e-4


class DegenerateFieldError(ValueError):
    """All-zero amplitude where a nonzero field is required."""


@dataclass(frozen=True)
class Jsa:
    """Joint spectral amplitude on a (signal, idler) grid pair.

    A real amplitude is stored as float64, anything else as complex.
    """

    grid_s: SpectralGrid
    grid_i: SpectralGrid
    amplitude: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        dtype = complex if np.iscomplexobj(self.amplitude) else float
        amp = np.asarray(self.amplitude, dtype=dtype)
        if amp.shape != (self.grid_s.n_points, self.grid_i.n_points):
            raise GridError(
                f"amplitude shape {amp.shape} does not match grids "
                f"({self.grid_s.n_points}, {self.grid_i.n_points})"
            )
        if not np.all(np.isfinite(amp)):
            raise GridError("JSA contains non-finite entries")
        object.__setattr__(self, "amplitude", amp)

    @property
    def cell_area(self) -> float:
        return self.grid_s.spacing * self.grid_i.spacing

    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.amplitude) ** 2) * self.cell_area)


def normalize(jsa: Jsa) -> Jsa:
    """Scale so that sum |F|^2 dw_s dw_i = 1."""
    n2 = jsa.norm_squared()
    if n2 == 0.0:
        raise DegenerateFieldError("cannot normalize an all-zero JSA")
    # the reciprocal rounds a real amplitude exactly as numpy's complex
    # division rounds the same values held as complex
    scale = 1.0 / np.sqrt(n2)
    return Jsa(jsa.grid_s, jsa.grid_i, jsa.amplitude * scale, normalized=True)


def _sum_grid(grid: SpectralGrid) -> SpectralGrid:
    """Grid of the self-convolution of samples on grid: 2n-1 points, same
    spacing, centered at twice the input center."""
    return SpectralGrid(2.0 * grid.center, 2.0 * grid.half_span, 2 * grid.n_points - 1)


def adp_model(grid: SpectralGrid, sums: np.ndarray):
    """The anti-diagonal pump function as a map alpha_p * l_p -> ADP(sums).

    The returned function self-convolves alpha_p * l_p samples on grid
    (grid quadrature weight included, so the result approximates the
    continuous convolution) and samples it at the absolute sum
    frequencies sums, linearly interpolated and zero beyond the
    sum-frequency grid.  It checks nothing, so the inverse fit can call
    it in its residual; compute_adp and compute_jsa check its input.
    """
    spacing = grid.spacing
    axis = _sum_grid(grid).samples

    def adp(apl: np.ndarray) -> np.ndarray:
        conv = fftconvolve(apl, apl, mode="full") * spacing
        return _interp_complex(sums, axis, conv)

    return adp


def _check_adp_input(values: np.ndarray, edge_threshold: float) -> str | None:
    """Reject an all-zero alpha_p * l_p; warn (and return the message)
    when it is not negligible at the grid edges."""
    peak = np.max(np.abs(values))
    if peak == 0.0:
        raise DegenerateFieldError("alpha_p * l_p is identically zero")
    edge = max(abs(values[0]), abs(values[-1]))
    if edge <= edge_threshold * peak:
        return None
    warning = (
        f"input not negligible at grid edges ({edge / peak:.3g} of peak); "
        "the self-convolution is truncated"
    )
    warnings.warn(warning)
    return warning


def compute_adp(
    pump_times_lp: Field1D, edge_threshold: float = _EDGE_THRESHOLD
) -> Field1D:
    """Anti-diagonal pump function: self-convolution of alpha_p * l_p.

    Returned on the sum-frequency grid (2n-1 points, same spacing,
    centered at twice the input center), where adp_model is exact.
    """
    values = pump_times_lp.values
    warning = _check_adp_input(values, edge_threshold)
    sum_grid = _sum_grid(pump_times_lp.grid)
    conv = adp_model(pump_times_lp.grid, sum_grid.samples)(values)
    return Field1D(sum_grid, conv, warning=warning)


def convolve_direct(pump_times_lp: Field1D) -> Field1D:
    """Direct-sum self-convolution; O(n^2) oracle for the FFT path."""
    values = pump_times_lp.values
    grid = pump_times_lp.grid
    conv = np.convolve(values, values, mode="full") * grid.spacing
    return Field1D(_sum_grid(grid), conv)


def compute_tdsi(l_s: Field1D, l_i: Field1D) -> Field2D:
    """Two-dimensional signal-idler filter: outer product l_s(w_s) l_i(w_i)."""
    return Field2D(l_s.grid, l_i.grid, np.outer(l_s.values, l_i.values))


def _interp_complex(x, xp, fp):
    real = np.interp(x, xp, fp.real, left=0.0, right=0.0)
    imag = np.interp(x, xp, fp.imag, left=0.0, right=0.0)
    return real + 1j * imag


def compute_jsa(
    pump: Field1D,
    l_p: Field1D,
    l_s: Field1D,
    l_i: Field1D,
    dispersion: DispersionModel,
    force_slow: bool = False,
) -> Jsa:
    """Assemble and normalize the JSA from its constituent spectra.

    pump and l_p must share one grid (the pump integration grid); l_s and
    l_i define the output grid.  Every linearized PMF takes the fast
    path, ADP(w_s + w_i) PMF(w_s, w_i) l_s l_i; a tabulated k(omega), or
    force_slow, takes the pump quadrature.
    """
    if pump.grid != l_p.grid:
        raise GridError("pump and l_p must share the same grid")
    grid_s, grid_i = l_s.grid, l_i.grid
    apl = pump.values * l_p.values
    omega_s = grid_s.samples
    omega_i = grid_i.samples
    d_s = (omega_s - grid_s.center)[:, None]
    d_i = (omega_i - grid_i.center)[None, :]
    sums = omega_s[:, None] + omega_i[None, :]
    tdsi = np.outer(l_s.values, l_i.values)

    if dispersion.k_of_omega is None and not force_slow:
        _check_adp_input(apl, _EDGE_THRESHOLD)
        pm = pmf(dispersion, d_s, d_i)
        amp = adp_model(pump.grid, sums)(apl) * pm * tdsi
    else:
        omega_p = pump.grid.samples
        dp = pump.grid.spacing
        amp = np.empty((grid_s.n_points, grid_i.n_points), dtype=complex)
        for j in range(grid_s.n_points):
            mirror = sums[j][:, None] - omega_p[None, :]
            apl_mirror = _interp_complex(mirror, omega_p, apl)
            if dispersion.k_of_omega is not None:
                pm_row = pmf_full(
                    dispersion, omega_p[None, :], omega_s[j], omega_i[:, None]
                )
            else:
                pm_row = pmf(dispersion, d_s[j, 0], d_i[0][:, None])
            amp[j] = np.sum(apl[None, :] * apl_mirror * pm_row, axis=1) * dp
        amp *= tdsi
    return normalize(Jsa(grid_s, grid_i, amp))


def antidiagonal_cut(jsa: Jsa, n_points: int | None = None):
    """Magnitude profile u -> |F(c_s + u/2, c_i + u/2)| through the center.

    u is the sum-frequency offset (w_s + w_i) - (c_s + c_i).  Bilinear
    interpolation between grid nodes.
    """
    span = 2.0 * min(jsa.grid_s.half_span, jsa.grid_i.half_span)
    if n_points is None:
        n_points = 2 * max(jsa.grid_s.n_points, jsa.grid_i.n_points) - 1
    u = np.linspace(-span, span, n_points)
    ws = jsa.grid_s.center + u / 2.0
    wi = jsa.grid_i.center + u / 2.0
    mag = _bilinear(np.abs(jsa.amplitude), jsa.grid_s, jsa.grid_i, ws, wi)
    return u, mag


def _bilinear(values, grid_s, grid_i, ws, wi):
    fs = (ws - grid_s.samples[0]) / grid_s.spacing
    fi = (wi - grid_i.samples[0]) / grid_i.spacing
    j0 = np.clip(np.floor(fs).astype(int), 0, grid_s.n_points - 2)
    k0 = np.clip(np.floor(fi).astype(int), 0, grid_i.n_points - 2)
    ts = np.clip(fs - j0, 0.0, 1.0)
    ti = np.clip(fi - k0, 0.0, 1.0)
    v00 = values[j0, k0]
    v10 = values[j0 + 1, k0]
    v01 = values[j0, k0 + 1]
    v11 = values[j0 + 1, k0 + 1]
    return (
        v00 * (1 - ts) * (1 - ti)
        + v10 * ts * (1 - ti)
        + v01 * (1 - ts) * ti
        + v11 * ts * ti
    )


def find_cut_minima(u, mag, prominence: float = 0.5):
    """Interior local minima of the cut profile that pass the prominence rule.

    A minimum qualifies if its magnitude is below ``prominence`` times the
    smaller of the two neighboring local maxima (grid edges count as
    maxima), which rejects shallow numerical ripples.
    """
    n = len(mag)
    minima = []
    for i in range(1, n - 1):
        if mag[i] < mag[i - 1] and mag[i] <= mag[i + 1]:
            left_max = np.max(mag[: i + 1])
            right_max = np.max(mag[i:])
            if mag[i] < prominence * min(left_max, right_max):
                # parabolic refinement keeps the location stable under
                # changes of grid resolution
                denom = mag[i + 1] - 2.0 * mag[i] + mag[i - 1]
                shift = 0.0
                if denom > 0:
                    shift = 0.5 * (mag[i - 1] - mag[i + 1]) / denom
                    shift = float(np.clip(shift, -0.5, 0.5))
                minima.append(u[i] + shift * (u[i] - u[i - 1]))
    return minima


def impose_pi_phase(jsa: Jsa, prominence: float = 0.5) -> Jsa:
    """Impose a pi phase flip at each magnitude minimum along the anti-diagonal.

    The flips are constant along anti-diagonals: the field is multiplied by
    (-1)^(number of detected minima below w_s + w_i).  Within the single
    grid cell containing a minimum the sign crosses zero linearly, which
    reproduces the node of the field there and keeps the Schmidt spectrum
    stable under grid refinement.  With no detected minima this is the
    identity.
    """
    u, mag = antidiagonal_cut(jsa)
    minima = find_cut_minima(u, mag, prominence=prominence)
    if not minima:
        return jsa
    sum0 = jsa.grid_s.center + jsa.grid_i.center
    sums = (
        jsa.grid_s.samples[:, None] + jsa.grid_i.samples[None, :] - sum0
    )
    cell = jsa.grid_s.spacing + jsa.grid_i.spacing
    signs = np.ones_like(sums)
    for u_min in minima:
        signs *= -np.clip((sums - u_min) / cell, -1.0, 1.0)
    return Jsa(jsa.grid_s, jsa.grid_i, jsa.amplitude * signs, jsa.normalized)


# ---------------------------------------------------------------------------
# export

def save_jsa_csv(jsa: Jsa, path: str) -> None:
    """CSV rows (omega_s, omega_i, Re F, Im F), signal-major order."""
    ws = jsa.grid_s.samples
    wi = jsa.grid_i.samples
    with open(path, "w") as fh:
        fh.write("omega_s_rad_per_s,omega_i_rad_per_s,re_f,im_f\n")
        for j in range(jsa.grid_s.n_points):
            for k in range(jsa.grid_i.n_points):
                v = jsa.amplitude[j, k]
                fh.write(f"{ws[j]:.9g},{wi[k]:.9g},{v.real:.9g},{v.imag:.9g}\n")


def save_jsa_binary(jsa: Jsa, bin_path: str, sidecar_path: str) -> None:
    """Raw dump: little-endian float64 (re, im) pairs, row-major over
    (idler, signal) so the signal index varies fastest; JSON sidecar
    carries the grids and layout."""
    interleaved = np.empty((jsa.grid_i.n_points, jsa.grid_s.n_points, 2))
    interleaved[:, :, 0] = jsa.amplitude.real.T
    interleaved[:, :, 1] = jsa.amplitude.imag.T
    interleaved.astype("<f8").tofile(bin_path)
    sidecar = {
        "dtype": "<f8",
        "layout": "row-major (idler, signal, re/im); signal index fastest",
        "shape": [jsa.grid_i.n_points, jsa.grid_s.n_points, 2],
        "normalized": jsa.normalized,
        "units": "rad/s",
        "grid_signal": {
            "center": jsa.grid_s.center,
            "half_span": jsa.grid_s.half_span,
            "n_points": jsa.grid_s.n_points,
        },
        "grid_idler": {
            "center": jsa.grid_i.center,
            "half_span": jsa.grid_i.half_span,
            "n_points": jsa.grid_i.n_points,
        },
    }
    with open(sidecar_path, "w") as fh:
        json.dump(sidecar, fh, indent=2)


def load_jsa_binary(bin_path: str, sidecar_path: str) -> Jsa:
    with open(sidecar_path) as fh:
        meta = json.load(fh)
    shape = tuple(meta["shape"])
    raw = np.fromfile(bin_path, dtype="<f8").reshape(shape)
    amp = (raw[:, :, 0] + 1j * raw[:, :, 1]).T
    gs = meta["grid_signal"]
    gi = meta["grid_idler"]
    return Jsa(
        SpectralGrid(gs["center"], gs["half_span"], gs["n_points"]),
        SpectralGrid(gi["center"], gi["half_span"], gi["n_points"]),
        amp,
        normalized=meta["normalized"],
    )
