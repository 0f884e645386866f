"""Spectral grids, the complex field container, and the Hermite-Gaussian basis.

All angular frequencies are in rad/s.  Grids are uniform; integrals are
evaluated with the rectangle rule, which is spectrally accurate for the
smooth, compactly supported functions handled here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermval

from .errors import NumericalError


@dataclass(frozen=True)
class SpectralGrid:
    """Uniform 1-D angular-frequency grid, center +/- half_span."""

    center: float
    half_span: float
    n_points: int

    def __post_init__(self):
        if self.n_points < 2:
            raise NumericalError(f"n_points must be >= 2, got {self.n_points}")
        if not np.isfinite(self.center) or not np.isfinite(self.half_span):
            raise NumericalError("grid bounds must be finite")
        if self.half_span <= 0:
            raise NumericalError(f"half_span must be > 0, got {self.half_span}")

    @property
    def samples(self) -> np.ndarray:
        return np.linspace(
            self.center - self.half_span, self.center + self.half_span, self.n_points
        )

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_span / (self.n_points - 1)


@dataclass(frozen=True)
class Field1D:
    """Complex samples of a spectral function on a SpectralGrid."""

    grid: SpectralGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if values.shape != (self.grid.n_points,):
            raise NumericalError(
                f"values shape {values.shape} does not match grid "
                f"({self.grid.n_points},)"
            )
        if not np.all(np.isfinite(values)):
            raise NumericalError("field contains non-finite entries")
        object.__setattr__(self, "values", values)


def hg_mode(n: int, grid: SpectralGrid, sigma: float) -> Field1D:
    """n-th order spectral Hermite-Gaussian mode centred on grid, of unit
    L2 norm on the real line (on a grid too narrow or too coarse for it
    the sampled norm differs, which project_to_tfm reports).

    f_n(d) = (2^n n! sqrt(pi) sigma)^(-1/2) H_n(d/sigma) exp(-d^2 / 2 sigma^2)
    with d = omega - grid.center.  Real-valued; the sign structure carries
    the pi phase information, so the signed values are stored as-is.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    if n < 0 or n > 10:
        raise ValueError(f"mode order must be in 0..10, got {n}")
    x = (grid.samples - grid.center) / sigma
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    norm = 1.0 / np.sqrt(float(math.factorial(n)) * 2.0**n * np.sqrt(np.pi) * sigma)
    values = norm * hermval(x, coeffs) * np.exp(-0.5 * x * x)
    return Field1D(grid, values)
