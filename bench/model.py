"""The device model, written again from its documented equations.

The checks in checks.py compare tfm_synth's outputs against these
functions, so nothing here imports tfm_synth.  Config trees are the
parsed YAML dictionaries the benchmark writes; only the unit suffixes
the presets use are understood.

Equations (all angular frequencies in rad/s):

- shaped pump   alpha(w) = exp(-d^2 / 2 sigma_p^2)
                           * sum_n a_n exp(i (phi_n + n (theta - d tau))),
                d = w - carrier, n = 1..N;
- ring chain    l(w) = sqrt(v_g / L) * (-i kappa / D_1(w)), where
                D_M = i (w - w0) + r_M and
                D_m = i (w - w0) + r_m + mu_m^2 / D_{m+1};
- phase match   x = L_pm s (c1 (w_s - w_s0) + c2 (w_i - w_i0)) / 2,
                PMF = sinc(x) exp(i x);
- JSA           F(w_s, w_i) = l_s(w_s) l_i(w_i) PMF
                * sum_p alpha(w_p) l_p(w_p) alpha(S - w_p) l_p(S - w_p) dw_p
                with S = w_s + w_i and w_p on the uniform pump grid; terms
                whose mirror frequency S - w_p leaves the grid are zero;
- HG modes      f_n(d) = (2^n n! sqrt(pi) sigma)^(-1/2) H_n(d / sigma)
                         exp(-d^2 / 2 sigma^2).
"""

from __future__ import annotations

import math

import numpy as np

_UNITS = {
    "THz": 1e12,
    "GHz": 1e9,
    "sqrtTHz": 1e6,
    "ps": 1e-12,
    "m": 1.0,
    "m/s": 1.0,
    "s/(rad m)": 1.0,
}


def quantity(raw) -> float:
    """'7.26 GHz' -> 7.26e9 in the canonical unit of its kind."""
    value, unit = str(raw).split(None, 1)
    return float(value) * _UNITS[unit.strip()]


def _chain(tree: dict, res: dict) -> dict:
    return {
        "omega0": quantity(tree["omega0"]),
        "rates": [quantity(r) for r in tree["decay_rates"]],
        "mus": [quantity(m) for m in tree["couplings"]],
        "kappa": quantity(res["kappa"]),
        "scale": math.sqrt(
            quantity(res["group_velocity"]) / quantity(res["perimeter"])
        ),
    }


def device(tree: dict) -> dict:
    """Numbers of a config tree in canonical units."""
    pump, res, disp, grid = (
        tree["pump"], tree["resonator"], tree["dispersion"], tree["grid"]
    )
    return {
        "dimension": int(tree["target"]["dimension"]),
        "hg_sigma": quantity(tree["target"]["sigma"]),
        "sigma_p": quantity(pump["sigma_p"]),
        "carrier": quantity(pump["carrier"]),
        "tau": quantity(pump["base_delay"]),
        "theta": float(pump.get("comb_alignment", 0.0)),
        "amps": np.array([float(t["amplitude"]) for t in pump["taps"]]),
        "phases": np.array([float(t["phase"]) for t in pump["taps"]]),
        "pump_chain": _chain(res["pump"], res),
        "signal": _chain(res["signal"], res),
        "idler": _chain(res["idler"], res),
        "c1": float(disp["c1"]),
        "c2": float(disp["c2"]),
        "pm_scale": 0.5 * quantity(disp["length"]) * quantity(disp["slope"]),
        "pump_half_span": quantity(grid["pump_half_span"]),
        "pump_points": int(grid["pump_points"]),
    }


def enhancement(chain: dict, omega) -> np.ndarray:
    """Field enhancement l(w) of a coupled-ring chain (continued fraction)."""
    det = 1j * (np.asarray(omega, dtype=float) - chain["omega0"])
    d = det + chain["rates"][-1]
    for rate, mu in zip(chain["rates"][-2::-1], chain["mus"][::-1]):
        d = det + rate + mu * mu / d
    return chain["scale"] * (-1j * chain["kappa"] / d)


def shaped_pump(dev: dict, omega) -> np.ndarray:
    d = np.asarray(omega, dtype=float) - dev["carrier"]
    comb = np.zeros(d.shape, dtype=complex)
    for n, (a, phi) in enumerate(zip(dev["amps"], dev["phases"]), start=1):
        comb += a * np.exp(1j * (phi + n * (dev["theta"] - d * dev["tau"])))
    return np.exp(-d * d / (2.0 * dev["sigma_p"] ** 2)) * comb


def pump_grid(dev: dict) -> np.ndarray:
    half = dev["pump_half_span"]
    return np.linspace(
        dev["carrier"] - half, dev["carrier"] + half, dev["pump_points"]
    )


def jsa_at(dev: dict, omega_s, omega_i) -> np.ndarray:
    """Unnormalized F at paired points, by the direct pump-integral sum."""
    omega_s = np.asarray(omega_s, dtype=float)
    omega_i = np.asarray(omega_i, dtype=float)
    wp = pump_grid(dev)
    dwp = wp[1] - wp[0]
    apl = shaped_pump(dev, wp) * enhancement(dev["pump_chain"], wp)
    mirror = (omega_s + omega_i)[:, None] - wp[None, :]
    inside = (mirror >= wp[0]) & (mirror <= wp[-1])
    apl_mirror = shaped_pump(dev, mirror) * enhancement(dev["pump_chain"], mirror)
    integral = np.sum(np.where(inside, apl[None, :] * apl_mirror, 0.0), axis=1) * dwp
    x = dev["pm_scale"] * (
        dev["c1"] * (omega_s - dev["signal"]["omega0"])
        + dev["c2"] * (omega_i - dev["idler"]["omega0"])
    )
    pmf = np.sinc(x / np.pi) * np.exp(1j * x)
    return (
        enhancement(dev["signal"], omega_s)
        * enhancement(dev["idler"], omega_i)
        * pmf
        * integral
    )


def hg_modes(n_modes: int, omega, center: float, sigma: float) -> np.ndarray:
    """Rows f_0..f_{n_modes-1} on the samples, by the Hermite recurrence."""
    x = (np.asarray(omega, dtype=float) - center) / sigma
    modes = np.empty((n_modes, x.size))
    modes[0] = np.exp(-0.5 * x * x) / math.sqrt(math.sqrt(math.pi) * sigma)
    if n_modes > 1:
        modes[1] = math.sqrt(2.0) * x * modes[0]
    for n in range(1, n_modes - 1):
        modes[n + 1] = (
            math.sqrt(2.0 / (n + 1)) * x * modes[n]
            - math.sqrt(n / (n + 1)) * modes[n - 1]
        )
    return modes
