"""Configuration files: parsing and validation.

A device configuration is a YAML tree whose dimensioned leaves are
strings with explicit unit suffixes ("1215.07 THz", "75 ps", "0.0985
sqrtTHz", ...).  Bare numbers are rejected for dimensioned fields so a
file can never silently mix scales; dimensionless fields (tap
amplitudes, phases, grid sizes) are plain numbers.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np
import yaml

from .errors import ConfigError
from .phase_matching import DispersionModel
from .pulse_shaper import PumpSpec, Tap
from .resonator import MziCouplerSpec, ResonanceChain
from .units import parse_quantity

# libyaml's parser when pyyaml was built with it: the same safe schema,
# about 9x faster on a preset than the pure-Python one
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


PRESET_NAMES = ("bell_phi_minus", "mes_d3", "mes_d4", "separable")

_PRESET_DIR = os.path.join(os.path.dirname(__file__), "presets")

# the most points a signal/idler or pump grid may have: the separable
# preset's pump grid has 8192, while an 8192^2 JSA is already 1 GiB of
# complex128, of which simulate holds several, and its Schmidt
# eigensolve takes minutes; the size is checked before any grid is built
_GRID_MAX_POINTS = 8192


@dataclass(frozen=True)
class GridConfig:
    half_span: float        # rad/s, signal/idler grids
    n_points: int
    pump_half_span: float   # rad/s
    pump_points: int

    def __post_init__(self):
        if self.half_span <= 0 or self.pump_half_span <= 0:
            raise ConfigError("grid spans must be > 0")
        if self.n_points < 8 or self.pump_points < 8:
            raise ConfigError("grid sizes must be >= 8")
        for name in ("n_points", "pump_points"):
            size = getattr(self, name)
            if size > _GRID_MAX_POINTS:
                raise ConfigError(
                    f"grid.{name} must be <= {_GRID_MAX_POINTS}, got {size}"
                )


@dataclass(frozen=True)
class PgrConfig:
    n2: float          # m^2/W
    a_eff: float       # m^2
    avg_power: float   # W
    rep_rate: float    # Hz

    def __post_init__(self):
        for name in ("n2", "a_eff", "avg_power", "rep_rate"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"pgr.{name} must be > 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class TargetConfig:
    """Maximally entangled D-dimensional TFM target with alternating signs:
    sum_k c_k |k>_s |k>_i, c_k = (-1)^k / sqrt(D), in the Hermite-Gaussian
    mode basis of width sigma centred on the signal and idler grids."""

    dimension: int     # 1..4; 1 denotes the separable target
    sigma: float       # rad/s, HG basis width

    def __post_init__(self):
        if self.dimension < 1 or self.dimension > 4:
            raise ConfigError(
                f"key 'target.dimension' must be 1..4, got {self.dimension}"
            )
        if self.sigma <= 0:
            raise ConfigError(f"target.sigma must be > 0, got {self.sigma}")

    @property
    def coefficients(self) -> np.ndarray:
        d = self.dimension
        return np.array([(-1.0) ** k for k in range(d)]) / np.sqrt(d)


@dataclass(frozen=True)
class DeviceConfig:
    name: str
    target: TargetConfig
    pump: PumpSpec
    idler: ResonanceChain
    pump_resonance: ResonanceChain
    signal: ResonanceChain
    dispersion: DispersionModel
    grid: GridConfig
    pgr: PgrConfig
    mzi: Optional[MziCouplerSpec] = None


def _get(tree, key, context):
    if not isinstance(tree, dict) or key not in tree:
        raise ConfigError(f"missing config key '{context}{key}'")
    return tree[key]


def _quantity(tree, key, kind, context):
    return parse_quantity(_get(tree, key, context), kind, field=context + key)


def _number(tree, key, context):
    val = _get(tree, key, context)
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"key '{context}{key}' must be a number, got {val!r}")
    if not math.isfinite(val):
        raise ConfigError(f"key '{context}{key}' must be finite, got {val!r}")
    return float(val)


def _integer(tree, key, context):
    val = _number(tree, key, context)
    if not val.is_integer():
        raise ConfigError(f"key '{context}{key}' must be an integer, got {val!r}")
    return int(val)


def _chain(tree, label, kappa, perimeter, group_velocity, context):
    omega0 = _quantity(tree, "omega0", "angular_frequency", context)
    rates_raw = _get(tree, "decay_rates", context)
    if not isinstance(rates_raw, list) or not rates_raw:
        raise ConfigError(f"key '{context}decay_rates' must be a non-empty list")
    rates = tuple(
        parse_quantity(r, "angular_frequency", field=f"{context}decay_rates[{i}]")
        for i, r in enumerate(rates_raw)
    )
    couplings_raw = _get(tree, "couplings", context)
    if not isinstance(couplings_raw, list):
        raise ConfigError(f"key '{context}couplings' must be a list")
    couplings = tuple(
        parse_quantity(c, "angular_frequency", field=f"{context}couplings[{i}]")
        for i, c in enumerate(couplings_raw)
    )
    try:
        return ResonanceChain(
            omega0, rates, kappa, couplings, perimeter, group_velocity
        )
    except ValueError as exc:
        raise ConfigError(f"resonance '{label}': {exc}") from exc


def parse_config(tree: dict, name_hint: str = "") -> DeviceConfig:
    """Validate a parsed YAML tree and build the typed configuration."""
    if not isinstance(tree, dict):
        raise ConfigError("top level of the config must be a mapping")
    name = tree.get("name", name_hint or "unnamed")
    if not isinstance(name, str):
        raise ConfigError(f"key 'name' must be a string, got {name!r}")

    tc = _get(tree, "target", "")
    target = TargetConfig(
        _integer(tc, "dimension", "target."),
        _quantity(tc, "sigma", "angular_frequency", "target."),
    )

    pc = _get(tree, "pump", "")
    taps_raw = _get(pc, "taps", "pump.")
    if not isinstance(taps_raw, list) or not taps_raw:
        raise ConfigError("key 'pump.taps' must be a non-empty list")
    taps = []
    for i, t in enumerate(taps_raw):
        ctx = f"pump.taps[{i}]."
        try:
            taps.append(Tap(_number(t, "amplitude", ctx), _number(t, "phase", ctx)))
        except ValueError as exc:
            raise ConfigError(f"pump.taps[{i}]: {exc}") from exc
    try:
        pump = PumpSpec(
            sigma_p=_quantity(pc, "sigma_p", "angular_frequency", "pump."),
            carrier=_quantity(pc, "carrier", "angular_frequency", "pump."),
            taps=tuple(taps),
            base_delay=_quantity(pc, "base_delay", "time", "pump."),
            comb_alignment=_number(pc, "comb_alignment", "pump.")
            if "comb_alignment" in pc
            else 0.0,
        )
    except ValueError as exc:
        raise ConfigError(f"pump: {exc}") from exc

    rc = _get(tree, "resonator", "")
    kappa = _quantity(rc, "kappa", "sqrt_rate", "resonator.")
    perimeter = _quantity(rc, "perimeter", "length", "resonator.")
    group_velocity = _quantity(rc, "group_velocity", "speed", "resonator.")
    idler = _chain(
        _get(rc, "idler", "resonator."),
        "i", kappa, perimeter, group_velocity, "resonator.idler.",
    )
    pump_res = _chain(
        _get(rc, "pump", "resonator."),
        "p", kappa, perimeter, group_velocity, "resonator.pump.",
    )
    signal = _chain(
        _get(rc, "signal", "resonator."),
        "s", kappa, perimeter, group_velocity, "resonator.signal.",
    )

    dc = _get(tree, "dispersion", "")
    try:
        dispersion = DispersionModel(
            c1=_number(dc, "c1", "dispersion."),
            c2=_number(dc, "c2", "dispersion."),
            slope=_quantity(dc, "slope", "inverse_slope", "dispersion."),
            length=_quantity(dc, "length", "length", "dispersion."),
        )
    except ValueError as exc:
        raise ConfigError(f"dispersion: {exc}") from exc

    gc = _get(tree, "grid", "")
    grid = GridConfig(
        half_span=_quantity(gc, "half_span", "angular_frequency", "grid."),
        n_points=_integer(gc, "n_points", "grid."),
        pump_half_span=_quantity(gc, "pump_half_span", "angular_frequency", "grid."),
        pump_points=_integer(gc, "pump_points", "grid."),
    )

    pg = _get(tree, "pgr", "")
    pgr = PgrConfig(
        n2=_quantity(pg, "n2", "kerr_index", "pgr."),
        a_eff=_quantity(pg, "a_eff", "area", "pgr."),
        avg_power=_quantity(pg, "avg_power", "power", "pgr."),
        rep_rate=_quantity(pg, "rep_rate", "frequency_hz", "pgr."),
    )

    mzi = None
    if "mzi" in tree:
        mc = tree["mzi"]
        try:
            mzi = MziCouplerSpec(
                k_prime=_number(mc, "k_prime", "mzi."),
                perimeter_main=perimeter,
                perimeter_aux=_quantity(mc, "perimeter_aux", "length", "mzi."),
                group_velocity=group_velocity,
            )
        except ValueError as exc:
            raise ConfigError(f"mzi: {exc}") from exc

    return DeviceConfig(
        name=name,
        target=target,
        pump=pump,
        idler=idler,
        pump_resonance=pump_res,
        signal=signal,
        dispersion=dispersion,
        grid=grid,
        pgr=pgr,
        mzi=mzi,
    )


def load_config(path: str) -> DeviceConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            tree = yaml.load(fh, Loader=_YAML_LOADER)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not UTF-8 text: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path!r} is not valid YAML: {exc}") from exc
    name_hint = os.path.splitext(os.path.basename(path))[0]
    return parse_config(tree, name_hint=name_hint)


def preset_path(name: str) -> str:
    if name not in PRESET_NAMES:
        raise ConfigError(
            f"unknown preset {name!r} (available: {', '.join(PRESET_NAMES)})"
        )
    return os.path.join(_PRESET_DIR, name + ".yaml")


def load_preset(name: str) -> DeviceConfig:
    return load_config(preset_path(name))
