"""Unit parsing and conversion to canonical internal units.

Canonical units: angular frequency in rad/s, time in s, length in m,
speed in m/s, power in W, ordinary (cycle) frequency in Hz.

Config files carry dimensioned values as strings with explicit unit
suffixes, e.g. ``"7.26 GHz"`` or ``"75 ps"``.  Spectral THz/GHz suffixes
denote 1e12 and 1e9 rad/s respectively, matching the convention used for
the device parameter tables; cycle-frequency fields (repetition rate)
use Hz-family units instead.
"""

from __future__ import annotations

import math

from .errors import ConfigError


# unit kind -> {suffix: multiplier to canonical}
_UNIT_TABLES = {
    "angular_frequency": {
        "THz": 1e12,   # 1e12 rad/s
        "GHz": 1e9,    # 1e9 rad/s
        "MHz": 1e6,
        "rad/s": 1.0,
    },
    "sqrt_rate": {
        "sqrtTHz": 1e6,   # sqrt(1e12 rad/s)
        "sqrtGHz": 31622.776601683792,
        "sqrt(rad/s)": 1.0,
    },
    "time": {
        "ps": 1e-12,
        "ns": 1e-9,
        "fs": 1e-15,
        "s": 1.0,
    },
    "length": {
        "m": 1.0,
        "mm": 1e-3,
        "um": 1e-6,
        "nm": 1e-9,
    },
    "speed": {
        "m/s": 1.0,
    },
    "power": {
        "W": 1.0,
        "mW": 1e-3,
        "uW": 1e-6,
    },
    "frequency_hz": {
        "Hz": 1.0,
        "kHz": 1e3,
        "MHz": 1e6,
        "GHz": 1e9,
    },
    "inverse_slope": {
        # maps angular-frequency detuning to wavenumber: (rad/s)^-1 m^-1
        "s/(rad m)": 1.0,
    },
    "area": {
        "m^2": 1.0,
        "um^2": 1e-12,
    },
    "kerr_index": {
        "m^2/W": 1.0,
    },
}


def parse_quantity(raw, kind: str, field: str = "") -> float:
    """Parse ``"value unit"`` into a float in canonical units.

    Bare numbers are rejected for dimensioned fields so that a config file
    can never silently mix THz with GHz.  The value must be finite after
    the unit scales it: "1e300 THz" is a ConfigError, not inf rad/s.
    """
    table = _UNIT_TABLES[kind]
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        raise ConfigError(
            f"field '{field}' needs an explicit unit "
            f"(one of {sorted(table)}), got bare number {raw!r}"
        )
    if not isinstance(raw, str):
        raise ConfigError(f"field '{field}': cannot parse {raw!r} as a quantity")
    parts = raw.strip().split(None, 1)
    if len(parts) != 2:
        raise ConfigError(
            f"field '{field}': expected '<value> <unit>', got {raw!r}"
        )
    value_str, unit = parts
    if unit not in table:
        raise ConfigError(
            f"field '{field}': unknown unit {unit!r} "
            f"(expected one of {sorted(table)})"
        )
    try:
        value = float(value_str) * table[unit]
    except ValueError as exc:
        raise ConfigError(f"field '{field}': bad number {value_str!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"field '{field}': value must be finite, got {raw!r}")
    return value


def format_quantity(value: float, unit: str, kind: str) -> str:
    """Format a canonical value back to ``"value unit"`` with 9 sig digits."""
    mult = _UNIT_TABLES[kind][unit]
    return f"{value / mult:.9g} {unit}"
