"""Unit parsing and formatting."""

import pytest

from tfm_synth.errors import ConfigError
from tfm_synth.units import format_quantity, parse_quantity


def test_ghz_is_1e9_per_second():
    assert parse_quantity("7.26 GHz", "angular_frequency") == 7.26e9


def test_thz_is_1e12_per_second():
    assert parse_quantity("1215.07 THz", "angular_frequency") == 1215.07e12


def test_sqrt_rate_thz():
    # sqrt(1e12 rad/s) = 1e6 sqrt(rad/s)
    assert parse_quantity("0.0985 sqrtTHz", "sqrt_rate") == pytest.approx(0.0985e6)


def test_time_and_length():
    assert parse_quantity("75 ps", "time") == 75e-12
    assert parse_quantity("1.1424e-4 m", "length") == 1.1424e-4


def test_cycle_frequency_distinct_from_angular():
    assert parse_quantity("500 MHz", "frequency_hz") == 500e6


def test_unit_with_internal_spaces():
    assert parse_quantity("1e-9 s/(rad m)", "inverse_slope") == 1e-9


def test_bare_number_rejected():
    with pytest.raises(ConfigError, match="explicit unit"):
        parse_quantity(7.26, "angular_frequency", field="decay")


def test_unknown_unit_rejected():
    with pytest.raises(ConfigError, match="unknown unit"):
        parse_quantity("3 parsec", "length", field="perimeter")


def test_bad_number_rejected():
    with pytest.raises(ConfigError, match="bad number"):
        parse_quantity("abc GHz", "angular_frequency")


@pytest.mark.parametrize("raw", ["nan GHz", "-inf THz", "1e300 THz"])
def test_non_finite_quantity_rejected(raw):
    """The value is checked after the unit scales it: 1e300 is finite, but
    1e300 THz is inf rad/s.  The error names the field."""
    with pytest.raises(ConfigError, match="grid.half_span.*must be finite"):
        parse_quantity(raw, "angular_frequency", field="grid.half_span")
    assert parse_quantity("1e300 rad/s", "angular_frequency") == 1e300


def test_format_round_trip():
    raw = "25.2584049 GHz"
    value = parse_quantity(raw, "angular_frequency")
    assert format_quantity(value, "GHz", "angular_frequency") == raw


def test_format_nine_significant_digits():
    assert format_quantity(1.23456789012e9, "GHz", "angular_frequency") == (
        "1.23456789 GHz"
    )
