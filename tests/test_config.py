"""Configuration parsing and presets."""

import copy

import pytest
import yaml

from tfm_synth import config
from tfm_synth.config import (
    ConfigError,
    PRESET_NAMES,
    load_config,
    load_preset,
    parse_config,
    preset_path,
)


@pytest.fixture(scope="module")
def bell_tree():
    with open(preset_path("bell_phi_minus")) as fh:
        return yaml.safe_load(fh)


def test_all_presets_load():
    for name in PRESET_NAMES:
        cfg = load_preset(name)
        assert cfg.name == name
        assert cfg.idler.kappa == cfg.signal.kappa
        assert len(cfg.pump.taps) >= 1


def test_preset_values_bell():
    cfg = load_preset("bell_phi_minus")
    assert cfg.target.dimension == 2
    assert cfg.signal.decay_rates == (7.26e9, 2.44e9)
    assert cfg.signal.couplings == (1.45e9,)
    assert cfg.pump_resonance.couplings == (0.0,)
    assert cfg.signal.kappa == pytest.approx(0.0985e6)
    assert cfg.pump.base_delay == pytest.approx(75e-12)
    assert len(cfg.pump.taps) == 6
    assert cfg.mzi is not None


def test_preset_values_separable():
    cfg = load_preset("separable")
    assert cfg.target.dimension == 1
    assert cfg.pump_resonance.couplings == (6.30e9,)
    assert cfg.pump.taps[0].amplitude == 1.0
    assert all(t.amplitude == 0.0 for t in cfg.pump.taps[1:])


@pytest.mark.skipif(
    not hasattr(yaml, "CSafeLoader"), reason="pyyaml built without libyaml"
)
def test_libyaml_and_python_loaders_agree_on_presets():
    """load_config parses with libyaml when it can; the pure-Python safe
    loader gives the same tree and the same DeviceConfig."""
    for name in PRESET_NAMES:
        with open(preset_path(name)) as fh:
            text = fh.read()
        fast = yaml.load(text, Loader=yaml.CSafeLoader)
        slow = yaml.load(text, Loader=yaml.SafeLoader)
        assert fast == slow
        cfg = parse_config(slow, name_hint=name)
        assert parse_config(fast, name_hint=name) == cfg
        assert load_preset(name) == cfg


def test_malformed_yaml_raises_config_error(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("grid:\n  n_points: [256\n  half_span: 1 THz\n")
    with pytest.raises(ConfigError, match="not valid YAML"):
        load_config(str(path))


def test_unknown_preset():
    with pytest.raises(ConfigError, match="unknown preset"):
        preset_path("nonexistent")


def test_missing_kappa_names_key(bell_tree):
    tree = copy.deepcopy(bell_tree)
    del tree["resonator"]["kappa"]
    with pytest.raises(ConfigError, match="kappa"):
        parse_config(tree)


def test_bare_number_rejected(bell_tree):
    tree = copy.deepcopy(bell_tree)
    tree["resonator"]["idler"]["decay_rates"][0] = 7.26
    with pytest.raises(ConfigError, match="explicit unit"):
        parse_config(tree)


def test_wrong_unit_rejected(bell_tree):
    tree = copy.deepcopy(bell_tree)
    tree["pump"]["base_delay"] = "75 GHz"
    with pytest.raises(ConfigError, match="unknown unit"):
        parse_config(tree)


def test_bad_dimension(bell_tree):
    tree = copy.deepcopy(bell_tree)
    tree["target"]["dimension"] = 7
    with pytest.raises(ConfigError, match="dimension"):
        parse_config(tree)


@pytest.mark.parametrize(
    "section, key",
    [("target", "dimension"), ("grid", "n_points"), ("grid", "pump_points")],
)
def test_non_integral_count_rejected(bell_tree, section, key):
    """A count is never truncated: 2.7 is an error, not 2."""
    tree = copy.deepcopy(bell_tree)
    tree[section][key] += 0.7
    with pytest.raises(ConfigError, match=f"{key}' must be an integer"):
        parse_config(tree)


def test_grid_sizes_up_to_the_cap_accepted(bell_tree):
    """Every grid size the presets use is admitted, up to the cap, for
    both grids; one point more is a ConfigError."""
    cap = config._GRID_MAX_POINTS
    assert cap >= max(load_preset(name).grid.pump_points for name in PRESET_NAMES)
    for key in ("n_points", "pump_points"):
        tree = copy.deepcopy(bell_tree)
        tree["grid"][key] = cap
        assert getattr(parse_config(tree).grid, key) == cap
        tree["grid"][key] = cap + 1
        with pytest.raises(ConfigError, match=f"grid.{key} must be <= {cap}"):
            parse_config(tree)


def test_coupling_count_mismatch(bell_tree):
    tree = copy.deepcopy(bell_tree)
    tree["resonator"]["signal"]["couplings"] = ["1.45 GHz", "1.0 GHz"]
    with pytest.raises(ConfigError, match="couplings"):
        parse_config(tree)


def test_tap_amplitude_out_of_range(bell_tree):
    tree = copy.deepcopy(bell_tree)
    tree["pump"]["taps"][0]["amplitude"] = 1.5
    with pytest.raises(ConfigError, match="taps"):
        parse_config(tree)


def test_top_level_must_be_mapping():
    with pytest.raises(ConfigError):
        parse_config([1, 2, 3])
