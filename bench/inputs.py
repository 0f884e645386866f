"""Seeded inputs of the three workloads.

A run is a fixed list of operations made from the seed and the run
length alone: whole rounds of one operation per preset (one design on
inverse), as many rounds as the reference machine runs in the given
seconds.  No device occurs twice in a run, so a cache of whole results
has nothing to hit.  Variant configs are written as YAML next to the
outputs and handed to `tfm-synth` by path, the way a user hands it a
config file.
"""

from __future__ import annotations

import copy
import os
import random
from dataclasses import dataclass

import yaml

PRESETS = ("bell_phi_minus", "mes_d3", "mes_d4", "separable")
# wall time of one round on the reference machine (README): a run holds
# round(seconds / ROUND_S) rounds, at least one, so every run of the same
# length does the same operations however fast the program has become
ROUND_S = {"forward": 1.9, "asymmetric": 5.5, "inverse": 26.0}
# asymmetric: reduced signal/idler grid for the per-row pump quadrature,
# and the c2 of the first round, whose entangled devices give `fidelity`
ASYMMETRIC_GRID = 96
REFERENCE_C2 = -0.8
# inverse: round r is the design with optimizer seed r, because the fits'
# cost depends on the seed; the design grid is reduced from 512 so that
# one design (21 fits, polish, verification) fits a run
INVERSE_PRESET = "bell_phi_minus"
INVERSE_RESTARTS = 1
INVERSE_GRID = 256
# SearchConfig's mu grid, 0 to 5 GHz in 0.25 GHz steps, over the Bell
# preset's one swept coupling
INVERSE_MU_POINTS = 21


def rounds(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_S[workload]))


@dataclass
class Op:
    """One `tfm-synth` command and what its output is checked against."""

    label: str
    argv: list
    tree: dict                  # the config tree the command ran on
    out: str
    reference: bool = False     # seed-independent device whose fidelity is reported
    paper: bool = False         # unperturbed preset: compare with the paper


def preset_tree(src: str, name: str) -> dict:
    with open(os.path.join(src, "tfm_synth", "presets", name + ".yaml")) as fh:
        return yaml.safe_load(fh)


def _scaled(raw: str, factor: float) -> str:
    value, unit = raw.split(None, 1)
    return f"{float(value) * factor:.9g} {unit}"


def _swept(tree: dict) -> list:
    """The chains whose couplings the MZI sets: signal and idler for an
    entangled target, the pump chain for the separable one."""
    res = tree["resonator"]
    if int(tree["target"]["dimension"]) >= 2:
        return [res["signal"], res["idler"]]
    return [res["pump"]]


def perturbed(tree: dict, rng: random.Random) -> dict:
    """Device variant: sigma_p within 10%, active taps within 0.05 in
    amplitude and 0.2 rad in phase, couplings within 15%.

    The largest coupling this yields, 6.3 GHz * 1.15 = 7.2 GHz, lies far
    inside the 26.7 GHz every preset's MZI coupler reaches.
    """
    tree = copy.deepcopy(tree)
    pump = tree["pump"]
    pump["sigma_p"] = _scaled(pump["sigma_p"], rng.uniform(0.9, 1.1))
    for tap in pump["taps"]:
        if tap["amplitude"] > 0.0:
            tap["amplitude"] = round(
                min(1.0, max(0.0, tap["amplitude"] + rng.uniform(-0.05, 0.05))), 6
            )
            tap["phase"] = round(tap["phase"] + rng.uniform(-0.2, 0.2), 6)
    factors = [rng.uniform(0.85, 1.15) for _ in _swept(tree)[0]["couplings"]]
    for chain in _swept(tree):
        chain["couplings"] = [_scaled(m, f) for m, f in zip(chain["couplings"], factors)]
    return tree


def _write(tree: dict, path: str) -> str:
    with open(path, "w") as fh:
        yaml.safe_dump(tree, fh, sort_keys=False)
    return path


def _simulate(label, config, tree, work, grid=None, **kw) -> Op:
    out = os.path.join(work, "out-" + label)
    argv = ["simulate", "--config", config, "--out", out]
    if grid is not None:
        argv += ["--grid", str(grid)]
    return Op(label, argv, tree, out, **kw)


def _entangled(tree: dict) -> bool:
    return int(tree["target"]["dimension"]) >= 2


def forward(seed: int, n_rounds: int, src: str, work: str):
    """The presets as shipped, then rounds of seeded variants, at 512^2.

    Returns the warm-up op (one more variant) and the run's ops.
    """
    rng = random.Random(seed)
    trees = {name: preset_tree(src, name) for name in PRESETS}

    def variant(name, label):
        tree = perturbed(trees[name], rng)
        return _simulate(label, _write(tree, os.path.join(work, label + ".yaml")), tree, work)

    warm = variant(PRESETS[0], "warm-up")
    ops = [
        _simulate(name, name, tree, work, reference=_entangled(tree), paper=True)
        for name, tree in trees.items()
    ]
    ops += [variant(name, f"{name}-r{r}") for r in range(1, n_rounds) for name in PRESETS]
    return warm, ops


def asymmetric(seed: int, n_rounds: int, src: str, work: str):
    """Each preset with c1 = 1 and c2 in (-0.95, -0.6): the phase matching
    no longer depends on w_s - w_i alone.  The first round has
    c2 = REFERENCE_C2, the warm-up and every later op a seeded c2."""
    rng = random.Random(seed)

    def device(name, label, c2, reference=False):
        tree = preset_tree(src, name)
        tree["dispersion"]["c1"] = 1.0
        tree["dispersion"]["c2"] = c2
        path = _write(tree, os.path.join(work, label + ".yaml"))
        return _simulate(label, path, tree, work, grid=ASYMMETRIC_GRID,
                         reference=reference and _entangled(tree))

    def seeded_c2():
        return round(-rng.uniform(0.6, 0.95), 6)

    warm = device(PRESETS[0], "warm-up", seeded_c2())
    ops = [device(name, f"{name}-r0", REFERENCE_C2, reference=True) for name in PRESETS]
    ops += [device(name, f"{name}-r{r}", seeded_c2())
            for r in range(1, n_rounds) for name in PRESETS]
    return warm, ops


def inverse(seed: int, n_rounds: int, src: str, work: str):
    """Inverse designs of the Bell preset on a 256^2 grid, optimizer seed
    0, 1, ... per round; the warm-up simulates the design config.

    The benchmark seed only picks the sample points of the output check
    (see run.py); the designs are the same in every run.
    """
    tree = preset_tree(src, INVERSE_PRESET)
    tree["grid"]["n_points"] = INVERSE_GRID
    path = _write(tree, os.path.join(work, INVERSE_PRESET + ".yaml"))
    warm = _simulate("warm-up", path, tree, work)
    ops = []
    for r in range(n_rounds):
        label = f"{INVERSE_PRESET}-design{r}"
        out = os.path.join(work, "out-" + label)
        argv = ["optimize", "--config", path, "--out", out,
                "--seed", str(r), "--restarts", str(INVERSE_RESTARTS)]
        ops.append(Op(label, argv, tree, out, reference=True))
    return warm, ops


WORKLOADS = {"forward": forward, "asymmetric": asymmetric, "inverse": inverse}
