"""Self-tests of the benchmark: each check rejects a corrupted output,
and the tracer survives a layer that no longer exists."""

import json
import os
import sys

import numpy as np
import pytest
import yaml

import checks
import inputs
import model
import run
import spans

cli = run.load_cli()


def simulate(tmp_path, tree, grid):
    config = tmp_path / "device.yaml"
    config.write_text(yaml.safe_dump(tree))
    out = str(tmp_path / "out")
    assert run.call(cli, ["simulate", "--config", str(config), "--out", out,
                          "--grid", str(grid)]) == 0
    return checks.read_state(out)


@pytest.fixture(scope="module")
def bell(tmp_path_factory):
    tree = inputs.preset_tree(run.SRC, "bell_phi_minus")
    return tree, simulate(tmp_path_factory.mktemp("bell"), tree, 256)


@pytest.fixture(scope="module")
def asymmetric(tmp_path_factory):
    tree = inputs.preset_tree(run.SRC, "mes_d3")
    tree["dispersion"]["c2"] = -0.8
    return tree, simulate(tmp_path_factory.mktemp("asym"), tree, 40)


def test_intact_outputs_pass(bell, asymmetric):
    for tree, state in (bell, asymmetric):
        dev = model.device(tree)
        checks.check_report(state, dev)
        checks.check_pump_integral(state, dev, np.random.default_rng(0))


def test_sign_flipped_ckk_is_rejected(bell):
    tree, state = bell
    report = json.loads(json.dumps(state["report"]))
    report["c_kl_re"][1][1] = -report["c_kl_re"][1][1]
    with pytest.raises(checks.CheckFailed, match=r"c_kl\[1\]\[1\]"):
        checks.check_report(dict(state, report=report), model.device(tree))


@pytest.mark.parametrize("factor", [1.01, 0.99])
def test_rescaled_jsa_fails_the_norm(bell, factor):
    with pytest.raises(checks.CheckFailed, match="norm"):
        checks.check_norm(dict(bell[1], amp=bell[1]["amp"] * factor))


def test_slightly_rescaled_jsa_is_rejected(bell):
    tree, state = bell
    with pytest.raises(checks.CheckFailed, match="lambda"):
        checks.check_report(dict(state, amp=state["amp"] * 1.001), model.device(tree))


def test_perturbed_sample_point_is_rejected(asymmetric):
    tree, state = asymmetric
    j, k = checks.sample_points(state, np.random.default_rng(5))
    amp = state["amp"].copy()
    peak = np.unravel_index(np.argmax(np.abs(amp)), amp.shape)
    m = 1 if (j[0], k[0]) == peak else 0
    amp[j[m], k[m]] *= 1.02
    with pytest.raises(checks.CheckFailed, match="direct pump sum"):
        checks.check_pump_integral(dict(state, amp=amp), model.device(tree),
                                   np.random.default_rng(5))


def test_sign_change_along_an_antidiagonal_is_rejected(bell):
    _, state = bell
    amp = state["amp"].copy()
    peak = np.unravel_index(np.argmax(np.abs(amp)), amp.shape)
    amp[peak] = -amp[peak]
    with pytest.raises(checks.CheckFailed, match="anti-diagonal"):
        checks.antidiagonals(dict(state, amp=amp))


def test_trace_with_a_missing_record_is_rejected(tmp_path):
    records = [{"mu": {"mu_12": mu}, "restart": r} for mu in (0.0, 1e9) for r in range(2)]
    lines = [json.dumps(rec) for rec in records]
    (tmp_path / "trace.jsonl").write_text("\n".join(lines) + "\n")
    assert checks.check_trace(str(tmp_path), 2, 2) == 4
    (tmp_path / "trace.jsonl").write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(checks.CheckFailed, match="restarts"):
        checks.check_trace(str(tmp_path), 2, 2)
    (tmp_path / "trace.jsonl").write_text("\n".join(lines[:2]) + "\n")
    with pytest.raises(checks.CheckFailed, match="mu points"):
        checks.check_trace(str(tmp_path), 2, 2)


def test_tracer_records_zero_calls_for_a_missing_function(tmp_path):
    layers = dict(spans.LAYERS)
    layers[("tfm_synth.jsa", "no_such_function")] = "jsa.no_such_function"
    tracer = spans.Tracer(layers=layers)
    try:
        tracer.op = 0
        out = str(tmp_path / "out")
        assert run.call(cli, ["simulate", "--config", "bell_phi_minus",
                              "--out", out, "--grid", "64"]) == 0
        tracer.op = None
    finally:
        tracer.restore()
    self_s, _, calls = spans.layer_times(tracer.spans)
    assert calls["jsa.no_such_function"] == 0
    assert calls["analysis.schmidt_decompose"] == 2
    assert calls["cli.simulate"] == 1
    total = sum(e - s for _, p, _, _, s, e in tracer.spans if p is None)
    assert sum(self_s.values()) == pytest.approx(total)


def test_tracer_restores_the_program():
    sim = sys.modules["tfm_synth.simulate"]
    original = sim.compute_jsa
    spans.Tracer().restore()
    assert sim.compute_jsa is original


def test_variant_couplings_stay_inside_the_mzi_reach(tmp_path):
    from tfm_synth.config import load_config
    from tfm_synth.resonator import mzi_max_mu

    warm, ops = inputs.forward(7, 3, run.SRC, str(tmp_path))
    for op in [warm] + ops:
        if op.paper:
            continue
        cfg = load_config(op.argv[op.argv.index("--config") + 1])
        reach = mzi_max_mu(cfg.mzi)
        for chain in (cfg.signal, cfg.idler, cfg.pump_resonance):
            assert all(m <= reach for m in chain.couplings)


def test_inputs_depend_on_the_seed_and_length_alone(tmp_path):
    for name, make in inputs.WORKLOADS.items():
        runs = []
        for copy in "ab":
            os.makedirs(tmp_path / f"{name}-{copy}")
            warm, ops = make(3, 3, run.SRC, str(tmp_path / f"{name}-{copy}"))
            runs.append([op.tree for op in [warm] + ops])
        assert runs[0] == runs[1]


def test_no_device_occurs_twice_in_a_run(tmp_path):
    def device(op):
        argv = op.argv[:2] + op.argv[3:]      # all but the config's path
        return json.dumps([op.tree, [a for a in argv if a != op.out]], sort_keys=True)

    for name, make in inputs.WORKLOADS.items():
        os.makedirs(tmp_path / name)
        warm, ops = make(3, 3, run.SRC, str(tmp_path / name))
        assert len(ops) == 3 * (1 if name == "inverse" else len(inputs.PRESETS))
        devices = [device(op) for op in [warm] + ops]
        assert len(set(devices)) == len(devices)
