"""Benchmark of tfm-synth as its users drive it.

    python3 bench/run.py --workload forward --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  Every operation is an
in-process `tfm_synth.cli.main` call, checked afterwards against the
benchmark's own recomputation (checks.py); an op that fails its check
counts in `failed`.  A run's operation list (inputs.py) is made from
--seed and --seconds alone: whole rounds, as many as the reference
machine runs in --seconds, so every run of a length does the same
operations and no device occurs twice.  The last line of stdout is one JSON object: correct, attempted, failed and
the metrics -- the end-to-end ones with --trace 0, the per-layer ones
with --trace 1 (see README.md).
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402
import yaml  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import model  # noqa: E402
import spans  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".bench_runs")
# set-up is measured in this process and in this many fresh ones
SETUP_PROBES = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up, print the set-up time and exit")
    return p.parse_args(argv)


def load_cli():
    if not os.path.isfile(os.path.join(SRC, "tfm_synth", "cli.py")):
        raise SystemExit(f"bench: no tfm_synth sources in {SRC}")
    sys.path.insert(0, SRC)
    from tfm_synth import cli
    return cli


def call(cli, argv):
    """One command; its stdout is kept out of the benchmark's own."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        return cli.main(list(argv))


def check(cli, op, rng):
    """Check one operation's outputs; returns the recomputed fidelity."""
    if op.argv[0] == "simulate":
        state = checks.read_state(op.out)
        dev = model.device(op.tree)
        numbers = checks.check_report(state, dev)
        if op.paper:
            checks.check_paper(numbers, dev)
        checks.check_pump_integral(state, dev, rng)
        return numbers["fidelity"]
    checks.check_trace(op.out, inputs.INVERSE_RESTARTS, inputs.INVERSE_MU_POINTS)
    tree = checks.design_tree(op.tree, op.out)
    path = os.path.join(op.out, "check-design.yaml")
    with open(path, "w") as fh:
        yaml.safe_dump(tree, fh, sort_keys=False)
    resim = os.path.join(op.out, "check-resim")
    if call(cli, ["simulate", "--config", path, "--out", resim]) != 0:
        raise checks.CheckFailed("re-simulation of best_params.yaml failed")
    state = checks.read_state(resim)
    dev = model.device(tree)
    fidelity = checks.check_design(state, dev, op.out)
    checks.check_pump_integral(state, dev, rng)
    return fidelity


def run_op(cli, op, seed, index, tracer=None):
    """Time one op from an empty output directory, then check it; the
    check's sample points come from (seed, index)."""
    shutil.rmtree(op.out, ignore_errors=True)
    if tracer is not None:
        tracer.op = index
    start = time.perf_counter()
    try:
        code = call(cli, op.argv)
    except Exception:
        traceback.print_exc()
        code = None
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.op = None
    rec = {"op": op, "seconds": seconds, "ok": False, "fidelity": None}
    try:
        if code != 0:
            raise checks.CheckFailed(f"exit code {code}")
        rec["fidelity"] = check(cli, op, np.random.default_rng([seed % 2**32, index]))
        rec["ok"] = True
    except (checks.CheckFailed, OSError, KeyError, ValueError) as exc:
        print(f"bench: {op.label}: check failed: {exc}", file=sys.stderr)
    finally:
        shutil.rmtree(op.out, ignore_errors=True)
    print(f"bench: {op.label} {seconds:.4f} s {'ok' if rec['ok'] else 'FAILED'}",
          file=sys.stderr)
    return rec


def probe_setup(args):
    """Set-up time of a fresh process doing this run's set-up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(records, setup_samples):
    done = [r for r in records if r["ok"]]
    reference = [r["fidelity"] for r in done if r["op"].reference]
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "cmd_p50_s": (statistics.median(r["seconds"] for r in done), "s"),
        "cmds_per_s": (len(done) / sum(r["seconds"] for r in records), "1/s"),
        "fidelity": (statistics.fmean(reference), "1"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer(tracer, traced, untraced):
    n = len(traced)
    op_s = sum(r["seconds"] for r in traced)
    self_s, incl_s, calls = spans.layer_times(tracer.spans)
    polish_jsa = spans.under(
        tracer.spans, "inversion.polish", {"jsa.compute_jsa", "simulate.reported_state"}
    )
    m = {}
    for layer in (
        "analysis.schmidt_decompose", "analysis.project_to_tfm", "analysis.fidelity",
        "jsa.compute_jsa", "jsa.impose_pi_phase", "simulate.reported_state",
        "inversion.fit_adp", "inversion.trial_score", "config.load_config",
        "pulse_shaper.shaped_pump", "resonator.field_enhancement_chain",
    ):
        m[layer + "_s"] = (self_s[layer] / n, "s")
    for layer in ("analysis.schmidt_decompose", "inversion.fit_adp",
                  "inversion.verify", "jsa.compute_jsa"):
        m[layer + "_calls"] = (calls[layer] / n, "count")
    m["inversion.fit_converged_frac"] = (
        statistics.fmean(tracer.fits) if tracer.fits else 0.0, "1")
    m["inversion.fit_residual_evals"] = (tracer.counts["inversion.fit_residual"] / n, "count")
    m["inversion.polish_s"] = (incl_s["inversion.polish"] / n, "s")
    m["inversion.polish_evals"] = (tracer.counts["inversion.polish_objective"] / n, "count")
    m["inversion.polish_jsa_s"] = (polish_jsa / n, "s")
    m["inversion.verify_s"] = (incl_s["inversion.verify"] / n, "s")
    m["inversion.optimize_self_s"] = (self_s["inversion.optimize_state"] / n, "s")
    m["simulate.simulate_self_s"] = (self_s["simulate.simulate"] / n, "s")
    m["cli.simulate_self_s"] = (self_s["cli.simulate"] / n, "s")
    m["cli.optimize_self_s"] = (self_s["cli.optimize"] / n, "s")
    m["trace.op_s"] = (op_s / n, "s")
    m["trace.unattributed_frac"] = (1.0 - sum(self_s.values()) / op_s, "1")
    m["trace.overhead_frac"] = (op_s / sum(r["seconds"] for r in untraced) - 1.0, "1")
    return m


def main(argv=None):
    args = parse_args(argv)
    # the optimizer's pool is capped at the cores this process may use; a
    # traced run keeps the pool in this process, where the spans are kept
    os.environ.setdefault("TFM_SYNTH_THREADS", str(len(os.sched_getaffinity(0))))
    if args.trace:
        os.environ["TFM_SYNTH_THREADS"] = "1"
    cli = load_cli()
    os.makedirs(RUNS, exist_ok=True)
    work = os.path.join(RUNS, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    tracer = None
    try:
        n_rounds = inputs.rounds(args.workload, args.seconds)
        warm, ops = inputs.WORKLOADS[args.workload](args.seed, n_rounds, SRC, work)
        # the warm-up, on a device outside the run's list, pays the first
        # call's one-off costs (lazy imports, BLAS start-up, the
        # allocator's first growth) at full size
        if call(cli, warm.argv) != 0:
            raise SystemExit(f"bench: warm-up {warm.argv} failed")
        setup_s = time.perf_counter() - START
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        records, untraced = [], []
        if args.trace:
            tracer = spans.Tracer()
        for index, op in enumerate(ops):
            if tracer is not None:
                # the same op untraced, for the tracer's overhead
                untraced.append(run_op(cli, op, args.seed, index))
            records.append(run_op(cli, op, args.seed, index, tracer))

        attempted = len(records) + len(untraced)
        failed = sum(not r["ok"] for r in records + untraced)
        if failed == attempted:
            raise SystemExit("bench: every operation failed")
        if tracer is not None:
            tracer.write(os.path.join(RUNS, f"spans-{args.workload}-{args.seed}.jsonl"))
            metrics = per_layer(tracer, records, untraced)
        else:
            setup = [setup_s] + [probe_setup(args) for _ in range(SETUP_PROBES)]
            metrics = end_to_end(records, setup)
    finally:
        if tracer is not None:
            tracer.restore()
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
