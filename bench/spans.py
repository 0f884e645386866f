"""Spans around the calls into tfm_synth's layers, recorded from outside.

The tracer replaces module attributes that tfm_synth's own modules look
up at call time (`simulate.compute_jsa`, `inversion.fit_adp`, ...) with
wrappers that record a span: name, start, end, the span that caused it,
and the operation it belongs to.  Spans stay in memory until the run
ends.  A wrapped attribute that no longer exists is skipped, so its
layer reports zero calls.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from time import perf_counter

# (module, attribute) -> layer.  One layer may be entered through several
# modules, because each module binds the names it imports.
LAYERS = {
    ("tfm_synth.cli", "cmd_simulate"): "cli.simulate",
    ("tfm_synth.cli", "cmd_optimize"): "cli.optimize",
    ("tfm_synth.cli", "load_config"): "config.load_config",
    ("tfm_synth.config", "load_config"): "config.load_config",
    ("tfm_synth.cli", "simulate"): "simulate.simulate",
    ("tfm_synth.simulate", "shaped_pump"): "pulse_shaper.shaped_pump",
    ("tfm_synth.inversion", "shaped_pump"): "pulse_shaper.shaped_pump",
    ("tfm_synth.simulate", "field_enhancement_chain"): "resonator.field_enhancement_chain",
    ("tfm_synth.inversion", "field_enhancement_chain"): "resonator.field_enhancement_chain",
    ("tfm_synth.simulate", "compute_jsa"): "jsa.compute_jsa",
    ("tfm_synth.inversion", "compute_jsa"): "jsa.compute_jsa",
    ("tfm_synth.simulate", "reported_state"): "simulate.reported_state",
    ("tfm_synth.inversion", "reported_state"): "simulate.reported_state",
    ("tfm_synth.simulate", "impose_pi_phase"): "jsa.impose_pi_phase",
    ("tfm_synth.simulate", "schmidt_decompose"): "analysis.schmidt_decompose",
    ("tfm_synth.analysis", "schmidt_decompose"): "analysis.schmidt_decompose",
    ("tfm_synth.inversion", "schmidt_decompose"): "analysis.schmidt_decompose",
    ("tfm_synth.simulate", "project_to_tfm"): "analysis.project_to_tfm",
    ("tfm_synth.simulate", "fidelity"): "analysis.fidelity",
    ("tfm_synth.cli", "optimize_state"): "inversion.optimize_state",
    ("tfm_synth.inversion", "fit_adp"): "inversion.fit_adp",
    ("tfm_synth.inversion", "_trial_score"): "inversion.trial_score",
    ("tfm_synth.inversion", "minimize"): "inversion.polish",
    ("tfm_synth.inversion", "simulate"): "inversion.verify",
}
# objective functions whose calls are counted, by the optimizer they are
# passed to as the first argument
COUNTED = {
    ("tfm_synth.inversion", "least_squares"): "inversion.fit_residual",
    ("tfm_synth.inversion", "minimize"): "inversion.polish_objective",
}


class Tracer:
    """Patches the layers in place; `restore` puts the originals back."""

    def __init__(self, layers=LAYERS, counted=COUNTED):
        self.spans = []           # [id, parent, op, name, start, end]
        self.counts = defaultdict(int)
        self.fits = []            # FitResult.converged of every fit
        self.op = None            # spans are recorded only inside an op
        self._stack = []
        self._patched = []
        for (mod, attr), name in counted.items():
            self._patch(mod, attr, lambda f, n=name: self._counting(f, n))
        for (mod, attr), name in layers.items():
            self._patch(mod, attr, lambda f, n=name: self._spanning(f, n))

    def _patch(self, mod, attr, make):
        module = importlib.import_module(mod)
        original = getattr(module, attr, None)
        if original is None:
            return
        self._patched.append((module, attr, original))
        setattr(module, attr, make(original))

    def restore(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _spanning(self, func, name):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return func(*args, **kwargs)
            span = [len(self.spans), self._stack[-1] if self._stack else None,
                    self.op, name, perf_counter(), None]
            self.spans.append(span)
            self._stack.append(span[0])
            try:
                result = func(*args, **kwargs)
            finally:
                span[5] = perf_counter()
                self._stack.pop()
            if name == "inversion.fit_adp":
                self.fits.append(bool(getattr(result, "converged", False)))
            return result
        return wrapper

    def _counting(self, func, name):
        @functools.wraps(func)
        def wrapper(fun, *args, **kwargs):
            if self.op is None:
                return func(fun, *args, **kwargs)

            def counted(*a, **kw):
                self.counts[name] += 1
                return fun(*a, **kw)
            return func(counted, *args, **kwargs)
        return wrapper

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span_id, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "op": op,
                                     "name": name, "start": start, "end": end}) + "\n")


def layer_times(spans):
    """Per layer: self seconds, inclusive seconds and calls.

    Self time is a span's duration less that of its direct children.
    """
    child = defaultdict(float)
    for _, parent, _, _, start, end in spans:
        if parent is not None:
            child[parent] += end - start
    self_s, incl_s, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    for span_id, parent, _, name, start, end in spans:
        self_s[name] += end - start - child[span_id]
        incl_s[name] += end - start
        calls[name] += 1
    return self_s, incl_s, calls


def under(spans, ancestor: str, names):
    """Inclusive seconds of spans named in `names` below an `ancestor` span,
    counting only the outermost such span on each path."""
    by_id = {s[0]: s for s in spans}
    total = 0.0
    for span_id, parent, _, name, start, end in spans:
        if name not in names:
            continue
        chain, p = [], parent
        while p is not None:
            chain.append(by_id[p][3])
            p = by_id[p][1]
        if ancestor not in chain:
            continue
        nested = any(n in names for n in chain[: chain.index(ancestor)])
        if not nested:
            total += end - start
    return total
