"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of the six numerical modules
(plus `PulseSchedule.sample` and the private propagation kernels, where
they exist) at every module attribute of the loaded `donorspin` package
that binds them, so calls through names bound at import time
(`twoqubit.effective_hamiltonian`) and names looked up at call time
(`propagation.evolve` importing `effective.effective_hamiltonian_batch`)
are both seen. Spans are kept in memory and written out when the run ends.

A span's layer self time is its duration minus the time covered by its
nearest descendants in other layers; same-layer nesting (for example
`effective_hamiltonian` calling `effective_hamiltonian_batch`) is not
subtracted.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np

LAYERS = ("effective", "propagation", "gates", "model", "pulses", "twoqubit")

# private kernels of one lab chunk (H stack, step exponentials, tree
# product); wrapped only while they exist under these names, and reported
# only in the aggregate table and the span dump, not as per-layer metrics
KERNELS = ("_position_h_stack", "_orbital_h_stack", "_step_unitaries",
           "_ordered_product")


def _hprime_samples(fn, args, kwargs, out):
    if len(args) >= 4:
        return int(np.broadcast(*(np.asarray(a) for a in args[1:4])).size)
    return int(np.prod(np.shape(out)[:-2], dtype=int))


def _evolve_step_samples(fn, args, kwargs, out):
    noise = args[2] if len(args) > 2 else kwargs.get("noise_dE", 0.0)
    return int(out.step_count) * int(np.size(noise))


def _stack_size(fn, args, kwargs, out):
    return int(np.prod(np.shape(out)[:-2], dtype=int))


def _product_size(fn, args, kwargs, out):
    return int(np.shape(args[0])[0])


def _sample_points(fn, args, kwargs, out):
    return int(np.size(args[1] if len(args) > 1 else kwargs["t"]))


def _track_samples(fn, args, kwargs, out):
    return int(len(args[2] if len(args) > 2 else kwargs["times"]))


def _cphase_samples(fn, args, kwargs, out):
    return int(_bind(fn, args, kwargs)["n_samples"])


def _sim64_steps(fn, args, kwargs, out):
    bound = _bind(fn, args, kwargs)
    return max(1, int(round(bound["schedule_1"].total_time / bound["dt"])))


def _bind(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


SIZERS = {
    ("effective", "effective_hamiltonian"): _hprime_samples,
    ("effective", "effective_hamiltonian_batch"): _hprime_samples,
    ("propagation", "evolve"): _evolve_step_samples,
    ("propagation", "_position_h_stack"): _stack_size,
    ("propagation", "_orbital_h_stack"): _stack_size,
    ("propagation", "_step_unitaries"): _stack_size,
    ("propagation", "_ordered_product"): _product_size,
    ("pulses", "PulseSchedule.sample"): _sample_points,
    ("twoqubit", "track_dressed_qubit_states"): _track_samples,
    ("twoqubit", "cphase_angle"): _cphase_samples,
    ("twoqubit", "simulate_two_qubit"): _sim64_steps,
}


class Tracer:
    """Records one span per wrapped call while installed."""

    def __init__(self):
        # (layer, name, parent index, start, end, size, phase)
        self.spans = []
        self.phase = "setup"
        self._stack = []
        self._saved = []

    def _wrap(self, layer, name, fn):
        spans, stack = self.spans, self._stack
        sizer = SIZERS.get((layer, name))
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            out = None
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = perf()
                stack.pop()
                size = 1
                if sizer is not None and out is not None:
                    size = sizer(fn, args, kwargs, out)
                spans[idx] = (layer, name, parent, t0, t1, size, self.phase)

        return traced

    def _targets(self, package):
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and (not name.startswith("_")
                             or (layer == "propagation" and name in KERNELS))):
                    yield layer, name, obj

    def install(self, package="donorspin"):
        """Wrap every target at every binding in the loaded package."""
        wrappers = {id(fn): self._wrap(layer, name, fn)
                    for layer, name, fn in self._targets(package)}
        modules = [m for key, m in list(sys.modules.items())
                   if key == package or key.startswith(package + ".")]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        sched_cls = sys.modules[f"{package}.pulses"].PulseSchedule
        sample = sched_cls.__dict__["sample"]
        self._saved.append((sched_cls, "sample", sample))
        sched_cls.sample = self._wrap("pulses", "PulseSchedule.sample", sample)

    def uninstall(self):
        for owner, attr, obj in reversed(self._saved):
            setattr(owner, attr, obj)
        self._saved.clear()


# ---------------------------------------------------------------------------
# derived quantities

def _derive(spans):
    """Per-span durations and layer self times."""
    n = len(spans)
    layer = [s[0] for s in spans]
    parent = [s[2] for s in spans]
    dur = [s[4] - s[3] for s in spans]
    covered = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p < 0 or layer[p] == layer[i]:
            continue
        a = p
        while a >= 0 and layer[a] == layer[p]:
            covered[a] += dur[i]
            a = parent[a]
    self_time = [d - c for d, c in zip(dur, covered)]
    return dur, self_time


def _has_ancestor(spans, i, keys=None, layer=None):
    a = spans[i][2]
    while a >= 0:
        s = spans[a]
        if (keys is not None and (s[0], s[1]) in keys) or s[0] == layer:
            return True
        a = s[2]
    return False


HPRIME = {("effective", "effective_hamiltonian"),
          ("effective", "effective_hamiltonian_batch")}


def _ratio(num, den, scale):
    return num / den * scale if den else 0.0


def layer_metrics(spans, dur, self_time, idxs):
    """Per-layer metrics over the spans with the given indices."""
    acc = {}

    def add(key, value):
        acc[key] = acc.get(key, 0) + value

    for i in idxs:
        layer, name, _, _, _, size, phase = spans[i]
        key = (layer, name)
        if key in HPRIME and not _has_ancestor(spans, i, keys=HPRIME):
            add("effective.hprime_calls", 1)
            add("effective.hprime_samples", size)
            add("effective.hprime_s", dur[i])
        elif key == ("propagation", "evolve") and not _has_ancestor(
                spans, i, keys={key}):
            add("propagation.evolve_calls", 1)
            add("propagation.step_samples", size)
            add("propagation.evolve_s", dur[i])
            add("propagation.self_s", self_time[i])
            if phase == "setup":
                add("gates.setup_evolve_calls", 1)
        elif name == "run_noise_monte_carlo":
            add("gates.mc_calls", 1)
            add("gates.mc_s", dur[i])
            add("gates.mc_self_s", self_time[i])
        elif name == "rz_duration_for_angle":
            add("gates.rz_solve_calls", 1)
            add("gates.rz_solve_s", dur[i])
        elif layer == "model" and not _has_ancestor(spans, i, layer="model"):
            add("model.closed_form_calls", 1)
            add("model.closed_form_s", dur[i])
        elif name == "PulseSchedule.sample":
            add("pulses.sample_calls", 1)
            add("pulses.sample_points", size)
            add("pulses.sample_s", dur[i])
        elif name == "cphase_angle":
            add("twoqubit.phi_evals", 1)
        elif name == "track_dressed_qubit_states":
            add("twoqubit.track_samples", size)
            add("twoqubit.track_s", dur[i])
            add("twoqubit.track_self_s", self_time[i])
        elif name == "simulate_two_qubit":
            add("twoqubit.sim64_steps", size)
            add("twoqubit.sim64_s", dur[i])
    return acc


COUNT_METRICS = (
    "effective.hprime_calls", "effective.hprime_samples",
    "propagation.evolve_calls", "propagation.step_samples",
    "gates.mc_calls", "gates.setup_evolve_calls", "gates.rz_solve_calls",
    "model.closed_form_calls", "pulses.sample_calls", "pulses.sample_points",
    "twoqubit.phi_evals", "twoqubit.track_samples", "twoqubit.sim64_steps",
)
TIME_METRICS = (
    "effective.hprime_s", "propagation.evolve_s", "propagation.self_s",
    "gates.mc_s", "gates.mc_self_s", "gates.rz_solve_s",
    "model.closed_form_s", "pulses.sample_s", "twoqubit.track_s",
    "twoqubit.track_self_s", "twoqubit.sim64_s",
)


def summarize(spans, passes):
    """Per-layer metrics for one set-up plus one solve pass.

    Counts are the set-up's plus those of the first traced pass (they
    repeat exactly from pass to pass); times are the set-up's plus the
    median over traced passes. Returns (metrics, aggregate table).
    """
    dur, self_time = _derive(spans)
    by_phase = {}
    for i, s in enumerate(spans):
        by_phase.setdefault(s[6], []).append(i)
    setup = layer_metrics(spans, dur, self_time, by_phase.get("setup", []))
    per_pass = [layer_metrics(spans, dur, self_time, by_phase.get(p, []))
                for p in passes]
    metrics = {}
    for key in COUNT_METRICS:
        metrics[key] = setup.get(key, 0) + per_pass[0].get(key, 0)
    for key in TIME_METRICS:
        metrics[key] = setup.get(key, 0.0) + float(
            np.median([m.get(key, 0.0) for m in per_pass]))
    metrics["effective.ns_per_sample"] = _ratio(
        metrics["effective.hprime_s"], metrics["effective.hprime_samples"], 1e9)
    metrics["propagation.ns_per_step_sample"] = _ratio(
        metrics["propagation.self_s"], metrics["propagation.step_samples"], 1e9)
    metrics["twoqubit.us_per_step64"] = _ratio(
        metrics["twoqubit.sim64_s"], metrics["twoqubit.sim64_steps"], 1e6)
    return metrics, aggregate(spans, dur, self_time)


def aggregate(spans, dur, self_time):
    """Calls, total and layer self time per (function, phase, size)."""
    table = {}
    for i, (layer, name, _, _, _, size, phase) in enumerate(spans):
        group = "setup" if phase == "setup" else "solve"
        row = table.setdefault((f"{layer}.{name}", group, size), [0, 0.0, 0.0])
        row[0] += 1
        row[1] += dur[i]
        row[2] += self_time[i]
    return [{"function": k[0], "phase": k[1], "size": k[2], "calls": v[0],
             "total_s": v[1], "self_s": v[2]}
            for k, v in sorted(table.items())]


def span_columns(spans):
    """Column-wise dump of the raw spans with derived self times."""
    dur, self_time = _derive(spans)
    t_origin = spans[0][3] if spans else 0.0
    return {
        "layer": [s[0] for s in spans],
        "name": [s[1] for s in spans],
        "parent": [s[2] for s in spans],
        "start_s": [s[3] - t_origin for s in spans],
        "duration_s": dur,
        "layer_self_s": self_time,
        "size": [s[5] for s in spans],
        "phase": [s[6] for s in spans],
    }
