"""One benchmark process: import, set up, solve, check, report.

Started by run.py in a fresh process per measurement. It pins BLAS to one
thread and unsets DONORSPIN_THREADS before numpy is imported. Modes:
  setup  import and set up only (one more set-up time sample)
  full   set up, then untraced solve passes for --seconds, then checks;
         a timer samples the host's speed with the reference kernel
         (reference_kernel.py) while the passes run; each pass's time is
         scaled by REFERENCE_KERNEL_S over the kernel's mean time in that
         pass, and solve_s is the median scaled pass
  trace  traced set-up, then alternating untraced and traced solve passes
         for --seconds, then checks; reports the per-layer metrics

Prints one JSON object as its last stdout line.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("DONORSPIN_THREADS", None)

import argparse
import contextlib
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "benchmark" / "out"
# mean time of one reference kernel call on the baseline machine (2 vCPU
# Xeon, OpenBLAS 0.3.31); solve_s is in seconds at that host speed
REFERENCE_KERNEL_S = 0.016
SAMPLE_INTERVAL_S = 0.25    # wall time between two kernel calls


def import_library():
    sys.path.insert(0, str(ROOT / "src"))
    import donorspin
    from donorspin import effective, gates, model, propagation, pulses, twoqubit
    src = (ROOT / "src").resolve()
    if src not in Path(donorspin.__file__).resolve().parents:
        raise RuntimeError(f"donorspin imported from {donorspin.__file__}, "
                           f"not from {src}")
    return SimpleNamespace(effective=effective, gates=gates, model=model,
                           propagation=propagation, pulses=pulses,
                           twoqubit=twoqubit)


def machine_note():
    import ctypes
    import glob
    import platform
    import numpy as np
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = runtime_config = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        handle = ctypes.CDLL(lib)
        get_threads = getattr(handle, "scipy_openblas_get_num_threads64_", None)
        get_config = getattr(handle, "scipy_openblas_get_config64_", None)
        if get_threads is not None:
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            threads = get_threads()
        if get_config is not None:
            get_config.argtypes, get_config.restype = [], ctypes.c_char_p
            runtime_config = get_config().decode()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_runtime_config": runtime_config,
        "blas_threads": threads,
        "DONORSPIN_THREADS": os.environ.get("DONORSPIN_THREADS"),
    }


class HostSampler:
    """Samples the host's speed while the solve passes run.

    A timer signal runs one reference kernel call every SAMPLE_INTERVAL_S
    and records its time, so the samples cover long operations too and
    come from the same thread and CPU as the work. `spent` is the time
    spent in the kernel, which run_pass takes out of the pass times.
    """

    def __init__(self):
        from reference_kernel import kernel
        self.kernel = kernel
        self.kernel()                     # warm-up
        self.times = []
        self.spent = 0.0
        self.busy = False

    def sample(self, *signal_args):
        if self.busy:                     # a timer signal during a sample
            return
        self.busy = True
        t0 = time.perf_counter()
        self.kernel()
        dt = time.perf_counter() - t0
        self.times.append(dt)
        self.spent += dt
        self.busy = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_pass(ops, sampler=None):
    """Run one solve pass and return its outputs, errors and solve time.

    An operation that raises is recorded, not fatal. With a sampler, the
    pass starts with one kernel call, so every pass has a sample, and the
    kernel calls are not counted in the pass's time.
    """
    outputs, errors = {}, {}
    if sampler is not None:
        sampler.sample()
    spent0 = sampler.spent if sampler is not None else 0.0
    t0 = time.perf_counter()
    for name, fn in ops:
        try:
            outputs[name] = fn(outputs)
        except Exception as exc:          # counted as a failed operation
            errors[name] = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    if sampler is not None:
        seconds -= sampler.spent - spent0
    return outputs, errors, seconds


def solve_passes(ops, seconds, tracer, sampler):
    """Run solve passes for `seconds`, alternating untraced and traced ones
    when a tracer is given. Returns the untraced and traced pass times, the
    untraced ones scaled to the reference host speed (empty without a
    sampler), and the outputs and errors of every pass."""
    untraced, traced, scaled = [], [], []
    pass_outputs, op_errors = [], {}
    start = time.perf_counter()
    while True:
        for kind in (("untraced", "traced") if tracer else ("untraced",)):
            if kind == "traced":
                tracer.phase = f"pass{len(traced) + 1}"
                tracer.install()
            first = len(sampler.times) if sampler is not None else 0
            outputs, errors, pass_s = run_pass(ops, sampler)
            if sampler is not None:
                # samples are evenly spaced in time, so their mean is the
                # host's mean slowness over the pass
                kernel_s = statistics.fmean(sampler.times[first:])
                scaled.append(pass_s * REFERENCE_KERNEL_S / kernel_s)
            if kind == "traced":
                tracer.uninstall()
                traced.append(pass_s)
            else:
                untraced.append(pass_s)
            pass_outputs.append(outputs)
            for name, msg in errors.items():
                op_errors.setdefault(name, []).append(msg)
        elapsed = time.perf_counter() - start
        per_round = elapsed / len(untraced)
        if elapsed + per_round > seconds:
            return untraced, traced, scaled, pass_outputs, op_errors


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "full", "trace"), required=True)
    ap.add_argument("--t-spawn", type=float, required=True)
    args = ap.parse_args()

    ds = import_library()
    import numpy as np
    from workloads import CASES, WORKLOADS
    workload = WORKLOADS[args.workload]
    with open(ROOT / "benchmark" / "references.json") as fh:
        refs = dict(json.load(fh)["workloads"][args.workload])
    refs["tolerances"] = {k: v["value"] for k, v in refs["tolerances"].items()}
    cases = refs.pop("cases")
    if len(cases) != CASES:
        raise RuntimeError(f"references.json records {len(cases)} cases "
                           f"for {args.workload}, not {CASES}")
    refs["case"] = cases[args.seed % CASES]

    tracer = None
    if args.mode == "trace":
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    state = workload.setup(ds, args.seed)
    t_ready = time.monotonic()
    if tracer is not None:
        tracer.uninstall()
    setup_s = t_ready - args.t_spawn
    setup_errors = workload.check_setup(state, refs)

    result = {"setup_s": setup_s, "setup_errors": setup_errors,
              "attempted": 1, "failed": int(bool(setup_errors))}
    if args.mode != "setup":
        ops = workload.operations(state)
        sampler = HostSampler() if args.mode == "full" else None
        with sampler or contextlib.nullcontext():
            untraced, traced, scaled, pass_outputs, op_errors = solve_passes(
                ops, args.seconds, tracer, sampler)

        # checks: cheap ones on every pass, oracles once; all untimed
        for k, outputs in enumerate(pass_outputs):
            for name, msg in workload.check(state, outputs, refs,
                                            full=(k == 0)).items():
                op_errors.setdefault(name, []).append(msg)
        attempted = len(ops) * len(pass_outputs)
        failed = sum(len(v) for v in op_errors.values())
        solve_wall_s = float(np.median(untraced))
        result.update(
            attempted=result["attempted"] + attempted,
            failed=result["failed"] + min(failed, attempted),
            solve_wall_s=solve_wall_s,
            untraced_pass_s=untraced,
            op_errors=op_errors,
            observed=workload.observed(state, pass_outputs[0]),
        )
        if scaled:
            result.update(solve_s=float(np.median(scaled)), scaled_pass_s=scaled,
                          kernel_s=statistics.fmean(sampler.times),
                          kernel_calls=len(sampler.times),
                          kernel_times=sampler.times)
        if tracer is not None:
            from spans import span_columns, summarize
            passes = [f"pass{k + 1}" for k in range(len(traced))]
            metrics, table = summarize(tracer.spans, passes)
            metrics["trace.overhead_frac"] = (float(np.median(traced))
                                              / solve_wall_s - 1)
            result.update(per_layer=metrics, traced_pass_s=traced,
                          aggregate=table)
            OUT_DIR.mkdir(exist_ok=True)
            spans_file = OUT_DIR / f"{args.workload}-seed{args.seed}.spans.json"
            with open(spans_file, "w") as fh:
                json.dump(span_columns(tracer.spans), fh)
    result["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                              / 1024)
    result["machine"] = machine_note()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
