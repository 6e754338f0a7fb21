#!/usr/bin/env python3
"""List the package lines that no program runs.

Runs all program traffic under a `sys.settrace` line trace limited to
`src/donorspin`:
- the three benchmark workloads of `benchmark/workloads.py` (read, not
  changed), each through its set-up, one solve pass and its checks, the
  full oracle checks included, at seed 1;
- `scripts/cz_search.py` and `scripts/gate_report.py` with their default
  arguments;
- every manifest in `manifests/`, through the CLI in a temporary directory.

Each program's line also gives its number of `evolve` calls and how many
of them repeat an earlier call of the same program: the same schedule
content (duration, drive frequencies, envelopes sampled on a fixed grid),
offsets, frame and dt. A calibration that propagates a segment twice
shows up there.

Then prints, per module, each executable line (from the code objects'
`co_lines`) that none of them ran, and the line count of `src/donorspin`.
The listing is information. The script exits 1 if any program reported
an error, so the trace also serves as a smoke check. The runs share two
worker processes, longest first; the whole trace takes 19-27 s of wall
time on 2 cores. Library imports happen inside the traced workers, so
module-level lines count.

Usage: python scripts/trace_traffic.py
"""
import contextlib
import inspect
import io
import json
import os
import runpy
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from importlib import util as import_util
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "donorspin"
SEED = 1
WORKERS = 2
# longest first, so the two workers finish together; then the quick
# manifests
JOBS = [("manifest", "rx_noise"), ("manifest", "sweep_echo_noise"),
        ("workload", "lab-oracle"), ("workload", "noise-mc"),
        ("script", "gate_report"), ("manifest", "rz_noise"),
        ("manifest", "cphase_curve"), ("workload", "cz-search"),
        ("script", "cz_search")]
JOBS += [("manifest", p.stem)
         for p in sorted((ROOT / "manifests").glob("*.txt"))
         if ("manifest", p.stem) not in JOBS]

_hits = set()               # (file name, line) run in this worker
_evolve_calls = []          # fingerprints of the current job's evolve calls
FINGERPRINT_GRID = (0.0, 1e-6, 2001)    # linspace of the envelope samples


def _local_trace(frame, event, arg):
    if event == "line":
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _local_trace


def _global_trace(frame, event, arg):
    if frame.f_code.co_filename.startswith(str(SRC)):
        return _local_trace
    return None


def _start_tracing():
    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(_global_trace)
    _record_evolve_calls()


def _record_evolve_calls():
    """Make `evolve`, as the programs reach it through `propagation` and
    `gates`, record the fingerprint of each call's inputs. The envelopes
    are sampled with the line trace off."""
    import numpy as np
    import donorspin.gates as gates
    import donorspin.propagation as propagation
    evolve = propagation.evolve
    signature = inspect.signature(evolve)
    grid = np.linspace(*FINGERPRINT_GRID)

    def recorded(*args, **kwargs):
        sys.settrace(None)
        call = signature.bind(*args, **kwargs)
        call.apply_defaults()
        sched, noise = call.arguments["schedule"], call.arguments["noise_dE"]
        noise = np.asarray(noise, dtype=float)
        _evolve_calls.append((
            sched.total_time, sched.omega_E, sched.omega_B,
            *(np.asarray(env(grid), dtype=float).tobytes() for env in
              (sched.dE_envelope, sched.Ea_envelope, sched.Ba_envelope)),
            noise.shape, noise.tobytes(), call.arguments["frame"],
            call.arguments["dt"]))
        sys.settrace(_global_trace)
        return evolve(*args, **kwargs)

    propagation.evolve = gates.evolve = recorded


def _run_workload(name):
    """Set-up, one solve pass and the full checks; returns the errors."""
    import donorspin as ds
    spec = import_util.spec_from_file_location(
        "workloads", ROOT / "benchmark" / "workloads.py")
    module = import_util.module_from_spec(spec)
    spec.loader.exec_module(module)
    workload = module.WORKLOADS[name]
    with open(ROOT / "benchmark" / "references.json") as fh:
        refs = dict(json.load(fh)["workloads"][name])
    refs["tolerances"] = {k: v["value"] for k, v in refs["tolerances"].items()}
    refs["case"] = refs.pop("cases")[SEED % module.CASES]
    state = workload.setup(ds, SEED)
    errors = list(workload.check_setup(state, refs))
    outputs = {}
    for op, fn in workload.operations(state):
        outputs[op] = fn(outputs)
    errors += [f"{op}: {msg}" for op, msg in
               workload.check(state, outputs, refs, True).items()]
    return errors


def _run_script(name):
    argv = sys.argv
    sys.argv = [str(ROOT / "scripts" / f"{name}.py")]
    try:
        runpy.run_path(sys.argv[0], run_name="__main__")
    finally:
        sys.argv = argv
    return []


def _run_manifest(name):
    from donorspin.cli import main
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            code = main(["run", str(ROOT / "manifests" / f"{name}.txt")])
        finally:
            os.chdir(cwd)
    return [] if code == 0 else [f"exit code {code}"]


RUNNERS = {"workload": _run_workload, "script": _run_script,
           "manifest": _run_manifest}


def _job(kind, name):
    """Run one program in this worker; returns (its errors, every line the
    worker has run so far, its evolve calls, how many of them repeat an
    earlier one's inputs)."""
    _evolve_calls.clear()
    with contextlib.redirect_stdout(io.StringIO()):
        errors = RUNNERS[kind](name)
    calls = len(_evolve_calls)
    return errors, _hits, calls, calls - len(set(_evolve_calls))


def executable_lines(path):
    """Line numbers that carry bytecode in a module and its nested code
    objects."""
    lines = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main():
    hits = set()
    failed = False
    with ProcessPoolExecutor(WORKERS, initializer=_start_tracing) as pool:
        futures = [(job, pool.submit(_job, *job)) for job in JOBS]
        for (kind, name), future in futures:
            errors, seen, calls, repeats = future.result()
            hits |= seen
            failed |= bool(errors)
            status = "; ".join(errors) if errors else "ok"
            print(f"ran {kind} {name}: {status}; {calls} evolve calls, "
                  f"{repeats} repeating an earlier call", flush=True)
    total = 0
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text().splitlines()
        ran = {line for name, line in hits if name == str(path)}
        missed = sorted(executable_lines(path) - ran)
        total += len(missed)
        print(f"\n{path.relative_to(ROOT)}: {len(missed)} lines not run")
        for line in missed:
            print(f"  {line:4d}  {source[line - 1].strip()}")
    print(f"\n{total} executable lines not run")
    lines = sum(len(path.read_text().splitlines())
                for path in SRC.glob("*.py"))
    print(f"\n{SRC.relative_to(ROOT)}: {lines} lines")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
