#!/usr/bin/env python3
"""donorspin benchmark: noise-mc, lab-oracle and cz-search.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload noise-mc --seed 1 --seconds 30 --trace 0

Each measurement runs in a fresh worker process (worker.py), which pins
BLAS to one thread and unsets DONORSPIN_THREADS before importing numpy.
With --trace 0 the set-up is measured in SETUP_REPEATS fresh processes,
the last of which also runs untraced solve passes for --seconds; the
end-to-end metrics are printed. solve_s is the median pass's wall time
scaled to a fixed host speed: a reference kernel (reference_kernel.py),
sampled by a timer while the passes run, measures how fast the shared
host runs meanwhile (see worker.py). The unscaled median is printed as
solve_wall_s on the `host` line. With --trace 1 a single process runs the
traced set-up and alternating untraced and traced solve passes, and the
per-layer metrics are printed. The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics. A record of the
run, with the machine note, goes to benchmark/out/.
"""
from __future__ import annotations

import argparse
import compileall
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "benchmark"
# fresh-process set-ups per --trace 0 run; setup_s is their median. The
# cheap set-ups (imports only) get more repeats, since their spread is
# dominated by process start-up jitter
SETUP_REPEATS = {"noise-mc": 3, "lab-oracle": 7, "cz-search": 7}
DEADLINE_S = 170.0          # every run must end within 180 s


def fail(msg):
    print(f"benchmark: {msg}", file=sys.stderr)
    sys.exit(2)


def spawn(args, mode, deadline):
    """Run one worker to completion and return its JSON result."""
    t_spawn = time.monotonic()
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode,
           "--t-spawn", repr(t_spawn)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        fail(f"{mode} worker exceeded the run deadline")
    if proc.returncode != 0:
        fail(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    deadline = time.monotonic() + DEADLINE_S
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if not (ROOT / "src" / "donorspin" / "__init__.py").is_file():
        fail(f"no donorspin sources under {ROOT / 'src'}")
    # build: byte-compile the sources so no measured import compiles
    if not all(compileall.compile_dir(d, quiet=1) for d in (ROOT / "src", BENCH)):
        fail("sources do not compile")

    if args.trace:
        runs = [spawn(args, "trace", deadline)]
        values = runs[0]["per_layer"]
        wanted = spec["per_layer"]
    else:
        runs = [spawn(args, "setup", deadline)
                for _ in range(SETUP_REPEATS[args.workload] - 1)]
        runs.append(spawn(args, "full", deadline))
        full = runs[-1]
        values = {
            "solve_s": full["solve_s"],
            "setup_s": statistics.median(r["setup_s"] for r in runs),
            "peak_rss_mib": full["peak_rss_mib"],
            "op_success_rate": 1 - (sum(r["failed"] for r in runs)
                                    / sum(r["attempted"] for r in runs)),
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)

    record = {"args": vars(args), "machine": runs[-1]["machine"],
              "metrics": metrics, "workers": runs}
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_file, "w") as fh:
        json.dump(record, fh, indent=1)
    for r in runs:
        for msg in r["setup_errors"]:
            print(f"setup check failed: {msg}")
        for name, msgs in r.get("op_errors", {}).items():
            print(f"operation {name!r} failed: {msgs}")
    print("machine " + json.dumps(runs[-1]["machine"]))
    if not args.trace:
        print("host " + json.dumps({k: runs[-1][k] for k in (
            "solve_wall_s", "kernel_s", "kernel_calls", "untraced_pass_s",
            "scaled_pass_s")}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
