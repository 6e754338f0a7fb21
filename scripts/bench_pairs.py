#!/usr/bin/env python3
"""Before/after record of a change: benchmark/run.py on two checkouts.

Usage: python scripts/bench_pairs.py PARENT_DIR CHANGE_DIR OUT.json

PARENT_DIR and CHANGE_DIR are fresh copies of the two commits (for example
from `git archive`). For every workload and seeds 1-10, both copies run
`python3 benchmark/run.py --workload W --seed S --seconds 30 --trace 0`,
one run at a time, the parent first on odd seeds and the change first on
even ones. OUT.json gets, per workload and end-to-end metric, each side's
runs, median and quartiles (statistics.quantiles, n=4), and the number of
pairs (same seed) in which the change reads better, plus the unscaled
median pass (`solve_wall_s`) and the machine note of the last run. Then
both copies make three traced runs (`--trace 1`) per workload, at seeds
1-3 and in the same alternating order; each side's runs and its median of
every per-layer metric go under `per_layer_trace1`.

Last, the wall times that the benchmark's workloads do not cover, each
timed WALL_RUNS times per side in the same alternating order, with
`src` on PYTHONPATH and one BLAS thread: the tier-1 suite
(`python -m pytest -q --continue-on-collection-errors`, whose passed and
failed counts go under `tier1`) and `python -m donorspin.cli run
manifests/<name>.txt` for the three noise manifests. Their wall times go
under `wall_s`, and each run's own peak RSS and minor page faults (from
os.wait4) under `peak_rss_mib` and `minor_faults`. This process times
benchmark/reference_kernel.py's kernel KERNEL_RUNS times just before and
just after each of these runs, one BLAS thread, and records the mean
under `kernel_s` and the wall time at the benchmark's reference host
speed, wall_s * REFERENCE_KERNEL_S / kernel_s, under `wall_scaled_s`.
"""
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmark"))
from worker import REFERENCE_KERNEL_S   # pins BLAS to one thread, first
from reference_kernel import kernel

WORKLOADS = ("noise-mc", "lab-oracle", "cz-search")
SEEDS = range(1, 11)
TRACED_SEEDS = range(1, 4)
SECONDS = 30
SIDES = ("parent", "change")
WALL_RUNS = 3
MANIFESTS = ("rx_noise", "sweep_echo_noise", "rz_noise")
KERNEL_RUNS = 5
USAGE = ("wall_s", "wall_scaled_s", "kernel_s", "peak_rss_mib",
         "minor_faults")
TIER1 = ("-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors")


def bench(root, workload, seed, trace=0):
    """(metric values incl. solve_wall_s, correct, machine note) of one
    run.py run in checkout `root`."""
    out = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS),
         "--trace", str(trace)],
        cwd=root, stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    values = {k: m["value"] for k, m in result["metrics"].items()}
    for line in lines:
        if line.startswith("host "):
            values["solve_wall_s"] = json.loads(line[5:])["solve_wall_s"]
    machine = next(json.loads(line[8:]) for line in lines
                   if line.startswith("machine "))
    return values, result["correct"], machine


def pairs(dirs, workload, seeds, trace):
    """Each side's metric values over `seeds`, the parent first on odd
    seeds; whether every run was correct; the last machine note."""
    runs = {side: [] for side in SIDES}
    correct = {side: True for side in SIDES}
    for seed in seeds:
        for side in (SIDES if seed % 2 else SIDES[::-1]):
            values, ok, machine = bench(dirs[side], workload, seed, trace)
            runs[side].append(values)
            correct[side] &= ok
            print(workload, seed, side, trace, json.dumps(values),
                  flush=True)
    return runs, correct, machine


def kernel_times():
    """Times of KERNEL_RUNS reference kernel calls in this process."""
    times = []
    for _ in range(KERNEL_RUNS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return times


def timed(root, args, check):
    """({USAGE metric: value}, output) of `python args` in checkout
    `root`. The peak RSS and minor page faults are the child's own, from
    os.wait4, not the sum over every child RUSAGE_CHILDREN gives."""
    env = dict(os.environ, PYTHONPATH="src", OPENBLAS_NUM_THREADS="1")
    before = kernel_times()
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, *args], cwd=root, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True) as proc:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - t0
    kernel_s = statistics.fmean(before + kernel_times())
    if check and proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, proc.args, out)
    return {"wall_s": wall, "wall_scaled_s": wall * REFERENCE_KERNEL_S
            / kernel_s, "kernel_s": kernel_s,
            "peak_rss_mib": usage.ru_maxrss / 1024,
            "minor_faults": usage.ru_minflt}, out


def tally(out, key):
    """The count pytest's summary line gives for `key`, 0 if absent."""
    found = re.search(rf"(\d+) {key}", out.strip().splitlines()[-1])
    return int(found.group(1)) if found else 0


def walls(dirs):
    """Each side's tier-1 counts, and per USAGE metric its values for the
    tier-1 suite and each noise manifest, the parent first on odd runs."""
    jobs = {"tier1": (TIER1, False),
            **{f"manifests/{name}": (("-m", "donorspin.cli", "run",
                                      f"manifests/{name}.txt"), True)
               for name in MANIFESTS}}
    runs = {metric: {job: {side: [] for side in SIDES} for job in jobs}
            for metric in USAGE}
    counts = {}
    kernel()                          # warm-up, as worker.py's sampler does
    for run in range(1, WALL_RUNS + 1):
        for side in (SIDES if run % 2 else SIDES[::-1]):
            for job, (args, check) in jobs.items():
                usage, out = timed(dirs[side], args, check)
                for metric, value in usage.items():
                    runs[metric][job][side].append(value)
                print(job, run, side, json.dumps(usage), flush=True)
                if job == "tier1":
                    counts[side] = {key: tally(out, key)
                                    for key in ("passed", "failed")}
    return counts, {metric: {job: {side: summary(v)
                                   for side, v in sides.items()}
                             for job, sides in per_job.items()}
                    for metric, per_job in runs.items()}


def summary(runs):
    q1, _, q3 = statistics.quantiles(runs, n=4)
    return {"n": len(runs), "median": statistics.median(runs),
            "q1": q1, "q3": q3, "runs": runs}


def main():
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    dirs = dict(zip(SIDES, sys.argv[1:3]))
    record = {"command": f"benchmark/run.py --seconds {SECONDS} --trace 0",
              "end_to_end": {}, "per_layer_trace1": {}}
    higher_better = {"op_success_rate"}
    for workload in WORKLOADS:
        runs, correct, record["machine"] = pairs(dirs, workload, SEEDS, 0)
        entry = {"seeds": list(SEEDS), "correct": correct}
        for metric in runs["parent"][0]:
            p = [r[metric] for r in runs["parent"]]
            c = [r[metric] for r in runs["change"]]
            sign = -1 if metric in higher_better else 1
            entry[metric] = {
                "parent": summary(p), "change": summary(c),
                "change_better_pairs": sum(sign * (b - a) < 0
                                           for a, b in zip(p, c)),
                "tied_pairs": sum(a == b for a, b in zip(p, c))}
        record["end_to_end"][workload] = entry
    for workload in WORKLOADS:
        runs, correct, _ = pairs(dirs, workload, TRACED_SEEDS, 1)
        record["per_layer_trace1"][workload] = {
            "seeds": list(TRACED_SEEDS), "correct": correct,
            **{side: {"median": {m: statistics.median(r[m] for r in rs)
                                 for m in rs[0]},
                      "runs": rs}
               for side, rs in runs.items()}}
    record["tier1"], usage = walls(dirs)
    record.update(usage)
    with open(sys.argv[3], "w") as fh:
        json.dump(record, fh, indent=1)


if __name__ == "__main__":
    main()
