#!/usr/bin/env python3
"""Run every bundled experiment manifest and collect the outputs in out/.

The manifests are manifests/*.txt, run in sorted order; the whole set
takes about 1.5 minutes on 2 cores, most of it in the two rx-noise scans.
Pass manifest names to run a subset, e.g.
``python scripts/run_all_figures.py splitting_curve``.
Every selected manifest runs even when an earlier one fails; the failures
are listed at the end and the exit code is the first nonzero one.
"""
import pathlib
import sys
import time

from donorspin.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
MANIFESTS = ROOT / "manifests"


def run(selected=None):
    failures = []
    for name in selected or sorted(p.stem for p in MANIFESTS.glob("*.txt")):
        manifest = MANIFESTS / f"{name}.txt"
        if not manifest.exists():
            print(f"skipping unknown manifest {name}")
            continue
        t0 = time.time()
        code = main(["run", str(manifest)])
        print(f"  -> exit {code} in {time.time() - t0:.1f}s")
        if code != 0:
            failures.append((name, code))
    for name, code in failures:
        print(f"FAILED {name} (exit {code})")
    return failures[0][1] if failures else 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:] or None))
