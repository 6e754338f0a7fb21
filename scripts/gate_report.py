#!/usr/bin/env python3
"""Build one noise-resistant X gate and print its full calibration report:
pulse segments, echo durations, noise slopes before/after cancellation, and
the Monte Carlo infidelity at a chosen noise strength.

Usage: python scripts/gate_report.py [theta_rad] [sigma_V_per_m]
"""
import sys

import numpy as np

from donorspin import SystemParams
from donorspin.gates import (calibrate_lambda, build_sweep_echo_rx,
                             run_noise_monte_carlo, NoiseModel)
from donorspin.pulses import make_rx_sweep_schedule


def main():
    theta = float(sys.argv[1]) if len(sys.argv) > 1 else np.pi / 2
    sigma = float(sys.argv[2]) if len(sys.argv) > 2 else 100.0
    params = SystemParams()
    print(f"calibrating sweep amplitude table ...")
    cal = calibrate_lambda(params, make_rx_sweep_schedule)
    gate = build_sweep_echo_rx(params, theta, cal)
    print(f"target Rx({theta:.4f}); composite of {len(gate.segments)} "
          f"segments, total {gate.total_time * 1e9:.1f} ns")
    for key, value in sorted(gate.info.items()):
        print(f"  {key} = {value}")
    sens = cal.probes.sensitivity(gate.segments)
    print(f"residual z slopes: {sens.theta_z1_prime:+.2e}, "
          f"{sens.theta_z2_prime:+.2e} rad/(V/m); "
          f"x slope {sens.theta_x_prime:+.2e}")
    mc = run_noise_monte_carlo(params, gate.segments, gate.target,
                               NoiseModel(sigma, 200, seed=1), dt=0.2e-9)
    print(f"mean infidelity at sigma = {sigma:.0f} V/m over 200 draws: "
          f"{mc.mean_infidelity:.3e}")


if __name__ == "__main__":
    main()
