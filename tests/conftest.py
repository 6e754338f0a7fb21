import numpy as np
import pytest

from donorspin import SystemParams
from donorspin.gates import (calibrate_lambda, calibrate_naive_resonance,
                             build_sweep_echo_rx, build_corrected_rx,
                             naive_maker)
from donorspin.pulses import make_rx_sweep_schedule

@pytest.fixture(scope="session")
def params():
    return SystemParams()


@pytest.fixture(scope="session")
def sweep_calibration(params):
    return calibrate_lambda(
        params, lambda p, lam: make_rx_sweep_schedule(p, lam), n_points=9)


@pytest.fixture(scope="session")
def naive_omega_b(params):
    return calibrate_naive_resonance(params)


@pytest.fixture(scope="session")
def naive_calibration(params):
    return calibrate_lambda(params, naive_maker(params), n_points=21)


@pytest.fixture(scope="session")
def composite_cache(params, sweep_calibration):
    cache = {}

    def get(theta):
        if theta not in cache:
            cache[theta] = build_sweep_echo_rx(params, theta,
                                               sweep_calibration)
        return cache[theta]

    return get


@pytest.fixture(scope="session")
def naive_gate_cache(params, naive_calibration):
    cache = {}

    def get(theta):
        if theta not in cache:
            cache[theta] = build_corrected_rx(params, theta,
                                              naive_calibration,
                                              variant="naive")
        return cache[theta]

    return get
