import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from donorspin.model import TWO_PI, SystemParams, charge_splitting
from donorspin.pulses import (window, ramp, off, make_rz_schedule,
                              make_rx_sweep_schedule, make_naive_rx_schedule,
                              make_cphase_schedule, make_echo_rz_schedule,
                              make_idle_schedule, sweep_drive_frequencies,
                              SWEEP_TAU1, SWEEP_DURATION, SWEEP_EA_PEAK,
                              SWEEP_BA_PEAK)

P = SystemParams()


class TestWindow:
    def test_case_boundaries(self):
        assert window(0.0, 1.0, 10.0) == 0.0
        assert window(1.0, 1.0, 10.0) == 1.0
        assert window(10.0, 1.0, 10.0) == 0.0

    def test_half_rise(self):
        assert window(0.5, 1.0, 10.0) == pytest.approx(0.5)

    def test_outside_support(self):
        assert window(-0.1, 1.0, 10.0) == 0.0
        assert window(10.1, 1.0, 10.0) == 0.0

    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            window(1.0, 0.0, 10.0)
        with pytest.raises(ValueError):
            window(1.0, 6.0, 10.0)

    @given(st.floats(-1, 11))
    def test_bounded(self, t):
        assert 0.0 <= window(t, 2.0, 10.0) <= 1.0

    def test_smooth_junctions(self):
        # continuously differentiable where the cosine ramps meet the flat top
        def env(t):
            return window(t, 2.0, 10.0)

        for tj in (2.0, 8.0):
            h = 1e-7
            left = (env(tj) - env(tj - h)) / h
            right = (env(tj + h) - env(tj)) / h
            assert abs(left - right) < 1e-5


class TestRamp:
    def test_segment_endpoints(self):
        assert ramp(2.0, 2.0, 5.0, 7.0, -3.0, 10.0) == pytest.approx(5.0)
        assert ramp(7.0, 2.0, 5.0, 7.0, -3.0, 10.0) == pytest.approx(-3.0)

    def test_midpoint_linear(self):
        assert ramp(4.5, 2.0, 5.0, 7.0, -3.0, 10.0) == pytest.approx(1.0)

    def test_boundaries_zero(self):
        assert ramp(0.0, 2.0, 5.0, 7.0, -3.0, 10.0) == 0.0
        assert ramp(10.0, 2.0, 5.0, 7.0, -3.0, 10.0) == pytest.approx(0.0)

    def test_rejects_nonmonotone_breakpoints(self):
        with pytest.raises(ValueError):
            ramp(1.0, 5.0, 1.0, 2.0, 1.0, 10.0)


class TestRzSchedule:
    def test_long_pulse_parameters(self):
        sched = make_rz_schedule(P, 20e-9)
        assert float(sched.dE_envelope(10e-9)) == pytest.approx(-1e4)
        ts = np.linspace(0, 20e-9, 2001)
        assert float(sched.dE_envelope(ts).min()) == pytest.approx(-1e4)

    def test_short_pulse_is_shallow(self):
        sched = make_rz_schedule(P, 5e-9)
        # S = 1e4, tau = 2.5 ns
        assert float(sched.dE_envelope(2.5e-9)) == pytest.approx(0.0, abs=1e-6)

    def test_endpoints_at_idle(self):
        for T in (3e-9, 20e-9):
            sched = make_rz_schedule(P, T)
            assert float(sched.dE_envelope(0.0)) == pytest.approx(P.dE_idle)
            assert float(sched.dE_envelope(T)) == pytest.approx(P.dE_idle)
            assert not sched.driven


class TestSweepSchedule:
    def test_lambda_zero_pure_adiabatic(self):
        sched = make_rx_sweep_schedule(P, 0.0)
        assert not sched.driven
        ts = np.linspace(0, sched.total_time, 500)
        assert float(np.abs(sched.Ea_envelope(ts)).max()) == 0.0

    def test_lambda_one_peaks(self):
        sched = make_rx_sweep_schedule(P, 1.0)
        ts = np.linspace(0, sched.total_time, 4001)
        assert float(sched.Ea_envelope(ts).max()) == pytest.approx(
            255.2, rel=1e-6)
        assert float(sched.Ba_envelope(ts).max()) == pytest.approx(
            33.26e-3, rel=1e-6)

    def test_sweep_crosses_zero_at_midpoint(self):
        sched = make_rx_sweep_schedule(P, 1.0)
        tm = SWEEP_TAU1 + SWEEP_DURATION / 2
        assert float(sched.dE_envelope(tm)) == pytest.approx(0.0, abs=1e-6)

    def test_rejects_bad_lambda(self):
        with pytest.raises(ValueError):
            make_rx_sweep_schedule(P, 1.2)
        with pytest.raises(ValueError):
            make_rx_sweep_schedule(P, -0.1)

    def test_drive_frequencies(self):
        wE, wB = sweep_drive_frequencies(P)
        assert wE == pytest.approx(charge_splitting(P, 0.0) - TWO_PI * 232.428e6)
        assert wB == pytest.approx(P.B0 * P.gamma_e - P.hyperfine_A / 4
                                   - TWO_PI * 217.096e6)

    def test_total_time(self):
        assert make_rx_sweep_schedule(P, 1.0).total_time == pytest.approx(120e-9)


class TestNaiveSchedule:
    def test_field_parked_at_zero(self):
        sched = make_naive_rx_schedule(P, 1.0)
        ts = np.linspace(SWEEP_TAU1, SWEEP_TAU1 + SWEEP_DURATION, 301)
        assert np.abs(sched.dE_envelope(ts)).max() < 1e-6

    def test_endpoints_at_idle(self):
        sched = make_naive_rx_schedule(P, 0.5)
        assert float(sched.dE_envelope(0.0)) == pytest.approx(P.dE_idle)
        assert float(sched.dE_envelope(sched.total_time)) == \
            pytest.approx(P.dE_idle)


class TestCphaseSchedule:
    def test_long_pulse_amplitude(self):
        sched = make_cphase_schedule(P, 600e-9)
        ts = np.linspace(0, 600e-9, 6001)
        assert float(sched.Ea_envelope(ts).max()) == pytest.approx(
            40.0, rel=1e-4)

    def test_short_pulse_amplitude_scaled(self):
        sched = make_cphase_schedule(P, 150e-9)
        ts = np.linspace(0, 150e-9, 3001)
        assert float(sched.Ea_envelope(ts).max()) == pytest.approx(
            10.0, rel=1e-3)

    def test_no_magnetic_drive(self):
        assert make_cphase_schedule(P, 400e-9).Ba_envelope is off

    def test_rejects_too_short(self):
        with pytest.raises(ValueError):
            make_cphase_schedule(P, 9e-9)

    def test_field_parked_at_gate_value(self):
        sched = make_cphase_schedule(P, 400e-9)
        ts = np.linspace(10e-9, 390e-9, 101)
        assert np.allclose(sched.dE_envelope(ts), 2000.0, atol=1e-6)


FACTORIES = [
    lambda: make_rz_schedule(P, 13.56e-9),
    lambda: make_rx_sweep_schedule(P, 0.8),
    lambda: make_naive_rx_schedule(P, 0.8),
    lambda: make_cphase_schedule(P, 494e-9),
    lambda: make_echo_rz_schedule(P, 30e-9),
]


@pytest.mark.parametrize("factory", FACTORIES)
def test_factory_schedule_invariants(factory):
    sched = factory()
    T = sched.total_time
    assert float(sched.dE_envelope(0.0)) == pytest.approx(P.dE_idle)
    assert float(sched.dE_envelope(T)) == pytest.approx(P.dE_idle)
    assert abs(float(sched.Ea_envelope(0.0))) < 1e-9
    assert abs(float(sched.Ea_envelope(T))) < 1e-9
    assert abs(float(sched.Ba_envelope(0.0))) < 1e-12
    assert abs(float(sched.Ba_envelope(T))) < 1e-12
    # continuity and bounded slope; cosine ramps peak at pi/2 x mean slope
    ts = np.linspace(0, T, 20000)
    vals = sched.dE_envelope(ts)
    slope_bound = (np.pi / 2) * (2 * abs(P.dE_idle) + 2 * 2000.0) / 5e-9
    assert np.abs(np.diff(vals) / np.diff(ts)).max() <= slope_bound * 1.01


def _slope(env, t, h):
    """Central finite difference of env at t with step h."""
    return float(env(t + h) - env(t - h)) / (2 * h)


def test_squared_window_turns_on_gradually():
    def w(t):
        return window(t, 2.0, 10.0)

    def w2(t):
        return window(t, 2.0, 10.0) ** 2

    assert abs(_slope(w2, 1e-9, 1e-10)) < 1e-6
    assert _slope(w2, 0.05, 1e-6) < 0.05 * _slope(w, 0.05, 1e-6)


def test_sweep_ac_envelopes_flat_at_turn_on():
    # 1 ps after turn-on the squared window's slope, which grows as t**3,
    # is 1.9e-8 of a plain cosine window's of the same amplitude and timing
    # (0.04 against 2.4e6 V/m/s on E_ac); without the squaring the ratio is 1
    sched = make_rx_sweep_schedule(P, 1.0)
    h = 1e-12
    t = SWEEP_TAU1 + h
    tau2 = SWEEP_TAU1 + SWEEP_DURATION
    for env, peak in ((sched.Ea_envelope, SWEEP_EA_PEAK),
                      (sched.Ba_envelope, SWEEP_BA_PEAK)):
        def plain(t):
            return peak * window(t - SWEEP_TAU1, tau2 / 5, tau2)

        assert abs(_slope(env, t, h)) < 1e-3 * abs(_slope(plain, t, h))


@pytest.mark.parametrize("factory, driven", [
    (lambda: make_rz_schedule(P, 8e-9), False),
    (lambda: make_echo_rz_schedule(P, 30e-9), False),
    (lambda: make_idle_schedule(P, 20e-9), False),
    (lambda: make_rx_sweep_schedule(P, 0.0), False),
    (lambda: make_rx_sweep_schedule(P, 0.8), True),
    (lambda: make_naive_rx_schedule(P, 0.8), True),
    (lambda: make_cphase_schedule(P, 494e-9), True),
], ids=["rz", "echo", "idle", "sweep-lam0", "sweep", "naive", "cphase"])
def test_driven_only_with_a_drive_on(factory, driven):
    assert factory().driven is driven


def test_lab_evolve_takes_the_one_default_step():
    # driven or not, a lab schedule steps at DEFAULT_DT_LAB
    from donorspin.propagation import evolve, DEFAULT_DT_LAB
    assert evolve(P, make_rz_schedule(P, 8e-9)).step_count == round(
        8e-9 / DEFAULT_DT_LAB)
