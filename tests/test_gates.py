import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

import donorspin.gates as gates_mod
import donorspin.twoqubit as twoqubit_mod
from donorspin.model import (TWO_PI, SystemParams, dephasing_sensitivity,
                             qubit_splitting_approx)
from donorspin.propagation import evolve, unitarity_defect
from donorspin.pulses import (make_rz_schedule, make_rx_sweep_schedule,
                              make_naive_rx_schedule, make_idle_schedule,
                              make_echo_rz_schedule, rz_ramp, ECHO_RAMP)
from donorspin.gates import (QubitGate, EulerAngles, euler_decompose,
                             gate_infidelity, rz_matrix, rx_matrix,
                             extract_qubit_gate,
                             composite_qubit_block,
                             predict_rz_angle, simulate_rz_angle,
                             rz_duration_for_angle, NoiseModel,
                             run_noise_monte_carlo, noise_sensitivity,
                             SENSITIVITY_PROBES, echo_slope,
                             echo_flat_time_for_slope,
                             build_corrected_rx, build_sweep_echo_rx,
                             calibrate_naive_resonance, calibrate_lambda,
                             RZ_T_MAX, CORRECTIVE_TOL, find_root)
from donorspin.twoqubit import TwoQubitLayout, cz_duration_search

P = SystemParams()


def compose(angles: EulerAngles) -> np.ndarray:
    return (rz_matrix(angles.theta_z1) @ rx_matrix(angles.theta_x)
            @ rz_matrix(angles.theta_z2))


angles3 = st.tuples(st.floats(0, 2 * np.pi - 1e-6),
                    st.floats(1e-3, np.pi - 1e-3),
                    st.floats(0, 2 * np.pi - 1e-6))


class TestQubitGate:
    @given(angles3)
    @settings(max_examples=200)
    def test_canonical_form(self, angs):
        U = compose(EulerAngles(*angs))
        gate = QubitGate.from_block(U * np.exp(1j * 0.7))
        assert abs(np.linalg.det(gate.matrix) - 1) < 1e-10
        ref = gate.matrix[0, 0] if abs(gate.matrix[0, 0]) > 1e-9 \
            else gate.matrix[1, 0]
        assert -np.pi / 2 < np.angle(ref) <= np.pi / 2
        assert unitarity_defect(gate.matrix) < 1e-10

    def test_polar_projection_of_subnormalized_block(self):
        U = rx_matrix(0.7) * 0.99
        gate = QubitGate.from_block(U)
        assert unitarity_defect(gate.matrix) < 1e-12
        assert gate_infidelity(gate.matrix, rx_matrix(0.7), 2) < 1e-20


class TestEulerDecomposition:
    def test_identity(self):
        ang = euler_decompose(QubitGate.from_block(np.eye(2)))
        assert ang == EulerAngles(0.0, 0.0, 0.0)

    def test_x_pi_gimbal_convention(self):
        ang = euler_decompose(QubitGate.from_block(rx_matrix(np.pi)))
        assert ang.theta_x == pytest.approx(np.pi)
        assert ang.theta_z2 == 0.0
        assert ang.theta_z1 % (2 * np.pi) == pytest.approx(0.0, abs=1e-9)

    def test_thousand_random_roundtrips(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            angs = EulerAngles(rng.uniform(0, 2 * np.pi),
                               rng.uniform(1e-3, np.pi - 1e-3),
                               rng.uniform(0, 2 * np.pi))
            got = euler_decompose(QubitGate.from_block(compose(angs)))
            recomposed = compose(got)
            target = compose(angs)
            phase = np.trace(target.conj().T @ recomposed) / 2
            assert np.abs(recomposed - phase * target).max() < 1e-8

    def test_z_rx_pi_commutation_identity(self):
        # Rz(t) Rx(pi) = Rx(pi) Rz(-t), exactly
        for t in (0.3, -1.2, 2.9):
            lhs = rz_matrix(t) @ rx_matrix(np.pi)
            rhs = rx_matrix(np.pi) @ rz_matrix(-t)
            assert np.abs(lhs - rhs).max() < 1e-15


class TestGateInfidelity:
    def test_exact_match(self):
        U = rx_matrix(0.3)
        assert gate_infidelity(U, U, 2) == pytest.approx(0.0, abs=1e-15)

    def test_global_phase_invariance(self):
        U = rz_matrix(1.1)
        assert gate_infidelity(U * np.exp(1j * 0.9), U, 2) == \
            pytest.approx(0.0, abs=1e-12)

    def test_traceless_overlap(self):
        assert gate_infidelity(rx_matrix(np.pi), np.eye(2), 2) == \
            pytest.approx(2 / 3)

    @given(st.floats(0, 2 * np.pi))
    @settings(max_examples=50)
    def test_bounded(self, t):
        val = gate_infidelity(rx_matrix(t), rz_matrix(t / 2), 2)
        assert 0 <= val <= 1


class TestPredictRzAngle:
    def test_small_time_vanishes(self):
        assert abs(predict_rz_angle(P, 1e-12)) < 1e-4

    def test_reference_durations(self):
        # reported reference points: pi at 13.560 ns, 2pi at 22.116 ns
        for T, target in ((13.560e-9, np.pi), (22.116e-9, 2 * np.pi)):
            assert abs(abs(predict_rz_angle(P, T)) - target) < 0.08

    def test_quarter_rotation(self):
        assert predict_rz_angle(P, 6.632e-9) == pytest.approx(-np.pi / 4,
                                                              abs=0.05)


def _quad_window(integrand, sched, tau):
    """Adaptive-quadrature oracle for gates._window_quadrature: quad over
    the window pieces, its relative tolerance near round-off."""
    T = sched.total_time
    return sum(quad(lambda t: integrand(float(sched.dE_envelope(t))), a, b,
                    limit=200, epsabs=0, epsrel=2e-14)[0]
               for a, b in zip((0.0, tau, T - tau), (tau, T - tau, T))
               if b > a)


class TestWindowQuadrature:
    def test_rz_angle_matches_quad(self):
        dq0 = qubit_splitting_approx(P, P.dE_idle)
        for T in np.linspace(1e-9, RZ_T_MAX, 47):
            ref = -_quad_window(lambda dE: qubit_splitting_approx(P, dE) - dq0,
                                make_rz_schedule(P, T), rz_ramp(T))
            assert abs(predict_rz_angle(P, T) - ref) <= 1e-12

    def test_echo_slope_matches_quad(self):
        for flat in np.linspace(0.0, 200e-9, 41):
            ref = _quad_window(lambda dE: -dephasing_sensitivity(P, dE),
                               make_echo_rz_schedule(P, flat), ECHO_RAMP)
            assert echo_slope(P, flat) == pytest.approx(ref, rel=1e-12)


def _random_bracket(rng):
    """(f, a, b, xtol): an increasing function with a root inside [a, b],
    from a family whose members take secant, inverse-quadratic and
    bisection steps; the bracket ends come in either order."""
    r, k = rng.uniform(-2, 2), 10 ** rng.uniform(-1, 2)
    c = rng.uniform(0, 3, 2)
    shapes = [lambda x: (x - r) * (1 + c[0] + c[1] * (x - r) ** 2),
              lambda x: np.expm1(k * (x - r)),
              lambda x: np.tanh(k * (x - r)) + 1e-3 * (x - r),
              lambda x: np.cbrt(x - r),
              lambda x: (x - r) * (1 if x < r else k)]
    f = shapes[rng.integers(len(shapes))]
    a, b = r - rng.uniform(1e-3, 3), r + rng.uniform(1e-3, 3)
    if rng.random() < 0.5:
        a, b = b, a
    return f, a, b, 10 ** rng.uniform(-15, -2)


@pytest.fixture
def roots_against_brentq(monkeypatch):
    """Has every find_root call of the package also run scipy's brentq on
    the same bracket; returns the list of (find_root, brentq) roots."""
    pairs = []

    def checked(f, a, b, xtol):
        pairs.append((find_root(f, a, b, xtol), brentq(f, a, b, xtol=xtol)))
        return pairs[-1][0]

    monkeypatch.setattr(gates_mod, "find_root", checked)
    monkeypatch.setattr(twoqubit_mod, "find_root", checked)
    return pairs


class TestFindRoot:
    """find_root is a port of scipy.optimize.brentq: the same root, bit for
    bit."""

    def test_random_brackets_match_brentq(self):
        rng = np.random.default_rng(18)
        for _ in range(300):
            f, a, b, xtol = _random_bracket(rng)
            assert find_root(f, a, b, xtol) == brentq(f, a, b, xtol=xtol)

    def test_root_at_an_end(self):
        assert find_root(lambda x: x - 1.0, 1.0, 3.0, 1e-12) == 1.0
        assert find_root(lambda x: x - 3.0, 1.0, 3.0, 1e-12) == 3.0

    def test_no_sign_change_raises(self):
        with pytest.raises(ValueError, match="different signs"):
            find_root(lambda x: x * x + 1, -1.0, 2.0, 1e-12)

    def test_nan_raises(self):
        # brentq raises on a NaN value too, rather than return a root
        def f(x):
            return np.nan if x > 0.6 else x - 0.7

        with pytest.raises(ValueError, match="NaN"):
            find_root(f, 0.0, 1.0, 1e-12)
        with pytest.raises(ValueError, match="NaN"):
            brentq(f, 0.0, 1.0, xtol=1e-12)

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(gates_mod, "ROOT_MAXITER", 2)
        with pytest.raises(RuntimeError, match="no convergence"):
            find_root(np.cbrt, -1.0, 3.0, 1e-12)
        with pytest.raises(RuntimeError):
            brentq(np.cbrt, -1.0, 3.0, xtol=1e-12, maxiter=2)

    def test_rz_duration_for_angle(self, roots_against_brentq):
        for theta in (np.pi, 2.5, -1e-8):
            rz_duration_for_angle(P, theta)
        assert len(roots_against_brentq) == 3
        assert all(got == ref for got, ref in roots_against_brentq)

    def test_lambda_for_theta(self, sweep_calibration, roots_against_brentq):
        sweep_calibration.lambda_for_theta(np.pi / 2)
        [(got, ref)] = roots_against_brentq
        assert got == ref

    def test_calibrate_naive_resonance(self, roots_against_brentq):
        calibrate_naive_resonance(P)
        [(got, ref)] = roots_against_brentq
        assert got == ref

    def test_cz_duration_search(self, roots_against_brentq):
        cz_duration_search(TwoQubitLayout(), 120e-9, 740e-9, n_samples=200)
        [(got, ref)] = roots_against_brentq
        assert got == ref


class TestExtraction:
    def test_pure_idle_identity_lab(self):
        res = evolve(P, make_idle_schedule(P, 9.3e-9), frame="lab-position",
                     dt=2e-12)
        gate, leak = extract_qubit_gate(res, P)
        assert leak < 1e-9
        assert gate_infidelity(gate.matrix, np.eye(2), 2) < 1e-10

    def test_pure_idle_identity_effective(self):
        res = evolve(P, make_idle_schedule(P, 9.3e-9), frame="effective")
        gate, leak = extract_qubit_gate(res, P)
        assert leak < 1e-9
        assert gate_infidelity(gate.matrix, np.eye(2), 2) < 1e-8

    def test_rz_pi_reference_duration(self):
        res = evolve(P, make_rz_schedule(P, 13.560e-9), frame="effective")
        gate, leak = extract_qubit_gate(res, P)
        ang = euler_decompose(gate)
        assert ang.theta_x < 1e-4
        assert abs(ang.theta_z1 - np.pi) < 0.08
        assert leak < 1e-4

    def test_leakage_threshold_rejected(self):
        res = evolve(P, make_idle_schedule(P, 1e-9), frame="effective")
        res.propagator.matrix[:] = 0.0
        with pytest.raises(ValueError, match="leakage"):
            extract_qubit_gate(res, P)


class TestRzCalibration:
    @pytest.mark.parametrize("theta", [-np.pi / 4, np.pi, 2 * np.pi - 0.05,
                                       2 * np.pi, -1e-12, -1e-8])
    def test_duration_roundtrip(self, theta):
        T = rz_duration_for_angle(P, theta)
        got = simulate_rz_angle(P, T)
        err = (got - theta + np.pi) % (2 * np.pi) - np.pi
        assert abs(err) < 2e-3

    def test_multiples_of_two_pi_are_one_full_turn(self):
        # 0, 2pi and -2pi all ask for the pulse that accumulates -2pi,
        # not for a zero-length one
        T = rz_duration_for_angle(P, -2 * np.pi)
        assert 20e-9 < T < RZ_T_MAX
        assert rz_duration_for_angle(P, 0.0) == T
        assert rz_duration_for_angle(P, 2 * np.pi) == T


class TestLambdaCalibration:
    def test_measure_reproduces_the_table(self, sweep_calibration):
        # lambda_for_theta's bracket rests on this: the two table entries
        # around theta_x are measured values on either side of the root
        cal = sweep_calibration
        for lam, theta in zip(cal.lambdas[1:], cal.thetas[1:]):
            assert cal.measure(lam) == theta

    def test_table_stops_at_first_fall(self, naive_calibration):
        # the parked gate's rotation folds back before full drive; the
        # table keeps the rising branch and ends before the first fall
        cal = naive_calibration
        grid = np.linspace(0.0, 1.0, 21)
        n = len(cal.thetas)
        assert (np.diff(cal.thetas) > 0).all()
        assert n < len(grid)
        assert np.array_equal(cal.lambdas, grid[:n])
        assert cal.measure(grid[n]) < cal.theta_max()


class TestMonteCarlo:
    def test_zero_sigma_equals_zero_noise(self):
        sched = make_rz_schedule(P, 13.560e-9)
        target = rz_matrix(simulate_rz_angle(P, 13.560e-9) - 2 * np.pi)
        model = NoiseModel(0.0, 8, seed=1)
        mc = run_noise_monte_carlo(P, [sched], target, model)
        block = composite_qubit_block(P, [sched], 0.0)
        assert mc.mean_infidelity == pytest.approx(
            gate_infidelity(block, target, 2), abs=1e-12)

    def test_bit_reproducible(self):
        sched = make_rz_schedule(P, 8e-9)
        target = np.eye(2)
        model = NoiseModel(100.0, 16, seed=7)
        a = run_noise_monte_carlo(P, [sched], target, model)
        b = run_noise_monte_carlo(P, [sched], target, model)
        assert np.array_equal(a.infidelities, b.infidelities)
        assert np.array_equal(a.samples, b.samples)

    def test_antithetic_pairing(self):
        model = NoiseModel(50.0, 10, seed=3)
        draws = model.draw()
        assert np.allclose(draws[:5], -draws[5:])

    def test_model_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(-1.0, 10)
        with pytest.raises(ValueError):
            NoiseModel(1.0, 0)


class TestNoiseSensitivity:
    def test_sweep_fit_quality(self, params, sweep_calibration):
        # each Euler angle lies within 1e-3 rad of its line over the probes
        lam = sweep_calibration.lambda_for_theta(np.pi / 2)
        sweep = make_rx_sweep_schedule(params, lam)
        sens = noise_sensitivity(params, [sweep])
        blocks = composite_qubit_block(params, [sweep], SENSITIVITY_PROBES)
        angles = [euler_decompose(QubitGate.from_block(b)) for b in blocks]
        cols = np.unwrap([(a.theta_z1, a.theta_x, a.theta_z2)
                          for a in angles], axis=0).T
        fits = [np.polyfit(SENSITIVITY_PROBES, col, 1) for col in cols]
        for col, fit in zip(cols, fits):
            assert np.abs(col - np.polyval(fit, SENSITIVITY_PROBES)).max() \
                < 1e-3
        assert [fits[0][0], fits[1][0], fits[2][0]] == [
            sens.theta_z1_prime, sens.theta_x_prime, sens.theta_z2_prime]
        assert sens.theta_z1_prime > 0
        assert sens.theta_z2_prime > 0

    def test_full_drive_slopes_equal_at_pi(self, params):
        # at theta_x = pi the two edge slopes coincide
        sens = noise_sensitivity(params,
                                 [make_rx_sweep_schedule(params, 1.0)])
        assert sens.theta_z1_prime == pytest.approx(sens.theta_z2_prime,
                                                    rel=0.15)

    def test_sweep_suppresses_x_slope(self, params, sweep_calibration,
                                      naive_calibration):
        from donorspin.gates import calibrate_naive_resonance
        theta = np.pi / 2
        lam_s = sweep_calibration.lambda_for_theta(theta)
        lam_n = naive_calibration.lambda_for_theta(theta)
        s_sweep = noise_sensitivity(params,
                                    [make_rx_sweep_schedule(params, lam_s)])
        from donorspin.gates import naive_maker
        s_naive = noise_sensitivity(params,
                                    [naive_maker(params)(params, lam_n)])
        # the sweep construction pushes the x-angle slope toward zero;
        # measured suppression vs the parked gate is ~9x at this angle
        assert abs(s_naive.theta_x_prime) > 8 * abs(s_sweep.theta_x_prime)


class TestEcho:
    def test_flat_time_for_reference_slope(self):
        # inverting the idle dephasing rate: 3.6e-3 rad/(V/m) needs ~30 ns
        t = echo_flat_time_for_slope(P, 3.6e-3)
        assert t == pytest.approx(30e-9, rel=0.15)

    def test_echo_slope_matches_simulated_probes(self):
        # quadrature oracle vs simulated linear fit of the echo schedule
        sched = make_echo_rz_schedule(P, 20e-9)
        sens = noise_sensitivity(P, [sched])
        predicted = echo_slope(P, 20e-9)
        assert sens.theta_x_0 < 1e-3
        assert sens.theta_z1_prime == pytest.approx(predicted, rel=2e-2)

    def test_slope_linear_in_flat_time(self):
        k0 = P.hyperfine_A * P.de_over_hbar / (4 * P.Vt)
        s1 = echo_slope(P, 10e-9)
        s2 = echo_slope(P, 40e-9)
        assert (s2 - s1) == pytest.approx(k0 * 30e-9, rel=1e-6)


class TestNaiveResonance:
    def test_retuned_gate_rotates(self, params, naive_omega_b,
                                  naive_calibration):
        # at the printed drive frequencies the parked gate barely rotates;
        # the retuned two-photon resonance recovers a usable rotation range
        res = evolve(params, make_naive_rx_schedule(params, 1.0),
                     frame="effective")
        gate, _ = extract_qubit_gate(res, params)
        theta_printed = euler_decompose(gate).theta_x
        assert theta_printed < 1.0
        assert naive_calibration.theta_max() > 1.5

    def test_chained_pi_gate(self, params, naive_gate_cache):
        from donorspin.gates import composite_qubit_block, gate_infidelity
        gate = naive_gate_cache(np.pi)
        block = composite_qubit_block(params, gate.segments, 0.0)
        assert gate_infidelity(block, gate.target, 2) < 1e-3


class TestComposites:
    def test_corrected_sweep_gate(self, params, sweep_calibration):
        gate = build_corrected_rx(params, np.pi / 2, sweep_calibration)
        block = composite_qubit_block(params, gate.segments, 0.0)
        assert gate_infidelity(block, gate.target, 2) < 5e-3

    def test_sweep_echo_composite_zero_noise(self, params, composite_cache):
        gate = composite_cache(np.pi / 2)
        block = composite_qubit_block(params, gate.segments, 0.0)
        assert gate_infidelity(block, gate.target, 2) < 5e-3
        assert 300e-9 < gate.total_time < 600e-9

    def test_sweep_echo_cancels_slopes(self, params, composite_cache):
        gate = composite_cache(np.pi / 2)
        sens = noise_sensitivity(params, gate.segments)
        bare = noise_sensitivity(
            params, [make_rx_sweep_schedule(params, gate.info["lambda"])])
        total_bare = abs(bare.theta_z1_prime) + abs(bare.theta_z2_prime)
        total_comp = abs(sens.theta_z1_prime) + abs(sens.theta_z2_prime)
        assert total_comp < 0.1 * total_bare

    def test_repeated_segment_is_evolved_once(self, params, composite_cache,
                                              monkeypatch):
        # the echo composite holds the same X-gate schedule object twice
        import donorspin.gates as gates_mod
        from donorspin.propagation import to_lab_orbital
        gate = composite_cache(np.pi / 2)
        distinct = {id(seg) for seg in gate.segments}
        assert len(distinct) < len(gate.segments)
        noise = np.array([-40.0, 0.0, 25.0])
        chained = np.eye(8, dtype=complex)
        for seg in gate.segments:
            res = evolve(params, seg, noise_dE=noise, frame="effective",
                         dt=0.2e-9)
            chained = np.matmul(to_lab_orbital(res, params), chained)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return evolve(*args, **kwargs)

        monkeypatch.setattr(gates_mod, "evolve", counted)
        U = gates_mod.evolve_segments(params, gate.segments, noise,
                                      "effective", 0.2e-9)
        assert len(calls) == len(distinct)
        assert np.array_equal(U, chained)

    def test_rejects_out_of_range_angle(self, params, sweep_calibration):
        with pytest.raises(ValueError):
            build_sweep_echo_rx(params, 3.3, sweep_calibration)
        with pytest.raises(ValueError):
            build_sweep_echo_rx(params, -0.1, sweep_calibration)


# schedules are compared by their envelopes sampled on this grid
FINGERPRINT_GRID = np.linspace(0.0, 1e-6, 2001)


def evolve_fingerprint(schedule, noise_dE, frame, dt):
    """What an evolve call's result depends on: the schedule's duration,
    drive frequencies and envelopes, the offsets, the frame and dt."""
    envelopes = (schedule.dE_envelope, schedule.Ea_envelope,
                 schedule.Ba_envelope)
    noise = np.asarray(noise_dE, dtype=float)
    return (schedule.total_time, schedule.omega_E, schedule.omega_B,
            *(np.asarray(env(FINGERPRINT_GRID), dtype=float).tobytes()
              for env in envelopes),
            noise.shape, noise.tobytes(), frame, dt)


@pytest.fixture(scope="module")
def noise_mc_build(params):
    """The noise-mc set-up, the lambda table and both pi/2 gates, with the
    fingerprint of every evolve call it makes."""
    calls = []

    def recorded(p, schedule, noise_dE=0.0, frame="lab-position", dt=None):
        calls.append(evolve_fingerprint(schedule, noise_dE, frame, dt))
        return evolve(p, schedule, noise_dE=noise_dE, frame=frame, dt=dt)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gates_mod, "evolve", recorded)
        cal = calibrate_lambda(
            params, lambda p, lam: make_rx_sweep_schedule(p, lam))
        gates = [build_sweep_echo_rx(params, np.pi / 2, cal),
                 build_corrected_rx(params, np.pi / 2, cal, variant="sweep")]
    return gates, calls


def _wrapped(angle):
    return (angle + np.pi) % (2 * np.pi) - np.pi


class TestBuildReuse:
    def test_no_segment_is_evolved_twice(self, noise_mc_build):
        # each distinct (schedule, offsets, frame, dt) is propagated once
        # in the whole build: the table, both root searches, the slope
        # fits, the Rz searches and every corrective readout
        _, calls = noise_mc_build
        assert len(calls) > 0
        assert len(set(calls)) == len(calls)

    def test_reuse_leaves_the_gates_unchanged(self, params, noise_mc_build):
        # composite_qubit_block evolves every segment afresh, so a stored
        # propagator attached to the wrong schedule would show here
        gates, _ = noise_mc_build
        for gate in gates:
            core = gate.segments[1:-1]
            fresh = euler_decompose(QubitGate.from_block(
                composite_qubit_block(params, core, 0.0)))
            assert (fresh.theta_z1, fresh.theta_z2, fresh.theta_x) == (
                gate.info["theta_z1"], gate.info["theta_z2"],
                gate.info["theta_x_measured"])
            whole = euler_decompose(QubitGate.from_block(
                composite_qubit_block(params, gate.segments, 0.0)))
            assert abs(_wrapped(whole.theta_z1)) < CORRECTIVE_TOL
            assert abs(_wrapped(whole.theta_z2)) < CORRECTIVE_TOL

    def test_sweep_echo_gates_share_the_probe_map(self, params, monkeypatch):
        # every sweep-echo composite on one calibration holds its lambda = 1
        # X gate, whose slope fit reads the calibration's probe map
        def sweep_cal():
            return calibrate_lambda(params, make_rx_sweep_schedule,
                                    n_points=9)

        cal, calls = sweep_cal(), []

        def counted(*args, **kwargs):
            calls.append((id(args[1]), np.shape(kwargs["noise_dE"])))
            return evolve(*args, **kwargs)

        monkeypatch.setattr(gates_mod, "evolve", counted)
        build_sweep_echo_rx(params, np.pi / 4, cal)
        second = build_sweep_echo_rx(params, np.pi / 2, cal)
        x_gate = second.segments[2]          # corrRz, echo2, X, sweep, ...
        assert calls.count((id(x_gate), SENSITIVITY_PROBES.shape)) == 1
        assert len(set(calls)) == len(calls)
        fresh = build_sweep_echo_rx(params, np.pi / 2, sweep_cal())
        assert second.info == fresh.info
        assert [s.total_time for s in second.segments] == [
            s.total_time for s in fresh.segments]
        assert np.array_equal(
            composite_qubit_block(params, second.segments, 0.0),
            composite_qubit_block(params, fresh.segments, 0.0))

    def test_recorded_angles_are_the_wrappers_returned(
            self, params, sweep_calibration, monkeypatch):
        # with one refinement the loop stops before it converges; info
        # still gives the angles of the Rz wrappers that the gate holds
        monkeypatch.setattr(gates_mod, "CORRECTIVE_ITERATIONS", 1)
        gate = build_corrected_rx(params, np.pi / 2, sweep_calibration)
        pre, post = gate.segments[0], gate.segments[-1]
        assert pre.total_time == rz_duration_for_angle(
            params, gate.info["corrective_pre"])
        assert post.total_time == rz_duration_for_angle(
            params, gate.info["corrective_post"])
