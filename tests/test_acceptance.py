"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
"""
import warnings

import numpy as np
import pytest

from donorspin.model import (TWO_PI, qubit_splitting_approx, dephasing_sensitivity,
                             hyperfine_expectation, charge_splitting)
from donorspin.propagation import (evolve, lab_hamiltonian, propagate,
                                   to_lab_orbital, check_two_photon_resonance,
                                   TwoPhotonResonanceWarning,
                                   _effective_h_stack)
from donorspin.pulses import (make_rz_schedule, make_rx_sweep_schedule,
                              make_naive_rx_schedule, make_cphase_schedule,
                              make_echo_rz_schedule, make_idle_schedule)
from donorspin.gates import (extract_qubit_gate, euler_decompose, QubitGate,
                             EulerAngles, gate_infidelity, predict_rz_angle,
                             rz_duration_for_angle, rz_matrix, NoiseModel,
                             run_noise_monte_carlo, composite_qubit_block,
                             build_corrected_rx)
from donorspin.twoqubit import (TwoQubitLayout, cphase_angle,
                                cz_duration_search, simulate_two_qubit,
                                dipole_coupling_strength, _weight_parts)
from donorspin.effective import effective_hamiltonian
from floquet_oracle import (reconstruct_rotating_hamiltonian,
                            exact_rotating_hamiltonian)
from test_gates import compose

MC_DT = 0.2e-9


def report(name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


@pytest.fixture(scope="session")
def lab_sweep(params):
    sched = make_rx_sweep_schedule(params, 1.0)
    res = evolve(params, sched, frame="lab-position")
    return res


def test_criterion_1_splitting_curve(params):
    """Qubit splitting shift ~2pi*60 MHz and closed-form accuracy."""
    grid = np.linspace(-2e4, 2e4, 81)
    idle = make_idle_schedule(params, 1.0)

    def exact(dE):
        H = lab_hamiltonian(params, idle, 0.0,
                            noise_dE=dE - params.dE_idle)
        ev = np.linalg.eigvalsh(H)
        return ev[1] - ev[0]

    exact_vals = np.array([exact(dE) for dE in grid])
    approx_vals = qubit_splitting_approx(params, grid)
    shift = exact(-2e4) - exact(2e4)
    ok_shift = abs(shift - TWO_PI * 60e6) <= 0.1 * TWO_PI * 60e6
    gap = np.abs(exact_vals - approx_vals).max()
    ok_gap = gap <= TWO_PI * 0.5e6
    # second-order hyperfine flip-flop shift <A>^2 / (4 B0 (ge + gn)),
    # which the paper's first-order closed form leaves out
    flip_flop = hyperfine_expectation(params, grid) ** 2 / (
        4 * params.B0 * (params.gamma_e + params.gamma_n))
    residual = np.abs(exact_vals - approx_vals - flip_flop).max()
    report("criterion 1a (splitting shift)", ok_shift,
           f"shift = 2pi*{shift / TWO_PI / 1e6:.2f} MHz (target 60 +-10%)")
    report("criterion 1b (closed-form accuracy)", ok_gap,
           f"max |exact - approx| = 2pi*{gap / TWO_PI / 1e6:.3f} MHz "
           "(target <= 0.5); the exact splitting gains the second-order "
           "hyperfine flip-flop shift <A>^2/(4 B0 (ge + gn)), up to "
           f"2pi*{flip_flop.max() / TWO_PI / 1e6:.3f} MHz at the donor end, "
           "that the closed form lacks; with it added the largest residual "
           f"is 2pi*{residual / TWO_PI / 1e6:.3f} MHz")
    assert ok_shift
    assert ok_gap


def test_criterion_2_dephasing_sensitivity(params):
    val = abs(dephasing_sensitivity(params, params.dE_idle))
    ok = abs(val - TWO_PI * 70) <= 0.05 * TWO_PI * 70
    report("criterion 2 (dephasing sensitivity)", ok,
           f"|d dq/d dE|(idle) = 2pi*{val / TWO_PI:.2f} Hz/(V/m) "
           "(target 70 +-5%)")
    assert ok


def test_criterion_3_rz_angle_curve(params):
    ts = np.array([2e-9, 5e-9, 8e-9, 11e-9, 13.560e-9, 17e-9, 20e-9,
                   22.116e-9, 25e-9])
    worst = 0.0
    named = {}
    for T in ts:
        sched = make_rz_schedule(params, T)
        res = evolve(params, sched, frame="lab-position", dt=1e-12)
        gate, _ = extract_qubit_gate(res, params)
        sim = euler_decompose(gate).theta_z1
        pred = predict_rz_angle(params, T) % (2 * np.pi)
        gap = abs(sim - pred) % (2 * np.pi)
        gap = min(gap, 2 * np.pi - gap)
        worst = max(worst, gap)
        named[T] = sim
    ok_curve = worst <= 0.08
    d_pi = abs(named[13.560e-9] - np.pi)
    d_2pi = min(named[22.116e-9], 2 * np.pi - named[22.116e-9])
    ok_named = d_pi <= 0.08 and d_2pi <= 0.08
    report("criterion 3 (Rz angle curve)", ok_curve and ok_named,
           f"max sim-vs-quadrature gap = {worst:.4f} rad; "
           f"theta(13.560 ns) = {named[13.560e-9]:.4f} (pi +-0.08), "
           f"theta(22.116 ns) = {named[22.116e-9]:.4f} mod 2pi (0 +-0.08)")
    assert ok_curve
    assert ok_named


def test_criterion_4_rz_noise(params):
    results = {}
    for theta in (-np.pi / 4, np.pi, -2 * np.pi):
        sched = make_rz_schedule(params, rz_duration_for_angle(params, theta))
        model = NoiseModel(100.0, 200, seed=2024)
        mc = run_noise_monte_carlo(params, [sched], rz_matrix(theta), model,
                                   dt=MC_DT)
        results[theta] = mc.mean_infidelity
    ok = all(v < 1e-4 for v in results.values())
    report("criterion 4 (Rz noise)", ok,
           "mean infidelity at sigma = 100 V/m, 200 samples: "
           + ", ".join(f"{t:+.3f} rad -> {v:.2e}" for t, v in results.items())
           + " (target < 1e-4 each)")
    assert ok


def test_criterion_5_effective_vs_lab(params, lab_sweep):
    g_lab, _ = extract_qubit_gate(lab_sweep, params)
    sched = make_rx_sweep_schedule(params, 1.0)
    eff = evolve(params, sched, frame="effective", dt=0.05e-9)
    g_eff, _ = extract_qubit_gate(eff, params)
    infid = gate_infidelity(g_eff.matrix, g_lab.matrix, 2)
    ok = infid < 1e-4
    report("criterion 5 (effective-Hamiltonian validity)", ok,
           f"lab-vs-effective sweep-gate infidelity = {infid:.2e} "
           "(target < 1e-4, i.e. fidelity > 0.9999)")
    assert ok


def test_criterion_6_sweep_leakage_and_guard(params, lab_sweep):
    _, leak = extract_qubit_gate(lab_sweep, params)
    ok_leak = leak <= 1e-4
    default_sched = make_rx_sweep_schedule(params, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", TwoPhotonResonanceWarning)
        silent = not check_two_photon_resonance(params, default_sched)
    wide = make_rx_sweep_schedule(params, 1.0, sweep_range=3000.0)
    with pytest.warns(TwoPhotonResonanceWarning):
        fired = check_two_photon_resonance(params, wide)
    ok_guard = silent and fired
    report("criterion 6 (sweep leakage and two-photon guard)",
           ok_leak and ok_guard,
           f"lab-frame sweep leakage = {leak:.2e} (target <= 1e-4); "
           f"guard silent at +-2000 V/m, fired at +-3000 V/m: "
           f"{silent and fired}")
    assert ok_leak
    assert ok_guard


def test_criterion_7_noise_resistance_ordering(params, sweep_calibration,
                                               composite_cache,
                                               naive_gate_cache):
    model = NoiseModel(100.0, 200, seed=77)
    lines = []
    ok = True
    for theta in (np.pi / 4, np.pi / 2, 3 * np.pi / 4):
        comp = composite_cache(theta)
        mc_c = run_noise_monte_carlo(params, comp.segments, comp.target,
                                     model, dt=MC_DT)
        nai = naive_gate_cache(theta)
        mc_n = run_noise_monte_carlo(params, nai.segments, nai.target,
                                     model, dt=MC_DT)
        ratio = mc_n.mean_infidelity / mc_c.mean_infidelity
        ok_here = mc_c.mean_infidelity <= 2e-3 and ratio >= 10
        ok = ok and ok_here
        lines.append(f"theta={theta:.3f}: composite {mc_c.mean_infidelity:.2e}"
                     f" vs parked {mc_n.mean_infidelity:.2e} ({ratio:.0f}x)")
    sweep_pi = build_corrected_rx(params, np.pi, sweep_calibration,
                                  variant="sweep")
    mc_pi = run_noise_monte_carlo(params, sweep_pi.segments, sweep_pi.target,
                                  model, dt=MC_DT)
    ok_pi = mc_pi.mean_infidelity <= 2e-3
    ok = ok and ok_pi
    lines.append(f"theta=pi bare sweep: {mc_pi.mean_infidelity:.2e}")
    report("criterion 7 (noise-resistance ordering)", ok,
           "; ".join(lines) + " (targets: composite <= 2e-3, >= 10x)")
    assert ok


def test_criterion_7_lab_spot_checks(params, composite_cache):
    # effective-frame Monte Carlo validated against the lab frame at three
    # quasi-static offsets
    comp = composite_cache(np.pi / 2)
    diffs = []
    for dE in (-100.0, 0.0, 100.0):
        b_eff = composite_qubit_block(params, comp.segments, dE,
                                      frame="effective", dt=MC_DT)
        b_lab = composite_qubit_block(params, comp.segments, dE,
                                      frame="lab-position")
        i_eff = gate_infidelity(b_eff, comp.target, 2)
        i_lab = gate_infidelity(b_lab, comp.target, 2)
        diffs.append((dE, i_eff, i_lab))
    ok = all(abs(a - b) <= max(3e-4, 0.25 * max(a, b))
             for _, a, b in diffs)
    report("criterion 7 (lab spot checks)", ok,
           "; ".join(f"dE={d:+.0f}: eff {a:.2e} lab {b:.2e}"
                     for d, a, b in diffs))
    assert ok


@pytest.fixture(scope="session")
def layout(params):
    return TwoQubitLayout(params_1=params, params_2=params)


def test_criterion_8a_square_pulse_rate(params, layout):
    # the working point at which the quoted dressed states are reproduced
    # (tests/test_twoqubit.py, test_square_pulse_dressed_states)
    from donorspin.pulses import CPHASE_EA_PEAK
    # 5 MHz above the dn-state orbital transition at dE = 2000 V/m
    wE = (charge_splitting(params, 2000.0) + params.hyperfine_A / 4
          - hyperfine_expectation(params, 2000.0) / 2 + TWO_PI * 5e6)
    V = dipole_coupling_strength(layout)

    def rates(Ea):
        Hp = effective_hamiltonian(params, 2000.0, Ea, 0.0, wE,
                                   params.B0 * params.gamma_e)
        ev, vec = np.linalg.eigh(Hp)
        iu = int(np.argmax(np.abs(vec[1, :])))
        idn = int(np.argmax(np.abs(vec[0, :])))
        wu, xu, s = _weight_parts(params, vec[:, iu], 2000.0)
        wd, xd, _ = _weight_parts(params, vec[:, idn], 2000.0)
        consistent = V * ((wu - wd) ** 2 + s * s / 2 * (xu - xd) ** 2)
        # the rotating-frame weight (1 + c<tz> + s<tx>)/2 taken as static,
        # with the sign of the <tx> term flipped
        flipped = V * ((wu - wd) - s * (xu - xd)) ** 2
        return consistent, flipped

    rate, flipped = rates(CPHASE_EA_PEAK)
    _, flipped_reversed = rates(-CPHASE_EA_PEAK)
    rate_30, _ = rates(30.0)
    ok = abs(rate - TWO_PI * 1.9e6) <= 0.1 * TWO_PI * 1.9e6
    report("criterion 8a (square-pulse rate)", ok,
           f"|phi|/T = 2pi*{rate / TWO_PI / 1e6:.3f} MHz at Ea = "
           f"{CPHASE_EA_PEAK:g} V/m (target 1.9 +-10%), from the consistent "
           "time-averaged pair energy (2pi*"
           f"{rate_30 / TWO_PI / 1e6:.3f} MHz at 30 V/m). The reference "
           "1.9 MHz is reproduced "
           "only by taking the interface weight as static with the sign of "
           f"its <tau_x> term flipped (2pi*{flipped / TWO_PI / 1e6:.3f} MHz); "
           "that evaluation depends on the drive phase, giving "
           f"2pi*{flipped_reversed / TWO_PI / 1e6:.3f} MHz with the drive "
           "sign reversed, so it is not a physical rate")
    assert ok


def test_criterion_8b_cz_duration(params, layout):
    t_cz = cz_duration_search(layout, 120e-9, 745e-9, n_samples=300)
    ok = abs(t_cz - 494e-9) <= 0.05 * 494e-9
    # one 64-dim cross-check run at the found duration
    sched = make_cphase_schedule(params, t_cz)
    quad = cphase_angle(layout, sched, n_samples=400)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sim = simulate_two_qubit(layout, sched, dt=0.1e-9)
    circ = (sim.report.phi - quad.phi + np.pi) % (2 * np.pi) - np.pi
    report("criterion 8b (CZ duration)", ok,
           f"|phi| = pi at T = {t_cz * 1e9:.1f} ns (target 494 +-5%); "
           f"64-dim cross-check: quadrature {quad.phi:+.3f} vs simulated "
           f"{sim.report.phi:+.3f} rad (circular gap {circ:+.3f}, "
           f"nonadiabaticity {sim.report.nonadiabaticity:.1e}); the "
           "quadrature is first-order in the dipole coupling, which is "
           "not small against the 10 MHz detuning at 500 nm separation")
    assert ok


def test_criterion_8c_idle_no_entanglement(params, layout):
    idle = make_idle_schedule(params, 300e-9)
    rep_idle = cphase_angle(layout, idle, n_samples=150)
    active = make_cphase_schedule(params, 300e-9)
    rep_half = cphase_angle(layout, active, idle, n_samples=150)
    ok = abs(rep_idle.phi) < 1e-6 and abs(rep_half.phi) < 1e-6
    report("criterion 8c (idle accumulates no entangling phase)", ok,
           f"both idle |phi| = {abs(rep_idle.phi):.1e}, one idle |phi| = "
           f"{abs(rep_half.phi):.1e} (target < 1e-6 rad)")
    assert ok


def test_criterion_8d_arbitrary_phase_reachable(params, layout):
    ts = np.linspace(150e-9, 745e-9, 7)
    phis = []
    for T in ts:
        sched = make_cphase_schedule(params, T)
        phis.append(abs(cphase_angle(layout, sched, n_samples=200).phi))
    phis = np.array(phis)
    monotone = (np.diff(phis) > -1e-3).all()
    ok = monotone and phis.max() >= np.pi
    report("criterion 8d (arbitrary phase below 750 ns)", ok,
           f"|phi| rises monotonically to {phis.max():.2f} rad by "
           f"{ts[-1] * 1e9:.0f} ns (needs pi = 3.14)")
    assert ok


def test_criterion_9_property_suites(params):
    rng = np.random.default_rng(99)
    notes = []

    # Hermiticity of sampled Hamiltonians and unitarity of propagators
    factories = [make_rz_schedule(params, 13.56e-9),
                 make_rx_sweep_schedule(params, 0.8),
                 make_naive_rx_schedule(params, 0.25),
                 make_cphase_schedule(params, 300e-9),
                 make_echo_rz_schedule(params, 25e-9)]
    herm_ok = True
    unit_ok = True
    for sched in factories:
        for t in rng.uniform(0, sched.total_time, 5):
            H = lab_hamiltonian(params, sched, t)
            herm_ok &= (np.abs(H - H.conj().T).max()
                        < 1e-12 * np.abs(H).max())
        res = evolve(params, sched, frame="effective", dt=0.1e-9)
        unit_ok &= res.max_unitarity_defect < 1e-8
    notes.append(f"hermiticity/unitarity on {len(factories)} schedules: "
                 f"{herm_ok and unit_ok}")

    # semigroup composition
    sched = factories[1]
    dt = 0.05e-9
    full = evolve(params, sched, frame="effective", dt=dt).propagator.matrix
    n_half = int(round(60e-9 / dt))
    halves = [propagate(lambda tm: _effective_h_stack(params, sched, tm, 0.0),
                        a, (b - a) / n_half, n_half, 1)[0][0]
              for a, b in ((0.0, 60e-9), (60e-9, 120e-9))]
    semi = np.linalg.norm(halves[1] @ halves[0] - full, 2)
    semi_ok = semi < 1e-9
    notes.append(f"semigroup defect {semi:.1e}")

    # dt convergence of a reported gate angle
    angles = []
    for dtv in (0.05e-9, 0.025e-9):
        res = evolve(params, sched, frame="effective", dt=dtv)
        angles.append(euler_decompose(extract_qubit_gate(res, params)[0]).theta_x)
    conv_ok = abs(angles[0] - angles[1]) < 1e-4
    notes.append(f"dt-halving angle change {abs(angles[0] - angles[1]):.1e}")

    # Euler roundtrip on 1000 random gates
    euler_ok = True
    for _ in range(1000):
        angs = EulerAngles(rng.uniform(0, 2 * np.pi),
                           rng.uniform(1e-3, np.pi - 1e-3),
                           rng.uniform(0, 2 * np.pi))
        target = compose(angs)
        got = compose(euler_decompose(QubitGate.from_block(target)))
        phase = np.trace(target.conj().T @ got) / 2
        euler_ok &= np.abs(got - phase * target).max() < 1e-8
    notes.append(f"euler roundtrip x1000: {euler_ok}")

    # Monte Carlo determinism
    model = NoiseModel(80.0, 32, seed=5)
    rz = make_rz_schedule(params, 10e-9)
    a = run_noise_monte_carlo(params, [rz], np.eye(2), model, dt=MC_DT)
    b = run_noise_monte_carlo(params, [rz], np.eye(2), model, dt=MC_DT)
    mc_ok = np.array_equal(a.infidelities, b.infidelities)
    notes.append(f"MC bit-reproducible: {mc_ok}")

    # harmonic reconstruction identity at 100 random times
    sweep = make_rx_sweep_schedule(params, 1.0)
    worst = 0.0
    for _ in range(100):
        t = rng.uniform(0, sweep.total_time)
        dE, Ea, Ba = (float(x) for x in sweep.sample(t))
        direct = exact_rotating_hamiltonian(params, sweep, t)
        summed = reconstruct_rotating_hamiltonian(
            params, dE, Ea, Ba, sweep.omega_E, sweep.omega_B, t)
        worst = max(worst, np.abs(direct - summed).max()
                    / np.abs(direct).max())
    recon_ok = worst < 1e-9
    notes.append(f"harmonic reconstruction worst rel err {worst:.1e}")

    ok = (herm_ok and unit_ok and semi_ok and conv_ok and euler_ok
          and mc_ok and recon_ok)
    report("criterion 9 (property suites)", ok, "; ".join(notes))
    assert ok
