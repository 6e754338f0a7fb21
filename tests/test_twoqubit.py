import dataclasses
import warnings

import numpy as np
import pytest

from donorspin.model import (TWO_PI, SystemParams, charge_splitting,
                             hyperfine_expectation)
from donorspin.pulses import make_cphase_schedule, make_idle_schedule
from donorspin.twoqubit import (TwoQubitLayout, CphaseReport,
                                dipole_coupling_strength, cphase_angle,
                                simulate_two_qubit, cz_duration_search,
                                _follow_dressed_states, _weight_parts)
from donorspin.propagation import _effective_h_stack
from donorspin.pulses import CPHASE_EA_PEAK

P = SystemParams()
LAYOUT = TwoQubitLayout(params_1=P, params_2=P)
T_CZ = 414.0648784801715e-9     # quadrature CZ root at 500 nm


class TestDipoleCoupling:
    def test_reference_strength(self):
        # independent constants evaluation: e^2 d^2/(4 pi eps0 epsr r^3 hbar)
        V = dipole_coupling_strength(LAYOUT)
        assert V == pytest.approx(TWO_PI * 53.57e6, rel=2e-2)
        assert V == pytest.approx(3.3657e8, rel=1e-3)

    def test_inverse_cube_scaling(self):
        doubled = dataclasses.replace(LAYOUT, separation_r=1e-6)
        assert dipole_coupling_strength(doubled) == pytest.approx(
            dipole_coupling_strength(LAYOUT) / 8)

    def test_rejects_nonpositive_separation(self):
        with pytest.raises(ValueError):
            TwoQubitLayout(separation_r=0.0)


def _interface_weight(states, dE):
    """<psi| (|i><i| x 1_spin) |psi> = w_bar + s x from the quadrature's
    weight parts."""
    w_bar, x, s = _weight_parts(P, states, dE)
    return w_bar + s * x


class TestInterfaceWeight:
    def test_bounded(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=(30, 8)) + 1j * rng.normal(size=(30, 8))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        w = _interface_weight(v, rng.uniform(-2e4, 2e4, 30))
        assert (w >= -1e-12).all() and (w <= 1 + 1e-12).all()

    def test_idle_states_share_weight(self):
        sched = make_idle_schedule(P, 1.0)
        ts = np.array([0.0])
        up, dn, _ = _follow_dressed_states(
            _effective_h_stack(P, sched, ts, 0.0)[:, 0], ts)
        wu, wd = _interface_weight(np.stack([up[0], dn[0]]), P.dE_idle)
        assert wu == pytest.approx(wd, abs=2e-4)

    def test_square_pulse_dressed_states(self):
        # reference amplitudes: up = 0.923|g dn Up> - 0.368|e dn Up>,
        # dn = 0.711|g dn Dn> - 0.703|e dn Dn>, quoted to within 0.02.
        # The up pair's mixing is set by 2g/D: the drive coupling
        # g = Ea*de*s/4 over the up-sector detuning D ~ A*c/2 + 1 MHz. The
        # quote needs 2g/D = 0.948; at Ea = 30 V/m, g = 2pi*16.65 MHz and
        # D = 2pi*47.3 MHz give 0.704, i.e. up = (0.953, -0.302). Neither
        # factor is free: A, and c and s at this dE (through de/Vt), are
        # pinned by criteria 1a, 2 and 3, and the scale of Ea by the
        # 255.2 V/m full-drive sweep being the X gate of the echo composite
        # (theta_x = 3.094; a 4/3 larger coupling gives 2.64). So 30 V/m
        # cannot give the quote. The dn pair alone, via its residual
        # detuning over g (0.5 MHz / g), also rules out 30 V/m: it rounds
        # to the quote only for Ea in 36.5..43 V/m. All four amplitudes
        # are met at Ea = 40 V/m, the program's entangling-drive amplitude
        # CPHASE_EA_PEAK at this dE: up = (0.9296, -0.3686), dn = (0.7110,
        # -0.7031). The one residual, 0.923 vs 0.9296, is the quote's
        # normalization slip (0.923^2 + 0.368^2 = 0.988). This point, with
        # the drive 5 MHz above the dn line, is not the CZ pulse's, which
        # drives 10 MHz below it.
        from donorspin.effective import effective_hamiltonian
        dE = 2000.0
        wE = (charge_splitting(P, dE) + P.hyperfine_A / 4
              - hyperfine_expectation(P, dE) / 2 + TWO_PI * 5e6)
        Hp = effective_hamiltonian(P, dE, CPHASE_EA_PEAK, 0.0, wE,
                                   P.B0 * P.gamma_e)
        ev, vec = np.linalg.eigh(Hp)
        iu = int(np.argmax(np.abs(vec[1, :])))
        idn = int(np.argmax(np.abs(vec[0, :])))
        vu = vec[:, iu] * np.exp(-1j * np.angle(vec[1, iu]))
        vd = vec[:, idn] * np.exp(-1j * np.angle(vec[0, idn]))
        assert vd[0].real == pytest.approx(0.711, abs=0.02)
        assert vd[4].real == pytest.approx(-0.703, abs=0.02)
        assert vu[1].real == pytest.approx(0.923, abs=0.02)
        assert vu[5].real == pytest.approx(-0.368, abs=0.02)


class TestCphaseQuadrature:
    def test_idle_accumulates_nothing(self):
        sched = make_idle_schedule(P, 200e-9)
        rep = cphase_angle(LAYOUT, sched, n_samples=100)
        assert abs(rep.phi) < 1e-6

    def test_one_idling_qubit_accumulates_nothing(self):
        active = make_cphase_schedule(P, 300e-9)
        idle = make_idle_schedule(P, 300e-9)
        rep = cphase_angle(LAYOUT, active, idle, n_samples=200)
        assert abs(rep.phi) < 1e-6

    def test_report_consistency(self):
        sched = make_cphase_schedule(P, 300e-9)
        rep = cphase_angle(LAYOUT, sched, n_samples=150)
        assert rep.phases_consistent()
        assert rep.nonadiabaticity < 1e-2


class TestTwoQubitSimulation:
    def test_decoupled_limit_is_tensor_product(self):
        far = dataclasses.replace(LAYOUT, separation_r=1.0)  # V ~ 0
        sched = make_cphase_schedule(P, 200e-9)
        res = simulate_two_qubit(far, sched, dt=0.2e-9)
        assert abs((res.report.phi + np.pi) % (2 * np.pi) - np.pi) < 1e-6
        block = res.computational_block
        offdiag = block - np.diag(np.diag(block))
        assert np.abs(offdiag).max() < 1e-3
        # block equals the tensor square of the single-qubit evolution
        from donorspin.gates import composite_qubit_block
        single = composite_qubit_block(P, [sched], 0.0, "effective", 0.2e-9)
        pair = np.kron(single, single)
        phase = np.vdot(pair.ravel(), block.ravel())
        phase /= abs(phase)
        assert np.abs(block - phase * pair).max() < 1e-5

    def test_quadrature_matches_simulation_where_first_order_valid(self):
        # the adiabatic-energy quadrature is first order in the dipole
        # coefficient; at twice the separation (V/8 ~ 2pi*6.7 MHz, small
        # against every detuning) it must agree with the 64-dim oracle
        wide = dataclasses.replace(LAYOUT, separation_r=1e-6)
        T = 300e-9
        sched = make_cphase_schedule(P, T)
        quad = cphase_angle(wide, sched, n_samples=300)
        sim = simulate_two_qubit(wide, sched, dt=0.1e-9)
        assert sim.unitarity_defect < 1e-8
        diff = (sim.report.phi - quad.phi + np.pi) % (2 * np.pi) - np.pi
        assert abs(diff) < 0.05 * abs(quad.phi)
        offdiag = sim.computational_block - np.diag(
            np.diag(sim.computational_block))
        assert np.abs(offdiag).max() ** 2 < 1e-3

    def test_local_phase_removal(self):
        T = 300e-9
        wide = dataclasses.replace(LAYOUT, separation_r=1e-6)
        sched = make_cphase_schedule(P, T)
        sim = simulate_two_qubit(wide, sched, dt=0.2e-9)
        rep = sim.report
        z1 = np.exp(-0.5j * np.array([1, 1, -1, -1]) * rep.local_rz_1)
        z2 = np.exp(-0.5j * np.array([1, -1, 1, -1]) * rep.local_rz_2)
        diag = np.diag(sim.computational_block) * z1 * z2
        diag = diag / diag[0]
        assert np.abs(diag[1] - 1) < 2e-2
        assert np.abs(diag[2] - 1) < 2e-2
        wrapped = (np.angle(diag[3]) - rep.phi + np.pi) % (2 * np.pi) - np.pi
        assert abs(wrapped) < 1e-6

    def test_oracle_phase_at_cz_root(self):
        # the 64-dim oracle at the 500 nm quadrature root, zero offsets; it
        # flags its nonadiabaticity there
        sched = make_cphase_schedule(P, T_CZ)
        with pytest.warns(UserWarning, match="nonadiabaticity"):
            sim = simulate_two_qubit(LAYOUT, sched, dt=0.1e-9)
        assert sim.report.phi == pytest.approx(-3.753216686320, abs=1e-9)
        assert sim.unitarity_defect < 1e-10

    def test_noise_shifts_phase_first_order(self):
        # the 64-dim oracle with a common quasi-static offset on both qubits
        sched = make_cphase_schedule(P, 300e-9)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            base = simulate_two_qubit(LAYOUT, sched, dt=0.2e-9).report.phi
            shifted = simulate_two_qubit(LAYOUT, sched, (100.0, 100.0),
                                         dt=0.2e-9).report.phi
        slope = ((shifted - base + np.pi) % (2 * np.pi) - np.pi) / 100.0
        assert abs(slope) > 1e-5   # rad per (V/m): the gate is noise-soft


def test_cz_duration_search_brackets():
    t_cz = cz_duration_search(LAYOUT, 120e-9, 740e-9, n_samples=200)
    assert 120e-9 < t_cz < 740e-9
    sched = make_cphase_schedule(P, t_cz)
    assert abs(cphase_angle(LAYOUT, sched, n_samples=400).phi) == \
        pytest.approx(np.pi, abs=0.02)


def test_cz_root_pin():
    # the cz-search root at 500 nm (search n = 300, bracket as in
    # scripts/cz_search.py)
    t_cz = cz_duration_search(LAYOUT, 120e-9, 745e-9, n_samples=300)
    assert abs(t_cz - T_CZ) < 2e-11


def test_quadrature_phase_pin():
    rep = cphase_angle(LAYOUT, make_cphase_schedule(P, T_CZ), n_samples=400)
    assert rep.phi == pytest.approx(-3.1416119862216334, abs=1e-9)


def _per_sample_track(params, schedule, times, noise_dE, mean_field):
    """Reference: one H' and one eigh per sample, each state the
    eigenvector of largest overlap with the previous sample's."""
    from donorspin.effective import effective_hamiltonian
    dE, Ea, Ba = schedule.sample(times)
    ups, dns, worst, prev = [], [], 1.0, None
    for i in range(len(times)):
        Hp = effective_hamiltonian(params, dE[i] + noise_dE, Ea[i], Ba[i],
                                   schedule.omega_E, schedule.omega_B
                                   ) + mean_field[i]
        vec = np.linalg.eigh(Hp)[1]
        if prev is None:
            iu = int(np.argmax(np.abs(vec[1])))
            idn = int(np.argmax(np.abs(vec[0])))
        else:
            ou = np.abs(prev[0].conj() @ vec)
            od = np.abs(prev[1].conj() @ vec)
            iu, idn = int(np.argmax(ou)), int(np.argmax(od))
            worst = min(worst, ou[iu], od[idn])
        prev = (vec[:, iu] * np.exp(-1j * np.angle(vec[1, iu])),
                vec[:, idn] * np.exp(-1j * np.angle(vec[0, idn])))
        ups.append(prev[0])
        dns.append(prev[1])
    return np.array(ups), np.array(dns), worst


def test_array_tracker_matches_per_sample_tracking():
    from donorspin.operators import IDENT, TAU_Z
    from donorspin.model import orbital_mixing
    sched = make_cphase_schedule(P, 300e-9)
    ts = np.linspace(0.0, 300e-9, 120)
    c, _ = orbital_mixing(P, sched.dE_envelope(ts) + 0.5)
    mf = (dipole_coupling_strength(LAYOUT) * np.linspace(0.2, 0.6, 120)
          )[:, None, None] * (IDENT + c[:, None, None] * TAU_Z) / 2
    up, dn, overlap = _follow_dressed_states(
        _effective_h_stack(P, sched, ts, 0.5)[:, 0] + mf, ts)
    up_ref, dn_ref, worst = _per_sample_track(P, sched, ts, 0.5, mf)
    assert np.abs(up - up_ref).max() < 1e-12
    assert np.abs(dn - dn_ref).max() < 1e-12
    assert overlap == pytest.approx(worst, abs=1e-12)


def test_symmetric_pair_shares_its_track():
    # one schedule object with equal params is tracked once;
    # two equal schedule objects take the per-qubit path: same report
    sched = make_cphase_schedule(P, 300e-9)
    shared = cphase_angle(LAYOUT, sched, n_samples=200)
    apart = cphase_angle(LAYOUT, sched, make_cphase_schedule(P, 300e-9),
                         n_samples=200)
    assert dataclasses.astuple(shared) == dataclasses.astuple(apart)


def test_pair_stack_matches_kron_construction():
    from donorspin.operators import IDENT, TAU_Z, TAU_P, TAU_M
    from donorspin.model import orbital_mixing
    from donorspin.twoqubit import _pair_h_stack
    sched = make_cphase_schedule(P, 300e-9)
    tmid = np.linspace(10e-9, 290e-9, 7)
    noise = (0.4, -0.9)
    H1 = _effective_h_stack(P, sched, tmid, noise[0])[:, 0]
    H2 = _effective_h_stack(P, sched, tmid, noise[1])[:, 0]
    V = dipole_coupling_strength(LAYOUT)
    dE = sched.dE_envelope(tmid)
    got = _pair_h_stack(LAYOUT, sched, tmid, noise)
    for k in range(len(tmid)):
        c1, s1 = orbital_mixing(P, dE[k] + noise[0])
        c2, s2 = orbital_mixing(P, dE[k] + noise[1])
        ref = (np.kron(H1[k], IDENT) + np.kron(IDENT, H2[k])
               + V * np.kron((IDENT + c1 * TAU_Z) / 2, (IDENT + c2 * TAU_Z) / 2)
               + V * s1 * s2 / 4 * (np.kron(TAU_P, TAU_M)
                                    + np.kron(TAU_M, TAU_P)))
        assert np.abs(got[k] - ref).max() < 1e-15 * np.abs(ref).max()


def test_sector_run_matches_dense_run(monkeypatch):
    # the CZ pair Hamiltonian splits into nine sectors; a 1e-300 coupling
    # of every level pair (numerically nothing) forces the dense path
    import donorspin.twoqubit as tq
    from donorspin.propagation import _sectors
    sched = make_cphase_schedule(P, 100e-9)
    noise = (0.3, -0.7)
    sizes = [g.shape for g in _sectors(
        tq._pair_h_stack(LAYOUT, sched, np.array([20e-9, 50e-9]), noise))]
    assert sizes == [(4, 4), (4, 8), (1, 16)]
    with pytest.warns(UserWarning, match="nonadiabaticity"):
        split = simulate_two_qubit(LAYOUT, sched, noise, dt=0.2e-9)
    pair = tq._pair_h_stack
    monkeypatch.setattr(tq, "_pair_h_stack", lambda *a: pair(*a) + 1e-300)
    with pytest.warns(UserWarning, match="nonadiabaticity"):
        dense = simulate_two_qubit(LAYOUT, sched, noise, dt=0.2e-9)
    assert np.abs(split.propagator - dense.propagator).max() < 1e-11
    assert split.report.phi == pytest.approx(dense.report.phi, abs=1e-11)
