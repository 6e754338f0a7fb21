import numpy as np
import pytest

from donorspin.model import TWO_PI, SystemParams, qubit_splitting_approx
from donorspin.operators import (DIM, QUBIT_UP_INDEX, QUBIT_DN_INDEX, S_M,
                                 S_X, S_Y, I_X, I_Y, TAU_P)
from donorspin.effective import (effective_hamiltonian, NearDegeneracyError,
                                 BLOCK_SHIFTS, hprime_text)
from donorspin.pulses import (make_rx_sweep_schedule, make_rz_schedule,
                              make_echo_rz_schedule, make_cphase_schedule,
                              make_idle_schedule, sweep_drive_frequencies,
                              idle_frequencies)
from donorspin.propagation import (evolve, propagate, _effective_h_stack,
                                   _sectors)
from donorspin.twoqubit import TwoQubitLayout, _pair_h_stack
from floquet_oracle import (rwa_hamiltonian, frequency_components,
                            reconstruct_rotating_hamiltonian,
                            exact_rotating_hamiltonian, floquet_hamiltonian,
                            build_floquet_block, CENTRAL_BLOCK)

P = SystemParams()
W_E, W_B = sweep_drive_frequencies(P)


class TestRwaHamiltonian:
    def test_zero_drive_diagonal_except_flip_flop(self):
        H = rwa_hamiltonian(P, 2000.0, 0.0, 0.0, W_E, W_B)
        off = H - np.diag(np.diag(H))
        # only the g.up.Dn <-> e.dn.Up pair couples
        mask = np.zeros((DIM, DIM), dtype=bool)
        mask[2, 5] = mask[5, 2] = True
        assert np.abs(off[~mask]).max() < 1e-6
        assert np.abs(off[2, 5]) > TWO_PI * 1e6

    def test_electric_drive_term(self):
        Ea = 100.0
        dE = 1500.0
        H1 = rwa_hamiltonian(P, dE, Ea, 0.0, W_E, W_B)
        H0 = rwa_hamiltonian(P, dE, 0.0, 0.0, W_E, W_B)
        from donorspin.model import charge_splitting
        e0 = charge_splitting(P, dE)
        expect = -Ea * P.de_over_hbar * P.Vt / (4 * e0)
        # tau_x element between g and e at fixed spins
        assert (H1 - H0)[1, 5] == pytest.approx(expect, rel=1e-12)

    def test_qubit_splitting_reproduces_approximation(self):
        for dE in np.linspace(-2e4, 2e4, 21):
            H = rwa_hamiltonian(P, dE, 0.0, 0.0, W_E, W_B)
            split = (H[QUBIT_DN_INDEX, QUBIT_DN_INDEX]
                     - H[QUBIT_UP_INDEX, QUBIT_UP_INDEX]).real + (W_E - W_B)
            assert abs(split - qubit_splitting_approx(P, dE)) < TWO_PI * 0.2e6


class TestFrequencyComponents:
    def test_magnetic_counter_rotating_term(self):
        Ba = 10e-3
        comps = {c.label: c.matrix for c in
                 frequency_components(P, 0.0, 0.0, Ba, W_E, W_B)}
        expect = Ba * P.gamma_e / 4 * (S_X - 1j * S_Y)
        assert np.abs(comps[(0, 2)] - expect).max() < 1e-9

    def test_nuclear_difference_term(self):
        Ba = 10e-3
        comps = {c.label: c.matrix for c in
                 frequency_components(P, 0.0, 0.0, Ba, W_E, W_B)}
        expect = -Ba * P.gamma_n / 4 * (I_X - 1j * I_Y)
        assert np.abs(comps[(-1, 2)] - expect).max() < 1e-9

    def test_drive_free_components_vanish_or_reduce(self):
        comps = {c.label: c.matrix for c in
                 frequency_components(P, 700.0, 0.0, 0.0, W_E, W_B)}
        assert np.abs(comps[(0, 2)]).max() == 0.0
        assert np.abs(comps[(-1, 2)]).max() == 0.0
        # the double-frequency term keeps only its hyperfine part
        from donorspin.model import charge_splitting
        s = P.Vt / charge_splitting(P, 700.0)
        hyper = -P.hyperfine_A * s / 4
        m = comps[(2, 0)]
        assert np.count_nonzero(np.abs(m) > 1e-9) == 1
        assert m[1, 6] == pytest.approx(hyper)  # g dn Up <- e up Dn

    def test_reconstruction_identity(self):
        # the harmonic sum must equal the directly transformed rotating-frame
        # Hamiltonian Lam H Lam+ - i Lam dLam/dt+ at any time
        rng = np.random.default_rng(11)
        sched = make_rx_sweep_schedule(P, 1.0)
        worst = 0.0
        for _ in range(100):
            t = rng.uniform(0, sched.total_time)
            noise = rng.uniform(-100, 100)
            dE, Ea, Ba = (float(x) for x in sched.sample(t))
            direct = exact_rotating_hamiltonian(P, sched, t, noise)
            summed = reconstruct_rotating_hamiltonian(
                P, dE + noise, Ea, Ba, sched.omega_E, sched.omega_B, t)
            worst = max(worst, np.abs(direct - summed).max()
                        / np.abs(direct).max())
        assert worst < 1e-9

    def test_reconstruction_hermitian(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            H = reconstruct_rotating_hamiltonian(
                P, rng.uniform(-2e3, 2e3), rng.uniform(0, 255),
                rng.uniform(0, 0.03), W_E, W_B, rng.uniform(0, 1e-7))
            assert np.abs(H - H.conj().T).max() < 1e-6


class TestFloquetMatrix:
    def _block(self):
        comp0 = rwa_hamiltonian(P, 0.0, 255.2, 33.26e-3, W_E, W_B)
        comps = frequency_components(P, 0.0, 255.2, 33.26e-3, W_E, W_B)
        return floquet_hamiltonian(comps, comp0, W_E, W_B), comp0, comps

    def test_hermitian(self):
        (HF, _), _, _ = self._block()
        assert np.abs(HF - HF.conj().T).max() < 1e-12 * np.abs(HF).max()

    def test_diagonal_shifts(self):
        (HF, shifts), comp0, _ = self._block()
        for r, (nE, nB) in enumerate(BLOCK_SHIFTS):
            w = nE * W_E + nB * W_B
            assert shifts[r] == pytest.approx(w)
            blk = HF[8*r:8*r+8, 8*r:8*r+8]
            scale = np.abs(HF).max()
            assert np.abs(blk - comp0 - w * np.eye(8)).max() < 1e-12 * scale

    def test_central_row_blocks(self):
        (HF, _), _, comps = self._block()
        lookup = {c.label: c.matrix for c in comps}
        r = CENTRAL_BLOCK
        for cc, (mE, mB) in enumerate(BLOCK_SHIFTS):
            if cc == r:
                continue
            blk = HF[8*r:8*r+8, 8*cc:8*cc+8]
            diff = (mE, mB)
            if diff in lookup:
                assert np.abs(blk - lookup[diff]).max() < 1e-12
            elif (-mE, -mB) in lookup:
                assert np.abs(blk - lookup[(-mE, -mB)].conj().T).max() < 1e-12

    def test_zero_drive_blocks_vanish(self):
        comp0 = rwa_hamiltonian(P, 0.0, 0.0, 0.0, W_E, W_B)
        comps = frequency_components(P, 0.0, 0.0, 0.0, W_E, W_B)
        HF, _ = floquet_hamiltonian(comps, comp0, W_E, W_B)
        # blocks built from the magnetic drive are empty
        r = CENTRAL_BLOCK
        for cc, (mE, mB) in enumerate(BLOCK_SHIFTS):
            if abs(mB) == 2:
                blk = HF[8*r:8*r+8, 8*cc:8*cc+8]
                assert np.abs(blk).max() == 0.0


class TestSchriefferWolff:
    def test_h0_plus_h1_is_rwa_hamiltonian(self):
        # zeroth plus first order reproduce the static rotating-frame part
        block = build_floquet_block(P, 0.0, 255.2, 33.26e-3, W_E, W_B)
        comp0 = rwa_hamiltonian(P, 0.0, 255.2, 33.26e-3, W_E, W_B)
        HF = block.floquet_matrix
        central = HF[32:40, 32:40]
        assert np.abs(central - comp0).max() < 1e-12

    def test_central_fast_path_equals_full_reduction(self):
        for (dE, Ea, Ba) in ((0.0, 255.2, 33.26e-3), (1e4, 0.0, 0.0),
                             (-1700.0, 120.0, 10e-3)):
            full = build_floquet_block(P, dE, Ea, Ba, W_E, W_B)
            fast = effective_hamiltonian(P, dE, Ea, Ba, W_E, W_B)
            scale = np.abs(full.effective_hamiltonian).max()
            assert np.abs(fast - full.effective_hamiltonian).max() < 1e-12 * scale

    def test_hermitian_along_sweep(self):
        sched = make_rx_sweep_schedule(P, 1.0)
        ts = np.linspace(0, sched.total_time, 40)
        dE, Ea, Ba = sched.sample(ts)
        H = effective_hamiltonian(P, dE, Ea, Ba, W_E, W_B)
        assert np.abs(H - H.conj().swapaxes(-1, -2)).max() < 1e-9

    def test_zero_drive_corrections_are_drive_independent(self):
        Hp = effective_hamiltonian(P, 1e4, 0.0, 0.0, W_E, W_B)
        comp0 = rwa_hamiltonian(P, 1e4, 0.0, 0.0, W_E, W_B)
        corr = Hp - comp0
        # corrections exist (hyperfine/gyromagnetic counter-rotating terms)
        assert np.abs(corr).max() > TWO_PI * 1.0
        # and are tiny compared to the static part
        assert np.abs(corr).max() < 1e-4 * np.abs(comp0).max()

    def test_static_sample_evolution_matches_exact(self):
        # convention-pinning oracle: a 20 ns evolution under constant
        # envelopes agrees with the exact oscillating rotating-frame
        # Hamiltonian far better than the uncorrected static part does
        dE, Ea, Ba = 0.0, 255.2, 33.26e-3
        Tp = 20e-9

        class _Const:
            omega_E, omega_B, total_time = W_E, W_B, Tp

            @staticmethod
            def sample(t):
                t = np.asarray(t, dtype=float)
                return (np.full_like(t, dE), np.full_like(t, Ea),
                        np.full_like(t, Ba))

        # propagate's chunks keep the 400,000-step stack from being built
        # whole (2.4 GB)
        n = 400000

        def h_stack(tmid):
            return reconstruct_rotating_hamiltonian(
                P, *(_Const.sample(tmid)), W_E, W_B,
                tmid[:, None, None])[:, None]

        Uex = propagate(h_stack, 0.0, Tp / n, n, 1)[0][0]

        Hp = effective_hamiltonian(P, dE, Ea, Ba, W_E, W_B)
        ev, V = np.linalg.eigh(Hp)
        Ueff = (V * np.exp(-1j * ev * Tp)) @ V.conj().T
        comp0 = rwa_hamiltonian(P, dE, Ea, Ba, W_E, W_B)
        ev0, V0 = np.linalg.eigh(comp0)
        U0 = (V0 * np.exp(-1j * ev0 * Tp)) @ V0.conj().T

        def infid(U):
            return 1 - (8 + np.abs(np.trace(Uex.conj().T @ U)) ** 2) / 72

        assert infid(Ueff) < 5e-3
        assert infid(Ueff) < 0.05 * infid(U0)

    def test_guard_fires_for_coupled_degeneracy(self):
        # a magnetic drive at the nuclear-scale frequency parks a coupled
        # shifted replica right on the target block
        wB_deg = P.B0 * P.gamma_n + P.hyperfine_A / 4
        # the message names the shifted block, for one sample or a batch
        for dE in (0.0, np.linspace(-100.0, 100.0, 5)):
            with pytest.raises(NearDegeneracyError,
                               match=r"the \(-1,0\) block"):
                effective_hamiltonian(P, dE, 0.0, 1e-3, W_E, wB_deg)

    def test_two_photon_crossing_is_third_order_and_unguarded(self):
        # at eps0 = 2 omega_E the degenerate replicas carry no second-order
        # coupling, so the reduction proceeds (and simply cannot represent
        # the sharp two-photon leakage; the schedule-level warning covers it)
        from scipy.optimize import brentq
        from donorspin.model import charge_splitting
        dE_cross = brentq(
            lambda x: charge_splitting(P, x) - 2 * W_E, 2000.0, 3000.0)
        H = effective_hamiltonian(P, dE_cross, 100.0, 20e-3, W_E, W_B)
        assert np.isfinite(H).all()

    def test_no_false_guard_for_drive_free_ramps(self):
        # shifted replicas cross undriven levels along the Rz excursion but
        # carry no coupling there; the reduction must not reject them
        wE, wB = idle_frequencies(P)
        sched = make_rz_schedule(P, 20e-9)
        ts = np.linspace(0, sched.total_time, 200)
        dE, Ea, Ba = sched.sample(ts)
        H = effective_hamiltonian(P, dE, Ea, Ba, wE, wB)
        assert np.isfinite(H).all()

    def test_smooth_in_field_across_sweep_range(self):
        # eigenvalue curves bend smoothly (levels drift by up to the orbital
        # slope ~2pi*1.8 MHz per V/m, so smoothness is a curvature bound)
        dEs = np.arange(-2500.0, 2500.0, 1.0)
        H = effective_hamiltonian(P, dEs, 120.0, 15e-3, W_E, W_B)
        ev = np.linalg.eigvalsh(H)
        assert np.abs(np.diff(ev, axis=0)).max() < TWO_PI * 2e6
        assert np.abs(np.diff(ev, 2, axis=0)).max() < TWO_PI * 0.5e6

    def test_effective_evolution_matches_lab_for_rz(self):
        from donorspin.gates import extract_qubit_gate, gate_infidelity
        sched = make_rz_schedule(P, 10e-9)
        g_lab, _ = extract_qubit_gate(
            evolve(P, sched, frame="lab-position", dt=1e-12), P)
        g_eff, _ = extract_qubit_gate(
            evolve(P, sched, frame="effective", dt=0.05e-9), P)
        assert gate_infidelity(g_eff.matrix, g_lab.matrix, 2) < 1e-6


def test_hprime_dump_structure():
    wE, wB = idle_frequencies(P)
    text = hprime_text(P, P.dE_idle, 0.0, 0.0, wE, wB)
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    assert len(lines) == DIM
    rows = []
    for ln in lines:
        toks = ln.split()[1:]
        vals = [float(t) for t in toks]
        rows.append([complex(r, i) for r, i in zip(vals[0::2], vals[1::2])])
    grid = np.array(rows)
    off = grid - np.diag(np.diag(grid))
    # dominant off-diagonal entry is the intermediate-state flip-flop pair
    idx = np.unravel_index(np.argmax(np.abs(off)), off.shape)
    assert {int(idx[0]), int(idx[1])} == {2, 5}
    assert np.abs(np.diag(grid)).max() > 10 * np.abs(off).max()


# pulses whose batched H' is pinned to the 72x72 oracle: (schedule, dE
# offsets added to its field envelope)
ORACLE_PULSES = {
    "sweep": (make_rx_sweep_schedule(P, 1.0), np.array([-300.0, 0.0, 300.0])),
    "echo": (make_echo_rz_schedule(P, 20e-9), np.zeros(1)),
    "rz": (make_rz_schedule(P, 20e-9), np.zeros(1)),
    "cphase": (make_cphase_schedule(P, 400e-9), np.zeros(1)),
}


class TestSparseReduction:
    """The sum over the coupled entries against the full Floquet build,
    and the shapes and zero patterns its callers rely on."""

    @pytest.mark.parametrize("name", sorted(ORACLE_PULSES))
    def test_batched_matches_full_floquet_oracle(self, name):
        sched, offsets = ORACLE_PULSES[name]
        ts = np.linspace(0, sched.total_time, 20)
        dE, Ea, Ba = sched.sample(ts)
        args = (P, dE[:, None] + offsets, np.asarray(Ea)[:, None],
                np.asarray(Ba)[:, None], sched.omega_E, sched.omega_B)
        fast = effective_hamiltonian(*args)
        full = build_floquet_block(*args).effective_hamiltonian
        assert fast.shape == (20, len(offsets), DIM, DIM)
        assert np.abs(fast - full).max() < 1e-12 * np.abs(full).max()

    def test_scalar_and_batched_shapes(self):
        single = effective_hamiltonian(P, -1700.0, 120.0, 10e-3, W_E, W_B)
        assert single.shape == (DIM, DIM)
        dEs = np.linspace(-1700.0, 1700.0, 4)[:, None] + np.zeros(3)
        batch = effective_hamiltonian(P, dEs, 120.0, 10e-3, W_E, W_B)
        assert batch.shape == (4, 3, DIM, DIM)
        assert np.abs(batch[0, 2] - single).max() < 1e-12 * np.abs(single).max()

    @pytest.mark.parametrize("name, split", [
        ("rz", [[[0], [1], [3], [4], [6], [7]], [[2, 5]]]),
        ("echo", [[[0], [1], [3], [4], [6], [7]], [[2, 5]]]),
        ("idle", [[[0], [1], [3], [4], [6], [7]], [[2, 5]]]),
        ("cphase", [[[0, 4], [3, 7]], [[1, 2, 5, 6]]]),
        ("sweep", [[list(range(DIM))]]),
    ])
    def test_stacks_keep_their_sector_split(self, name, split):
        # propagate steps each sector of the exact nonzero pattern on its
        # own: one stray round-off entry would merge sectors
        sched = (make_idle_schedule(P, 20e-9) if name == "idle"
                 else ORACLE_PULSES[name][0])
        ts = np.linspace(0, sched.total_time, 50)
        H = _effective_h_stack(P, sched, ts, np.array([-30.0, 0.0, 30.0]))
        assert [g.tolist() for g in _sectors(H)] == split

    def test_pair_stack_keeps_its_sector_split(self):
        # the 64-dim CZ run stays off the dense path: sectors of 4, 8, 16
        sched = ORACLE_PULSES["cphase"][0]
        ts = np.linspace(0, sched.total_time, 50)
        layout = TwoQubitLayout(params_1=P, params_2=P)
        groups = _sectors(_pair_h_stack(layout, sched, ts, (0.0, 0.0)))
        assert [g.shape for g in groups] == [(4, 4), (4, 8), (1, 16)]
