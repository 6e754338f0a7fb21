import math

import numpy as np
import pytest

from donorspin.model import SystemParams, charge_splitting
from donorspin.operators import DIM, orbital_transform
from donorspin.propagation import (EvolutionResult, OperatorMatrix, evolve,
                                   lab_hamiltonian, unitarity_defect,
                                   leakage, to_lab_orbital, propagate,
                                   check_two_photon_resonance,
                                   TwoPhotonResonanceWarning,
                                   _position_h_stack, _effective_h_stack,
                                   _ordered_product, _sectors,
                                   _step_unitaries, STEP_THETA)
from donorspin.pulses import (make_rz_schedule, make_rx_sweep_schedule,
                              make_idle_schedule, make_cphase_schedule)
from donorspin.twoqubit import TwoQubitLayout, _pair_h_stack

P = SystemParams()


class TestLabHamiltonian:
    def test_hermitian_at_random_times(self):
        sched = make_rx_sweep_schedule(P, 1.0)
        rng = np.random.default_rng(3)
        for t in rng.uniform(0, sched.total_time, 50):
            H = lab_hamiltonian(P, sched, t, noise_dE=37.0)
            assert np.abs(H - H.conj().T).max() < 1e-12 * np.abs(H).max()

    def test_decoupled_spectrum_without_couplings(self):
        # A = 0 and delta_gamma = 0 leave a tensor sum of three two-level
        # systems: eigenvalues +-eps0/2 +- B0 ge/2 -+ B0 gn/2
        import dataclasses
        p0 = dataclasses.replace(P, hyperfine_A=1e-300, delta_gamma=0.0)
        sched = make_idle_schedule(p0, 1.0)
        H = lab_hamiltonian(p0, sched, 0.0)
        ev = np.sort(np.linalg.eigvalsh(H))
        e0 = charge_splitting(p0, p0.dE_idle)
        expect = np.sort([orb * e0 / 2 + se * p0.B0 * p0.gamma_e / 2
                          - sn * p0.B0 * p0.gamma_n / 2
                          for orb in (-1, 1) for se in (-1, 1)
                          for sn in (-1, 1)])
        assert np.allclose(ev, expect, rtol=1e-12)

    def test_hyperfine_flip_flop_element_on_donor(self):
        # <d up Dn| H_A |d dn Up> = A/2 when the electron sits on the donor
        sched = make_idle_schedule(P, 1.0)
        H = lab_hamiltonian(P, sched, 0.0)
        # position basis indices: d up Dn = 6, d dn Up = 5
        assert H[6, 5] == pytest.approx(P.hyperfine_A / 2)


def _orbital_basis(p, H_position):
    """Lambda H Lambda^dag at the idle field of p."""
    lam = orbital_transform(p, p.dE_idle)
    return lam @ H_position @ lam.conj().T


class TestOrbitalTransform:
    def test_large_field_limit_identity(self):
        lam = orbital_transform(P, 1e9)
        assert np.allclose(lam, np.eye(DIM), atol=1e-4)

    def test_equal_mixing_at_ionization(self):
        lam = orbital_transform(P, 0.0)
        # |<i|g>|^2 = 1/2 at the ionization point
        assert abs(lam[0, 0]) ** 2 == pytest.approx(0.5)

    def test_unitary(self):
        for dE in (-2e4, -137.0, 0.0, 5e3, 1e4):
            lam = orbital_transform(P, dE)
            assert np.abs(lam.conj().T @ lam - np.eye(DIM)).max() < 1e-14

    def test_broadcasts_over_field_arrays(self):
        dE = np.array([[-2e4, 0.0], [137.0, 1e4]])
        lam = orbital_transform(P, dE)
        assert lam.shape == (2, 2, DIM, DIM)
        for idx in np.ndindex(dE.shape):
            assert np.abs(lam[idx] - orbital_transform(P, dE[idx])).max() < 1e-15
        assert unitarity_defect(lam).max() < 1e-14

    def test_orbital_basis_diagonalizes_charge_part(self):
        # the spin trace of the lab Hamiltonian is its charge part; in the
        # orbital basis that is -eps0/2 tau_z at any static field
        for dE in (-2e4, 0.0, 3e3):
            p = SystemParams(dE_idle=dE)
            Ho = _orbital_basis(p, lab_hamiltonian(
                p, make_idle_schedule(p, 1.0), 0.0))
            charge = np.einsum("aibi->ab", Ho.reshape(2, 4, 2, 4)) / 4
            e0 = charge_splitting(p, dE)
            assert np.abs(charge - np.diag([-e0 / 2, e0 / 2])).max() < 1e-12 * e0

    def test_diagonalizes_static_orbital_part(self):
        # reference without orbital_transform: diagonalize the charge part
        # (spin trace) of the position-basis H; the orbital basis is its
        # eigenbasis, g (energy -eps0/2) first, phased so that g has a real
        # non-negative interface and e a real non-negative donor amplitude
        for dE in (-2e4, 0.0, 3e3, P.dE_idle):
            p = SystemParams(dE_idle=dE)
            sched = make_idle_schedule(p, 1.0)
            Hp = lab_hamiltonian(p, sched, 0.0)
            Ho = _orbital_basis(p, Hp)
            charge = np.einsum("aibi->ab", Hp.reshape(2, 4, 2, 4)) / 4
            ev, vecs = np.linalg.eigh(charge)
            g, e = vecs[:, 0], vecs[:, 1]
            g = g * np.exp(-1j * np.angle(g[0]))
            e = e * np.exp(-1j * np.angle(e[1]))
            rows = np.kron(np.stack([g, e]).conj(), np.eye(4))
            ref = rows @ Hp @ rows.conj().T
            scale = np.abs(Hp).max()
            assert np.abs(Ho - ref).max() < 1e-12 * scale
            e0 = charge_splitting(p, dE)
            assert ev == pytest.approx([-e0 / 2, e0 / 2], rel=1e-12)


class TestEvolve:
    def test_static_idle_commutes_and_leaks_nothing(self):
        from donorspin.gates import extract_qubit_gate
        sched = make_idle_schedule(P, 7e-9)
        res = evolve(P, sched, frame="lab-position", dt=2e-12)
        H = lab_hamiltonian(P, sched, 0.0)
        U = res.propagator.matrix
        assert np.abs(U @ H - H @ U).max() / np.abs(H).max() < 1e-9
        gate, leak = extract_qubit_gate(res, P)
        assert leak < 1e-10
        assert np.abs(gate.matrix - np.eye(2)).max() < 1e-7

    def test_unitarity(self):
        sched = make_rz_schedule(P, 8e-9)
        res = evolve(P, sched, frame="lab-position")
        assert res.max_unitarity_defect < 1e-8
        assert res.valid

    def test_invalid_result_is_not_extracted(self):
        # a propagator with a unitarity defect of 1e-6 is refused where it
        # is used, and validity follows the recorded defect
        from donorspin.gates import extract_qubit_gate
        sched = make_rz_schedule(P, 8e-9)
        res = EvolutionResult(OperatorMatrix(np.eye(8, dtype=complex)),
                              "lab-position", 1, 1e-6, sched)
        assert not res.valid
        with pytest.raises(ValueError, match="unitarity defect 1.00e-06"):
            extract_qubit_gate(res, P)
        with pytest.raises(AttributeError):
            res.valid = True

    def test_semigroup_composition(self):
        sched = make_rz_schedule(P, 8e-9)
        dt = 1e-12
        full = evolve(P, sched, frame="lab-position", dt=dt).propagator.matrix
        def h_stack(tmid):
            return _position_h_stack(P, sched, tmid, 0.0)
        n = int(round(4e-9 / dt))
        first, second = (propagate(h_stack, a, (b - a) / n, n, 1)[0][0]
                         for a, b in ((0.0, 4e-9), (4e-9, 8e-9)))
        assert np.linalg.norm(second @ first - full, 2) < 1e-9

    def test_dt_convergence_of_gate_angle(self):
        from donorspin.gates import extract_qubit_gate, euler_decompose
        sched = make_rz_schedule(P, 6e-9)
        angles = []
        for dt in (1e-12, 0.5e-12):
            res = evolve(P, sched, frame="lab-position", dt=dt)
            gate, _ = extract_qubit_gate(res, P)
            angles.append(euler_decompose(gate).theta_z1)
        assert abs(angles[0] - angles[1]) < 1e-4

    def test_batched_noise_matches_scalar_runs(self):
        sched = make_rz_schedule(P, 5e-9)
        noise = np.array([-50.0, 0.0, 80.0])
        batch = evolve(P, sched, noise_dE=noise, frame="lab-position",
                       dt=2e-12).propagator.matrix
        for i, dn in enumerate(noise):
            single = evolve(P, sched, noise_dE=float(dn),
                            frame="lab-position", dt=2e-12).propagator.matrix
            assert np.abs(batch[i] - single).max() < 1e-12

    def test_rejects_unknown_frame(self):
        with pytest.raises(ValueError):
            evolve(P, make_idle_schedule(P, 1e-9), frame="interaction")


class TestLeakage:
    def test_block_diagonal_is_leakless(self):
        U = np.zeros((DIM, DIM), dtype=complex)
        U[:2, :2] = np.array([[0, 1], [1, 0]])
        U[2:, 2:] = np.eye(6)
        assert leakage(U) == pytest.approx(0.0)

    def test_full_swap_leaks_half(self):
        U = np.eye(DIM, dtype=complex)
        U[[0, 5], [0, 5]] = 0
        U[0, 5] = U[5, 0] = 1.0
        assert leakage(U) == pytest.approx(0.5)

    def test_per_item_values_on_a_batch(self):
        swap = np.eye(DIM, dtype=complex)
        swap[[0, 5], [0, 5]] = 0
        swap[0, 5] = swap[5, 0] = 1.0
        batch = np.stack([np.eye(DIM, dtype=complex), swap])
        lk = leakage(batch)
        assert lk.shape == (2,)
        assert lk == pytest.approx([0.0, 0.5])
        assert isinstance(leakage(swap), float)


class TestUnitarityDefect:
    def test_per_item_values_on_a_batch(self):
        scale = np.array([1.0, 1.0 + 1e-3])
        batch = scale[:, None, None] * np.eye(DIM, dtype=complex)
        defect = unitarity_defect(batch)
        assert defect.shape == (2,)
        assert defect == pytest.approx(scale**2 - 1, abs=1e-15)
        assert isinstance(unitarity_defect(batch[1]), float)


class TestTwoPhotonGuard:
    def test_silent_for_default_sweep(self):
        import warnings as w
        sched = make_rx_sweep_schedule(P, 1.0)
        with w.catch_warnings():
            w.simplefilter("error", TwoPhotonResonanceWarning)
            assert check_two_photon_resonance(P, sched) is False

    def test_fires_for_widened_sweep(self):
        sched = make_rx_sweep_schedule(P, 1.0, sweep_range=3000.0)
        with pytest.warns(TwoPhotonResonanceWarning):
            assert check_two_photon_resonance(P, sched) is True

    def test_silent_without_drive(self):
        sched = make_rz_schedule(P, 20e-9)
        assert check_two_photon_resonance(P, sched) is False

    def test_evolve_checks_driven_schedules(self):
        # the guard runs where a propagator is made, not only where a test
        # asks for it
        sched = make_rx_sweep_schedule(P, 1.0, sweep_range=3000.0)
        with pytest.warns(TwoPhotonResonanceWarning):
            evolve(P, sched, frame="effective", dt=1e-9)


# the S_z + I_z sectors of one qubit: non-contiguous level sets
SECTORS = ([0, 4], [3, 7], [1, 2, 5, 6])


def _random_stack(rng, shape, sectors):
    """Random Hermitian (..., 8, 8) stack, exactly zero outside the
    diagonal blocks of `sectors`."""
    H = np.zeros(shape + (DIM, DIM), dtype=complex)
    for idx in sectors:
        size = shape + (len(idx), len(idx))
        A = rng.normal(size=size) + 1j * rng.normal(size=size)
        rows, cols = np.ix_(idx, idx)
        H[..., rows, cols] = A + A.conj().swapaxes(-1, -2)
    return H


def _stack_of(H, t0, dt):
    """h_stack callable serving the precomputed steps H[i] at midpoints."""
    def h_stack(tmid):
        return H[np.rint((tmid - t0) / dt - 0.5).astype(int)]
    return h_stack


def _dense_reference(H, dt):
    """Step-by-step product of exp(-i H dt) from full 8x8 eigh."""
    U = np.broadcast_to(np.eye(DIM, dtype=complex), H.shape[1:]).copy()
    for Hk in H:
        ev, V = np.linalg.eigh(Hk)
        U = (V * np.exp(-1j * ev * dt)[..., None, :]) @ V.conj().swapaxes(-1, -2) @ U
    return U


class TestStepKernel:
    @pytest.mark.parametrize("theta", [1e-3, 0.3, 0.43, 3.0, 30.0])
    @pytest.mark.parametrize("kind", ["real", "complex", "diagonal"])
    def test_each_step_matches_eigh(self, theta, kind):
        # theta is the stack's largest 1-norm of H dt: from no halving
        # (s = 0) to s = 7; each halving may double the round-off. A
        # diagonal stack's spectral norm is its 1-norm, so at theta = 0.43,
        # just below STEP_THETA, it shows any missing series term
        rng = np.random.default_rng(21)
        if kind == "diagonal":
            H = rng.normal(size=(40, 3, DIM))[..., None] * np.eye(DIM)
        else:
            X = rng.normal(size=(40, 3, DIM, DIM))
            if kind == "complex":
                X = X + 1j * rng.normal(size=X.shape)
            H = X + X.conj().swapaxes(-1, -2)
        dt = theta / np.linalg.norm(H, 1, axis=(-2, -1)).max()
        s = max(0, math.ceil(math.log2(theta / STEP_THETA)))
        assert s == {1e-3: 0, 0.3: 0, 0.43: 0, 3.0: 3, 30.0: 7}[theta]
        U = _step_unitaries(H, dt)
        ev, V = np.linalg.eigh(H)
        ref = ((V * np.exp(-1j * ev * dt)[..., None, :])
               @ V.conj().swapaxes(-1, -2))
        assert np.abs(U - ref).max() < 2e-14 * 2**s
        assert unitarity_defect(U).max() < 1e-12

    def test_hamiltonian_stacks_are_real(self):
        # the kernel's real arithmetic rests on every builder returning
        # float64 stacks
        sched = make_rx_sweep_schedule(P, 1.0)
        tmid = np.linspace(0.0, sched.total_time, 9)
        noise = np.array([0.0, 30.0])
        assert _position_h_stack(P, sched, tmid, noise).dtype == np.float64
        assert _effective_h_stack(P, sched, tmid, noise).dtype == np.float64
        cz = make_cphase_schedule(P, 400e-9)
        pair = _pair_h_stack(TwoQubitLayout(), cz,
                             np.linspace(0.0, cz.total_time, 9), (0.3, -0.7))
        assert pair.dtype == np.float64


class TestSectors:
    def test_non_contiguous_sectors_match_dense_reference(self):
        rng = np.random.default_rng(11)
        n, nbatch, dt, t0 = 37, 3, 0.13, 2.0
        H = _random_stack(rng, (n, nbatch), SECTORS)
        assert [g.tolist() for g in _sectors(H)] == [[[0, 4], [3, 7]],
                                                     [[1, 2, 5, 6]]]
        U, defect = propagate(_stack_of(H, t0, dt), t0, dt, n, nbatch)
        assert np.abs(U - _dense_reference(H, dt)).max() < 1e-12
        assert defect < 1e-12
        # no amplitude crosses a sector
        outside = np.ones((DIM, DIM), dtype=bool)
        for idx in SECTORS:
            outside[np.ix_(idx, idx)] = False
        assert np.all(U[:, outside] == 0)

    def test_tiny_entry_merges_sectors(self):
        # the pattern has no tolerance: one 1e-300 coupling in one step of
        # one batch item joins {0, 4} and {3, 7}
        rng = np.random.default_rng(12)
        H = _random_stack(rng, (5, 2), SECTORS)
        H[3, 1, 0, 3] = H[3, 1, 3, 0] = 1e-300
        assert [g.tolist() for g in _sectors(H)] == [[[0, 3, 4, 7],
                                                      [1, 2, 5, 6]]]

    @pytest.mark.parametrize("first_step_split", [False, True])
    def test_single_sector_is_the_dense_path(self, first_step_split):
        # a pattern spanning all levels runs the dense step unchanged,
        # also when only later steps connect the first step's sectors
        rng = np.random.default_rng(13)
        n, nbatch, dt = 24, 2, 0.07
        H = _random_stack(rng, (n, nbatch), [list(range(DIM))])
        H[:, :, 0, 7] = H[:, :, 7, 0] = 0.0    # a sparse but connected pattern
        if first_step_split:
            H[0] = _random_stack(rng, (nbatch,), SECTORS)
        assert len(_sectors(H[:1])) == (2 if first_step_split else 1)
        assert len(_sectors(H)) == 1
        U, _ = propagate(_stack_of(H, 0.0, dt), 0.0, dt, n, nbatch)
        eye = np.broadcast_to(np.eye(DIM, dtype=complex), (nbatch, DIM, DIM))
        dense = np.matmul(_ordered_product(_step_unitaries(H.copy(), dt)), eye)
        assert np.array_equal(U, dense)

    def test_split_schedule_matches_dense_path(self):
        # the lab Rz schedule splits into the three sectors; a 1e-300
        # all-level coupling (numerically nothing) forces the dense path
        sched = make_rz_schedule(P, 8e-9)
        noise = np.array([0.0, 40.0])
        n, dt = 4000, 2e-12

        def split(tmid):
            return _position_h_stack(P, sched, tmid, noise)

        def dense(tmid):
            return split(tmid) + 1e-300 * (1 - np.eye(DIM))

        assert len(_sectors(split(np.array([1e-9, 4e-9])))) == 2
        U_s, _ = propagate(split, 0.0, dt, n, 2)
        U_d, _ = propagate(dense, 0.0, dt, n, 2)
        assert np.abs(U_s - U_d).max() < 1e-12
