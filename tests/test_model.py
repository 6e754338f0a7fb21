import numpy as np
import pytest
import warnings
from hypothesis import given, settings, strategies as st

from donorspin.model import (TWO_PI, PhysicalConstants, SystemParams,
                             charge_splitting, hyperfine_expectation,
                             qubit_splitting_approx, dephasing_sensitivity,
                             transition_energies)

P = SystemParams()

fields = st.floats(min_value=-2e4, max_value=2e4, allow_nan=False)


def test_constants_fixed_silicon_permittivity():
    assert PhysicalConstants().silicon_relative_permittivity == 11.7
    with pytest.raises(ValueError):
        PhysicalConstants(hbar=-1.0)


def test_default_tunnel_coupling():
    assert P.Vt == pytest.approx(P.B0 * (P.gamma_e + P.gamma_n))


def test_weak_field_warning():
    with pytest.warns(UserWarning, match="strong static field"):
        SystemParams(B0=1e-3)


def test_charge_splitting_zero_field():
    assert charge_splitting(P, 0.0) == pytest.approx(P.Vt)


def test_charge_splitting_at_idle():
    # direct evaluation with the stated constants
    assert charge_splitting(P, 1e4) == pytest.approx(TWO_PI * 36.7e9, rel=1e-3)
    assert charge_splitting(P, 1e4) == pytest.approx(2.30588e11, rel=1e-4)


def test_charge_splitting_asymptote():
    dE = 1e5
    asym = P.de_over_hbar * dE
    assert abs(charge_splitting(P, dE) / asym - 1) < 1e-3


@given(fields)
def test_charge_splitting_floor(dE):
    assert charge_splitting(P, dE) >= P.Vt - 1e-6


def test_charge_splitting_equality_only_at_zero():
    assert charge_splitting(P, 0.0) == pytest.approx(P.Vt, abs=1e-9)
    assert charge_splitting(P, 1.0) > P.Vt


def test_hyperfine_expectation_limits():
    assert hyperfine_expectation(P, 0.0) == pytest.approx(P.hyperfine_A / 2)
    assert hyperfine_expectation(P, 1e9) == pytest.approx(0.0, abs=P.hyperfine_A * 1e-6)
    assert hyperfine_expectation(P, -1e9) == pytest.approx(P.hyperfine_A,
                                                           rel=1e-6)


@given(fields, fields)
def test_hyperfine_monotone_decreasing(a, b):
    lo, hi = min(a, b), max(a, b)
    assert hyperfine_expectation(P, lo) >= hyperfine_expectation(P, hi) - 1e-3


def test_qubit_splitting_limits():
    assert qubit_splitting_approx(P, 1e9) == pytest.approx(
        TWO_PI * 3.446e6, rel=1e-3)
    assert qubit_splitting_approx(P, 0.0) == pytest.approx(
        P.B0 * P.gamma_n + P.hyperfine_A / 4)


def test_qubit_splitting_shift_sixty_megahertz():
    shift = qubit_splitting_approx(P, -2e4) - qubit_splitting_approx(P, 2e4)
    assert abs(shift - TWO_PI * 60e6) < 0.1 * TWO_PI * 60e6


def test_dephasing_sensitivity_at_idle():
    # reported reference magnitude 2*pi*70 Hz per V/m
    val = dephasing_sensitivity(P, P.dE_idle)
    assert val < 0
    assert abs(abs(val) - TWO_PI * 70) < 0.05 * TWO_PI * 70


def test_dephasing_sensitivity_at_zero():
    expect = -P.hyperfine_A * P.de_over_hbar / (4 * P.Vt)
    assert dephasing_sensitivity(P, 0.0) == pytest.approx(expect)


def test_dephasing_sensitivity_finite_difference():
    # centered finite-difference oracle on a grid
    grid = np.linspace(-2e4, 2e4, 41)
    h = 1e-2
    fd = (qubit_splitting_approx(P, grid + h)
          - qubit_splitting_approx(P, grid - h)) / (2 * h)
    exact = dephasing_sensitivity(P, grid)
    assert np.max(np.abs(fd - exact) / np.abs(exact)) < 1e-6


def test_transition_energy_identity():
    for dE in (-1.3e4, 0.0, 377.0, 2e4):
        tr = transition_energies(P, dE)
        assert tr.delta_up - tr.delta_mid == pytest.approx(
            P.B0 * (P.gamma_e + P.gamma_n), rel=1e-12)


def test_transition_energies_at_zero_field():
    # with Vt = B0 (gamma_e + gamma_n) the intermediate gap closes at dE = 0
    tr = transition_energies(P, 0.0)
    assert tr.delta_mid == pytest.approx(0.0, abs=TWO_PI * 1.0)
    assert tr.delta_dn == pytest.approx(
        P.B0 * P.gamma_e - P.hyperfine_A / 4)


def test_transitions_match_effective_eigenvalue_gaps(params):
    # diagonalization oracle: gaps of the zero-drive H' (frame-corrected).
    # The closed forms drop the relative-gyromagnetic-shift term, which
    # moves the orbital transitions by B0*ge*dgamma*c/2 (~2pi*5.5 MHz at
    # idle); after restoring it they agree to ~2pi*0.6 MHz (residual exact
    # level repulsion absent from the leading-order forms).
    from donorspin.effective import effective_hamiltonian
    from donorspin.model import orbital_mixing
    from donorspin.operators import frame_generator_diag
    from donorspin.pulses import idle_frequencies
    wE, wB = idle_frequencies(params)
    g = frame_generator_diag(params, wE, wB)
    for dE in (1e4, 5e3, 2e4):
        Hp = effective_hamiltonian(params, dE, 0.0, 0.0, wE, wB)
        ev, vec = np.linalg.eigh(Hp)
        order = [int(np.argmax(np.abs(vec[k, :]))) for k in range(8)]
        lab = np.array([ev[order[k]] - g[k] for k in range(8)])
        tr = transition_energies(params, dE)
        c, _ = orbital_mixing(params, dE)
        dg_orb = -params.B0 * params.gamma_e * params.delta_gamma * c / 2
        dg_spin = params.B0 * params.gamma_e * params.delta_gamma * (1 - c) / 2
        assert abs((lab[2] - lab[0]) - tr.delta_dn) < TWO_PI * 1e6
        assert abs((lab[5] - lab[1]) - tr.delta_up) < TWO_PI * 6e6
        assert abs((lab[5] - lab[2]) - tr.delta_mid) < TWO_PI * 6e6
        assert abs((lab[2] - lab[0]) - tr.delta_dn - dg_spin) < TWO_PI * 1e6
        assert abs((lab[5] - lab[1]) - tr.delta_up - dg_orb) < TWO_PI * 1e6
        assert abs((lab[5] - lab[2]) - tr.delta_mid
                   - (dg_orb - dg_spin)) < TWO_PI * 1e6


@given(st.floats(min_value=-1.99e4, max_value=1.99e4))
@settings(max_examples=40)
def test_quantities_smooth_everywhere(dE):
    # a jump would blow up the second difference; smooth curvature stays
    # below ~de^2/Vt ~ 1.5e4 rad/s per (V/m)^2 for every quantity
    for fn in (charge_splitting, hyperfine_expectation,
               qubit_splitting_approx, dephasing_sensitivity):
        second = abs(fn(P, dE + 1.0) - 2 * fn(P, dE) + fn(P, dE - 1.0))
        assert second < 2e5
