"""Simulation of electrically controlled donor nuclear-spin qubits."""

__version__ = "0.1.0"

from .model import (PhysicalConstants, SystemParams, charge_splitting,
                    hyperfine_expectation, qubit_splitting_approx,
                    dephasing_sensitivity, transition_energies)
from .operators import orbital_transform
from .pulses import (PulseSchedule, make_rz_schedule,
                     make_rx_sweep_schedule, make_naive_rx_schedule,
                     make_cphase_schedule, make_echo_rz_schedule)
from .propagation import (OperatorMatrix, EvolutionResult, evolve, leakage,
                          unitarity_defect, lab_hamiltonian)
from .effective import (rwa_hamiltonian, frequency_components,
                        effective_hamiltonian, NearDegeneracyError)
from .gates import (QubitGate, EulerAngles, euler_decompose, gate_infidelity,
                    extract_qubit_gate, predict_rz_angle, NoiseModel,
                    run_noise_monte_carlo, noise_sensitivity,
                    calibrate_lambda, build_sweep_echo_rx)
from .twoqubit import (TwoQubitLayout, CphaseReport, dipole_coupling_strength,
                       cphase_angle, simulate_two_qubit, cz_duration_search)
