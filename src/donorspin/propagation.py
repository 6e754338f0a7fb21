"""Time-ordered propagation of the lab-frame and effective Hamiltonians.

The integrator is piecewise-constant with midpoint sampling and a step
exp(-i H dt) = cos(H dt) - i sin(H dt) exact to round-off: Taylor series
of cos and sin, with halving and the double-angle formulas where H dt is
large (`_step_unitaries`). Every Hamiltonian the package builds is real
symmetric (its operators and coefficients are real; only tau_y, S_y and
I_y are complex, and no Hamiltonian uses them), so cos and sin are real
and come from real matrix products; a complex Hermitian stack goes
through the same code in complex arithmetic. One step loop,
`propagate`, serves every frame and the 64-dim two-qubit simulation: a
frame only supplies its Hamiltonian stack, and steps are processed in
vectorized chunks, so a whole batch of quasi-static noise offsets can be
propagated at once. `_position_h_stack` is the one lab-frame Hamiltonian;
a lab propagator reaches the orbital basis only at its endpoints, through
the orbital transform (`to_lab_orbital`). `_effective_h_stack` is the one
way the package samples H' along a schedule. `unitarity_defect` and
`leakage`, the population lost from levels 0 and 1, are the package's two
numerical contracts on propagators.

Each chunk is split into the sectors its Hamiltonians leave invariant:
the connected components of the exact nonzero pattern of the stack,
(H != 0) over all steps and batch items, with no tolerance. Every sector
is stepped and multiplied on its own and scattered into the chunk's
propagator. With Ba = 0 each donor's S_z + I_z is conserved, so the Rz,
echo and CZ stacks split (a qubit's 8 levels into {0,4}, {3,7} and
{1,2,5,6}, or finer). A chunk whose pattern connects every level, such as
any chunk with the B_ac drive on, runs the dense step unchanged. There is
no option for this: the split follows from the Hamiltonian alone.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .effective import effective_hamiltonian
from .model import SystemParams, charge_splitting
from .operators import (DIM, TAU_Z, TAU_X, S_Z, S_X, I_Z, I_X, S_DOT_I,
                        DONOR_PROJECTOR, orbital_transform,
                        frame_generator_diag)
from .pulses import PulseSchedule

DEFAULT_DT_LAB = 0.1e-12
DEFAULT_DT_LAB_NO_AC = 1e-12
DEFAULT_DT_EFFECTIVE = 0.05e-9

FRAMES = ("lab-position", "effective")
UNITARITY_LIMIT = 1e-8      # a propagator with a larger defect is invalid
RESONANCE_SAMPLES = 2001    # schedule samples of the two-photon check

# Taylor coefficients of the step's cos (to A**12) and sin (to A**13).
# The first term left out, |A|**14 / 14!, is one unit of double round-off
# at the 1-norm STEP_THETA (0.44), so below it the series is exact to
# round-off. Series to A**8 and A**9 would need two more halvings on the
# effective and 64-dim stacks (1-norms 5 to 20): as many products as the
# two extra terms, and four times the round-off.
_COS = [(-1) ** k / math.factorial(2 * k) for k in range(7)]
_SIN = [(-1) ** k / math.factorial(2 * k + 1) for k in range(7)]
STEP_THETA = (2.0 ** -53 * math.factorial(14)) ** (1 / 14)


class TwoPhotonResonanceWarning(UserWarning):
    """The charge splitting crosses twice the electric drive frequency
    while the AC field is on; expect a sharp leakage resonance."""


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense operator (a matrix or a batch of them)."""

    matrix: np.ndarray


@dataclass
class EvolutionResult:
    propagator: OperatorMatrix
    frame: str
    step_count: int
    max_unitarity_defect: float
    schedule: PulseSchedule

    @property
    def valid(self) -> bool:
        return self.max_unitarity_defect < UNITARITY_LIMIT


def lab_hamiltonian(params: SystemParams, schedule: PulseSchedule, t: float,
                    noise_dE: float = 0.0) -> np.ndarray:
    """The 8x8 lab-frame Hamiltonian of a schedule at time t (position
    basis)."""
    return _position_h_stack(params, schedule, np.array([float(t)]),
                             noise_dE)[0, 0]


def _position_h_stack(params: SystemParams, schedule, tmid, noise_dE):
    """(n, S, 8, 8) Hamiltonian stack; noise_dE is scalar or (S,) array."""
    dE, Ea, Ba = schedule.sample(tmid)
    noise = np.atleast_1d(np.asarray(noise_dE, dtype=float))
    f_total = (dE[:, None] + noise[None, :]
               + (Ea * np.cos(schedule.omega_E * tmid))[:, None])
    drive_B = (Ba * np.cos(schedule.omega_B * tmid))[:, None]
    H_const = (params.Vt / 2 * TAU_X
               + params.B0 * params.gamma_e
               * (S_Z + params.delta_gamma * DONOR_PROJECTOR @ S_Z)
               - params.B0 * params.gamma_n * I_Z
               + params.hyperfine_A * DONOR_PROJECTOR @ S_DOT_I)
    M_field = -params.de_over_hbar / 2 * TAU_Z
    M_b = params.gamma_e * S_X - params.gamma_n * I_X
    H = (H_const[None, None] + f_total[..., None, None] * M_field
         + drive_B[..., None, None] * M_b)
    return H


def _effective_h_stack(params: SystemParams, schedule, tmid, noise_dE):
    """(n, S, 8, 8) stack of H' (rotating frame, orbital basis); noise_dE
    is scalar or (S,) array."""
    dE, Ea, Ba = schedule.sample(tmid)
    noise = np.atleast_1d(np.asarray(noise_dE, dtype=float))
    return effective_hamiltonian(params, dE[:, None] + noise[None, :],
                                 Ea[:, None], Ba[:, None],
                                 schedule.omega_E, schedule.omega_B)


def _add_identity(X, c):
    """X + c 1 for each matrix of a (..., d, d) stack, in place."""
    np.einsum("...ii->...i", X)[...] += c
    return X


def _step_unitaries(H, dt):
    """exp(-i H dt) for each matrix of a (..., d, d) Hermitian stack, as
    cos A - i sin A with A = H dt.

    C = cos A and S = sin A are their Taylor series (_COS, _SIN), evaluated
    by Horner in B = A @ A. When the stack's largest 1-norm of A exceeds
    STEP_THETA, A is first halved s times (exact powers of two), and the
    double-angle formulas restore it s times: cos 2A = (C + S)(C - S) and
    sin 2A = 2 S C, since C and S commute. A real symmetric stack runs in
    real arithmetic up to U itself.
    """
    theta = dt * float(np.linalg.norm(H, 1, axis=(-2, -1)).max())
    s = math.ceil(math.log2(theta / STEP_THETA)) if theta > STEP_THETA else 0
    A = H * (dt * 2.0 ** -s)
    B = A @ A
    C = _add_identity(_COS[-1] * B, _COS[-2])
    S = _add_identity(_SIN[-1] * B, _SIN[-2])
    for c_k, s_k in zip(_COS[-3::-1], _SIN[-3::-1]):
        C = _add_identity(B @ C, c_k)
        S = _add_identity(B @ S, s_k)
    S = A @ S
    for _ in range(s):
        C, S = (C + S) @ (C - S), 2 * (S @ C)
    U = np.multiply(S, -1j)
    U += C
    return U


def _ordered_product(Us):
    """Product U[n-1] @ ... @ U[0] along the leading axis, tree-reduced."""
    while Us.shape[0] > 1:
        if Us.shape[0] % 2 == 1:
            last = Us[-1:]
            Us = np.concatenate([np.matmul(Us[1:-1:2], Us[0:-1:2]), last])
        else:
            Us = np.matmul(Us[1::2], Us[0::2])
    return Us[0]


def _sectors(H):
    """Invariant sectors of a (..., d, d) stack: the connected components
    of its exact nonzero pattern over all leading axes, as a list of
    (k, s) index arrays, one per sector size s (components in order of
    their smallest level)."""
    reach = np.any(H != 0, axis=tuple(range(H.ndim - 2)))
    reach |= reach.T | np.eye(H.shape[-1], dtype=bool)
    while True:
        wider = reach @ reach
        if np.array_equal(wider, reach):
            break
        reach = wider
    first = reach.argmax(axis=1)    # each level's lowest sector-mate
    comps = [np.flatnonzero(first == f) for f in np.unique(first)]
    return [np.array([c for c in comps if c.size == size])
            for size in sorted({c.size for c in comps})]


def _sector_product(H, groups, dt):
    """(nbatch, d, d) product of the steps of an (m, nbatch, d, d) chunk,
    one group of equal-size sectors (from _sectors) at a time."""
    P = np.zeros(H.shape[1:], dtype=complex)
    for g in groups:
        rows, cols = g[:, :, None], g[:, None, :]
        P[:, rows, cols] = _ordered_product(
            _step_unitaries(H[..., rows, cols], dt))
    return P


def propagate(h_stack, t0: float, dt: float, n: int, nbatch: int,
              dim: int = DIM):
    """Time-ordered product of n exact steps exp(-i H dt) from t0.

    h_stack(tmid) returns the (m, nbatch, dim, dim) Hamiltonians at the
    step midpoints tmid. Steps run in chunks of at most 2**20 matrix
    elements, each propagated sector by sector (see the module docstring).
    Returns (U of shape (nbatch, dim, dim), its largest unitarity defect
    over the batch).
    """
    chunk = max(1, 2**20 // (nbatch * dim**2))
    U = np.broadcast_to(np.eye(dim, dtype=complex), (nbatch, dim, dim)).copy()
    i = 0
    while i < n:
        m = min(chunk, n - i)
        tmid = t0 + (np.arange(i, i + m) + 0.5) * dt
        H = h_stack(tmid)
        groups = _sectors(H)
        # Both paths free H before the next chunk's is built, the dense one
        # before its tree product. The dense path's Us stays alive until
        # the next dense chunk replaces it, as in a plain step loop: freeing
        # it too lets the allocator hand the heap back and page-fault it in
        # again on every lab chunk (about 30x the minor faults).
        if groups[0].shape == (1, dim):
            Us = _step_unitaries(H, dt)
            del H
            P = _ordered_product(Us)
        else:
            P = _sector_product(H, groups, dt)
            del H
        U = np.matmul(P, U)
        i += m
    return U, float(unitarity_defect(U).max())


def check_two_photon_resonance(params: SystemParams,
                               schedule: PulseSchedule) -> bool:
    """Warn when eps0(dE(t)) crosses 2*omega_E while the AC field is on."""
    ts = np.linspace(0, schedule.total_time, RESONANCE_SAMPLES)
    dE, Ea, _ = schedule.sample(ts)
    # only meaningfully driven stretches matter (ignore envelope tails)
    active = np.abs(Ea) > 0.05 * (np.abs(Ea).max() + 1e-30)
    if not active.any():
        return False
    e0 = charge_splitting(params, dE[active])
    target = 2 * schedule.omega_E
    if e0.min() <= target <= e0.max():
        warnings.warn(
            f"charge splitting crosses 2*omega_E = {target:.4e} rad/s during "
            "the drive; two-photon leakage resonance expected",
            TwoPhotonResonanceWarning, stacklevel=2)
        return True
    return False


def evolve(params: SystemParams, schedule: PulseSchedule, noise_dE=0.0,
           frame: str = "lab-position",
           dt: float | None = None) -> EvolutionResult:
    """Propagate a schedule over its full duration.

    noise_dE may be a scalar or a 1-D array of quasi-static offsets; with an
    array the result's propagator matrix has shape (S, 8, 8). The effective
    frame delegates Hamiltonian sampling to the Floquet-reduced model. A
    driven schedule is first checked for the two-photon resonance.
    """
    if frame not in FRAMES:
        raise ValueError(f"frame must be one of {FRAMES}")
    if dt is None:
        if frame == "effective":
            dt = DEFAULT_DT_EFFECTIVE
        elif schedule.driven:
            dt = DEFAULT_DT_LAB
        else:
            dt = DEFAULT_DT_LAB_NO_AC
    if dt <= 0:
        raise ValueError("dt must be positive")
    if schedule.driven:
        check_two_photon_resonance(params, schedule)

    T = schedule.total_time
    n = max(1, int(round(T / dt)))
    noise = np.atleast_1d(np.asarray(noise_dE, dtype=float))

    if frame == "effective":
        def h_stack(tmid):
            return _effective_h_stack(params, schedule, tmid, noise)
    else:
        def h_stack(tmid):
            return _position_h_stack(params, schedule, tmid, noise)

    U, defect = propagate(h_stack, 0.0, T / n, n, noise.size)
    Umat = U if np.ndim(noise_dE) > 0 else U[0]
    return EvolutionResult(OperatorMatrix(Umat), frame, n, defect, schedule)


def unitarity_defect(U: np.ndarray):
    """max |U^dag U - 1| per matrix: a float for one matrix, an array over
    the leading axes of a batch."""
    prod = np.matmul(np.conj(np.swapaxes(U, -1, -2)), U)
    defect = np.abs(prod - np.eye(U.shape[-1])).max(axis=(-2, -1))
    return float(defect) if defect.ndim == 0 else defect


def leakage(U: np.ndarray):
    """Population lost from levels 0 and 1 (the qubit levels of an 8x8
    propagator, both states of a 2x2 block), per matrix: a float for one
    matrix, an array over the leading axes of a batch."""
    lk = 1 - (np.abs(U[..., :2, :2]) ** 2).sum(axis=(-2, -1)) / 2
    return float(lk) if lk.ndim == 0 else lk


def to_lab_orbital(result: EvolutionResult, params: SystemParams) -> np.ndarray:
    """Express a schedule's propagator in the lab frame and orbital basis.

    Position-basis propagators are conjugated by the orbital transform at
    the fields of the end and the start, Lambda(dE(T)) U Lambda(dE(0))^dag;
    rotating-frame propagators become exp(+i T G) U. Raises
    ValueError for an invalid result (unitarity defect at or above
    UNITARITY_LIMIT).
    """
    if not result.valid:
        raise ValueError(f"propagator unitarity defect "
                         f"{result.max_unitarity_defect:.2e} is not below "
                         f"{UNITARITY_LIMIT:.0e}; refine dt")
    U = result.propagator.matrix
    sched = result.schedule
    T = sched.total_time
    if result.frame == "lab-position":
        lam_end = orbital_transform(params, float(sched.dE_envelope(T)))
        lam_start = orbital_transform(params, float(sched.dE_envelope(0.0)))
        return lam_end @ U @ lam_start.conj().T
    g = frame_generator_diag(params, sched.omega_E, sched.omega_B)
    return np.exp(1j * T * g)[:, None] * U
