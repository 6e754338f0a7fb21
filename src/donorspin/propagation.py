"""Time-ordered propagation of the lab-frame and effective Hamiltonians.

The integrator is piecewise-constant: a product of steps
exp(-i H dt) = cos(H dt) - i sin(H dt), each exact to round-off: Taylor
series of cos and sin to the lowest degree the 1-norm of H dt allows, with
halving and the double-angle formulas where H dt is large
(`_step_unitaries`). The steps are multiplied as (cos, sin) pairs
(`_ordered_product`), and the complex propagator is formed once per chunk
or sector. Every Hamiltonian the package builds is real symmetric (its
operators and coefficients are real; only tau_y, S_y and I_y are complex,
and no Hamiltonian uses them), so the pairs are real and come from real
matrix products; a complex Hermitian stack goes through the same code in
complex arithmetic. One step loop,
`propagate`, serves every frame and the 64-dim two-qubit simulation: a
frame only supplies its Hamiltonian stack, and steps are processed in
vectorized chunks of about 1 MiB of H (`_chunk_steps`), so a whole batch of
quasi-static noise offsets can be propagated at once.

The effective frame and the 64-dim run sample H at each step's midpoint, a
second-order rule. The lab frame, whose error the fast drive at omega_E
sets, takes the fourth-order commutator-free Magnus step (CF4; Blanes &
Moan, Appl. Numer. Math. 56, 1519 (2006)): per step of dt, two
exponentials of Hamiltonians mixed from the two Gauss points
(`_cf4_h_stack`), which `propagate` runs as two half-steps of dt/2. So
`evolve`'s dt and step count are CF4 steps in the lab frame and midpoint
steps in the effective frame. The lab Hamiltonian is affine in two scalar
fields (`_lab_fields`), from which `_position_h_stack` assembles it; a lab
propagator reaches the orbital basis only at its endpoints, through the
orbital transform (`to_lab_orbital`). `_effective_h_stack` is the one
way the package samples H' along a schedule. `unitarity_defect` and
`leakage`, the population lost from levels 0 and 1, are the package's two
numerical contracts on propagators.

Each chunk is split into the sectors its Hamiltonians leave invariant:
the connected components of the exact nonzero pattern of the stack,
(H != 0) over all steps and batch items, with no tolerance. Every sector
is stepped and multiplied on its own and scattered into the chunk's
propagator. With Ba = 0 each donor's S_z + I_z is conserved, so the Rz,
echo and CZ stacks split (a qubit's 8 levels into {0,4}, {3,7} and
{1,2,5,6}, or finer). A sector of one level is a phase: its steps
multiply to exp(-i dt sum_k h_k), with no series. A chunk whose pattern
connects every level, such as any chunk with the B_ac drive on, runs the
dense step unchanged. There is no option for this: the split follows from
the Hamiltonian alone.
"""
from __future__ import annotations

import bisect
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

DEFAULT_DT_LAB = 4e-12
DEFAULT_DT_EFFECTIVE = 0.05e-9

FRAMES = ("lab-position", "effective")
UNITARITY_LIMIT = 1e-8      # a propagator with a larger defect is invalid
RESONANCE_SAMPLES = 2001    # schedule samples of the two-photon check

# Chunks of `propagate`: an H stack of at most 2**17 elements (1 MiB of
# float64, within a 2 MiB L2 cache), but at least 2**8 matrices (steps x
# batch), which keeps the 64-dim CZ run at 256 steps a chunk. Short chunks
# also halve less, as the step kernel's halving count follows each chunk's
# largest 1-norm. Against 2**20 elements, noise-mc's solve_s fell from
# 1.07 to 0.81 s and a solve pass from 91k to 23-48k minor page faults
# (BENCH_22.json; one BLAS thread, 2-vCPU guest). 2**16 elements slowed a
# 5-offset lab sweep by 11%; with no floor the 64-dim run took 2x as long.
CHUNK_ELEMENTS = 2**17
CHUNK_MATRICES = 2**8

# Taylor coefficients of the step's cos (to A**12) and sin (to A**13), and
# the largest 1-norm of A, _DEGREE_THETA[k - 1], at which the series to
# A**2k and A**(2k+1) are exact to round-off: there the first term left
# out, |A|**(2k+2) / (2k+2)!, is one unit of double round-off. Above
# STEP_THETA (0.44, k = 6) the step halves A. A cap at k = 4 would need
# two more halvings on the effective and 64-dim stacks (1-norms 5 to 20):
# as many products as the two terms it saves, and four times the
# round-off.
_COS = [(-1) ** k / math.factorial(2 * k) for k in range(7)]
_SIN = [(-1) ** k / math.factorial(2 * k + 1) for k in range(7)]
_DEGREE_THETA = [(2.0 ** -53 * math.factorial(2 * k + 2)) ** (1 / (2 * k + 2))
                 for k in range(1, 7)]
STEP_THETA = _DEGREE_THETA[-1]


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
    return _position_h_stack(params, *_lab_fields(
        schedule, np.array([float(t)]), noise_dE))[0, 0]


def _lab_fields(schedule, t, noise_dE):
    """The two scalar fields of the lab Hamiltonian at times t, each of
    shape (n, S): the total field f (offset, noise and Ea drive) and the
    B_ac drive b. noise_dE is scalar or (S,) array."""
    dE, Ea, Ba = schedule.sample(t)
    noise = np.atleast_1d(np.asarray(noise_dE, dtype=float))
    f = (dE[:, None] + noise[None, :]
         + (Ea * np.cos(schedule.omega_E * t))[:, None])
    b = (Ba * np.cos(schedule.omega_B * t))[:, None]
    return f, b


def _position_h_stack(params: SystemParams, f, b):
    """(n, S, 8, 8) lab Hamiltonian stack, affine in the fields f and b of
    `_lab_fields`."""
    H_const = (params.Vt / 2 * TAU_X
               + params.B0 * params.gamma_e
               * (S_Z + params.delta_gamma * DONOR_PROJECTOR @ S_Z)
               - params.B0 * params.gamma_n * I_Z
               + params.hyperfine_A * DONOR_PROJECTOR @ S_DOT_I)
    M_field = -params.de_over_hbar / 2 * TAU_Z
    M_b = params.gamma_e * S_X - params.gamma_n * I_X
    return (H_const[None, None] + f[..., None, None] * M_field
            + b[..., None, None] * M_b)


def _cf4_h_stack(params: SystemParams, schedule, noise, dt):
    """h_stack for `propagate` at half-steps of dt/2 that makes each lab
    step of dt, from t = k dt, the CF4 pair: exp(-i dt (a2 H1 + a1 H2)),
    then exp(-i dt (a1 H1 + a2 H2)), with H1, H2 at the Gauss points
    k dt + c1,2 dt, c1,2 = 1/2 -+ sqrt(3)/6, and a1,2 = (3 -+ 2 sqrt(3))/12.
    A half-step's stack is twice its weighted H. The Hamiltonian is affine
    in its fields, so the Gauss points' fields are mixed and one stack is
    assembled per exponential. Each half-step's index comes from its
    midpoint, so a pair may straddle two chunks."""
    r = math.sqrt(3) / 6
    c = np.array([0.5 - r, 0.5 + r]) * dt
    # (2 a2, 2 a1) on a step's first half, (2 a1, 2 a2) on its second
    mix = np.array([[0.5 + 2 * r, 0.5 - 2 * r], [0.5 - 2 * r, 0.5 + 2 * r]])

    def h_stack(tmid):
        j = np.rint(tmid / (dt / 2) - 0.5).astype(np.int64)
        k = j // 2
        steps = np.arange(k[0], k[-1] + 1)
        w = mix[j % 2][..., None]
        f, b = (x.reshape(steps.size, 2, -1)[k - k[0]]
                for x in _lab_fields(schedule, (steps[:, None] * dt
                                                + c).ravel(), noise))
        return _position_h_stack(params, (w * f).sum(axis=1),
                                 (w * b).sum(axis=1))
    return h_stack


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
    the pair (C, S) = (cos A, sin A) with A = H dt; the step is C - i S.

    The stack's largest 1-norm theta of A sets the work. Above STEP_THETA,
    A is first halved s times (exact powers of two), and the double-angle
    formulas restore it s times: cos 2A = (C + S)(C - S) and
    sin 2A = 2 S C, since C and S commute. The series degree k is the
    smallest for which the first term left out, theta**(2k+2) / (2k+2)!
    at the halved theta, is at most 2**-53 (_DEGREE_THETA): C and S are
    the Taylor series to A**2k and A**(2k+1) (_COS, _SIN), evaluated by
    Horner in B = A @ A: 2k products, and 2 more per halving. A real
    symmetric stack gives a real pair.
    """
    theta = dt * float(np.abs(H).sum(axis=-2).max())
    s = math.ceil(math.log2(theta / STEP_THETA)) if theta > STEP_THETA else 0
    # hi=5 keeps k at 6 if rounding leaves the halved theta a hair above
    # STEP_THETA
    k = 1 + bisect.bisect_left(_DEGREE_THETA, theta * 2.0 ** -s, hi=5)
    A = H * (dt * 2.0 ** -s)
    B = A @ A
    C = _add_identity(_COS[k] * B, _COS[k - 1])
    S = _add_identity(_SIN[k] * B, _SIN[k - 1])
    for j in range(k - 2, -1, -1):
        C = _add_identity(B @ C, _COS[j])
        S = _add_identity(B @ S, _SIN[j])
    S = A @ S
    for _ in range(s):
        C, S = (C + S) @ (C - S), 2 * (S @ C)
    return C, S


def _ordered_product(C, S):
    """Product U[n-1] @ ... @ U[0] along the leading axis of the steps
    U = C - i S, tree-reduced on the pairs: U2 U1 is
    (C2 C1 - S2 S1) - i (C2 S1 + S2 C1), in real arithmetic for a real
    pair. Returns the complex product."""
    while C.shape[0] > 1:
        C2, S2, C1, S1 = C[1::2], S[1::2], C[0:-1:2], S[0:-1:2]
        C12, S12 = C2 @ C1 - S2 @ S1, C2 @ S1 + S2 @ C1
        if C.shape[0] % 2 == 1:
            C12, S12 = (np.concatenate([C12, C[-1:]]),
                        np.concatenate([S12, S[-1:]]))
        C, S = C12, S12
    return C[0] - 1j * S[0]


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
        if g.shape[1] == 1:     # scalar sectors: exact phases
            lv = g[:, 0]
            P[:, lv, lv] = np.exp(-1j * dt * H[..., lv, lv].sum(axis=0))
        else:
            rows, cols = g[:, :, None], g[:, None, :]
            P[:, rows, cols] = _ordered_product(
                *_step_unitaries(H[..., rows, cols], dt))
    return P


def _chunk_steps(nbatch: int, dim: int) -> int:
    """Steps per chunk of `propagate`: at most CHUNK_ELEMENTS matrix
    elements in the H stack, but at least CHUNK_MATRICES matrices."""
    return max(1, CHUNK_ELEMENTS // (nbatch * dim**2),
               CHUNK_MATRICES // nbatch)


def propagate(h_stack, t0: float, dt: float, n: int, nbatch: int,
              dim: int = DIM):
    """Time-ordered product of n exact steps exp(-i H dt) from t0.

    h_stack(tmid) returns the (m, nbatch, dim, dim) Hamiltonians at the
    step midpoints tmid. Steps run in chunks of `_chunk_steps(nbatch, dim)`,
    each propagated sector by sector (see the module docstring).
    Returns (U of shape (nbatch, dim, dim), its largest unitarity defect
    over the batch).
    """
    chunk = _chunk_steps(nbatch, dim)
    U = np.broadcast_to(np.eye(dim, dtype=complex), (nbatch, dim, dim)).copy()
    i = 0
    while i < n:
        m = min(chunk, n - i)
        tmid = t0 + (np.arange(i, i + m) + 0.5) * dt
        H = h_stack(tmid)
        groups = _sectors(H)
        # The dense path's C and S live until the next dense chunk replaces
        # them, and H until the next stack replaces it: freeing either
        # earlier lets the allocator hand the heap back and page-fault it
        # in again. Freeing C and S after the product took a 5-offset lab
        # sweep from 41-54k minor faults to 193k (0.61-0.70 s to 0.87 s);
        # freeing H after the sector product took the rz_noise manifest
        # from 117k to 418k (1.46 s to 1.82 s). Only a stack above the
        # element budget, which the floor makes for the 64-dim run (8 MiB),
        # goes first, so that two of them do not add up in the peak RSS
        # (8.5% of cz-search's). One BLAS thread, 2-vCPU guest.
        if groups[0].shape == (1, dim):
            C, S = _step_unitaries(H, dt)
            P = _ordered_product(C, S)
        else:
            P = _sector_product(H, groups, dt)
        if H.size > CHUNK_ELEMENTS:
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
    array the result's propagator matrix has shape (S, 8, 8). The duration
    is split into n = round(T / dt) equal steps, the result's step_count:
    CF4 steps of two exponentials in the lab frame (default
    DEFAULT_DT_LAB), midpoint steps of H' in the effective frame, which
    delegates Hamiltonian sampling to the Floquet-reduced model (default
    DEFAULT_DT_EFFECTIVE). A driven schedule is first checked for the
    two-photon resonance.
    """
    if frame not in FRAMES:
        raise ValueError(f"frame must be one of {FRAMES}")
    if dt is None:
        dt = DEFAULT_DT_EFFECTIVE if frame == "effective" else DEFAULT_DT_LAB
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
        U, defect = propagate(h_stack, 0.0, T / n, n, noise.size)
    else:
        U, defect = propagate(_cf4_h_stack(params, schedule, noise, T / n),
                              0.0, T / (2 * n), 2 * n, noise.size)
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
