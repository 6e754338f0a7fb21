"""Dipole-dipole coupling and the two-qubit controlled-phase gate.

The primary path integrates the adiabatic energy shifts of the four
computational product states: per qubit, the interface projector
splits into a static part w_bar = (1 + c <tau_z>)/2 and a part oscillating
at the drive frequency with amplitude s<tau_x>/2. For phase-synchronized
drives the time-averaged pair energy is

    E_int(a, b) = V [ w_bar_a w_bar_b + (s1 s2 / 2) x_a x_b ],
    x = <tau_x>/2,

and the entangling phase is phi = -int V [dw1 dw2 + (s1 s2/2) dx1 dx2] dt
with d* the up-minus-dn differences. A 64-dimensional effective-frame
simulation with the same rotating-wave-filtered interaction serves as the
cross-check oracle.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .model import (ELECTRON_CHARGE, HBAR, SILICON_RELATIVE_PERMITTIVITY,
                    VACUUM_PERMITTIVITY, SystemParams, orbital_mixing)
from .operators import (DIM, IDENT, TAU_Z, TAU_X, TAU_P, TAU_M,
                        QUBIT_UP_INDEX, QUBIT_DN_INDEX, frame_generator_diag,
                        qubit_gauge)
from .pulses import PulseSchedule, make_cphase_schedule
from .gates import idle_frame_block, idle_qubit_frame
from .propagation import _effective_h_stack, propagate

TRACK_MIN_OVERLAP = 0.5       # a smaller step overlap is a level crossing
NONADIABATICITY_FLAG = 1e-3   # simulate_two_qubit warns above this


@dataclass(frozen=True)
class TwoQubitLayout:
    """Two donor qubits with parallel dipoles perpendicular to the array."""

    separation_r: float = 5e-7
    params_1: SystemParams = field(default_factory=SystemParams)
    params_2: SystemParams = field(default_factory=SystemParams)

    def __post_init__(self):
        if self.separation_r <= 0:
            raise ValueError("separation_r must be positive")


@dataclass
class CphaseReport:
    """Phases alpha, beta, gamma, delta of |up up>, |up dn>, |dn up>,
    |dn dn>; the entangling phase phi and the local Rz corrections derive
    from them."""

    alpha: float
    beta: float
    gamma: float
    delta: float
    nonadiabaticity: float
    total_time: float
    phi: float = field(init=False)
    local_rz_1: float = field(init=False)   # exp(-i theta sigma_z/2) on qubit 1
    local_rz_2: float = field(init=False)

    def __post_init__(self):
        self.phi = self.alpha - self.beta - self.gamma + self.delta
        self.local_rz_1 = self.alpha - self.gamma
        self.local_rz_2 = self.alpha - self.beta

    def phases_consistent(self) -> bool:
        res = (self.alpha - self.beta - self.gamma + self.delta - self.phi)
        return abs((res + np.pi) % (2 * np.pi) - np.pi) < 1e-9


def dipole_coupling_strength(layout: TwoQubitLayout) -> float:
    """V = e^2 d1 d2 / (4 pi eps0 eps_r r^3) in rad/s (projector weight)."""
    num = (ELECTRON_CHARGE ** 2 * layout.params_1.donor_depth_d
           * layout.params_2.donor_depth_d)
    den = (4 * np.pi * VACUUM_PERMITTIVITY
           * SILICON_RELATIVE_PERMITTIVITY * layout.separation_r ** 3)
    return num / den / HBAR


def _weight_parts(params, states, dEn):
    """(w_bar, x, s) of dressed states (..., 8) at fields dEn (...): static
    interface weight, half the coherent orbital-dipole amplitude, and the
    orbital mixing s."""
    c, s = orbital_mixing(params, dEn)
    tz = np.real(np.einsum("...i,ij,...j->...", states.conj(), TAU_Z, states))
    tx_half = np.real(np.einsum("...i,ij,...j->...", states.conj(), TAU_X / 2,
                                states))
    return (1 + c * tz) / 2, tx_half, s


def _follow_dressed_states(H, times):
    """(up, dn, smallest step overlap): the two dressed qubit eigenstates,
    each (n, 8), followed along an (n, 8, 8) H' stack at `times`.

    Each sample's state is the eigenvector of largest overlap with the
    previous sample's; raises if that overlap drops below TRACK_MIN_OVERLAP
    (level crossing).
    """
    vecs = np.linalg.eigh(H)[1]
    # overlaps[i, a, b] = |<v_a(t_i) | v_b(t_i+1)>|
    overlaps = np.abs(vecs[:-1].conj().swapaxes(-1, -2) @ vecs[1:])
    path = [(int(np.argmax(np.abs(vecs[0, QUBIT_UP_INDEX]))),
             int(np.argmax(np.abs(vecs[0, QUBIT_DN_INDEX]))))]
    for best in overlaps.argmax(axis=-1).tolist():
        path.append((best[path[-1][0]], best[path[-1][1]]))
    path = np.array(path)
    steps = np.arange(len(times) - 1)[:, None]
    kept = overlaps[steps, path[:-1], path[1:]].min(axis=-1, initial=1.0)
    if kept.size and kept.min() < TRACK_MIN_OVERLAP:
        i = int(np.argmax(kept < TRACK_MIN_OVERLAP))
        raise RuntimeError(
            f"dressed-state tracking lost continuity at t = "
            f"{times[i + 1]:.3e} s (overlap {kept[i]:.3f})")
    rows = np.arange(len(times))
    up = vecs[rows, :, path[:, 0]]
    dn = vecs[rows, :, path[:, 1]]
    return (qubit_gauge(up, QUBIT_UP_INDEX), qubit_gauge(dn, QUBIT_DN_INDEX),
            float(kept.min(initial=1.0)))


def cphase_angle(layout: TwoQubitLayout, schedule_1: PulseSchedule,
                 schedule_2: PulseSchedule | None = None,
                 n_samples: int = 600, noise_dE: tuple = (0.0, 0.0),
                 mean_field_passes: int = 1) -> CphaseReport:
    """Entangling phase by quadrature of the adiabatic pair energies.

    The dressed states are tracked with the partner's average dipole shift
    V * w_mean(t) * P_interface included (mean-field pass): the shift moves
    both orbital transitions together and matters whenever the drive
    detuning is comparable to the dipole coupling.
    """
    if schedule_2 is None:
        schedule_2 = schedule_1
    if abs(schedule_1.total_time - schedule_2.total_time) > 1e-15:
        raise ValueError("both schedules must share the total time")
    T = schedule_1.total_time
    ts = np.linspace(0.0, T, n_samples)
    V = dipole_coupling_strength(layout)
    pair = ((layout.params_1, schedule_1, noise_dE[0]),
            (layout.params_2, schedule_2, noise_dE[1]))
    # a symmetric pair (equal params, one schedule, equal offsets) has two
    # identical tracks in every pass: track it once
    if (layout.params_1 == layout.params_2 and schedule_1 is schedule_2
            and noise_dE[0] == noise_dE[1]):
        pair = pair[:1]
    # per distinct qubit: params, fields, and its one H' stack, to which
    # the mean-field passes add
    qubits = [(params, sched.dE_envelope(ts) + dn,
               _effective_h_stack(params, sched, ts, dn)[:, 0])
              for params, sched, dn in pair]

    def collect(mean_fields):
        """Per qubit: min track overlap, (up, dn) weights w and x, and s."""
        out = []
        for (params, dEn, H), mf in zip(qubits, mean_fields):
            up, dn, overlap = _follow_dressed_states(
                H if mf is None else H + mf, ts)
            w, x, s = _weight_parts(params, np.stack([up, dn]), dEn)
            out.append((overlap, w, x, s))
        return out * (2 // len(qubits))

    parts = collect((None, None))
    for _ in range(mean_field_passes):
        # the static part of the interface projector, weighted by the
        # partner's mean (w_up + w_dn)/2; its tau_x part rotates at the
        # drive frequency and averages out
        mean_fields = []
        for (params, dEn, _), (_, w, _, _) in zip(qubits, parts[::-1]):
            c, _ = orbital_mixing(params, dEn)
            w_mean = 0.5 * (w[0] + w[1])
            mean_fields.append((V * w_mean)[:, None, None]
                               * (IDENT + c[:, None, None] * TAU_Z) / 2)
        parts = collect(mean_fields)

    (overlap1, w1, x1, s1), (overlap2, w2, x2, s2) = parts
    # pair energies e[a, b](t) for qubit 1 in a and qubit 2 in b (up, dn),
    # referred to the idling pair (both endpoints are at idle)
    e = V * (w1[:, None] * w2[None, :]
             + 0.5 * s1 * s2 * x1[:, None] * x2[None, :])
    (alpha, beta), (gamma, delta) = -np.trapezoid(e - e[..., :1], ts)
    nonadiab = 1.0 - min(overlap1, overlap2) ** 2
    return CphaseReport(alpha, beta, gamma, delta, nonadiab, T)


# tau+ x tau- + h.c. on the 64-dim product space: entries 1 at these
# (row, col) positions
_EXCHANGE = np.nonzero(np.kron(TAU_P, TAU_M) + np.kron(TAU_M, TAU_P))


def _pair_h_stack(layout: TwoQubitLayout, schedule: PulseSchedule, tmid,
                  noise_dE) -> np.ndarray:
    """(n, 64, 64) effective-frame pair Hamiltonian at times tmid, both
    qubits running `schedule`: H'_1 x 1 + 1 x H'_2 plus the rotating-wave-
    filtered dipole coupling V [P1 x P2 + (s1 s2 / 4) exchange], with
    P = (1 + c tau_z)/2 the static interface projector. The orbital
    exchange is kept for the shared drive frequency; single-dipole
    oscillating terms drop."""
    p1, p2 = layout.params_1, layout.params_2
    n = len(tmid)
    dE = schedule.dE_envelope(tmid)
    c1, s1 = orbital_mixing(p1, dE + noise_dE[0])
    c2, s2 = orbital_mixing(p2, dE + noise_dE[1])
    # axes (a, b, a', b') for qubit-1 level a and qubit-2 level b
    H = np.zeros((n, DIM, DIM, DIM, DIM))
    diag = np.arange(DIM)
    H[:, :, diag, :, diag] = _effective_h_stack(p1, schedule, tmid,
                                                noise_dE[0])[:, 0]
    H[:, diag, :, diag, :] += _effective_h_stack(p2, schedule, tmid,
                                                 noise_dE[1])[:, 0]
    H = H.reshape(n, DIM * DIM, DIM * DIM)
    V = dipole_coupling_strength(layout)
    # P1 x P2 is diagonal: w1[a] w2[b] on level (a, b), w = diag of P
    tz = np.diag(TAU_Z)
    w1 = (1 + c1[:, None] * tz) / 2
    w2 = (1 + c2[:, None] * tz) / 2
    static = V * (w1[:, :, None] * w2[:, None, :])
    H.reshape(n, -1)[:, ::DIM * DIM + 1] += static.reshape(n, -1)
    H[:, _EXCHANGE[0], _EXCHANGE[1]] += (V * (s1 * s2 / 4))[:, None]
    return H


@dataclass
class TwoQubitResult:
    propagator: np.ndarray          # 64x64, rotating frame
    report: CphaseReport
    computational_block: np.ndarray  # 4x4 idle-frame block
    unitarity_defect: float


def simulate_two_qubit(layout: TwoQubitLayout, schedule_1: PulseSchedule,
                       noise_dE: tuple = (0.0, 0.0),
                       dt: float = 0.1e-9) -> TwoQubitResult:
    """Effective-frame 64-dim evolution with the filtered dipole coupling;
    both qubits run schedule_1."""
    T = schedule_1.total_time
    n = max(1, int(round(T / dt)))
    p1, p2 = layout.params_1, layout.params_2

    def h_stack(tmid):
        return _pair_h_stack(layout, schedule_1, tmid, noise_dE)[:, None]

    U, defect = propagate(h_stack, 0.0, T / n, n, 1, dim=DIM * DIM)
    U = U[0]
    # back to the lab frame and the product of the per-qubit idle frames
    g1 = frame_generator_diag(p1, schedule_1.omega_E, schedule_1.omega_B)
    g2 = frame_generator_diag(p2, schedule_1.omega_E, schedule_1.omega_B)
    g12 = (g1[:, None] + g2[None, :]).ravel()
    U_lab = np.exp(1j * T * g12)[:, None] * U
    e1, b1 = idle_qubit_frame(p1, "effective", schedule_1)
    e2, b2 = idle_qubit_frame(p2, "effective", schedule_1)
    block = idle_frame_block(U_lab, (e1[:, None] + e2[None, :]).ravel(),
                             np.kron(b1, b2), T)
    diag = np.diag(block)
    offdiag = block - np.diag(diag)
    nonadiab = float(max(np.abs(offdiag).max() ** 2,
                         1 - np.min(np.abs(diag)) ** 2))
    if nonadiab > NONADIABATICITY_FLAG:
        warnings.warn(f"two-qubit evolution nonadiabaticity {nonadiab:.2e} "
                      f"exceeds {NONADIABATICITY_FLAG:.0e}", stacklevel=2)
    report = CphaseReport(*np.angle(diag), nonadiab, T)
    return TwoQubitResult(U, report, block, defect)


def cz_duration_search(layout: TwoQubitLayout, t_lo: float = 100e-9,
                       t_hi: float = 750e-9, n_samples: int = 400) -> float:
    """Duration where |phi(T)| = pi, by quadrature root finding; raises if
    |phi| is not monotone over seven durations across the bracket."""

    def phi_mag(T):
        sched = make_cphase_schedule(layout.params_1, T)
        return abs(cphase_angle(layout, sched, n_samples=n_samples).phi)

    vals = [phi_mag(T) for T in np.linspace(t_lo, t_hi, 7)]
    if not all(b >= a - 1e-3 for a, b in zip(vals[:-1], vals[1:])):
        raise RuntimeError("|phi|(T) is not monotone on the bracket")
    if (vals[0] - np.pi) * (vals[-1] - np.pi) > 0:
        raise RuntimeError(
            f"no |phi| = pi crossing in [{t_lo:.2e}, {t_hi:.2e}] s "
            f"(endpoints {vals[0]:.3f}, {vals[-1]:.3f} rad)")
    return float(brentq(lambda T: phi_mag(T) - np.pi, t_lo, t_hi, xtol=1e-11))
