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

from .model import SystemParams, orbital_mixing
from .operators import (DIM, IDENT, TAU_Z, TAU_P, TAU_M, QUBIT_UP_INDEX,
                        QUBIT_DN_INDEX, frame_generator_diag,
                        interface_projector)
from .pulses import PulseSchedule, make_cphase_schedule, cphase_drive_frequency, CPHASE_DETUNING
from .effective import effective_hamiltonian, effective_hamiltonian_batch
from .gates import idle_frame_block, idle_qubit_frame
from .propagation import propagate

TWO_PI = 2 * np.pi


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
    alpha: float
    beta: float
    gamma: float
    delta: float
    phi: float
    local_rz_1: float       # exp(-i theta sigma_z/2) correction on qubit 1
    local_rz_2: float
    nonadiabaticity: float
    total_time: float

    def phases_consistent(self) -> bool:
        res = (self.alpha - self.beta - self.gamma + self.delta - self.phi)
        return abs((res + np.pi) % (2 * np.pi) - np.pi) < 1e-9


def dipole_coupling_strength(layout: TwoQubitLayout) -> float:
    """V = e^2 d1 d2 / (4 pi eps0 eps_r r^3) in rad/s (projector weight)."""
    p = layout.params_1
    consts = p.constants
    num = (consts.electron_charge ** 2 * layout.params_1.donor_depth_d
           * layout.params_2.donor_depth_d)
    den = (4 * np.pi * consts.vacuum_permittivity
           * consts.silicon_relative_permittivity * layout.separation_r ** 3)
    return num / den / consts.hbar


def interface_weight(params: SystemParams, state: np.ndarray, dE,
                     noise_dE: float = 0.0) -> float:
    """<psi| (|i><i| x 1_spin) |psi> at the instantaneous field."""
    P = interface_projector(params, np.asarray(dE, dtype=float) + noise_dE)
    w = float(np.real(state.conj() @ P @ state))
    return w


def _weight_parts(params, state, dEn):
    """(w_bar, x) of a dressed state: static interface weight and half the
    coherent orbital-dipole amplitude."""
    c, s = orbital_mixing(params, dEn)
    tz = float(np.real(state.conj() @ TAU_Z @ state))
    tx_half = float(np.real(state.conj() @ ((TAU_P + TAU_M) / 2) @ state))
    return (1 + c * tz) / 2, tx_half, s


@dataclass
class TrackedStates:
    times: np.ndarray
    up_states: np.ndarray       # (n, 8)
    dn_states: np.ndarray
    min_overlap: float


def track_dressed_qubit_states(params: SystemParams, schedule: PulseSchedule,
                               times: np.ndarray, noise_dE: float = 0.0,
                               min_overlap: float = 0.5,
                               mean_field=None) -> TrackedStates:
    """Follow the two dressed qubit eigenstates of H' along a schedule.

    Continuity by maximal overlap with the previous sample; raises if the
    assignment drops below `min_overlap` (level crossing). `mean_field`
    optionally supplies (t, dEn) -> an additive Hermitian term, used for
    the partner qubit's average dipole shift.
    """
    dE, Ea, Ba = schedule.sample(times)
    ups, dns = [], []
    worst = 1.0
    prev_u = prev_d = None
    for i in range(len(times)):
        Hp = effective_hamiltonian(params, float(dE[i]), float(Ea[i]),
                                   float(Ba[i]), schedule.omega_E,
                                   schedule.omega_B, noise_dE)
        if mean_field is not None:
            Hp = Hp + mean_field(float(times[i]), float(dE[i]) + noise_dE)
        _, vec = np.linalg.eigh(Hp)
        if prev_u is None:
            iu = int(np.argmax(np.abs(vec[QUBIT_UP_INDEX, :])))
            idn = int(np.argmax(np.abs(vec[QUBIT_DN_INDEX, :])))
        else:
            ou = np.abs(prev_u.conj() @ vec)
            od = np.abs(prev_d.conj() @ vec)
            iu, idn = int(np.argmax(ou)), int(np.argmax(od))
            worst = min(worst, float(ou[iu]), float(od[idn]))
            if worst < min_overlap:
                raise RuntimeError(
                    f"dressed-state tracking lost continuity at t = "
                    f"{times[i]:.3e} s (overlap {worst:.3f})")
        vu, vd = vec[:, iu], vec[:, idn]
        # fix gauge: largest qubit component real positive
        vu = vu * np.exp(-1j * np.angle(vu[QUBIT_UP_INDEX]))
        vd = vd * np.exp(-1j * np.angle(vd[QUBIT_DN_INDEX]))
        prev_u, prev_d = vu, vd
        ups.append(vu)
        dns.append(vd)
    return TrackedStates(times, np.array(ups), np.array(dns), worst)


def cphase_angle(layout: TwoQubitLayout, schedule_1: PulseSchedule,
                 schedule_2: PulseSchedule | None = None,
                 n_samples: int = 600, noise_dE: tuple = (0.0, 0.0),
                 include_dipole_exchange: bool = True,
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

    qubits = ((layout.params_1, schedule_1, noise_dE[0]),
              (layout.params_2, schedule_2, noise_dE[1]))

    def collect(mean_fields):
        tracks, parts = [], []
        for (params, sched, dn), mf in zip(qubits, mean_fields):
            tr = track_dressed_qubit_states(params, sched, ts, dn,
                                            mean_field=mf)
            dEs = sched.dE_envelope.value(ts) + dn
            wu, xu, wd, xd, ss = [], [], [], [], []
            for i in range(n_samples):
                a, b, s = _weight_parts(params, tr.up_states[i], dEs[i])
                c, d, _ = _weight_parts(params, tr.dn_states[i], dEs[i])
                wu.append(a); xu.append(b); wd.append(c); xd.append(d)
                ss.append(s)
            parts.append(tuple(np.array(v) for v in (wu, xu, wd, xd, ss)))
            tracks.append(tr)
        return tracks, parts

    tracks, parts = collect((None, None))
    for _ in range(mean_field_passes):
        means = [0.5 * (p[0] + p[2]) for p in parts]     # (w_up + w_dn)/2

        def make_mf(other_mean, params):
            def mf(t, dEn):
                w = float(np.interp(t, ts, other_mean))
                c, _ = orbital_mixing(params, dEn)
                # static part of the interface projector; its tau_x part
                # rotates at the drive frequency and averages out
                return V * w * (IDENT + c * TAU_Z) / 2
            return mf

        tracks, parts = collect((make_mf(means[1], layout.params_1),
                                 make_mf(means[0], layout.params_2)))

    (wu1, xu1, wd1, xd1, s1), (wu2, xu2, wd2, xd2, s2) = parts
    xfac = 0.5 * s1 * s2 if include_dipole_exchange else 0.0

    def pair_energy(wa, xa, wb, xb):
        return V * (wa * wb + xfac * xa * xb)

    e_uu = pair_energy(wu1, xu1, wu2, xu2)
    e_ud = pair_energy(wu1, xu1, wd2, xd2)
    e_du = pair_energy(wd1, xd1, wu2, xu2)
    e_dd = pair_energy(wd1, xd1, wd2, xd2)
    # reference: idling pair (both endpoints are at idle)
    ref = {}
    for key, arr in (("uu", e_uu), ("ud", e_ud), ("du", e_du), ("dd", e_dd)):
        ref[key] = arr - arr[0]
    alpha = -np.trapezoid(ref["uu"], ts)
    beta = -np.trapezoid(ref["ud"], ts)
    gamma = -np.trapezoid(ref["du"], ts)
    delta = -np.trapezoid(ref["dd"], ts)
    phi = alpha - beta - gamma + delta
    nonadiab = 1.0 - min(tr.min_overlap for tr in tracks) ** 2
    return CphaseReport(alpha, beta, gamma, delta, phi,
                        local_rz_1=alpha - gamma, local_rz_2=alpha - beta,
                        nonadiabaticity=nonadiab, total_time=T)


def coupled_drive_frequency(layout: TwoQubitLayout, dE_gate: float = 2000.0,
                            detuning: float = CPHASE_DETUNING) -> float:
    """Re-reference the drive to the dipole-shifted orbital transition.

    With the partner parked in its ground orbital, the dn-sector transition
    of each qubit shifts by V (w_e - w_g) w_partner; the returned frequency
    keeps the requested detuning from the shifted line.

    Caution: at the default layout the shift (~2pi*38 MHz) is comparable to
    the dn-up sector spacing (~2pi*46 MHz), so re-referencing parks the
    drive near the up-sector orbital resonance and the coupled evolution
    leaks; the default workflows therefore drive at the bare frequency.
    """
    params = layout.params_1
    V = dipole_coupling_strength(layout)
    c, _ = orbital_mixing(params, dE_gate)
    shift = V * (-c) * (1 + c) / 2
    return cphase_drive_frequency(params, dE_gate, detuning) + shift


def make_coupled_cphase_schedule(layout: TwoQubitLayout, T: float,
                                 dE_gate: float = 2000.0,
                                 detuning: float = CPHASE_DETUNING) -> PulseSchedule:
    """CPHASE pulse with the two-qubit drive-frequency adjustment."""
    wE = coupled_drive_frequency(layout, dE_gate, detuning)
    return make_cphase_schedule(layout.params_1, T, dE_gate, detuning,
                                omega_E=wE)


def _kron(a, b):
    """Kronecker product of the trailing matrices of a and b, broadcast
    over their leading axes."""
    k = a[..., :, None, :, None] * b[..., None, :, None, :]
    return k.reshape(k.shape[:-4] + (k.shape[-4] * k.shape[-3],
                                     k.shape[-2] * k.shape[-1]))


_EXCHANGE = _kron(TAU_P, TAU_M) + _kron(TAU_M, TAU_P)


def _dipole_interaction_rwa(layout: TwoQubitLayout, dEn1, dEn2,
                            include_exchange: bool = True) -> np.ndarray:
    """Rotating-wave-filtered V_dip on the 64-dim product space.

    Keeps the static projector parts and, for shared drive frequency, the
    orbital excitation-exchange terms; single-dipole oscillating terms drop.
    Array-valued fields give a stack of 64x64 matrices.
    """
    V = dipole_coupling_strength(layout)
    c1, s1 = orbital_mixing(layout.params_1, np.asarray(dEn1)[..., None, None])
    c2, s2 = orbital_mixing(layout.params_2, np.asarray(dEn2)[..., None, None])
    H = _kron((IDENT + c1 * TAU_Z) / 2, (IDENT + c2 * TAU_Z) / 2)
    if include_exchange:
        H += (s1 * s2 / 4) * _EXCHANGE
    return V * H


@dataclass
class TwoQubitResult:
    propagator: np.ndarray          # 64x64, rotating frame
    report: CphaseReport
    computational_block: np.ndarray  # 4x4 idle-frame block
    unitarity_defect: float


def simulate_two_qubit(layout: TwoQubitLayout, schedule_1: PulseSchedule,
                       schedule_2: PulseSchedule | None = None,
                       noise_dE: tuple = (0.0, 0.0), dt: float = 0.1e-9,
                       include_exchange: bool = True,
                       nonadiab_flag: float = 1e-3) -> TwoQubitResult:
    """Effective-frame 64-dim evolution with the filtered dipole coupling."""
    if schedule_2 is None:
        schedule_2 = schedule_1
    T = schedule_1.total_time
    if abs(schedule_2.total_time - T) > 1e-15:
        raise ValueError("both schedules must share the total time")
    n = max(1, int(round(T / dt)))
    p1, p2 = layout.params_1, layout.params_2
    eye = np.eye(DIM)

    def h_stack(tmid):
        dE1, Ea1, Ba1 = schedule_1.sample(tmid)
        dE2, Ea2, Ba2 = schedule_2.sample(tmid)
        H1 = effective_hamiltonian_batch(p1, dE1[:, None] + noise_dE[0],
                                         Ea1[:, None], Ba1[:, None],
                                         schedule_1.omega_E, schedule_1.omega_B)[:, 0]
        H2 = effective_hamiltonian_batch(p2, dE2[:, None] + noise_dE[1],
                                         Ea2[:, None], Ba2[:, None],
                                         schedule_2.omega_E, schedule_2.omega_B)[:, 0]
        H = _kron(H1, eye)
        H += _kron(eye, H2)
        H += _dipole_interaction_rwa(layout, dE1 + noise_dE[0],
                                     dE2 + noise_dE[1], include_exchange)
        return H[:, None]

    U, defect, _ = propagate(h_stack, 0.0, T / n, n, 1, dim=DIM * DIM)
    U = U[0]
    # back to the lab frame and the product of the per-qubit idle frames
    g1 = frame_generator_diag(p1, schedule_1.omega_E, schedule_1.omega_B)
    g2 = frame_generator_diag(p2, schedule_2.omega_E, schedule_2.omega_B)
    g12 = (g1[:, None] + g2[None, :]).ravel()
    U_lab = np.exp(1j * T * g12)[:, None] * U
    e1, b1 = idle_qubit_frame(p1, "effective", schedule_1)
    e2, b2 = idle_qubit_frame(p2, "effective", schedule_2)
    block = idle_frame_block(U_lab, (e1[:, None] + e2[None, :]).ravel(),
                             _kron(b1, b2), T)
    diag = np.diag(block)
    alpha, beta, gamma, delta = np.angle(diag)
    phi = alpha - beta - gamma + delta
    offdiag = block - np.diag(diag)
    nonadiab = float(max(np.abs(offdiag).max() ** 2,
                         1 - np.min(np.abs(diag)) ** 2))
    if nonadiab > nonadiab_flag:
        warnings.warn(f"two-qubit evolution nonadiabaticity {nonadiab:.2e} "
                      f"exceeds {nonadiab_flag:.0e}", stacklevel=2)
    report = CphaseReport(alpha, beta, gamma, delta, phi,
                          local_rz_1=alpha - gamma, local_rz_2=alpha - beta,
                          nonadiabaticity=nonadiab, total_time=T)
    return TwoQubitResult(U, report, block, defect)


def cz_duration_search(layout: TwoQubitLayout, t_lo: float = 100e-9,
                       t_hi: float = 750e-9, detuning: float = CPHASE_DETUNING,
                       coupled_adjustment: bool = False,
                       n_samples: int = 400,
                       check_monotone: bool = True) -> float:
    """Duration where |phi(T)| = pi, by quadrature root finding."""

    def phi_mag(T):
        if coupled_adjustment:
            sched = make_coupled_cphase_schedule(layout, T, detuning=detuning)
        else:
            sched = make_cphase_schedule(layout.params_1, T, detuning=detuning)
        return abs(cphase_angle(layout, sched, n_samples=n_samples).phi)

    if check_monotone:
        grid = np.linspace(t_lo, t_hi, 7)
        vals = [phi_mag(T) for T in grid]
        if not all(b >= a - 1e-3 for a, b in zip(vals[:-1], vals[1:])):
            raise RuntimeError("|phi|(T) is not monotone on the bracket")
    else:
        vals = [phi_mag(t_lo), phi_mag(t_hi)]

    f_lo = vals[0] - np.pi
    f_hi = vals[-1] - np.pi
    if f_lo * f_hi > 0:
        raise RuntimeError(
            f"no |phi| = pi crossing in [{t_lo:.2e}, {t_hi:.2e}] s "
            f"(endpoints {vals[0]:.3f}, {vals[-1]:.3f} rad)")
    return float(brentq(lambda T: phi_mag(T) - np.pi, t_lo, t_hi, xtol=1e-11))
