"""Qubit-gate extraction, Euler analysis, noise Monte Carlo, and the
composite noise-resistant X gate.

Gates are defined in the idling frame: the phases a qubit accumulates while
parked at the idling point are divided out, so idling maps to the identity.
Calibrations, gate builders and the noise Monte Carlo run in the
effective frame (H'); the lab frame enters through `evolve`,
`evolve_segments` and `composite_qubit_block`, which check the calibrated
gates against it.
All 2x2 gates use the (up~, dn~) ordering with sigma_z = diag(+1, -1) and
Rz(th) = exp(-i th sigma_z / 2), Rx(th) = exp(-i th sigma_x / 2).

A calibration and the gates built on it evolve each distinct segment
once: they compose every sequence they read from one `_propagators` map
per (offsets, frame, dt), bit for bit the product a fresh evolve gives.
One schedule per lambda, the zero-noise map and the map at
SENSITIVITY_PROBES live with the lambda calibration; the Rz duration
search hands back the schedule it simulated.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .effective import effective_hamiltonian
from .model import SystemParams, qubit_splitting_approx, dephasing_sensitivity
from .operators import (QUBIT_UP_INDEX, QUBIT_DN_INDEX, frame_generator_diag,
                        orbital_transform, qubit_gauge)
from .propagation import (EvolutionResult, evolve, lab_hamiltonian, leakage,
                          to_lab_orbital)
from .pulses import (PulseSchedule, make_rz_schedule, make_naive_rx_schedule,
                     make_echo_rz_schedule, make_idle_schedule,
                     sweep_drive_frequencies, rz_ramp, SWEEP_EA_PEAK,
                     SWEEP_BA_PEAK, ECHO_RAMP)

MAX_LEAKAGE = 0.01           # a qubit block leaking more defines no gate
RZ_T_MAX = 24e-9             # longest Rz pulse the duration search tries
CALIBRATION_FRAME = "effective"   # the frame every calibration runs in
ROOT_RTOL = 4 * float(np.finfo(float).eps)   # find_root's relative tol.
ROOT_MAXITER = 100                           # find_root's iteration cap
# Gauss-Legendre nodes and weights on [-1, 1], per window piece: 48 reach
# round-off on the Rz angle and the echo slope, 32 leave 2e-12 on the slope
GAUSS_NODES, GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(48)

def rz_matrix(theta: float) -> np.ndarray:
    return np.diag([np.exp(-1j * theta / 2), np.exp(1j * theta / 2)])


def rx_matrix(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


@dataclass(frozen=True)
class QubitGate:
    """Canonical SU(2) gate: det = 1 and arg(U00) in (-pi/2, pi/2]."""

    matrix: np.ndarray

    @classmethod
    def from_block(cls, block: np.ndarray) -> "QubitGate":
        u, _, vh = np.linalg.svd(block)
        w = u @ vh
        w = w / np.sqrt(np.linalg.det(w))
        ref = w[0, 0] if abs(w[0, 0]) > 1e-9 else w[1, 0]
        if not (-np.pi / 2 < np.angle(ref) <= np.pi / 2):
            w = -w
        return cls(w)


@dataclass(frozen=True)
class EulerAngles:
    theta_z1: float
    theta_x: float
    theta_z2: float


def euler_decompose(gate: QubitGate) -> EulerAngles:
    """ZXZ decomposition; at gimbal lock (theta_x in {0, pi}) theta_z2 = 0."""
    w = gate.matrix
    thx = 2 * np.arctan2(np.abs(w[1, 0]), np.abs(w[0, 0]))
    if np.abs(w[0, 0]) < 1e-9:          # theta_x = pi
        tz1 = 2 * (np.angle(w[1, 0]) + np.pi / 2)
        return EulerAngles(tz1 % (2 * np.pi), np.pi, 0.0)
    if np.abs(w[1, 0]) < 1e-9:          # theta_x = 0
        tz1 = -2 * np.angle(w[0, 0])
        return EulerAngles(tz1 % (2 * np.pi), 0.0, 0.0)
    total = -2 * np.angle(w[0, 0])
    diff = 2 * (np.angle(w[1, 0]) + np.pi / 2)
    tz1 = (total + diff) / 2
    tz2 = (total - diff) / 2
    return EulerAngles(tz1 % (2 * np.pi), thx, tz2 % (2 * np.pi))


def gate_infidelity(U: np.ndarray, U0: np.ndarray, n: int) -> float:
    """1 - F = 1 - [Tr(U+U) + |Tr(U0+ U)|^2] / (n (n+1)).

    U may be a subnormalized block (leakage reduces Tr(U+U) below n).
    """
    t1 = np.trace(U.conj().T @ U).real
    t2 = np.abs(np.trace(U0.conj().T @ U)) ** 2
    return float(1 - (t1 + t2) / (n * (n + 1)))


def idle_qubit_frame(params: SystemParams, frame: str,
                     schedule: PulseSchedule):
    """Exact qubit eigenstates and lab energies at the nominal idle point.

    Gates are defined on the dressed idle eigenstates (not the bare basis
    states), so idling extracts to the identity in every frame. In the
    effective frame they are the eigenstates of H' at the schedule's drive
    frequencies, in the lab frame those of the lab Hamiltonian in the
    orbital basis, Lambda H_position Lambda^dag.
    Returns (energies[2], vectors 8x2) with energies in the lab frame.
    """
    if frame == "effective":
        H = effective_hamiltonian(params, params.dE_idle, 0.0, 0.0,
                                  schedule.omega_E, schedule.omega_B)
        g = frame_generator_diag(params, schedule.omega_E, schedule.omega_B)
    else:
        idle = make_idle_schedule(params, 1.0)
        lam = orbital_transform(params, params.dE_idle)
        H = lam @ lab_hamiltonian(params, idle, 0.0) @ lam.conj().T
        g = np.zeros(H.shape[0])
    ev, vec = np.linalg.eigh(H)
    iu = int(np.argmax(np.abs(vec[QUBIT_UP_INDEX, :])))
    idn = int(np.argmax(np.abs(vec[QUBIT_DN_INDEX, :])))
    energies = np.array([ev[iu] - g[QUBIT_UP_INDEX],
                         ev[idn] - g[QUBIT_DN_INDEX]])
    basis = np.stack([qubit_gauge(vec[:, iu], QUBIT_UP_INDEX),
                      qubit_gauge(vec[:, idn], QUBIT_DN_INDEX)], axis=1)
    return energies, basis


def idle_frame_block(U: np.ndarray, energies, basis, T: float) -> np.ndarray:
    """exp(i E T) basis^H U basis: the block of lab-frame, orbital-basis
    propagator(s) U on `basis` with the idle phases over a duration T
    divided out; U may be a batch."""
    return np.exp(1j * energies * T)[:, None] * (basis.conj().T @ U @ basis)


def extract_qubit_gate(result: EvolutionResult, params: SystemParams):
    """(QubitGate, leakage) of a scalar-noise result's idle-frame qubit
    block; raises ValueError when it leaks more than MAX_LEAKAGE."""
    energies, basis = idle_qubit_frame(params, result.frame, result.schedule)
    return _gate_from_block(idle_frame_block(
        to_lab_orbital(result, params), energies, basis,
        result.schedule.total_time))


def _gate_from_block(block):
    """(QubitGate, leakage) of a 2x2 idle-frame block; raises ValueError
    when the leakage exceeds MAX_LEAKAGE."""
    lk = leakage(block)
    if lk > MAX_LEAKAGE:
        raise ValueError(f"leakage {lk:.3e} exceeds {MAX_LEAKAGE}; "
                         "the qubit block does not define a gate")
    return QubitGate.from_block(block), lk


# ---------------------------------------------------------------------------
# root finding, window quadrature, Rz prediction and calibration

def find_root(f, a: float, b: float, xtol: float) -> float:
    """Root of f in [a, b] by Brent's method (Brent, Algorithms for
    Minimization without Derivatives, 1973, ch. 4).

    Step for step the iteration of scipy.optimize.brentq with rtol =
    ROOT_RTOL and maxiter = ROOT_MAXITER, so it returns the same root.
    Raises ValueError when f(a) and f(b) have the same sign or f returns
    NaN, and RuntimeError when ROOT_MAXITER iterations do not converge.
    """
    def value(x):
        fx = float(f(x))
        if fx != fx:
            raise ValueError(f"f({x!r}) is NaN; find_root cannot continue")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0 or fcur == 0:
        return xpre if fpre == 0 else xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(ROOT_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + ROOT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        interpolate = abs(spre) > delta and abs(fcur) < abs(fpre)
        if interpolate and xpre == xblk:        # secant
            stry = -fcur * (xcur - xpre) / (fcur - fpre)
        elif interpolate:                       # inverse quadratic
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            stry = (-fcur * (fblk * dblk - fpre * dpre)
                    / (dblk * dpre * (fblk - fpre)))
        if interpolate and 2 * abs(stry) < min(abs(spre),
                                               3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:                                   # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"find_root: no convergence in {ROOT_MAXITER} steps")


def _window_quadrature(integrand, params: SystemParams,
                       sched: PulseSchedule, tau: float) -> float:
    """Integral over [0, T] of integrand(dE(t)) for a schedule whose field
    is dE(t) = dE_idle - depth * window(t, tau, T).

    A Gauss-Legendre sum on each piece between the window's corners 0,
    tau, T - tau, T and the two times where dE(t) crosses 0, around which
    the integrand is sharpest; integrand takes the array of node fields.
    """
    T = sched.total_time
    depth = params.dE_idle - float(sched.dE_envelope(T / 2))
    cuts = [0.0, tau, T - tau, T]
    if 0 < params.dE_idle < depth:
        # the rise (1 - cos(pi t / tau)) / 2 reaches dE_idle / depth at tc
        tc = tau / np.pi * np.arccos(1 - 2 * params.dE_idle / depth)
        cuts += [tc, T - tc]
    edges = np.unique(cuts)
    half = np.diff(edges)[:, None] / 2
    t = edges[:-1, None] + half * (1 + GAUSS_NODES)
    return float(np.sum(half * integrand(sched.dE_envelope(t))
                        * GAUSS_WEIGHTS))


def predict_rz_angle(params: SystemParams, T: float) -> float:
    """Phase integral -int (delta_q(t) - delta_q0) dt along the Rz pulse:
    the accumulated angle, not reduced mod 2pi."""
    dq0 = qubit_splitting_approx(params, params.dE_idle)
    return -_window_quadrature(
        lambda dE: qubit_splitting_approx(params, dE) - dq0, params,
        make_rz_schedule(params, T), rz_ramp(T))


def simulate_rz_angle(params: SystemParams, T: float) -> float:
    """Extracted Z angle (mod 2pi) of the Rz schedule of duration T."""
    angles = _readout(params, [make_rz_schedule(params, T)],
                      _propagators(params, 0.0, CALIBRATION_FRAME, None))
    return angles.theta_z1 % (2 * np.pi)


def rz_duration_for_angle(params: SystemParams, theta: float) -> float:
    """Duration whose simulated Rz angle equals theta (mod 2pi).

    The accumulated angle runs monotonically from 0 down to about -2pi as
    T grows to ~22 ns, so every target angle has a unique duration on the
    branch theta(T) in [-2pi, 0). An angle whose accumulated target lies
    above theta(T) at the search's lower end needs a shorter pulse than
    the search tries: it is one full turn, theta(T) = -2pi.
    """
    return _rz_for_angle(params, theta, _propagators(
        params, 0.0, CALIBRATION_FRAME, None)).total_time


def _rz_for_angle(params: SystemParams, theta: float,
                  propagator) -> PulseSchedule:
    """rz_duration_for_angle's Rz schedule, simulated through the
    zero-noise map `propagator`, which so holds its propagator."""
    target = theta % (2 * np.pi)
    lo, hi = 1e-11, RZ_T_MAX
    accumulated = target - 2 * np.pi
    if accumulated > predict_rz_angle(params, lo):
        accumulated = -2 * np.pi

    def f(T):
        return predict_rz_angle(params, T) - accumulated

    if f(hi) > 0:
        raise ValueError(f"angle {theta} not reachable below {RZ_T_MAX} s")
    T0 = find_root(f, lo, hi, 1e-15)

    def error(sched):
        sim = _readout(params, [sched], propagator).theta_z1 % (2 * np.pi)
        return (sim - target + np.pi) % (2 * np.pi) - np.pi

    # refine against the simulated angle with a secant step
    sched0 = make_rz_schedule(params, T0)
    err = error(sched0)
    slope = (predict_rz_angle(params, T0 * 1.001)
             - predict_rz_angle(params, T0)) / (T0 * 0.001)
    T1 = T0 - err / slope
    if T1 > 0:
        sched1 = make_rz_schedule(params, T1)
        if abs(error(sched1)) < abs(err):
            return sched1
    return sched0


# ---------------------------------------------------------------------------
# noise model and Monte Carlo

@dataclass(frozen=True)
class NoiseModel:
    sigma_dE: float
    sample_count: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.sigma_dE < 0:
            raise ValueError("sigma_dE must be non-negative")
        if self.sample_count < 1:
            raise ValueError("sample_count must be at least 1")

    def draw(self) -> np.ndarray:
        """(sample_count + 1) // 2 Gaussian offsets followed by their
        negatives (antithetic pairs), cut to sample_count."""
        rng = np.random.default_rng(self.seed)
        half = (self.sample_count + 1) // 2
        base = rng.normal(0.0, self.sigma_dE, half)
        return np.concatenate([base, -base])[: self.sample_count]


def _propagators(params: SystemParams, noise_dE, frame: str, dt):
    """Map seg -> lab-frame, orbital-basis propagator of schedule `seg` at
    these offsets, frame and dt, evolving each schedule object once. It
    keeps the schedules alive, so their ids stay theirs."""
    evolved = {}

    def propagator(seg):
        if id(seg) not in evolved:
            res = evolve(params, seg, noise_dE=noise_dE, frame=frame, dt=dt)
            evolved[id(seg)] = seg, to_lab_orbital(res, params)
        return evolved[id(seg)][1]

    return propagator


def _chain(segments, propagator):
    """Ordered product of the segments' propagators from a map."""
    first = propagator(segments[0])
    U = np.broadcast_to(np.eye(8, dtype=complex), first.shape).copy()
    for seg in segments:
        U = np.matmul(propagator(seg), U)
    return U


def evolve_segments(params: SystemParams, segments, noise_dE=0.0,
                    frame: str = "effective", dt: float | None = None):
    """Chained lab-frame, orbital-basis propagator of a schedule sequence.

    Each segment is evolved in `frame` and converted to the lab orbital
    basis; drive phases restart at each segment boundary. A schedule
    object that appears more than once is evolved once; a build chains
    from one `_propagators` map instead, so each of its segments is
    evolved once however many of its sequences hold it.
    """
    return _chain(segments, _propagators(params, noise_dE, frame, dt))


def composite_qubit_block(params: SystemParams, segments, noise_dE=0.0,
                          frame: str = "effective", dt: float | None = None):
    """Idle-frame qubit block(s) of a schedule sequence."""
    return _qubit_block(params, segments, frame,
                        _propagators(params, noise_dE, frame, dt))


def _qubit_block(params: SystemParams, segments, frame: str, propagator):
    """Idle-frame qubit block(s) of a sequence chained from `propagator`,
    a `_propagators` map in `frame`."""
    U = _chain(segments, propagator)
    energies, basis = idle_qubit_frame(params, frame, segments[0])
    T = sum(seg.total_time for seg in segments)
    return idle_frame_block(U, energies, basis, T)


def _readout(params: SystemParams, segments, propagator) -> EulerAngles:
    """Euler angles of a schedule sequence at zero noise in
    CALIBRATION_FRAME, chained from the build's zero-noise map
    `propagator`; raises ValueError when its qubit block leaks more than
    MAX_LEAKAGE."""
    gate, _ = _gate_from_block(_qubit_block(params, segments,
                                            CALIBRATION_FRAME, propagator))
    return euler_decompose(gate)


@dataclass
class MonteCarloResult:
    mean_infidelity: float
    infidelities: np.ndarray
    samples: np.ndarray
    leakages: np.ndarray


def run_noise_monte_carlo(params: SystemParams, segments, target: np.ndarray,
                          model: NoiseModel,
                          dt: float | None = None) -> MonteCarloResult:
    """Average gate infidelity over quasi-static Gaussian field noise, in
    CALIBRATION_FRAME.

    Each sample holds one constant offset for the entire sequence; results
    are bit-reproducible for a given (seed, sample_count).
    """
    draws = model.draw()
    blocks = composite_qubit_block(params, segments, draws, CALIBRATION_FRAME,
                                   dt)
    infids = np.array([gate_infidelity(b, target, 2) for b in blocks])
    leaks = leakage(blocks)
    return MonteCarloResult(float(infids.mean()), infids, draws, leaks)


# ---------------------------------------------------------------------------
# noise-sensitivity extraction

SENSITIVITY_PROBES = np.array([-40.0, -20.0, 0.0, 20.0, 40.0])


@dataclass(frozen=True)
class NoiseSensitivity:
    theta_z1_prime: float
    theta_z2_prime: float
    theta_x_0: float
    theta_x_prime: float


def noise_sensitivity(params: SystemParams, segments) -> NoiseSensitivity:
    """Linear fit of the Euler angles against the quasi-static field
    offsets SENSITIVITY_PROBES."""
    return _sensitivity(params, segments, _propagators(
        params, SENSITIVITY_PROBES, CALIBRATION_FRAME, None))


def _sensitivity(params: SystemParams, segments,
                 propagator) -> NoiseSensitivity:
    """noise_sensitivity chained from a map at SENSITIVITY_PROBES."""
    probes = SENSITIVITY_PROBES
    blocks = _qubit_block(params, segments, CALIBRATION_FRAME, propagator)
    decomposed = [euler_decompose(_gate_from_block(block)[0])
                  for block in blocks]
    raw = np.array([(a.theta_z1, a.theta_x, a.theta_z2) for a in decomposed])
    cols = np.unwrap(raw, axis=0).T          # z1, x, z2
    (pz1, px, pz2) = [np.polyfit(probes, col, 1) for col in cols]
    return NoiseSensitivity(
        theta_z1_prime=float(pz1[0]),
        theta_z2_prime=float(pz2[0]),
        theta_x_0=float(np.polyval(px, 0.0)),
        theta_x_prime=float(px[0]),
    )


# ---------------------------------------------------------------------------
# lambda calibration for the sweep and sweep-free X gates

class LambdaCalibration:
    """Monotone lookup lambda -> theta_x simulated on n_points lambdas
    from 0 to 1, with what the gates built on it share: one schedule per
    lambda of maker(params, lambda), the zero-noise map and the map at
    SENSITIVITY_PROBES. So a gate needs the calibration's params.

    The table keeps the rising branch only: it stops before the first
    lambda whose theta_x falls below the entry before it, as for a drive
    whose net rotation saturates and folds back.
    """

    def __init__(self, params: SystemParams, maker, n_points: int):
        self.params, self.maker, self.made = params, maker, {}
        self.propagator = _propagators(params, 0.0, CALIBRATION_FRAME, None)
        self.probes = _propagators(params, SENSITIVITY_PROBES,
                                   CALIBRATION_FRAME, None)
        lams = np.linspace(0.0, 1.0, n_points)
        thetas = [0.0]
        for lam in lams[1:]:
            th = self.measure(lam)
            if th < thetas[-1]:
                break
            thetas.append(th)
        self.lambdas, self.thetas = lams[:len(thetas)], np.array(thetas)

    def schedule(self, lam):
        if lam not in self.made:
            self.made[lam] = self.maker(self.params, lam)
        return self.made[lam]

    def measure(self, lam) -> float:
        """Simulated theta_x of the schedule at lambda."""
        return _readout(self.params, [self.schedule(lam)],
                        self.propagator).theta_x

    def theta_max(self) -> float:
        return float(self.thetas[-1])

    def lambda_for_theta(self, theta_x: float) -> float:
        """Root of measure(lambda) = theta_x between the table entries
        around theta_x, which bracket it since measure reproduces the table."""
        if theta_x <= 0:
            raise ValueError("theta_x must be positive")
        if theta_x >= self.thetas[-1]:
            return float(self.lambdas[-1])
        i = int(np.searchsorted(self.thetas, theta_x))
        return find_root(lambda lam: self.measure(lam) - theta_x,
                         self.lambdas[i - 1], self.lambdas[i], 1e-4)


def calibrate_lambda(params: SystemParams, maker,
                     n_points: int = 11) -> LambdaCalibration:
    """Simulate theta_x across a lambda grid up to its first fall."""
    return LambdaCalibration(params, maker, n_points)


def calibrate_naive_resonance(params: SystemParams) -> float:
    """Drive-field magnetic frequency putting the parked gate on two-photon
    resonance at its full-drive plateau, including AC Stark shifts.

    Root-finds the rotating-frame qubit-block detuning of H' at the plateau
    envelope values (dE = 0, SWEEP_EA_PEAK, SWEEP_BA_PEAK). The Stark shifts
    move with the drive strength, so the tuning holds at full drive only.
    """
    wE, wB0 = sweep_drive_frequencies(params)

    def detuning(wB):
        Hp = effective_hamiltonian(params, 0.0, SWEEP_EA_PEAK,
                                   SWEEP_BA_PEAK, wE, wB)
        return float((Hp[QUBIT_DN_INDEX, QUBIT_DN_INDEX]
                      - Hp[QUBIT_UP_INDEX, QUBIT_UP_INDEX]).real)

    span = 2 * np.pi * 40e6
    return find_root(detuning, wB0 - span, wB0 + span, 1.0)


def naive_maker(params: SystemParams):
    """Schedule factory for the parked gate at fixed retuned frequencies.

    The drive-induced shift of the two-photon resonance tracks the envelope,
    so the parked gate is only near-resonant over a limited amplitude
    window; the retune anchors it there and the lambda table keeps the
    rising branch.
    """
    omega_B = calibrate_naive_resonance(params)

    def maker(p, lam):
        return make_naive_rx_schedule(p, lam, omega_B=omega_B)

    return maker


# ---------------------------------------------------------------------------
# corrected single gates and the sweep-and-echo composite

CORRECTIVE_ITERATIONS = 4    # wrapper refinements against the composite
CORRECTIVE_TOL = 2e-4        # rad; residual z-angles counted as zero


def echo_slope(params: SystemParams, flat_time: float) -> float:
    """First-order dephasing slope d(theta_z)/d(dE) of the echo idle.

    Quadrature of -d(delta_q)/d(dE) along the echo trajectory; the flat
    segment contributes A d e t / (4 hbar Vt) and the cosine ramps add a
    fixed offset.
    """
    sched = make_echo_rz_schedule(params, flat_time)
    return -_window_quadrature(lambda dE: dephasing_sensitivity(params, dE),
                               params, sched, ECHO_RAMP)


def echo_flat_time_for_slope(params: SystemParams, slope: float) -> float:
    """Invert echo_slope for the flat-segment duration (clipped at 0)."""
    k0 = params.hyperfine_A * params.de_over_hbar / (4 * params.Vt)
    base = echo_slope(params, 0.0)
    return max(0.0, (slope - base) / k0)


@dataclass
class ComposedGate:
    """A gate realized as a sequence of schedules, with calibration data."""

    segments: list
    target: np.ndarray
    info: dict

    @property
    def total_time(self) -> float:
        return sum(seg.total_time for seg in self.segments)


def _wrap_with_correctives(calibration, core_segments, theta_x, info):
    """Add Rz wrappers so the sequence equals Rx(theta) at zero noise.

    Solved iteratively on the measured full composite: inserting a wrapper
    shifts every later segment's idle-frame phase split, so the corrective
    angles are refined against the realized sequence until the residual
    z-angles vanish. `info` gets the angles of the wrappers returned.
    """
    params, propagator = calibration.params, calibration.propagator
    ang = _readout(params, core_segments, propagator)
    info = dict(info, theta_z1=ang.theta_z1, theta_z2=ang.theta_z2,
                theta_x_measured=ang.theta_x)
    c_pre, c_post = -ang.theta_z2, -ang.theta_z1
    for _ in range(CORRECTIVE_ITERATIONS):
        segments = [_rz_for_angle(params, c_pre, propagator), *core_segments,
                    _rz_for_angle(params, c_post, propagator)]
        info["corrective_pre"] = c_pre % (2 * np.pi)
        info["corrective_post"] = c_post % (2 * np.pi)
        res = _readout(params, segments, propagator)
        r1 = (res.theta_z1 + np.pi) % (2 * np.pi) - np.pi
        r2 = (res.theta_z2 + np.pi) % (2 * np.pi) - np.pi
        if abs(r1) < CORRECTIVE_TOL and abs(r2) < CORRECTIVE_TOL:
            break
        c_post -= r1
        c_pre -= r2
    return ComposedGate(segments, rx_matrix(theta_x), info)


def build_corrected_rx(params: SystemParams, theta_x: float,
                       calibration: LambdaCalibration,
                       variant: str = "sweep") -> ComposedGate:
    """Single sweep (or parked) X gate with corrective Z rotations.

    `variant` ('sweep' or 'naive') names the calibration's drive, whose
    schedules the gate uses. Angles beyond the calibration range are
    reached by chaining two equal segments around an Rz that cancels the
    first segment's trailing and the second's leading z-phases, so the
    x-rotations add exactly.
    """
    if variant not in ("sweep", "naive"):
        raise ValueError("variant must be 'sweep' or 'naive'")
    info = {"variant": variant}
    if theta_x - calibration.theta_max() < 0.1:
        # past theta_max (3.09 for the reference tuning) lambda_for_theta
        # clamps to full drive: a small coherent floor, not a chain
        lam = calibration.lambda_for_theta(theta_x)
        core = [calibration.schedule(lam)]
        info["lambda"] = lam
        if theta_x > calibration.theta_max():
            info["clamped"] = True
    else:
        # chain n equal segments, each comfortably inside the calibrated
        # range where the rotation axis is clean
        healthy = 0.8 * calibration.theta_max()
        n_seg = int(np.ceil(theta_x / healthy))
        phi = theta_x / n_seg
        lam = calibration.lambda_for_theta(phi)
        seg = calibration.schedule(lam)
        ang = _readout(params, [seg], calibration.propagator)
        # the x-rotations add exactly when each junction Rz cancels z2 of
        # the previous segment, z1 of the next, and the idle-frame phase
        # advanced over one (T_seg + t_mid) period; four passes of the
        # fixed point in t_mid, the last of which moves it by ~3e-12 s
        energies, _ = idle_qubit_frame(params, CALIBRATION_FRAME, seg)
        dq0 = energies[1] - energies[0]
        t_mid = 0.0
        for _ in range(4):
            beta = -(ang.theta_z1 + ang.theta_z2
                     + dq0 * (seg.total_time + t_mid))
            mid = _rz_for_angle(params, beta, calibration.propagator)
            t_mid = mid.total_time
        core = [seg]
        for _ in range(n_seg - 1):
            core += [mid, seg]
        info.update({"lambda": lam, "segments": n_seg, "mid_rz_time": t_mid})
    return _wrap_with_correctives(calibration, core, theta_x, info)


def build_sweep_echo_rx(params: SystemParams, theta_x: float,
                        calibration: LambdaCalibration) -> ComposedGate:
    """Noise-resistant Rx(theta): echo idles and X wrappers cancel the sweep
    gate's first-order dephasing slopes; corrective Rz gates absorb all
    deterministic phases.

    Sequence (time order): corrRz, echo2, X, sweep(theta), X, echo1, corrRz;
    the sweep and X (lambda = 1) are the sweep calibration's schedules.
    """
    if not 0 < theta_x <= calibration.theta_max() + 1e-9:
        raise ValueError(
            f"theta_x must lie in (0, {calibration.theta_max():.4f}] "
            "(calibrated range)")
    lam = calibration.lambda_for_theta(theta_x)
    sweep = calibration.schedule(lam)
    sens = _sensitivity(params, [sweep], calibration.probes)
    x_gate = calibration.schedule(1.0)

    t1 = echo_flat_time_for_slope(params, sens.theta_z1_prime)
    t2 = echo_flat_time_for_slope(params, sens.theta_z2_prime)
    info = {"lambda": lam, "theta_z1_prime": sens.theta_z1_prime,
            "theta_z2_prime": sens.theta_z2_prime,
            "theta_x_prime": sens.theta_x_prime}

    def core_for(t1_, t2_):
        return [make_echo_rz_schedule(params, t2_), x_gate, sweep, x_gate,
                make_echo_rz_schedule(params, t1_)]

    # one Newton step on the measured residual slopes of the composite:
    # its left z-slope is s1 - theta_z1' and its right one s2 - theta_z2'
    k0 = params.hyperfine_A * params.de_over_hbar / (4 * params.Vt)
    sens_c = _sensitivity(params, core_for(t1, t2), calibration.probes)
    t1 = max(0.0, t1 - sens_c.theta_z1_prime / k0)
    t2 = max(0.0, t2 - sens_c.theta_z2_prime / k0)
    info["residual_z_slopes"] = (sens_c.theta_z1_prime,
                                 sens_c.theta_z2_prime)
    info.update(echo_t1=t1, echo_t2=t2)
    return _wrap_with_correctives(calibration, core_for(t1, t2), theta_x,
                                  info)
