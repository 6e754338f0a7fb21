"""Pulse envelopes and control-schedule factories.

Envelopes are symbolic compositions of named primitives so integrators can
sample exact values at any time step. Every factory-produced schedule
starts and ends at the idling point with the AC drives off.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import TWO_PI, SystemParams, charge_splitting, hyperfine_expectation


class Envelope:
    """Real-valued function of time; zero outside its support."""

    def value(self, t):
        raise NotImplementedError

    def __call__(self, t):
        return self.value(np.asarray(t, dtype=float))

    def is_zero(self) -> bool:
        return False


@dataclass(frozen=True)
class Constant(Envelope):
    level: float

    def value(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.level)

    def is_zero(self):
        return self.level == 0.0


@dataclass(frozen=True)
class Window(Envelope):
    """Cosine window: half-cosine rise over tau, flat top, mirrored fall.

    w(t) = (1 - cos(pi t / tau))/2 on [0, tau), 1 on [tau, T - tau),
    (1 - cos(pi (T - t)/tau))/2 on [T - tau, T], and 0 outside [0, T].
    """

    tau: float
    duration: float

    def __post_init__(self):
        if not 0 < self.tau <= self.duration / 2:
            raise ValueError("window requires 0 < tau <= duration/2")

    def value(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        tau, T = self.tau, self.duration
        m = (t >= 0) & (t < tau)
        out[m] = (1 - np.cos(np.pi * t[m] / tau)) / 2
        m = (t >= tau) & (t < T - tau)
        out[m] = 1.0
        m = (t >= T - tau) & (t <= T)
        out[m] = (1 - np.cos(np.pi * (T - t[m]) / tau)) / 2
        return out


@dataclass(frozen=True)
class Ramp(Envelope):
    """Piecewise-linear: 0 -> y1 at tau1 -> y2 at tau2 -> 0 at duration."""

    tau1: float
    y1: float
    tau2: float
    y2: float
    duration: float

    def __post_init__(self):
        if not 0 < self.tau1 < self.tau2 < self.duration:
            raise ValueError("ramp requires 0 < tau1 < tau2 < duration")

    def value(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        m = (t >= 0) & (t < self.tau1)
        out[m] = self.y1 * t[m] / self.tau1
        m = (t >= self.tau1) & (t < self.tau2)
        out[m] = self.y1 + (self.y2 - self.y1) * (t[m] - self.tau1) / (self.tau2 - self.tau1)
        m = (t >= self.tau2) & (t <= self.duration)
        out[m] = self.y2 * (self.duration - t[m]) / (self.duration - self.tau2)
        return out


@dataclass(frozen=True)
class Scaled(Envelope):
    factor: float
    inner: Envelope

    def value(self, t):
        return self.factor * self.inner.value(t)

    def is_zero(self):
        return self.factor == 0.0 or self.inner.is_zero()


@dataclass(frozen=True)
class Squared(Envelope):
    inner: Envelope

    def value(self, t):
        return self.inner.value(t) ** 2

    def is_zero(self):
        return self.inner.is_zero()


@dataclass(frozen=True)
class Shifted(Envelope):
    """inner evaluated at t - offset."""

    offset: float
    inner: Envelope

    def value(self, t):
        return self.inner.value(np.asarray(t, dtype=float) - self.offset)

    def is_zero(self):
        return self.inner.is_zero()


@dataclass(frozen=True)
class Sum(Envelope):
    terms: tuple

    def value(self, t):
        out = np.zeros_like(np.asarray(t, dtype=float))
        for term in self.terms:
            out = out + term.value(t)
        return out

    def is_zero(self):
        return all(term.is_zero() for term in self.terms)


ZERO = Constant(0.0)


# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class PulseSchedule:
    """Three control envelopes plus the two drive frequencies.

    dE_envelope is the absolute field offset trajectory (V/m), Ea_envelope
    and Ba_envelope the AC drive amplitudes (V/m, T). Drive phases restart
    at zero at the start of each schedule.
    """

    dE_envelope: Envelope
    Ea_envelope: Envelope
    Ba_envelope: Envelope
    omega_E: float
    omega_B: float
    total_time: float
    label: str = ""

    def sample(self, t):
        return (self.dE_envelope.value(t), self.Ea_envelope.value(t),
                self.Ba_envelope.value(t))


# default drive setup of the sweep-style gates: field drive referenced to
# the charge splitting at the sweep midpoint dE = 0
SWEEP_TAU1 = 5e-9
SWEEP_DURATION = 110e-9
SWEEP_RANGE = 2000.0
SWEEP_EA_PEAK = 255.2          # V/m
SWEEP_BA_PEAK = 33.26e-3       # T
SWEEP_EA_DETUNING = TWO_PI * 232.428e6
SWEEP_BA_DETUNING = TWO_PI * 217.096e6
CPHASE_DETUNING = -TWO_PI * 10e6
CPHASE_DE_GATE = 2000.0        # V/m
CPHASE_EA_PEAK = 40.0          # V/m
CPHASE_TAU2_CAP = 300e-9
ECHO_RAMP = 5e-9               # cosine ramp of the echo idle


def idle_frequencies(params: SystemParams):
    """Reference (omega_E, omega_B) for drive-free schedules."""
    return charge_splitting(params, params.dE_idle), params.B0 * params.gamma_e


def rz_ramp(T: float) -> float:
    """Cosine ramp time min(5 ns, T/2) of the Rz pulse of duration T."""
    return min(5e-9, T / 2)


def make_rz_schedule(params: SystemParams, T: float) -> PulseSchedule:
    """Z-rotation pulse: dip dE from idle toward -dE_idle and back.

    dE(t) = dE_idle - S*w(t, tau, T) with tau = rz_ramp(T) and
    S = 2e4 V/m * min(1, T / 10 ns); no AC drives.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    S = 2e4 * min(1.0, T / 10e-9)
    dE = Sum((Constant(params.dE_idle), Scaled(-S, Window(rz_ramp(T), T))))
    wE, wB = idle_frequencies(params)
    return PulseSchedule(dE, ZERO, ZERO, wE, wB, T, label=f"rz(T={T:.4g})")


def sweep_drive_frequencies(params: SystemParams):
    """Drive frequencies of the sweep gate; eps0 evaluated at dE = 0."""
    omega_E = charge_splitting(params, 0.0) - SWEEP_EA_DETUNING
    omega_B = (params.B0 * params.gamma_e - params.hyperfine_A / 4
               - SWEEP_BA_DETUNING)
    return omega_E, omega_B


def make_rx_sweep_schedule(params: SystemParams, lam: float,
                           sweep_range: float = SWEEP_RANGE) -> PulseSchedule:
    """X-rotation sweep gate: dE crosses zero at a fixed rate while the two
    AC drives are on; lam in [0, 1] scales both drive amplitudes."""
    if not 0 <= lam <= 1:
        raise ValueError("lam must be in [0, 1]")
    tau1, taus = SWEEP_TAU1, SWEEP_DURATION
    T = 2 * tau1 + taus
    tau2 = tau1 + taus
    D = sweep_range
    dE = Sum((Constant(params.dE_idle),
              Ramp(tau1, -params.dE_idle - D, tau1 + taus, -params.dE_idle + D, T)))
    win2 = Shifted(tau1, Squared(Window(tau2 / 5, tau2)))
    wE, wB = sweep_drive_frequencies(params)
    return PulseSchedule(dE, Scaled(lam * SWEEP_EA_PEAK, win2),
                         Scaled(lam * SWEEP_BA_PEAK, win2), wE, wB, T,
                         label=f"rx-sweep(lam={lam:.4g})")


def make_naive_rx_schedule(params: SystemParams, lam: float,
                           omega_B: float | None = None) -> PulseSchedule:
    """Sweep-free X gate: the sweep gate with dE parked at 0 during the
    drive segment, optionally with a retuned magnetic drive frequency."""
    sched = make_rx_sweep_schedule(params, lam, sweep_range=0.0)
    return replace(sched, label=f"rx-naive(lam={lam:.4g})",
                   omega_B=sched.omega_B if omega_B is None else omega_B)


def make_echo_rz_schedule(params: SystemParams,
                          flat_time: float) -> PulseSchedule:
    """Deliberately noise-sensitive idle at nominal dE = 0.

    Cosine ramps (duration ECHO_RAMP) take dE from idle to 0 and back
    around a flat segment of length flat_time.
    """
    if flat_time < 0:
        raise ValueError("flat_time must be non-negative")
    T = 2 * ECHO_RAMP + flat_time
    dE = Sum((Constant(params.dE_idle),
              Scaled(-params.dE_idle, Window(ECHO_RAMP, T))))
    wE, wB = idle_frequencies(params)
    return PulseSchedule(dE, ZERO, ZERO, wE, wB, T,
                         label=f"rz-echo(t={flat_time:.4g})")


def cphase_drive_frequency(params: SystemParams, dE_gate: float,
                           detuning: float = CPHASE_DETUNING) -> float:
    """Drive frequency near the dn-state orbital transition at dE_gate."""
    e0 = charge_splitting(params, dE_gate)
    a_mean = hyperfine_expectation(params, dE_gate)
    return e0 + params.hyperfine_A / 4 - a_mean / 2 + detuning


def make_cphase_schedule(params: SystemParams, T: float) -> PulseSchedule:
    """Entangling pulse: park dE at +CPHASE_DE_GATE and drive the electric
    field CPHASE_DETUNING from the dn-sector orbital transition. No
    magnetic drive."""
    tau1 = 5e-9
    if T <= 2 * tau1:
        raise ValueError("T must exceed 10 ns")
    tau_ac = T - 2 * tau1
    tau2 = min(CPHASE_TAU2_CAP, tau_ac / 2)
    e_max = CPHASE_EA_PEAK * min(1.0, (T / 300e-9) ** 2)
    dE = Sum((Constant(params.dE_idle),
              Ramp(tau1, -params.dE_idle + CPHASE_DE_GATE, tau1 + tau_ac,
                   -params.dE_idle + CPHASE_DE_GATE, T)))
    Ea = Scaled(e_max, Shifted(tau1, Window(tau2, tau_ac)))
    wE = cphase_drive_frequency(params, CPHASE_DE_GATE)
    wB = params.B0 * params.gamma_e
    return PulseSchedule(dE, Ea, ZERO, wE, wB, T, label=f"cphase(T={T:.4g})")


def make_idle_schedule(params: SystemParams, T: float) -> PulseSchedule:
    """Hold everything at the idling point for time T."""
    wE, wB = idle_frequencies(params)
    return PulseSchedule(Constant(params.dE_idle), ZERO, ZERO, wE, wB, T,
                         label=f"idle(T={T:.4g})")
