"""Pulse envelopes and control-schedule factories.

An envelope is a plain function of time. Every factory builds its
envelopes from two shapes, the cosine `window` and the linear `ramp`, and
gives a drive that is off the `off` envelope. Every factory-produced
schedule starts and ends at the idling point with the AC drives off.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .model import TWO_PI, SystemParams, charge_splitting, hyperfine_expectation


def window(t, tau, T):
    """Cosine window: half-cosine rise over tau, flat top, mirrored fall.

    w(t) = (1 - cos(pi t / tau))/2 on [0, tau), 1 on [tau, T - tau),
    (1 - cos(pi (T - t)/tau))/2 on [T - tau, T], and 0 outside [0, T].
    """
    if not 0 < tau <= T / 2:
        raise ValueError("window requires 0 < tau <= duration/2")
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    m = (t >= 0) & (t < tau)
    out[m] = (1 - np.cos(np.pi * t[m] / tau)) / 2
    m = (t >= tau) & (t < T - tau)
    out[m] = 1.0
    m = (t >= T - tau) & (t <= T)
    out[m] = (1 - np.cos(np.pi * (T - t[m]) / tau)) / 2
    return out


def ramp(t, tau1, y1, tau2, y2, T):
    """Piecewise-linear: 0 -> y1 at tau1 -> y2 at tau2 -> 0 at T, and 0
    outside [0, T]."""
    if not 0 < tau1 < tau2 < T:
        raise ValueError("ramp requires 0 < tau1 < tau2 < duration")
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    m = (t >= 0) & (t < tau1)
    out[m] = y1 * t[m] / tau1
    m = (t >= tau1) & (t < tau2)
    out[m] = y1 + (y2 - y1) * (t[m] - tau1) / (tau2 - tau1)
    m = (t >= tau2) & (t <= T)
    out[m] = y2 * (T - t[m]) / (T - tau2)
    return out


def off(t):
    """Envelope of a drive that is off."""
    return np.zeros(np.shape(t))


# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class PulseSchedule:
    """Three control envelopes plus the two drive frequencies.

    Each envelope is a function of time (scalar or array). dE_envelope is
    the absolute field offset trajectory (V/m), Ea_envelope and
    Ba_envelope the AC drive amplitudes (V/m, T); a drive that is off is
    `off` itself. Drive phases restart at zero at the start of each
    schedule.
    """

    dE_envelope: Callable
    Ea_envelope: Callable
    Ba_envelope: Callable
    omega_E: float
    omega_B: float
    total_time: float

    @property
    def driven(self) -> bool:
        """Whether either AC drive is on."""
        return self.Ea_envelope is not off or self.Ba_envelope is not off

    def sample(self, t):
        return self.dE_envelope(t), self.Ea_envelope(t), self.Ba_envelope(t)


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
CPHASE_MIN_DURATION = 10e-9    # the entangling pulse's two 5 ns dE ramps
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
    dE_idle, tau = params.dE_idle, rz_ramp(T)
    wE, wB = idle_frequencies(params)
    return PulseSchedule(lambda t: dE_idle + (-S) * window(t, tau, T),
                         off, off, wE, wB, T)


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
    D, dE_idle = sweep_range, params.dE_idle

    def dE(t):
        return dE_idle + ramp(t, tau1, -dE_idle - D, tau2, -dE_idle + D, T)

    def drive(peak):        # squared cosine window over the sweep
        if lam == 0:
            return off
        return lambda t: (lam * peak) * window(t - tau1, tau2 / 5, tau2) ** 2

    wE, wB = sweep_drive_frequencies(params)
    return PulseSchedule(dE, drive(SWEEP_EA_PEAK), drive(SWEEP_BA_PEAK),
                         wE, wB, T)


def make_naive_rx_schedule(params: SystemParams, lam: float,
                           omega_B: float | None = None) -> PulseSchedule:
    """Sweep-free X gate: the sweep gate with dE parked at 0 during the
    drive segment, optionally with a retuned magnetic drive frequency."""
    sched = make_rx_sweep_schedule(params, lam, sweep_range=0.0)
    return replace(sched,
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
    dE_idle = params.dE_idle
    wE, wB = idle_frequencies(params)
    return PulseSchedule(
        lambda t: dE_idle + (-dE_idle) * window(t, ECHO_RAMP, T),
        off, off, wE, wB, T)


def cphase_drive_frequency(params: SystemParams) -> float:
    """Drive frequency CPHASE_DETUNING from the dn-state orbital transition
    at CPHASE_DE_GATE."""
    e0 = charge_splitting(params, CPHASE_DE_GATE)
    a_mean = hyperfine_expectation(params, CPHASE_DE_GATE)
    return e0 + params.hyperfine_A / 4 - a_mean / 2 + CPHASE_DETUNING


def make_cphase_schedule(params: SystemParams, T: float) -> PulseSchedule:
    """Entangling pulse: park dE at +CPHASE_DE_GATE and drive the electric
    field CPHASE_DETUNING from the dn-sector orbital transition. No
    magnetic drive."""
    if T <= CPHASE_MIN_DURATION:
        raise ValueError(f"T must exceed {CPHASE_MIN_DURATION * 1e9:g} ns")
    tau1 = CPHASE_MIN_DURATION / 2
    tau_ac = T - 2 * tau1
    tau2 = min(CPHASE_TAU2_CAP, tau_ac / 2)
    e_max = CPHASE_EA_PEAK * min(1.0, (T / 300e-9) ** 2)
    dE_idle = params.dE_idle

    def dE(t):
        return dE_idle + ramp(t, tau1, -dE_idle + CPHASE_DE_GATE,
                              tau1 + tau_ac, -dE_idle + CPHASE_DE_GATE, T)

    wE = cphase_drive_frequency(params)
    wB = params.B0 * params.gamma_e
    return PulseSchedule(dE, lambda t: e_max * window(t - tau1, tau2, tau_ac),
                         off, wE, wB, T)


def make_idle_schedule(params: SystemParams, T: float) -> PulseSchedule:
    """Hold everything at the idling point for time T."""
    wE, wB = idle_frequencies(params)
    dE_idle = params.dE_idle
    return PulseSchedule(lambda t: np.full(np.shape(t), dE_idle), off, off,
                         wE, wB, T)
