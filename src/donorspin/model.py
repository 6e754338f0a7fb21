"""Device parameters and closed-form energy quantities.

All energies are stored as angular frequencies (rad/s, hbar = 1
internally). Magnetic fields are in tesla, electric fields in V/m and
lengths in metres. The electric-field coordinate ``dE`` is always the
offset from the ionization point; the absolute field never appears.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi

# fundamental constants (SI)
ELECTRON_CHARGE = 1.602176634e-19           # C
HBAR = 1.054571817e-34                      # J s
VACUUM_PERMITTIVITY = 8.8541878128e-12      # F/m
SILICON_RELATIVE_PERMITTIVITY = 11.7


@dataclass(frozen=True)
class SystemParams:
    """Device parameters of one donor-interface qubit.

    Defaults are the reference device: hyperfine 2pi*117 MHz, electron
    and nuclear gyromagnetic ratios 2pi*27.97 GHz/T and 2pi*17.23 MHz/T,
    relative gyromagnetic shift -0.002, donor 15 nm under the interface,
    0.2 T static field, tunnel coupling B0*(gamma_e + gamma_n) and an
    idling point 1e4 V/m past ionization.
    """

    hyperfine_A: float = TWO_PI * 117e6          # rad/s
    gamma_e: float = TWO_PI * 27.97e9            # rad/s/T
    gamma_n: float = TWO_PI * 17.23e6            # rad/s/T
    delta_gamma: float = -0.002
    donor_depth_d: float = 15e-9                 # m
    B0: float = 0.2                              # T
    Vt: float | None = None                      # rad/s; default B0*(ge+gn)
    dE_idle: float = 1e4                         # V/m

    def __post_init__(self):
        if self.Vt is None:
            object.__setattr__(self, "Vt", self.B0 * (self.gamma_e + self.gamma_n))
        for name in ("hyperfine_A", "gamma_e", "gamma_n", "donor_depth_d",
                     "B0", "Vt"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        ratio = self.B0 * (self.gamma_e + self.gamma_n) / self.hyperfine_A
        if ratio < 10:
            warnings.warn(
                f"B0*(gamma_e+gamma_n)/A = {ratio:.2f} < 10; the qubit-state "
                "approximations assume a strong static field", stacklevel=2)

    @property
    def de_over_hbar(self) -> float:
        """d*e/hbar in rad/s per (V/m); converts fields to drive rates."""
        return self.donor_depth_d * ELECTRON_CHARGE / HBAR


def charge_splitting(params: SystemParams, dE):
    """Orbital (charge) splitting eps0 = sqrt(Vt^2 + (d e dE / hbar)^2)."""
    x = params.de_over_hbar * np.asarray(dE, dtype=float)
    return np.hypot(params.Vt, x)


def orbital_mixing(params: SystemParams, dE):
    """Return (c, s) = (d e dE / hbar eps0, Vt / eps0); c^2 + s^2 = 1."""
    e0 = charge_splitting(params, dE)
    x = params.de_over_hbar * np.asarray(dE, dtype=float)
    return x / e0, params.Vt / e0


def hyperfine_expectation(params: SystemParams, dE):
    """Hyperfine coupling seen by the orbital ground state,
    <A> = (A/2)(1 - d e dE / hbar eps0)."""
    c, _ = orbital_mixing(params, dE)
    return (params.hyperfine_A / 2) * (1 - c)


def qubit_splitting_approx(params: SystemParams, dE):
    """Closed-form qubit splitting B0*gamma_n + <A>/2."""
    return params.B0 * params.gamma_n + hyperfine_expectation(params, dE) / 2


def dephasing_sensitivity(params: SystemParams, dE):
    """d(delta_q)/d(dE) = -A d e Vt^2 / (4 hbar eps0^3), rad/s per (V/m)."""
    e0 = charge_splitting(params, dE)
    return -params.hyperfine_A * params.de_over_hbar * params.Vt**2 / (4 * e0**3)
