"""Hilbert-space conventions and operator matrices.

Basis ordering is fixed package-wide: index = 4*orbital + 2*electron + nuclear
with orbital {g,e} (or position {i,d}), electron spin {dn,up}, nuclear
spin {Dn,Up}. The qubit is |up~> ~ |g,dn,Up> (index 1) and
|dn~> ~ |g,dn,Dn> (index 0).
"""
from __future__ import annotations

import numpy as np

from .model import SystemParams, orbital_mixing

DIM = 8

BASIS_LABELS = tuple(
    f"{o}{e}{n}" for o in ("g", "e") for e in ("dn", "up") for n in ("Dn", "Up")
)

QUBIT_UP_INDEX = 1   # |g dn Up>
QUBIT_DN_INDEX = 0   # |g dn Dn>


# Every operator with real matrix elements is float64, so the Hamiltonian
# stacks built from them are real symmetric; only the y components are
# complex.
_I2 = np.eye(2)
_PZ = np.array([[1.0, 0.0], [0.0, -1.0]])      # +1 on first basis state
_PX = np.array([[0.0, 1.0], [1.0, 0.0]])
_PP = np.array([[0.0, 1.0], [0.0, 0.0]])       # |first><second|
_PY = np.array([[0, -1j], [1j, 0]])
# spin-1/2 in (dn, up) ordering: Sz = diag(-1/2, +1/2), S+ = |up><dn|
_SZ = 0.5 * np.array([[-1.0, 0.0], [0.0, 1.0]])
_SP = np.array([[0.0, 0.0], [1.0, 0.0]])
_SM = _SP.T
_SX = (_SP + _SM) / 2
_SY = (_SP - _SM) / 2j


def _k3(a, b, c):
    return np.kron(np.kron(a, b), c)


# orbital operators: eigenvalue +1 on g (position: +1 on i)
TAU_Z = _k3(_PZ, _I2, _I2)
TAU_X = _k3(_PX, _I2, _I2)
TAU_Y = _k3(_PY, _I2, _I2)
TAU_P = _k3(_PP, _I2, _I2)    # |g><e|
TAU_M = TAU_P.T

S_Z = _k3(_I2, _SZ, _I2)
S_X = _k3(_I2, _SX, _I2)
S_Y = _k3(_I2, _SY, _I2)
S_P = _k3(_I2, _SP, _I2)
S_M = _k3(_I2, _SM, _I2)

I_Z = _k3(_I2, _I2, _SZ)
I_X = _k3(_I2, _I2, _SX)
I_Y = _k3(_I2, _I2, _SY)
I_P = _k3(_I2, _I2, _SP)
I_M = _k3(_I2, _I2, _SM)

# S.I = Sz Iz + (S+ I- + S- I+)/2, the real form of Sx Ix + Sy Iy + Sz Iz
S_DOT_I = S_Z @ I_Z + (S_P @ I_M + S_M @ I_P) / 2
IDENT = np.eye(DIM)

DONOR_PROJECTOR = (IDENT - TAU_Z) / 2   # position basis (1 - tau_z^id)/2


def orbital_transform(params: SystemParams, dE):
    """Unitary mapping position-basis amplitudes to orbital-basis ones.

    Lambda = a*1 - i*b*tau_y with a = sqrt((1 + c)/2), b = sqrt((1 - c)/2),
    c = d e dE / hbar eps0, so |g> = a|i> - b|d> and |e> = b|i> + a|d>.
    Array-valued dE gives a stack of 8x8 matrices.
    """
    c, _ = orbital_mixing(params, dE)
    a = np.sqrt((1 + c) / 2)[..., None, None]
    b = np.sqrt((1 - c) / 2)[..., None, None]
    return a * IDENT - 1j * b * TAU_Y


def qubit_gauge(vecs, index):
    """Eigenvector(s) (..., 8) rephased so component `index` is real and
    non-negative (the package's dressed-state gauge)."""
    return vecs * np.exp(-1j * np.angle(vecs[..., index]))[..., None]


def frame_generator_diag(params: SystemParams, omega_E: float, omega_B: float):
    """Diagonal of G = wE (tau_z/2 + Iz) - wB (Sz + Iz).

    The rotating frame is Lambda_rot(t) = exp(-i t G); a rotating-frame
    propagator U maps to the lab (orbital) frame as exp(+i T G) U.
    """
    g = (omega_E * (np.diag(TAU_Z) / 2 + np.diag(I_Z))
         - omega_B * (np.diag(S_Z) + np.diag(I_Z)))
    return g

