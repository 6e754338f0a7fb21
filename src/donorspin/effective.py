"""Rotating-frame Hamiltonian, its harmonics, and the Floquet reduction.

In the frame Lambda_rot = exp[-i t G] with G = wE (tau_z/2 + Iz)
- wB (Sz + Iz), the Hamiltonian splits into a static part plus harmonics at
{+-wE, +-2wE, +-2wB, +-(2wB - wE)}:

    H~(t) = C_0 + sum_j [ C_j exp(-i w_j t) + C_j^dag exp(+i w_j t) ].

The 72x72 multi-frequency Floquet matrix (nine blocks, one order per
frequency) reduces to its central 8x8 block through second-order
quasi-degenerate perturbation theory, giving the static effective
Hamiltonian H' that drives the fast simulation path. `effective_hamiltonian`
computes that block straight from the harmonics; the full 72x72 build is
kept as a test oracle (tests/floquet_oracle.py).

The harmonic attached to the block coupling row r to column c converts a
column-block state rotating at shift s_c into a row-block one at s_r, i.e.
frequency s_c - s_r; this orientation is pinned by the static-sample
propagation test against the exact rotating-frame evolution.

Internally every matrix is a fixed operator basis contracted with
sample-dependent real coefficients, so batches of envelope samples
assemble in single einsum passes. The basis operators have real matrix
elements, so H' is real symmetric.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import SystemParams, charge_splitting, orbital_mixing
from .operators import (DIM, TAU_Z, TAU_X, TAU_P, S_Z, S_X, S_M, I_Z, I_M,
                        I_P, BASIS_LABELS)

# harmonic labels as integer (nE, nB) pairs: frequency = nE*wE + nB*wB
COMPONENT_LABELS = ((1, 0), (2, 0), (0, 2), (-1, 2))
# diagonal-block shifts of the nine-block Floquet matrix; (0, 0) is the
# central (target) block
BLOCK_SHIFTS = ((-2, 0), (0, -2), (-1, 0), (1, -2), (0, 0),
                (-1, 2), (1, 0), (0, 2), (2, 0))
DEGENERACY_GUARD = 2 * np.pi * 10e6       # rad/s
COUPLING_FLOOR = 2 * np.pi * 1e-3         # ignore couplings below ~mHz


class NearDegeneracyError(RuntimeError):
    """A coupled Floquet state is too close to the target block for the
    second-order reduction to be trusted."""


@dataclass(frozen=True)
class FrequencyComponent:
    label: tuple            # (nE, nB)
    frequency: float        # rad/s
    matrix: np.ndarray      # coefficient of exp(-i*frequency*t)


# fixed operator stacks; comp0 terms are Hermitian, harmonic terms are not
_FLIPOP = TAU_P @ S_M.conj().T @ I_M     # |g up Dn><e dn Up| = tau+ S+ I-
_M0 = np.stack([
    TAU_Z,                       # (wE - e0)/2
    TAU_X,                       # -Ea de s / 4
    S_Z,                         # (B0 ge - wB) + B0 ge dgamma / 2
    I_Z,                         # -(B0 gn + wB - wE)
    TAU_Z @ S_Z,                 # -B0 ge dgamma c / 2
    S_X,                         # Ba ge / 2
    S_Z @ I_Z,                   # A/2
    TAU_Z @ S_Z @ I_Z,           # -A c / 2
    _FLIPOP + _FLIPOP.conj().T,  # -A s / 4
])

_M_WE = np.stack([
    S_M @ I_P,                   # A/4
    TAU_Z @ S_M @ I_P,           # -A c / 4
    I_P,                         # -Ba gn / 4
    TAU_P @ S_Z @ I_Z,           # -A s / 2
    TAU_P @ S_Z,                 # -B0 ge dgamma s / 2
    TAU_Z,                       # -de^2 dE Ea / (4 e0)
])
_M_2WE = np.stack([
    TAU_P @ S_M @ I_P,           # -A s / 4
    TAU_P,                       # -de Ea s / 4
])
_M_2WB = S_M[None]               # Ba ge / 4
_M_2WBME = I_M[None]             # -Ba gn / 4

_OP_STACKS = {(1, 0): _M_WE, (2, 0): _M_2WE, (0, 2): _M_2WB,
              (-1, 2): _M_2WBME}
_SUPPORTS = {label: (np.abs(stack).sum(axis=0) > 1e-12)
             for label, stack in _OP_STACKS.items()}
_SUPPORTS_DAG = {label: supp.T for label, supp in _SUPPORTS.items()}


def _samples(params: SystemParams, dE, Ea, Ba):
    """Broadcast envelope samples; returns (e0, c, s, dE, Ea, Ba)."""
    dE = np.asarray(dE, dtype=float)
    e0 = charge_splitting(params, dE)
    c, s = orbital_mixing(params, dE)
    shape = np.broadcast_shapes(e0.shape, np.shape(Ea), np.shape(Ba))
    return tuple(np.broadcast_to(np.asarray(a, dtype=float), shape)
                 for a in (e0, c, s, dE, Ea, Ba))


def _coeffs0(params, e0, c, s, Ea, Ba, omega_E, omega_B):
    gez = params.B0 * params.gamma_e
    A = params.hyperfine_A
    one = np.ones_like(e0)
    return np.stack([
        (omega_E - e0) / 2,
        -Ea * params.de_over_hbar * s / 4,
        (gez - omega_B + gez * params.delta_gamma / 2) * one,
        -(params.B0 * params.gamma_n + omega_B - omega_E) * one,
        -gez * params.delta_gamma * c / 2,
        Ba * params.gamma_e / 2 * one,
        A / 2 * one,
        -A * c / 2,
        -A * s / 4,
    ], axis=-1)


def _coeffs_harmonics(params, e0, c, s, dE, Ea, Ba):
    gez = params.B0 * params.gamma_e
    A = params.hyperfine_A
    de = params.de_over_hbar
    one = np.ones_like(e0)
    c_we = np.stack([
        A / 4 * one,
        -A * c / 4,
        -Ba * params.gamma_n / 4 * one,
        -A * s / 2,
        -gez * params.delta_gamma * s / 2,
        -de**2 * dE * Ea / (4 * e0),
    ], axis=-1)
    c_2we = np.stack([-A * s / 4, -de * Ea * s / 4 * one], axis=-1)
    c_2wb = (Ba * params.gamma_e / 4 * one)[..., None]
    c_2wbme = (-Ba * params.gamma_n / 4 * one)[..., None]
    return {(1, 0): c_we, (2, 0): c_2we, (0, 2): c_2wb, (-1, 2): c_2wbme}


def _assemble(coeffs, stack):
    return np.einsum("...k,kij->...ij", coeffs, stack)


def rwa_hamiltonian(params: SystemParams, dE, Ea, Ba, omega_E, omega_B):
    """Static rotating-frame Hamiltonian H~0 (instantaneous envelopes).

    Broadcasts over leading array dimensions of dE, Ea and Ba.
    """
    e0, c, s, _, Ea, Ba = _samples(params, dE, Ea, Ba)
    return _assemble(_coeffs0(params, e0, c, s, Ea, Ba, omega_E, omega_B), _M0)


def frequency_components(params: SystemParams, dE, Ea, Ba, omega_E, omega_B):
    """The four positive-frequency harmonics of H~(t) (exact).

    Each returned matrix multiplies exp(-i*frequency*t); negative-frequency
    harmonics are the Hermitian conjugates.
    """
    coeffs = _coeffs_harmonics(params, *_samples(params, dE, Ea, Ba))
    return [FrequencyComponent(label, label[0] * omega_E + label[1] * omega_B,
                               _assemble(coeffs[label], _OP_STACKS[label]))
            for label in COMPONENT_LABELS]


def effective_hamiltonian(params: SystemParams, dE, Ea, Ba, omega_E, omega_B):
    """H' for instantaneous envelope values, broadcast over dE, Ea and Ba
    (scalar inputs give one 8x8 matrix).

    The second-order reduction of the central Floquet block, built straight
    from the harmonics: only the central-row blocks and the diagonal shifts
    contribute there, so no 72x72 matrix is formed. Raises
    NearDegeneracyError when a coupled state of a shifted block lies within
    DEGENERACY_GUARD of the target block.
    """
    e0, c, s, dE, Ea, Ba = _samples(params, dE, Ea, Ba)
    comp0 = _assemble(_coeffs0(params, e0, c, s, Ea, Ba, omega_E, omega_B),
                      _M0)
    harm = _coeffs_harmonics(params, e0, c, s, dE, Ea, Ba)
    diag0 = comp0[..., np.arange(DIM), np.arange(DIM)]
    Vmats = {label: _assemble(coeffs, _OP_STACKS[label])
             for label, coeffs in harm.items()
             if np.abs(coeffs).max() >= COUPLING_FLOOR}
    acc = np.zeros_like(comp0)
    for (nE, nB) in BLOCK_SHIFTS:
        if (nE, nB) in Vmats:
            V, supp = Vmats[(nE, nB)], _SUPPORTS[(nE, nB)]
        elif (-nE, -nB) in Vmats:
            V = Vmats[(-nE, -nB)].conj().swapaxes(-1, -2)
            supp = _SUPPORTS_DAG[(-nE, -nB)]
        else:
            continue
        shift = nE * omega_E + nB * omega_B
        gap = diag0[..., :, None] - (diag0[..., None, :] + shift)
        gsup = np.abs(gap[..., supp])
        if gsup.size and float(gsup.min()) < DEGENERACY_GUARD:
            raise NearDegeneracyError(
                f"a Floquet state in the ({nE},{nB}) block lies within "
                f"{DEGENERACY_GUARD/(2*np.pi):.2e} Hz of the target block "
                "while coupled; the perturbative reduction is invalid here")
        D = np.where(supp, 1.0, 0.0) / np.where(supp, gap, 1.0)
        acc = acc + (V * D) @ V.conj().swapaxes(-1, -2)
    H2 = 0.5 * (acc + acc.conj().swapaxes(-1, -2))
    return comp0 + H2


def hprime_text(params: SystemParams, dE, Ea, Ba, omega_E, omega_B) -> str:
    """Human-readable dump of H' with basis labels (units 2pi MHz)."""
    Hp = effective_hamiltonian(params, dE, Ea, Ba, omega_E, omega_B)
    scale = 2 * np.pi * 1e6
    lines = [
        f"# effective Hamiltonian H' at dE={dE!r} V/m, Ea={Ea!r} V/m, "
        f"Ba={Ba!r} T",
        f"# omega_E={omega_E!r} rad/s, omega_B={omega_B!r} rad/s",
        "# entries as (real imag) pairs in units of 2*pi MHz, rows/cols "
        "ordered " + " ".join(BASIS_LABELS),
    ]
    for i, row_label in enumerate(BASIS_LABELS):
        cells = []
        for j in range(DIM):
            z = Hp[i, j] / scale
            cells.append(f"{z.real:+.9e} {z.imag:+.9e}")
        lines.append(f"{row_label:7s} " + "  ".join(cells))
    return "\n".join(lines) + "\n"
