"""Test oracle for the Floquet reduction: the static part and the harmonics
of the rotating-frame Hamiltonian as matrices, the full 72x72
multi-frequency Floquet matrix, its second-order Schrieffer-Wolff reduction
to the central block, and two independent constructions of the exact
rotating-frame Hamiltonian.

`donorspin.effective.effective_hamiltonian` builds the central block of
`schrieffer_wolff(floquet_hamiltonian(...))` directly from the harmonics;
the tests pin it to this full build.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from donorspin.effective import (BLOCK_SHIFTS, COUPLING_FLOOR,
                                 DEGENERACY_GUARD, NearDegeneracyError,
                                 _HARM_ROWS, _M0, _OP_STACKS, _coeffs0,
                                 _coeffs_harmonics, _samples)
from donorspin.model import SystemParams
from donorspin.operators import (BASIS_LABELS, DIM, frame_generator_diag,
                                 orbital_transform)
from donorspin.propagation import lab_hamiltonian

CENTRAL_BLOCK = BLOCK_SHIFTS.index((0, 0))


@dataclass(frozen=True)
class FrequencyComponent:
    label: tuple            # (nE, nB)
    frequency: float        # rad/s
    matrix: np.ndarray      # coefficient of exp(-i*frequency*t)


def rwa_hamiltonian(params: SystemParams, dE, Ea, Ba, omega_E, omega_B):
    """Static rotating-frame Hamiltonian H~0 (instantaneous envelopes).

    Broadcasts over leading array dimensions of dE, Ea and Ba.
    """
    e0, c, s, _, Ea, Ba = _samples(params, dE, Ea, Ba)
    return np.tensordot(_coeffs0(params, e0, c, s, Ea, Ba, omega_E, omega_B),
                        _M0, axes=(0, 0))


def frequency_components(params: SystemParams, dE, Ea, Ba, omega_E, omega_B):
    """The four positive-frequency harmonics of H~(t) (exact).

    Each returned matrix multiplies exp(-i*frequency*t); negative-frequency
    harmonics are the Hermitian conjugates.
    """
    coeffs = _coeffs_harmonics(params, *_samples(params, dE, Ea, Ba))
    return [FrequencyComponent(label, label[0] * omega_E + label[1] * omega_B,
                               np.tensordot(coeffs[rows], _OP_STACKS[label],
                                            axes=(0, 0)))
            for label, rows in _HARM_ROWS.items()]


@dataclass(frozen=True)
class FloquetBlock:
    floquet_matrix: np.ndarray          # 72x72
    shift_frequencies: np.ndarray       # 9 diagonal shifts, rad/s
    target_block: int
    effective_hamiltonian: np.ndarray   # 8x8 H'


def reconstruct_rotating_hamiltonian(params: SystemParams, dE, Ea, Ba,
                                     omega_E, omega_B, t):
    """Sum the harmonics back into the exact rotating-frame Hamiltonian."""
    H = rwa_hamiltonian(params, dE, Ea, Ba, omega_E, omega_B)
    for comp in frequency_components(params, dE, Ea, Ba, omega_E, omega_B):
        phase = np.exp(-1j * comp.frequency * t)
        H = H + comp.matrix * phase + comp.matrix.conj().swapaxes(-1, -2) / phase
    return H


def exact_rotating_hamiltonian(params: SystemParams, schedule, t,
                               noise_dE=0.0):
    """Independent construction Lam H Lam^dag - i Lam dLam/dt^dag, with H
    the lab Hamiltonian in the orbital basis at the instantaneous field."""
    lam = orbital_transform(
        params, float(schedule.dE_envelope(t)) + noise_dE)
    H_position = lab_hamiltonian(params, schedule, t, noise_dE)
    H = lam @ H_position @ lam.conj().T
    g = frame_generator_diag(params, schedule.omega_E, schedule.omega_B)
    phase = np.exp(-1j * t * g)
    return phase[:, None] * H * phase.conj()[None, :] + np.diag(g)


def floquet_hamiltonian(components, comp0, omega_E, omega_B):
    """Assemble the 72x72 truncated multi-frequency Floquet matrix."""
    lookup = {comp.label: comp.matrix for comp in components}
    HF = np.zeros(np.shape(comp0)[:-2] + (9 * DIM, 9 * DIM), dtype=complex)
    shifts = []
    for r, (nE, nB) in enumerate(BLOCK_SHIFTS):
        w_r = nE * omega_E + nB * omega_B
        shifts.append(w_r)
        HF[..., DIM*r:DIM*(r+1), DIM*r:DIM*(r+1)] = comp0 + w_r * np.eye(DIM)
        for cc, (mE, mB) in enumerate(BLOCK_SHIFTS):
            if r == cc:
                continue
            diff = (mE - nE, mB - nB)       # s_c - s_r
            if diff in lookup:
                HF[..., DIM*r:DIM*(r+1), DIM*cc:DIM*(cc+1)] = lookup[diff]
            elif (-diff[0], -diff[1]) in lookup:
                HF[..., DIM*r:DIM*(r+1), DIM*cc:DIM*(cc+1)] = \
                    lookup[(-diff[0], -diff[1])].conj().swapaxes(-1, -2)
    return HF, np.array(shifts)


_EXT = np.r_[0:DIM*CENTRAL_BLOCK, DIM*(CENTRAL_BLOCK+1):9*DIM]
_TGT = np.r_[DIM*CENTRAL_BLOCK:DIM*(CENTRAL_BLOCK+1)]


def schrieffer_wolff(HF: np.ndarray, guard: float = DEGENERACY_GUARD) -> np.ndarray:
    """Second-order reduction of a full Floquet matrix to its central block.

    H'_{mm'} = H~0_{mm'} + (1/2) sum_l V_{ml} V*_{m'l} [1/(E_m - E_l)
    + 1/(E_m' - E_l)] with E the full Floquet diagonal and l running over
    the 64 exterior states. Raises NearDegeneracyError when an exterior
    state with non-negligible coupling sits within `guard` of the block.
    """
    E = np.real(HF[..., np.arange(9*DIM), np.arange(9*DIM)])
    V = HF[..., _TGT, :][..., :, _EXT]                 # (..., 8, 64)
    Em = E[..., _TGT]
    El = E[..., _EXT]
    gap = Em[..., :, None] - El[..., None, :]
    coupled = np.abs(V) > COUPLING_FLOOR
    if guard and bool(np.any(coupled & (np.abs(gap) < guard))):
        bad = np.argwhere(coupled & (np.abs(gap) < guard))
        m, l = int(bad[0][-2]), int(bad[0][-1])
        raise NearDegeneracyError(
            f"Floquet state {l} lies within the degeneracy guard of target "
            f"state {BASIS_LABELS[m]}; the perturbative reduction is "
            "invalid here")
    with np.errstate(divide="ignore", invalid="ignore"):
        Dmat = np.where(coupled, 1.0 / np.where(coupled, gap, 1.0), 0.0)
    VD = V * Dmat
    H2 = 0.5 * (VD @ V.conj().swapaxes(-1, -2)
                + V @ VD.conj().swapaxes(-1, -2))
    H0 = HF[..., _TGT, :][..., :, _TGT]
    return H0 + H2


def build_floquet_block(params: SystemParams, dE, Ea, Ba, omega_E, omega_B,
                        guard: float = DEGENERACY_GUARD) -> FloquetBlock:
    comp0 = rwa_hamiltonian(params, dE, Ea, Ba, omega_E, omega_B)
    comps = frequency_components(params, dE, Ea, Ba, omega_E, omega_B)
    HF, shifts = floquet_hamiltonian(comps, comp0, omega_E, omega_B)
    Hp = schrieffer_wolff(HF, guard)
    return FloquetBlock(HF, shifts, CENTRAL_BLOCK, Hp)
