"""Rotating-frame Hamiltonian, its harmonics, and the Floquet reduction.

In the frame Lambda_rot = exp[-i t G] with G = wE (tau_z/2 + Iz)
- wB (Sz + Iz), the Hamiltonian splits into a static part plus harmonics at
{+-wE, +-2wE, +-2wB, +-(2wB - wE)}:

    H~(t) = C_0 + sum_j [ C_j exp(-i w_j t) + C_j^dag exp(+i w_j t) ].

The 72x72 multi-frequency Floquet matrix (nine blocks, one order per
frequency) reduces to its central 8x8 block through second-order
quasi-degenerate perturbation theory, giving the static effective
Hamiltonian H' that drives the fast simulation path. `effective_hamiltonian`
computes that block straight from the harmonics' coefficients; C_0, the
C_j as matrices and the full 72x72 build are kept as a test oracle
(tests/floquet_oracle.py).

The harmonic attached to the block coupling row r to column c converts a
column-block state rotating at shift s_c into a row-block one at s_r, i.e.
frequency s_c - s_r; this orientation is pinned by the static-sample
propagation test against the exact rotating-frame evolution.

Internally every matrix is a fixed operator basis weighted by
sample-dependent real coefficients. The basis operators have real matrix
elements, so H' is real symmetric. The harmonics have 31 nonzero entries
in all, so the second-order sum runs over index maps built once from the
operator supports: the 62 coupled entries of the eight shifted blocks,
the 32 pairs of them that share a column of one block, and the 17
off-diagonal upper-triangle targets those pairs reach. Each call is a few
small matrix products over all samples at once, sample axis last.
"""
from __future__ import annotations

import functools

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

# rows of each label's coefficients in the stacked harmonic coefficients
_HARM_ROWS = {label: slice(end - len(_OP_STACKS[label]), end)
              for label, end in zip(COMPONENT_LABELS, np.cumsum(
                  [len(_OP_STACKS[label]) for label in COMPONENT_LABELS]))}


@functools.cache
def _coupling_maps(live):
    """Index maps of the second-order sum over the coupled entries of the
    shifted blocks whose harmonic label is in `live`.

    Entry e = (i, j) of block (nE, nB) couples target state i to the
    shifted state j through v_e = V[i, j], V the harmonic of that label or
    the transpose of the opposite one (all real), across the gap
    diag0[i] - diag0[j] - shift. With w = v / gap, the second-order term
    H2[m, m'] = (1/2) sum of (w_a v_b + v_a w_b) over the entry pairs
    (a, b) in one column of one block with rows (m, m'). A pair a = b
    gives w_a v_a on the diagonal; a pair a < b has two different rows
    and gives one product with weight 1/2 on the upper triangle, mirrored
    onto the lower one.

    Returns (vmat, gmat, shifts, rowsum, (a, b), red, upper, lower): v =
    vmat @ harmonic coefficients, gap = gmat @ c0 - shifts @ (wE, wB),
    the (8, E) row sums of w v, the pairs a < b, the (T, P) 1/2 weights
    of their products on the T upper-triangle targets, and the targets'
    flat indices.
    """
    diag = _M0[:, np.arange(DIM), np.arange(DIM)]             # (9, 8)
    n_harm = sum(len(stack) for stack in _OP_STACKS.values())
    vmat, gmat, shifts, rows, cols = [], [], [], [], []
    for block, (nE, nB) in enumerate(BLOCK_SHIFTS):
        label = (nE, nB) if (nE, nB) in _OP_STACKS else (-nE, -nB)
        if label not in live:
            continue
        stack, supp = _OP_STACKS[label], _SUPPORTS[label]
        if label != (nE, nB):
            stack, supp = stack.swapaxes(-1, -2), supp.T
        for i, j in zip(*np.nonzero(supp)):
            vmat.append(np.zeros(n_harm))
            vmat[-1][_HARM_ROWS[label]] = stack[:, i, j]
            gmat.append(diag[:, i] - diag[:, j])
            shifts.append((nE, nB))
            rows.append(i)
            cols.append((block, j))
    rowsum = np.zeros((DIM, len(rows)))
    rowsum[rows, np.arange(len(rows))] = 1.0
    pairs = [(a, b) for a in range(len(rows)) for b in range(a + 1, len(rows))
             if cols[a] == cols[b]]
    targets = sorted({(rows[a], rows[b]) for a, b in pairs})
    red = np.zeros((len(targets), len(pairs)))
    for p, (a, b) in enumerate(pairs):
        red[targets.index((rows[a], rows[b])), p] = 0.5
    upper = np.array([i * DIM + j for i, j in targets], dtype=int)
    lower = np.array([j * DIM + i for i, j in targets], dtype=int)
    return (np.reshape(vmat, (-1, n_harm)),
            np.reshape(gmat, (-1, len(_M0))),
            np.reshape(shifts, (-1, 2)).astype(int), rowsum,
            np.array(pairs, dtype=int).reshape(-1, 2).T, red, upper, lower)


def _samples(params: SystemParams, dE, Ea, Ba):
    """Broadcast envelope samples; returns (e0, c, s, dE, Ea, Ba)."""
    dE = np.asarray(dE, dtype=float)
    e0 = charge_splitting(params, dE)
    c, s = orbital_mixing(params, dE)
    shape = np.broadcast_shapes(e0.shape, np.shape(Ea), np.shape(Ba))
    return tuple(np.broadcast_to(np.asarray(a, dtype=float), shape)
                 for a in (e0, c, s, dE, Ea, Ba))


def _coeffs0(params, e0, c, s, Ea, Ba, omega_E, omega_B):
    """(9, ...) coefficients of the _M0 operators."""
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
    ])


def _coeffs_harmonics(params, e0, c, s, dE, Ea, Ba):
    """(10, ...) coefficients of the harmonic operators, label by label in
    COMPONENT_LABELS order."""
    gez = params.B0 * params.gamma_e
    A = params.hyperfine_A
    de = params.de_over_hbar
    one = np.ones_like(e0)
    return np.stack([
        A / 4 * one,                              # (1, 0)
        -A * c / 4,
        -Ba * params.gamma_n / 4 * one,
        -A * s / 2,
        -gez * params.delta_gamma * s / 2,
        -de**2 * dE * Ea / (4 * e0),
        -A * s / 4,                               # (2, 0)
        -de * Ea * s / 4 * one,
        Ba * params.gamma_e / 4 * one,            # (0, 2)
        -Ba * params.gamma_n / 4 * one,           # (-1, 2)
    ])


def effective_hamiltonian(params: SystemParams, dE, Ea, Ba, omega_E, omega_B):
    """H' for instantaneous envelope values, broadcast over dE, Ea and Ba
    (scalar inputs give one 8x8 matrix).

    The second-order reduction of the central Floquet block, built straight
    from the harmonics: only the central-row blocks and the diagonal shifts
    contribute there, so no 72x72 matrix is formed, and the sum runs over
    the coupled entries of those blocks only (see _coupling_maps). A label
    whose coefficients all stay below COUPLING_FLOOR in this call couples
    nothing. Raises NearDegeneracyError when a coupled state of a shifted
    block lies within DEGENERACY_GUARD of the target block.
    """
    e0, c, s, dE, Ea, Ba = _samples(params, dE, Ea, Ba)
    c0 = _coeffs0(params, e0, c, s, Ea, Ba, omega_E, omega_B)
    c0 = c0.reshape(len(c0), -1)
    ch = _coeffs_harmonics(params, e0, c, s, dE, Ea, Ba)
    ch = ch.reshape(len(ch), -1)
    live = tuple(label for label, rows in _HARM_ROWS.items()
                 if np.abs(ch[rows]).max(initial=0.0) >= COUPLING_FLOOR)
    vmat, gmat, shifts, rowsum, (a, b), red, upper, lower = \
        _coupling_maps(live)
    # sample axis last: every gather below copies whole rows
    v = vmat @ ch
    gap = gmat @ c0 - (shifts @ (omega_E, omega_B))[:, None]
    near = np.abs(gap).min(axis=1, initial=np.inf) < DEGENERACY_GUARD
    if near.any():
        raise NearDegeneracyError(
            "a Floquet state in the (%d,%d) block lies within %.2e Hz of the "
            "target block while coupled; the perturbative reduction is invalid "
            "here" % (*shifts[near.argmax()], DEGENERACY_GUARD / (2 * np.pi)))
    w = v / gap
    H = _M0.reshape(len(_M0), -1).T @ c0
    H[::DIM + 1] += rowsum @ (w * v)          # the diagonal entries
    H2 = red @ (w[a] * v[b] + v[a] * w[b])
    H[upper] += H2
    H[lower] += H2
    return H.T.reshape(e0.shape + (DIM, DIM))


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
