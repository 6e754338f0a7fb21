"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark runs on a few cores of a shared host, whose speed drifts by
tens of percent within seconds to minutes as other tenants' load comes
and goes. worker.py calls this kernel from a timer signal while the solve
passes run and scales each pass's time by the kernel's mean time in it,
so that solve_s compares code, not host load.

The kernel uses numpy alone, on fixed inputs, and mixes the shapes of work
the workloads do: a batched 8x8 Hermitian eigh and exponential, a batched
matrix-product tree, a Python loop of small eigh and kron calls, and a
64-dim product. One call takes about 16 ms on a 2 vCPU Xeon.
"""
from __future__ import annotations

import numpy as np

_rng = np.random.default_rng(20010029)
_A = _rng.normal(size=(256, 8, 8)) + 1j * _rng.normal(size=(256, 8, 8))
_H = (_A + np.conj(np.swapaxes(_A, -1, -2))) / 8
_H1 = _H[0]
_B = _rng.normal(size=(64, 64)) + 1j * _rng.normal(size=(64, 64))


def kernel():
    """One call of the kernel; returns a value so no work is skipped."""
    w, v = np.linalg.eigh(_H)
    U = np.einsum("nij,nj,nkj->nik", v, np.exp(-1j * w), np.conj(v))
    while len(U) > 1:                       # product tree, as in propagation
        U = np.matmul(U[1::2], U[0::2])
    acc = U[0]
    for k in range(120):                    # scalar loop, as in twoqubit
        wk, vk = np.linalg.eigh(_H1 + k * 1e-3)
        acc = acc + np.kron(vk[:2, :2], vk[:2, :2]).sum() * wk[0]
    P = _B
    for _ in range(20):                     # 64-dim steps, as in sim64
        P = (P @ _B) / 64
    return float(np.abs(acc).sum() + np.abs(P).sum())

