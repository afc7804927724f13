"""Cyclic Jacobi eigenvalues for small symmetric matrices (n <= 8).

Plain rotations with a fixed sweep cap give reproducible ordering across
platforms; no external eigensolver is involved. The library has no caller:
conformal takes its spectra from one batched LAPACK call, and the tests keep
this solver as the reference those spectra are checked against.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, DomainError

MAX_SWEEPS = 30


def jacobi_eigenvalues(A) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix by cyclic Jacobi rotations."""
    a = np.array(A, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise DomainError("matrix must be square")
    if n > 8:
        raise DomainError("cyclic Jacobi path is restricted to n <= 8")
    scale = float(np.max(np.abs(a))) or 1.0
    sym_gap = float(np.max(np.abs(a - a.T)))
    if sym_gap > 1e-12 * scale:
        raise DomainError(f"matrix is not symmetric (gap {sym_gap:.3g})")
    a = 0.5 * (a + a.T)

    for _ in range(MAX_SWEEPS):
        off = math.sqrt(
            sum(a[p, q] ** 2 for p in range(n) for q in range(n) if p != q)
        )
        if off <= 1e-15 * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-18 * scale:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (
                    abs(theta) + math.sqrt(theta * theta + 1.0)
                )
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rot_p = c * a[:, p] - s * a[:, q]
                rot_q = s * a[:, p] + c * a[:, q]
                a[:, p], a[:, q] = rot_p, rot_q
                rot_p = c * a[p, :] - s * a[q, :]
                rot_q = s * a[p, :] + c * a[q, :]
                a[p, :], a[q, :] = rot_p, rot_q
                a[p, q] = a[q, p] = 0.0
    else:
        raise ConvergenceError("Jacobi sweeps did not reach the off-diagonal tolerance")

    return np.sort(np.diagonal(a))
