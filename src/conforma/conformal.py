"""Conformal Schouten calculus on flat domains.

The flat conformal matrix of a positive field u is

    A^u = -(2/(n-2)) u^{-(n+2)/(n-2)} Hess(u)
          + (2n/(n-2)^2) u^{-2n/(n-2)} grad(u) x grad(u)
          - (2/(n-2)^2) u^{-2n/(n-2)} |grad(u)|^2 I,

and its eigenvalue vector is invariant under Mobius conjugation: the pullback
u_psi = |J_psi|^{(n-2)/(2n)} (u o psi) satisfies
lambda(A^{u_psi}) = lambda(A^u) o psi.

Eigenvalues come from one batched LAPACK call (np.linalg.eigvalsh) per stack
of matrices; the cyclic Jacobi solver in conforma.jacobi is kept only as the
tests' reference eigensolver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PositivityError, SingularityError
from .fields import FDField, ScalarField, finite_difference

POLE_GUARD_ANALYTIC = 1e-12
# Samples per pass of conjugation_residual. At n = 16 a pass peaks near 26 MiB
# analytic (the Kelvin chain rule's (m, n, n, n) temporaries) and 66 MiB with
# finite differences (the stencil tables), by tracemalloc.
CONJUGATION_SLAB = 256


# ---------------------------------------------------------------------------
# Mobius maps


@dataclass(frozen=True)
class Translate:
    v: tuple

    def apply(self, x):
        return x + np.asarray(self.v, dtype=float)


@dataclass(frozen=True)
class Scale:
    c: float

    def __post_init__(self):
        if self.c == 0:
            raise DomainError("scale generator needs a nonzero constant")

    def apply(self, x):
        return self.c * x


@dataclass(frozen=True)
class Invert:
    def apply(self, x):
        r2 = np.vecdot(x, x)[..., None]
        if np.any(r2 <= POLE_GUARD_ANALYTIC**2):
            raise SingularityError("evaluation inside the inversion pole guard")
        return x / r2


@dataclass(frozen=True)
class MoebiusMap:
    """Word of generators, applied first-to-last: psi(x) = g_m(...g_1(x)), to
    one point or to each row of an (m, n) array."""

    word: tuple

    def apply(self, x):
        y = np.asarray(x, dtype=float)
        for g in self.word:
            y = g.apply(y)
        return y


# ---------------------------------------------------------------------------
# Pullback fields (one chain-rule wrapper per kind of generator)


def _libm_pow(v: np.ndarray, e: float) -> np.ndarray:
    """v**e entry by entry on Python floats (libm pow): the bits of a
    one-point evaluation, which np.power does not always give."""
    return np.array([x**e for x in v.tolist()])


class _AffinePullback(ScalarField):
    """w(x) = |c|^{(n-2)/2} u(cx + v): a translate is c = 1, a scale v = 0."""

    def __init__(self, inner: ScalarField, c: float, v):
        super().__init__(inner.n, None)
        self.inner = inner
        self.c = float(c)
        self.v = np.asarray(v, dtype=float)
        self.pref = abs(self.c) ** (0.5 * (inner.n - 2))

    def values(self, X):
        return self.pref * self.inner.values(self.c * X + self.v)

    def _jet(self, X):
        v, g, H = self.inner.jet(self.c * X + self.v)
        return self.pref * v, self.pref * self.c * g, self.pref * self.c**2 * H


class _KelvinPullback(ScalarField):
    """w(x) = |x|^{2-n} u(x/|x|^2) with exact chain-rule derivatives."""

    def __init__(self, inner: ScalarField):
        super().__init__(inner.n, None)
        self.inner = inner

    def _points(self, X):
        """Rows mapped by the inversion, |x|^2 and |x|."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        r2 = np.vecdot(X, X)
        if np.any(r2 <= POLE_GUARD_ANALYTIC**2):
            raise SingularityError("evaluation inside the inversion pole guard")
        return X, X / r2[:, None], r2, np.sqrt(r2)

    def values(self, X):
        X, Y, r2, _ = self._points(X)
        return _libm_pow(r2, 0.5 * (2.0 - self.n)) * self.inner.values(Y)

    def _jet(self, X):
        """Values, and the chain-rule gradient and Hessian of p (u o y),
        p = |x|^{2-n}, y = x/|x|^2, from one inner jet."""
        n = self.n
        X, Y, r2, r = self._points(X)
        u, gu, hu = self.inner.jet(Y)
        values = _libm_pow(r2, 0.5 * (2.0 - n)) * u
        u = u[:, None]
        p = _libm_pow(r, 2.0 - n)[:, None]
        rn = _libm_pow(r, -n)
        dp = ((2.0 - n) * rn)[:, None] * X
        outer = X[:, :, None] * X[:, None, :]
        eye = np.eye(n)
        dyT = ((eye - 2.0 * outer / r2[:, None, None]) / r2[:, None, None]).transpose(0, 2, 1)
        grad_comp = (dyT @ gu[:, :, None])[:, :, 0]  # gradient of u o y
        hp = (2.0 - n) * (
            rn[:, None, None] * eye - (n * _libm_pow(r, -n - 2.0))[:, None, None] * outer
        )
        # second derivatives of y_k = x_k / |x|^2, indexed [m, k, i, j]
        xk, xi, xj = X[:, :, None, None], X[:, None, :, None], X[:, None, None, :]
        d2y = (
            -2.0 * (eye[:, :, None] * xj + eye[:, None, :] * xi + eye * xk)
            / _libm_pow(r2, 2.0)[:, None, None, None]
            + 8.0 * xi * xj * xk / _libm_pow(r2, 3.0)[:, None, None, None]
        )
        hess_comp = dyT @ hu @ dyT.transpose(0, 2, 1)
        hess_comp += np.einsum("mk,mkij->mij", gu, d2y)
        return values, dp * u + p * grad_comp, (
            hp * u[:, :, None]
            + dp[:, :, None] * grad_comp[:, None, :]
            + grad_comp[:, :, None] * dp[:, None, :]
            + p[:, :, None] * hess_comp
        )


def _pullback_one(field: ScalarField, gen) -> ScalarField:
    if isinstance(gen, Translate):
        return _AffinePullback(field, 1.0, gen.v)
    if isinstance(gen, Scale):
        return _AffinePullback(field, gen.c, 0.0)
    if isinstance(gen, Invert):
        return _KelvinPullback(field)
    raise DomainError(f"unknown Mobius generator {gen!r}")


def pullback_u(u: ScalarField, psi: MoebiusMap) -> ScalarField:
    """Conformal-factor pullback u_psi = |J_psi|^{(n-2)/(2n)} (u o psi).

    Analytic derivative mode propagates through the chain rule; a finite
    difference source keeps finite differences with the same step.
    """
    fd = isinstance(u, FDField)
    base = u.inner if fd else u
    out = base
    for gen in reversed(psi.word):
        out = _pullback_one(out, gen)
    if fd:
        out = finite_difference(out, h=u.h)
    return out


# ---------------------------------------------------------------------------
# Conformal matrices and eigenvalues


def a_matrix_flat(u: ScalarField, x) -> np.ndarray:
    """Conformal Schouten matrix A^u at one point, shape (n, n), or at each
    row of an (m, n) array, shape (m, n, n)."""
    x = np.asarray(x, dtype=float)
    n = u.n
    if n < 3:
        raise DomainError("conformal matrix needs n >= 3")
    X = np.atleast_2d(x)
    val, g, H = u.jet(X)
    if not np.all(val > 0):
        raise PositivityError(f"u(x) = {val[np.argmin(val > 0)]:.6g} is not positive")
    c1 = -2.0 / (n - 2)
    c2 = 2.0 * n / (n - 2) ** 2
    c3 = -2.0 / (n - 2) ** 2
    w1 = _libm_pow(val, -(n + 2.0) / (n - 2.0))
    w2 = _libm_pow(val, -2.0 * n / (n - 2.0))
    A = (c1 * w1 * 0.5)[:, None, None] * (H + H.transpose(0, 2, 1))
    A += ((c2 * w2)[:, None] * g)[:, :, None] * g[:, None, :]
    A[:, range(n), range(n)] += (c3 * w2 * np.vecdot(g, g))[:, None]
    # mirror the upper triangle: exact symmetry by construction
    lo, up = np.tril_indices(n, -1)
    A[:, lo, up] = A[:, up, lo]
    # u > 0 makes both weights positive, so a zero weight underflowed and A
    # lost its terms (it can read zero on no evidence). A non-finite A is
    # returned as it is: schouten_eigen_flat names it.
    lost = ((w1 == 0.0) | (w2 == 0.0)) & np.isfinite(A).all(axis=(1, 2))
    if lost.any():
        raise DomainError(f"the weights of A^u underflow at x = {X[np.argmax(lost)]}")
    return A if x.ndim > 1 else A[0]


def schouten_eigen_flat(u: ScalarField, x) -> np.ndarray:
    """Ascending eigenvalues of A^u at one point, or one row of them per row
    of an (m, n) array, from one eigvalsh call on the stack of matrices."""
    A = a_matrix_flat(u, x)
    finite = np.isfinite(A).all(axis=(-2, -1)).reshape(-1)
    if not finite.all():
        # LAPACK returns numbers for a NaN or inf matrix: refuse it instead
        bad = np.reshape(x, (-1, u.n))[np.argmin(finite)]
        raise DomainError(f"A^u is not finite at x = {bad}")
    return np.linalg.eigvalsh(A)


# ---------------------------------------------------------------------------
# Checks


def conjugation_residual(u: ScalarField, psi: MoebiusMap, sample_points) -> float:
    """max over samples of || sorted lambda(A^{u_psi})(x) -
    sorted lambda(A^u)(psi(x)) ||_inf, CONJUGATION_SLAB samples at a time, so
    the memory held does not grow with the sample count."""
    X = np.atleast_2d(np.asarray(sample_points, dtype=float))
    u_psi = pullback_u(u, psi)
    slab_worst = []
    for lo in range(0, len(X), CONJUGATION_SLAB):
        slab = X[lo : lo + CONJUGATION_SLAB]
        lam_pull = schouten_eigen_flat(u_psi, slab)
        lam_push = schouten_eigen_flat(u, psi.apply(slab))
        slab_worst.append(np.max(np.abs(lam_pull - lam_push)))
    return float(np.max(slab_worst, initial=0.0))
