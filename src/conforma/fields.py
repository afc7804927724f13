"""Positive scalar fields on sampled domains with derivative access.

Fields come in two derivative modes. Analytic fields supply closed-form
gradient/Hessian; finite_difference(h) wraps any field and differentiates its
values with second-order central stencils. FD queries must keep a 2h margin
to the domain boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bubbles
from .errors import DomainError, GeometryError, PositivityError

ORDER2_D1 = ((1, 0.5), (-1, -0.5))


@dataclass(frozen=True)
class Domain:
    """Sampled domain: the closed ball of radius outer about the origin."""

    outer: float = 1.0

    def contains(self, x, margin: float = 0.0) -> bool:
        return float(np.linalg.norm(x)) <= self.outer - margin


def ball(R: float) -> Domain:
    return Domain(float(R))


class ScalarField:
    """Base class: positive function with value/grad/hess access."""

    def __init__(self, n: int, domain: Domain | None = None):
        self.n = n
        self.domain = domain

    # subclasses implement _value (and _grad/_hess for analytic mode)
    def _value(self, x) -> float:
        raise NotImplementedError

    def _grad(self, x) -> np.ndarray:
        raise NotImplementedError(f"{type(self).__name__} has no analytic gradient")

    def _hess(self, x) -> np.ndarray:
        raise NotImplementedError(f"{type(self).__name__} has no analytic Hessian")

    def _check(self, x, margin: float = 0.0):
        if self.domain is not None and not self.domain.contains(x, margin):
            raise GeometryError(
                f"point {np.asarray(x).tolist()} leaves the domain "
                f"(margin {margin:g})"
            )

    def value(self, x) -> float:
        self._check(x)
        return float(self._value(np.asarray(x, dtype=float)))

    def values(self, X) -> np.ndarray:
        """Vectorized value over rows of X; subclasses may override."""
        X = np.asarray(X, dtype=float)
        return np.array([self.value(x) for x in X])

    def grad(self, x) -> np.ndarray:
        self._check(x)
        return np.asarray(self._grad(np.asarray(x, dtype=float)), dtype=float)

    def hess(self, x) -> np.ndarray:
        self._check(x)
        return np.asarray(self._hess(np.asarray(x, dtype=float)), dtype=float)


class FDField(ScalarField):
    """Second-order finite-difference derivative view of another field."""

    def __init__(self, inner: ScalarField, h: float = 1e-3):
        if not 0 < h < math.inf:
            raise DomainError(f"finite-difference step h must be positive and finite, got h={h}")
        super().__init__(inner.n, inner.domain)
        self.inner = inner
        self.h = float(h)

    def value(self, x):
        return self.inner.value(x)

    def grad(self, x):
        x = np.asarray(x, dtype=float)
        self._check(x, margin=2.0 * self.h)
        h, n = self.h, self.n
        g = np.zeros(n)
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            acc = 0.0
            for k, w in ORDER2_D1:
                acc += w * self.inner.value(x + k * e)
            g[i] = acc / h
        return g

    def hess(self, x):
        x = np.asarray(x, dtype=float)
        self._check(x, margin=2.0 * self.h)
        h, n = self.h, self.n
        H = np.zeros((n, n))
        u0 = self.inner.value(x)
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            H[i, i] = (
                self.inner.value(x + e) - 2.0 * u0 + self.inner.value(x - e)
            ) / h**2
        for i in range(n):
            for j in range(i + 1, n):
                ei = np.zeros(n)
                ei[i] = h
                ej = np.zeros(n)
                ej[j] = h
                acc = 0.0
                for k, wk in ORDER2_D1:
                    for l, wl in ORDER2_D1:
                        acc += wk * wl * self.inner.value(x + k * ei + l * ej)
                H[i, j] = H[j, i] = acc / h**2
        return H


def finite_difference(field: ScalarField, h: float = 1e-3) -> FDField:
    """Switch a field to finite-difference derivative mode."""
    base = field.inner if isinstance(field, FDField) else field
    return FDField(base, h=h)


# ---------------------------------------------------------------------------
# Catalog


class ConstantField(ScalarField):
    def __init__(self, n: int, c: float, domain: Domain | None = None):
        if not c > 0:
            raise PositivityError(f"constant field must be positive, got {c}")
        super().__init__(n, domain)
        self.c = float(c)

    def _value(self, x):
        return self.c

    def values(self, X):
        return np.full(len(np.atleast_2d(X)), self.c)

    def _grad(self, x):
        return np.zeros(self.n)

    def _hess(self, x):
        return np.zeros((self.n, self.n))


class BubbleField(ScalarField):
    def __init__(self, params: bubbles.BubbleParams, domain: Domain | None = None):
        super().__init__(params.n, domain)
        self.params = params

    def _value(self, x):
        return bubbles.bubble_value(self.params, x)

    def values(self, X):
        return bubbles.bubble_values(self.params, np.atleast_2d(X))

    def _grad(self, x):
        return bubbles.bubble_grad(self.params, x)

    def _hess(self, x):
        return bubbles.bubble_hess(self.params, x)
