"""Positive scalar fields on sampled domains with derivative access.

Fields are evaluated on rows: every field implements values(X), and for
analytic derivatives _jet(X), on an (m, n) array X of points. jet(X) returns
the values, gradients (m, n) and Hessians (m, n, n) from one pass of the
field's kernel, and its values are the bits of values(X). jet checks the
domain; values does not (the moving-sphere kernel bounds its own points).
One point is a one-row call, so it gets the bits of its row. A field radial
about points gives radial_parts(), [(centre, profile)] with u(y) the sum of
profile(|y - centre|^2) over an array of squared distances; the
moving-sphere kernel runs on these only.
finite_difference(h) wraps any field and differentiates its values with
second-order central stencils, one inner values call per stencil table. FD
queries must keep a 2h margin to the domain boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bubbles
from .errors import DomainError, GeometryError, PositivityError


@dataclass(frozen=True)
class Domain:
    """Sampled domain: the closed ball of radius outer about the origin."""

    outer: float = 1.0

    def contains(self, x, margin: float = 0.0):
        """Membership of one point, or of each row of an (m, n) array."""
        return np.sqrt(np.vecdot(x, x)) <= self.outer - margin


def ball(R: float) -> Domain:
    return Domain(float(R))


def _rows(X) -> np.ndarray:
    return np.atleast_2d(np.asarray(X, dtype=float))


class ScalarField:
    """Base class: positive function evaluated on the rows of an (m, n) array."""

    def __init__(self, n: int, domain: Domain | None = None):
        self.n = n
        self.domain = domain

    # subclasses implement values (and _jet for analytic mode)
    def values(self, X) -> np.ndarray:
        raise NotImplementedError

    def _jet(self, X) -> tuple:
        raise NotImplementedError(f"{type(self).__name__} has no analytic derivatives")

    def radial_parts(self) -> list:
        raise DomainError(f"{type(self).__name__} is not a sum of radial profiles")

    def _check(self, X, margin: float = 0.0):
        if self.domain is None:
            return
        inside = self.domain.contains(X, margin)
        if not np.all(inside):
            raise GeometryError(
                f"point {X[np.argmin(inside)].tolist()} leaves the domain "
                f"(margin {margin:g})"
            )

    def jet(self, X) -> tuple:
        """(values, gradients, Hessians) at the rows of X."""
        X = _rows(X)
        self._check(X)
        return self._jet(X)

    def value(self, x) -> float:
        X = _rows(x)
        self._check(X)
        return float(self.values(X)[0])


class FDField(ScalarField):
    """Second-order finite-difference derivative view of another field."""

    def __init__(self, inner: ScalarField, h: float = 1e-3):
        # the Hessian stencils divide by h^2, which must neither underflow nor overflow
        if not (h > 0 and 0 < h * h < math.inf):
            raise DomainError(f"finite-difference step h must be positive with 0 < h^2 < inf, got h={h}")
        super().__init__(inner.n, inner.domain)
        self.inner = inner
        self.h = float(h)

    def values(self, X):
        return self.inner.values(X)

    def radial_parts(self):
        return self.inner.radial_parts()

    def _stencil(self, X, first, second=None):
        """inner values at X + first[t] (+ second[t]) for every stencil row
        t, in one call; shape (m, T)."""
        pts = X[:, None, :] + first
        if second is not None:
            pts = pts + second
        return self.inner.values(pts.reshape(-1, self.n)).reshape(len(X), -1)

    def jet(self, X):
        X = _rows(X)
        self._check(X, margin=2.0 * self.h)
        n, h2 = self.n, self.h**2
        E = self.h * np.eye(n)
        u0 = self.inner.values(X)
        u = self._stencil(X, np.concatenate([E, -E]))
        up, um = u[:, :n], u[:, n:]
        G = (0.5 * up + -0.5 * um) / self.h
        H = np.empty((len(X), n, n))
        H[:, range(n), range(n)] = (up - 2.0 * u0[:, None] + um) / h2
        # cross stencils x + k e_i + l e_j for (k, l) = (1,1), (1,-1), (-1,1), (-1,-1)
        iu, ju = np.triu_indices(n, 1)
        first = np.concatenate([k * E[iu] for k in (1, 1, -1, -1)])
        second = np.concatenate([l * E[ju] for l in (1, -1, 1, -1)])
        a, b, c, d = np.split(self._stencil(X, first, second), 4, axis=1)
        cross = (0.25 * a + -0.25 * b + -0.25 * c + 0.25 * d) / h2
        H[:, iu, ju] = cross
        H[:, ju, iu] = cross
        return u0, G, H


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

    def values(self, X):
        return np.full(len(_rows(X)), self.c)

    def radial_parts(self):
        return [(np.zeros(self.n), lambda r2: np.full(np.shape(r2), self.c))]

    def _jet(self, X):
        return self.values(X), np.zeros((len(X), self.n)), np.zeros((len(X), self.n, self.n))


class BubbleField(ScalarField):
    def __init__(self, params: bubbles.BubbleParams, domain: Domain | None = None):
        super().__init__(params.n, domain)
        self.params = params

    def values(self, X):
        return bubbles.bubble_values(self.params, _rows(X))

    def radial_parts(self):
        return [(self.params.center, lambda r2: bubbles.bubble_profile(self.params, r2))]

    def _jet(self, X):
        return bubbles.bubble_jet(self.params, X)
