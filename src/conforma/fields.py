"""Positive scalar fields on sampled domains with derivative access.

Fields come in two derivative modes. Analytic fields supply closed-form
gradient/Hessian; finite_difference(h) wraps any field and differentiates its
values with central stencils (order 2 default, order 4 optional). FD queries
must keep a 2h margin to the domain boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bubbles
from .errors import DomainError, GeometryError, PositivityError

ORDER2_D1 = ((1, 0.5), (-1, -0.5))
ORDER4_D1 = ((2, -1.0 / 12), (1, 8.0 / 12), (-1, -8.0 / 12), (-2, 1.0 / 12))


@dataclass(frozen=True)
class Domain:
    """Sampled-domain descriptor: ball(R), annulus(r, R), half_ball(R)."""

    kind: str
    inner: float = 0.0
    outer: float = 1.0

    def contains(self, x, margin: float = 0.0) -> bool:
        r = float(np.linalg.norm(x))
        if self.kind == "ball":
            return r <= self.outer - margin
        if self.kind == "annulus":
            return self.inner + margin <= r <= self.outer - margin
        if self.kind == "half_ball":
            return r <= self.outer - margin and float(x[-1]) >= margin
        raise DomainError(f"unknown domain kind {self.kind!r}")


def ball(R: float) -> Domain:
    return Domain("ball", 0.0, float(R))


def annulus(r: float, R: float) -> Domain:
    return Domain("annulus", float(r), float(R))


def half_ball(R: float) -> Domain:
    return Domain("half_ball", 0.0, float(R))


class ScalarField:
    """Base class: positive function with value/grad/hess access."""

    mode = "analytic"

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
    """Finite-difference derivative view of another field."""

    mode = "fd"

    def __init__(self, inner: ScalarField, h: float = 1e-3, order: int = 2):
        if not h > 0:
            raise DomainError("finite-difference step h must be positive")
        if order not in (2, 4):
            raise DomainError("finite-difference order must be 2 or 4")
        super().__init__(inner.n, inner.domain)
        self.inner = inner
        self.h = float(h)
        self.order = order

    def _value(self, x):
        return self.inner._value(x)

    def value(self, x):
        return self.inner.value(x)

    def values(self, X):
        return self.inner.values(X)

    def _stencil(self):
        return ORDER2_D1 if self.order == 2 else ORDER4_D1

    def grad(self, x):
        x = np.asarray(x, dtype=float)
        self._check(x, margin=2.0 * self.h)
        h, n = self.h, self.n
        g = np.zeros(n)
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            acc = 0.0
            for k, w in self._stencil():
                acc += w * self.inner.value(x + k * e)
            g[i] = acc / h
        return g

    def hess(self, x):
        x = np.asarray(x, dtype=float)
        self._check(x, margin=2.0 * self.h * (2 if self.order == 4 else 1))
        h, n = self.h, self.n
        H = np.zeros((n, n))
        u0 = self.inner.value(x)
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            if self.order == 2:
                H[i, i] = (
                    self.inner.value(x + e) - 2.0 * u0 + self.inner.value(x - e)
                ) / h**2
            else:
                H[i, i] = (
                    -self.inner.value(x + 2 * e)
                    + 16.0 * self.inner.value(x + e)
                    - 30.0 * u0
                    + 16.0 * self.inner.value(x - e)
                    - self.inner.value(x - 2 * e)
                ) / (12.0 * h**2)
        st = self._stencil()
        for i in range(n):
            for j in range(i + 1, n):
                ei = np.zeros(n)
                ei[i] = h
                ej = np.zeros(n)
                ej[j] = h
                acc = 0.0
                for k, wk in st:
                    for l, wl in st:
                        acc += wk * wl * self.inner.value(x + k * ei + l * ej)
                H[i, j] = H[j, i] = acc / h**2
        return H


def finite_difference(field: ScalarField, h: float = 1e-3, order: int = 2) -> FDField:
    """Switch a field to finite-difference derivative mode."""
    base = field.inner if isinstance(field, FDField) else field
    return FDField(base, h=h, order=order)


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


class GaussianBumpField(ScalarField):
    """u = base + amp * exp(-|x - center|^2 / width^2), positive for amp > -base."""

    def __init__(
        self,
        n: int,
        base: float = 1.0,
        amp: float = 0.3,
        center=None,
        width: float = 1.0,
        domain: Domain | None = None,
    ):
        if base + min(amp, 0.0) <= 0:
            raise PositivityError("gaussian bump parameters allow u <= 0")
        super().__init__(n, domain)
        self.base = float(base)
        self.amp = float(amp)
        self.center = np.zeros(n) if center is None else np.asarray(center, float)
        self.width = float(width)

    def _bump(self, x):
        z = x - self.center
        return self.amp * math.exp(-float(z @ z) / self.width**2), z

    def _value(self, x):
        b, _ = self._bump(x)
        return self.base + b

    def values(self, X):
        Z = np.atleast_2d(X) - self.center
        return self.base + self.amp * np.exp(
            -np.einsum("ij,ij->i", Z, Z) / self.width**2
        )

    def _grad(self, x):
        b, z = self._bump(x)
        return b * (-2.0 / self.width**2) * z

    def _hess(self, x):
        b, z = self._bump(x)
        w2 = self.width**2
        return b * (4.0 * np.outer(z, z) / w2**2 - 2.0 * np.eye(self.n) / w2)


class HarmonicPowerField(ScalarField):
    """u = |x|^(2-n), the Kelvin image of the constant 1; singular at 0."""

    def __init__(self, n: int, domain: Domain | None = None):
        super().__init__(n, domain if domain is not None else annulus(1e-6, 1e6))

    def _value(self, x):
        r = float(np.linalg.norm(x))
        return r ** (2.0 - self.n)

    def _grad(self, x):
        r = float(np.linalg.norm(x))
        return (2.0 - self.n) * r ** (-self.n) * x

    def _hess(self, x):
        n = self.n
        r = float(np.linalg.norm(x))
        return (2.0 - n) * (
            r ** (-n) * np.eye(n) - n * r ** (-n - 2.0) * np.outer(x, x)
        )


class QuadraticField(ScalarField):
    """u = c + |x|^2; positive, subharmonic (a deliberate failure witness)."""

    def __init__(self, n: int, c: float = 1.0, domain: Domain | None = None):
        if not c > 0:
            raise PositivityError("offset must be positive")
        super().__init__(n, domain)
        self.c = float(c)

    def _value(self, x):
        return self.c + float(x @ x)

    def _grad(self, x):
        return 2.0 * x

    def _hess(self, x):
        return 2.0 * np.eye(self.n)


def field_from_json(spec: dict) -> ScalarField:
    """Build a catalog field from {kind, params}."""
    kind = spec.get("kind")
    params = dict(spec.get("params", {}))
    dom = params.pop("domain", None)
    domain = None
    if dom is not None:
        domain = Domain(dom["kind"], dom.get("inner", 0.0), dom.get("outer", 1.0))
    if kind == "constant":
        return ConstantField(params["n"], params["c"], domain)
    if kind == "bubble":
        p = bubbles.BubbleParams(
            n=params["n"],
            a=params.get("a", 1.0),
            beta=params.get("beta", 1.0),
            center=np.asarray(params.get("center", np.zeros(params["n"]))),
        )
        return BubbleField(p, domain)
    if kind == "gaussian":
        return GaussianBumpField(
            params["n"],
            base=params.get("base", 1.0),
            amp=params.get("amp", 0.3),
            center=params.get("center"),
            width=params.get("width", 1.0),
            domain=domain,
        )
    if kind == "harmonic_power":
        return HarmonicPowerField(params["n"], domain)
    if kind == "quadratic":
        return QuadraticField(params["n"], params.get("c", 1.0), domain)
    raise DomainError(f"unknown field kind {kind!r}")
