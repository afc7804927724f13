"""Closed-form Liouville bubble families and their parameter constraints.

The canonical profile is u(x) = (a / (1 + beta*|x - center|^2))^((n-2)/2).
`beta` is a single slot: it plays the role of b^2 for the full-space family
and of b for the half-space/ball families (conversion is the caller's
business).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ConeError, DomainError

__all__ = [
    "BubbleParams",
    "bubble_value",
    "bubble_grad",
    "bubble_hess",
    "Residuals",
    "verify_fullspace",
    "halfspace_residual",
    "ball_robin_residual",
]


@dataclass(frozen=True)
class BubbleParams:
    n: int
    a: float
    beta: float
    center: np.ndarray = dc_field(default=None)

    def __post_init__(self):
        if self.n < 3:
            raise DomainError(f"bubble needs n >= 3, got {self.n}")
        if not (0 < self.a < math.inf and math.isfinite(self.beta)):
            raise DomainError(f"bubble needs finite a > 0 and beta, got a={self.a}, beta={self.beta}")
        c = self.center
        if c is None:
            c = np.zeros(self.n)
        c = np.asarray(c, dtype=float)
        if c.shape != (self.n,):
            raise DomainError(f"center must be a length-{self.n} point")
        if not np.isfinite(c).all():
            raise DomainError(f"bubble center must be finite, got {c.tolist()}")
        object.__setattr__(self, "center", c)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "a": self.a,
            "beta": self.beta,
            "center": [float(c) for c in self.center],
        }


def _denominator(p: BubbleParams, x) -> tuple:
    z = np.asarray(x, dtype=float) - p.center
    d = 1.0 + p.beta * float(z @ z)
    if d <= 0.0:
        raise DomainError(
            f"bubble denominator 1 + beta*|x-center|^2 = {d:.6g} <= 0"
        )
    return z, d


def bubble_value(p: BubbleParams, x) -> float:
    z, d = _denominator(p, x)
    m = 0.5 * (p.n - 2)
    return (p.a / d) ** m


def bubble_grad(p: BubbleParams, x) -> np.ndarray:
    z, d = _denominator(p, x)
    m = 0.5 * (p.n - 2)
    return (-2.0 * m * p.beta * p.a**m) * d ** (-m - 1.0) * z


def bubble_hess(p: BubbleParams, x) -> np.ndarray:
    z, d = _denominator(p, x)
    m = 0.5 * (p.n - 2)
    am = p.a**m
    h = (-2.0 * m * p.beta * am) * d ** (-m - 1.0) * np.eye(p.n)
    h += (4.0 * m * (m + 1.0) * p.beta**2 * am) * d ** (-m - 2.0) * np.outer(z, z)
    return h


def bubble_values(p: BubbleParams, X: np.ndarray) -> np.ndarray:
    """Vectorized bubble_value over rows of X."""
    Z = np.asarray(X, dtype=float) - p.center
    d = 1.0 + p.beta * np.einsum("ij,ij->i", Z, Z)
    if np.any(d <= 0.0):
        raise DomainError("bubble denominator <= 0 at a sample point")
    return (p.a / d) ** (0.5 * (p.n - 2))


@dataclass(frozen=True)
class Residuals:
    r1: float
    r2: float
    samples_used: int


def verify_fullspace(op, p: BubbleParams, sample_count: int = 100, seed: int = 0) -> Residuals:
    """Full-space check: A^u is the constant matrix 2*beta*a^-2*I, and the
    operator normalization f(2*beta*a^-2*e) = 1 for correctly scaled beta.

    r1: worst infinity-norm deviation of A^u(x) from the constant matrix over
    sampled points (analytic derivatives). r2: |f(2*beta*a^-2*e) - 1|.
    """
    from .conformal import a_matrix_flat
    from .fields import BubbleField

    if not p.beta > 0:
        raise DomainError("full-space family needs beta > 0")
    u = BubbleField(p)
    rng = np.random.Generator(np.random.PCG64(seed))
    pts = p.center + rng.normal(size=(sample_count, p.n)) / np.sqrt(p.beta)
    target = 2.0 * p.beta / p.a**2 * np.eye(p.n)
    r1 = 0.0
    for x in pts:
        A = a_matrix_flat(u, x)
        r1 = max(r1, float(np.max(np.abs(A - target))))

    level = 2.0 * p.beta / p.a**2 * np.ones(p.n)
    if not op.cone.contains(level):
        raise ConeError(
            "2*beta*a^-2*e is outside the operator's cone", witness=list(level)
        )
    r2 = abs(op.f(level) - 1.0)
    return Residuals(r1=r1, r2=r2, samples_used=sample_count)


def halfspace_residual(p: BubbleParams, c: float, sample_count: int = 100, seed: int = 0) -> Residuals:
    """Half-space boundary condition du/dx_n = c*u^{n/(n-2)} on {x_n = 0}.

    r1: worst boundary-condition residual over sampled boundary points.
    r2: |(n-2)*a^-1*beta*center_n - c|, the closed-form parameter constraint.
    Constraint violations are reported, never raised.
    """
    if not math.isfinite(c):
        raise DomainError(f"half-space constant c must be finite, got c={c}")
    xbar_n = float(p.center[-1])
    if not p.beta + min(xbar_n, 0.0) ** 2 > 0:
        raise DomainError(
            "half-space family needs beta + min(center_n, 0)^2 > 0"
        )
    n = p.n
    rng = np.random.Generator(np.random.PCG64(seed))
    scale = 1.0 / np.sqrt(abs(p.beta)) if p.beta != 0 else 1.0
    r1 = 0.0
    for _ in range(sample_count):
        x = np.zeros(n)
        x[:-1] = p.center[:-1] + scale * rng.normal(size=n - 1)
        du_n = bubble_grad(p, x)[-1]
        u = bubble_value(p, x)
        r1 = max(r1, abs(du_n - c * u ** (n / (n - 2.0))))
    r2 = abs((n - 2.0) / p.a * p.beta * xbar_n - c)
    return Residuals(r1=r1, r2=r2, samples_used=sample_count)


def ball_robin_residual(p: BubbleParams, c: float, sample_count: int = 100, seed: int = 0) -> Residuals:
    """Robin condition d_nu(u) + ((n-2)/2)u + c*u^{n/(n-2)} = 0 on the unit
    sphere, for centered bubbles.

    r1: worst Robin residual over sampled unit-sphere points. r2: the
    parameter-constraint residual |((n-2)/2)(1-beta) + c*a|.
    """
    if not math.isfinite(c):
        raise DomainError(f"Robin constant c must be finite, got c={c}")
    if float(np.linalg.norm(p.center)) != 0.0:
        raise DomainError("ball family is centered: center must be 0")
    if p.beta < -1.0:
        raise DomainError("ball family needs beta >= -1")
    n = p.n
    rng = np.random.Generator(np.random.PCG64(seed))
    r1 = 0.0
    for _ in range(sample_count):
        x = rng.normal(size=n)
        x /= np.linalg.norm(x)
        u = bubble_value(p, x)
        du_nu = float(bubble_grad(p, x) @ x)
        r1 = max(r1, abs(du_nu + 0.5 * (n - 2.0) * u + c * u ** (n / (n - 2.0))))
    r2 = abs(0.5 * (n - 2.0) * (1.0 - p.beta) + c * p.a)
    return Residuals(r1=r1, r2=r2, samples_used=sample_count)
