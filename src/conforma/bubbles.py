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
from .sampling import make_rng

__all__ = [
    "BubbleParams",
    "bubble_values",
    "bubble_jet",
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


def _offsets(p: BubbleParams, X) -> tuple:
    """Rows x - center and the denominators 1 + beta*|x - center|^2."""
    Z = np.asarray(X, dtype=float) - p.center
    d = 1.0 + p.beta * np.einsum("ij,ij->i", Z, Z)
    if np.any(d <= 0.0):
        raise DomainError("bubble denominator <= 0 at a sample point")
    return Z, d


def bubble_values(p: BubbleParams, X: np.ndarray) -> np.ndarray:
    """The bubble at each row of X."""
    _, d = _offsets(p, X)
    return (p.a / d) ** (0.5 * (p.n - 2))


def bubble_jet(p: BubbleParams, X: np.ndarray) -> tuple:
    """The values, gradients (m, n) and Hessians (m, n, n) at the rows of X,
    from one pass over the offsets."""
    Z, d = _offsets(p, X)
    m = 0.5 * (p.n - 2)
    am = p.a**m
    g1 = (-2.0 * m * p.beta * am) * d ** (-m - 1.0)
    h = g1[:, None, None] * np.eye(p.n)
    h += ((4.0 * m * (m + 1.0) * p.beta**2 * am) * d ** (-m - 2.0))[:, None, None] * (
        Z[:, :, None] * Z[:, None, :]
    )
    return (p.a / d) ** m, g1[:, None] * Z, h


@dataclass(frozen=True)
class Residuals:
    r1: float
    r2: float
    samples_used: int


def _residuals(res: np.ndarray, r2: float) -> Residuals:
    """r1 is the worst point residual; only finite ones count as samples used."""
    return Residuals(r1=float(np.max(res, initial=0.0)), r2=r2,
                     samples_used=int(np.count_nonzero(np.isfinite(res))))


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
    rng = make_rng(seed)
    pts = p.center + rng.normal(size=(sample_count, p.n)) / np.sqrt(p.beta)
    target = 2.0 * p.beta / p.a**2 * np.eye(p.n)
    res = np.max(np.abs(a_matrix_flat(BubbleField(p), pts) - target), axis=(1, 2))

    level = 2.0 * p.beta / p.a**2 * np.ones(p.n)
    if not op.cone.contains(level):
        raise ConeError(
            "2*beta*a^-2*e is outside the operator's cone", witness=list(level)
        )
    return _residuals(res, abs(op.f(level) - 1.0))


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
    rng = make_rng(seed)
    scale = 1.0 / np.sqrt(abs(p.beta)) if p.beta != 0 else 1.0
    X = np.zeros((sample_count, n))
    X[:, :-1] = p.center[:-1] + scale * rng.normal(size=(sample_count, n - 1))
    u, g, _ = bubble_jet(p, X)
    du_n = g[:, -1]
    res = np.abs(du_n - c * u ** (n / (n - 2.0)))
    return _residuals(res, abs((n - 2.0) / p.a * p.beta * xbar_n - c))


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
    rng = make_rng(seed)
    X = rng.normal(size=(sample_count, n))
    X /= np.sqrt(np.vecdot(X, X))[:, None]
    u, g, _ = bubble_jet(p, X)
    du_nu = np.vecdot(g, X)
    res = np.abs(du_nu + 0.5 * (n - 2.0) * u + c * u ** (n / (n - 2.0)))
    return _residuals(res, abs(0.5 * (n - 2.0) * (1.0 - p.beta) + c * p.a))
