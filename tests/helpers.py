"""Shared constructions for the tests: a pole-safe random Moebius word
generator, the standing catalog of conformal factors and its non-bubble
fields, the one-generator-at-a-time pullbacks (translate, scale,
loop-Hessian Kelvin, order-2 finite differences) that conformal.pullback_u
replaced, the generator-chain sphere inversion, the bubble matching a radial
jet, a generic root-search oracle for the radial slope solve, the
per-node radial eigenvalues, slope, shoot and unit-residual loop that the
per-operator slope kernel and the whole-profile check replaced, the
one-vector homotopy operator f_t with its pullback cone and margin, per-node
loop oracles for the periodic solver's closed-form residual, Jacobian
coefficients and margin at a stage t, built on the n-wide product
eigenvalue rows and the separate eigenvalue partials that yamabe's one
spectrum kernel replaced, the homotopy path started at each stage from the
previous solution that the predicted start replaced, one-radius-at-a-time
oracles for the batched moving-sphere kernels, the tau-slab walk of the interval-lemma
check, the whole-profile bubble deviation, and the
one-ray-at-a-time unit-level solve with the per-sample homogenize handler
built on it, the one-sample-at-a-time operator validation, the lemmas
catalog with one closure pair per kind, the one-vector sigma_k
gradient, the one-point bubble value, gradient and Hessian, the per-point
field protocol that the rows protocol replaced, the per-point
upper-triangle assembly of A^u, the hand-written parser of all eight
subcommands that the CLI's command table replaced, and the benchmark's
workload definitions loaded by path."""

import argparse
import importlib.util
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from conforma import __version__, cli, yamabe
from conforma.bubbles import BubbleParams, bubble_values
from conforma.cones import (
    BISECT_ITERS as RAY_BISECT_ITERS,
    CurvatureOperator,
    GammaKCone,
    S_MAX,
    S_MIN,
    gamma_k_check,
    make_sigma_k_operator,
    sample_cone_directions,
    sigma_all,
    two_cluster_sigmas,
)
from conforma.conformal import (
    POLE_GUARD_ANALYTIC,
    Invert,
    MoebiusMap,
    Scale,
    Translate,
    pullback_u,
)
from conforma.errors import (
    ConeError,
    ConvergenceError,
    DomainError,
    GeometryError,
    PositivityError,
    SingularityError,
)
from conforma.fields import BubbleField, ConstantField, FDField, ScalarField
from conforma.moving_sphere import (
    BISECT_ITERS,
    DEFAULT_GUARD,
    CONCLUSION_TOL,
    HYPOTHESIS_TOL,
    VIOLATION_TOL,
    CriticalRadius,
    HLemmaReport,
)
from conforma.radial import RadialProfile, vpp0_exact
from conforma.reporting import Check
from conforma.sampling import make_rng


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


class PointField(ScalarField):
    """The per-point field protocol that the rows protocol replaced:
    subclasses implement _value, _grad and _hess of one point, and values
    loops over rows."""

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
        X = np.asarray(X, dtype=float)
        return np.array([self.value(x) for x in X])

    def grad(self, x) -> np.ndarray:
        self._check(x)
        return np.asarray(self._grad(np.asarray(x, dtype=float)), dtype=float)

    def hess(self, x) -> np.ndarray:
        self._check(x)
        return np.asarray(self._hess(np.asarray(x, dtype=float)), dtype=float)

    def jet(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return (self.values(X), np.array([self.grad(x) for x in X]),
                np.array([self.hess(x) for x in X]))


def point_jet(u, x):
    """The value, gradient and Hessian of one point: its one-row jet."""
    v, g, H = u.jet(x)
    return v[0], g[0], H[0]


class GaussianBumpField(ScalarField):
    """u = base + amp * exp(-|x - center|^2 / width^2), positive for amp > -base."""

    def __init__(self, n, base=1.0, amp=0.3, center=None, width=1.0):
        if base + min(amp, 0.0) <= 0:
            raise PositivityError("gaussian bump parameters allow u <= 0")
        super().__init__(n)
        self.base = float(base)
        self.amp = float(amp)
        self.center = np.zeros(n) if center is None else np.asarray(center, float)
        self.width = float(width)

    def _bumps(self, X):
        Z = np.atleast_2d(X) - self.center
        return self.amp * np.exp(-np.einsum("ij,ij->i", Z, Z) / self.width**2), Z

    def values(self, X):
        b, _ = self._bumps(X)
        return self.base + b

    def radial_parts(self):
        return [(self.center, lambda r2: self.base + self.amp * np.exp(-r2 / self.width**2))]

    def _jet(self, X):
        b, Z = self._bumps(X)
        w2 = self.width**2
        return self.base + b, b[:, None] * (-2.0 / self.width**2) * Z, b[:, None, None] * (
            4.0 * (Z[:, :, None] * Z[:, None, :]) / w2**2 - 2.0 * np.eye(self.n) / w2
        )


class HarmonicPowerField(ScalarField):
    """u = |x|^(2-n), the Kelvin image of the constant 1; singular at 0, so
    evaluation is guarded to 1e-6 + margin <= |x| <= 1e6 - margin."""

    def _check(self, X, margin=0.0):
        r = np.sqrt(np.vecdot(X, X))
        inside = (1e-6 + margin <= r) & (r <= 1e6 - margin)
        if not np.all(inside):
            raise GeometryError(
                f"point {X[np.argmin(inside)].tolist()} leaves the pole guard "
                f"(margin {margin:g})"
            )

    def _norms(self, X):
        X = np.atleast_2d(X)
        return X, np.sqrt(np.vecdot(X, X))

    def values(self, X):
        _, r = self._norms(X)
        return r ** (2.0 - self.n)

    def _jet(self, X):
        n = self.n
        X, r = self._norms(X)
        return r ** (2.0 - n), ((2.0 - n) * r ** (-n))[:, None] * X, (2.0 - n) * (
            (r ** (-n))[:, None, None] * np.eye(n)
            - (n * r ** (-n - 2.0))[:, None, None] * (X[:, :, None] * X[:, None, :])
        )


def sphere_inversion_map(x, lam):
    """y -> x + lam^2 (y - x)/|y - x|^2 as a Mobius word."""
    if not lam > 0:
        raise DomainError("inversion radius must be positive")
    x = tuple(float(c) for c in np.atleast_1d(x))
    neg = tuple(-c for c in x)
    return MoebiusMap(
        (Translate(neg), Scale(1.0 / lam), Invert(), Scale(lam), Translate(x))
    )


def sphere_inversion_u(u, x, lam):
    """u_{x,lam} as the pullback of u by the generator chain of
    sphere_inversion_map: an oracle for the closed-form
    sphere_inversion_at_offsets."""
    return pullback_u(u, sphere_inversion_map(x, lam))


def sphere_inversion_at_offsets(u, x, lam, DT, d2):
    """u_{x,lam}(y) = (lam/|y-x|)^{n-2} u(x + lam^2 (y-x)/|y-x|^2) in closed
    form at y = x + d, for offsets d given by coordinate, DT = [d_1 ... d_P]
    of shape (n, P), with d2 = |d|^2 off the pole (the caller refuses it).

    The mapped n-D points go through u.values, so this works for any field:
    the oracle for the moving-sphere kernel, which runs on radial profiles.
    """
    lam2 = lam * lam
    kernel = (lam2 / d2) ** (0.5 * (u.n - 2))
    mapped = x[:, None] + lam2 * DT / d2
    return kernel * u.values(np.ascontiguousarray(mapped.T))


class TranslatePullback(PointField):
    """w(x) = u(x + v): the translate pullback that the affine one replaced."""

    def __init__(self, inner: ScalarField, v):
        super().__init__(inner.n, None)
        self.inner = inner
        self.v = np.asarray(v, dtype=float)

    def _value(self, x):
        return self.inner.value(x + self.v)

    def _grad(self, x):
        return point_jet(self.inner, x + self.v)[1]

    def _hess(self, x):
        return point_jet(self.inner, x + self.v)[2]


class ScalePullback(PointField):
    """w(x) = |c|^{(n-2)/2} u(cx): the scale pullback that the affine one
    replaced."""

    def __init__(self, inner: ScalarField, c: float):
        super().__init__(inner.n, None)
        self.inner = inner
        self.c = float(c)
        self.pref = abs(self.c) ** (0.5 * (inner.n - 2))

    def _value(self, x):
        return self.pref * self.inner.value(self.c * x)

    def _grad(self, x):
        return self.pref * self.c * point_jet(self.inner, self.c * x)[1]

    def _hess(self, x):
        return self.pref * self.c**2 * point_jet(self.inner, self.c * x)[2]


class KelvinPullbackLoop(PointField):
    """w(x) = |x|^{2-n} u(x/|x|^2), with the second derivatives of the
    inversion filled one entry at a time."""

    def __init__(self, inner: ScalarField, guard: float = POLE_GUARD_ANALYTIC):
        super().__init__(inner.n, None)
        self.inner = inner
        self.guard = guard

    def _point(self, x):
        r2 = float(x @ x)
        if r2 <= self.guard**2:
            raise SingularityError("evaluation inside the inversion pole guard")
        return x / r2, r2

    def _value(self, x):
        y, r2 = self._point(x)
        return r2 ** (0.5 * (2.0 - self.n)) * self.inner.value(y)

    def _grad(self, x):
        n = self.n
        y, r2 = self._point(x)
        r = math.sqrt(r2)
        u = self.inner.value(y)
        gu = point_jet(self.inner, y)[1]
        p = r ** (2.0 - n)
        dp = (2.0 - n) * r ** (-n) * x
        dy = (np.eye(n) - 2.0 * np.outer(x, x) / r2) / r2
        return dp * u + p * (dy.T @ gu)

    def _hess(self, x):
        n = self.n
        y, r2 = self._point(x)
        r = math.sqrt(r2)
        u = self.inner.value(y)
        _, gu, hu = point_jet(self.inner, y)
        p = r ** (2.0 - n)
        dp = (2.0 - n) * r ** (-n) * x
        hp = (2.0 - n) * (r ** (-n) * np.eye(n) - n * r ** (-n - 2.0) * np.outer(x, x))
        dy = (np.eye(n) - 2.0 * np.outer(x, x) / r2) / r2
        # second derivatives of y_k = x_k / |x|^2
        d2y = np.zeros((n, n, n))  # [k, i, j]
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    d2y[k, i, j] = (
                        -2.0
                        * (
                            (i == k) * x[j]
                            + (j == k) * x[i]
                            + (i == j) * x[k]
                        )
                        / r2**2
                        + 8.0 * x[i] * x[j] * x[k] / r2**3
                    )
        grad_comp = dy.T @ gu  # gradient of u o y
        hess_comp = dy.T @ hu @ dy + np.einsum("k,kij->ij", gu, d2y)
        return (
            hp * u
            + np.outer(dp, grad_comp)
            + np.outer(grad_comp, dp)
            + p * hess_comp
        )


ORDER2_D1 = ((1, 0.5), (-1, -0.5))


class FDFieldOrder2(PointField):
    """Finite-difference derivative view of another field, with the
    second-order central stencils of the order-2 path of the former
    two-order FDField."""

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


def a_matrix_flat_loop(u, x) -> np.ndarray:
    """Conformal Schouten matrix A^u(x) of the flat metric factor u, one
    point, its upper triangle assembled entry by entry and mirrored: an
    oracle for the rows form of conformal.a_matrix_flat."""
    x = np.asarray(x, dtype=float)
    n = u.n
    if n < 3:
        raise DomainError("conformal matrix needs n >= 3")
    val = u.value(x)
    if not val > 0:
        raise PositivityError(f"u(x) = {val:.6g} is not positive")
    _, g, H = point_jet(u, x)
    c1 = -2.0 / (n - 2)
    c2 = 2.0 * n / (n - 2) ** 2
    c3 = -2.0 / (n - 2) ** 2
    w1 = val ** (-(n + 2.0) / (n - 2.0))
    w2 = val ** (-2.0 * n / (n - 2.0))
    g2 = float(g @ g)
    # assemble the upper triangle, then mirror: exact symmetry by construction
    A = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            val_ij = c1 * w1 * 0.5 * (H[i, j] + H[j, i]) + c2 * w2 * g[i] * g[j]
            if i == j:
                val_ij += c3 * w2 * g2
            A[i, j] = val_ij
            A[j, i] = val_ij
    return A


def pullback_u_generators(u, psi):
    """u_psi built one generator at a time from the translate, scale and
    loop-Hessian Kelvin pullbacks, finite differences kept for an FD source:
    an oracle for conformal.pullback_u."""
    fd = isinstance(u, FDField)
    out = u.inner if fd else u
    for gen in reversed(psi.word):
        if isinstance(gen, Translate):
            out = TranslatePullback(out, gen.v)
        elif isinstance(gen, Scale):
            out = ScalePullback(out, gen.c)
        else:
            out = KelvinPullbackLoop(out)
    return FDFieldOrder2(out, h=u.h) if fd else out


def bubble_from_initial_conditions(v0, vpp0, n):
    """Bubble matching a radial profile's v(0) and v''(0) (with v'(0)=0),
    solved from the jet alone: an independent check of radial.matched_bubble."""
    if not v0 > 0:
        raise DomainError(f"v0 must be positive, got {v0}")
    a = v0 ** (2.0 / (n - 2.0))
    beta = (1.0 / (2.0 - n)) * a ** (0.5 * (2.0 - n)) * vpp0
    return BubbleParams(n=n, a=a, beta=beta, center=np.zeros(n))


def random_word(rng, n):
    """At most one inversion, translates bounded by 0.25, scales in
    +-[0.6, 1.8], so images of the shell 0.7 <= |x| <= 1.3 never reach
    the inversion pole or a domain boundary."""
    gens = []
    if rng.random() < 0.8:
        gens.append(Translate(0.25 * rng.uniform(-1, 1, size=n)))
    if rng.random() < 0.8:
        c = rng.uniform(0.6, 1.8) * (-1.0 if rng.random() < 0.3 else 1.0)
        gens.append(Scale(float(c)))
    if rng.random() < 0.7:
        gens.append(Invert())
    if rng.random() < 0.5:
        gens.append(Translate(0.15 * rng.uniform(-1, 1, size=n)))
    if rng.random() < 0.5:
        gens.append(Scale(float(rng.uniform(0.7, 1.5))))
    if not gens:
        gens.append(Scale(1.3))
    return MoebiusMap(tuple(gens))


def catalog_fields(n):
    """Five positive conformal factors with unbounded-domain evaluations."""
    return [
        BubbleField(BubbleParams(n=n, a=1.0, beta=1.0)),
        BubbleField(
            BubbleParams(n=n, a=2.0, beta=4.0, center=np.linspace(0.3, -0.2, n))
        ),
        ConstantField(n, 2.5),
        GaussianBumpField(n, base=1.0, amp=0.3, width=1.2),
        HarmonicPowerField(n),
    ]


def implicit_vpp_bracket(op, v, vp, r):
    """Reference slope solve: f(lam(v, v', w, r)) = 1 by root search on op.f.

    Works for any operator. w -> f(lam(w)) is strictly decreasing where
    defined and cone violations occur only on the large-w side, so they
    orient the bracket search; 60 failed doublings on the small-w side mean
    the tangential data has left the cone. Secant inside the bracket with a
    bisection fallback; an end kept twice in a row has its value halved (the
    Illinois rule), so the bracket shrinks from both sides down to the
    floating-point floor.
    """
    if not r > 0:
        raise DomainError("implicit slope needs r > 0")
    n = op.n

    def geval(w):
        lam = radial_eigenvalues_node(v, vp, w, r, n)
        try:
            return op.f(lam) - 1.0
        except ConeError:
            return None  # inadmissible: w too large

    step = 1e-3
    g0 = geval(0.0)
    if g0 == 0.0:
        return 0.0
    if g0 is None or g0 < 0.0:
        hi, ghi = 0.0, g0
        lo = 0.0
        for _ in range(60):
            lo = lo - step
            step *= 2.0
            glo = geval(lo)
            if glo is not None and glo > 0.0:
                break
            hi, ghi = lo, glo
        else:
            raise ConeError(
                "no admissible vertical slope: data off the cone "
                f"(v={v:.6g}, v'={vp:.6g}, r={r:.6g})"
            )
    else:
        lo, glo = 0.0, g0
        hi = 0.0
        for _ in range(60):
            hi = hi + step
            step *= 2.0
            ghi = geval(hi)
            if ghi is None or ghi < 0.0:
                break
            lo, glo = hi, ghi
        else:
            raise ConvergenceError("f(lam(w)) stayed above 1 along the large-w direction")

    kept = None  # the end that survived the previous step
    for _ in range(80):
        if ghi is not None and ghi != glo:
            mid = hi - ghi * (hi - lo) / (ghi - glo)
            if not (lo < mid < hi):
                mid = 0.5 * (lo + hi)
        else:
            mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        gm = geval(mid)
        if gm == 0.0:
            return mid
        if gm is None or gm < 0.0:
            hi, ghi = mid, gm
            if kept == "lo":
                glo *= 0.5
            kept = "lo"
        else:
            lo, glo = mid, gm
            if kept == "hi" and ghi is not None:
                ghi *= 0.5
            kept = "hi"
    return 0.5 * (lo + hi)


def _radial_parts_node(v, vp, r, n):
    """(c1, rad0, lam_tang) at r > 0, with lam_rad = rad0 - c1 * v''."""
    if not v > 0.0:
        raise PositivityError(f"profile value v = {v:.6g} is not positive")
    q1 = v ** (-(n + 2.0) / (n - 2.0))
    q2 = v ** (-2.0 * n / (n - 2.0))
    c = 2.0 / (n - 2.0)
    vp2 = vp * vp
    c1 = c * q1
    rad0 = c * (n - 1.0) / (n - 2.0) * q2 * vp2
    lam_tang = -c1 * (vp / r) - c / (n - 2.0) * q2 * vp2
    return c1, rad0, lam_tang


def radial_eigenvalues_node(v, vp, vpp, r, n):
    """Scalar conformal eigenvalues of a radial factor at one radius, by
    libm powers on Python floats (r = 0 allowed)."""
    if n < 3:
        raise DomainError("radial eigenvalues need n >= 3")
    if r < 0:
        raise DomainError(f"radius r = {r:g} is negative")
    if r == 0.0:
        if abs(vp) > 1e-12 * max(1.0, abs(vpp)):
            raise DomainError(
                f"center data inconsistent: v'(0) = {vp:.6g} must vanish"
            )
        if not v > 0.0:
            raise PositivityError(f"profile value v = {v:.6g} is not positive")
        lam0 = -(2.0 / (n - 2.0)) * v ** (-(n + 2.0) / (n - 2.0)) * vpp
        return np.full(n, lam0)
    c1, rad0, lam_tang = _radial_parts_node(v, vp, r, n)
    out = [lam_tang] * n
    out[0] = -c1 * vpp + rad0
    return np.asarray(out, dtype=float)


def implicit_vpp_node(op, v, vp, r):
    """Closed-form slope recomputing every constant per call: the bits
    slope_kernel must reproduce."""
    if not r > 0:
        raise DomainError("implicit slope needs r > 0 (use vpp0_exact at 0)")
    k = op.sigma_order
    if k is None:
        raise DomainError(f"closed-form slope needs a sigma_k operator, got {op.name}")
    m = op.n - 1
    c1, rad0, b = _radial_parts_node(v, vp, r, m + 1)
    div = math.comb(m, k - 1) * b ** (k - 1)
    if div > 0.0:
        a = (1.0 - math.comb(m, k) * b**k) / div
        if all(s > 0.0 for s in two_cluster_sigmas(a, b, m, k - 1)):
            return (rad0 - a) / c1
    raise ConeError(
        "no admissible vertical slope: data off the cone "
        f"(v={v:.6g}, v'={vp:.6g}, r={r:.6g})"
    )


def shoot_stagewise(op, v0, h, r_max=0.9):
    """radial.shoot with implicit_vpp_node at every RK4 stage (no input
    checks): the profile the kernel-driven shoot must reproduce bit for bit."""
    w0 = vpp0_exact(op, v0)
    rs, vs, vps, ws = [0.0], [v0], [0.0], [w0]
    status = "ok"
    v, vp, w = v0 + 0.5 * w0 * h * h, w0 * h, None
    try:
        w = implicit_vpp_node(op, v, vp, h)
        rs.append(h)
        vs.append(v)
        vps.append(vp)
        ws.append(w)
        for i in range(1, int(round(r_max / h))):
            r = i * h
            k1v, k1w = vp, w
            k2v = vp + 0.5 * h * k1w
            k2w = implicit_vpp_node(op, v + 0.5 * h * k1v, k2v, r + 0.5 * h)
            k3v = vp + 0.5 * h * k2w
            k3w = implicit_vpp_node(op, v + 0.5 * h * k2v, k3v, r + 0.5 * h)
            k4v = vp + h * k3w
            k4w = implicit_vpp_node(op, v + h * k3v, k4v, r + h)
            v = v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
            vp = vp + (h / 6.0) * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
            w = implicit_vpp_node(op, v, vp, r + h)
            rs.append(r + h)
            vs.append(v)
            vps.append(vp)
            ws.append(w)
    except ConeError:
        status = "cone_exit"
    except PositivityError:
        status = "positivity_loss"
    return RadialProfile(
        r=np.asarray(rs), v=np.asarray(vs), vp=np.asarray(vps), vpp=np.asarray(ws),
        n=op.n, operator=op.name, v0=v0, h=h, status=status,
    )


def profile_max_unit_residual_loop(op, profile):
    """max over nodes of |op.f(lam) - 1|, one node at a time."""
    worst = 0.0
    for r, v, vp, w in zip(
        profile.r.tolist(),
        profile.v.tolist(),
        profile.vp.tolist(),
        profile.vpp.tolist(),
    ):
        lam = radial_eigenvalues_node(v, vp, w, r, profile.n)
        worst = max(worst, abs(op.f(lam) - 1.0))
    return worst


@dataclass(frozen=True)
class HomotopyCone:
    """Pullback cone {lam : t*lam + (1-t)*sigma_1(lam)*e in inner}, one
    vector at a time."""

    inner: GammaKCone
    t: float

    @property
    def n(self):
        return self.inner.n

    def map(self, lam):
        s1 = float(sum(float(x) for x in lam))
        return [self.t * float(x) + (1.0 - self.t) * s1 for x in lam]

    def contains(self, lam):
        return self.inner.contains(self.map(lam))


def cone_margin(cone, lam):
    """min_j sigma_j, j <= k, of lam (mapped first, for a HomotopyCone): the
    Gamma_k margin, positive exactly where cone.contains(lam)."""
    if isinstance(cone, HomotopyCone):
        cone, lam = cone.inner, cone.map(lam)
    return min(sigma_all(lam)[: cone.k])


def homotopy_operator(op, t):
    """Interpolant f_t(lam) = f(t*lam + (1-t)*sigma_1(lam)*e) on its cone, one
    vector at a time: the per-node oracle of yamabe's stage-t kernel."""
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"homotopy parameter t={t} outside [0, 1]")
    cone = HomotopyCone(inner=op.cone, t=t)
    n = op.cone.n

    def mapped(lam):
        vals = [float(x) for x in lam]
        if len(vals) != n:
            raise DomainError(f"expected n={n} entries, got {len(vals)}")
        return cone.map(vals)

    def f(lam):
        try:
            return op.f(mapped(lam))
        except ConeError as exc:
            raise ConeError(
                f"lambda outside homotopy cone at t={t:g}: {exc}",
                witness=list(lam),
            ) from exc

    def grad_f(lam):
        g = np.asarray(op.grad_f(mapped(lam)), dtype=float)
        return t * g + (1.0 - t) * float(g.sum()) * np.ones(n)

    return CurvatureOperator(
        name=f"{op.name}_t{t:g}",
        f=f,
        grad_f=grad_f,
        cone=cone,
        homogeneous_degree=op.homogeneous_degree,
    )


def product_eigenvalues(vv, vp, vpp, n: int) -> np.ndarray:
    """Eigenvalues (lambda_t, lambda_s, ..., lambda_s) of the conformal
    Schouten tensor on S^1(L) x S^{n-1} for the factor v.

    Scalar (v, v', v'') give shape (n,); arrays of a common shape S give
    one eigenvalue row per point, shape S + (n,).
    """
    vv, vp, vpp = np.broadcast_arrays(vv, vp, vpp)
    if not np.all(vv > 0):
        raise PositivityError(f"profile value {np.min(vv):.6g} is not positive")
    conf = vv ** (-4.0 / (n - 2))
    lam_t = conf * (
        -2.0 / (n - 2) * vpp / vv
        + 2.0 * (n - 1) / (n - 2) ** 2 * (vp / vv) ** 2
        - 0.5
    )
    lam_s = conf * (-2.0 / (n - 2) ** 2 * (vp / vv) ** 2 + 0.5)
    out = np.repeat(lam_s[..., None], n, axis=-1)
    out[..., 0] = lam_t
    return out


def eigen_partials(u, up, upp, n):
    """Partial derivatives of (lambda_t, lambda_s) in (v, v', v''), as
    (dt_dv, dt_dvp, dt_dvpp, ds_dv, ds_dvp)."""
    e4 = 4.0 / (n - 2.0)
    c = 2.0 / (n - 2.0)
    w = u ** (-e4)
    T = -c * upp / u + c * (n - 1.0) / (n - 2.0) * (up / u) ** 2 - 0.5
    S = -c / (n - 2.0) * (up / u) ** 2 + 0.5
    dt_dvpp = -c * w / u
    dt_dvp = w * (2.0 * c * (n - 1.0) / (n - 2.0)) * up / u**2
    dt_dv = -e4 * w / u * T + w * (
        c * upp / u**2 - 2.0 * c * (n - 1.0) / (n - 2.0) * up**2 / u**3
    )
    ds_dvp = -w * (2.0 * c / (n - 2.0)) * up / u**2
    ds_dv = -e4 * w / u * S + w * (2.0 * c / (n - 2.0)) * up**2 / u**3
    return dt_dv, dt_dvp, dt_dvpp, ds_dv, ds_dvp


def residual_loop(op, g):
    """Per-node op.f(lam) - 1; the off-cone nodes, in order, as ConeError
    witnesses (node index, eigenvalue row)."""
    lam = product_eigenvalues(g.values, *g.derivatives(), op.n)
    res = np.empty(g.N)
    bad = []
    for i in range(g.N):
        try:
            res[i] = op.f(lam[i]) - 1.0
        except ConeError:
            bad.append(i)
    if bad:
        raise ConeError(
            f"eigenvalues leave the cone at nodes {bad}",
            witness=[(i, lam[i].tolist()) for i in bad],
        )
    return res


def jacobian_coefficients_loop(op, g):
    """(diag_v, diag_vp, diag_vpp) from per-node op.grad_f, and for each the
    per-node sum of its terms' magnitudes, the scale of its rounding error
    (diag_vp cancels to zero wherever the gradient is a multiple of e)."""
    dt_dv, dt_dvp, dt_dvpp, ds_dv, ds_dvp = eigen_partials(g.values, *g.derivatives(), op.n)
    lam = product_eigenvalues(g.values, *g.derivatives(), op.n)
    gt = np.empty(g.N)
    Gs = np.empty(g.N)
    for i in range(g.N):
        grad = np.asarray(op.grad_f(lam[i]), dtype=float)
        gt[i] = grad[0]
        Gs[i] = float(grad[1:].sum())
    coeffs = (gt * dt_dv + Gs * ds_dv, gt * dt_dvp + Gs * ds_dvp, gt * dt_dvpp)
    scales = (
        np.abs(gt * dt_dv) + np.abs(Gs * ds_dv),
        np.abs(gt * dt_dvp) + np.abs(Gs * ds_dvp),
        np.abs(gt * dt_dvpp),
    )
    return coeffs, scales


def min_cone_margin_loop(op, g):
    lam = product_eigenvalues(g.values, *g.derivatives(), op.n)
    return min(float(cone_margin(op.cone, lam[i])) for i in range(g.N))


def continuation_previous_start(op, L, N, t_steps=11, tol=1e-10, scheme="spectral"):
    """yamabe.continuation with each stage's Newton solve started from the
    previous stage's solution (the constant c0 at t = 0): the start it took
    before its predictor, and the degree-0 case of yamabe.predicted_start.
    Takes valid arguments only."""
    c0 = yamabe.constant_start(op)
    grid = yamabe.PeriodicGrid(L=L, values=np.full(N, c0), scheme=scheme)
    t_values = [i / (t_steps - 1) for i in range(t_steps)]
    result = yamabe.ContinuationResult(status="ok", c0=c0, t_values=t_values)
    for t in t_values:
        recs = []
        try:
            grid = yamabe.newton_solve(op, grid, tol=tol, t=t, records=recs)
        except (ConvergenceError, ConeError) as exc:
            result.records.extend(recs)
            result.status = f"failed_at_t={t:g}"
            result.failure = str(exc)
            if isinstance(getattr(exc, "iterate", None), yamabe.PeriodicGrid):
                result.final = exc.iterate
            return result
        result.records.extend(recs)
        last = recs[-1]
        result.steps.append(yamabe.StepSummary(
            t=t,
            iterations=last.iter,
            residual_inf=last.residual_inf,
            min_cone_margin=last.min_cone_margin,
            krylov_iters=sum(rec.krylov_iters for rec in recs),
            symbol_ratio=last.symbol_ratio,
            negative_modes=last.negative_modes,
        ))
    result.final = grid
    return result


def msi_terms_one(u, x, lam, points, guard=DEFAULT_GUARD):
    """u_{x,lam}(y) and u(y) at the points y that one radius keeps, with the
    offsets, distances and u(y) recomputed on every call and the mapped n-D
    points formed: msi_violation_one's terms, with its refusals."""
    if not lam > 0:
        raise DomainError(f"inversion radius lam = {lam:g} must be positive")
    x = np.asarray(x, dtype=float)
    if u.domain is not None and not float(np.linalg.norm(x)) + lam <= u.domain.outer:
        raise GeometryError(
            f"inversion ball of radius {lam:g} at {x.tolist()} leaves the domain"
        )
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    D = pts - x
    d2 = np.einsum("ij,ij->i", D, D)
    keep = np.sqrt(d2) >= lam * (1.0 + guard)
    if not np.any(keep):
        raise DomainError("no check points outside the guarded sphere")
    pts, D, d2 = pts[keep], D[keep], d2[keep]
    if np.any(d2 <= POLE_GUARD_ANALYTIC**2):
        raise SingularityError("u_{x,lam} evaluated at its pole y = x")
    return sphere_inversion_at_offsets(u, x, lam, D.T, d2), u.values(pts)


def msi_violation_one(u, x, lam, points, guard=DEFAULT_GUARD):
    """The moving-sphere violation at one radius through the n-D inversion:
    the reference for moving_sphere.msi_violation, which runs on the field's
    radial profiles."""
    inverted, direct = msi_terms_one(u, x, lam, points, guard)
    return float(np.max(inverted - direct))


def msi_violation_loop(u, x, lam, points, guard=DEFAULT_GUARD):
    """msi_violation_one at a scalar lam, or one call per radius of a 1-D lam."""
    if np.ndim(lam) == 0:
        return msi_violation_one(u, x, float(lam), points, guard)
    return np.array([msi_violation_one(u, x, float(r), points, guard) for r in lam])


def critical_radius_loop(u, x, cfg):
    """The critical-radius scan and bisection with one msi_violation_one
    call per radius: the reference for moving_sphere.critical_radius."""
    guard = cfg.grid_guard()
    grid = cfg.lambda_grid()

    def violated(lam):
        return msi_violation_one(u, x, lam, cfg.check_points, guard) > VIOLATION_TOL

    if violated(grid[0]):
        return CriticalRadius(lambda_bar=float(grid[0]), flag="fails_at_min")
    lo = grid[0]
    hi = None
    for lam in grid[1:]:
        if violated(lam):
            hi = lam
            break
        lo = lam
    if hi is None:
        return CriticalRadius(lambda_bar=float(grid[-1]), flag="unbounded")
    for _ in range(BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        if violated(mid):
            hi = mid
        else:
            lo = mid
    return CriticalRadius(lambda_bar=0.5 * (lo + hi))


def h_lemma_check_cube(h, h_prime, alpha, a, sample_density=64):
    """The interval-lemma check over the density^3 cube with the unfactored
    kernel (lam/|s-tau|)^alpha and h(s) evaluated at every cell: the
    reference for the factored moving_sphere.h_lemma_check. The cube is
    walked one tau row at a time; every step is elementwise, so each cell
    keeps the bits a single d^3 array gives, and the temporaries stay small."""
    if not a > 0:
        raise DomainError("interval half-width a must be positive")
    if alpha < 0:
        raise DomainError("decay exponent alpha must be nonnegative")
    d = int(sample_density)
    if d < 8:
        raise DomainError("sample_density must be at least 8")

    tau = np.linspace(-2.0 * a, 2.0 * a, d)[:, None, None]
    s = np.linspace(-4.0 * a, 4.0 * a, d)[None, :, None]
    lam = np.linspace(a / d, a, d)[None, None, :]

    row_worst = []
    for row in tau:
        diff = s - row
        dist = np.abs(diff)
        mask = lam < dist
        safe = np.where(mask, dist, 1.0)
        mapped = row + lam**2 * diff / safe**2
        lhs = (lam / safe) ** alpha * h(mapped)
        rhs = h(np.broadcast_to(s, lhs.shape))
        row_worst.append(np.max(np.where(mask, lhs - rhs, -np.inf)))
    hyp_worst = float(np.max(row_worst))
    scale = float(np.max(np.abs(h(np.linspace(-4.0 * a, 4.0 * a, d)))))
    hyp_pass = hyp_worst <= HYPOTHESIS_TOL * max(1.0, scale)

    sc = np.linspace(-a, a, d)
    concl_gap = np.abs(h_prime(sc)) - (alpha / (2.0 * a)) * h(sc)
    concl_worst = float(np.max(concl_gap))
    return HLemmaReport(
        hypothesis_pass=hyp_pass,
        hypothesis_worst=hyp_worst,
        conclusion_pass=concl_worst <= CONCLUSION_TOL,
        conclusion_worst=concl_worst,
        alpha=alpha,
        a=a,
    )


def h_lemma_check_slabs(h, h_prime, alpha, a, sample_density=64):
    """The interval-lemma check walked one (s, lam) slab per tau, with h
    evaluated at every cell of the slab and the dropped ones masked to -inf:
    the bit-exact reference for the radius-major walk of
    moving_sphere.h_lemma_check, which evaluates only the kept cells."""
    if not a > 0:
        raise DomainError("interval half-width a must be positive")
    if alpha < 0:
        raise DomainError("decay exponent alpha must be nonnegative")
    d = int(sample_density)
    if d < 8:
        raise DomainError("sample_density must be at least 8")

    taus = np.linspace(-2.0 * a, 2.0 * a, d)
    s = np.linspace(-4.0 * a, 4.0 * a, d)[:, None]
    lam = np.linspace(a / d, a, d)[None, :]
    lam_sq = lam * lam
    lam_alpha = lam**alpha
    rhs = h(s)
    slab_worst = np.empty(d)
    with np.errstate(all="ignore"):
        for i, tau in enumerate(taus):
            diff = s - tau
            dist = np.abs(diff)
            lhs = h(tau + lam_sq * (1.0 / diff)) * (lam_alpha * dist**-alpha)
            slab_worst[i] = np.max(np.where(lam < dist, lhs - rhs, -np.inf))
    hyp_worst = float(np.max(slab_worst))
    scale = float(np.max(np.abs(rhs)))
    hyp_pass = hyp_worst <= HYPOTHESIS_TOL * max(1.0, scale)

    sc = np.linspace(-a, a, d)
    concl_gap = np.abs(h_prime(sc)) - (alpha / (2.0 * a)) * h(sc)
    concl_worst = float(np.max(concl_gap))
    return HLemmaReport(
        hypothesis_pass=hyp_pass,
        hypothesis_worst=hyp_worst,
        conclusion_pass=concl_worst <= CONCLUSION_TOL,
        conclusion_worst=concl_worst,
        alpha=alpha,
        a=a,
    )


def bubble_deviation_full(profile, params):
    """sup over grid nodes of |v(r_i) - bubble(r_i)| in one pass over a
    (nodes, n) point array: the reference for the slabbed
    radial.bubble_deviation."""
    if params.n != profile.n:
        raise DomainError("dimension mismatch between profile and bubble")
    r = profile.r
    denom = 1.0 + params.beta * r * r
    near_pole = denom <= 0.1
    if np.any(near_pole):
        i = int(np.argmax(near_pole))
        raise DomainError(
            f"bubble denominator {denom[i]:.3g} too close to its pole at r={r[i]:g}"
        )
    x = np.zeros((len(r), profile.n))
    x[:, 0] = r
    return float(np.max(np.abs(profile.v - bubble_values(params, x)), initial=0.0))


def solve_unit_level_scalar(fn, lam, tol=1e-12):
    """Unique s > 0 with fn(s*lam) = 1 for one vector lam, one scalar fn call
    at a time: the reference for the row-batched cones.solve_unit_level."""
    arr = np.asarray(lam, dtype=float)

    def g(s):
        return float(fn(s * arr)) - 1.0

    s = 1.0
    gs = g(s)
    if gs == 0.0:
        return s
    if gs > 0.0:
        hi, ghi = s, gs
        lo = s
        while True:
            lo *= 0.5
            if lo < S_MIN:
                raise ConvergenceError(
                    "no root of f(s*lambda)=1 with s in [1e-9, 1e9] (lower side)"
                )
            glo = g(lo)
            if glo < 0.0:
                break
            hi, ghi = lo, glo
    else:
        lo, glo = s, gs
        hi = s
        while True:
            hi *= 2.0
            if hi > S_MAX:
                raise ConvergenceError(
                    "no root of f(s*lambda)=1 with s in [1e-9, 1e9] (upper side)"
                )
            ghi = g(hi)
            if ghi > 0.0:
                break
            lo, glo = hi, ghi

    for _ in range(RAY_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        gm = g(mid)
        if gm > 0.0:
            hi = mid
        elif gm < 0.0:
            lo = mid
        else:
            return mid

    s = 0.5 * (lo + hi)
    if abs(g(s)) > tol:
        raise ConvergenceError(f"ray solve stalled at |f-1| = {abs(g(s)):.3g}")
    return s


def homogenize_handler_loop(args):
    """The homogenize command solving one ray per call of
    solve_unit_level_scalar: the reference for the batched cli handler."""
    k = int(args.op[len("sigma"):])
    n = args.n
    op = make_sigma_k_operator(n, k)

    def deg1(lam):
        return 1.0 / solve_unit_level_scalar(op.f, lam)

    lams = sample_cone_directions(make_rng(args.seed), n, args.samples)
    vals = [deg1(lam) for lam in lams]
    gap = 0.0
    for lam, val in zip(lams, vals):
        gap = max(gap, abs(val - sigma_all(lam)[k - 1] ** (1.0 / k)))
    deg_gap = 0.0
    for lam, base in zip(lams[:100], vals):
        for s in (0.5, 2.0, 7.3):
            deg_gap = max(deg_gap, abs(deg1(s * lam) - s * base) / (s * base))
    conc_worst = -math.inf
    pairs = min(args.triples, len(lams) - 1)
    for i in range(pairs):
        mid = deg1(0.5 * (lams[i] + lams[i + 1]))
        conc_worst = max(conc_worst, 0.5 * (vals[i] + vals[i + 1]) - mid)
    checks = {
        "closed_form_gap": Check(gap <= 1e-10, len(lams), {"value": gap, "tol": 1e-10}),
        "degree_one": Check(deg_gap <= 1e-9, 3 * len(lams[:100]), {"value": deg_gap, "tol": 1e-9}),
        "midpoint_concavity": Check(
            conc_worst <= 1e-9, pairs, {"worst": conc_worst, "pairs": pairs}
        ),
    }
    result = {"operator": op.name, "n": n, "k": k, "samples": args.samples,
              "checks": checks}
    return result, checks, {}


def boundary_point_loop(op, rng, lam):
    """Walk from interior lam along a random direction to the cone boundary.

    Returns the last strictly-inside iterate of the bisection, or None when no
    exit was found.
    """
    cone = op.cone
    base = np.asarray(lam, dtype=float)
    scale = float(np.linalg.norm(base))
    for _ in range(8):
        v = rng.normal(size=base.size)
        v /= np.linalg.norm(v)
        for direction in (v, -v):
            tau_out = None
            tau = scale
            for _ in range(12):
                if not cone.contains(base + tau * direction):
                    tau_out = tau
                    break
                tau *= 2.0
            if tau_out is None:
                continue
            lo, hi = 0.0, tau_out
            for _ in range(RAY_BISECT_ITERS):
                mid = 0.5 * (lo + hi)
                if cone.contains(base + mid * direction):
                    lo = mid
                else:
                    hi = mid
            return base + lo * direction
    return None


def validate_operator_loop(op, sample_count=500, seed=0):
    """cones.validate_operator one sample, and one one-vector call of op.f,
    op.grad_f or op.cone.contains, at a time: the reference for the checks
    on rows. A sample where op.f or op.grad_f raises ConeError or
    ConvergenceError is not evaluated, as there. Unlike them it passes a
    check with no sample evaluated: its
    evidence counts the samples a check visits, where theirs counts the ones
    it evaluates (midpoint concavity counts its evaluated pairs in both)."""

    def check(ok, evidence, worst, witness):
        return Check(ok, evidence, {"worst_violation": worst, "witness": witness})

    rng = np.random.Generator(np.random.PCG64(seed))
    n = op.cone.n
    samples = sample_cone_directions(rng, n, sample_count)
    checks = {}

    # permutation symmetry
    worst, witness = 0.0, []
    for lam in samples:
        perm = rng.permutation(n)
        try:
            d = abs(op.f(lam) - op.f(lam[perm]))
        except (ConeError, ConvergenceError):
            continue
        if d > worst:
            worst, witness = d, list(lam)
    checks["permutation_symmetry"] = check(worst <= 1e-12, len(samples), worst, witness)

    # gradient positivity (hypothesis: components of grad f positive on the cone)
    worst, witness = -math.inf, []
    for lam in samples:
        try:
            g = np.asarray(op.grad_f(lam), dtype=float)
        except (ConeError, ConvergenceError):
            continue
        v = float(-g.min())
        if v > worst:
            worst, witness = v, list(lam)
    checks["gradient_positivity"] = check(worst < 0.0, len(samples), worst, witness)

    # midpoint concavity
    worst, witness, pairs = 0.0, [], 0
    for i in range(0, len(samples) - 1, 2):
        lam, mu = samples[i], samples[i + 1]
        try:
            fl, fm = op.f(lam), op.f(mu)
            fmid = op.f(0.5 * (lam + mu))
        except (ConeError, ConvergenceError):
            continue
        pairs += 1
        unit = max(1.0, abs(fl), abs(fm))
        v = (0.5 * (fl + fm) - fmid) / unit
        if v > worst:
            worst, witness = v, list(lam) + list(mu)
    # no pair evaluated is no evidence
    checks["midpoint_concavity"] = check(worst <= 1e-9, pairs, worst, witness)

    # ray growth: f(s*lam) increasing over a log grid (finite test of
    # unbounded growth along rays)
    worst, witness = 0.0, []
    s_grid = np.exp(np.linspace(math.log(1e-2), math.log(1e2), 17))
    head = samples[: min(64, len(samples))]
    for lam in head:
        try:
            vals = [op.f(s * lam) for s in s_grid]
        except (ConeError, ConvergenceError):
            continue
        v = max(
            (vals[j] - vals[j + 1]) for j in range(len(vals) - 1)
        )
        if v > worst:
            worst, witness = v, list(lam)
    checks["ray_growth"] = check(worst <= 0.0, len(head), worst, witness)

    # cone nesting, positive orthant side: every positive vector is a member
    worst, witness = 0.0, []
    for lam in samples:
        if not op.cone.contains(lam):
            worst, witness = 1.0, list(lam)
            break
    checks["cone_contains_positive_orthant"] = check(worst == 0.0, len(samples), worst, witness)

    # cone nesting, Gamma_1 side: members have positive entry sum
    worst, witness = -math.inf, []
    members = []
    for lam in samples[: min(200, len(samples))]:
        members.append(lam)
        jitter = lam + rng.normal(0.0, 0.4 * np.linalg.norm(lam) / math.sqrt(n), size=n)
        if op.cone.contains(jitter):
            members.append(jitter)
    for lam in members:
        v = float(-np.sum(lam))
        if v > worst:
            worst, witness = v, list(lam)
    checks["cone_inside_gamma1"] = check(worst < 0.0, len(members), worst, witness)

    # boundary vanishing: f decays like eps^e, e >= 1/(2n), along segments
    # approaching sampled boundary points (unit scale); e is the
    # least-squares slope of log f against log eps
    worst, witness = math.inf, []
    n_boundary = max(4, min(20, sample_count // 10))
    eps_grid = [10.0 ** (-j) for j in range(6, 13)]
    log_eps = np.log(eps_grid) - np.mean(np.log(eps_grid))
    weights = log_eps / np.sum(log_eps * log_eps)
    head = samples[:n_boundary]
    for lam in head:
        lam = lam / np.linalg.norm(lam)
        bpt = boundary_point_loop(op, rng, lam)
        if bpt is None:
            continue
        norm = np.linalg.norm(bpt)
        if norm > 0:
            bpt, lam_in = bpt / norm, lam / norm
        else:
            lam_in = lam
        try:
            seq = [op.f(bpt + e * (lam_in - bpt)) for e in eps_grid]
        except (ConeError, ConvergenceError):
            seq = [math.nan]
        # an off-cone segment point, or an f that is not positive and finite,
        # fails the check at that boundary point
        rate = -math.inf
        if all(0.0 < v < math.inf for v in seq):
            rate = float((np.log(seq) * weights).sum())
        if rate < worst:
            worst, witness = rate, list(bpt)
    checks["boundary_vanishing"] = Check(worst >= 1.0 / (2 * n), len(head),
                                         {"worst_exponent": worst, "witness": witness})

    # tagged homogeneity
    if op.homogeneous_degree is not None:
        d = op.homogeneous_degree
        worst, witness = 0.0, []
        head = samples[: min(100, len(samples))]
        for lam in head:
            try:
                f1 = op.f(lam)
                for s in (0.5, 2.0, 7.3):
                    v = abs(op.f(s * lam) - s**d * f1) / max(1e-30, abs(s**d * f1))
                    if v > worst:
                        worst, witness = v, list(lam)
            except (ConeError, ConvergenceError):
                continue
        checks["degree_homogeneity"] = check(worst <= 1e-9, len(head), worst, witness)

    return checks


def h_catalog_by_kind(rng, count):
    """The lemmas catalog of 1-D test functions (value, derivative, alpha, a)
    with one closure pair per kind: an oracle for cli._h_catalog.

    Mix of decaying bubble traces (pass), constants (pass), off-center or
    tight bubbles (may fail the hypothesis), and exponentials (fail both).
    """
    out = []
    for i in range(count):
        kind = i % 5
        if kind == 0:
            alpha = 1.0 + float(rng.integers(1, 4))
            a = 0.25 + 0.5 * float(rng.random())

            def h(s, alpha=alpha):
                return (1.0 + s * s) ** (-0.5 * alpha)

            def hp(s, alpha=alpha):
                return -alpha * s * (1.0 + s * s) ** (-0.5 * alpha - 1.0)

        elif kind == 1:
            alpha = float(rng.integers(0, 3))
            a = 0.5 + float(rng.random())
            c = 0.5 + 2.0 * float(rng.random())

            def h(s, c=c):
                return c + 0.0 * np.asarray(s)

            def hp(s):
                return 0.0 * np.asarray(s)

        elif kind == 2:
            alpha = 1.0 + float(rng.integers(1, 4))
            beta = 2.0 + 6.0 * float(rng.random())
            a = 0.6 + 0.6 * float(rng.random())  # beta too tight for this a

            def h(s, alpha=alpha, beta=beta):
                return (1.0 + beta * s * s) ** (-0.5 * alpha)

            def hp(s, alpha=alpha, beta=beta):
                return -alpha * beta * s * (1.0 + beta * s * s) ** (
                    -0.5 * alpha - 1.0
                )

        elif kind == 3:
            alpha = 1.0 + 2.0 * float(rng.random())
            a = 0.4 + 0.4 * float(rng.random())
            m = -0.5 + float(rng.random())  # off-center trace

            def h(s, alpha=alpha, m=m):
                return (1.0 + (s - m) ** 2) ** (-0.5 * alpha)

            def hp(s, alpha=alpha, m=m):
                return -alpha * (s - m) * (1.0 + (s - m) ** 2) ** (
                    -0.5 * alpha - 1.0
                )

        else:
            gamma = 2.0 + 8.0 * float(rng.random())
            alpha = 1.0 + float(rng.integers(1, 3))
            a = 0.5 + 0.5 * float(rng.random())

            def h(s, gamma=gamma):
                return np.exp(gamma * np.asarray(s, dtype=float))

            def hp(s, gamma=gamma):
                return gamma * np.exp(gamma * np.asarray(s, dtype=float))

        out.append((h, hp, alpha, a))
    return out


def _sigma_minor(lam, e, j: int, i: int) -> float:
    """sigma_j of lam with entry i removed, from the full sigmas e."""
    # s_m(lam minus i) satisfies s_m = e_m - lam_i * s_{m-1}
    s = 1.0
    for m in range(1, j + 1):
        s = e[m - 1] - lam[i] * s
    return s


def sigma_k_grad_one(k, lam):
    """Gradient of sigma_k^{1/k} at one vector on Python floats: the
    _sigma_minor recurrence on sigma_all, libm pow for the front factor; an
    oracle for the row kernel of make_sigma_k_operator's grad_f."""
    n = len(lam)
    inv_k = 1.0 / k
    vals = [float(x) for x in lam]
    e = sigma_all(vals)
    gamma_k_check(k, e, vals)
    front = inv_k * e[k - 1] ** (inv_k - 1.0)
    return np.array(
        [front * _sigma_minor(vals, e, k - 1, i) for i in range(n)]
    )


def build_parser_all() -> argparse.ArgumentParser:
    """The parser of every subcommand as one hand-written function; an
    oracle for the help and error output of cli.main."""
    parser = argparse.ArgumentParser(
        prog="conforma",
        description="Desk-scale checks for conformally invariant curvature equations.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output-dir", default=".", help="artifact directory")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=("json", "csv", "both"), default="json")

    p = sub.add_parser("validate-operator", help="structural checks on (f, cone)")
    common(p)
    p.add_argument("--n", type=cli._count(cli.MAX_DIMENSION), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--samples", type=cli._count(cli.MAX_SAMPLES), default=500)
    p.set_defaults(handler=cli._cmd_validate_operator)

    p = sub.add_parser("verify-liouville", help="bubble residuals for the rigidity families")
    common(p)
    p.add_argument("--family", choices=("fullspace", "halfspace", "ball"),
                   default="fullspace")
    p.add_argument("--n", type=cli._count(cli.MAX_DIMENSION), required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--xn", type=float, default=0.7)
    p.add_argument("--samples", type=cli._count(cli.MAX_SAMPLES), default=100)
    p.set_defaults(handler=cli._cmd_verify_liouville)

    p = sub.add_parser("radial-shoot", help="integrate the radial profile, compare to the bubble")
    common(p)
    p.add_argument("--n", type=cli._count(cli.MAX_DIMENSION), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--v0", type=float, default=1.0)
    p.add_argument("--h", type=float, default=1e-4)
    p.add_argument("--r-max", type=float, default=0.9)
    p.add_argument("--sup-tol", type=float, default=cli.SUP_TOL_RADIAL)
    p.set_defaults(handler=cli._cmd_radial_shoot)

    p = sub.add_parser("moving-sphere", help="critical-radius sweeps or interval-lemma suite")
    common(p)
    p.add_argument("--task", choices=("sweep", "lemmas"), default="sweep")
    p.add_argument("--n", type=cli._count(cli.MAX_DIMENSION), default=3)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--domain-radius", type=float, default=8.0)
    p.add_argument("--lambda-min", type=float, default=0.04)
    p.add_argument("--lambda-max", type=float, default=4.0)
    p.add_argument("--lambda-steps", type=int, default=256)
    p.add_argument("--check-count", type=cli._count(cli.MAX_CHECK_COUNT), default=4096)
    p.add_argument("--center-count", type=cli._count(cli.MAX_CENTER_COUNT, 2), default=9)
    p.add_argument("--center-radius", type=float, default=0.3)
    p.add_argument("--emit-sweep-csv", action="store_true")
    p.add_argument("--h-count", type=cli._count(cli.MAX_H_COUNT), default=50, help="lemmas task: catalog size")
    p.add_argument("--density", type=int, default=64, help="lemmas task: grid density")
    p.set_defaults(handler=cli._cmd_moving_sphere)

    p = sub.add_parser("harnack", help="sup-inf product against the explicit constant")
    common(p)
    p.add_argument("--n", type=cli._count(cli.MAX_DIMENSION), default=3)
    p.add_argument("--R", type=float, default=1.0)
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--samples", type=cli._count(cli.MAX_SAMPLES), default=4096)
    p.set_defaults(handler=cli._cmd_harnack)

    p = sub.add_parser("homogenize", help="degree-1 normalization checks")
    common(p)
    p.add_argument("--op", default="sigma2", help="sigmaK, e.g. sigma2")
    p.add_argument("--n", type=cli._count(cli.MAX_DIMENSION), default=3)
    p.add_argument("--samples", type=cli._count(cli.MAX_SAMPLES), default=100)
    p.add_argument("--triples", type=cli._count(), default=500)
    p.set_defaults(handler=cli._cmd_homogenize)

    p = sub.add_parser("solve-yamabe", help="homotopy continuation on the product manifold")
    common(p)
    p.add_argument("--n", type=cli._count(cli.MAX_DIMENSION), default=5)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--L", type=float, default=1.0)
    p.add_argument("--N", type=cli._count(), default=64)
    p.add_argument("--t-steps", type=int, default=11)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--scheme", choices=("spectral", "fd4"), default="spectral")
    p.set_defaults(handler=cli._cmd_solve_yamabe)

    p = sub.add_parser("conjugation-test", help="eigenvalue conjugation under a Mobius word")
    common(p)
    p.add_argument("--n", type=cli._count(cli.MAX_DIMENSION), default=3)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--word", default="translate:0.3,-0.1,0.2;scale:1.7;invert")
    p.add_argument("--mode", choices=("analytic", "fd"), default="analytic")
    p.add_argument("--h", type=float, default=1e-3)
    p.add_argument("--samples", type=cli._count(cli.MAX_SAMPLES), default=20)
    p.set_defaults(handler=cli._cmd_conjugation_test)

    return parser


def load_workloads():
    """bench/workloads.py, the benchmark's workload definitions, as a module."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclass looks itself up there
    spec.loader.exec_module(workloads)
    return workloads


def pass_argvs(workload):
    """The distinct argvs of a workload's seed-0 pass, in definition order."""
    items = load_workloads().build(workload, 0)
    return list(dict(sorted((it.key, it.argv) for it in items)).values())
