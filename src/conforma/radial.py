"""Radial shooting for fully nonlinear conformal curvature profiles.

A radial positive factor v(r) on flat space has conformal Schouten
eigenvalues, at r > 0,

    lam_rad  = -(2/(n-2)) v^{-(n+2)/(n-2)} v''
               + (2(n-1)/(n-2)^2) v^{-2n/(n-2)} (v')^2,
    lam_tang = -(2/(n-2)) v^{-(n+2)/(n-2)} (v'/r)
               - (2/(n-2)^2) v^{-2n/(n-2)} (v')^2        (multiplicity n-1),

with common limit -(2/(n-2)) v^{-(n+2)/(n-2)} v''(0) at the center. Shooting
integrates v'' defined implicitly by f(lam) = 1: at fixed (v, v', r) the map
w -> f(lam(v, v', w, r)) is strictly decreasing on its admissible interval,
so the equation pins a unique vertical slope whenever the data stay inside
the cone.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .bubbles import BubbleParams, bubble_values
from .cones import CurvatureOperator, gamma_k_check, mu_star, sigma_k_order, sigma_rows
from .errors import ConeError, DomainError, PositivityError

# Most RK4 steps one shot may take (r_max / h). A step (four slope calls)
# costs about 7 microseconds on a 2-vCPU Xeon VM, so the cap bounds one shot
# at about 70 seconds.
MAX_STEPS = 10**7
# Nodes per array pass of profile_max_unit_residual and bubble_deviation
# (about 1 MiB of rows).
RESIDUAL_SLAB = 1 << 14


def _coefficients(n: int) -> tuple:
    """(e1, e2, c, c_rad, c_tang) of the eigenvalues at r > 0:
    lam_rad = -c v^e1 v'' + c_rad v^e2 v'^2 and
    lam_tang = -c v^e1 v'/r - c_tang v^e2 v'^2."""
    c = 2.0 / (n - 2.0)
    return (
        -(n + 2.0) / (n - 2.0),
        -2.0 * n / (n - 2.0),
        c,
        c * (n - 1.0) / (n - 2.0),
        c / (n - 2.0),
    )


def _check_nodes(v, vp, vpp, r) -> None:
    """Raise for the first node radial_eigenvalues refuses: a negative
    radius, center data with v'(0) != 0, or a value v that is not positive."""
    negative = r < 0
    center = (r == 0.0) & (np.abs(vp) > 1e-12 * np.maximum(1.0, np.abs(vpp)))
    faults = np.flatnonzero(negative | center | ~(v > 0.0))
    if faults.size:
        i = faults[0]
        if negative[i]:
            raise DomainError(f"radius r = {r[i]:g} is negative")
        if center[i]:
            raise DomainError(f"center data inconsistent: v'(0) = {vp[i]:.6g} must vanish")
        raise PositivityError(f"profile value v = {v[i]:.6g} is not positive")


def _eigenvalue_rows(v, vp, vpp, r, n: int) -> np.ndarray:
    """(nodes, n) eigenvalue rows (lam_rad, lam_tang x (n-1)); the center
    formula where r = 0; unchecked (nan or inf at refused nodes)."""
    e1, e2, c, c_rad, c_tang = _coefficients(n)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c1 = c * v**e1
        q2 = v**e2
        vp2 = vp * vp
        lam0 = -c1 * vpp
        rad = lam0 + c_rad * q2 * vp2
        tang = -c1 * (vp / r) - c_tang * q2 * vp2
    center = r == 0.0
    lam = np.empty((len(r), n))
    lam[:, 0] = np.where(center, lam0, rad)
    lam[:, 1:] = np.where(center, lam0, tang)[:, None]
    return lam


def radial_eigenvalues(v: float, vp: float, vpp: float, r: float, n: int) -> np.ndarray:
    """Conformal eigenvalues of a radial factor at radius r (r = 0 allowed)."""
    if n < 3:
        raise DomainError("radial eigenvalues need n >= 3")
    node = np.array([[v], [vp], [vpp], [r]], dtype=float)
    _check_nodes(*node)
    return _eigenvalue_rows(*node, n)[0]


def vpp0_exact(op: CurvatureOperator, v0: float) -> float:
    """Center curvature of the f = 1 profile: v''(0) matching mu*."""
    if not v0 > 0:
        raise PositivityError(f"center value v0 = {v0:.6g} is not positive")
    n = op.n
    return -0.5 * (n - 2.0) * v0 ** ((n + 2.0) / (n - 2.0)) * mu_star(op)


def matched_beta(op: CurvatureOperator, a: float) -> float:
    """beta = mu* a^2 / 2: the bubble of scale a with f(lam) = 1."""
    return 0.5 * mu_star(op) * a * a


def matched_bubble(op: CurvatureOperator, v0: float) -> BubbleParams:
    """The standard bubble with the same center data as the f = 1 profile."""
    if not v0 > 0:
        raise PositivityError(f"center value v0 = {v0:.6g} is not positive")
    n = op.n
    a = v0 ** (2.0 / (n - 2.0))
    return BubbleParams(n=n, a=a, beta=matched_beta(op, a))


def slope_kernel(op: CurvatureOperator):
    """The map (v, v', r) -> v'' solving f(lam(v, v', v'', r)) = 1, for one
    sigma_k operator; every constant is computed once, here.

    The spectrum is (a, b x m) with a = lam_rad affine in v'', b = lam_tang
    free of it and m = n - 1. For f = sigma_k^{1/k} the equation reads
    C(m,k) b^k + a C(m,k-1) b^(k-1) = 1, so a is one division away. The
    divisor is sigma_{k-1} of the spectrum with a removed, positive on
    Gamma_k: the data admit a slope exactly when the divisor is positive and
    sigma_j(a, b^m) = C(m,j) b^j + a C(m,j-1) b^(j-1) > 0 for every j < k.
    Off the cone the slope raises ConeError, at v <= 0 PositivityError and
    at r <= 0 DomainError (use vpp0_exact at the center). The float
    operations and their order are fixed: tests/helpers.py keeps a form that
    recomputes every constant per call, and the slopes agree bit for bit.
    """
    k = sigma_k_order(op, "closed-form slope")
    n = op.n
    m = n - 1
    e1, e2, c, c_rad, c_tang = _coefficients(n)
    comb_k = float(math.comb(m, k))
    comb_k1 = float(math.comb(m, k - 1))
    # sigma_j stays inline, not cones.two_cluster_sigmas: checking through it
    # made h = 1e-4 shots 2-3x slower (98-156 ms against 38-69 ms, alternated)
    lower = [(float(math.comb(m, j)), j, float(math.comb(m, j - 1))) for j in range(1, k)]

    def slope(v: float, vp: float, r: float) -> float:
        if not r > 0:
            raise DomainError("implicit slope needs r > 0 (use vpp0_exact at 0)")
        if not v > 0.0:
            raise PositivityError(f"profile value v = {v:.6g} is not positive")
        c1 = c * v**e1
        q2 = v**e2
        vp2 = vp * vp
        b = -c1 * (vp / r) - c_tang * q2 * vp2
        div = comb_k1 * b ** (k - 1)
        if div > 0.0:
            a = (1.0 - comb_k * b**k) / div
            for comb_j, j, comb_j1 in lower:
                if not comb_j * b**j + a * comb_j1 * b ** (j - 1) > 0.0:
                    break
            else:
                return (c_rad * q2 * vp2 - a) / c1
        raise ConeError(
            "no admissible vertical slope: data off the cone "
            f"(v={v:.6g}, v'={vp:.6g}, r={r:.6g})"
        )

    return slope


@dataclass
class RadialProfile:
    """Shooting result on the uniform grid r_i = i h."""

    r: np.ndarray
    v: np.ndarray
    vp: np.ndarray
    vpp: np.ndarray
    n: int
    operator: str
    v0: float
    h: float
    status: str = "ok"

    def to_json_dict(self):
        return {
            "n": self.n,
            "operator": self.operator,
            "v0": self.v0,
            "h": self.h,
            "status": self.status,
            "nodes": len(self.r),
            "r_last": float(self.r[-1]),
        }


def _rk4_step(slope, r, v, vp, w_node, h):
    """One RK4 step of (v, v')' = (v', slope(v, v', r)); w_node is the slope
    at the left node, reused as the k1 stage."""
    k1v, k1w = vp, w_node
    k2v = vp + 0.5 * h * k1w
    k2w = slope(v + 0.5 * h * k1v, k2v, r + 0.5 * h)
    k3v = vp + 0.5 * h * k2w
    k3w = slope(v + 0.5 * h * k2v, k3v, r + 0.5 * h)
    k4v = vp + h * k3w
    k4w = slope(v + h * k3v, k4v, r + h)
    v_next = v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    vp_next = vp + (h / 6.0) * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
    return v_next, vp_next


def shoot(
    op: CurvatureOperator,
    v0: float,
    h: float = 1e-4,
    r_max: float = 0.9,
) -> RadialProfile:
    """Integrate the radial f = 1 profile from v(0) = v0, v'(0) = 0.

    Step 0 is the Taylor step v(h) = v0 + v''(0) h^2/2, v'(h) = v''(0) h;
    every later step is classical RK4 with the slope from slope_kernel(op)
    at every stage. Stops early with status "cone_exit" or
    "positivity_loss" when the data leaves the admissible set.
    """
    if not v0 > 0:
        raise PositivityError(f"center value v0 = {v0:.6g} is not positive")
    # the eigenvalues take v to the powers -(n+2)/(n-2) and -2n/(n-2)
    if not abs(math.log(v0)) * 2.0 * op.n / (op.n - 2.0) < math.log(sys.float_info.max):
        raise DomainError(
            f"center value v0 = {v0:.6g} out of range: v0^(+-2n/(n-2)) overflows"
        )
    if not h > 0:
        raise DomainError("step h must be positive")
    if not (math.isfinite(r_max) and r_max > h):
        raise DomainError(f"r_max = {r_max:g} must be finite and exceed the step h")
    if not r_max / h <= MAX_STEPS:
        raise DomainError(
            f"r_max / h = {r_max / h:g} steps exceeds the cap of {MAX_STEPS:g} steps"
        )

    w0 = vpp0_exact(op, v0)
    slope = slope_kernel(op)
    steps = int(round(r_max / h))
    # four float64 buffers, 32 bytes per node, cut where the shot stops; a
    # store through a memoryview costs about half of one through an ndarray
    r_at, v_at, vp_at, w_at = (memoryview(np.empty(steps + 1)) for _ in range(4))
    r_at[0], v_at[0], vp_at[0], w_at[0] = 0.0, v0, 0.0, w0
    nodes = 1
    status = "ok"
    for i in range(steps):
        r = i * h
        try:
            if i:
                v, vp = _rk4_step(slope, r, v, vp, w, h)
            else:
                v, vp = v0 + 0.5 * w0 * h * h, w0 * h
            w = slope(v, vp, r + h)
        except ConeError:
            status = "cone_exit"
            break
        except PositivityError:
            status = "positivity_loss"
            break
        r_at[i + 1], v_at[i + 1], vp_at[i + 1], w_at[i + 1] = r + h, v, vp, w
        nodes = i + 2

    return RadialProfile(
        r=np.asarray(r_at[:nodes]),
        v=np.asarray(v_at[:nodes]),
        vp=np.asarray(vp_at[:nodes]),
        vpp=np.asarray(w_at[:nodes]),
        n=op.n,
        operator=op.name,
        v0=v0,
        h=h,
        status=status,
    )


def bubble_deviation(profile: RadialProfile, params: BubbleParams) -> float:
    """sup over grid nodes of |v(r_i) - bubble(r_i)|.

    The bubble is evaluated at the points (r_i, 0, ..., 0) through
    bubbles.bubble_values, RESIDUAL_SLAB nodes at a time, so the temporaries
    stay small at any step count shoot accepts.
    """
    if params.n != profile.n:
        raise DomainError("dimension mismatch between profile and bubble")
    slab_worst = []
    for lo in range(0, len(profile.r), RESIDUAL_SLAB):
        r = profile.r[lo : lo + RESIDUAL_SLAB]
        denom = 1.0 + params.beta * r * r
        near_pole = denom <= 0.1
        if np.any(near_pole):
            i = int(np.argmax(near_pole))
            raise DomainError(
                f"bubble denominator {denom[i]:.3g} too close to its pole at r={r[i]:g}"
            )
        x = np.zeros((len(r), profile.n))
        x[:, 0] = r
        v = profile.v[lo : lo + RESIDUAL_SLAB]
        slab_worst.append(np.max(np.abs(v - bubble_values(params, x))))
    return float(np.max(slab_worst, initial=0.0))


def _slab_unit_residual(k: int, n: int, v, vp, vpp, r) -> float:
    """max |sigma_k^{1/k} - 1| over one slab of nodes; raises for the first
    node of the slab that is refused or off Gamma_k."""
    lam = _eigenvalue_rows(v, vp, vpp, r, n)
    sig = sigma_rows(lam, k)
    off = np.flatnonzero(~np.all(sig > 0.0, axis=0))
    last = off[0] + 1 if off.size else len(r)
    _check_nodes(v[:last], vp[:last], vpp[:last], r[:last])
    if off.size:
        gamma_k_check(k, sig[:, off[0]].tolist(), lam[off[0]])
    return float(np.max(np.abs(sig[-1] ** (1.0 / k) - 1.0), initial=0.0))


def profile_max_unit_residual(op: CurvatureOperator, profile: RadialProfile) -> float:
    """max over nodes of |f(lam) - 1| along the integrated profile.

    Array passes over the profile, independent of the closed-form slope:
    sigma_1..sigma_k of the (nodes, n) eigenvalue rows come from
    cones.sigma_rows, the recurrence of cones.sigma_all over sorted rows.
    The first node refused by radial_eigenvalues or off Gamma_k raises what
    a node-by-node evaluation of op.f would. A pass takes RESIDUAL_SLAB
    nodes, so the temporaries stay small at any step count shoot accepts.
    """
    k = sigma_k_order(op, "closed-form unit residual")
    worst = 0.0
    for lo in range(0, len(profile.r), RESIDUAL_SLAB):
        nodes = slice(lo, lo + RESIDUAL_SLAB)
        worst = max(worst, _slab_unit_residual(
            k, profile.n, profile.v[nodes], profile.vp[nodes], profile.vpp[nodes],
            profile.r[nodes],
        ))
    return worst


def order_estimate(hs, devs) -> float:
    """Least-squares slope of log(dev) against log(h)."""
    hs = np.asarray(hs, dtype=float)
    devs = np.asarray(devs, dtype=float)
    if len(hs) < 2 or np.any(devs <= 0) or np.any(hs <= 0):
        raise DomainError("order estimate needs >= 2 positive (h, dev) pairs")
    return float(np.polyfit(np.log(hs), np.log(devs), 1)[0])
