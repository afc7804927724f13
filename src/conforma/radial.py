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

from . import reporting
from .bubbles import BubbleParams, bubble_values
from .cones import CurvatureOperator, two_cluster_sigmas
from .errors import ConeError, DomainError, PositivityError

# Most RK4 steps one shot may take (r_max / h). A step costs about 17
# microseconds, so the cap bounds one shot at about three minutes.
MAX_STEPS = 10**7


def _radial_parts(v: float, vp: float, r: float, n: int) -> tuple:
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


def _lambda_list(v: float, vp: float, w: float, r: float, n: int) -> list:
    """Eigenvalue list (lam_rad, lam_tang x (n-1)) at r > 0; pure floats."""
    c1, rad0, lam_tang = _radial_parts(v, vp, r, n)
    out = [lam_tang] * n
    out[0] = -c1 * w + rad0
    return out


def radial_eigenvalues(v: float, vp: float, vpp: float, r: float, n: int) -> np.ndarray:
    """Conformal eigenvalues of a radial factor at radius r (r = 0 allowed)."""
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
    return np.asarray(_lambda_list(v, vp, vpp, r, n), dtype=float)


def mu_star(op: CurvatureOperator) -> float:
    """The diagonal level scale: f(mu* e) = 1.

    For f = sigma_k^{1/k}, f(mu e) = mu C(n,k)^{1/k}, so mu* = C(n,k)^{-1/k};
    operators without a recorded sigma_k order get a DomainError, as in
    implicit_vpp.
    """
    k = op.sigma_order
    if k is None:
        raise DomainError(f"closed-form mu* needs a sigma_k operator, got {op.name}")
    return math.comb(op.n, k) ** (-1.0 / k)


def vpp0_exact(op: CurvatureOperator, v0: float) -> float:
    """Center curvature of the f = 1 profile: v''(0) matching mu*."""
    if not v0 > 0:
        raise PositivityError(f"center value v0 = {v0:.6g} is not positive")
    n = op.n
    return -0.5 * (n - 2.0) * v0 ** ((n + 2.0) / (n - 2.0)) * mu_star(op)


def matched_bubble(op: CurvatureOperator, v0: float) -> BubbleParams:
    """The standard bubble with the same center data as the f = 1 profile."""
    if not v0 > 0:
        raise PositivityError(f"center value v0 = {v0:.6g} is not positive")
    n = op.n
    a = v0 ** (2.0 / (n - 2.0))
    beta = 0.5 * mu_star(op) * a * a
    return BubbleParams(n=n, a=a, beta=beta)


def implicit_vpp(op: CurvatureOperator, v: float, vp: float, r: float) -> float:
    """Solve f(lam(v, v', w, r)) = 1 for the vertical slope w = v''.

    The spectrum is (a, b x m) with a = lam_rad affine in w, b = lam_tang
    free of w and m = n - 1. For f = sigma_k^{1/k} the equation reads
    C(m,k) b^k + a C(m,k-1) b^(k-1) = 1, so a is one division away. The
    divisor is sigma_{k-1} of the spectrum with a removed, positive on
    Gamma_k: the data admit a slope exactly when the divisor is positive and
    sigma_j(a, b^m) > 0 for every j < k.
    """
    if not r > 0:
        raise DomainError("implicit slope needs r > 0 (use vpp0_exact at 0)")
    k = op.sigma_order
    if k is None:
        raise DomainError(f"closed-form slope needs a sigma_k operator, got {op.name}")
    m = op.n - 1
    c1, rad0, b = _radial_parts(v, vp, r, m + 1)
    div = math.comb(m, k - 1) * b ** (k - 1)
    if div > 0.0:
        a = (1.0 - math.comb(m, k) * b**k) / div
        if all(s > 0.0 for s in two_cluster_sigmas(a, b, m, k - 1)):
            return (rad0 - a) / c1
    raise ConeError(
        "no admissible vertical slope: data off the cone "
        f"(v={v:.6g}, v'={vp:.6g}, r={r:.6g})"
    )


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

    def write_csv(self, path):
        rows = zip(
            self.r.tolist(), self.v.tolist(), self.vp.tolist(), self.vpp.tolist()
        )
        reporting.write_csv(path, ("r", "v", "vp", "vpp"), rows)


def _rk4_step(op, r, v, vp, w_node, h):
    """One RK4 step of (v, v')' = (v', w(r, v, v')); w_node is the slope at
    the left node, reused as the k1 stage."""
    k1v, k1w = vp, w_node
    k2v = vp + 0.5 * h * k1w
    k2w = implicit_vpp(op, v + 0.5 * h * k1v, k2v, r + 0.5 * h)
    k3v = vp + 0.5 * h * k2w
    k3w = implicit_vpp(op, v + 0.5 * h * k2v, k3v, r + 0.5 * h)
    k4v = vp + h * k3w
    k4w = implicit_vpp(op, v + h * k3v, k4v, r + h)
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

    First node reached by the Taylor step v(h) = v0 + v''(0) h^2/2,
    v'(h) = v''(0) h; after that classical RK4 with the slope solved
    implicitly at every stage. Stops early with status "cone_exit" or
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
    rs = [0.0]
    vs = [v0]
    vps = [0.0]
    ws = [w0]
    status = "ok"
    steps = int(round(r_max / h))

    v1 = v0 + 0.5 * w0 * h * h
    vp1 = w0 * h
    try:
        w1 = implicit_vpp(op, v1, vp1, h)
        rs.append(h)
        vs.append(v1)
        vps.append(vp1)
        ws.append(w1)
    except ConeError:
        status = "cone_exit"
    except PositivityError:
        status = "positivity_loss"

    if status == "ok":
        v, vp, w = v1, vp1, w1
        for i in range(1, steps):
            r = i * h
            try:
                v, vp = _rk4_step(op, r, v, vp, w, h)
                w = implicit_vpp(op, v, vp, r + h)
            except ConeError:
                status = "cone_exit"
                break
            except PositivityError:
                status = "positivity_loss"
                break
            rs.append(r + h)
            vs.append(v)
            vps.append(vp)
            ws.append(w)

    return RadialProfile(
        r=np.asarray(rs),
        v=np.asarray(vs),
        vp=np.asarray(vps),
        vpp=np.asarray(ws),
        n=op.n,
        operator=op.name,
        v0=v0,
        h=h,
        status=status,
    )


def bubble_deviation(profile: RadialProfile, params: BubbleParams) -> float:
    """sup over grid nodes of |v(r_i) - bubble(r_i)|."""
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


def profile_max_unit_residual(op: CurvatureOperator, profile: RadialProfile) -> float:
    """max over nodes of |f(lam) - 1| along the integrated profile."""
    worst = 0.0
    for r, v, vp, w in zip(
        profile.r.tolist(),
        profile.v.tolist(),
        profile.vp.tolist(),
        profile.vpp.tolist(),
    ):
        lam = radial_eigenvalues(v, vp, w, r, profile.n)
        worst = max(worst, abs(op.f(lam) - 1.0))
    return worst


def order_estimate(hs, devs) -> float:
    """Least-squares slope of log(dev) against log(h)."""
    hs = np.asarray(hs, dtype=float)
    devs = np.asarray(devs, dtype=float)
    if len(hs) < 2 or np.any(devs <= 0) or np.any(hs <= 0):
        raise DomainError("order estimate needs >= 2 positive (h, dev) pairs")
    return float(np.polyfit(np.log(hs), np.log(devs), 1)[0])
