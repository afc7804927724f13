"""Symmetric functions, admissibility cones, and curvature operator objects.

An eigenvalue vector is any sequence of n >= 3 finite floats. Operators are
(f, cone) pairs; f is symmetric, evaluates only inside its cone, and raises
ConeError outside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConeError, ConvergenceError, DomainError

# Root-finder policy shared by every on-a-ray solve: bracket by doubling or
# halving from s=1 within [S_MIN, S_MAX], 60 bisections, then Newton polish.
S_MIN = 1e-9
S_MAX = 1e9
BISECT_ITERS = 60
NEWTON_POLISH = 5


def sigma_all(lam) -> list:
    """All elementary symmetric polynomials sigma_1..sigma_n of lam.

    Product-expansion recurrence, O(n^2): on positive input every update adds
    positives, so no cancellation (Newton's identities on power sums lose the
    small sigmas entirely when the entries are strongly scaled). Entries are
    sorted first so the result is bit-identical under permutation of the input.
    """
    vals = sorted(float(x) for x in lam)
    n = len(vals)
    e = [1.0] + [0.0] * n
    for m, x in enumerate(vals, start=1):
        for k in range(m, 0, -1):
            e[k] += x * e[k - 1]
    return e[1:]


def sigma_rows(lams, k: int) -> np.ndarray:
    """sigma_1..sigma_k of every row of an (m, n) array, as a (k, m) array.

    The recurrence of sigma_all run column by column over the sorted rows and
    stopped at order k, so every value has the bits sigma_all gives that row.
    Rows holding inf or nan give inf or nan sigmas, without a warning.
    """
    cols = np.sort(np.asarray(lams, dtype=float), axis=1).T
    e = [np.ones(cols.shape[1])] + [np.zeros(cols.shape[1]) for _ in range(k)]
    with np.errstate(invalid="ignore", over="ignore"):
        for m, x in enumerate(cols, start=1):
            for j in range(min(m, k), 0, -1):
                e[j] += x * e[j - 1]
    return np.array(e[1:])


def _sigma_minor(lam, e, j: int, i: int) -> float:
    """sigma_j of lam with entry i removed, from the full sigmas e."""
    # s_m(lam minus i) satisfies s_m = e_m - lam_i * s_{m-1}
    s = 1.0
    for m in range(1, j + 1):
        s = e[m - 1] - lam[i] * s
    return s


# ---------------------------------------------------------------------------
# Cones


class ConeSpec:
    """Open convex symmetric cone with vertex at the origin."""

    n: int

    def contains(self, lam) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class GammaKCone(ConeSpec):
    n: int
    k: int

    def __post_init__(self):
        if not (self.n >= 3 and 1 <= self.k <= self.n):
            raise DomainError(f"bad Garding cone indices n={self.n}, k={self.k}")

    def contains(self, lam) -> bool:
        e = sigma_all(lam)
        return all(e[j] > 0.0 for j in range(self.k))

    def margin(self, lam) -> float:
        e = sigma_all(lam)
        return min(e[: self.k])


@dataclass(frozen=True)
class HomotopyCone(ConeSpec):
    """Pullback cone {lam : t*lam + (1-t)*sigma_1(lam)*e in inner}."""

    inner: ConeSpec
    t: float

    @property
    def n(self):
        return self.inner.n

    def _map(self, lam):
        s1 = float(sum(float(x) for x in lam))
        return [self.t * float(x) + (1.0 - self.t) * s1 for x in lam]

    def contains(self, lam) -> bool:
        return self.inner.contains(self._map(lam))

    def margin(self, lam) -> float:
        return self.inner.margin(self._map(lam))


# ---------------------------------------------------------------------------
# Operators


@dataclass(frozen=True)
class CurvatureOperator:
    """Symmetric operator f together with its admissibility cone.

    sigma_order is k when f is sigma_k^{1/k} on Gamma_k (set by
    make_sigma_k_operator), which licenses closed-form solves; None otherwise.
    two_cluster is (k, t) when f(lam) = sigma_k^{1/k}(t lam + (1-t)
    sigma_1(lam) e) on the pullback of Gamma_k (t = 1 for sigma_k itself,
    set by make_sigma_k_operator and homotopy_operator), which licenses
    two_cluster_kernel; None otherwise.
    """

    name: str
    f: Callable[[Sequence[float]], float]
    grad_f: Callable[[Sequence[float]], np.ndarray]
    cone: ConeSpec
    homogeneous_degree: Optional[float] = None
    sigma_order: Optional[int] = None
    two_cluster: Optional[tuple] = None

    @property
    def n(self) -> int:
        return self.cone.n


def gamma_k_check(k: int, e, lam) -> None:
    """Raise ConeError, lam as witness, at the first of sigma_1..sigma_k in e
    that is not positive."""
    for j in range(k):
        if not e[j] > 0.0:
            raise ConeError(
                f"lambda outside Gamma_{k} (sigma_{j + 1} = {e[j]:.6g})",
                witness=list(lam),
            )


def make_sigma_k_operator(n: int, k: int) -> CurvatureOperator:
    """(sigma_k^{1/k}, Gamma_k) with its analytic gradient.

    f takes one vector, or an (m, n) array of rows and returns m values with
    the bits of m one-vector calls; off Gamma_k it raises ConeError with the
    first offending row as witness. grad_f takes one vector.
    """
    if not (n >= 3 and 1 <= k <= n):
        raise DomainError(f"bad operator indices n={n}, k={k}")
    cone = GammaKCone(n, k)
    inv_k = 1.0 / k

    def f(lam):
        if getattr(lam, "ndim", 1) == 1:
            e = sigma_all(lam)
            gamma_k_check(k, e, lam)
            return e[k - 1] ** inv_k
        sig = sigma_rows(lam, k)
        off = np.flatnonzero(~np.all(sig > 0.0, axis=0))
        if off.size:
            gamma_k_check(k, sig[:, off[0]].tolist(), lam[off[0]])
        # libm pow, as for one vector: np.power differs from it in the last bit
        return np.array([x**inv_k for x in sig[-1].tolist()])

    def grad_f(lam):
        vals = [float(x) for x in lam]
        e = sigma_all(vals)
        gamma_k_check(k, e, vals)
        front = inv_k * e[k - 1] ** (inv_k - 1.0)
        return np.array(
            [front * _sigma_minor(vals, e, k - 1, i) for i in range(n)]
        )

    return CurvatureOperator(
        name=f"sigma{k}_n{n}",
        f=f,
        grad_f=grad_f,
        cone=cone,
        homogeneous_degree=1.0,
        sigma_order=k,
        two_cluster=(k, 1.0),
    )


def two_cluster_sigmas(a: float, b: float, m: int, k: int) -> list:
    """sigma_1..sigma_k of the spectrum (a, b repeated m times).

    Binomial closed form sigma_j = C(m,j) b^j + a C(m,j-1) b^(j-1): affine
    in a, no sorting or product expansion.
    """
    return [
        math.comb(m, j) * b**j + a * math.comb(m, j - 1) * b ** (j - 1)
        for j in range(1, k + 1)
    ]


def two_cluster_kernel(k: int, t: float, m: int, a, b):
    """sigma_k^{1/k} pulled back by lam -> t lam + (1-t) sigma_1(lam) e, on
    spectra (a, b repeated m times), elementwise over arrays a and b.

    Returns (f, df/da, the sum of the m df/db, margin). The map keeps the
    two-cluster shape, a' = t a + s and b' = t b + s with s = (1-t)(a + m b);
    margin is min_j sigma_j(a', b'^m) over j <= k, the Gamma_k margin of the
    mapped spectrum, and f and its gradient are nan where it is not positive.
    The gradient of sigma_k is sigma_{k-1} of the spectrum with that entry
    removed: C(m,k-1) b'^(k-1) for a', sigma_{k-1}(a', b'^(m-1)) for each b'.
    """
    s = (1.0 - t) * (a + m * b)
    am, bm = t * a + s, t * b + s
    sig = two_cluster_sigmas(am, bm, m, k)
    margin = np.minimum.reduce(sig)
    with np.errstate(invalid="ignore", divide="ignore"):
        sk = np.where(margin > 0.0, sig[-1], np.nan)
        f = sk ** (1.0 / k)
        front = f / (k * sk)
    ga = front * (math.comb(m, k - 1) * bm ** (k - 1))
    gb = front * (two_cluster_sigmas(am, bm, m - 1, k - 1)[-1] if k > 1 else 1.0)
    total = ga + m * gb
    return f, t * ga + (1.0 - t) * total, m * (t * gb + (1.0 - t) * total), margin


def solve_unit_level(
    fn: Callable[[np.ndarray], object],
    lam,
    dfn_ds: Optional[Callable[[float, np.ndarray], float]] = None,
    tol: float = 1e-12,
):
    """Unique s > 0 with fn(s*lam) = 1 on each ray where fn is increasing.

    lam is one vector, and then fn takes one vector and this returns a float;
    or rows (..., n), and then fn takes an (m, n) array of scaled rows and
    returns m values, and this returns the roots in the leading shape of lam.
    Every row follows the one-vector policy on its own: bracket by
    doubling/halving from s=1 within [S_MIN, S_MAX]; BISECT_ITERS bisections,
    a row's bracket staying put once its midpoint equals an end or is an
    exact root; then, given dfn_ds(s, row), up to NEWTON_POLISH Newton steps
    inside the bracket. Raises ConvergenceError, naming the row for rows input, when a
    row has no bracket (numerical failure of the unbounded-growth hypothesis)
    or ends with |fn - 1| > tol.
    """
    arr = np.asarray(lam, dtype=float)
    rows = arr.reshape(-1, arr.shape[-1])

    def g(s, idx=None):
        """fn - 1 on the rows idx (default all) scaled by s."""
        if idx is not None and not idx.size:
            return np.zeros(0)
        if arr.ndim == 1:
            return np.array([float(fn(s[0] * arr)) - 1.0])
        scaled = s[:, None] * (rows if idx is None else rows[idx])
        return np.asarray(fn(scaled), dtype=float) - 1.0

    def where(i):
        return "" if arr.ndim == 1 else f" at row {i}"

    s = np.ones(len(rows))
    resid = g(s)
    down = resid > 0.0
    lo, hi = s.copy(), s.copy()

    # a row with f = 1 exactly at s = 1 keeps lo = hi = 1
    pending = np.flatnonzero(resid != 0.0)
    while pending.size:
        dn = down[pending]
        trial = np.where(dn, lo[pending] * 0.5, hi[pending] * 2.0)
        out = np.where(dn, trial < S_MIN, trial > S_MAX)
        if out.any():
            i = pending[np.argmax(out)]
            side = "lower" if down[i] else "upper"
            raise ConvergenceError(
                f"no root of f(s*lambda)=1 with s in [1e-9, 1e9] ({side} side){where(i)}"
            )
        gt = g(trial, pending)
        open_ = np.where(dn, ~(gt < 0.0), ~(gt > 0.0))
        lo[pending] = np.where(dn | open_, trial, lo[pending])
        hi[pending] = np.where(dn & ~open_, hi[pending], trial)
        pending = pending[open_]

    # Every row takes every bisection step. The one-vector rules stop a row
    # once its midpoint equals lo or hi, or lands on an exact root; from then
    # on f - 1 at the midpoint is that of lo or hi (of the sign that keeps
    # them) or 0, so the bracket, and s = (lo + hi) / 2, no longer move.
    for _ in range(BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        np.copyto(hi, mid, where=gm > 0.0)
        np.copyto(lo, mid, where=gm < 0.0)

    s = 0.5 * (lo + hi)
    resid = g(s)
    if dfn_ds is not None:
        live = np.flatnonzero(np.abs(resid) > tol)
        for _ in range(NEWTON_POLISH):
            if not live.size:
                break
            d = np.array([dfn_ds(float(s[i]), rows[i]) for i in live])
            with np.errstate(divide="ignore", invalid="ignore"):
                cand = s[live] - resid[live] / d
            step = (d != 0.0) & np.isfinite(d) & (lo[live] <= cand) & (cand <= hi[live])
            step &= cand > 0.0
            live = live[step]
            s[live] = cand[step]
            resid[live] = g(s[live], live)
            live = live[np.abs(resid[live]) > tol]

    stalled = np.flatnonzero(np.abs(resid) > tol)
    if stalled.size:
        i = stalled[0]
        raise ConvergenceError(
            f"ray solve stalled at |f-1| = {abs(resid[i]):.3g}{where(i)}"
        )
    return float(s[0]) if arr.ndim == 1 else s.reshape(arr.shape[:-1])


def homogenize(op: CurvatureOperator) -> CurvatureOperator:
    """Degree-1 operator with the same unit level set as op.

    f_tilde(lam) = 1/phi(lam) where phi solves f(phi*lam) = 1; f_tilde takes
    (m, n) rows, solving every ray in one solve_unit_level call, whenever
    op.f takes rows.
    """

    def dfn_ds(s, arr):
        return float(np.dot(op.grad_f(s * arr), arr))

    def phi(lam):
        return solve_unit_level(op.f, lam, dfn_ds=dfn_ds)

    def f(lam):
        return 1.0 / phi(lam)

    def grad_f(lam):
        arr = np.asarray(lam, dtype=float)
        s = phi(arr)
        g = np.asarray(op.grad_f(s * arr), dtype=float)
        denom = s * float(np.dot(g, arr))
        return g / denom

    return CurvatureOperator(
        name=f"{op.name}_deg1",
        f=f,
        grad_f=grad_f,
        cone=op.cone,
        homogeneous_degree=1.0,
    )


def homotopy_operator(op: CurvatureOperator, t: float) -> CurvatureOperator:
    """Interpolant f_t(lam) = f(t*lam + (1-t)*sigma_1(lam)*e) on its cone."""
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"homotopy parameter t={t} outside [0, 1]")
    cone = HomotopyCone(inner=op.cone, t=t)
    n = op.cone.n

    def mapped(lam):
        vals = [float(x) for x in lam]
        if len(vals) != n:
            raise DomainError(f"expected n={n} entries, got {len(vals)}")
        s1 = sum(vals)
        c = (1.0 - t) * s1
        return [t * x + c for x in vals]

    def f(lam):
        m = mapped(lam)
        try:
            return op.f(m)
        except ConeError as exc:
            raise ConeError(
                f"lambda outside homotopy cone at t={t:g}: {exc}",
                witness=list(lam),
            ) from exc

    def grad_f(lam):
        m = mapped(lam)
        g = np.asarray(op.grad_f(m), dtype=float)
        return t * g + (1.0 - t) * float(g.sum()) * np.ones(n)

    return CurvatureOperator(
        name=f"{op.name}_t{t:g}",
        f=f,
        grad_f=grad_f,
        cone=cone,
        homogeneous_degree=op.homogeneous_degree,
        two_cluster=None if op.sigma_order is None else (op.sigma_order, t),
    )


# ---------------------------------------------------------------------------
# Validation


@dataclass
class CheckResult:
    passed: bool
    worst_violation: float
    witness: list = field(default_factory=list)


@dataclass
class ValidationReport:
    checks: dict

    def to_json_dict(self) -> dict:
        return {
            name: {
                "pass": c.passed,
                "worst_violation": c.worst_violation,
                "witness": list(c.witness),
            }
            for name, c in self.checks.items()
        }


def sample_cone_directions(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """Validation sampling measure: uniform simplex direction times
    log-uniform scale in [1e-2, 1e2]."""
    dirs = rng.dirichlet(np.ones(n), size=count)
    scales = np.exp(rng.uniform(math.log(1e-2), math.log(1e2), size=count))
    return dirs * scales[:, None]


def _boundary_point(op, rng, lam):
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
            for _ in range(BISECT_ITERS):
                mid = 0.5 * (lo + hi)
                if cone.contains(base + mid * direction):
                    lo = mid
                else:
                    hi = mid
            return base + lo * direction
    return None


def validate_operator(
    op: CurvatureOperator, sample_count: int = 500, seed: int = 0
) -> ValidationReport:
    """Sampled hypothesis checks: symmetry, gradient positivity, concavity,
    ray growth, cone nesting, boundary vanishing, and (when tagged) degree
    homogeneity. Failures land in the report, never as exceptions."""
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
        except ConeError:
            continue
        if d > worst:
            worst, witness = d, list(lam)
    checks["permutation_symmetry"] = CheckResult(worst <= 1e-12, worst, witness)

    # gradient positivity (hypothesis: components of grad f positive on the cone)
    worst, witness = -math.inf, []
    for lam in samples:
        try:
            g = np.asarray(op.grad_f(lam), dtype=float)
        except ConeError:
            continue
        v = float(-g.min())
        if v > worst:
            worst, witness = v, list(lam)
    checks["gradient_positivity"] = CheckResult(worst < 0.0, worst, witness)

    # midpoint concavity
    worst, witness, pairs = 0.0, [], 0
    for i in range(0, len(samples) - 1, 2):
        lam, mu = samples[i], samples[i + 1]
        try:
            fl, fm = op.f(lam), op.f(mu)
            fmid = op.f(0.5 * (lam + mu))
        except ConeError:
            continue
        pairs += 1
        unit = max(1.0, abs(fl), abs(fm))
        v = (0.5 * (fl + fm) - fmid) / unit
        if v > worst:
            worst, witness = v, list(lam) + list(mu)
    # no pair evaluated is no evidence
    checks["midpoint_concavity"] = CheckResult(pairs > 0 and worst <= 1e-9, worst, witness)

    # ray growth: f(s*lam) increasing over a log grid (finite test of
    # unbounded growth along rays)
    worst, witness = 0.0, []
    s_grid = np.exp(np.linspace(math.log(1e-2), math.log(1e2), 17))
    for lam in samples[: min(64, len(samples))]:
        try:
            vals = [op.f(s * lam) for s in s_grid]
        except ConeError:
            continue
        v = max(
            (vals[j] - vals[j + 1]) for j in range(len(vals) - 1)
        )
        if v > worst:
            worst, witness = v, list(lam)
    checks["ray_growth"] = CheckResult(worst <= 0.0, worst, witness)

    # cone nesting, positive orthant side: every positive vector is a member
    worst, witness = 0.0, []
    for lam in samples:
        if not op.cone.contains(lam):
            worst, witness = 1.0, list(lam)
            break
    checks["cone_contains_positive_orthant"] = CheckResult(worst == 0.0, worst, witness)

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
    checks["cone_inside_gamma1"] = CheckResult(worst < 0.0, worst, witness)

    # boundary vanishing: f decays below 1e-3 along segments approaching
    # sampled boundary points (unit scale)
    worst, witness = 0.0, []
    n_boundary = max(4, min(20, sample_count // 10))
    # reach 1e-12: sigma_k^{1/k}-type operators vanish like eps^{1/k}, so the
    # shallow end of the grid must sit well below (1e-3)^k
    eps_grid = [10.0 ** (-j) for j in range(1, 13)]
    for lam in samples[:n_boundary]:
        lam = lam / np.linalg.norm(lam)
        bpt = _boundary_point(op, rng, lam)
        if bpt is None:
            continue
        norm = np.linalg.norm(bpt)
        if norm > 0:
            bpt, lam_in = bpt / norm, lam / norm
        else:
            lam_in = lam
        try:
            seq = [op.f(bpt + e * (lam_in - bpt)) for e in eps_grid]
        except ConeError:
            worst, witness = max(worst, 1.0), list(bpt)
            continue
        increase = max(
            (seq[j + 1] - seq[j]) for j in range(len(seq) - 1)
        )
        v = max(seq[-1], increase)
        if v > worst:
            worst, witness = v, list(bpt)
    checks["boundary_vanishing"] = CheckResult(worst < 1e-3, worst, witness)

    # tagged homogeneity
    if op.homogeneous_degree is not None:
        d = op.homogeneous_degree
        worst, witness = 0.0, []
        for lam in samples[: min(100, len(samples))]:
            try:
                f1 = op.f(lam)
                for s in (0.5, 2.0, 7.3):
                    v = abs(op.f(s * lam) - s**d * f1) / max(1e-30, abs(s**d * f1))
                    if v > worst:
                        worst, witness = v, list(lam)
            except ConeError:
                continue
        checks["degree_homogeneity"] = CheckResult(worst <= 1e-9, worst, witness)

    return ValidationReport(checks=checks)
