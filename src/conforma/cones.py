"""Symmetric functions, admissibility cones, and curvature operator objects.

An eigenvalue vector is any sequence of n >= 3 finite floats. Operators are
(f, cone) pairs; f is symmetric, evaluates only inside its cone, and raises
ConeError outside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConeError, ConvergenceError, DomainError
from .reporting import Check
from .sampling import make_rng

# Root-finder policy shared by every on-a-ray solve: bracket by doubling or
# halving from s=1 within [S_MIN, S_MAX], then up to 60 bisections.
S_MIN = 1e-9
S_MAX = 1e9
BISECT_ITERS = 60


def sigma_all(lam) -> list:
    """All elementary symmetric polynomials sigma_1..sigma_n of lam.

    Product-expansion recurrence, O(n^2): on positive input every update adds
    positives, so no cancellation (Newton's identities on power sums lose the
    small sigmas entirely when the entries are strongly scaled). Entries are
    sorted first so the result is bit-identical under permutation of the input.
    """
    vals = sorted(np.asarray(lam, dtype=float).tolist())
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
    e = np.zeros((k + 1, cols.shape[1]))
    e[0] = 1.0
    with np.errstate(invalid="ignore", over="ignore"):
        for m, x in enumerate(cols, start=1):
            # sigma_all's downward sweep over j reads each e[j - 1] before
            # updating it: one update of the orders 1..min(m, k) at once
            top = min(m, k)
            e[1 : top + 1] += x * e[:top]
    return e[1:]


# ---------------------------------------------------------------------------
# Cones


@dataclass(frozen=True)
class GammaKCone:
    """The Garding cone Gamma_k = {sigma_1, ..., sigma_k > 0} in R^n.

    contains takes one vector and returns a bool, or an (m, n) array of rows
    and returns m bools; one vector is a one-row call of sigma_rows.
    """

    n: int
    k: int

    def __post_init__(self):
        if not (self.n >= 3 and 1 <= self.k <= self.n):
            raise DomainError(f"bad Garding cone indices n={self.n}, k={self.k}")

    def contains(self, lam):
        rows = np.asarray(lam, dtype=float)
        inside = np.all(sigma_rows(np.atleast_2d(rows), self.k) > 0.0, axis=0)
        return bool(inside[0]) if rows.ndim == 1 else inside


# ---------------------------------------------------------------------------
# Operators


@dataclass(frozen=True)
class CurvatureOperator:
    """Symmetric operator f together with its admissibility cone.

    sigma_order is k when f is sigma_k^{1/k} on Gamma_k (set by
    make_sigma_k_operator), which licenses the closed forms through
    sigma_k_order; None otherwise. takes_rows is True when f and grad_f
    also take an (m, n) array of rows and return the m values (gradients) of
    m one-vector calls, raising ConeError when a row is off the cone.
    """

    name: str
    f: Callable[[Sequence[float]], float]
    grad_f: Callable[[Sequence[float]], np.ndarray]
    cone: GammaKCone
    homogeneous_degree: Optional[float] = None
    sigma_order: Optional[int] = None
    takes_rows: bool = False

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

    f and grad_f take one vector, or an (m, n) array of rows and return m
    values (gradients) with the bits of m one-vector calls; off Gamma_k they
    raise ConeError with the first offending row as witness. A one-vector
    grad_f is a one-row call.
    """
    if not (n >= 3 and 1 <= k <= n):
        raise DomainError(f"bad operator indices n={n}, k={k}")
    cone = GammaKCone(n, k)
    inv_k = 1.0 / k

    def checked_rows(lam):
        sig = sigma_rows(lam, k)
        off = np.flatnonzero(~np.all(sig > 0.0, axis=0))
        if off.size:
            gamma_k_check(k, sig[:, off[0]].tolist(), lam[off[0]])
        return sig

    def f(lam):
        # One vector stays on sigma_all's Python floats: criterion 8 makes
        # 104 466 one-vector calls, at about 3.5 us each this way and 21 us
        # as a one-row call on a 2-core Xeon VM, which would add about 2 s
        # to its 5 s gate.
        if getattr(lam, "ndim", 1) == 1:
            e = sigma_all(lam)
            gamma_k_check(k, e, lam)
            return e[k - 1] ** inv_k
        # libm pow, as for one vector: np.power differs from it in the last bit
        return np.array([x**inv_k for x in checked_rows(lam)[-1].tolist()])

    def grad_f(lam):
        arr = np.asarray(lam, dtype=float)
        rows = np.atleast_2d(arr)
        sig = checked_rows(rows)
        front = np.array([inv_k * x ** (inv_k - 1.0) for x in sig[-1].tolist()])
        # sigma_{k-1} of each row with entry i removed, for every i at once:
        # s_m(lam minus i) = sigma_m(lam) - lam_i * s_{m-1}(lam minus i); as
        # on Python floats, an infinite entry gives nan without a warning
        minor = np.ones_like(rows)
        with np.errstate(invalid="ignore", over="ignore"):
            for m in range(1, k):
                minor = sig[m - 1][:, None] - rows * minor
            grad = front[:, None] * minor
        return grad[0] if arr.ndim == 1 else grad

    return CurvatureOperator(
        name=f"sigma{k}_n{n}",
        f=f,
        grad_f=grad_f,
        cone=cone,
        homogeneous_degree=1.0,
        sigma_order=k,
        takes_rows=True,
    )


def sigma_k_order(op: CurvatureOperator, what: str) -> int:
    """The k of an operator made by make_sigma_k_operator, which every
    sigma_k^{1/k} closed form needs; DomainError naming what needs it for
    any other operator."""
    k = op.sigma_order
    if k is None:
        raise DomainError(f"{what} needs a sigma_k operator, got {op.name}")
    return k


def mu_star(op: CurvatureOperator) -> float:
    """The diagonal level scale: f(mu* e) = 1.

    For f = sigma_k^{1/k}, f(mu e) = mu C(n,k)^{1/k}, so mu* = C(n,k)^{-1/k}.
    """
    k = sigma_k_order(op, "closed-form mu*")
    return math.comb(op.n, k) ** (-1.0 / k)


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


def _no_bracket(down, where: str) -> ConvergenceError:
    side = "lower" if down else "upper"
    return ConvergenceError(
        f"no root of f(s*lambda)=1 with s in [1e-9, 1e9] ({side} side){where}"
    )


def _stalled(resid: float, where: str) -> ConvergenceError:
    return ConvergenceError(f"ray solve stalled at |f-1| = {abs(resid):.3g}{where}")


# kept apart from the rows path: through it, one-vector solves made criterion
# 8 take 4.9 s against its 5 s gate (0.9 s this way)
def _solve_ray(fn, lam: np.ndarray, tol: float) -> float:
    """solve_unit_level on the one vector lam, stepping on Python floats."""

    def g(s):
        return float(fn(s * lam)) - 1.0

    lo = hi = 1.0
    gs = g(1.0)
    down = gs > 0.0
    # a ray with f = 1 exactly at s = 1 keeps lo = hi = 1
    open_ = gs != 0.0
    while open_:
        trial = lo * 0.5 if down else hi * 2.0
        if not S_MIN <= trial <= S_MAX:
            raise _no_bracket(down, "")
        gt = g(trial)
        open_ = not (gt < 0.0 if down else gt > 0.0)
        if down or open_:
            lo = trial
        if not down or open_:
            hi = trial
    for _ in range(BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        gm = g(mid)
        lo, hi = (lo if gm > 0.0 else mid), (hi if gm < 0.0 else mid)
    s = 0.5 * (lo + hi)
    resid = g(s)
    if abs(resid) > tol:
        raise _stalled(resid, "")
    return s


def solve_unit_level(fn: Callable[[np.ndarray], object], lam, tol: float = 1e-12):
    """Unique s > 0 with fn(s*lam) = 1 on each ray where fn is increasing.

    lam is one vector, and then fn takes one vector and this returns a float;
    or rows (..., n), and then fn takes an (m, n) array of scaled rows and
    returns m values, and this returns the roots in the leading shape of lam.
    Every row follows the one-vector policy on its own: bracket by
    doubling/halving from s=1 within [S_MIN, S_MAX]; up to BISECT_ITERS
    bisections, a row stopping once its midpoint equals an end or is not on
    either side of the root (fn - 1 is 0 or nan there, and the row keeps that
    midpoint). Raises ConvergenceError, naming the row for rows input, when a
    row has no bracket (numerical failure of the unbounded-growth hypothesis)
    or ends with |fn - 1| > tol.
    """
    arr = np.asarray(lam, dtype=float)
    if arr.ndim == 1:
        return _solve_ray(fn, arr, tol)
    rows = arr.reshape(-1, arr.shape[-1])

    def g(s, sub):
        """fn - 1 on the rows sub (of rows) scaled by s."""
        return np.asarray(fn(s[:, None] * sub), dtype=float) - 1.0

    s = np.ones(len(rows))
    resid = g(s, rows)
    down = resid > 0.0
    lo, hi = s.copy(), s.copy()

    # a row with f = 1 exactly at s = 1 keeps lo = hi = 1
    pending = np.flatnonzero(resid != 0.0)
    while pending.size:
        dn = down[pending]
        trial = np.where(dn, lo[pending] * 0.5, hi[pending] * 2.0)
        out = (trial < S_MIN) | (trial > S_MAX)
        if out.any():
            i = pending[np.argmax(out)]
            raise _no_bracket(down[i], f" at row {i}")
        gt = g(trial, rows[pending])
        open_ = np.where(dn, ~(gt < 0.0), ~(gt > 0.0))
        lo[pending] = np.where(dn | open_, trial, lo[pending])
        hi[pending] = np.where(dn & ~open_, hi[pending], trial)
        pending = pending[open_]

    # Only the rows act whose midpoint still moves are bisected. A row whose
    # midpoint has f - 1 of neither sign takes lo = hi = mid, and stops at
    # the next step, so s = (lo + hi) / 2 is that midpoint.
    act = np.flatnonzero(lo != hi)
    for _ in range(BISECT_ITERS):
        a, b = lo[act], hi[act]
        mid = 0.5 * (a + b)
        moving = (a < mid) & (mid < b)
        act, a, b, mid = act[moving], a[moving], b[moving], mid[moving]
        if not act.size:
            break
        gm = g(mid, rows[act])
        lo[act], hi[act] = np.where(gm > 0.0, a, mid), np.where(gm < 0.0, b, mid)

    s = 0.5 * (lo + hi)
    resid = g(s, rows)
    stalled = np.flatnonzero(np.abs(resid) > tol)
    if stalled.size:
        i = stalled[0]
        raise _stalled(resid[i], f" at row {i}")
    return s.reshape(arr.shape[:-1])


def homogenize(op: CurvatureOperator) -> CurvatureOperator:
    """Degree-1 operator with the same unit level set as op.

    f_tilde(lam) = 1/phi(lam) where phi solves f(phi*lam) = 1; f_tilde takes
    (m, n) rows, solving every ray in one solve_unit_level call, whenever
    op.f takes rows.
    """

    def phi(lam):
        return solve_unit_level(op.f, lam)

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


# ---------------------------------------------------------------------------
# Validation


def sample_cone_directions(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """Validation sampling measure: uniform simplex direction times
    log-uniform scale in [1e-2, 1e2]."""
    dirs = rng.dirichlet(np.ones(n), size=count)
    scales = np.exp(rng.uniform(math.log(1e-2), math.log(1e2), size=count))
    return dirs * scales[:, None]


def _evaluate(fn, rows, batched, shape=()):
    """fn on every row: the values, nan where fn raised ConeError, and the
    mask of the rows it evaluated.

    A batched fn takes all rows in one call; when that call raises ConeError
    the rows are taken one at a time, so that an off-cone row drops out alone.
    """
    if batched and len(rows):
        try:
            return np.asarray(fn(rows), dtype=float), np.ones(len(rows), dtype=bool)
        except ConeError:
            pass
    vals = np.full((len(rows),) + shape, np.nan)
    ok = np.zeros(len(rows), dtype=bool)
    for i, row in enumerate(rows):
        try:
            vals[i] = fn(row)
        except ConeError:
            continue
        ok[i] = True
    return vals, ok


def _first_worst(values, ok, start, rows):
    """The fields of a check, worst_violation and witness, as a loop over
    values keeps them: from start, each value where ok that is greater than
    the worst so far replaces it, and its row of rows is the witness, so the
    witness is the row of the first of the largest such values, and [] when
    no value is taken. nan is never greater, so it never becomes the worst."""
    taken = ok & (values > start)
    if not taken.any():
        return {"worst_violation": start, "witness": []}
    i = int(np.argmax(np.where(taken, values, -np.inf)))
    return {"worst_violation": float(values[i]), "witness": rows[i].tolist()}


def _row_norms(rows):
    """np.linalg.norm of every row of an (m, n) array, with its bits."""
    return np.sqrt(np.vecdot(rows, rows))


def _boundary_points(cone, rng, starts):
    """Walk from each interior start along a random direction to the cone
    boundary.

    Each start draws directions until one of v, -v leaves the cone within 12
    doublings of the step; then every found exit is bisected at once. Returns
    the indices of the starts with an exit and, for each, the last strictly
    inside iterate of its bisection.
    """

    def first_exit(base, direction, taus):
        inside = cone.contains(base + taus[:, None] * direction)
        return None if inside.all() else float(taus[np.argmin(inside)])

    found, dirs, outs = [], [], []
    for i, base in enumerate(starts):
        taus = float(np.linalg.norm(base)) * 2.0 ** np.arange(12)
        for _ in range(8):
            v = rng.normal(size=base.size)
            v /= np.linalg.norm(v)
            for direction in (v, -v):
                tau = first_exit(base, direction, taus)
                if tau is not None:
                    break
            if tau is not None:
                found.append(i)
                dirs.append(direction)
                outs.append(tau)
                break
    bases, dirs = starts[found], np.array(dirs).reshape(-1, starts.shape[1])
    lo, hi = np.zeros(len(found)), np.array(outs)
    for _ in range(BISECT_ITERS if found else 0):
        mid = 0.5 * (lo + hi)
        inside = cone.contains(bases + mid[:, None] * dirs)
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)
    return np.array(found, dtype=np.intp), bases + lo[:, None] * dirs


def validate_operator(
    op: CurvatureOperator, sample_count: int = 500, seed: int = 0
) -> dict[str, Check]:
    """Sampled hypothesis checks: symmetry, gradient positivity, concavity,
    ray growth, cone nesting, boundary vanishing, and (when tagged) degree
    homogeneity, one Check each. Failures land in the checks, never as
    exceptions.

    Each check evaluates all its samples in one call of op.f, op.grad_f or
    op.cone.contains on rows (op.f and op.grad_f one row per call unless
    op.takes_rows), and keeps the witness a loop over its samples keeps: the
    first sample whose value exceeds the worst so far. A sample where op.f
    or op.grad_f raises ConeError drops out; a check's evidence is the count
    of samples (pairs, members, boundary points) it evaluated. A maximum over
    one sample's values is np.fmax's: a nan value is skipped unless every
    value is nan.
    """
    rng = make_rng(seed)
    n = op.cone.n
    samples = sample_cone_directions(rng, n, sample_count)
    m = len(samples)
    checks = {}

    def f(rows):
        return _evaluate(op.f, rows, op.takes_rows)

    def f_grid(points):
        """f on an (h, K, n) array: (h, K) values and mask."""
        vals, ok = f(points.reshape(-1, n))
        return vals.reshape(points.shape[:2]), ok.reshape(points.shape[:2])

    # the checks mirror Python float arithmetic, which does not warn
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        f_s, ok_s = f(samples)

        # permutation symmetry
        # the stream of m rng.permutation(n) calls, row by row
        perms = rng.permuted(np.tile(np.arange(n), (m, 1)), axis=1)
        f_p, ok_p = f(np.take_along_axis(samples, perms, axis=1))
        ok = ok_s & ok_p
        fields = _first_worst(np.abs(f_s - f_p), ok, 0.0, samples)
        checks["permutation_symmetry"] = Check(
            fields["worst_violation"] <= 1e-12, int(ok.sum()), fields
        )

        # gradient positivity (hypothesis: components of grad f positive on the cone)
        g, ok = _evaluate(op.grad_f, samples, op.takes_rows, (n,))
        fields = _first_worst(-g.min(axis=1), ok, -math.inf, samples)
        checks["gradient_positivity"] = Check(
            fields["worst_violation"] < 0.0, int(ok.sum()), fields
        )

        # midpoint concavity: samples 2i and 2i + 1 form pair i
        pairs = slice(0, m - m % 2, 2), slice(1, m - m % 2, 2)
        lam, mu = (samples[p] for p in pairs)
        fl, fm = (f_s[p] for p in pairs)
        f_mid, ok = f(0.5 * (lam + mu))
        ok &= ok_s[pairs[0]] & ok_s[pairs[1]]
        unit = np.fmax(np.fmax(1.0, np.abs(fl)), np.abs(fm))
        fields = _first_worst((0.5 * (fl + fm) - f_mid) / unit, ok, 0.0, np.hstack([lam, mu]))
        checks["midpoint_concavity"] = Check(
            fields["worst_violation"] <= 1e-9, int(ok.sum()), fields
        )

        # ray growth: f(s*lam) increasing over a log grid (finite test of
        # unbounded growth along rays)
        s_grid = np.exp(np.linspace(math.log(1e-2), math.log(1e2), 17))
        head = samples[:64]
        vals, ok = f_grid(head[:, None, :] * s_grid[:, None])
        ok = ok.all(axis=1)
        fields = _first_worst(np.fmax.reduce(vals[:, :-1] - vals[:, 1:], axis=1), ok, 0.0, head)
        checks["ray_growth"] = Check(fields["worst_violation"] <= 0.0, int(ok.sum()), fields)

        # cone nesting, positive orthant side: every positive vector is a member
        outside = (~op.cone.contains(samples)).astype(float)
        fields = _first_worst(outside, np.ones(m, dtype=bool), 0.0, samples)
        checks["cone_contains_positive_orthant"] = Check(
            fields["worst_violation"] == 0.0, m, fields
        )

        # cone nesting, Gamma_1 side: members (the samples, each followed by
        # its jitter when that is in the cone) have positive entry sum
        head = samples[:200]
        # the stream of one rng.normal call per sample, row by row
        scale = 0.4 * _row_norms(head) / math.sqrt(n)
        jitters = head + rng.normal(0.0, scale[:, None], size=head.shape)
        kept = np.stack([np.ones(len(head), dtype=bool), op.cone.contains(jitters)], axis=1)
        members = np.stack([head, jitters], axis=1)[kept]
        fields = _first_worst(
            -members.sum(axis=1), np.ones(len(members), dtype=bool), -math.inf, members
        )
        checks["cone_inside_gamma1"] = Check(fields["worst_violation"] < 0.0, len(members), fields)

        # boundary vanishing: f decays like eps^e along segments approaching
        # sampled boundary points (unit scale), e the least-squares slope of
        # log f against log eps: 1/k for sigma_k^{1/k}, at most 1 by
        # concavity, 0 for an f positive on the boundary. At 1e-12 the
        # segment is still far from its end, about 2^-60 inside the boundary
        n_boundary = max(4, min(20, sample_count // 10))
        head = samples[:n_boundary]
        starts = head / _row_norms(head)[:, None]
        found, bpts = _boundary_points(op.cone, rng, starts)
        norms = _row_norms(bpts)
        unit = np.where(norms > 0, norms, 1.0)[:, None]
        ends, lams = bpts / unit, starts[found] / unit
        eps_grid = np.array([10.0 ** (-j) for j in range(6, 13)])
        seq, _ = f_grid(ends[:, None, :] + eps_grid[:, None] * (lams - ends)[:, None, :])
        log_f, log_eps = np.log(seq), np.log(eps_grid) - np.mean(np.log(eps_grid))
        rate = (log_f * (log_eps / np.sum(log_eps * log_eps))).sum(axis=1)
        # an off-cone segment point (nan), or an f that is not positive and
        # finite, fails the check at that boundary point
        rate = np.where(np.isfinite(log_f).all(axis=1), rate, -math.inf)
        worst = _first_worst(-rate, np.ones(len(rate), dtype=bool), -math.inf, ends)
        e = -worst["worst_violation"]
        checks["boundary_vanishing"] = Check(
            e >= 0.5 / n, len(ends), {"worst_exponent": e, "witness": worst["witness"]})

        # tagged homogeneity
        if op.homogeneous_degree is not None:
            d = op.homogeneous_degree
            scales = (0.5, 2.0, 7.3)
            head = samples[:100]
            vals, ok = f_grid(head[:, None, :] * np.array(scales)[:, None])
            target = np.array([s**d for s in scales]) * f_s[: len(head), None]
            size = np.abs(target)
            v = np.abs(vals - target) / np.where(size > 1e-30, size, 1e-30)
            # a sample counts up to its first scale off the cone
            ok = ok_s[: len(head), None] & np.logical_and.accumulate(ok, axis=1)
            rows = np.repeat(head, len(scales), axis=0)
            fields = _first_worst(v.ravel(), ok.ravel(), 0.0, rows)
            checks["degree_homogeneity"] = Check(
                fields["worst_violation"] <= 1e-9, int(ok.sum()), fields
            )

    return checks
