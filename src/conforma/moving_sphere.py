"""Moving-sphere sweeps, the alpha invariant, interval-lemma checks, and the
explicit Harnack product bound.

The central object is the inversion comparison

    u_{x,lam}(y) = (lam/|y-x|)^{n-2} u(x + lam^2 (y-x)/|y-x|^2) <= u(y)

for |y-x| >= lam (the moving-sphere inequality, MSI). The critical radius
lam_bar(x) is the largest lam for which MSI holds, estimated here on a
truncated sampled domain. For exact bubbles lam_bar(x)^{n-2} u(x) is a
constant alpha, which the sweep verifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conformal import POLE_GUARD_ANALYTIC
from .errors import ConvergenceError, DomainError, GeometryError, SingularityError
from .fields import ScalarField
from .sampling import ball_points, make_rng

BISECT_ITERS = 40
DEFAULT_GUARD = 1e-6
# A radius violates the MSI when its sampled violation exceeds this.
VIOLATION_TOL = 0.0
# Largest lambda grid of a sweep. The scan costs about 0.35 ms a step at the
# default 4096 check points and 9 centres on a 2-core Xeon VM, so 65 536
# steps take about 23 s there; 1e8 steps would take ten hours.
MAX_LAMBDA_STEPS = 65536


@dataclass
class SweepConfig:
    """Log-spaced lambda sweep plus the fixed comparison point set."""

    lambda_min: float
    lambda_max: float
    check_points: np.ndarray
    lambda_steps: int = 256

    def __post_init__(self):
        if not (self.lambda_min > 0 and self.lambda_min < self.lambda_max):
            raise DomainError("need 0 < lambda_min < lambda_max")
        if self.lambda_steps < 16:
            raise DomainError("lambda_steps must be at least 16")
        if self.lambda_steps > MAX_LAMBDA_STEPS:
            raise DomainError(f"lambda_steps {self.lambda_steps} is above the cap {MAX_LAMBDA_STEPS}")
        self.check_points = np.atleast_2d(np.asarray(self.check_points, dtype=float))

    def lambda_grid(self) -> np.ndarray:
        return np.exp(
            np.linspace(
                math.log(self.lambda_min), math.log(self.lambda_max), self.lambda_steps
            )
        )

    def grid_guard(self) -> float:
        """One multiplicative grid cell, the exclusion band around |y-x|=lam."""
        ratio = (self.lambda_max / self.lambda_min) ** (1.0 / (self.lambda_steps - 1))
        return ratio - 1.0


class _CentreMSI:
    """The MSI at one centre x over a fixed set of check points, for any
    number of radii, on a field given by its radial parts (centre c,
    profile of squared distances).

    With d = y - x and q = lam^2/|d|^2, the mapped point x + q d lies at
    squared distance |x-c|^2 + q (2(x-c).d + lam^2) from c, so
    u_{x,lam}(y) = q^m sum of profile(that distance), m = (n-2)/2, and no
    n-D point is formed. The distances, each part's dot products and u(y)
    are computed once per centre. The points are sorted by distance, so the
    points a radius keeps (|y-x| >= lam(1+guard)) are a suffix of that order,
    each radius works on contiguous slices, and only the nearest kept point
    can meet the pole guard.
    """

    def __init__(self, u: ScalarField, x, points, guard: float):
        self.domain, self.guard, self.m = u.domain, guard, 0.5 * (u.n - 2)
        self.x = np.asarray(x, dtype=float)
        self.reach = float(np.linalg.norm(self.x))
        parts = u.radial_parts()
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        D = pts - self.x
        d2 = np.einsum("ij,ij->i", D, D)
        # a NaN distance is never kept; argsort puts NaN last
        order = np.argsort(d2)[: np.count_nonzero(~np.isnan(d2))]
        self.d2, self.dist, self.direct = d2[order], np.sqrt(d2[order]), u.values(pts)[order]
        # per part: |x-c|^2, 2(x-c).d at every point, and the profile
        self.parts = [(float(np.dot(self.x - c, self.x - c)), (D @ (2.0 * (self.x - c)))[order], f)
                      for c, f in parts]

    def violation(self, lam: float) -> float:
        """max over kept points of u_{x,lam}(y) - u(y)."""
        if not lam > 0:
            raise DomainError(f"inversion radius lam = {lam:g} must be positive")
        # the inverted sphere B_lam(x) must sit inside the field's domain
        if self.domain is not None and not self.reach + lam <= self.domain.outer:
            raise GeometryError(
                f"inversion ball of radius {lam:g} at {self.x.tolist()} leaves the domain"
            )
        first = int(np.searchsorted(self.dist, lam * (1.0 + self.guard)))
        if first == len(self.dist):
            raise DomainError("no check points outside the guarded sphere")
        if self.d2[first] <= POLE_GUARD_ANALYTIC**2:
            raise SingularityError("u_{x,lam} evaluated at its pole y = x")
        lam2 = lam * lam
        q = lam2 / self.d2[first:]
        terms = [f(x2 + q * (dot[first:] + lam2)) for x2, dot, f in self.parts]
        return float(np.max(q**self.m * sum(terms[1:], terms[0]) - self.direct[first:]))


def msi_violation(
    u: ScalarField, x, lam, points, guard: float = DEFAULT_GUARD
) -> float | np.ndarray:
    """max over check points y with |y-x| >= lam(1+guard) of u_{x,lam}(y) - u(y).

    Nonpositive means MSI holds on the sampled truncation. A scalar lam
    gives a float. A 1-D lam gives an array with the value at each radius,
    bit for bit what one call per radius gives; the offsets, distances and
    u at the points are computed once for all of them.
    """
    msi = _CentreMSI(u, x, points, guard)
    if np.ndim(lam) == 0:
        return msi.violation(lam)
    return np.array([msi.violation(r) for r in np.asarray(lam, dtype=float).tolist()])


@dataclass(frozen=True)
class CriticalRadius:
    lambda_bar: float
    flag: str = ""


def critical_radius(u: ScalarField, x, cfg: SweepConfig) -> CriticalRadius:
    """Sampled estimate of lam_bar(x) = sup{mu : MSI holds for all lam < mu}.

    Scans the log grid for the first violation beyond VIOLATION_TOL, then
    bisects 40 times between the last passing and first failing lambda, all
    on one per-centre precomputation of the check points. Returns
    lambda_max with flag "unbounded" when the whole range passes,
    lambda_min with flag "fails_at_min" when even the smallest lambda fails.
    """
    grid = cfg.lambda_grid()
    msi = _CentreMSI(u, x, cfg.check_points, cfg.grid_guard())

    def violated(lam):
        return msi.violation(lam) > VIOLATION_TOL

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


@dataclass(frozen=True)
class AlphaReport:
    values: list
    spread: float
    reference: float
    lambda_bars: list

    def to_json_dict(self):
        return {
            "values": list(self.values),
            "spread": self.spread,
            "reference": self.reference,
        }


def alpha_invariant(u: ScalarField, xs, cfg: SweepConfig) -> AlphaReport:
    """lam_bar(x)^{n-2} u(x) per center, its spread, and the rim estimate of
    lim |y|^{n-2} u(y). The report keeps lam_bar(x) per center too; its
    JSON form leaves them out."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    n = u.n

    lambda_bars = []
    for x in xs:
        cr = critical_radius(u, x, cfg)
        if cr.flag:
            raise ConvergenceError(
                f"center {x.tolist()} has flagged critical radius ({cr.flag})"
            )
        lambda_bars.append(cr.lambda_bar)
    values = [lam ** (n - 2) * v for lam, v in zip(lambda_bars, u.values(xs).tolist())]
    rim = np.linalg.norm(cfg.check_points, axis=1)
    sel = rim >= 0.9 * float(np.max(rim))
    ref_pts = cfg.check_points[sel]
    ref = float(
        np.mean(
            np.linalg.norm(ref_pts, axis=1) ** (n - 2) * u.values(ref_pts)
        )
    )
    return AlphaReport(
        values=[float(v) for v in values],
        spread=float(max(values) - min(values)),
        reference=ref,
        lambda_bars=lambda_bars,
    )


# ---------------------------------------------------------------------------
# Interval lemmas (one-dimensional moving-sphere algebra)


@dataclass(frozen=True)
class HLemmaReport:
    hypothesis_pass: bool
    hypothesis_worst: float
    conclusion_pass: bool
    conclusion_worst: float
    alpha: float
    a: float

    def implication_holds(self) -> bool:
        return (not self.hypothesis_pass) or self.conclusion_pass


HYPOTHESIS_TOL = 1e-12
CONCLUSION_TOL = 1e-9
# Largest interval-lemma grid density. The time grows as d^3: one function
# takes about 1.3 s at d = 512 on a 2-core Xeon VM (the 50-function catalog
# about a minute), 8 times that at d = 1024. Memory grows as d^2: six sorted
# d^2-cell arrays, 2 MiB each at d = 512, where a call peaks at about 26 MiB.
MAX_DENSITY = 512


def h_lemma_check(
    h, h_prime, alpha: float, a: float, sample_density: int = 64
) -> HLemmaReport:
    """Sampled check of the interval inversion lemma.

    Hypothesis, over |tau| < 2a, |s| <= 4a, 0 < lam < a, lam < |s - tau|:

        (lam/|s-tau|)^alpha h(tau + lam^2/(s-tau)) <= h(s).

    Conclusion: |h'(s)| <= (alpha/2a) h(s) for |s| <= a. Both are sampled on
    a density^3 grid. The hypothesis grid spans the closed box |tau| <= 2a,
    a/d <= lam <= a, where a continuous h meets the hypothesis if it does on
    the open one; kept mapped points land in [-3a, 3a]. It is walked radius
    by radius over the (tau, s) cells sorted by |s - tau|, whose kept ones
    are a suffix, so h never sees a dropped cell; the kernel is factored as
    lam^alpha |s-tau|^(-alpha), so a radius takes no power outside h. The
    tau-slab walk h_lemma_check_slabs in tests/helpers.py gives the same
    bits; the oracle h_lemma_check_cube there is unfactored, h(s) at every
    cell. h and h_prime must accept numpy arrays.
    """
    if not 0 < a < math.inf:
        raise DomainError(f"interval half-width a = {a:g} must be positive and finite")
    if not 0 <= alpha < math.inf:
        raise DomainError(f"decay exponent alpha = {alpha:g} must be nonnegative and finite")
    d = int(sample_density)
    if d < 8:
        raise DomainError("sample_density must be at least 8")
    if d > MAX_DENSITY:
        raise DomainError(f"sample_density {d} is above the cap {MAX_DENSITY}")

    taus = np.linspace(-2.0 * a, 2.0 * a, d)
    s = np.linspace(-4.0 * a, 4.0 * a, d)
    lam = np.linspace(a / d, a, d)
    rhs = np.broadcast_to(h(s), s.shape)
    # the cells (i, j) at i * d + j that the smallest radius keeps, nearest first
    diff = (s - taus[:, None]).ravel()
    kept = np.flatnonzero(np.abs(diff) > lam[0])
    cells = kept[np.argsort(np.abs(diff[kept]), kind="stable")]
    dist = np.abs(diff[cells])
    first = np.searchsorted(dist, lam, side="right")
    if not first[-1] < len(cells):
        raise DomainError(f"interval half-width a = {a:g} leaves no cell beyond lam = a")
    tau, inv, rhs_cell = taus[cells // d], 1.0 / diff[cells], rhs[cells % d]
    lam_sq, lam_alpha, dist_pow = lam * lam, lam**alpha, dist**-alpha
    hyp_worst = float(np.max([
        np.max(h(tau[c:] + lam_sq[k] * inv[c:]) * (lam_alpha[k] * dist_pow[c:]) - rhs_cell[c:])
        for k, c in enumerate(first.tolist())
    ]))
    scale = float(np.max(np.abs(rhs)))
    hyp_pass = hyp_worst <= HYPOTHESIS_TOL * max(1.0, scale)

    sc = np.linspace(-a, a, d)
    concl_gap = np.abs(h_prime(sc)) - (alpha / (2.0 * a)) * h(sc)
    concl_worst = float(np.max(concl_gap))
    concl_pass = concl_worst <= CONCLUSION_TOL

    return HLemmaReport(
        hypothesis_pass=hyp_pass,
        hypothesis_worst=hyp_worst,
        conclusion_pass=concl_pass,
        conclusion_worst=concl_worst,
        alpha=alpha,
        a=a,
    )


@dataclass(frozen=True)
class GradientBoundReport:
    hypothesis_pass: bool
    hypothesis_worst: float
    vacuous: bool
    conclusion_pass: bool | None
    conclusion_worst: float | None
    slack: float | None
    bound_coeff: float


GRADIENT_CENTERS = 24
GRADIENT_RADII = 12
GRADIENT_POINTS = 2048
GRADIENT_CONCLUSION_POINTS = 256
GRADIENT_HYPOTHESIS_TOL = 1e-10


def gradient_bound_check(u: ScalarField, a: float, seed: int = 0) -> GradientBoundReport:
    """Gradient bound from the moving-sphere hypothesis.

    Hypothesis: MSI sampled over GRADIENT_CENTERS centers x in B_{4a},
    GRADIENT_RADII radii 0 < lam < 2a and GRADIENT_POINTS comparison points
    in B_{8a}, up to GRADIENT_HYPOTHESIS_TOL. If it fails the conclusion is
    vacuous and not asserted. Otherwise asserts |grad u| <= ((n-2)/2a) u at
    GRADIENT_CONCLUSION_POINTS points of B_a with relative tolerance 1e-8,
    and reports the measured relative slack.
    """
    if not 0 < a < math.inf:
        raise DomainError(f"radius a = {a:g} must be positive and finite")
    n = u.n
    rng = make_rng(seed)
    centers = ball_points(rng, n, GRADIENT_CENTERS, radius=4.0 * a)
    ys = ball_points(rng, n, GRADIENT_POINTS, radius=8.0 * a)
    lams = 2.0 * a * (np.arange(1, GRADIENT_RADII + 1) / (GRADIENT_RADII + 1.0))

    # builtin max keeps the first of equal values and never adopts a NaN
    violations = np.concatenate([msi_violation(u, x, lams, ys) for x in centers])
    hyp_worst = max(-math.inf, *violations.tolist())
    hyp_pass = hyp_worst <= GRADIENT_HYPOTHESIS_TOL

    coeff = (n - 2.0) / (2.0 * a)
    # a failed hypothesis leaves the conclusion vacuous: nothing measured
    worst = slack = None
    if hyp_pass:
        pts = ball_points(rng, n, GRADIENT_CONCLUSION_POINTS, radius=a)
        val, g, _ = u.jet(pts)
        gn = np.sqrt(np.vecdot(g, g))
        bound = coeff * val
        worst = float(np.max((gn - bound) / bound))
        slack = float(np.min((bound - gn) / bound))
    return GradientBoundReport(
        hypothesis_pass=hyp_pass,
        hypothesis_worst=hyp_worst,
        vacuous=not hyp_pass,
        conclusion_pass=None if worst is None else worst <= 1e-8,
        conclusion_worst=worst,
        slack=slack,
        bound_coeff=coeff,
    )


# ---------------------------------------------------------------------------
# Harnack product with the explicit constant


def harnack_constant(n: int) -> int:
    """C(n) = 4^{n-2} (2^{n+6} n^4)^{n-2}, exact integer arithmetic."""
    if n < 3:
        raise DomainError("Harnack constant needs n >= 3")
    r = 2 ** (n + 6) * n**4
    return 4 ** (n - 2) * r ** (n - 2)


@dataclass(frozen=True)
class HarnackReport:
    P: float
    B: float
    rescaling_exactness: float
    sup_u: float
    inf_u: float

    @property
    def within_bound(self) -> bool:
        return self.P <= self.B

    def to_json_dict(self):
        return {
            "P": self.P,
            "B": self.B,
            "pass": self.within_bound,
            "rescaling_exactness": self.rescaling_exactness,
            "sup_u": self.sup_u,
            "inf_u": self.inf_u,
        }


def harnack_product(
    u: ScalarField,
    R: float,
    delta: float,
    sample_count: int = 4096,
    seed: int = 0,
) -> HarnackReport:
    """P = (sup_{B_R} u)(inf_{B_{2R}} u) against

        B = C(n) delta^{(2-n)/2} R^{2-n}.

    The rescaled field v(x) = delta^{(n-2)/4} R^{(n-2)/2} u(Rx) is evaluated
    at the same sample points mapped x -> Rx, so its unit-radius product
    equals delta^{(n-2)/2} R^{n-2} P up to rounding; the residual of that
    identity is reported as rescaling_exactness.
    """
    if not (0 < R < math.inf and 0 < delta < math.inf):
        raise DomainError(f"need finite R > 0 and delta > 0, got R={R:g}, delta={delta:g}")
    n = u.n
    rng = make_rng(seed)
    inner = ball_points(rng, n, sample_count, radius=R)
    outer = ball_points(rng, n, sample_count, radius=2.0 * R)
    sup_u = float(np.max(u.values(inner)))
    inf_u = float(np.min(u.values(outer)))
    P = sup_u * inf_u
    B = harnack_constant(n) * delta ** (0.5 * (2.0 - n)) * R ** (2.0 - n)

    pref = delta ** (0.25 * (n - 2.0)) * R ** (0.5 * (n - 2.0))
    # evaluate the rescaled field at the SAME samples, mapped x -> Rx
    unit_inner = inner / R
    unit_outer = outer / R
    sup_v = float(np.max(pref * u.values(R * unit_inner)))
    inf_v = float(np.min(pref * u.values(R * unit_outer)))
    rescaled_product = sup_v * inf_v
    exactness = abs(rescaled_product - delta ** (0.5 * (n - 2.0)) * R ** (n - 2.0) * P)

    return HarnackReport(
        P=P,
        B=float(B),
        rescaling_exactness=exactness,
        sup_u=sup_u,
        inf_u=inf_u,
    )
