"""Damped-Newton solver for f(lam(A)) = 1 on the circle-sphere product.

The background metric on S^1(L) x S^{n-1} has Schouten eigenvalues
(-1/2, 1/2, ..., 1/2). A conformal factor v depending only on the circle
coordinate produces two explicit eigenvalue branches, lambda_t once and
lambda_s n-1 times, which _product_spectrum computes with their partials in
(v, v', v''), so the discretized problem lives on a single periodic grid.
The homotopy f_t(lam) = f(t lam + (1-t) sigma_1(lam) e) connects a
semilinear t = 0 problem (solved from a constant start) to the full
operator at t = 1. The stage t is a number passed next to the operator:
every evaluation takes (op, t), with t = 1, the target, by default.

Every node spectrum has the two-cluster shape (lambda_t, lambda_s^{n-1}), so
residual, cone margin and Jacobian coefficients are array expressions of one
cones.two_cluster_kernel pass per grid (evaluate). The Newton step is solved
matrix-free by GMRES, right-preconditioned by the circulant with node-mean
coefficients, which is the exact Jacobian on the constant branch and is
inverted by FFT.

Existence is not certified: solutions are accepted only through residual and
cone gates.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .cones import CurvatureOperator, mu_star, sigma_k_order, two_cluster_kernel
from .errors import ConeError, ConvergenceError, DomainError, PositivityError

MIN_STEP = 1e-4
RESTORE_BISECTIONS = 20
RESTORE_INSET = 0.5
STAGNATION_WINDOW = 5
STAGNATION_DROP = 1e-3
FD_JACOBIAN_SCALE = 1e-6
# GMRES stops when its residual estimate falls to KRYLOV_RTOL times the
# right-hand side: near-exact Newton steps, so the quadratic tail is kept.
KRYLOV_RTOL = 1e-12
KRYLOV_MAX = 100
# Smallest admissible |mu_j| / max |mu_j| of the preconditioner symbol. Below
# it, a rounding error of eps max|mu| in the smallest mode is amplified to
# more than eps / 1e-12 = 2e-4 of that mode's step, so the step is noise
# there. On the constant branch the ratio is about 3e-7 at N = 1024, L = 1,
# and about 1e-17 at Schoen's degenerate length L* = 2 pi / sqrt(n - 2).
DEGENERATE_SYMBOL_RATIO = 1e-12
# Loosest accepted Newton tolerance on the sup-norm residual of f = 1. A
# looser one certifies nothing: for (n, k) = (5, 2) at tol 1 the t = 0 start
# already passes, with zero iterations, 2.4 away from the constant solution.
MAX_TOL = 1e-6
# Newton iterations one newton_solve may take before it reports no convergence.
MAX_NEWTON_ITERS = 40


def _norm(x) -> float:
    """Euclidean norm by np.add.reduce: no BLAS call, so the same bits at
    every BLAS thread count."""
    return math.sqrt(float(np.add.reduce(x * x)))


def derivative_symbols(N: int, L: float, scheme: str):
    """rfft-layout symbols (s1, s2) of d/dt and d^2/dt^2 on t_i = i L/N.

    Both schemes are circulant, so the symbol is all that defines them:
    spectral gives (ik, -k^2) with k = 2 pi j / L; fd4, the five-point
    stencil at theta = 2 pi j / N, gives i(8 sin theta - sin 2 theta)/(6h)
    and (32 cos theta - 2 cos 2 theta - 30)/(12 h^2). irfft drops the
    imaginary Nyquist part of s1, so the odd derivative loses that mode.
    """
    j = np.arange(N // 2 + 1)
    if scheme == "spectral":
        k = (2.0 * math.pi / L) * j
        return 1j * k, -(k**2)
    if scheme == "fd4":
        h = L / N
        theta = (2.0 * math.pi / N) * j
        s1 = 1j * (8.0 * np.sin(theta) - np.sin(2.0 * theta)) / (6.0 * h)
        s2 = (32.0 * np.cos(theta) - 2.0 * np.cos(2.0 * theta) - 30.0) / (12.0 * h * h)
        return s1, s2
    raise DomainError(f"unknown derivative scheme {scheme!r}")


@dataclass
class PeriodicGrid:
    """Positive nodal values on the uniform periodic grid t_i = i L/N."""

    L: float
    values: np.ndarray
    scheme: str = "spectral"
    symbols: tuple = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.L > 0 and math.isfinite(self.L)):
            raise DomainError(f"circle length L = {self.L:g} must be positive and finite")
        self.values = np.asarray(self.values, dtype=float).copy()
        N = len(self.values)
        if N < 8 or N & (N - 1):
            raise DomainError(f"node count N={N} must be a power of two, >= 8")
        if not np.all(self.values > 0):
            raise PositivityError("grid values must be strictly positive")
        self.symbols = derivative_symbols(N, self.L, self.scheme)

    @property
    def N(self) -> int:
        return len(self.values)

    def nodes(self) -> np.ndarray:
        return np.arange(self.N) * (self.L / self.N)

    def derivatives(self) -> tuple[np.ndarray, np.ndarray]:
        """Nodal (u', u'') as irfft(symbol * rfft(u - mean u)).

        Both symbols vanish on the constant mode. Removing the mean first
        keeps its rounding out of the other modes, so the rounding error
        scales with u - mean u rather than with ||u|| (eps N^2 ||u|| for
        d^2/dt^2, above the solver tolerance at N >= 256).
        """
        s1, s2 = self.symbols
        uhat = np.fft.rfft(self.values - np.mean(self.values))
        return np.fft.irfft(s1 * uhat, self.N), np.fft.irfft(s2 * uhat, self.N)

    def with_values(self, values) -> "PeriodicGrid":
        """The same grid (L, N, scheme and its symbols) with new values."""
        values = np.asarray(values, dtype=float).copy()
        if values.shape != self.values.shape:
            raise DomainError(f"expected {self.N} grid values, got shape {values.shape}")
        if not np.all(values > 0):
            raise PositivityError("grid values must be strictly positive")
        g = copy.copy(self)
        g.values = values
        return g


def product_background_eigenvalues(n: int) -> np.ndarray:
    """Schouten eigenvalues of the circle-sphere product metric:
    (-1/2, 1/2, ..., 1/2)."""
    return np.array([-0.5] + [0.5] * (n - 1))


def _product_spectrum(u, up, upp, n: int):
    """(lambda_t, lambda_s, partials) of the conformal Schouten tensor on
    S^1(L) x S^{n-1} for the factor u, elementwise: w T and w S with weight
    w = u^(-4/(n-2)) and brackets T = -c u''/u + b (u'/u)^2 - 1/2 and
    S = -q (u'/u)^2 + 1/2, c = 2/(n-2), b = 2(n-1)/(n-2)^2, q = 2/(n-2)^2.
    partials are (dt_dv, dt_dvp, dt_dvpp, ds_dv, ds_dvp), in (u, u', u'')."""
    e4, c = 4.0 / (n - 2), 2.0 / (n - 2)
    b, q = 2.0 * (n - 1) / (n - 2) ** 2, 2.0 / (n - 2) ** 2
    w = u ** (-e4)
    p2 = (up / u) ** 2
    T = -c * upp / u + b * p2 - 0.5
    S = -q * p2 + 0.5
    dt_dvpp = -c * w / u
    dt_dvp = w * (2.0 * b) * up / u**2
    dt_dv = -e4 * w / u * T + w * (c * upp / u**2 - 2.0 * b * up**2 / u**3)
    ds_dvp = -w * (2.0 * q) * up / u**2
    ds_dv = -e4 * w / u * S + w * (2.0 * q) * up**2 / u**3
    return w * T, w * S, (dt_dv, dt_dvp, dt_dvpp, ds_dv, ds_dvp)


def _node_kernel(op: CurvatureOperator, g: PeriodicGrid, t: float):
    """(lambda_t, lambda_s, partials) of _product_spectrum at every node,
    and the kernel (f_t, df_t/dlambda_t, sum of df_t/dlambda_s, cone margin)
    at stage t."""
    k = sigma_k_order(op, "two-cluster kernel")
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"homotopy parameter t={t} outside [0, 1]")
    lam_t, lam_s, partials = _product_spectrum(g.values, *g.derivatives(), op.n)
    return lam_t, lam_s, partials, two_cluster_kernel(k, t, op.n - 1, lam_t, lam_s)


@dataclass
class Linearisation:
    """Jacobian of the residual, J v = diag_v v + diag_vp D1 v + diag_vpp D2 v,
    with D1, D2 the circulants of the grid's derivative symbols.

    The solver applies it matrix-free; np.asarray(J) assembles the dense
    N x N matrix from the same coefficients, as an oracle for tests.
    """

    diag_v: np.ndarray
    diag_vp: np.ndarray
    diag_vpp: np.ndarray
    symbols: tuple

    def circulant_symbol(self) -> np.ndarray:
        """rfft-layout symbol of the circulant with node-mean coefficients.

        irfft drops the imaginary Nyquist part of D1's symbol, so D1 kills
        that mode and the symbol keeps only its real part there.
        """
        s1, s2 = self.symbols
        mu = (
            np.mean(self.diag_v)
            + np.mean(self.diag_vp) * s1
            + np.mean(self.diag_vpp) * s2
        )
        mu[-1] = mu[-1].real
        return mu

    def apply_preconditioned(self, v: np.ndarray, mu: np.ndarray) -> np.ndarray:
        """J P^{-1} v, with P the circulant of symbol mu, by one rfft and
        three irffts."""
        N = len(v)
        zhat = np.fft.rfft(v) / mu
        s1, s2 = self.symbols
        return (
            self.diag_v * np.fft.irfft(zhat, N)
            + self.diag_vp * np.fft.irfft(s1 * zhat, N)
            + self.diag_vpp * np.fft.irfft(s2 * zhat, N)
        )

    def __array__(self, dtype=None, copy=None):
        N = len(self.diag_v)
        s1, s2 = self.symbols
        # column j of a circulant is irfft(symbol) shifted down by j
        idx = np.subtract.outer(np.arange(N), np.arange(N)) % N
        D1 = np.fft.irfft(s1, N)[idx]
        D2 = np.fft.irfft(s2, N)[idx]
        J = np.diag(self.diag_v) + self.diag_vp[:, None] * D1 + self.diag_vpp[:, None] * D2
        return J if dtype is None else J.astype(dtype)


def evaluate(op: CurvatureOperator, g: PeriodicGrid, t: float = 1.0):
    """(residual, min cone margin, jacobian) of g for f_t from one two-cluster
    kernel pass, gated on cone membership at every node; the only evaluation
    newton_solve makes of a grid."""
    lam_t, lam_s, partials, (f, gt, Gs, margin) = _node_kernel(op, g, t)
    bad = np.flatnonzero(~(margin > 0.0))
    if bad.size:
        rows = zip(bad.tolist(), lam_t[bad].tolist(), lam_s[bad].tolist())
        raise ConeError(
            f"eigenvalues leave the cone at nodes {bad.tolist()}",
            witness=[(i, [a] + [b] * (op.n - 1)) for i, a, b in rows],
        )
    dt_dv, dt_dvp, dt_dvpp, ds_dv, ds_dvp = partials
    J = Linearisation(
        diag_v=gt * dt_dv + Gs * ds_dv,
        diag_vp=gt * dt_dvp + Gs * ds_dvp,
        diag_vpp=gt * dt_dvpp,
        symbols=g.symbols,
    )
    return f - 1.0, float(np.min(margin)), J


def residual(op: CurvatureOperator, g: PeriodicGrid, t: float = 1.0) -> np.ndarray:
    """Per-node f_t(lam) - 1, gated on cone membership at every node."""
    return evaluate(op, g, t)[0]


def jacobian(op: CurvatureOperator, g: PeriodicGrid, t: float = 1.0) -> Linearisation:
    """d(residual_i)/d(u_j) through the two eigenvalue branches, as the
    coefficients of v, v' and v'' at every node."""
    return evaluate(op, g, t)[2]


def _symbol_report(mu: np.ndarray) -> tuple[float, int, int]:
    """(min |mu_j| / max |mu_j|, negative modes, argmin j) of an rfft-layout
    circulant symbol. A mode is negative when Re mu_j < 0; modes 0 < j < N/2
    count twice, since mode N - j carries the conjugate symbol."""
    size = np.abs(mu)
    mode = int(np.argmin(size))
    mult = np.full(len(mu), 2)
    mult[0] = mult[-1] = 1
    negative = int(np.add.reduce(mult[mu.real < 0.0]))
    return float(size[mode] / np.max(size)), negative, mode


def gmres(J: Linearisation, b: np.ndarray, mu: np.ndarray) -> tuple[np.ndarray, int]:
    """Solve J x = b by GMRES from x = 0 (Saad and Schultz 1986), right-
    preconditioned by the circulant with symbol mu (compare T. Chan 1988).

    Classical Gram-Schmidt with one reorthogonalisation, Givens rotations on
    the Hessenberg columns. Every N-length reduction is np.add.reduce, so the
    iterates do not depend on the BLAS thread count. Stops when the Arnoldi
    residual estimate reaches KRYLOV_RTOL ||b||; after KRYLOV_MAX iterations
    raises ConvergenceError. Returns (x, iterations).
    """
    N = len(b)
    beta = _norm(b)
    if beta == 0.0:
        return np.zeros(N), 0
    V = np.empty((KRYLOV_MAX + 1, N))
    R = np.zeros((KRYLOV_MAX, KRYLOV_MAX))
    cs: list = []
    sn: list = []
    gvec = [beta]
    V[0] = b / beta
    for j in range(KRYLOV_MAX):
        w = J.apply_preconditioned(V[j], mu)
        basis = V[: j + 1]
        h = np.add.reduce(basis * w, axis=1)
        w = w - np.add.reduce(h[:, None] * basis, axis=0)
        h2 = np.add.reduce(basis * w, axis=1)
        w = w - np.add.reduce(h2[:, None] * basis, axis=0)
        hnext = _norm(w)
        col = (h + h2).tolist() + [hnext]
        for i in range(j):
            col[i], col[i + 1] = (
                cs[i] * col[i] + sn[i] * col[i + 1],
                -sn[i] * col[i] + cs[i] * col[i + 1],
            )
        rho = math.hypot(col[j], col[j + 1])
        if rho == 0.0:
            break
        cs.append(col[j] / rho)
        sn.append(col[j + 1] / rho)
        R[: j + 1, j] = col[: j + 1]
        R[j, j] = rho
        gvec.append(-sn[j] * gvec[j])
        gvec[j] *= cs[j]
        if abs(gvec[j + 1]) <= KRYLOV_RTOL * beta or hnext == 0.0:
            y = np.zeros(j + 1)
            for i in range(j, -1, -1):
                y[i] = (gvec[i] - np.add.reduce(R[i, i + 1 : j + 1] * y[i + 1 :])) / R[i, i]
            u = np.add.reduce(y[:, None] * V[: j + 1], axis=0)
            return np.fft.irfft(np.fft.rfft(u) / mu, N), j + 1
        V[j + 1] = w / hnext
    raise ConvergenceError(
        f"linear solve (GMRES) missed relative tolerance {KRYLOV_RTOL:g} "
        f"after {len(cs)} Krylov iterations "
        f"(residual estimate {abs(gvec[-1]) / beta:.3e} of ||b||)"
    )


def jacobian_fd(op: CurvatureOperator, g: PeriodicGrid, step: float | None = None):
    """Central-difference Jacobian oracle (step 1e-6 ||u||_inf by default)."""
    if step is None:
        step = FD_JACOBIAN_SCALE * float(np.max(np.abs(g.values)))
    N = g.N
    J = np.empty((N, N))
    for j in range(N):
        up = g.values.copy()
        dn = g.values.copy()
        up[j] += step
        dn[j] -= step
        J[:, j] = (residual(op, g.with_values(up)) - residual(op, g.with_values(dn))) / (
            2.0 * step
        )
    return J


def min_cone_margin(op: CurvatureOperator, g: PeriodicGrid, t: float = 1.0) -> float:
    """Smallest Gamma_k margin (min_j sigma_j of the spectrum mapped to stage
    t) over the nodes; negative when some node is off the cone."""
    return float(np.min(_node_kernel(op, g, t)[3][3]))


@dataclass
class NewtonRecord:
    t: float
    iter: int
    residual_inf: float
    step_norm: float
    min_cone_margin: float
    krylov_iters: int = 0
    symbol_ratio: float | None = None
    negative_modes: int | None = None
    restoration: dict | None = None

    def to_json_dict(self):
        out = {
            "t": self.t,
            "iter": self.iter,
            "residual_inf": self.residual_inf,
            "step_norm": self.step_norm,
            "min_cone_margin": self.min_cone_margin,
            "krylov_iters": self.krylov_iters,
            "symbol_ratio": self.symbol_ratio,
            "negative_modes": self.negative_modes,
        }
        if self.restoration is not None:
            out["restoration"] = self.restoration
        return out


def _restore_admissibility(
    op: CurvatureOperator, g0: PeriodicGrid, rejection: ConeError, t: float
) -> tuple[PeriodicGrid, tuple, float]:
    """Blend an off-cone start toward its mean until the residual is defined.

    u_s = (1 - s) u0 + s mean(u0) stays positive, and at s = 1 it is a
    constant, whose node eigenvalues are a positive multiple of the
    background ones, so it is admissible whenever the background is.
    Bisects (RESTORE_BISECTIONS halvings) for the smallest s whose cone
    margin is positive, then steps RESTORE_INSET of the remaining way toward
    the mean. Returns (grid, evaluate(op, grid, t), s). Re-raises ``rejection``
    when the mean itself is off the cone.
    """
    u0 = g0.values
    mean = float(np.mean(u0))

    def blend(s):
        return g0.with_values((1.0 - s) * u0 + s * mean)

    if not min_cone_margin(op, blend(1.0), t) > 0.0:
        raise rejection from None
    lo, hi = 0.0, 1.0
    for _ in range(RESTORE_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if min_cone_margin(op, blend(mid), t) > 0.0:
            hi = mid
        else:
            lo = mid
    s = hi + RESTORE_INSET * (1.0 - hi)
    g = blend(s)
    return g, evaluate(op, g, t), s


def newton_solve(
    op: CurvatureOperator,
    g0: PeriodicGrid,
    tol: float = 1e-10,
    t: float = 1.0,
    records: list | None = None,
) -> PeriodicGrid:
    """Damped Newton on f_t = 1 with admissibility restoration, residual
    backtracking and positivity clipping; records carry t as their stage.

    Restoration runs only when the residual of g0 is undefined because node
    eigenvalues leave the cone: _restore_admissibility blends g0 toward its
    mean until every node is admissible, and Newton starts from that blend
    (compare the restoration phase of Waechter and Biegler 2006). The
    iteration-0 record then carries ``restoration`` with the blend parameter
    s, the number of off-cone nodes of g0 and the cone margin of the
    restored start. If the mean of g0 is off the cone too, the original
    ConeError and its witness propagate.

    Each step solves J s = -r matrix-free by gmres, preconditioned by the
    node-mean circulant of J; the record of the iteration carries the
    Krylov iteration count and _symbol_report of that circulant. When its
    symbol ratio is below DEGENERATE_SYMBOL_RATIO the linearisation is
    degenerate (e.g. at Schoen's length L* for k = 1) and a ConvergenceError
    names the mode instead of dividing by it.

    Backtracking halves the step while the 2-norm of the residual does not
    decrease, down to step factor 1e-4; iterates are clipped to stay above
    0.1 min of the (restored) start. Raises a non-convergence error carrying
    the last iterate when the line search dies, the residual stagnates
    (< 1e-3 relative drop over 5 iterations), the linear solve misses its
    tolerance, or MAX_NEWTON_ITERS run out.
    """
    if not (tol > 0 and math.isfinite(tol)):
        raise DomainError(f"tolerance tol = {tol:g} must be positive and finite")
    if tol > MAX_TOL:
        raise DomainError(f"tolerance tol = {tol:g} is looser than {MAX_TOL:g}")
    g = g0.with_values(g0.values)
    restoration = None
    try:
        r, margin, J = evaluate(op, g, t)
    except ConeError as exc:
        g, (r, margin, J), s = _restore_admissibility(op, g, exc, t)
        restoration = {"blend": s, "off_cone_nodes": len(exc.witness), "cone_margin": margin}
    floor = 0.1 * float(np.min(g.values))
    norms = [_norm(r)]
    r_inf = float(np.max(np.abs(r)))
    if records is not None:
        records.append(
            NewtonRecord(
                t=t,
                iter=0,
                residual_inf=r_inf,
                step_norm=0.0,
                min_cone_margin=margin,
                restoration=restoration,
            )
        )

    while not r_inf <= tol:
        it = len(norms)  # norms holds one entry per iterate: this is step it
        if it > STAGNATION_WINDOW and norms[-1] > norms[-1 - STAGNATION_WINDOW] * (1 - STAGNATION_DROP):
            raise ConvergenceError(
                f"residual stagnated near {norms[-1]:.3e} "
                f"over {STAGNATION_WINDOW} iterations",
                iterate=g,
            )
        if it > MAX_NEWTON_ITERS:
            raise ConvergenceError(
                f"no convergence in {MAX_NEWTON_ITERS} iterations "
                f"(residual {r_inf:.3e})",
                iterate=g,
            )
        mu = J.circulant_symbol()
        ratio, negative, mode = _symbol_report(mu)
        if not ratio >= DEGENERATE_SYMBOL_RATIO:
            raise ConvergenceError(
                f"degenerate linearisation at iteration {it}: circulant mode "
                f"j={mode} has |mu|/max|mu| = {ratio:.3e} "
                f"< {DEGENERATE_SYMBOL_RATIO:g} (L = {g.L:g}, N = {g.N})",
                iterate=g,
            )
        try:
            step, krylov = gmres(J, -r, mu)
        except ConvergenceError as exc:
            raise ConvergenceError(f"{exc} at Newton iteration {it}", iterate=g) from exc

        alpha = 1.0
        while alpha >= MIN_STEP:
            cand = np.maximum(g.values + alpha * step, floor)
            try:
                g_new = g.with_values(cand)
                ev = evaluate(op, g_new, t)
            except (ConeError, PositivityError):
                alpha *= 0.5
                continue
            norm_new = _norm(ev[0])
            if norm_new < norms[-1]:
                break
            alpha *= 0.5
        else:
            raise ConvergenceError(
                f"line search failed at iteration {it} "
                f"(residual {norms[-1]:.3e})",
                iterate=g,
            )
        g, (r, margin, J) = g_new, ev
        norms.append(norm_new)
        r_inf = float(np.max(np.abs(r)))
        if records is not None:
            records.append(
                NewtonRecord(
                    t=t,
                    iter=it,
                    residual_inf=r_inf,
                    step_norm=_norm(alpha * step),
                    min_cone_margin=margin,
                    krylov_iters=krylov,
                    symbol_ratio=ratio,
                    negative_modes=negative,
                )
            )
    return g


def c_star(op: CurvatureOperator) -> float:
    """Constant solution c* = f(lam(A_g))^{(n-2)/4} for degree-1 operators."""
    n = op.n
    val = op.f(product_background_eigenvalues(n))
    return val ** (0.25 * (n - 2.0))


def constant_start(op: CurvatureOperator) -> float:
    """Constant solving the t = 0 semilinear problem f(sigma_1(lam) e) = 1."""
    n = op.n
    s1 = float(np.sum(product_background_eigenvalues(n)))
    if not s1 > 0:
        raise DomainError("background sigma_1 must be positive for the t=0 start")
    return (s1 / mu_star(op)) ** (0.25 * (n - 2.0))


@dataclass
class StepSummary:
    t: float
    iterations: int
    residual_inf: float
    min_cone_margin: float
    krylov_iters: int = 0
    symbol_ratio: float | None = None
    negative_modes: int | None = None


@dataclass
class ContinuationResult:
    status: str
    c0: float
    t_values: list
    steps: list = dc_field(default_factory=list)
    records: list = dc_field(default_factory=list)
    final: PeriodicGrid | None = None
    failure: str = ""

    def to_json_dict(self):
        return {
            "status": self.status,
            "c0": self.c0,
            "t_values": list(self.t_values),
            "steps": list(self.steps),
            "failure": self.failure,
        }


# Most homotopy stages of a path. A stage is at least one Newton solve: about
# 1 ms at N = 64 and 2 ms at N = 256 on the constant branch of (n, k) =
# (5, 2) on a 2-core Xeon VM, so 10 000 stages take 10-20 s there.
MAX_T_STEPS = 10000
# Largest grid. The default path at (n, k) = (5, 2) takes about 5.5 s and a
# peak of 115 MiB at N = 2^18 on a 2-core Xeon VM, both growing about
# linearly in N; N = 2^40 fails to allocate its first grid.
MAX_NODES = 2**18


def continuation(
    op: CurvatureOperator,
    L: float,
    N: int,
    t_steps: int = 11,
    tol: float = 1e-10,
    scheme: str = "spectral",
) -> ContinuationResult:
    """Homotopy path from the semilinear t = 0 problem to f at t = 1.

    Starts each Newton solve from the previous step's solution (constant
    c0 at t = 0). The trace carries every Newton iteration; a failed step
    truncates the path with diagnostics instead of guessing. Each step's
    summary comes from its last Newton record; symbol_ratio and
    negative_modes are None for a step whose start already met tol.
    """
    if t_steps < 2:
        raise DomainError("t_steps must be at least 2")
    if t_steps > MAX_T_STEPS:
        raise DomainError(f"t_steps {t_steps} is above the cap {MAX_T_STEPS}")
    if N > MAX_NODES:
        raise DomainError(f"node count N={N} is above the cap {MAX_NODES}")
    lam = product_background_eigenvalues(op.n)
    if not op.cone.contains(lam):
        raise DomainError(
            "background eigenvalues "
            f"{lam.tolist()} are not admissible for {op.name}; "
            "this (n, k) pairing has no cone interior to work in"
        )
    c0 = constant_start(op)
    grid = PeriodicGrid(L=L, values=np.full(N, c0), scheme=scheme)
    t_values = [i / (t_steps - 1) for i in range(t_steps)]
    result = ContinuationResult(status="ok", c0=c0, t_values=t_values)

    for t in t_values:
        recs: list = []
        try:
            grid = newton_solve(op, grid, tol=tol, t=t, records=recs)
        except (ConvergenceError, ConeError) as exc:
            result.records.extend(recs)
            result.status = f"failed_at_t={t:g}"
            result.failure = str(exc)
            it = getattr(exc, "iterate", None)
            if isinstance(it, PeriodicGrid):
                result.final = it
            return result
        result.records.extend(recs)
        # the last record describes the returned grid
        last = recs[-1]
        result.steps.append(
            StepSummary(
                t=t,
                iterations=last.iter,
                residual_inf=last.residual_inf,
                min_cone_margin=last.min_cone_margin,
                krylov_iters=sum(rec.krylov_iters for rec in recs),
                symbol_ratio=last.symbol_ratio,
                negative_modes=last.negative_modes,
            )
        )

    result.final = grid
    return result
