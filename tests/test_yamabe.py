"""Periodic continuation solver on the circle-sphere product: residual,
Jacobian, Newton, and the homotopy path."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import conforma
from conforma import yamabe
from conforma.cones import homogenize, make_sigma_k_operator, two_cluster_kernel
from conforma.errors import ConeError, ConvergenceError, DomainError
from conforma.yamabe import (
    PeriodicGrid,
    c_star,
    constant_start,
    continuation,
    derivative_symbols,
    gmres,
    jacobian,
    jacobian_fd,
    min_cone_margin,
    newton_solve,
    product_background_eigenvalues,
    residual,
)
from helpers import (
    continuation_previous_start,
    eigen_partials,
    homotopy_operator,
    jacobian_coefficients_loop,
    load_workloads,
    min_cone_margin_loop,
    product_eigenvalues,
    residual_loop,
)

N = 64
L = 1.0
OP = make_sigma_k_operator(5, 2)
CS = c_star(OP)


def constant_grid(c, n_nodes=N, scheme="spectral"):
    return PeriodicGrid(L=L, values=np.full(n_nodes, float(c)), scheme=scheme)


def sinusoid_grid(c, eps, n_nodes=N):
    t = PeriodicGrid(L=L, values=np.full(n_nodes, c)).nodes()
    return PeriodicGrid(L=L, values=c * (1.0 + eps * np.sin(2.0 * np.pi * t / L)))


def test_c_star_closed_form():
    # f(lam) scales with u^{-4/(n-2)}: the constant solution is
    # f(lam_bg)^{(n-2)/4}, which is 2^{-3/8} for sigma_2^{1/2} at n=5
    assert CS == pytest.approx(2.0 ** -0.375, rel=1e-14)
    assert c_star(make_sigma_k_operator(4, 1)) == pytest.approx(1.0, rel=1e-14)


def test_constant_background_residual_vanishes():
    r = residual(OP, constant_grid(CS))
    assert np.max(np.abs(r)) <= 1e-11
    # u = 1 solves the n=4, k=1 equation exactly
    r41 = residual(make_sigma_k_operator(4, 1), constant_grid(1.0, 32))
    assert np.max(np.abs(r41)) <= 1e-12


@pytest.mark.parametrize("scheme", ["spectral", "fd4"])
@pytest.mark.parametrize("n_nodes", [256, 512, 1024])
def test_constant_residual_has_no_rounding_floor(scheme, n_nodes):
    # the exact constant solves the discrete problem at every N: rounding
    # that grows like eps N^2 ||u|| in u'' would pass 1e-10 from N = 256 on
    r = residual(OP, constant_grid(CS, n_nodes, scheme))
    assert np.max(np.abs(r)) <= 1e-12


def _fd4_stencils(u, h):
    d1 = (-np.roll(u, -2) + 8.0 * np.roll(u, -1) - 8.0 * np.roll(u, 1) + np.roll(u, 2)) / (
        12.0 * h
    )
    d2 = (
        -np.roll(u, -2) + 16.0 * np.roll(u, -1) - 30.0 * u + 16.0 * np.roll(u, 1) - np.roll(u, 2)
    ) / (12.0 * h * h)
    return d1, d2


@pytest.mark.parametrize("scheme", ["spectral", "fd4"])
def test_derivatives_of_trig_polynomial(scheme):
    # each scheme maps cos/sin(2 pi m t / L) to the mode times its symbol:
    # d/dt has symbol i g(m), d^2/dt^2 the real s(m), with g = 2 pi m / L,
    # s = -g^2 (spectral) or the five-point stencil's values at
    # theta = 2 pi m / N (fd4)
    n_nodes, length = 64, 2.0
    h = length / n_nodes
    g = PeriodicGrid(L=length, values=np.ones(n_nodes), scheme=scheme)
    t = g.nodes()
    modes = {1: (0.3, -0.2), 3: (0.1, 0.05), 7: (-0.02, 0.04), n_nodes // 2: (0.01, 0.0)}
    u = np.full(n_nodes, 2.0)
    du = np.zeros(n_nodes)
    d2u = np.zeros(n_nodes)
    for m, (a, b) in modes.items():
        w = 2.0 * np.pi * m / length
        theta = 2.0 * np.pi * m / n_nodes
        if scheme == "spectral":
            g1, s2 = w, -(w**2)
        else:
            g1 = (8.0 * np.sin(theta) - np.sin(2.0 * theta)) / (6.0 * h)
            s2 = (32.0 * np.cos(theta) - 2.0 * np.cos(2.0 * theta) - 30.0) / (12.0 * h * h)
        c, s = np.cos(w * t), np.sin(w * t)
        u += a * c + b * s
        du += g1 * (b * c - a * s)
        d2u += s2 * (a * c + b * s)
    up, upp = g.with_values(u).derivatives()
    assert np.max(np.abs(up - du)) <= 1e-12 * np.max(np.abs(du))
    assert np.max(np.abs(upp - d2u)) <= 1e-12 * np.max(np.abs(d2u))
    if scheme == "fd4":
        # the symbol is that of the five-point stencil, on any grid function
        v = 1.0 + np.random.default_rng(3).random(n_nodes)
        want1, want2 = _fd4_stencils(v, h)
        got1, got2 = g.with_values(v).derivatives()
        assert np.max(np.abs(got1 - want1)) <= 1e-12 * np.max(np.abs(want1))
        assert np.max(np.abs(got2 - want2)) <= 1e-12 * np.max(np.abs(want2))
    with pytest.raises(DomainError):
        derivative_symbols(n_nodes, length, "fd9")


def test_product_background_eigenvalues():
    for n in (3, 5, 8):
        lam = product_background_eigenvalues(n)
        assert lam[0] == -0.5
        assert np.all(lam[1:] == 0.5)
        assert lam.shape == (n,)


def test_product_eigenvalues_constant_factor():
    # a constant factor only rescales the background eigenvalues
    n = 5
    for c in (0.5, 1.0, 2.3):
        g = constant_grid(c)
        lam_t, lam_s, _ = yamabe._product_spectrum(g.values, *g.derivatives(), n)
        target = c ** (-4.0 / (n - 2)) * product_background_eigenvalues(n)
        assert np.allclose(lam_t, target[0], rtol=1e-14)
        assert np.allclose(lam_s, target[1], rtol=1e-14)


@pytest.mark.parametrize("scheme", ["spectral", "fd4"])
@pytest.mark.parametrize("n", range(3, 13))
def test_product_spectrum_matches_oracle(n, scheme):
    t = constant_grid(1.0).nodes()
    g = PeriodicGrid(
        L=L,
        values=1.0 + 0.3 * np.sin(2.0 * np.pi * t / L) + 0.1 * np.cos(6.0 * np.pi * t / L),
        scheme=scheme,
    )
    u, (up, upp) = g.values, g.derivatives()
    lam_t, lam_s, partials = yamabe._product_spectrum(u, up, upp, n)
    rows = product_eigenvalues(u, up, upp, n)
    assert lam_t.tolist() == rows[:, 0].tolist()
    assert lam_s.tolist() == rows[:, 1].tolist()
    # the partials may differ from the oracle's only by the rounding of
    # 2(n-1)/(n-2)^2 against (2/(n-2))(n-1)/(n-2): a few ulp of each term
    e4, c = 4.0 / (n - 2), 2.0 / (n - 2)
    b, q = 2.0 * (n - 1) / (n - 2) ** 2, 2.0 / (n - 2) ** 2
    p2, wu = (up / u) ** 2, u ** (-e4) / u
    want = eigen_partials(u, up, upp, n)
    scales = (
        wu * ((e4 + 1.0) * c * np.abs(upp / u) + (e4 + 2.0) * b * p2 + 0.5 * e4),
        np.abs(want[1]),
        np.abs(want[2]),
        wu * ((e4 + 2.0) * q * p2 + 0.5 * e4),
        np.abs(want[4]),
    )
    eps = np.finfo(float).eps
    for got, ref, scale in zip(partials, want, scales):
        assert np.all(np.abs(got - ref) <= 8.0 * eps * scale)


def test_node_eigenvalues_at_constant():
    g = constant_grid(2.0)
    lam_t, lam_s, _ = yamabe._product_spectrum(g.values, *g.derivatives(), 5)
    target = 2.0 ** (-4.0 / 3.0) * product_background_eigenvalues(5)
    assert np.max(np.abs(lam_t - target[0])) <= 1e-12
    assert np.max(np.abs(lam_s - target[1])) <= 1e-12


def test_background_admissibility_gate():
    def admissible(op):
        return op.cone.contains(product_background_eigenvalues(op.n))

    assert admissible(OP)
    assert admissible(make_sigma_k_operator(4, 1))
    # sigma_2 at n=4 rejects the product background
    assert not admissible(make_sigma_k_operator(4, 2))
    with pytest.raises(DomainError):
        continuation(make_sigma_k_operator(4, 2), L=1.0, N=16)


def test_residual_raises_off_cone_with_witness():
    g = sinusoid_grid(CS, 0.1)
    with pytest.raises(ConeError) as err:
        residual(OP, g)
    assert "nodes" in str(err.value)
    assert err.value.witness  # list of (node index, eigenvalue list)
    idx, lam = err.value.witness[0]
    assert 0 <= idx < N and len(lam) == 5


def test_admissibility_threshold_for_sinusoids():
    # bisected cone-entry thresholds for c*(1 + eps sin): the 10 percent
    # perturbation is far outside, 0.5 percent is comfortably inside
    ok = sinusoid_grid(CS, 0.005)
    assert np.all(np.isfinite(residual(OP, ok)))
    assert min_cone_margin(OP, ok) > 0.0
    with pytest.raises(ConeError):
        residual(OP, sinusoid_grid(CS, 0.0095))


def test_jacobian_matches_fd_small_step():
    # entries reach 2e4, so the meaningful gap is relative to max|J|;
    # step 1e-8 keeps the O(step^2) truncation near 1e-7
    for g in (constant_grid(CS), sinusoid_grid(CS, 0.005)):
        J = jacobian(OP, g)
        Jfd = jacobian_fd(OP, g, step=1e-8)
        gap = np.max(np.abs(J - Jfd)) / np.max(np.abs(J))
        assert gap <= 1e-5, gap


def test_jacobian_fd_default_step_regime():
    # the default step 1e-6 max|u| sits in the truncation-dominated regime:
    # the relative gap is O(step^2) near 3e-4, shrinking 100x at step 1e-7
    g = constant_grid(CS)
    J = jacobian(OP, g)
    scale = np.max(np.abs(J))
    gap6 = np.max(np.abs(J - jacobian_fd(OP, g))) / scale
    gap7 = np.max(np.abs(J - jacobian_fd(OP, g, step=1e-7))) / scale
    assert 1e-5 <= gap6 <= 2e-3
    assert gap7 <= 0.02 * gap6


def test_jacobian_circulant_at_constant():
    # at a constant state the problem is translation invariant, so J is
    # circulant; fd4 coefficients make this exact, spectral ones are
    # circulant to relative roundoff
    g4 = constant_grid(CS, scheme="fd4")
    J4 = np.asarray(jacobian(OP, g4))
    rows = np.array([np.roll(J4[i], -i) for i in range(N)])
    assert np.max(np.abs(rows - rows[0])) == 0.0

    g = constant_grid(CS)
    J = np.asarray(jacobian(OP, g))
    rows = np.array([np.roll(J[i], -i) for i in range(N)])
    asym = np.max(np.abs(rows - rows[0]))
    assert asym <= 1e-10 * np.max(np.abs(J))


@pytest.mark.parametrize("scheme", ["spectral", "fd4"])
def test_jacobian_spectrum_matches_symbol_at_constant(scheme):
    # at c* the Jacobian is the circulant with symbol diag_v + diag_vpp s2(j):
    # diag_v = -(4/(n-2)) / c* (f = 1 there), diag_vpp = df/dlam_t times
    # dlam_t/dv'' = -(2/(n-2)) c*^{-4/(n-2)-1}, and the v' term vanishes
    n = 5
    g = constant_grid(CS, scheme=scheme)
    lam = product_background_eigenvalues(n) * CS ** (-4.0 / (n - 2))
    diag_v = -(4.0 / (n - 2)) / CS
    diag_vpp = OP.grad_f(lam)[0] * (-2.0 / (n - 2)) * CS ** (-4.0 / (n - 2) - 1.0)
    if scheme == "spectral":
        s2 = -((2.0 * np.pi / L) * np.fft.fftfreq(N, d=1.0 / N)) ** 2
    else:
        h = L / N
        theta = 2.0 * np.pi * np.arange(N) / N
        s2 = (32.0 * np.cos(theta) - 2.0 * np.cos(2.0 * theta) - 30.0) / (12.0 * h * h)
    want = np.sort(diag_v + diag_vpp * s2)
    got = np.linalg.eigvals(np.asarray(jacobian(OP, g)))
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got.imag)) <= 1e-10 * scale
    assert np.max(np.abs(np.sort(got.real) - want)) <= 1e-10 * scale


def test_jacobian_row_sums_at_constant():
    # derivative of c -> F(c) along constants: -(4/(n-2)) c^{-4/(n-2)-1} f(lam_bg)
    g = constant_grid(CS)
    J = np.asarray(jacobian(OP, g))
    n = 5
    expected = (-4.0 / (n - 2)) * CS ** (-4.0 / (n - 2) - 1.0) * (
        OP.f(product_background_eigenvalues(n))
    )
    assert np.max(np.abs(J.sum(axis=1) - expected)) <= 1e-8


WORKLOAD_NK = [(5, 1), (5, 2), (6, 2), (7, 3)]


@pytest.mark.parametrize("scheme", ["spectral", "fd4"])
@pytest.mark.parametrize("t", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("n,k", WORKLOAD_NK)
def test_closed_form_matches_loop_oracle(n, k, t, scheme):
    # the stage-t two-cluster kernel against per-node loops over the
    # one-vector f_t, its gradient and cone margin: 1e-12 relative on an
    # admissible grid, and the same rejected nodes, message and witnesses on
    # a grid that leaves the cone
    op = make_sigma_k_operator(n, k)
    op_t = op if t == 1.0 else homotopy_operator(op, t)
    cs = c_star(op)
    g = constant_grid(cs, scheme=scheme)
    x = g.nodes()
    wave = np.sin(2.0 * np.pi * x / L) + 0.4 * np.cos(6.0 * np.pi * x / L)

    on = g.with_values(cs * (1.0 + 0.002 * wave))
    want = residual_loop(op_t, on)
    assert np.max(np.abs(residual(op, on, t) - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
    J = jacobian(op, on, t)
    coeffs, scales = jacobian_coefficients_loop(op_t, on)
    for got, ref, scale in zip((J.diag_v, J.diag_vp, J.diag_vpp), coeffs, scales):
        assert np.all(np.abs(got - ref) <= 1e-12 * scale)
    margin = min_cone_margin_loop(op_t, on)
    assert margin > 0.0
    assert abs(min_cone_margin(op, on, t) - margin) <= 1e-12 * margin

    off = g.with_values(cs * (1.0 + 0.3 * wave))
    with pytest.raises(ConeError) as ref_err:
        residual_loop(op_t, off)
    with pytest.raises(ConeError) as err:
        residual(op, off, t)
    assert str(err.value) == str(ref_err.value)
    assert err.value.witness == ref_err.value.witness
    with pytest.raises(ConeError):
        jacobian(op, off, t)
    assert min_cone_margin(op, off, t) < 0.0


def test_yamabe_does_not_import_radial():
    # the sigma_k closed forms yamabe needs (mu*, the order guard) live in cones
    src = str(Path(conforma.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, conforma.yamabe; print('conforma.radial' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_closed_form_needs_two_cluster_operator():
    # the closed form needs a recorded sigma_k order, at every stage t in
    # [0, 1]; other operators and stages outside [0, 1] are refused
    deg1 = homogenize(OP)
    assert deg1.sigma_order is None
    g = constant_grid(CS, 16)
    for fn in (residual, jacobian, min_cone_margin):
        for t in (0.0, 0.3, 1.0):
            with pytest.raises(DomainError, match="needs a sigma_k operator"):
                fn(deg1, g, t)
        for t in (-0.1, 1.5, float("nan")):
            with pytest.raises(DomainError):
                fn(OP, g, t)
    with pytest.raises(DomainError):
        newton_solve(OP, g, t=1.5)


def test_newton_is_matrix_free(monkeypatch):
    # no dense solve and no per-node f / grad_f call on the Newton path; on
    # the constant branch the circulant preconditioner is exact, so each
    # Newton step takes one Krylov iteration
    def forbidden(*args, **kwargs):
        raise AssertionError("dense solve called")

    monkeypatch.setattr(np.linalg, "solve", forbidden)
    calls = []

    def counted(fn):
        def wrapper(lam):
            calls.append(1)
            return fn(lam)

        return wrapper

    op = dataclasses.replace(OP, f=counted(OP.f), grad_f=counted(OP.grad_f))
    res = continuation(op, L=L, N=N, t_steps=11, tol=1e-10)
    assert res.status == "ok"
    assert all(rec.krylov_iters == min(rec.iter, 1) for rec in res.records)
    assert all("krylov_iters" in rec.to_json_dict() for rec in res.records)
    records = []
    newton_solve(op, sinusoid_grid(CS, 0.005), tol=1e-10, records=records)
    assert records[1].krylov_iters > 1
    assert calls == []


@pytest.mark.parametrize("scheme", ["spectral", "fd4"])
def test_gmres_matches_dense_solve(scheme):
    g = constant_grid(CS, scheme=scheme)
    x = g.nodes()
    u = CS * (1.0 + 0.004 * np.sin(2.0 * np.pi * x / L) + 0.0005 * np.cos(6.0 * np.pi * x / L))
    J = jacobian(OP, g.with_values(u))
    dense = np.asarray(J)
    b = np.random.default_rng(5).normal(size=N)
    x, iters = gmres(J, b, J.circulant_symbol())
    assert 1 < iters < yamabe.KRYLOV_MAX
    want = np.linalg.solve(dense, b)
    assert np.max(np.abs(x - want)) <= 1e-9 * np.max(np.abs(want))
    assert np.max(np.abs(dense @ x - b)) <= 1e-9 * np.max(np.abs(b))
    assert gmres(J, np.zeros(N), J.circulant_symbol())[1] == 0


@pytest.mark.parametrize("scheme", ["spectral", "fd4"])
def test_circulant_symbol_is_the_constant_branch_spectrum(scheme):
    # at a constant grid J is the circulant itself: its symbol over the full
    # spectrum is J's eigenvalues, and GMRES needs one iteration
    g = constant_grid(CS, scheme=scheme)
    J = jacobian(OP, g)
    mu = J.circulant_symbol()
    full = np.concatenate([mu, np.conj(mu[-2:0:-1])])
    got = np.linalg.eigvals(np.asarray(J))
    scale = np.max(np.abs(full))
    assert np.max(np.abs(np.sort(got.real) - np.sort(full.real))) <= 1e-10 * scale
    assert gmres(J, np.random.default_rng(1).normal(size=N), mu)[1] == 1


def test_krylov_cap_raises_naming_linear_solve(monkeypatch):
    monkeypatch.setattr(yamabe, "KRYLOV_MAX", 2)
    with pytest.raises(ConvergenceError) as err:
        newton_solve(OP, sinusoid_grid(CS, 0.005), tol=1e-10)
    assert "linear solve" in str(err.value)
    assert "Newton iteration 1" in str(err.value)
    assert isinstance(err.value.iterate, PeriodicGrid)


def test_step_summary_is_the_last_newton_record():
    res = continuation(OP, L=L, N=N, t_steps=6, tol=1e-10, scheme="fd4")
    assert res.status == "ok"
    for step in res.steps:
        recs = [rec for rec in res.records if rec.t == step.t]
        assert step.iterations == recs[-1].iter == len(recs) - 1
        assert step.residual_inf == recs[-1].residual_inf
        assert step.min_cone_margin == recs[-1].min_cone_margin
        assert step.krylov_iters == sum(rec.krylov_iters for rec in recs)
        assert step.symbol_ratio == recs[-1].symbol_ratio
    # evaluated afresh on the returned grid at t = 1, the same bits
    assert res.steps[-1].residual_inf == float(np.max(np.abs(residual(OP, res.final))))
    assert res.steps[-1].min_cone_margin == min_cone_margin(OP, res.final)
    # the exact t = 0 start needs no linearisation
    assert res.steps[0].iterations == 0 and res.steps[0].symbol_ratio is None
    assert all(s.symbol_ratio > yamabe.DEGENERATE_SYMBOL_RATIO for s in res.steps[1:])
    assert all(s.negative_modes == 1 for s in res.steps[1:])


@pytest.mark.parametrize("n", [5, 6])
def test_degenerate_linearisation_at_schoen_length(n):
    # k = 1: the constant branch bifurcates at L* = 2 pi / sqrt(n - 2), where
    # the circulant mode j = 1 of the linearisation vanishes (Schoen 1989)
    op = make_sigma_k_operator(n, 1)
    l_star = 2.0 * np.pi / np.sqrt(n - 2.0)
    res = continuation(op, L=l_star, N=N, t_steps=11, tol=1e-10)
    assert res.status.startswith("failed_at_t=")
    assert "degenerate linearisation" in res.failure
    assert "j=1 " in res.failure
    for scale, negative in ((0.97, 1), (1.03, 3)):
        res = continuation(op, L=scale * l_star, N=N, t_steps=11, tol=1e-10)
        assert res.status == "ok", res.failure
        assert res.steps[-1].negative_modes == negative
        assert res.steps[-1].symbol_ratio > 1e-6


def test_a_start_that_meets_tol_still_checks_its_linearisation():
    # (6, 1): c_t is affine in t, so from t = 0.2 on the secant start meets
    # tol; those stages take no step and report their start's symbol
    op = make_sigma_k_operator(6, 1)
    l_star = 2.0 * np.pi / np.sqrt(6 - 2.0)
    res = continuation(op, L=0.97 * l_star, N=N, t_steps=11, tol=1e-10)
    assert res.status == "ok", res.failure
    exact = [s for s in res.steps[1:] if s.iterations == 0]
    assert len(exact) >= 8
    for step in exact:
        [rec] = [rec for rec in res.records if rec.t == step.t]
        assert step.symbol_ratio == rec.symbol_ratio > 1e-6
        assert step.negative_modes == rec.negative_modes == 1
    # the exact constant at L* itself is a degenerate solution: refused at
    # iteration 0 rather than returned
    g = PeriodicGrid(L=l_star, values=np.full(N, c_star(op)))
    with pytest.raises(ConvergenceError, match="degenerate linearisation at iteration 0: circulant mode j=1 "):
        newton_solve(op, g, tol=1e-10)
    # at t = 0 the exact start reports no symbol
    records = []
    newton_solve(op, g.with_values(np.full(N, constant_start(op))), tol=1e-10, t=0.0,
                 records=records)
    assert [rec.symbol_ratio for rec in records] == [None]


@pytest.mark.parametrize("n", [5, 6])
def test_oracle_jacobian_singular_at_schoen_length(n):
    op = make_sigma_k_operator(n, 1)
    l_star = 2.0 * np.pi / np.sqrt(n - 2.0)
    ratios = []
    for length in (l_star, 1.05 * l_star):
        g = PeriodicGrid(L=length, values=np.full(N, c_star(op)))
        eig = np.abs(np.linalg.eigvals(np.asarray(jacobian(op, g))))
        ratios.append(np.min(eig) / np.max(eig))
    assert ratios[0] <= 1e-12
    assert ratios[1] >= 1e-5


def test_newton_converges_from_small_sinusoid():
    records = []
    sol = newton_solve(OP, sinusoid_grid(CS, 0.005), tol=1e-10, records=records)
    assert np.max(np.abs(sol.values - CS)) <= 1e-6
    iters = records[-1].iter
    assert iters <= 12
    # quadratic tail: the last contraction is at least power-1.8 efficient,
    # except that the residual bottoms out near 1.5e-11 (roundoff floor of the
    # assembled residual at N=64), so the bound is cut off there
    r_prev = records[-2].residual_inf
    r_last = records[-1].residual_inf
    assert r_last <= max(3.4 * r_prev**1.8, 2e-11)
    assert records[0].step_norm == 0.0
    assert all(rec.min_cone_margin > 0.0 for rec in records)
    # an admissible start is solved as given: no restoration entry
    assert all("restoration" not in rec.to_json_dict() for rec in records)


def test_newton_exact_start_returns_immediately():
    records = []
    sol = newton_solve(OP, constant_grid(CS), tol=1e-10, records=records)
    assert np.max(np.abs(sol.values - CS)) <= 1e-12
    assert records[-1].iter <= 1
    assert all("restoration" not in rec.to_json_dict() for rec in records)


@pytest.mark.parametrize("scheme", ["spectral", "fd4"])
@pytest.mark.parametrize(
    "start",
    [
        lambda c, t: c * (1.0 + 0.1 * np.sin(2.0 * np.pi * t / L)),
        lambda c, t: 2.0 * c * (1.0 + 0.5 * np.sin(2.0 * np.pi * t / L)),
        lambda c, t: c * (1.0 + 0.2 * np.cos(6.0 * np.pi * t / L)),
        lambda c, t: c * (1.0 + np.random.default_rng(7).normal(0.0, 0.05, len(t))),
    ],
    ids=["sin10", "sin50_2c", "cos3", "noise"],
)
def test_newton_restores_off_cone_start(scheme, start):
    g = constant_grid(CS, scheme=scheme)
    g0 = g.with_values(start(CS, g.nodes()))
    with pytest.raises(ConeError) as err:
        residual(OP, g0)
    records = []
    sol = newton_solve(OP, g0, tol=1e-10, records=records)
    assert np.max(np.abs(sol.values - CS)) <= 1e-9
    rest = records[0].to_json_dict()["restoration"]
    assert rest["off_cone_nodes"] == len(err.value.witness) > 0
    assert 0.0 < rest["blend"] < 1.0
    assert rest["cone_margin"] == records[0].min_cone_margin > 0.0
    assert all(rec.restoration is None for rec in records[1:])


def _kernel_passes(monkeypatch):
    """Record (stage t, grid bytes) of every two-cluster kernel pass."""
    seen = []
    kernel = yamabe._node_kernel

    def recorded(op, g, t):
        seen.append((t, g.values.tobytes()))
        return kernel(op, g, t)

    monkeypatch.setattr(yamabe, "_node_kernel", recorded)
    return seen


@pytest.mark.parametrize("n, k", [(5, 2), (7, 3)])
def test_continuation_evaluates_each_grid_once(monkeypatch, n, k):
    # residual, record margin and the next Jacobian share one kernel pass
    seen = _kernel_passes(monkeypatch)
    res = continuation(make_sigma_k_operator(n, k), L=L, N=N, t_steps=11, tol=1e-10)
    assert res.status == "ok"
    assert len(set(seen)) == len(seen) >= len(res.records)


def test_restoration_evaluates_each_grid_once(monkeypatch):
    seen = _kernel_passes(monkeypatch)
    g = constant_grid(CS)
    g0 = g.with_values(CS * (1.0 + 0.1 * np.sin(2.0 * np.pi * g.nodes() / L)))
    records = []
    newton_solve(OP, g0, tol=1e-10, records=records)
    # the start, the mean, the bisected blends and the restored grid
    assert len(set(seen)) == len(seen) > 3 + yamabe.RESTORE_BISECTIONS
    # pinned bits: the margin probe makes the gated residual's blend decisions
    rest = records[0].restoration
    assert list(rest) == ["blend", "off_cone_nodes", "cone_margin"]
    assert rest["blend"] == float.fromhex("0x1.e7e9700000000p-1")
    assert rest["off_cone_nodes"] == 29
    assert rest["cone_margin"] == float.fromhex("0x1.047770d14f438p-1")


def test_newton_inadmissible_background_keeps_cone_error():
    # sigma_2 at n=4 puts the product background on the cone boundary
    # (sigma_2 = 0), so no blend toward a constant can restore admissibility:
    # the start's own rejection surfaces
    op = make_sigma_k_operator(4, 2)
    g0 = sinusoid_grid(1.0, 0.1, n_nodes=16)
    with pytest.raises(ConeError) as direct:
        residual(op, g0)
    with pytest.raises(ConeError) as err:
        newton_solve(op, g0, tol=1e-10, records=[])
    assert err.value.witness
    assert err.value.witness == direct.value.witness


def test_constant_start_solves_t0_operator():
    # the t=0 operator is (t + (1-t) n) sigma_1-like; its constant solution
    # is the continuation entry point
    c0 = constant_start(OP)
    assert c0 == pytest.approx(3.2141670476153616, rel=1e-12)
    r = residual(OP, constant_grid(c0), t=0.0)
    assert np.max(np.abs(r)) <= 1e-11


def test_continuation_reaches_constant_solution():
    res = continuation(OP, L=L, N=N, t_steps=11, tol=1e-10)
    assert res.status == "ok"
    assert res.failure == ""
    assert len(res.steps) == 11
    assert res.t_values[0] == 0.0 and res.t_values[-1] == 1.0
    assert np.max(np.abs(res.final.values - CS)) <= 1e-8
    for s in res.steps:
        assert s.residual_inf <= 1e-10
        assert s.min_cone_margin > 0.0


def test_continuation_path_independence():
    # the homotopy endpoint agrees with a direct Newton solve at t = 1
    res = continuation(OP, L=L, N=N, t_steps=11, tol=1e-10)
    direct = newton_solve(OP, constant_grid(constant_start(OP)), tol=1e-10)
    assert np.max(np.abs(res.final.values - direct.values)) <= 1e-10


@pytest.mark.parametrize("scheme", ["spectral", "fd4"])
def test_continuation_reaches_tolerance_at_large_n(scheme):
    # tol 1e-10 must stay reachable where eps N^2 ||u|| no longer is below it
    res = continuation(OP, L=L, N=512, t_steps=11, tol=1e-10, scheme=scheme)
    assert res.status == "ok", res.failure
    assert all(s.residual_inf <= 1e-10 for s in res.steps)
    assert np.max(np.abs(res.final.values - CS)) <= 1e-8


def test_continuation_coarse_path_also_works():
    res = continuation(OP, L=L, N=N, t_steps=2, tol=1e-10)
    assert res.status == "ok"
    assert np.max(np.abs(res.final.values - CS)) <= 1e-8


def test_continuation_semilinear_iteration_counts():
    # k = 1: every f_t is a multiple of sigma_1, yet each t-step moves the
    # constant solution by ~6.5 percent, so steps need a few iterations
    op = make_sigma_k_operator(5, 1)
    res = continuation(op, L=L, N=32, t_steps=11, tol=1e-10)
    assert res.status == "ok"
    assert res.steps[0].iterations == 0  # exact start at t = 0
    assert all(s.iterations <= 6 for s in res.steps)


@pytest.mark.parametrize("scheme", ["spectral", "fd4"])
@pytest.mark.parametrize("n,k", [(5, 1), (5, 2), (7, 3)])
def test_every_stage_solution_is_the_closed_form_constant(monkeypatch, n, k, scheme):
    # on the constant branch the stage-t solution is the constant
    # c_t = f_t(-1/2, 1/2^(n-1))^((n-2)/4), f_t homogeneous of degree 1:
    # a predicted start that drifted off the branch would end elsewhere
    op = make_sigma_k_operator(n, k)
    stages = []
    solve = yamabe.newton_solve

    def recorded(op, g0, tol, t, records):
        g = solve(op, g0, tol=tol, t=t, records=records)
        stages.append((t, g.values))
        return g

    monkeypatch.setattr(yamabe, "newton_solve", recorded)
    res = continuation(op, L=L, N=N, t_steps=11, tol=1e-10, scheme=scheme)
    assert res.status == "ok", res.failure
    assert [t for t, _ in stages] == res.t_values
    for t, values in stages:
        c_t = two_cluster_kernel(k, t, n - 1, -0.5, 0.5)[0] ** (0.25 * (n - 2))
        assert np.max(np.abs(values - c_t)) <= 1e-9 * c_t, t


def _sweep():
    for n, k in WORKLOAD_NK:
        yield make_sigma_k_operator(n, k), L
    for n in (5, 6):
        l_star = 2.0 * np.pi / np.sqrt(n - 2.0)
        for scale in (0.97, 1.03):
            yield make_sigma_k_operator(n, 1), scale * l_star


@pytest.mark.parametrize("scheme", ["spectral", "fd4"])
@pytest.mark.parametrize("t_steps", [2, 3, 6, 11])
def test_predicted_path_ends_where_the_previous_start_does(t_steps, scheme):
    # the start changes the Newton iterates, not where a stage ends
    for op, length in _sweep():
        res = continuation(op, L=length, N=N, t_steps=t_steps, tol=1e-10, scheme=scheme)
        ref = continuation_previous_start(op, L=length, N=N, t_steps=t_steps, tol=1e-10,
                                          scheme=scheme)
        assert res.status == ref.status, (op.name, length)
        assert np.max(np.abs(res.final.values - ref.final.values)) <= 1e-8


def test_predicted_start_cuts_workload_newton_iterations():
    # the distinct argvs of every yamabe workload subset: the predicted
    # starts take at most 0.7 of the previous start's Newton iterations
    workloads = load_workloads()
    argvs = dict.fromkeys(it.argv for seed in range(len(workloads._yamabe()))
                          for it in workloads.build("yamabe", seed))
    ours = prior = 0
    for argv in argvs:
        def flag(name):
            return argv[argv.index(name) + 1]

        op = make_sigma_k_operator(int(flag("--n")), int(flag("--k")))
        args = (op, float(flag("--L")), int(flag("--N")), int(flag("--t-steps")),
                float(flag("--tol")), flag("--scheme"))
        res, ref = continuation(*args), continuation_previous_start(*args)
        assert res.status == ref.status == "ok", argv
        assert np.max(np.abs(res.final.values - c_star(op))) <= 1e-12
        ours += sum(s.iterations for s in res.steps)
        prior += sum(s.iterations for s in ref.steps)
    assert len(argvs) == 24
    assert ours <= 0.7 * prior, (ours, prior)


def test_predicted_start_extrapolates_the_last_three_stages():
    g = constant_grid(1.0)
    x = g.nodes()

    def u(t):
        return 2.0 + t * np.sin(2.0 * np.pi * x / L) + t * t

    path = [(t, g.with_values(u(t))) for t in (0.0, 0.1, 0.2, 0.3)]
    # one stage gives itself, two the secant, three the quadratic, which is
    # exact on a path quadratic in t; older stages are not used
    assert yamabe.predicted_start(path[:1], 0.1).values.tolist() == u(0.0).tolist()
    secant = 2.0 + 0.2 * np.sin(2.0 * np.pi * x / L) + 0.02
    assert np.max(np.abs(yamabe.predicted_start(path[:2], 0.2).values - secant)) <= 1e-14
    assert np.max(np.abs(yamabe.predicted_start(path, 0.4).values - u(0.4))) <= 1e-13
    assert yamabe.predicted_start(path, 0.4).L == L


def test_non_positive_prediction_starts_from_the_last_solution():
    # the secant through 1 at t = 0 and 0.5 at t = 0.1 is -0.5 at t = 0.3:
    # no grid, so the stage starts from the last accepted solution
    g = constant_grid(1.0)
    path = [(0.0, g), (0.1, g.with_values(np.full(N, 0.5)))]
    assert yamabe.predicted_start(path, 0.3) is path[-1][1]
    # one node at zero is enough; at 0.2 the prediction is the start
    for node, start in ((0.5, None), (0.6, 0.2)):
        values = np.full(N, 0.75)
        values[3] = node
        path = [(0.0, g), (0.5, g.with_values(values))]
        got = yamabe.predicted_start(path, 1.0)
        if start is None:
            assert got is path[-1][1]
        else:
            assert got.values[3] == pytest.approx(start, rel=1e-14)
            assert np.all(got.values[np.arange(N) != 3] == 0.5)


def test_solution_translation_equivariance():
    res = continuation(OP, L=L, N=N, t_steps=11, tol=1e-10)
    rolled = newton_solve(
        OP, PeriodicGrid(L=L, values=np.roll(res.final.values, 7)), tol=1e-10
    )
    assert np.max(np.abs(rolled.values - np.roll(res.final.values, 7))) <= 1e-10


def test_solution_refines_consistently():
    a = continuation(OP, L=L, N=64, t_steps=11, tol=1e-10)
    b = continuation(OP, L=L, N=128, t_steps=11, tol=1e-10)
    # both end at the same constant, so compare node values directly
    assert abs(np.max(a.final.values) - np.max(b.final.values)) <= 1e-10


def test_periodic_grid_validation():
    with pytest.raises(DomainError):
        PeriodicGrid(L=1.0, values=np.ones(48))
    with pytest.raises(DomainError):
        PeriodicGrid(L=1.0, values=np.ones(4))
    with pytest.raises(DomainError):
        PeriodicGrid(L=0.0, values=np.ones(16))
    with pytest.raises(DomainError):
        PeriodicGrid(L=1.0, values=np.ones(16), scheme="fd9")
    from conforma.errors import PositivityError

    with pytest.raises(PositivityError):
        PeriodicGrid(L=1.0, values=-np.ones(16))
