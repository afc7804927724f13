"""End-to-end acceptance battery.

Each test prints one PASS or FAIL line with the measured quantities, then
asserts. The 10 percent sinusoidal start of criterion 9 is not an
admissible state for the target operator (measured cone-entry thresholds
are quoted in the failure message); newton_solve reaches the constant
branch from it only through its admissibility-restoration phase, and if
that phase ever lets the rejection through, the test documents it and
fails.
"""

import time

import numpy as np
import pytest

from helpers import catalog_fields, random_word

from conforma.bubbles import (
    BubbleParams,
    ball_robin_residual,
    halfspace_residual,
    verify_fullspace,
)
from conforma.cones import (
    CurvatureOperator,
    homogenize,
    make_sigma_k_operator,
    mu_star,
    sample_cone_directions,
    solve_unit_level,
)
from conforma.conformal import conjugation_residual
from conforma.errors import ConeError
from conforma.fields import BubbleField, ConstantField, ball, finite_difference
from conforma.moving_sphere import (
    SweepConfig,
    alpha_invariant,
    critical_radius,
    gradient_bound_check,
    h_lemma_check,
    harnack_constant,
    harnack_product,
)
from conforma.radial import (
    bubble_deviation,
    matched_bubble,
    order_estimate,
    shoot,
)
from conforma.sampling import ball_points, make_rng, shell_points, sphere_points
from conforma.yamabe import (
    PeriodicGrid,
    c_star,
    continuation,
    jacobian,
    jacobian_fd,
    newton_solve,
)


def report(num, label, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num} ({label}): {detail}")
    return ok


def test_criterion_01_conjugation_identity():
    t0 = time.perf_counter()
    rng = make_rng(7)
    words = [random_word(rng, 3) for _ in range(20)]
    pts = shell_points(rng, 3, 10, 0.7, 1.3)
    fields = catalog_fields(3)
    worst_an = max(conjugation_residual(u, w, pts) for u in fields for w in words)
    worst_fd = 0.0
    for u in fields:
        ufd = finite_difference(u, h=1e-3)
        for w in words:
            worst_fd = max(worst_fd, conjugation_residual(ufd, w, pts))
    hs = [4e-3, 2e-3, 1e-3]
    devs = [
        conjugation_residual(finite_difference(fields[0], h=h), words[0], pts)
        for h in hs
    ]
    slope = order_estimate(hs, devs)
    elapsed = time.perf_counter() - t0
    ok = worst_an <= 1e-8 and worst_fd <= 1e-4 and 1.8 <= slope <= 2.2 and elapsed < 10
    assert report(
        1,
        "conjugation identity",
        ok,
        f"analytic {worst_an:.2e} <= 1e-8, fd {worst_fd:.2e} <= 1e-4, "
        f"order {slope:.3f} in [1.8, 2.2], {elapsed:.1f}s < 10s",
    )


def test_criterion_02_fullspace_rigidity():
    t0 = time.perf_counter()
    ops = {3: (3, 1), 4: (4, 2), 5: (5, 2), 6: (6, 3)}
    worst_r1 = 0.0
    worst_r2 = 0.0
    rng = make_rng(11)
    for n, (nn, k) in ops.items():
        op = make_sigma_k_operator(nn, k)
        for _ in range(10):
            a = float(rng.uniform(0.3, 3.0))
            beta = float(rng.uniform(0.1, 5.0))
            center = rng.uniform(-1.5, 1.5, size=n)
            p = BubbleParams(n=n, a=a, beta=beta, center=center)
            worst_r1 = max(worst_r1, verify_fullspace(op, p, sample_count=100).r1)
            matched = BubbleParams(
                n=n, a=a, beta=0.5 * mu_star(op) * a * a, center=center
            )
            worst_r2 = max(worst_r2, verify_fullspace(op, matched, sample_count=10).r2)
    elapsed = time.perf_counter() - t0
    ok = worst_r1 <= 1e-10 and worst_r2 <= 1e-12 and elapsed < 5
    assert report(
        2,
        "full-space bubbles",
        ok,
        f"matrix residual {worst_r1:.2e} <= 1e-10 (40 parameter draws, 100 pts each), "
        f"scaled-beta residual {worst_r2:.2e} <= 1e-12, {elapsed:.1f}s < 5s",
    )


def test_criterion_03_halfspace_and_ball():
    t0 = time.perf_counter()
    rng = make_rng(13)
    worst_r1 = 0.0
    worst_r2 = 0.0
    worst_violation_gap = 0.0
    for _ in range(10):
        n = int(rng.integers(3, 7))
        a = float(rng.uniform(0.5, 2.0))
        beta = float(rng.uniform(0.2, 3.0))
        center = rng.uniform(-0.5, 0.5, size=n)
        center[-1] = float(rng.uniform(0.2, 1.0))
        p = BubbleParams(n=n, a=a, beta=beta, center=center)
        c = (n - 2.0) / a * beta * center[-1]
        res = halfspace_residual(p, c, sample_count=100)
        worst_r1 = max(worst_r1, res.r1)
        worst_r2 = max(worst_r2, res.r2)
        off = float(rng.uniform(0.1, 1.0))
        res_bad = halfspace_residual(p, c + off, sample_count=10)
        worst_violation_gap = max(worst_violation_gap, abs(res_bad.r2 - off))

        pb = BubbleParams(n=n, a=a, beta=beta)
        cb = -0.5 * (n - 2.0) * (1.0 - beta) / a
        resb = ball_robin_residual(pb, cb, sample_count=100)
        worst_r1 = max(worst_r1, resb.r1)
        worst_r2 = max(worst_r2, resb.r2)
        resb_bad = ball_robin_residual(pb, cb - off, sample_count=10)
        worst_violation_gap = max(worst_violation_gap, abs(resb_bad.r2 - off * a))
    elapsed = time.perf_counter() - t0
    ok = (
        worst_r1 <= 1e-10
        and worst_r2 <= 1e-12
        and worst_violation_gap <= 1e-12
        and elapsed < 5
    )
    assert report(
        3,
        "half-space and ball constraints",
        ok,
        f"boundary residual {worst_r1:.2e} <= 1e-10, constraint residual "
        f"{worst_r2:.2e} <= 1e-12, violation reporting gap "
        f"{worst_violation_gap:.2e} <= 1e-12, {elapsed:.1f}s < 5s",
    )


def test_criterion_04_radial_uniqueness():
    t0 = time.perf_counter()
    worst = 0.0
    for n, k in [(3, 1), (3, 2), (3, 3), (4, 2), (5, 2), (5, 3)]:
        op = make_sigma_k_operator(n, k)
        for v0 in (0.5, 1.0, 2.0):
            prof = shoot(op, v0, h=1e-4, r_max=0.9)
            assert prof.status == "ok", (n, k, v0)
            worst = max(worst, bubble_deviation(prof, matched_bubble(op, v0)))
    op31 = make_sigma_k_operator(3, 1)
    hs = [4e-3, 2e-3, 1e-3]
    devs = [
        bubble_deviation(shoot(op31, 1.0, h=h, r_max=0.9), matched_bubble(op31, 1.0))
        for h in hs
    ]
    slope = order_estimate(hs, devs)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and slope >= 3.5 and elapsed < 60
    assert report(
        4,
        "radial uniqueness",
        ok,
        f"sup deviation {worst:.2e} <= 1e-5 over 18 shots at h=1e-4, "
        f"order {slope:.2f} >= 3.5, {elapsed:.1f}s < 60s",
    )


def test_criterion_05_moving_sphere_invariant():
    t0 = time.perf_counter()
    cfg = SweepConfig(
        lambda_min=0.04,
        lambda_max=4.0,
        check_points=ball_points(make_rng(0), 3, 4096, radius=8.0),
        lambda_steps=256,
    )
    centers = np.vstack([np.zeros(3), 0.3 * sphere_points(make_rng(1), 3, 8)])
    worst_gap = 0.0
    worst_spread_ratio = 0.0
    for beta in (0.25, 1.0, 4.0):
        u = BubbleField(BubbleParams(n=3, a=1.0, beta=beta))
        target = beta**-0.5
        cr = critical_radius(u, np.zeros(3), cfg)
        worst_gap = max(worst_gap, abs(cr.lambda_bar - target) / target)
        rep = alpha_invariant(u, centers, cfg)
        alpha = float(np.mean(rep.values))
        worst_spread_ratio = max(worst_spread_ratio, rep.spread / alpha)
    elapsed = time.perf_counter() - t0
    ok = worst_gap <= 1e-3 and worst_spread_ratio <= 1e-2 and elapsed < 60
    assert report(
        5,
        "moving-sphere invariant",
        ok,
        f"lambda_bar relative gap {worst_gap:.2e} <= 1e-3, alpha spread ratio "
        f"{worst_spread_ratio:.2e} <= 1e-2 over 9 centers, {elapsed:.1f}s < 60s",
    )


def test_criterion_06_interval_lemma_suite():
    from conforma.cli import _h_catalog

    t0 = time.perf_counter()
    rng = make_rng(0)
    implication_failures = 0
    for h, hp, alpha, a in _h_catalog(rng, 50):
        rep = h_lemma_check(h, hp, alpha, a)
        if rep.hypothesis_pass and not rep.conclusion_pass:
            implication_failures += 1
    catalog = [
        (BubbleField(BubbleParams(3, 1.0, 1.0), domain=ball(9.0)), 0.5),
        (BubbleField(BubbleParams(3, 1.0, 4.0), domain=ball(9.0)), 0.25),
        (ConstantField(3, 2.0, domain=ball(9.0)), 1.0),
    ]
    min_slack = np.inf
    all_pass = True
    for u, a in catalog:
        rep = gradient_bound_check(u, a)
        if rep.vacuous or not (rep.hypothesis_pass and rep.conclusion_pass):
            all_pass = False
        else:
            min_slack = min(min_slack, rep.slack)
    elapsed = time.perf_counter() - t0
    ok = implication_failures == 0 and all_pass and min_slack > 0 and elapsed < 30
    assert report(
        6,
        "interval lemma suite",
        ok,
        f"0 implication failures over 50 h-functions (got {implication_failures}), "
        f"gradient bound holds on 3 catalog fields with slack >= {min_slack:.3f}, "
        f"{elapsed:.1f}s < 30s",
    )


def test_criterion_07_harnack_bound():
    t0 = time.perf_counter()
    r = 2 ** (3 + 6) * 3**4
    closed_form = 4 ** (3 - 2) * r ** (3 - 2)
    exact = harnack_constant(3) == closed_form == 165888
    cases = []
    for k in (1, 2, 3):
        op = make_sigma_k_operator(3, k)
        for v0 in (0.5, 1.0):
            cases.append(BubbleField(matched_bubble(op, v0), ball(4.0)))
    cases.append(BubbleField(BubbleParams(n=3, a=np.sqrt(6e3), beta=1e3), ball(4.0)))
    cases.append(ConstantField(3, 2.0, ball(4.0)))
    worst_P = 0.0
    worst_rescale = 0.0
    for u in cases:
        rep = harnack_product(u, R=1.0, delta=1.0)
        worst_P = max(worst_P, rep.P)
        worst_rescale = max(worst_rescale, rep.rescaling_exactness)
    elapsed = time.perf_counter() - t0
    ok = exact and worst_P <= 165888 and worst_rescale <= 1e-10 and elapsed < 10
    assert report(
        7,
        "Harnack product bound",
        ok,
        f"C(3) = 165888 exactly, max product {worst_P:.3f} <= 165888 over "
        f"8 solutions, rescaling exactness {worst_rescale:.1e} <= 1e-10, "
        f"{elapsed:.1f}s < 10s",
    )


def test_criterion_08_homogenization():
    t0 = time.perf_counter()
    base = make_sigma_k_operator(3, 2)
    op2 = CurvatureOperator(
        "sigma2_raw",
        lambda lam: base.f(lam) ** 2,
        lambda lam: 2.0 * base.f(lam) * base.grad_f(lam),
        base.cone,
        2.0,
    )
    tilde = homogenize(op2)
    rng = make_rng(21)
    pts = [
        lam for lam in sample_cone_directions(rng, 3, 600) if base.cone.contains(lam)
    ][:100]
    assert len(pts) == 100
    worst_match = max(abs(tilde.f(lam) - base.f(lam)) for lam in pts)
    worst_deg = 0.0
    for lam in pts[:50]:
        v = tilde.f(lam)
        for s in (0.1, 1.0, 7.3):
            worst_deg = max(
                worst_deg, abs(tilde.f(s * lam) - s * v) / max(1.0, abs(s * v))
            )
    worst_level = 0.0
    for lam in pts[:50]:
        s = solve_unit_level(op2.f, lam, tol=1e-8)
        worst_level = max(worst_level, abs(tilde.f(s * lam) - 1.0))
    worst_concavity = 0.0
    triples = 0
    while triples < 500:
        lam, mu = sample_cone_directions(rng, 3, 2)
        if not (base.cone.contains(lam) and base.cone.contains(mu)):
            continue
        triples += 1
        mid = tilde.f(0.5 * (lam + mu))
        gap = 0.5 * (tilde.f(lam) + tilde.f(mu)) - mid
        worst_concavity = max(worst_concavity, gap / max(1.0, abs(mid)))
    elapsed = time.perf_counter() - t0
    ok = (
        worst_match <= 1e-10
        and worst_deg <= 1e-9
        and worst_level <= 1e-6
        and worst_concavity <= 1e-10
        and elapsed < 5
    )
    assert report(
        8,
        "homogenization",
        ok,
        f"sqrt-sigma2 match {worst_match:.2e} <= 1e-10 at 100 points, degree-1 "
        f"defect {worst_deg:.2e} <= 1e-9, level-set drift {worst_level:.2e} <= 1e-6, "
        f"midpoint concavity defect {worst_concavity:.2e} over 500 triples, "
        f"{elapsed:.1f}s < 5s",
    )


def test_criterion_09_yamabe_continuation():
    t0 = time.perf_counter()
    op = make_sigma_k_operator(5, 2)
    cs = c_star(op)
    L, N = 1.0, 64

    res = continuation(op, L=L, N=N, t_steps=11, tol=1e-10)
    converged = res.status == "ok"
    path_dev = float(np.max(np.abs(res.final.values - cs)))

    g = PeriodicGrid(L=L, values=np.full(N, cs))
    J = jacobian(op, g)
    jac_gap = float(
        np.max(np.abs(J - jacobian_fd(op, g, step=1e-8))) / np.max(np.abs(J))
    )

    eps = 0.10
    start_10pct = cs * (1.0 + eps * np.sin(2.0 * np.pi * g.nodes() / L))
    rejection = None
    final_dev = None
    try:
        sol = newton_solve(op, PeriodicGrid(L=L, values=start_10pct), tol=1e-10)
        final_dev = float(np.max(np.abs(sol.values - cs)))
    except ConeError as exc:
        rejection = exc

    elapsed = time.perf_counter() - t0
    ok = (
        converged
        and path_dev <= 1e-6
        and jac_gap <= 1e-5
        and final_dev is not None
        and final_dev <= 1e-6
        and elapsed < 120
    )
    detail = (
        f"continuation over 11 steps converged={converged} "
        f"(endpoint deviation {path_dev:.2e}), Jacobian vs FD {jac_gap:.2e} <= 1e-5, "
    )
    if rejection is not None:
        detail += f"10 percent sinusoidal start REJECTED off-cone ({elapsed:.1f}s)"
    else:
        detail += f"10 percent start deviation {final_dev:.2e}, {elapsed:.1f}s < 120s"
    report(9, "product-manifold continuation", ok, detail)
    if rejection is not None:
        n_bad = len(rejection.witness)
        pytest.fail(
            "the 10 percent sinusoidal start c*(1 + 0.1 sin(2 pi t/L)) is not an "
            "admissible state for the sigma_2^(1/2) operator at n=5, N=64: its "
            f"node eigenvalues leave the cone at {n_bad} of {N} nodes (first "
            f"witness node {rejection.witness[0][0]}). Measured admissibility "
            "thresholds for starts of the form c*(1 + eps sin(2 pi t/L)): "
            "eps < 0.009409 for the target operator and eps < 0.053920 for the "
            "t = 0 interpolant, so neither a direct Newton solve nor any "
            "continuation step can evaluate the demanded start. Every other "
            "clause of this criterion passes, and with eps = 0.005 the same "
            "solve converges to the constant branch (deviation 2.0e-13, "
            "4 iterations)."
        )
    assert ok


def test_criterion_10_determinism(tmp_path):
    from conforma.cli import main

    t0 = time.perf_counter()
    jobs = [
        ("validate-operator", "--n", "3", "--k", "2", "--samples", "150"),
        ("harnack", "--samples", "1024"),
        ("solve-yamabe", "--N", "32", "--t-steps", "2"),
    ]
    identical = True
    for i, job in enumerate(jobs):
        pair = []
        for run_dir in ("a", "b"):
            out = tmp_path / f"{i}{run_dir}"
            rc = main([*job, "--seed", "3", "--output-dir", str(out)])
            assert rc == 0
            pair.append((out / "result.json").read_bytes())
        identical = identical and pair[0] == pair[1]
    elapsed = time.perf_counter() - t0
    assert report(
        10,
        "determinism",
        identical,
        f"re-running {len(jobs)} commands with a fixed seed reproduced "
        f"result.json byte for byte, {elapsed:.1f}s",
    )
