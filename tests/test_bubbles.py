"""Closed-form bubble family: rigidity residuals on the full space, the
half space, and the ball."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import bubble_from_initial_conditions, bubble_grad, bubble_hess, bubble_value

from conforma.bubbles import (
    BubbleParams,
    ball_robin_residual,
    bubble_values,
    halfspace_residual,
    verify_fullspace,
)
from conforma.cones import make_sigma_k_operator, mu_star
from conforma.errors import DomainError
from conforma.radial import matched_bubble, vpp0_exact
from conforma.reporting import dumps_json
from conforma.sampling import ball_points, make_rng


def test_bubble_value_closed_form():
    p = BubbleParams(n=3, a=2.0, beta=0.5, center=np.array([1.0, 0.0, 0.0]))
    x = np.array([1.0, 2.0, 0.0])
    # (a / (1 + beta |x - c|^2))^{(n-2)/2} with |x - c|^2 = 4
    assert bubble_value(p, x) == pytest.approx((2.0 / 3.0) ** 0.5, rel=1e-15)
    X = np.vstack([x, p.center])
    vals = bubble_values(p, X)
    assert vals[1] == pytest.approx(2.0 ** 0.5, rel=1e-15)


def test_param_validation():
    with pytest.raises(DomainError):
        BubbleParams(n=2, a=1.0, beta=1.0)
    with pytest.raises(DomainError):
        BubbleParams(n=3, a=0.0, beta=1.0)
    with pytest.raises(DomainError):
        BubbleParams(n=3, a=1.0, beta=1.0, center=np.zeros(4))
    # negative beta is allowed but only on the ball where denominators stay positive
    p = BubbleParams(n=3, a=1.0, beta=-0.5)
    with pytest.raises(DomainError):
        bubble_value(p, np.array([2.0, 0.0, 0.0]))


@given(
    st.integers(min_value=3, max_value=6),
    st.floats(min_value=0.2, max_value=5.0),
    st.floats(min_value=0.05, max_value=10.0),
)
@settings(max_examples=60, deadline=None)
def test_bubble_grad_hess_match_fd(n, a, beta):
    p = BubbleParams(n=n, a=a, beta=beta)
    x = np.full(n, 0.3)
    h = 1e-5
    g = bubble_grad(p, x)
    H = bubble_hess(p, x)
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        fd = (bubble_value(p, x + e) - bubble_value(p, x - e)) / (2 * h)
        assert abs(fd - g[i]) <= 1e-7 * max(1.0, abs(g[i]))
        fd2 = (bubble_grad(p, x + e) - bubble_grad(p, x - e)) / (2 * h)
        assert np.max(np.abs(fd2 - H[i])) <= 1e-6 * max(1.0, np.max(np.abs(H[i])))


@pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (5, 2), (6, 3)])
def test_fullspace_residuals_matched_beta(n, k):
    # beta = mu* a^2 / 2 puts the bubble exactly on the unit level set
    op = make_sigma_k_operator(n, k)
    rng = make_rng(n + k)
    for _ in range(5):
        a = float(rng.uniform(0.3, 3.0))
        center = rng.uniform(-1, 1, size=n)
        beta = 0.5 * mu_star(op) * a * a
        p = BubbleParams(n=n, a=a, beta=beta, center=center)
        res = verify_fullspace(op, p, sample_count=100, seed=0)
        assert res.r1 <= 1e-10
        assert res.r2 <= 1e-12
        assert res.samples_used == 100


def test_fullspace_detects_wrong_beta():
    op = make_sigma_k_operator(3, 1)
    good = 0.5 * mu_star(op)
    p = BubbleParams(n=3, a=1.0, beta=1.1 * good)
    res = verify_fullspace(op, p)
    assert res.r1 <= 1e-10  # still a bubble, A is still a constant multiple of I
    assert res.r2 == pytest.approx(0.1, rel=1e-10)
    with pytest.raises(DomainError):
        verify_fullspace(op, BubbleParams(n=3, a=1.0, beta=-0.2))


def test_halfspace_residuals():
    # constraint (n-2) a^{-1} beta xbar_n = c
    p = BubbleParams(n=4, a=1.5, beta=2.0, center=np.array([0.3, -0.2, 0.0, 0.6]))
    c = (p.n - 2) / p.a * p.beta * 0.6
    res = halfspace_residual(p, c, sample_count=200, seed=1)
    assert res.r1 <= 1e-10
    assert res.r2 <= 1e-15
    # a violated constraint is reported exactly, not raised
    res_bad = halfspace_residual(p, c + 0.25, sample_count=10, seed=1)
    assert res_bad.r2 == pytest.approx(0.25, abs=1e-12)
    assert res_bad.r1 == pytest.approx(0.25 * _sup_u_power(p), rel=0.5)


def _sup_u_power(p):
    # loose scale for the boundary mismatch when the constraint is off by one
    top = bubble_value(p, np.array([0.3, -0.2, 0.0, 0.0]))
    return top ** (p.n / (p.n - 2.0))


def test_halfspace_centered_bubble_needs_no_flux():
    # center on the boundary plane: c = 0 and the normal derivative vanishes
    p = BubbleParams(n=3, a=1.0, beta=1.0, center=np.zeros(3))
    res = halfspace_residual(p, 0.0)
    assert res.r1 <= 1e-14
    assert res.r2 == 0.0


def test_ball_robin_residuals():
    # n=4, a=2, beta=3: (n-2)/2 (1-beta) = -2, so c = 1 balances c*a = 2
    p = BubbleParams(n=4, a=2.0, beta=3.0)
    res = ball_robin_residual(p, 1.0, sample_count=200, seed=2)
    assert res.r1 <= 1e-10
    assert res.r2 <= 1e-15
    res_half = ball_robin_residual(p, 0.5, sample_count=10, seed=2)
    assert res_half.r2 == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DomainError):
        ball_robin_residual(
            BubbleParams(n=4, a=2.0, beta=3.0, center=np.array([0.1, 0, 0, 0])), 1.0
        )
    with pytest.raises(DomainError):
        ball_robin_residual(BubbleParams(n=4, a=2.0, beta=-1.5), 1.0)


def test_ball_negative_beta_branch():
    # beta in [-1, 0): denominator stays positive on the closed unit ball
    p = BubbleParams(n=5, a=1.0, beta=-0.4)
    c = -0.5 * (p.n - 2.0) * (1.0 - p.beta) / p.a
    res = ball_robin_residual(p, c, sample_count=100, seed=3)
    assert res.r1 <= 1e-10
    assert res.r2 <= 1e-15


def test_initial_conditions_roundtrip():
    for n, k in [(3, 1), (5, 2)]:
        op = make_sigma_k_operator(n, k)
        for v0 in (0.5, 1.0, 2.0):
            p_ref = matched_bubble(op, v0)
            p = bubble_from_initial_conditions(v0, vpp0_exact(op, v0), n)
            assert p.a == pytest.approx(p_ref.a, rel=1e-14)
            assert p.beta == pytest.approx(p_ref.beta, rel=1e-14)
            # and the reconstruction really hits the prescribed jet
            assert bubble_value(p, np.zeros(n)) == pytest.approx(v0, rel=1e-14)


def test_initial_conditions_positivity():
    with pytest.raises(DomainError):
        bubble_from_initial_conditions(-1.0, 0.0, 3)


def test_to_json_dict_roundtrip():
    p = BubbleParams(n=3, a=1.25, beta=0.8, center=np.array([0.1, 0.2, -0.3]))
    d = json.loads(dumps_json(p))
    q = BubbleParams(n=d["n"], a=d["a"], beta=d["beta"], center=np.array(d["center"]))
    rng = make_rng(4)
    for x in ball_points(rng, 3, 10, radius=1.0):
        assert bubble_value(q, x) == bubble_value(p, x)
