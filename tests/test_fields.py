"""Scalar field catalog: domains, analytic vs finite-difference
derivatives, JSON construction, periodic 1-D profiles."""

import numpy as np
import pytest

from conforma.bubbles import BubbleParams, bubble_value
from conforma.errors import DomainError, GeometryError, PositivityError
from conforma.fields import (
    BubbleField,
    ConstantField,
    Domain,
    FDField,
    GaussianBumpField,
    HarmonicPowerField,
    QuadraticField,
    annulus,
    ball,
    field_from_json,
    finite_difference,
    half_ball,
)
from conforma.radial import order_estimate
from conforma.sampling import make_rng, shell_points


def test_domain_membership():
    b = ball(2.0)
    assert b.contains(np.array([1.9, 0.0, 0.0]), margin=0.0)
    assert not b.contains(np.array([1.9, 0.0, 0.0]), margin=0.2)
    a = annulus(0.5, 2.0)
    assert a.contains(np.array([1.0, 0.0]), margin=0.1)
    assert not a.contains(np.array([0.55, 0.0]), margin=0.1)
    h = half_ball(1.0)
    assert h.contains(np.array([0.0, 0.0, 0.5]), margin=0.0)
    assert not h.contains(np.array([0.0, 0.0, -0.1]), margin=0.0)


def test_field_domain_enforcement():
    u = ConstantField(3, 1.0, ball(1.0))
    with pytest.raises(GeometryError):
        u.value(np.array([2.0, 0.0, 0.0]))
    # harmonic power keeps a pole-avoiding annulus by default
    hp = HarmonicPowerField(3)
    with pytest.raises(GeometryError):
        hp.value(np.zeros(3))
    assert hp.value(np.array([2.0, 0.0, 0.0])) == pytest.approx(0.5, rel=1e-15)


def test_bubble_field_wraps_closed_form():
    p = BubbleParams(n=4, a=1.5, beta=0.7)
    u = BubbleField(p)
    rng = make_rng(0)
    for x in shell_points(rng, 4, 10, 0.2, 2.0):
        assert u.value(x) == bubble_value(p, x)
    X = shell_points(rng, 4, 10, 0.2, 2.0)
    # vectorized path may reorder operations; agreement is to the ulp scale
    assert np.allclose(u.values(X), [u.value(x) for x in X], rtol=1e-14)


def test_fd_field_orders():
    base = GaussianBumpField(3, base=1.0, amp=0.4, width=0.8)
    x = np.array([0.3, -0.1, 0.2])
    hs = [4e-2, 2e-2, 1e-2]
    for order, expected in ((2, 2.0), (4, 4.0)):
        devs = []
        for h in hs:
            fd = FDField(base, h=h, order=order)
            devs.append(np.max(np.abs(fd.grad(x) - base.grad(x))))
        slope = order_estimate(hs, devs)
        assert abs(slope - expected) <= 0.3, (order, devs, slope)


def test_fd_field_hessian_accuracy():
    base = GaussianBumpField(3, base=1.0, amp=0.4, width=0.8)
    fd = FDField(base, h=1e-3, order=2)
    x = np.array([0.3, -0.1, 0.2])
    assert np.max(np.abs(fd.hess(x) - base.hess(x))) <= 1e-5
    assert fd.mode == "fd" and base.mode == "analytic"


def test_fd_field_respects_domain_margin():
    base = ConstantField(3, 1.0, ball(1.0))
    fd = FDField(base, h=1e-2)
    # stencil would poke outside: the margin check fires before evaluation
    with pytest.raises(GeometryError):
        fd.grad(np.array([0.995, 0.0, 0.0]))


def test_finite_difference_unwraps():
    base = ConstantField(3, 1.0)
    fd1 = finite_difference(base, h=1e-3)
    fd2 = finite_difference(fd1, h=1e-4, order=4)
    assert isinstance(fd2, FDField)
    assert fd2.inner is base  # no nested wrapping
    assert fd2.h == 1e-4 and fd2.order == 4
    with pytest.raises(DomainError):
        FDField(base, h=0.0)
    with pytest.raises(DomainError):
        FDField(base, h=1e-3, order=3)


def test_positivity_guards():
    with pytest.raises(PositivityError):
        ConstantField(3, -1.0)
    with pytest.raises(PositivityError):
        GaussianBumpField(3, base=0.1, amp=-0.2)
    with pytest.raises(PositivityError):
        QuadraticField(3, 0.0)


def test_field_from_json_kinds():
    rng = make_rng(1)
    x = np.array([0.4, 0.1, -0.2])
    specs = [
        ({"kind": "constant", "params": {"n": 3, "c": 2.0}}, 2.0),
        (
            {"kind": "bubble", "params": {"n": 3, "a": 1.0, "beta": 1.0}},
            bubble_value(BubbleParams(n=3, a=1.0, beta=1.0), x),
        ),
        (
            {"kind": "harmonic_power", "params": {"n": 3}},
            1.0 / np.linalg.norm(x),
        ),
        (
            {"kind": "quadratic", "params": {"n": 3, "c": 1.5}},
            1.5 + float(x @ x),
        ),
    ]
    for spec, expected in specs:
        u = field_from_json(spec)
        assert u.value(x) == pytest.approx(expected, rel=1e-13)
    g = field_from_json(
        {"kind": "gaussian", "params": {"n": 3, "base": 1.0, "amp": 0.5, "width": 2.0}}
    )
    assert g.value(np.zeros(3)) == pytest.approx(1.5, rel=1e-15)
    with pytest.raises(DomainError):
        field_from_json({"kind": "nope", "params": {}})
    del rng


def test_field_from_json_domain():
    u = field_from_json(
        {
            "kind": "constant",
            "params": {"n": 3, "c": 1.0, "domain": {"kind": "ball", "outer": 1.0}},
        }
    )
    with pytest.raises(GeometryError):
        u.value(np.array([1.5, 0.0, 0.0]))
