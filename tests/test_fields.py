"""Scalar fields: ball domains, analytic vs finite-difference
derivatives."""

import numpy as np
import pytest

from helpers import GaussianBumpField, HarmonicPowerField

from conforma.bubbles import BubbleParams, bubble_value
from conforma.errors import DomainError, GeometryError, PositivityError
from conforma.fields import BubbleField, ConstantField, FDField, ball, finite_difference
from conforma.radial import order_estimate
from conforma.sampling import make_rng, shell_points


def test_domain_membership():
    b = ball(2.0)
    assert b.contains(np.array([1.9, 0.0, 0.0]), margin=0.0)
    assert not b.contains(np.array([1.9, 0.0, 0.0]), margin=0.2)
    assert not b.contains(np.array([0.0, 2.1, 0.0]), margin=0.0)


def test_field_domain_enforcement():
    u = ConstantField(3, 1.0, ball(1.0))
    with pytest.raises(GeometryError):
        u.value(np.array([2.0, 0.0, 0.0]))
    # harmonic power keeps a pole guard
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
    devs = []
    for h in hs:
        fd = FDField(base, h=h)
        devs.append(np.max(np.abs(fd.grad(x) - base.grad(x))))
    slope = order_estimate(hs, devs)
    assert abs(slope - 2.0) <= 0.3, (devs, slope)


def test_fd_field_hessian_accuracy():
    base = GaussianBumpField(3, base=1.0, amp=0.4, width=0.8)
    fd = FDField(base, h=1e-3)
    x = np.array([0.3, -0.1, 0.2])
    assert np.max(np.abs(fd.hess(x) - base.hess(x))) <= 1e-5


def test_fd_field_respects_domain_margin():
    base = ConstantField(3, 1.0, ball(1.0))
    fd = FDField(base, h=1e-2)
    # stencil would poke outside: the margin check fires before evaluation
    with pytest.raises(GeometryError):
        fd.grad(np.array([0.995, 0.0, 0.0]))


def test_finite_difference_unwraps():
    base = ConstantField(3, 1.0)
    fd1 = finite_difference(base, h=1e-3)
    fd2 = finite_difference(fd1, h=1e-4)
    assert isinstance(fd2, FDField)
    assert fd2.inner is base  # no nested wrapping
    assert fd2.h == 1e-4
    with pytest.raises(DomainError):
        FDField(base, h=0.0)


def test_positivity_guards():
    with pytest.raises(PositivityError):
        ConstantField(3, -1.0)
    with pytest.raises(PositivityError):
        GaussianBumpField(3, base=0.1, amp=-0.2)
