"""Scalar fields: ball domains, analytic vs finite-difference
derivatives."""

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from helpers import (
    FDFieldOrder2,
    GaussianBumpField,
    HarmonicPowerField,
    a_matrix_flat_loop,
    bubble_value,
    point_jet,
    random_word,
)

from conforma import bubbles
from conforma.bubbles import BubbleParams, bubble_values
from conforma.conformal import Invert, MoebiusMap, Scale, Translate, a_matrix_flat, pullback_u
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
        assert u.value(x) == bubble_values(p, x[None])[0]
        assert u.value(x) == pytest.approx(bubble_value(p, x), rel=1e-14)
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
        devs.append(np.max(np.abs(point_jet(fd, x)[1] - point_jet(base, x)[1])))
    slope = order_estimate(hs, devs)
    assert abs(slope - 2.0) <= 0.3, (devs, slope)


def test_fd_field_hessian_accuracy():
    base = GaussianBumpField(3, base=1.0, amp=0.4, width=0.8)
    fd = FDField(base, h=1e-3)
    x = np.array([0.3, -0.1, 0.2])
    assert np.max(np.abs(point_jet(fd, x)[2] - point_jet(base, x)[2])) <= 1e-5


def test_fd_field_respects_domain_margin():
    base = ConstantField(3, 1.0, ball(1.0))
    fd = FDField(base, h=1e-2)
    # stencil would poke outside: the margin check fires before evaluation
    with pytest.raises(GeometryError):
        fd.jet(np.array([0.995, 0.0, 0.0]))


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


def _rows_fields(n, rng):
    """Bubble, constant, FD, and affine and Kelvin pullbacks from random
    words, analytic and FD."""
    bubble = BubbleField(BubbleParams(n=n, a=2.0, beta=4.0, center=np.linspace(0.3, -0.2, n)))
    word = random_word(rng, n)
    return [
        bubble,
        ConstantField(n, 2.5),
        FDField(bubble, h=1e-3),
        pullback_u(bubble, word),
        pullback_u(FDField(bubble, h=1e-3), word),
        pullback_u(GaussianBumpField(n, base=1.0, amp=0.3, width=1.2), random_word(rng, n)),
    ]


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


rows_cases = given(
    n=st.integers(min_value=3, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    count=st.integers(min_value=1, max_value=9),
)


@rows_cases
@settings(max_examples=40, deadline=None)
def test_point_calls_are_row_calls(n, seed, count):
    # the jet's values are values(X), and the value and one-row jet of a
    # point are its row of the batch, bit for bit
    rng = make_rng(seed)
    X = shell_points(rng, n, count, 0.7, 1.3)
    fields = _rows_fields(n, rng)
    # every generator alone, besides the random words
    gens = (Translate(0.2 * rng.uniform(-1, 1, size=n)), Scale(-1.3), Invert())
    fields += [pullback_u(fields[0], MoebiusMap((g,))) for g in gens]
    for u in fields:
        vals, grads, hessians = u.jet(X)
        assert _bits(vals) == _bits(u.values(X))
        for i, x in enumerate(X):
            assert _bits(u.value(x)) == _bits(vals[i])
            for got, want in zip(point_jet(u, x), (vals[i], grads[i], hessians[i])):
                assert _bits(got) == _bits(want)


@rows_cases
@settings(max_examples=40, deadline=None)
def test_fd_rows_match_per_point_stencils(n, seed, count):
    rng = make_rng(seed)
    X = shell_points(rng, n, count, 0.7, 1.3)
    for inner in _rows_fields(n, rng):
        rows, loop = FDField(inner, h=1e-3), FDFieldOrder2(inner, h=1e-3)
        _, grads, hessians = rows.jet(X)
        for i, x in enumerate(X):
            assert _bits(grads[i]) == _bits(loop.grad(x))
            assert _bits(hessians[i]) == _bits(loop.hess(x))


@rows_cases
@settings(max_examples=40, deadline=None)
def test_a_matrix_rows_match_upper_triangle_loop(n, seed, count):
    rng = make_rng(seed)
    X = shell_points(rng, n, count, 0.7, 1.3)
    for u in _rows_fields(n, rng):
        A = a_matrix_flat(u, X)
        assert A.shape == (count, n, n)
        for i, x in enumerate(X):
            assert _bits(A[i]) == _bits(a_matrix_flat_loop(u, x))
            assert _bits(a_matrix_flat(u, x)) == _bits(A[i])


def test_a_matrix_takes_one_kernel_pass(monkeypatch):
    # each layer takes one jet of the layer below: the bubble kernel runs once
    # under a three-generator word, and the FD view evaluates its inner field
    # at 1 + 2n + 2n(n - 1) points per point, 33 at n = 4
    rows = []
    offsets = bubbles._offsets
    monkeypatch.setattr(bubbles, "_offsets", lambda p, X: rows.append(len(X)) or offsets(p, X))
    u = BubbleField(BubbleParams(n=4, a=1.0, beta=1.0))
    psi = MoebiusMap((Translate((0.3, -0.1, 0.2, 0.1)), Scale(1.7), Invert()))
    X = shell_points(make_rng(0), 4, 20, 0.6, 1.4)
    a_matrix_flat(pullback_u(u, psi), X)
    assert rows == [20]
    rows.clear()
    a_matrix_flat(FDField(u, h=1e-3), X)
    assert sum(rows) == 33 * 20
