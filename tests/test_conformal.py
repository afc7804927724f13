"""Moebius maps, conformal pullback, the flat Schouten matrix, and the
conjugation identity that ties them together."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    HarmonicPowerField,
    catalog_fields,
    pullback_u_generators,
    random_word,
    sphere_inversion_at_offsets,
    sphere_inversion_map,
    sphere_inversion_u,
)

from conforma.bubbles import BubbleParams
from conforma.conformal import (
    Invert,
    MoebiusMap,
    Scale,
    Translate,
    a_matrix_flat,
    conjugation_residual,
    pullback_u,
    schouten_eigen_flat,
)
from conforma.errors import ConformaError, DomainError, SingularityError
from conforma.fields import BubbleField, ConstantField, finite_difference
from conforma.jacobi import jacobi_eigenvalues
from conforma.moving_sphere import msi_violation
from conforma.radial import order_estimate
from conforma.sampling import ball_points, make_rng, shell_points


def test_bubble_schouten_is_constant_multiple_of_identity():
    # the closed-form family has A^u = 2 beta a^{-2} I everywhere
    rng = make_rng(0)
    for n in (3, 4, 5, 6):
        p = BubbleParams(n=n, a=1.7, beta=0.6, center=0.1 * np.arange(n))
        u = BubbleField(p)
        target = 2.0 * p.beta / p.a**2
        for x in ball_points(rng, n, 25, radius=3.0):
            A = a_matrix_flat(u, x)
            assert np.max(np.abs(A - target * np.eye(n))) <= 1e-10
            lam = schouten_eigen_flat(u, x)
            assert np.max(np.abs(lam - target)) <= 1e-10


def test_schouten_eigen_rows_match_jacobi_oracle():
    # one batched eigvalsh against the cyclic Jacobi solve of each matrix, on
    # bubbles (A^u = c I) and on their pullbacks under random words
    eps = np.finfo(float).eps
    for n in range(3, 9):
        rng = make_rng(n)
        pts = shell_points(rng, n, 30, 0.7, 1.3)
        bubbles = catalog_fields(n)[:2]
        fields = bubbles + [pullback_u(u, random_word(rng, n)) for u in bubbles for _ in range(3)]
        for u in fields:
            A = a_matrix_flat(u, pts)
            lam = schouten_eigen_flat(u, pts)
            assert lam.shape == (len(pts), n)
            for a, row in zip(A, lam):
                tol = 4 * n * eps * np.max(np.abs(a))
                assert np.max(np.abs(row - jacobi_eigenvalues(a))) <= tol


def test_schouten_eigen_refuses_a_non_finite_matrix():
    # LAPACK returns numbers for a NaN or inf matrix, so it never sees one
    u = BubbleField(BubbleParams(n=3, a=1e300, beta=1e100))
    x = np.array([[0.5, 0.0, 0.0], [0.2, -0.2, 1.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.all(np.isfinite(a_matrix_flat(u, x)))
        with pytest.raises(DomainError, match="not finite at x"):
            schouten_eigen_flat(u, x)
        with pytest.raises(DomainError, match="not finite at x"):
            schouten_eigen_flat(u, x[1])


def test_constant_and_harmonic_power_are_flat():
    # both are pullbacks of the flat metric, so A^u vanishes
    rng = make_rng(1)
    c = ConstantField(4, 3.2)
    hp = HarmonicPowerField(4)
    for x in shell_points(rng, 4, 20, 0.5, 2.0):
        assert np.max(np.abs(a_matrix_flat(c, x))) <= 1e-14
        assert np.max(np.abs(a_matrix_flat(hp, x))) <= 1e-10


def test_pole_guard():
    with pytest.raises(SingularityError):
        Invert().apply(np.zeros(3))
    # a check point inside the pole guard of u_{x,lam}, outside the sphere
    u = ConstantField(3, 1.0)
    with pytest.raises(SingularityError):
        msi_violation(u, np.zeros(3), 1e-13, np.array([[5e-13, 0.0, 0.0]]))


def test_scale_zero_rejected():
    with pytest.raises(DomainError):
        Scale(0.0)
    with pytest.raises(DomainError):
        sphere_inversion_map(np.zeros(3), -1.0)


def test_pullback_composition_law():
    # u_{B o A} = (u_B)_A, with B o A the word of A followed by that of B
    rng = make_rng(3)
    u = BubbleField(BubbleParams(n=3, a=1.0, beta=1.0))
    A = MoebiusMap((Translate(np.array([0.1, 0.0, -0.2])), Scale(1.4)))
    B = MoebiusMap((Invert(), Scale(0.8)))
    composed = pullback_u(u, MoebiusMap(A.word + B.word))
    nested = pullback_u(pullback_u(u, B), A)
    for x in shell_points(rng, 3, 20, 0.7, 1.3):
        assert composed.value(x) == pytest.approx(nested.value(x), rel=1e-12)
        assert np.allclose(composed.jet(x)[1], nested.jet(x)[1], rtol=1e-10, atol=1e-12)


def _outcome(fn, x):
    try:
        out = fn(x)
    except ConformaError as exc:
        return type(exc)
    # a jet is the bytes of its three arrays
    parts = out if isinstance(out, tuple) else (out,)
    return b"".join(np.asarray(a, dtype=float).tobytes() for a in parts)


@given(
    n=st.integers(min_value=3, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kinds=st.lists(
        st.sampled_from(["translate", "scale", "-scale", "invert"]), min_size=1, max_size=6
    ).filter(lambda w: 1 <= w.count("invert") <= 2),
    field=st.integers(min_value=0, max_value=4),
    fd=st.booleans(),
)
@settings(max_examples=120, deadline=None)
def test_pullback_matches_generator_oracle(n, seed, kinds, field, fd):
    rng = make_rng(seed)
    gens = []
    for kind in kinds:
        if kind == "translate":
            gens.append(Translate(tuple(0.3 * rng.uniform(-1, 1, size=n))))
        elif kind == "invert":
            gens.append(Invert())
        else:
            c = float(rng.uniform(0.5, 2.0))
            gens.append(Scale(-c if kind == "-scale" else c))
    psi = MoebiusMap(tuple(gens))
    u = catalog_fields(n)[field]
    if fd:
        u = finite_difference(u, h=1e-3)
    got, want = pullback_u(u, psi), pullback_u_generators(u, psi)
    for x in shell_points(rng, n, 3, 0.7, 1.3):
        for name in ("value", "jet"):
            assert _outcome(getattr(got, name), x) == _outcome(getattr(want, name), x)


def _inverted(u, x, lam, Y):
    # u_{x,lam} at the rows of Y, through the offsets y - x
    D = Y - x
    return sphere_inversion_at_offsets(u, x, lam, D.T, np.einsum("ij,ij->i", D, D))


def test_sphere_inversion_matches_closed_form():
    rng = make_rng(4)
    u = BubbleField(BubbleParams(n=5, a=1.3, beta=0.7))
    x0 = np.array([0.2, -0.1, 0.0, 0.3, 0.1])
    lam = 0.9
    chain = sphere_inversion_u(u, x0, lam)
    Y = x0 + shell_points(rng, 5, 30, 0.4, 2.5)
    direct = _inverted(u, x0, lam, Y)
    for y, d in zip(Y, direct):
        assert chain.value(y) == pytest.approx(d, rel=1e-10)


def test_inversion_of_constant_is_harmonic_power():
    # (1)_{0,1}(y) = |y|^{2-n}
    u = ConstantField(4, 1.0)
    hp = HarmonicPowerField(4)
    Y = shell_points(make_rng(5), 4, 20, 0.3, 3.0)
    got = _inverted(u, np.zeros(4), 1.0, Y)
    for y, g in zip(Y, got):
        assert g == pytest.approx(hp.value(y), rel=1e-13)


def test_inversion_fixed_sphere():
    # on |y - x| = lam the kernel is 1 and the argument is y itself
    u = BubbleField(BubbleParams(n=3, a=1.0, beta=2.0))
    x0 = np.array([0.1, 0.2, 0.0])
    lam = 0.75
    D = shell_points(make_rng(6), 3, 10, 1.0, 1.0)
    Y = x0 + lam * D / np.linalg.norm(D, axis=1)[:, None]
    got = _inverted(u, x0, lam, Y)
    assert np.allclose(got, u.values(Y), rtol=1e-12, atol=0.0)


def test_conjugation_identity_analytic():
    rng = make_rng(7)
    words = [random_word(rng, 3) for _ in range(20)]
    pts = shell_points(rng, 3, 10, 0.7, 1.3)
    worst = 0.0
    for u in catalog_fields(3):
        for w in words:
            worst = max(worst, conjugation_residual(u, w, pts))
    assert worst <= 1e-10


def test_conjugation_identity_fd():
    rng = make_rng(7)
    words = [random_word(rng, 3) for _ in range(20)]
    pts = shell_points(rng, 3, 10, 0.7, 1.3)
    worst = 0.0
    for u in catalog_fields(3):
        ufd = finite_difference(u, h=1e-3)
        for w in words:
            worst = max(worst, conjugation_residual(ufd, w, pts))
    assert worst <= 1e-4


def test_conjugation_fd_second_order():
    rng = make_rng(7)
    word = random_word(rng, 3)
    pts = shell_points(rng, 3, 10, 0.7, 1.3)
    u = catalog_fields(3)[0]
    hs = [4e-3, 2e-3, 1e-3]
    devs = [conjugation_residual(finite_difference(u, h=h), word, pts) for h in hs]
    slope = order_estimate(hs, devs)
    assert 1.8 <= slope <= 2.2, (devs, slope)


def test_conjugation_residual_memory_does_not_grow_with_samples():
    # samples are taken CONJUGATION_SLAB at a time: 4x the samples, the same
    # peak (one pass over all of them held about 4x)
    u = BubbleField(BubbleParams(n=8, a=1.0, beta=1.0))
    psi = MoebiusMap((Scale(1.7), Invert()))
    peaks = []
    for m in (500, 2000):
        pts = shell_points(make_rng(0), 8, m, 0.6, 1.4)
        tracemalloc.start()
        try:
            conjugation_residual(u, psi, pts)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks


def test_conjugation_residual_identity_word_is_zero():
    u = catalog_fields(3)[0]
    pts = shell_points(make_rng(8), 3, 5, 0.8, 1.2)
    assert conjugation_residual(u, MoebiusMap(()), pts) == 0.0

