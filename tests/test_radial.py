"""Radial shooting against the closed-form bubble: exact center jet,
implicit vertical slope, RK4 convergence."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    bubble_deviation_full,
    bubble_value,
    homotopy_operator,
    implicit_vpp_bracket,
    implicit_vpp_node,
    profile_max_unit_residual_loop,
    shoot_stagewise,
)

from conforma.cones import (
    homogenize,
    make_sigma_k_operator,
    mu_star,
    sigma_all,
    solve_unit_level,
    two_cluster_sigmas,
)
from conforma import radial
from conforma.errors import ConeError, DomainError, PositivityError
from conforma.radial import (
    RadialProfile,
    bubble_deviation,
    matched_bubble,
    order_estimate,
    profile_max_unit_residual,
    radial_eigenvalues,
    shoot,
    slope_kernel,
    vpp0_exact,
)
from conforma.bubbles import BubbleParams


def test_mu_star_closed_forms():
    # sigma_k(mu e)^{1/k} = mu C(n,k)^{1/k} = 1
    assert mu_star(make_sigma_k_operator(3, 1)) == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert mu_star(make_sigma_k_operator(3, 2)) == pytest.approx(3.0 ** -0.5, rel=1e-12)
    assert mu_star(make_sigma_k_operator(5, 2)) == pytest.approx(10.0 ** -0.5, rel=1e-12)


def test_center_jet_closed_form():
    op = make_sigma_k_operator(3, 1)
    assert vpp0_exact(op, 1.0) == pytest.approx(-1.0 / 6.0, rel=1e-12)
    # v''(0) scales like v0^{(n+2)/(n-2)}
    assert vpp0_exact(op, 2.0) == pytest.approx(-(2.0 ** 5.0) / 6.0, rel=1e-12)


def test_matched_bubble_parameters():
    op = make_sigma_k_operator(3, 1)
    p = matched_bubble(op, 1.0)
    assert p.a == pytest.approx(1.0, rel=1e-14)
    assert p.beta == pytest.approx(1.0 / 6.0, rel=1e-12)
    assert bubble_value(p, np.zeros(3)) == pytest.approx(1.0, rel=1e-14)


def test_radial_eigenvalues_on_bubble_are_constant():
    op = make_sigma_k_operator(4, 2)
    p = matched_bubble(op, 1.3)
    target = 2.0 * p.beta / p.a**2
    for r in (0.0, 0.2, 0.7):
        rr2 = 1.0 + p.beta * r * r
        v = p.a ** 1.0 * rr2 ** -1.0  # (n-2)/2 = 1 for n = 4
        vp = -2.0 * p.a * p.beta * r * rr2 ** -2.0
        vpp = -2.0 * p.a * p.beta * (1.0 - 3.0 * p.beta * r * r) * rr2 ** -3.0
        lam = radial_eigenvalues(v, vp if r else 0.0, vpp, r, 4)
        assert np.max(np.abs(lam - target)) <= 1e-12


def test_radial_eigenvalues_validation():
    with pytest.raises(DomainError):
        radial_eigenvalues(1.0, 0.5, -1.0, 0.0, 3)  # v'(0) != 0 is inconsistent
    with pytest.raises(PositivityError):
        radial_eigenvalues(-1.0, 0.0, 0.0, 0.5, 3)


def test_implicit_vpp_recovers_bubble_second_derivative():
    op = make_sigma_k_operator(5, 2)
    p = matched_bubble(op, 1.0)
    r = 0.4
    rr2 = 1.0 + p.beta * r * r
    e = 0.5 * (p.n - 2.0)
    v = p.a**e * rr2**-e
    vp = -2.0 * e * p.a**e * p.beta * r * rr2 ** (-e - 1.0)
    vpp_true = (
        -2.0 * e * p.a**e * p.beta * rr2 ** (-e - 2.0) * (1.0 - (2.0 * e + 1.0) * p.beta * r * r)
    )
    w = slope_kernel(op)(v, vp, r)
    assert w == pytest.approx(vpp_true, rel=1e-11)


def test_implicit_vpp_rejects_off_cone_data():
    op = make_sigma_k_operator(5, 2)
    # v' > 0 far from the center forces the tangential eigenvalues negative
    with pytest.raises(ConeError):
        slope_kernel(op)(1.0, 1.0, 0.5)


WORKLOAD_PAIRS = [(3, 1), (3, 2), (3, 3), (4, 2), (5, 2), (5, 3)]


def _slope_inputs(op, seed):
    """(v, v', r) from two shot profiles plus seeded random draws; the
    draws include off-cone data for k >= 2."""
    pts = []
    for v0 in (0.5, 2.0):
        prof = shoot(op, v0, h=1e-2, r_max=0.9)
        for i in range(1, len(prof.r), 9):
            pts.append((float(prof.v[i]), float(prof.vp[i]), float(prof.r[i])))
    rng = np.random.default_rng(seed)
    for _ in range(40):
        v = rng.uniform(0.2, 3.0)
        r = rng.uniform(0.01, 1.5)
        pts.append((v, -rng.uniform(0.0, 3.0) * v * r, r))
    pts.append((1.0, 1.0, 0.5))
    return pts


def _outcome(solve, *args):
    try:
        return solve(*args)
    except ConeError:
        return "cone"


@pytest.mark.parametrize("n,k", WORKLOAD_PAIRS)
def test_implicit_vpp_matches_root_search_oracle(n, k):
    op = make_sigma_k_operator(n, k)
    slope = slope_kernel(op)
    solved = off_cone = 0
    for v, vp, r in _slope_inputs(op, seed=100 * n + k):
        w = _outcome(slope, v, vp, r)
        w_ref = _outcome(implicit_vpp_bracket, op, v, vp, r)
        if w_ref == "cone":
            assert w == "cone", (v, vp, r, w)
            off_cone += 1
        else:
            assert w != "cone", (v, vp, r, w_ref)
            assert w == pytest.approx(w_ref, rel=1e-12), (v, vp, r)
            solved += 1
    assert solved >= 20
    # sigma_1 operators admit a slope for every positive v
    assert (off_cone == 0) if k == 1 else (off_cone >= 2)
    for v in (0.0, -1.0):
        with pytest.raises(PositivityError):
            slope(v, -0.1, 0.5)
        with pytest.raises(PositivityError):
            implicit_vpp_bracket(op, v, -0.1, 0.5)
    # the closed form needs a recorded sigma_k order
    assert op.sigma_order == k
    for other in (homogenize(op), homotopy_operator(op, 0.5)):
        assert other.sigma_order is None
        with pytest.raises(DomainError):
            slope_kernel(other)


def _bits(solve, *args):
    """A slope's bits, or its exception's type and message."""
    try:
        return solve(*args).hex()
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc), str(exc)


# (v, v', r) shaped like profile data (v' = -t v r, mostly on the cone),
# and arbitrary floats: zeros, negatives, nan, inf and powers that overflow
_profile_like = st.tuples(
    st.floats(0.05, 5.0), st.floats(0.0, 3.0), st.floats(1e-4, 2.0)
).map(lambda d: (d[0], -d[1] * d[0] * d[2], d[2]))
_any_data = st.tuples(st.floats(), st.floats(), st.floats())


@given(st.sampled_from(WORKLOAD_PAIRS), st.one_of(_profile_like, _any_data))
@settings(max_examples=400, deadline=None)
def test_slope_kernel_matches_per_call_slope_bit_for_bit(nk, data):
    v, vp, r = data
    op = make_sigma_k_operator(*nk)
    kernel = slope_kernel(op)
    want = _bits(implicit_vpp_node, op, v, vp, r)
    assert _bits(kernel, v, vp, r) == want


# shots that stop early, only at coarse steps: a cone exit inside the RK4
# loop, a profile that crosses zero, and each of the two at the Taylor node
# (one node kept)
EARLY_STOPS = [
    ((3, 3, 1.5, 0.42), "cone_exit"),
    ((3, 1, 3.25, 0.18), "positivity_loss"),
    ((3, 1, 1.0, 3.5), "positivity_loss"),
    ((5, 2, 1.0, 2.0), "cone_exit"),
]


def _oracle_shots():
    for n, k in WORKLOAD_PAIRS:
        for v0 in (0.5, 1.0, 2.0):
            yield (n, k, v0, 1e-3, 0.9), "ok"
    for (n, k, v0, h), status in EARLY_STOPS:
        yield (n, k, v0, h, 5.0), status


@pytest.mark.parametrize("n,k,v0,h,r_max,status", [(*a, s) for a, s in _oracle_shots()])
def test_shoot_and_residual_match_per_node_oracles(n, k, v0, h, r_max, status):
    op = make_sigma_k_operator(n, k)
    prof = shoot(op, v0, h=h, r_max=r_max)
    ref = shoot_stagewise(op, v0, h, r_max=r_max)
    assert prof.status == ref.status == status
    for name in ("r", "v", "vp", "vpp"):
        assert np.array_equal(getattr(prof, name), getattr(ref, name)), name
    res = profile_max_unit_residual(op, prof)
    assert abs(res - profile_max_unit_residual_loop(op, ref)) <= 1e-15


def _tampered(prof, **changes):
    arrays = {name: getattr(prof, name).copy() for name in ("r", "v", "vp", "vpp")}
    for key, value in changes.items():
        name, i = key.rsplit("_", 1)
        arrays[name][int(i)] = value
    return RadialProfile(**arrays, n=prof.n, operator=prof.operator, v0=prof.v0, h=prof.h)


def test_residual_check_slabs_change_nothing(monkeypatch):
    op = make_sigma_k_operator(5, 2)
    prof = shoot(op, 1.0, h=1e-3, r_max=0.9)
    whole = profile_max_unit_residual(op, prof)
    assert len(prof.r) < radial.RESIDUAL_SLAB
    for slab in (1, 7, 450):
        monkeypatch.setattr(radial, "RESIDUAL_SLAB", slab)
        assert profile_max_unit_residual(op, prof) == whole


@pytest.mark.parametrize("slab", [4, 1 << 14])
@pytest.mark.parametrize("n,k", WORKLOAD_PAIRS)
def test_residual_check_raises_what_the_node_loop_raises(n, k, slab, monkeypatch):
    monkeypatch.setattr(radial, "RESIDUAL_SLAB", slab)
    op = make_sigma_k_operator(n, k)
    prof = shoot(op, 1.0, h=0.05, r_max=0.9)
    off = 1e3  # v'' this large drives lam_rad, and sigma_1, far negative
    cases = {
        "off-cone": ({"vpp_7": off}, ConeError),
        "off-cone first": ({"vpp_7": off, "v_9": -1.0}, ConeError),
        "nonpositive first": ({"v_4": 0.0, "vpp_7": off}, PositivityError),
        "center slope": ({"vp_0": 0.5}, DomainError),
        "negative radius": ({"r_3": -0.1}, DomainError),
        "nan value": ({"v_5": float("nan")}, PositivityError),
    }
    for name, (changes, kind) in cases.items():
        bad = _tampered(prof, **changes)
        with pytest.raises(kind) as got:
            profile_max_unit_residual(op, bad)
        with pytest.raises(kind) as want:
            profile_max_unit_residual_loop(op, bad)
        assert str(got.value) == str(want.value), name
        if kind is ConeError:
            assert len(got.value.witness) == n
            assert got.value.witness == pytest.approx(want.value.witness, rel=1e-14), name
    # like the slope, the whole-profile check needs a recorded sigma_k order
    for other in (homogenize(op), homotopy_operator(op, 0.5)):
        with pytest.raises(DomainError):
            profile_max_unit_residual(other, prof)


@pytest.mark.parametrize("n,k", WORKLOAD_PAIRS)
def test_mu_star_matches_ray_solve(n, k):
    op = make_sigma_k_operator(n, k)
    ray = solve_unit_level(op.f, np.ones(n))
    assert abs(mu_star(op) - ray) <= 1e-14 * ray
    for other in (homogenize(op), homotopy_operator(op, 0.5)):
        with pytest.raises(DomainError):
            mu_star(other)


@pytest.mark.parametrize("n,k", WORKLOAD_PAIRS)
def test_two_cluster_sigmas_match_product_expansion(n, k):
    rng = np.random.default_rng(7 * n + k)
    for _ in range(20):
        a, b = rng.normal(size=2)
        got = two_cluster_sigmas(a, b, n - 1, k)
        want = sigma_all([a] + [b] * (n - 1))[:k]
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("n,k", [(3, 1), (3, 3), (5, 2)])
def test_shoot_reproduces_bubble(n, k):
    op = make_sigma_k_operator(n, k)
    for v0 in (0.5, 2.0):
        prof = shoot(op, v0, h=1e-3, r_max=0.9)
        assert prof.status == "ok"
        assert len(prof.r) == 901
        dev = bubble_deviation(prof, matched_bubble(op, v0))
        assert dev <= 1e-9
        assert profile_max_unit_residual(op, prof) <= 1e-10


def test_shoot_convergence_order():
    op = make_sigma_k_operator(3, 1)
    hs = [4e-3, 2e-3, 1e-3]
    devs = [
        bubble_deviation(shoot(op, 1.0, h=h, r_max=0.9), matched_bubble(op, 1.0))
        for h in hs
    ]
    slope = order_estimate(hs, devs)
    assert slope >= 3.5, (devs, slope)


def test_order_estimate_recovers_exponent():
    hs = [0.1, 0.05, 0.025]
    assert order_estimate(hs, [h**4 for h in hs]) == pytest.approx(4.0, rel=1e-12)


def test_shoot_validation():
    op = make_sigma_k_operator(3, 1)
    with pytest.raises(PositivityError):
        shoot(op, -1.0)
    with pytest.raises(DomainError):
        shoot(op, 1.0, h=0.0)
    with pytest.raises(DomainError):
        shoot(op, 1.0, h=0.5, r_max=0.2)


def test_bubble_deviation_dimension_check():
    op = make_sigma_k_operator(3, 1)
    prof = shoot(op, 1.0, h=0.1, r_max=0.5)
    with pytest.raises(DomainError):
        bubble_deviation(prof, matched_bubble(make_sigma_k_operator(4, 2), 1.0))


def test_bubble_deviation_pole_check():
    prof = shoot(make_sigma_k_operator(3, 1), 1.0, h=0.1, r_max=0.5)
    # 1 - 4 r^2 is 0.36 at r = 0.4 and reaches the pole at r = 0.5
    with pytest.raises(DomainError, match="r=0.5"):
        bubble_deviation(prof, BubbleParams(n=3, a=1.0, beta=-4.0))
    assert bubble_deviation(prof, BubbleParams(n=3, a=1.0, beta=-3.0)) > 0.0


def test_bubble_deviation_matches_one_pass_oracle():
    # 45 001 nodes: three slabs, the last one short
    for n, k in [(3, 1), (5, 2)]:
        op = make_sigma_k_operator(n, k)
        prof = shoot(op, 1.0, h=2e-5, r_max=0.9)
        assert len(prof.r) > 2 * radial.RESIDUAL_SLAB
        for params in (
            matched_bubble(op, 1.0),
            BubbleParams(n=n, a=1.3, beta=0.7, center=np.linspace(0.2, -0.1, n)),
        ):
            assert bubble_deviation(prof, params) == bubble_deviation_full(prof, params)


def test_bubble_deviation_memory_stays_at_slab_size():
    nodes = 400_001
    r = np.linspace(0.0, 0.9, nodes)
    prof = RadialProfile(r=r, v=np.ones(nodes), vp=np.zeros(nodes), vpp=np.zeros(nodes),
                         n=3, operator="synthetic", v0=1.0, h=r[1])
    params = BubbleParams(n=3, a=1.0, beta=1.0 / 6.0)
    tracemalloc.start()
    try:
        bubble_deviation(prof, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a few node arrays at most; the one-pass form held about ten
    assert peak <= 2 * r.nbytes, peak


def test_profile_serialization():
    op = make_sigma_k_operator(3, 2)
    prof = shoot(op, 1.0, h=0.1, r_max=0.5)
    d = prof.to_json_dict()
    assert d["status"] == "ok"
    assert d["v0"] == 1.0
    assert d["nodes"] == len(prof.r)
