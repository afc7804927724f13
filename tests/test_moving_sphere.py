"""Moving-sphere sweep, the derived invariant, the two appendix lemmas,
and the explicit Harnack product."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    GaussianBumpField,
    critical_radius_loop,
    h_catalog_by_kind,
    h_lemma_check_cube,
    h_lemma_check_slabs,
    msi_violation_loop,
    msi_violation_one,
)

import conforma.cli
import conforma.moving_sphere
from conforma.bubbles import BubbleParams
from conforma.cli import _h_catalog, main
from conforma.errors import ConformaError, ConvergenceError, DomainError, GeometryError
from conforma.fields import BubbleField, ConstantField, ScalarField, ball
from conforma.moving_sphere import (
    AlphaReport,
    SweepConfig,
    alpha_invariant,
    critical_radius,
    gradient_bound_check,
    h_lemma_check,
    harnack_constant,
    harnack_product,
    msi_violation,
)
from conforma.sampling import ball_points, make_rng, sphere_points


def sweep_cfg(seed=0, count=1024):
    return SweepConfig(
        lambda_min=0.04,
        lambda_max=4.0,
        check_points=ball_points(make_rng(seed), 3, count, radius=8.0),
        lambda_steps=256,
    )


class _LumpedBubble(ScalarField):
    """Bubble plus a localized 5 percent bump: breaks the invariant."""

    def __init__(self, bubble, bump):
        super().__init__(bubble.n, None)
        self.parts = (bubble, bump)

    def _value(self, x):
        return sum(p.value(x) for p in self.parts)

    def values(self, X):
        return sum(p.values(X) for p in self.parts)


@pytest.mark.parametrize("beta", [0.25, 1.0, 4.0])
def test_critical_radius_matches_bubble_scale(beta):
    # lam_bar(0) = beta^{-1/2} for the centered unit bubble
    u = BubbleField(BubbleParams(n=3, a=1.0, beta=beta))
    cr = critical_radius(u, np.zeros(3), sweep_cfg())
    assert cr.flag == ""
    assert abs(cr.lambda_bar - beta**-0.5) <= 1e-3 * beta**-0.5


def test_critical_radius_constant_is_unbounded():
    u = ConstantField(3, 2.0)
    cfg = sweep_cfg()
    cr = critical_radius(u, np.zeros(3), cfg)
    assert cr.flag == "unbounded"
    assert cr.lambda_bar == cfg.lambda_max
    # and the sweep itself never sees a violation
    worst = max(
        msi_violation(u, np.zeros(3), lam, cfg.check_points)
        for lam in (cfg.lambda_min, 1.0, cfg.lambda_max)
    )
    assert worst <= 0.0


def test_msi_violation_validation():
    u = ConstantField(3, 1.0, ball(4.0))
    with pytest.raises(DomainError):
        msi_violation(u, np.zeros(3), -1.0, np.zeros((1, 3)))
    with pytest.raises(GeometryError):
        msi_violation(u, np.array([3.5, 0.0, 0.0]), 1.0, np.zeros((1, 3)))


def test_alpha_invariant_spread_is_tiny_for_bubbles():
    u = BubbleField(BubbleParams(n=3, a=1.0, beta=1.0))
    centers = np.vstack([np.zeros(3), 0.3 * sphere_points(make_rng(1), 3, 8)])
    rep = alpha_invariant(u, centers, sweep_cfg())
    assert isinstance(rep, AlphaReport)
    assert len(rep.values) == 9
    # lam_bar per center is kept for the sweep CSV, but not serialised
    cfg = sweep_cfg()
    assert rep.lambda_bars == [critical_radius(u, x, cfg).lambda_bar for x in centers]
    assert rep.values == [lam * u.value(x) for lam, x in zip(rep.lambda_bars, centers)]
    assert list(rep.to_json_dict()) == ["values", "spread", "reference"]
    alpha = float(np.mean(rep.values))
    assert rep.spread <= 1e-2 * alpha
    assert rep.spread <= 1e-12  # measured: identical to machine precision
    # the rim estimate approximates lim |y|^{n-2} u(y) = a^{1/2}/beta^{1/2}
    assert abs(rep.reference - alpha) <= 0.05 * alpha


def test_alpha_invariant_raises_on_flagged_center():
    with pytest.raises(ConvergenceError):
        alpha_invariant(ConstantField(3, 1.0), np.zeros((1, 3)), sweep_cfg())


def test_alpha_invariant_detects_local_lump():
    bubble = BubbleField(BubbleParams(n=3, a=1.0, beta=1.0))
    bump = GaussianBumpField(
        3, base=1e-12, amp=0.05, center=np.array([0.8, 0.0, 0.0]), width=0.5
    )
    u = _LumpedBubble(bubble, bump)
    centers = np.vstack([np.zeros(3), 0.3 * sphere_points(make_rng(1), 3, 8)])
    rep = alpha_invariant(u, centers, sweep_cfg())
    alpha = float(np.mean(rep.values))
    assert rep.spread > 1e-2 * alpha  # measured spread ~ 0.13


def test_h_lemma_bubble_trace_passes():
    alpha, a = 3.0, 0.5

    def h(s):
        return (1.0 + np.asarray(s) ** 2) ** (-0.5 * alpha)

    def hp(s):
        s = np.asarray(s)
        return -alpha * s * (1.0 + s**2) ** (-0.5 * alpha - 1.0)

    rep = h_lemma_check(h, hp, alpha, a)
    assert rep.hypothesis_pass and rep.conclusion_pass
    assert rep.implication_holds()


def test_h_lemma_exponential_contrapositive():
    # steep growth breaks the conclusion, and the hypothesis fails with it
    def h(s):
        return np.exp(5.0 * np.asarray(s))

    def hp(s):
        return 5.0 * np.exp(5.0 * np.asarray(s))

    rep = h_lemma_check(h, hp, 2.0, 0.5)
    assert not rep.hypothesis_pass
    assert not rep.conclusion_pass
    assert rep.implication_holds()


def test_h_lemma_check_takes_a_scalar_valued_h():
    # a constant h may return one number for an array; it satisfies both sides
    rep = h_lemma_check(lambda s: 2.0, lambda s: 0.0, 0.0, 0.5, 8)
    assert rep.hypothesis_pass and rep.conclusion_pass
    assert rep.hypothesis_worst == 0.0


def test_h_lemma_catalog_has_no_counterexample():
    from conforma.cli import _h_catalog

    rng = make_rng(0)
    for h, hp, alpha, a in _h_catalog(rng, 50):
        rep = h_lemma_check(h, hp, alpha, a)
        assert rep.implication_holds()


def test_gradient_bound_pass_and_vacuous():
    u = BubbleField(BubbleParams(n=3, a=1.0, beta=1.0), ball(9.0))
    rep = gradient_bound_check(u, 0.5)
    assert rep.hypothesis_pass and not rep.vacuous
    assert rep.conclusion_pass
    assert rep.slack > 0.0
    # doubling the window radius empties the hypothesis set
    rep2 = gradient_bound_check(u, 1.0)
    assert rep2.vacuous
    assert rep2.slack is None


def test_harnack_constant_closed_form():
    assert harnack_constant(3) == 165888
    assert harnack_constant(4) == 1099511627776
    for n in (3, 4, 5):
        r = 2 ** (n + 6) * n**4
        assert harnack_constant(n) == 4 ** (n - 2) * r ** (n - 2)


def test_harnack_product_on_catalog():
    C3 = harnack_constant(3)
    cases = [
        BubbleField(BubbleParams(n=3, a=1.0, beta=1.0 / 6.0), ball(4.0)),
        BubbleField(BubbleParams(n=3, a=np.sqrt(6e3), beta=1e3), ball(4.0)),
        ConstantField(3, 2.0, ball(4.0)),
    ]
    for u in cases:
        rep = harnack_product(u, R=1.0, delta=1.0)
        assert rep.within_bound
        assert rep.P <= C3
        assert rep.B == C3
        assert rep.rescaling_exactness <= 1e-10
        assert rep.sup_u >= rep.inf_u > 0.0


def test_harnack_bound_scales_with_radius():
    # B = C(n) delta^{(2-n)/2} R^{2-n}
    u = ConstantField(3, 1.0, ball(9.0))
    rep1 = harnack_product(u, R=1.0, delta=1.0)
    rep2 = harnack_product(u, R=2.0, delta=1.0)
    assert rep2.B == pytest.approx(rep1.B / 2.0, rel=1e-12)
    rep3 = harnack_product(u, R=1.0, delta=4.0)
    assert rep3.B == pytest.approx(rep1.B / 2.0, rel=1e-12)


# ---------------------------------------------------------------------------
# The per-centre and tau-slab kernels against their one-radius and d^3
# oracles in helpers: same bits, same exceptions


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ConformaError as exc:
        return type(exc)


@given(
    n=st.integers(min_value=3, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    count=st.integers(min_value=1, max_value=300),
    constant=st.booleans(),
    outer=st.sampled_from([None, 2.5, 9.0]),
    guard=st.sampled_from([0.0, 1e-6, 0.018, 0.3]),
    lams=st.lists(
        st.floats(min_value=-0.5, max_value=7.0) | st.sampled_from([0.0, 1e-14]),
        min_size=1,
        max_size=8,
    ),
    pole=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_msi_violation_matches_per_radius_oracle(
    n, seed, count, constant, outer, guard, lams, pole
):
    rng = make_rng(seed)
    domain = None if outer is None else ball(outer)
    if constant:
        u = ConstantField(n, float(rng.uniform(0.5, 2.0)), domain)
    else:
        params = BubbleParams(
            n=n,
            a=float(rng.uniform(0.5, 2.0)),
            beta=float(rng.uniform(0.25, 4.0)),
            center=ball_points(rng, n, 1, radius=0.5)[0],
        )
        u = BubbleField(params, domain)
    x = ball_points(rng, n, 1, radius=1.5)[0]
    pts = ball_points(rng, n, count, radius=6.0)
    if pole:
        # inside the pole guard of x, kept by radii up to 1e-13
        pts[0] = x + 1e-13 * sphere_points(rng, n, 1)[0]

    expected = [_outcome(msi_violation_one, u, x, lam, pts, guard) for lam in lams]
    for lam, want in zip(lams, expected):
        assert _outcome(msi_violation, u, x, lam, pts, guard) == want
    got = _outcome(msi_violation, u, x, np.array(lams), pts, guard)
    failures = [e for e in expected if isinstance(e, type)]
    if failures:
        # a batch raises what the first radius that cannot be evaluated raises
        assert got is failures[0]
    else:
        assert got.tolist() == expected


def test_critical_radius_matches_per_radius_scan():
    cfg = sweep_cfg(count=512)
    bubble = BubbleField(BubbleParams(n=3, a=1.0, beta=1.0), ball(9.0))
    for x in np.vstack([np.zeros(3), 0.3 * sphere_points(make_rng(1), 3, 2)]):
        assert critical_radius(bubble, x, cfg) == critical_radius_loop(bubble, x, cfg)
    # lambda_max = 4 passes the domain edge at 3: the bubble's scan stops at
    # its first violation (lam ~ 1) before reaching it, the constant's does not
    small = BubbleField(BubbleParams(n=3, a=1.0, beta=1.0), ball(3.0))
    assert critical_radius(small, np.zeros(3), cfg) == critical_radius_loop(
        small, np.zeros(3), cfg
    )
    flat = ConstantField(3, 2.0, ball(3.0))
    for fn in (critical_radius, critical_radius_loop):
        with pytest.raises(GeometryError):
            fn(flat, np.zeros(3), cfg)


@pytest.mark.parametrize("beta", [0.25, 1.0, 4.0])
def test_critical_radius_matches_closed_form_at_every_center(beta):
    # the inversion about x reproduces the centred bubble exactly at
    # lam_bar(x)^2 = (1 + beta |x|^2) / beta (measured agreement 5e-15)
    cfg = SweepConfig(
        lambda_min=0.04,
        lambda_max=4.0,
        check_points=ball_points(make_rng(0), 3, 4096, radius=8.0),
        lambda_steps=256,
    )
    centers = np.vstack([np.zeros(3), 0.3 * sphere_points(make_rng(1), 3, 8)])
    u = BubbleField(BubbleParams(n=3, a=1.0, beta=beta))
    for x in centers:
        cr = critical_radius(u, x, cfg)
        assert cr.flag == ""
        exact = (1.0 + beta * float(x @ x)) / beta
        assert abs(cr.lambda_bar**2 - exact) <= 1e-12 * exact


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    item=st.integers(min_value=0, max_value=9),
    density=st.sampled_from([8, 17, 32, 64]),
)
@settings(max_examples=40, deadline=None)
def test_h_lemma_check_matches_cube_oracle(seed, item, density):
    # items 0-9 cover each of the five catalog kinds twice. The factored
    # kernel lam^alpha |s-tau|^(-alpha) rounds differently from the oracle's
    # (lam/|s-tau|)^alpha: only hypothesis_worst may move, by a few ulps of
    # the gate's scale (at most 2.5 eps over the catalogs of seeds 0-999)
    h, hp, alpha, a = _h_catalog(make_rng(seed), 10)[item]
    got = h_lemma_check(h, hp, alpha, a, density)
    want = h_lemma_check_cube(h, hp, alpha, a, density)
    assert replace(got, hypothesis_worst=0.0) == replace(want, hypothesis_worst=0.0)
    scale = float(np.max(np.abs(h(np.linspace(-4.0 * a, 4.0 * a, density)))))
    eps = np.finfo(float).eps
    assert abs(got.hypothesis_worst - want.hypothesis_worst) <= 16 * eps * max(1.0, scale)


# four items whose sampled hypothesis passed on the half-open box while the
# conclusion failed (βa² just above 1; 635597269 item 42 still does), and
# every kind-2 item, whose βa² straddles 1
KNOWN_LEMMA_FAILURES = [(52, 42), (156, 47), (635597269, 42), (1880108470, 27)]
KIND2_ITEMS = [(seed, item) for seed in range(10) for item in range(2, 50, 5)]
# the item of each seed that the closed box fixed: the half-open box
# lam < a, |tau| < 2a passed its hypothesis with βa² above 1
CLOSED_BOX_ITEMS = [
    (52, 42), (156, 47), (260, 22), (280, 42), (286, 7), (290, 12), (330, 17), (351, 2),
    (373, 12), (379, 2), (382, 37), (465, 22), (479, 27), (504, 32), (510, 2), (590, 12),
    (667, 7), (686, 42), (754, 2), (768, 22), (852, 2), (869, 37), (1880108470, 27),
]


@pytest.mark.parametrize("items", [KNOWN_LEMMA_FAILURES, KIND2_ITEMS], ids=["known", "kind2"])
def test_h_lemma_check_verdicts_match_cube_oracle_at_the_threshold(items):
    for seed, item in items:
        h, hp, alpha, a = _h_catalog(make_rng(seed), item + 1)[item]
        got = h_lemma_check(h, hp, alpha, a)
        want = h_lemma_check_cube(h, hp, alpha, a)
        assert (got.hypothesis_pass, got.conclusion_pass) == (
            want.hypothesis_pass,
            want.conclusion_pass,
        ), (seed, item)


@pytest.mark.parametrize("items", [CLOSED_BOX_ITEMS, KIND2_ITEMS], ids=["fixed", "kind2"])
def test_h_lemma_check_kind2_verdicts_follow_beta_a_squared(items):
    # kind 2 is the trace (1 + beta s^2)^(-alpha/2): the lemma's hypothesis and
    # its conclusion hold on [-a, a] iff beta a^2 <= 1. beta comes from
    # h(1) = (1 + beta)^(-alpha/2), not from the closure
    for seed, item in items:
        h, hp, alpha, a = _h_catalog(make_rng(seed), item + 1)[item]
        beta_a2 = (float(h(1.0)) ** (-2.0 / alpha) - 1.0) * a * a
        rep = h_lemma_check(h, hp, alpha, a)
        holds = beta_a2 <= 1.0
        assert (rep.hypothesis_pass, rep.conclusion_pass) == (holds, holds), (seed, item, beta_a2)


@pytest.mark.parametrize("density", [8, 17, 64])
def test_h_lemma_check_leaks_no_floating_point_state(density):
    # a dropped cell would divide by zero at s = tau or overflow kind 4's exp;
    # nothing may warn, and the caller's error state must come back unchanged
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        before = np.geterr()
        for seed in range(5):
            for h, hp, alpha, a in _h_catalog(make_rng(seed), 50):
                h_lemma_check(h, hp, alpha, a, density)
        assert np.geterr() == before


@pytest.mark.parametrize("density", [8, 17, 64])
def test_h_lemma_check_matches_slab_walk_bit_for_bit(density):
    # the radius-major walk puts every kept cell through the slab walk's
    # elementwise operations and takes the max over the same values: the
    # whole report keeps its bits (repr tells -0.0 from 0.0), worst included
    for seed in range(20):
        for h, hp, alpha, a in _h_catalog(make_rng(seed), 50):
            got = h_lemma_check(h, hp, alpha, a, density)
            assert repr(got) == repr(h_lemma_check_slabs(h, hp, alpha, a, density)), seed


@pytest.mark.parametrize("items", [KNOWN_LEMMA_FAILURES, CLOSED_BOX_ITEMS], ids=["known", "fixed"])
def test_h_lemma_check_matches_slab_walk_at_the_threshold(items):
    for seed, item in items:
        h, hp, alpha, a = _h_catalog(make_rng(seed), item + 1)[item]
        got = h_lemma_check(h, hp, alpha, a)
        assert repr(got) == repr(h_lemma_check_slabs(h, hp, alpha, a)), (seed, item)


@pytest.mark.parametrize("density", [8, 17])
def test_h_lemma_check_evaluates_h_on_kept_cells_only(density):
    # h's first call is the right-hand side on the s grid; every later
    # argument is a kept cell's mapped point or a conclusion point, all
    # finite and in [-3a, 3a] up to rounding: no s = tau, no dropped cell
    for h, hp, alpha, a in _h_catalog(make_rng(0), 10):
        calls = []

        def recording(x, h=h):
            calls.append(np.array(x, dtype=float))
            return h(x)

        h_lemma_check(recording, hp, alpha, a, density)
        rhs, *others = calls
        s = np.linspace(-4.0 * a, 4.0 * a, density)
        assert rhs.tobytes() == s.tobytes()
        args = np.concatenate([x.ravel() for x in others])
        assert np.all(np.isfinite(args))
        assert np.max(np.abs(args)) <= 3.0 * a + 4 * np.spacing(3.0 * a)
        taus = np.linspace(-2.0 * a, 2.0 * a, density)
        lam = np.linspace(a / density, a, density)
        kept = np.count_nonzero(lam < np.abs(s[:, None, None] - taus[:, None]))
        assert len(args) == kept + density


@pytest.mark.parametrize("a", [np.inf, np.nan, 1e308])
def test_h_lemma_check_refuses_a_non_finite_interval(a):
    # a = inf kept no cell and passed the hypothesis with worst -inf; so did
    # a = 1e308, whose grid overflows
    h, hp, alpha, _ = _h_catalog(make_rng(0), 1)[0]
    with pytest.raises(DomainError, match="half-width"), np.errstate(all="ignore"):
        h_lemma_check(h, hp, alpha, a)


@pytest.mark.parametrize("alpha", [np.inf, np.nan])
def test_h_lemma_check_refuses_a_non_finite_decay_exponent(alpha):
    # alpha = inf passed the conclusion with worst -inf
    h, hp, _, a = _h_catalog(make_rng(0), 1)[0]
    with pytest.raises(DomainError, match="decay exponent"):
        h_lemma_check(h, hp, alpha, a)


@pytest.mark.parametrize("a", [np.inf, np.nan])
def test_gradient_bound_check_refuses_a_non_finite_radius(a):
    # a = inf passed the hypothesis with worst -inf and bound coefficient 0
    u = BubbleField(BubbleParams(n=3, a=1.0, beta=1.0))
    with pytest.raises(DomainError, match="radius"):
        gradient_bound_check(u, a)


@pytest.mark.parametrize("seed", [0, 1, 635597269, 1880108470])
def test_h_catalog_matches_per_kind_oracle(seed):
    # the trace family (1 + beta (s - m)^2)^(-alpha/2) gives each kind's bits,
    # and every kind draws the same numbers in the same order
    s = np.concatenate([
        np.linspace(-5.0, 5.0, 401),
        [0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, np.inf, -np.inf, np.nan],
    ])
    got = _h_catalog(make_rng(seed), 50)
    want = h_catalog_by_kind(make_rng(seed), 50)
    with np.errstate(all="ignore"):
        for (h, hp, alpha, a), (h0, hp0, alpha0, a0) in zip(got, want):
            assert (alpha, a) == (alpha0, a0)
            assert np.asarray(h(s)).tobytes() == np.asarray(h0(s)).tobytes()
            assert np.asarray(hp(s)).tobytes() == np.asarray(hp0(s)).tobytes()


@pytest.mark.parametrize("seed", [0, 635597269, 1880108470])
def test_lemmas_result_json_matches_oracle_path(tmp_path, monkeypatch, seed):
    # 635597269 exits 1 (a sampled h with βa² just above 1 meets the
    # hypothesis but not the conclusion) and 1880108470 exits 0 since the
    # grid includes the box's faces; the oracle path must reproduce both
    argv = ["moving-sphere", "--task", "lemmas", "--seed", str(seed)]
    rc = main(argv + ["--output-dir", str(tmp_path / "kernel")])
    monkeypatch.setattr(conforma.moving_sphere, "msi_violation", msi_violation_loop)
    monkeypatch.setattr(conforma.cli, "h_lemma_check", h_lemma_check_cube)
    assert main(argv + ["--output-dir", str(tmp_path / "oracle")]) == rc
    kernel = (tmp_path / "kernel" / "result.json").read_bytes()
    assert kernel == (tmp_path / "oracle" / "result.json").read_bytes()
