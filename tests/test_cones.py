"""Cone and operator algebra: symmetric-function oracles, validation
harness, homogenization, and the one-vector homotopy oracle."""

import itertools
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conforma.cones import (
    CurvatureOperator,
    GammaKCone,
    homogenize,
    make_sigma_k_operator,
    sample_cone_directions,
    sigma_all,
    sigma_rows,
    solve_unit_level,
    validate_operator,
)
from conforma.errors import ConeError, ConvergenceError, DomainError
from conforma.reporting import dumps_json
from conforma.sampling import make_rng
from helpers import (
    cone_margin,
    homotopy_operator,
    sigma_k_grad_one,
    solve_unit_level_scalar,
    validate_operator_loop,
)


def binom(n, k):
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


def test_sigma_all_hand_values():
    assert sigma_all([1.0, 2.0, 3.0]) == [6.0, 11.0, 6.0]
    assert sigma_all([2.0, -1.0, 1.0]) == [2.0, -1.0, -2.0]
    # sigma_k(e) counts the k-subsets
    for n in (3, 4, 5, 7):
        e = sigma_all(np.ones(n))
        for k in range(1, n + 1):
            assert e[k - 1] == pytest.approx(binom(n, k), rel=1e-14)


def test_sigma_all_matches_polynomial_roots():
    # prod (x + lam_i) = x^n + sigma_1 x^{n-1} + ... + sigma_n
    rng = make_rng(1)
    for _ in range(20):
        lam = rng.standard_normal(rng.integers(3, 8))
        coeffs = np.poly(-lam)  # leading 1, then signed elementary symmetrics
        e = sigma_all(lam)
        assert np.allclose(coeffs[1:], e, rtol=1e-12, atol=1e-12)


lam_vectors = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False),
    min_size=3,
    max_size=7,
)


@given(lam_vectors, st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_sigma_all_permutation_invariant_bitwise(lam, rnd):
    perm = list(lam)
    rnd.shuffle(perm)
    assert sigma_all(perm) == sigma_all(lam)


@given(lam_vectors)
@settings(max_examples=200, deadline=None)
def test_gamma_cones_nest(lam):
    n = len(lam)
    flags = [GammaKCone(n, k).contains(lam) for k in range(1, n + 1)]
    for inner, outer in zip(flags[1:], flags):
        if inner:
            assert outer


@given(
    st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=3, max_size=7)
)
@settings(max_examples=100, deadline=None)
def test_positive_orthant_in_gamma_n(lam):
    assert GammaKCone(len(lam), len(lam)).contains(lam)


def _component_of_ones(n, k, lo, hi, m):
    """Grid flood fill of {sigma_k > 0} from the all-ones point.

    Independent of GammaKCone: uses only the sign of sigma_k and
    face-adjacency on a uniform lattice over [lo, hi]^n.
    """
    axis = np.linspace(lo, hi, m)
    positive = set()
    for idx in itertools.product(range(m), repeat=n):
        lam = [axis[i] for i in idx]
        if sigma_all(lam)[k - 1] > 0.0:
            positive.add(idx)
    start = tuple(int(np.argmin(np.abs(axis - 1.0))) for _ in range(n))
    assert start in positive
    seen = {start}
    queue = deque([start])
    while queue:
        idx = queue.popleft()
        for d in range(n):
            for step in (-1, 1):
                nxt = list(idx)
                nxt[d] += step
                nxt = tuple(nxt)
                if nxt in positive and nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return seen, positive


@pytest.mark.parametrize("n,k,m", [(3, 2, 17), (3, 3, 17), (4, 2, 9)])
def test_gamma_k_is_component_of_sigma_k_positive(n, k, m):
    # connected-component characterization against the sigma_j > 0 test
    component, _ = _component_of_ones(n, k, -2.0, 2.0, m)
    cone = GammaKCone(n, k)
    axis = np.linspace(-2.0, 2.0, m)
    mismatches = 0
    for idx in itertools.product(range(m), repeat=n):
        lam = [axis[i] for i in idx]
        if cone.contains(lam) != (idx in component):
            mismatches += 1
    assert mismatches == 0


def test_sigma_k_operator_values():
    op = make_sigma_k_operator(3, 2)
    assert op.f(np.ones(3)) == pytest.approx(np.sqrt(3.0), rel=1e-15)
    assert op.cone.contains(np.ones(3))
    g = op.grad_f(np.ones(3))
    assert np.allclose(g, 3.0 ** -0.5, rtol=1e-14)
    with pytest.raises(ConeError):
        op.f([1.0, 0.0, 0.0])


@pytest.mark.parametrize("n,k", [(3, 1), (3, 2), (4, 2), (5, 2), (5, 3), (6, 4)])
def test_gradient_matches_fd(n, k):
    op = make_sigma_k_operator(n, k)
    rng = make_rng(n * 10 + k)
    pts = sample_cone_directions(rng, n, 200)
    h = 1e-6
    worst = 0.0
    for lam in pts:
        if not cone_margin(op.cone, lam) > 10 * h:
            continue
        g = op.grad_f(lam)
        for i in range(n):
            step = np.zeros(n)
            step[i] = h * max(1.0, abs(lam[i]))
            fd = (op.f(lam + step) - op.f(lam - step)) / (2 * step[i])
            denom = max(1.0, abs(g[i]))
            worst = max(worst, abs(fd - g[i]) / denom)
    assert worst <= 1e-6


def test_operator_index_validation():
    with pytest.raises(DomainError):
        make_sigma_k_operator(2, 5)
    with pytest.raises(DomainError):
        make_sigma_k_operator(4, 0)
    with pytest.raises(DomainError):
        GammaKCone(2, 1)
    with pytest.raises(DomainError):
        GammaKCone(3, 0)


def test_validate_operator_all_checks_pass():
    op = make_sigma_k_operator(3, 2)
    report = validate_operator(op, sample_count=500, seed=0)
    failed = {name: c for name, c in report.items() if not c.passed}
    assert not failed, failed
    assert set(report) == {
        "permutation_symmetry",
        "gradient_positivity",
        "midpoint_concavity",
        "ray_growth",
        "cone_contains_positive_orthant",
        "cone_inside_gamma1",
        "boundary_vanishing",
        "degree_homogeneity",
    }


def test_validate_operator_catalog_pass():
    for n, k in [(3, 1), (3, 3), (4, 2), (5, 2), (5, 3), (6, 3)]:
        report = validate_operator(make_sigma_k_operator(n, k), sample_count=200, seed=1)
        assert all(c.passed for c in report.values()), (n, k)


def _wrong_degree_operator():
    base = make_sigma_k_operator(3, 1)

    def f(lam):
        return base.f(lam) ** 2

    def grad_f(lam):
        return 2.0 * base.f(lam) * base.grad_f(lam)

    return CurvatureOperator(
        name="sigma1_squared",
        f=f,
        grad_f=grad_f,
        cone=base.cone,
        homogeneous_degree=1.0,  # lie: actual degree is 2
    )


def _decreasing_operator():
    base = make_sigma_k_operator(3, 1)
    return CurvatureOperator(
        name="minus_sigma1",
        f=lambda lam: -base.f(lam),
        grad_f=lambda lam: -base.grad_f(lam),
        cone=base.cone,
        homogeneous_degree=1.0,
    )


def test_validate_operator_flags_wrong_degree():
    report = validate_operator(_wrong_degree_operator(), sample_count=300, seed=0)
    assert not report["degree_homogeneity"].passed
    assert not report["midpoint_concavity"].passed


def test_validate_operator_flags_decreasing():
    report = validate_operator(_decreasing_operator(), sample_count=300, seed=0)
    assert not report["gradient_positivity"].passed


def _same_report(got, want):
    # every key the checks write; the evidence counts differ by design
    # (the loop oracle counts the samples it visits)
    assert {k: c.to_json_dict() for k, c in got.items()} == {
        k: c.to_json_dict() for k, c in want.items()
    }
    assert dumps_json(got) == dumps_json(want)


@pytest.mark.parametrize("n,k", [(n, k) for n in range(3, 9) for k in range(1, n + 1)])
@given(seed=st.integers(0, 2**32 - 1), count=st.sampled_from([1, 2, 3, 17, 500]))
@settings(max_examples=4, deadline=None)
def test_validate_operator_matches_loop_oracle(n, k, seed, count):
    # every value, witness and pass flag of one sample per call, bit for bit
    op = make_sigma_k_operator(n, k)
    _same_report(validate_operator(op, count, seed), validate_operator_loop(op, count, seed))


@pytest.mark.parametrize("build", [_wrong_degree_operator, _decreasing_operator])
@pytest.mark.parametrize("count", [1, 2, 3, 17, 500])
def test_validate_operator_flags_operators_match_loop_oracle(build, count):
    op = build()
    for seed in (0, 1):
        _same_report(validate_operator(op, count, seed), validate_operator_loop(op, count, seed))


@pytest.mark.parametrize("takes_rows", [False, True])
def test_validate_operator_fails_on_zero_evidence(takes_rows):
    # f and grad_f refuse every input: no check on them may pass
    def refuse(lam):
        raise ConeError("refused", witness=list(np.ravel(lam)))

    op = CurvatureOperator("refuse_all", refuse, refuse, GammaKCone(4, 2), 1.0,
                           takes_rows=takes_rows)
    report = validate_operator(op, sample_count=60, seed=3)
    evaluated = {"cone_contains_positive_orthant", "cone_inside_gamma1"}
    assert {name for name, c in report.items() if c.passed} == evaluated
    assert report["gradient_positivity"].fields["worst_violation"] == -np.inf
    # one sample per call passed four of these checks on no evaluated sample
    loop = validate_operator_loop(op, sample_count=60, seed=3)
    assert {name for name, c in loop.items() if c.passed} == evaluated | {
        "permutation_symmetry", "gradient_positivity", "ray_growth", "degree_homogeneity"
    }


def test_validate_operator_drops_off_cone_rows_alone():
    # an f that takes rows but refuses some: the rows it refuses drop out,
    # the others keep the values and witnesses of one sample per call
    base = make_sigma_k_operator(4, 2)

    def f(lam):
        rows = np.atleast_2d(lam)
        refused = (rows[:, 0] > rows[:, 1] * 3.0) | (rows.sum(axis=1) > 30.0)
        if refused.any():
            raise ConeError("refused", witness=rows[np.argmax(refused)].tolist())
        return base.f(lam)

    op = CurvatureOperator("picky", f, base.grad_f, base.cone, 1.0, takes_rows=True)
    for seed in (0, 5):
        _same_report(validate_operator(op, 200, seed), validate_operator_loop(op, 200, seed))


def test_boundary_vanishing_witness_holds_the_worst():
    # f = 10 wherever it evaluates: an on-cone segment has exponent 0 up to
    # rounding, an off-cone one reads -inf, so the witness is the end of a
    # segment f refuses
    def f(lam):
        if lam[1] < lam[2]:
            raise ConeError("refused", witness=list(lam))
        return 10.0

    op = CurvatureOperator("ten", f, lambda lam: np.ones(3), GammaKCone(3, 1))
    for seed in range(5):
        check = validate_operator(op, 200, seed)["boundary_vanishing"]
        assert not check.passed and check.fields["worst_exponent"] == -np.inf
        with pytest.raises(ConeError):
            f(np.array(check.fields["witness"]))
        _same_report(validate_operator(op, 200, seed), validate_operator_loop(op, 200, seed))


@pytest.mark.parametrize("n,k", [(3, 2), (4, 2), (5, 3), (6, 4)])
def test_boundary_vanishing_fails_an_operator_positive_on_the_boundary(n, k):
    # sigma_1 on Gamma_k: sigma_1 > 0 on the boundary of Gamma_k for k >= 2,
    # so boundary_vanishing, and no other check, fails on evidence
    s1 = make_sigma_k_operator(n, 1)
    op = CurvatureOperator("sigma1_on_gamma_k", s1.f, s1.grad_f, GammaKCone(n, k), 1.0,
                           takes_rows=True)
    for seed in range(20):
        report = validate_operator(op, seed=seed)
        assert {name for name, c in report.items() if not c.passed} == {"boundary_vanishing"}
        check = report["boundary_vanishing"]
        assert check.evidence > 0
        assert abs(check.fields["worst_exponent"]) <= 1e-6


def test_validate_operator_maxima_skip_nan():
    # f = 1/sigma_1 on rows, nan where sigma_1 < 0.05: a ray whose first
    # scales are nan still counts, with its largest finite decrease
    def f(lam):
        s1 = np.sum(lam, axis=-1)
        with np.errstate(divide="ignore"):
            return np.where(s1 < 0.05, np.nan, 1.0 / s1)

    op = CurvatureOperator("nan_inv_sigma1", f, lambda lam: -np.ones_like(lam),
                           GammaKCone(3, 1), takes_rows=True)
    check = validate_operator(op, sample_count=500, seed=0)["ray_growth"]

    head = sample_cone_directions(make_rng(0), 3, 500)[:64]
    s_grid = np.exp(np.linspace(np.log(1e-2), np.log(1e2), 17))
    vals = f(head[:, None, :] * s_grid[:, None])
    drops = np.nanmax(vals[:, :-1] - vals[:, 1:], axis=1)
    assert np.isnan(vals[:, 0]).any()
    assert check.fields["worst_violation"] == np.max(drops)
    assert check.fields["witness"] == head[np.argmax(drops)].tolist()
    assert not check.passed


def test_solve_unit_level_closed_forms():
    e3 = np.ones(3)
    s = solve_unit_level(lambda lam: sigma_all(lam)[0], e3)
    assert s == pytest.approx(1.0 / 3.0, rel=1e-12)
    s = solve_unit_level(lambda lam: np.sqrt(sigma_all(lam)[1]), e3)
    assert s == pytest.approx(3.0 ** -0.5, rel=1e-12)


def test_solve_unit_level_no_bracket():
    # bounded below 1 on the whole ray: no crossing exists
    with pytest.raises(ConvergenceError):
        solve_unit_level(lambda lam: float(lam[0]) / (1.0 + float(lam[0])), np.ones(3))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 8),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    log_scales=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=8),
)
def test_batched_unit_level_matches_scalar_oracle(n, data, seed, log_scales):
    k = data.draw(st.integers(1, n), label="k")
    op = make_sigma_k_operator(n, k)
    dirs = make_rng(seed).dirichlet(np.ones(n), size=len(log_scales))
    rows = np.vstack([
        dirs * 10.0 ** np.array(log_scales)[:, None],
        100.0 * np.ones(n),  # f > 1 at s = 1: brackets by halving
        0.01 / n * np.ones(n),  # f < 1 at s = 1: brackets by doubling
    ])
    got = solve_unit_level(op.f, rows)
    want = [solve_unit_level_scalar(op.f, row) for row in rows]
    assert got.shape == (len(rows),)
    assert got.tolist() == want
    # the one-vector form is the same solve
    assert solve_unit_level(op.f, rows[0]) == want[0]
    assert type(solve_unit_level(op.f, rows[0])) is float


def test_batched_unit_level_exact_root_row():
    # sigma_1 of (1/4, 1/4, 1/2) is exactly 1: that row keeps s = 1
    op = make_sigma_k_operator(3, 1)
    rows = np.array([[0.25, 0.25, 0.5], [3.0, 1.0, 2.0], [0.01, 0.02, 0.03]])
    got = solve_unit_level(op.f, rows)
    assert got[0] == 1.0
    assert got.tolist() == [solve_unit_level_scalar(op.f, row) for row in rows]
    # leading axes keep their shape
    assert solve_unit_level(op.f, rows.reshape(3, 1, 3)).shape == (3, 1)


def test_batched_unit_level_lone_row_passes():
    # fn(s lam) - 1 = s lam_0 - 1: rows with lam_0 = 1.6 and 0.8 hit f = 1
    # exactly at their second midpoint (s = 5/8, 5/4) and stop, and the row
    # with lam_0 = 1e-6 doubles from s = 1 to 2^20, so each case has passes
    # of one row left, which must keep the bits of a one-ray solve
    sizes = []

    def first(lam):
        if np.ndim(lam) == 2:
            sizes.append(len(lam))
        return lam[..., 0]

    bracketing = np.array([[1e-6, 0.0], [1.6, 0.0], [3.0, 0.0]])
    got = solve_unit_level(first, bracketing)
    assert got.tolist() == [solve_unit_level_scalar(first, row) for row in bracketing]
    # the 1e-6 row brackets alone for 18 passes, then all three bisect
    assert sizes[:22] == [3, 3, 2] + [1] * 18 + [3]

    sizes.clear()
    bisecting = np.array([[1.6, 0.0], [0.8, 0.0], [3.0, 0.0]])
    got = solve_unit_level(first, bisecting)
    assert got.tolist() == [solve_unit_level_scalar(first, row) for row in bisecting]
    # two bisection passes of all rows, then the 1/3 row bisects alone
    assert sizes[3:6] == [3, 3, 1] and set(sizes[5:-1]) == {1} and len(sizes) > 40


@pytest.mark.parametrize("n,k", [(4, 1), (5, 3), (8, 8)])
def test_batched_unit_level_tight_tol_matches_oracle(n, k):
    # f - 1 near the root moves in steps of about 1.1e-16 and 2.2e-16, so at
    # tol 1.5e-16 the bisected root often misses: those rows stall
    op = make_sigma_k_operator(n, k)
    rows, want, stalled = [], [], []
    for row in sample_cone_directions(make_rng(1), n, 200):
        try:
            want.append(solve_unit_level_scalar(op.f, row, tol=1.5e-16))
            rows.append(row)
        except ConvergenceError:
            stalled.append(row)
    assert rows and stalled
    got = solve_unit_level(op.f, np.array(rows), tol=1.5e-16)
    assert got.tolist() == want
    with pytest.raises(ConvergenceError, match="stalled .* at row 1"):
        solve_unit_level(op.f, np.array([rows[0], stalled[0]]), tol=1.5e-16)


def test_batched_unit_level_failures_name_the_row():
    def smaller(rows):
        return np.minimum(rows[:, 0], rows[:, 1])

    # min(s, -s) stays below 1 on the ray of row 1: no crossing exists
    rows = np.array([[2.0, 3.0, 1.0], [1.0, -1.0, 1.0]])
    with pytest.raises(ConvergenceError, match="upper side.* at row 1"):
        solve_unit_level(smaller, rows)
    assert solve_unit_level(smaller, rows[:1]).tolist() == [0.5]
    # off Gamma_2 at every scale: ConeError with that row as witness
    op = make_sigma_k_operator(3, 2)
    with pytest.raises(ConeError) as info:
        solve_unit_level(op.f, np.array([[1.0, 2.0, 3.0], [-5.0, 1.0, 1.0]]))
    assert info.value.witness == [-5.0, 1.0, 1.0]


@pytest.mark.parametrize("n", [3, 5, 8])
def test_sigma_rows_matches_sigma_all(n):
    rows = make_rng(n).normal(size=(50, n)) * 10.0 ** make_rng(n + 1).uniform(-3, 3, (50, 1))
    for k in range(1, n + 1):
        sig = sigma_rows(rows, k)
        assert sig.shape == (k, 50)
        assert sig.T.tolist() == [sigma_all(row)[:k] for row in rows]


def test_sigma_k_rows_match_one_vector_calls():
    for n, k in [(3, 2), (4, 3), (6, 4)]:
        op = make_sigma_k_operator(n, k)
        rows = sample_cone_directions(make_rng(n), n, 200)
        assert op.f(rows).tolist() == [op.f(row) for row in rows]
        bad = rows.copy()
        bad[7] = -bad[7]
        with pytest.raises(ConeError) as info:
            op.f(bad)
        assert info.value.witness == bad[7].tolist()


def oracle_rows(n):
    """Positive, mixed-sign, zero, inf and nan rows of length n."""
    rng = make_rng(40 + n)
    rows = np.vstack([
        sample_cone_directions(rng, n, 100),
        rng.uniform(size=(50, n)) * 10.0 ** rng.uniform(-3, 3, (50, 1)),
        rng.normal(size=(200, n)) * 10.0 ** rng.uniform(-3, 3, (200, 1)),
    ])
    special = rows[:12].copy()
    special[0:4, 0] = np.inf
    special[4:6, 1] = -np.inf
    special[6:8, 2] = np.nan
    special[8] = np.nan
    special[9:12] = np.abs(special[9:12])
    special[9:12, -1] = np.inf
    # rows on the cone boundaries: some sigma_j is exactly 0
    zero = np.zeros((3, n))
    zero[1, 0] = 1.0
    zero[2, :2] = (1.0, -1.0)
    rows = np.vstack([rows, special, zero])
    rows[150:156, 0] = np.inf  # mixed-sign rows with an infinite entry
    return rows


def in_gamma_k(k, lam):
    return all(s > 0 for s in sigma_all(lam)[:k])


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_sigma_k_gradient_rows_match_one_vector_calls(n):
    rows = oracle_rows(n)
    for k in range(1, n + 1):
        op = make_sigma_k_operator(n, k)
        member = np.array([in_gamma_k(k, row) for row in rows])
        inside = rows[member]
        assert len(inside) >= 100
        want = [sigma_k_grad_one(k, row) for row in inside]
        assert np.array(want).tobytes() == op.grad_f(inside).tobytes()
        for row, grad in zip(inside, want):
            assert op.grad_f(row).tobytes() == grad.tobytes()
        for row in rows[~member]:
            with pytest.raises(ConeError):
                sigma_k_grad_one(k, row)
            with pytest.raises(ConeError):
                op.grad_f(row)
        with pytest.raises(ConeError) as info:
            op.grad_f(rows)
        assert np.array(info.value.witness).tobytes() == rows[~member][0].tobytes()


def test_cone_membership_rows_match_one_vector_calls():
    for n in range(3, 9):
        rows = oracle_rows(n)
        for k in range(1, n + 1):
            cone = make_sigma_k_operator(n, k).cone
            want = [in_gamma_k(k, row) for row in rows]
            got = cone.contains(rows)
            assert got.dtype == bool
            assert got.tolist() == want
            assert [cone.contains(row) for row in rows] == want


def test_homogenize_sigma2_matches_sqrt():
    base = make_sigma_k_operator(4, 2)

    def f(lam):
        return base.f(lam) ** 2  # plain sigma_2, degree 2

    def grad_f(lam):
        return 2.0 * base.f(lam) * base.grad_f(lam)

    from conforma.cones import CurvatureOperator

    op2 = CurvatureOperator("sigma2_raw", f, grad_f, base.cone, 2.0)
    tilde = homogenize(op2)
    rng = make_rng(5)
    pts = sample_cone_directions(rng, 4, 100)
    worst = 0.0
    for lam in pts:
        if not base.cone.contains(lam):
            continue
        worst = max(worst, abs(tilde.f(lam) - base.f(lam)))
    assert worst <= 1e-10


def test_homogenize_degree_one():
    base = make_sigma_k_operator(3, 2)
    op2_f = lambda lam: base.f(lam) ** 2
    from conforma.cones import CurvatureOperator

    op2 = CurvatureOperator(
        "sigma2_raw", op2_f, lambda lam: 2.0 * base.f(lam) * base.grad_f(lam),
        base.cone, 2.0,
    )
    tilde = homogenize(op2)
    rng = make_rng(6)
    for lam in sample_cone_directions(rng, 3, 50):
        if not base.cone.contains(lam):
            continue
        v = tilde.f(lam)
        for s in (0.1, 1.0, 7.3):
            assert abs(tilde.f(s * lam) - s * v) <= 1e-9 * max(1.0, abs(s * v))


def test_homogenize_fixes_homogeneous_input():
    op = make_sigma_k_operator(3, 1)
    tilde = homogenize(op)
    rng = make_rng(7)
    for lam in sample_cone_directions(rng, 3, 50):
        assert tilde.f(lam) == pytest.approx(op.f(lam), rel=1e-11)


def test_homogenize_preserves_level_set():
    base = make_sigma_k_operator(3, 2)
    from conforma.cones import CurvatureOperator

    op2 = CurvatureOperator(
        "sigma2_raw",
        lambda lam: base.f(lam) ** 2,
        lambda lam: 2.0 * base.f(lam) * base.grad_f(lam),
        base.cone, 2.0,
    )
    tilde = homogenize(op2)
    rng = make_rng(8)
    for lam in sample_cone_directions(rng, 3, 50):
        if not base.cone.contains(lam):
            continue
        # park lam on {f = 1} to 1e-8, then the homogenized value is 1 to 1e-6
        s = solve_unit_level(op2.f, lam, tol=1e-8)
        assert abs(tilde.f(s * lam) - 1.0) <= 1e-6


def test_homotopy_endpoint_is_identity():
    op = make_sigma_k_operator(5, 2)
    op1 = homotopy_operator(op, 1.0)
    rng = make_rng(9)
    for lam in sample_cone_directions(rng, 5, 50):
        assert op1.f(lam) == pytest.approx(op.f(lam), rel=1e-15)


def test_homotopy_start_is_sigma1_multiple():
    # f_0(lam) = f(sigma_1(lam) e) = sigma_1(lam) C(n,k)^{1/k}
    op = make_sigma_k_operator(3, 2)
    op0 = homotopy_operator(op, 0.0)
    assert op0.f([1.0, 0.0, 0.0]) == pytest.approx(np.sqrt(3.0), rel=1e-14)
    rng = make_rng(10)
    for lam in rng.standard_normal((20, 3)):
        s1 = float(lam.sum())
        if s1 <= 0:
            continue
        assert op0.f(lam) == pytest.approx(s1 * np.sqrt(3.0), rel=1e-12)


def test_homotopy_k1_collapses_to_scaling():
    # sigma_1(t lam + (1-t) sigma_1 e) = (t + (1-t) n) sigma_1(lam)
    op = make_sigma_k_operator(5, 1)
    rng = make_rng(11)
    pts = sample_cone_directions(rng, 5, 30)
    for t in (0.0, 0.3, 0.7, 1.0):
        opt = homotopy_operator(op, t)
        factor = t + (1.0 - t) * 5
        for lam in pts:
            assert opt.f(lam) == pytest.approx(factor * sum(lam), rel=1e-12)


def test_homotopy_cone_widens_toward_t0():
    op = make_sigma_k_operator(5, 2)
    # (-0.5, 0.5, 0.5, 0.5, 0.5) sits inside Gamma_2, but a steeper one does not
    steep = np.array([-1.1, 0.5, 0.5, 0.5, 0.5])
    assert not op.cone.contains(steep)
    assert homotopy_operator(op, 0.0).cone.contains(steep)
    with pytest.raises(DomainError):
        homotopy_operator(op, 1.5)


def test_homotopy_cone_margin_sign_agrees():
    op = make_sigma_k_operator(3, 2)
    cone = homotopy_operator(op, 0.5).cone
    rng = make_rng(12)
    for lam in rng.uniform(-2, 2, size=(100, 3)):
        assert cone.contains(lam) == (cone_margin(cone, lam) > 0.0)
