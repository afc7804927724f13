"""Support layers: the fixed-size Jacobi eigensolver, seeded sampling,
and deterministic serialization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conforma.errors import DomainError
from conforma.jacobi import jacobi_eigenvalues
from conforma.reporting import csv_cell, dumps_json, fmt_float, write_csv, write_json
from conforma.sampling import (
    ball_points,
    make_rng,
    shell_points,
    sphere_points,
    unit_vectors,
)


def test_jacobi_matches_lapack():
    rng = make_rng(3)
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(3, 8))
        B = rng.standard_normal((m, m))
        A = 0.5 * (B + B.T)
        lam = jacobi_eigenvalues(A)
        ref = np.linalg.eigvalsh(A)
        assert np.all(np.diff(lam) >= 0.0)  # ascending
        worst = max(worst, float(np.max(np.abs(lam - ref))))
    assert worst <= 1e-12


def test_jacobi_diagonal_is_exact():
    d = np.diag([3.0, -1.0, 2.0])
    assert np.array_equal(jacobi_eigenvalues(d), np.array([-1.0, 2.0, 3.0]))


def test_jacobi_input_validation():
    with pytest.raises(DomainError):
        jacobi_eigenvalues(np.ones((2, 3)))
    with pytest.raises(DomainError):
        jacobi_eigenvalues(np.array([[0.0, 1.0], [0.5, 0.0]]))  # not symmetric


def test_rng_streams_are_reproducible():
    a = make_rng(42).standard_normal(8)
    b = make_rng(42).standard_normal(8)
    assert np.array_equal(a, b)
    c = make_rng(43).standard_normal(8)
    assert not np.array_equal(a, c)


def test_sampling_shapes_and_norms():
    rng = make_rng(0)
    U = unit_vectors(rng, 4, 100)
    assert U.shape == (100, 4)
    assert np.allclose(np.linalg.norm(U, axis=1), 1.0, rtol=1e-12)
    S = sphere_points(rng, 3, 50)
    assert np.allclose(np.linalg.norm(S, axis=1), 1.0, rtol=1e-12)
    B = ball_points(rng, 3, 200, radius=2.5)
    assert np.max(np.linalg.norm(B, axis=1)) <= 2.5
    H = shell_points(rng, 3, 200, 0.5, 1.5)
    r = np.linalg.norm(H, axis=1)
    assert np.min(r) >= 0.5 and np.max(r) <= 1.5


@given(st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=300, deadline=None)
def test_fmt_float_round_trips(x):
    assert float(fmt_float(x)) == x


def test_fmt_float_renders_integral_floats_with_point():
    # integral floats keep a trailing .0 so the JSON type stays float
    assert fmt_float(1.0) == "1.0"
    assert fmt_float(0.5) == "0.5"
    assert fmt_float(-2.0) == "-2.0"
    assert fmt_float(float("nan")) == '"nan"'
    assert fmt_float(float("inf")) == '"inf"'


def test_dumps_json_deterministic():
    obj = {"b": 1.5, "a": [1, 2, {"x": 0.1}], "flag": True, "none": None}
    s1 = dumps_json(obj)
    s2 = dumps_json(obj)
    assert s1 == s2
    assert s1.endswith("\n")
    # floats are rendered with round-trip precision
    assert "0.10000000000000001" in s1
    # insertion order is preserved, not sorted
    assert s1.index('"b"') < s1.index('"a"')


def test_write_json_and_csv_bytes(tmp_path):
    p = tmp_path / "out.json"
    write_json(p, {"v": 0.1})
    assert p.read_bytes() == b'{"v": 0.10000000000000001}\n'
    q = tmp_path / "out.csv"
    write_csv(q, ["a", "b"], [[1, 0.5], ["x", 2.0]])
    assert q.read_text() == "a,b\n1,0.5\nx,2.0\n"


def test_csv_cell_rendering():
    assert csv_cell(3) == "3"
    assert csv_cell("label") == "label"
    assert csv_cell(0.5) == "0.5"
    assert csv_cell(np.float64(2.0)) == "2.0"
    assert csv_cell(True) == "true"
