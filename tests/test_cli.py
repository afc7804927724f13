"""Command-line driver: artifact layout, determinism, exit codes."""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import conforma
from conforma import cli, yamabe
from conforma.cli import main
from helpers import (
    build_parser_all,
    homogenize_handler_loop,
    load_workloads,
    validate_operator_loop,
)


def run(tmp_path, *argv):
    return main([*argv, "--output-dir", str(tmp_path)])


def read_result(tmp_path):
    return json.loads((tmp_path / "result.json").read_text())


def test_validate_operator_command(tmp_path):
    rc = run(tmp_path, "validate-operator", "--n", "3", "--k", "2", "--samples", "120")
    assert rc == 0
    res = read_result(tmp_path)
    assert res["command"] == "validate-operator"
    assert res["pass"] is True
    assert res["result"]["checks"]["boundary_vanishing"]["pass"] is True
    assert (tmp_path / "manifest.json").exists()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "validate-operator"
    assert manifest["timing_seconds"] >= 0.0


@pytest.mark.parametrize("family", ["fullspace", "halfspace", "ball"])
def test_verify_liouville_families(tmp_path, family):
    rc = run(tmp_path, "verify-liouville", "--family", family, "--n", "4", "--samples", "50")
    assert rc == 0
    assert read_result(tmp_path)["pass"] is True


@pytest.mark.parametrize("family", ["halfspace", "ball"])
def test_verify_liouville_counts_only_finite_residuals(tmp_path, family):
    # at a = 1e200 the boundary residuals overflow (inf, or nan on the ball):
    # no sample was evaluated, so none counts as evidence
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rc = run(tmp_path, "verify-liouville", "--family", family, "--n", "4",
                 "--a", "1e200", "--samples", "100")
    assert rc == 1
    assert read_result(tmp_path)["result"]["samples_used"] < 100


def test_radial_shoot_csv_gating(tmp_path):
    args = ("radial-shoot", "--n", "3", "--k", "1", "--h", "1e-3", "--r-max", "0.5")
    rc = run(tmp_path / "a", *args)
    assert rc == 0
    assert sorted(p.name for p in (tmp_path / "a").iterdir()) == [
        "manifest.json", "result.json",
    ]
    rc = run(tmp_path / "b", *args, "--format", "csv")
    assert rc == 0
    prof = tmp_path / "b" / "profile.csv"
    assert prof.exists()
    lines = prof.read_text().splitlines()
    assert lines[0] == "r,v,vp,vpp"
    # one row per node, from the center to r_max
    nodes = read_result(tmp_path / "b")["result"]["profile"]["nodes"]
    assert nodes == 501
    assert len(lines) == nodes + 1
    assert [float(x) for x in lines[1].split(",")][:3] == [0.0, 1.0, 0.0]
    assert float(lines[-1].split(",")[0]) == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("n,k", [(3, 1), (3, 2), (3, 3), (4, 2), (5, 2), (5, 3)])
def test_radial_shoot_deterministic_and_accurate(tmp_path, n, k):
    args = ("radial-shoot", "--n", str(n), "--k", str(k), "--h", "1e-3")
    assert run(tmp_path / "a", *args) == 0
    assert run(tmp_path / "b", *args) == 0
    raw = (tmp_path / "a" / "result.json").read_bytes()
    assert raw == (tmp_path / "b" / "result.json").read_bytes()
    res = read_result(tmp_path / "a")["result"]
    assert res["profile"]["status"] == "ok"
    assert res["sup_error"] <= res["sup_tol"]
    assert res["max_unit_residual"] <= 1e-13


def test_moving_sphere_sweep(tmp_path):
    rc = run(
        tmp_path,
        "moving-sphere",
        "--task", "sweep",
        "--check-count", "256",
        "--lambda-steps", "64",
        "--center-count", "3",
        "--emit-sweep-csv",
    )
    assert rc == 0
    # sweep.csv is written regardless of --format when requested
    assert (tmp_path / "sweep.csv").exists()
    res = read_result(tmp_path)
    assert res["result"]["alpha"]["spread"] <= 1e-6


def test_moving_sphere_sweep_solves_each_centre_once(tmp_path, monkeypatch):
    # the origin check reads lambda_bar(0) from the ring sweep, which starts there
    from conforma import moving_sphere

    solved = []
    solve = moving_sphere.critical_radius

    def counted(u, x, cfg):
        cr = solve(u, x, cfg)
        solved.append((x.tolist(), cr.lambda_bar))
        return cr

    monkeypatch.setattr(moving_sphere, "critical_radius", counted)
    rc = run(
        tmp_path,
        "moving-sphere",
        "--task", "sweep",
        "--check-count", "256",
        "--lambda-steps", "64",
        "--center-count", "4",
    )
    assert rc == 0
    assert len(solved) == 4
    origin = read_result(tmp_path)["result"]["checks"]["lambda_bar_origin"]
    assert solved[0] == ([0.0, 0.0, 0.0], origin["value"])
    assert origin["flag"] == ""


def test_moving_sphere_lemmas(tmp_path):
    rc = run(tmp_path, "moving-sphere", "--task", "lemmas", "--h-count", "10", "--density", "16")
    assert rc == 0
    checks = read_result(tmp_path)["result"]["checks"]
    assert checks["no_implication_failures"]["failures"] == 0
    reports = checks["gradient_bound_on_catalog"]["reports"]
    assert {r["field"] for r in reports} == {"bubble_beta1", "bubble_beta4", "constant"}
    assert all(r["conclusion_pass"] and not r["vacuous"] for r in reports)


def test_harnack_command(tmp_path):
    rc = run(tmp_path, "harnack", "--n", "3", "--samples", "512")
    assert rc == 0
    res = read_result(tmp_path)["result"]
    assert res["C_n"] == 165888
    assert res["report"]["P"] <= res["report"]["B"]
    assert res["report"]["rescaling_exactness"] <= 1e-10


def test_homogenize_command(tmp_path):
    rc = run(tmp_path, "homogenize", "--op", "sigma2", "--n", "3",
             "--samples", "60", "--triples", "100")
    assert rc == 0
    assert read_result(tmp_path)["pass"] is True


@pytest.mark.parametrize("argv", [
    ("homogenize", "--op", "sigma2", "--n", "3"),
    ("homogenize", "--op", "sigma3", "--n", "4"),
])
@pytest.mark.parametrize("seed", ["0", "1", "17"])
def test_homogenize_batched_matches_per_ray_oracle(tmp_path, monkeypatch, argv, seed):
    # every ray in one batched solve writes the bytes of one solve per ray
    assert run(tmp_path / "batched", *argv, "--seed", seed) == 0
    help_text, add_flags, _ = cli.COMMANDS["homogenize"]
    monkeypatch.setitem(cli.COMMANDS, "homogenize", (help_text, add_flags, homogenize_handler_loop))
    assert run(tmp_path / "oracle", *argv, "--seed", seed) == 0
    got = (tmp_path / "batched" / "result.json").read_bytes()
    assert got == (tmp_path / "oracle" / "result.json").read_bytes()


def test_homogenize_concavity_needs_a_pair(tmp_path):
    # one sample forms no midpoint pair: the check has no evidence and fails
    rc = run(tmp_path, "homogenize", "--op", "sigma2", "--n", "3", "--samples", "1")
    assert rc == 1
    check = read_result(tmp_path)["result"]["checks"]["midpoint_concavity"]
    assert check == {"pass": False, "worst": "-inf", "pairs": 0}


def test_validate_operator_concavity_needs_a_pair(tmp_path):
    rc = run(tmp_path, "validate-operator", "--n", "3", "--k", "2", "--samples", "1")
    assert rc == 1
    check = read_result(tmp_path)["result"]["checks"]["midpoint_concavity"]
    assert check == {"pass": False, "worst_violation": 0.0, "witness": []}


@pytest.mark.parametrize("argv", [
    ("validate-operator", "--n", "3", "--k", "2"),
    ("validate-operator", "--n", "5", "--k", "3"),
    ("validate-operator", "--n", "6", "--k", "4"),
])
@pytest.mark.parametrize("seed", ["0", "635597269", "1880108470"])
def test_validate_operator_rows_match_loop_oracle(tmp_path, monkeypatch, argv, seed):
    # the checks on rows write the bytes of one sample per call
    assert run(tmp_path / "rows", *argv, "--seed", seed) == 0
    monkeypatch.setattr(cli, "validate_operator", validate_operator_loop)
    assert run(tmp_path / "oracle", *argv, "--seed", seed) == 0
    got = (tmp_path / "rows" / "result.json").read_bytes()
    assert got == (tmp_path / "oracle" / "result.json").read_bytes()


def test_solve_yamabe_artifacts(tmp_path):
    rc = run(
        tmp_path,
        "solve-yamabe", "--N", "32", "--t-steps", "3", "--format", "both",
    )
    assert rc == 0
    assert (tmp_path / "trace.jsonl").exists()
    grid = (tmp_path / "grid.csv").read_text().splitlines()
    # the header, then one row per node
    assert grid[0] == "t_node,u" and len(grid) == 33
    trace = [json.loads(line) for line in (tmp_path / "trace.jsonl").read_text().splitlines()]
    assert trace[0]["t"] == 0.0
    assert trace[-1]["t"] == 1.0
    res = read_result(tmp_path)
    assert res["result"]["status"] == "ok"
    assert res["result"]["constant_branch_deviation"] <= 1e-8


def test_solve_yamabe_trace_always_written(tmp_path):
    rc = run(tmp_path, "solve-yamabe", "--N", "16", "--t-steps", "2")
    assert rc == 0
    assert (tmp_path / "trace.jsonl").exists()
    assert not (tmp_path / "grid.csv").exists()


@pytest.mark.parametrize("argv", [
    ("radial-shoot", "--n", "3", "--k", "1", "--h", "1e-3", "--r-max", "0.5"),
    ("solve-yamabe", "--N", "16", "--t-steps", "2"),
])
def test_format_csv_and_both_write_the_same_files(tmp_path, argv):
    # JSON is always written: csv and both differ in name only, and json
    # writes no CSV
    written = {}
    for fmt in ("json", "csv", "both"):
        assert run(tmp_path / fmt, *argv, "--format", fmt) == 0
        written[fmt] = {p.name: p.read_bytes() for p in (tmp_path / fmt).iterdir()
                        if p.name != "manifest.json"}
    assert written["csv"] == written["both"]
    assert any(name.endswith(".csv") for name in written["both"])
    assert not any(name.endswith(".csv") for name in written["json"])


def _result_bytes_at_threads(out, argv, threads):
    """Run the CLI in a fresh process at an OpenMP thread count; return its
    result.json and (if written) trace.jsonl bytes."""
    src = str(Path(conforma.__file__).resolve().parents[1])
    env = {key: v for key, v in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    env["OMP_NUM_THREADS"] = threads
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "conforma.cli", *argv, "--output-dir", str(out)]
    proc = subprocess.run(cmd, env=env, capture_output=True)
    assert proc.returncode == 0, proc.stderr
    trace = out / "trace.jsonl"
    return (out / "result.json").read_bytes(), trace.read_bytes() if trace.exists() else None


def test_solve_yamabe_result_independent_of_blas_threads(tmp_path):
    # N = 256 spectral is where a derivative rounding floor of eps N^2 ||u||
    # would sit at tol 1e-10 and let the BLAS thread count decide the outcome;
    # (6, 2, 512, spectral) differed in its last digits under a dense LU step
    cases = [("5", "2", "256"), ("6", "2", "512")]
    for n, k, nodes in cases:
        argv = [
            "solve-yamabe", "--n", n, "--k", k,
            "--N", nodes, "--scheme", "spectral", "--L", "1", "--t-steps", "11",
            "--tol", "1e-10",
        ]
        raw = [_result_bytes_at_threads(tmp_path / f"{n}-{nodes}-{threads}", argv, threads)
               for threads in ("1", "2")]
        assert raw[0][1] is not None
        assert raw[0] == raw[1]
        assert json.loads(raw[0][0])["result"]["status"] == "ok"


@pytest.mark.parametrize("n, word", [
    ("4", "translate:0.3,-0.1,0.2,0.1;scale:1.7;invert"),
    ("16", "scale:1.7;invert"),
])
def test_conjugation_test_result_independent_of_blas_threads(tmp_path, n, word):
    # the spectra come from LAPACK, one eigvalsh call per stack of matrices
    argv = ["conjugation-test", "--n", n, "--word", word, "--samples", "2000"]
    raw = [_result_bytes_at_threads(tmp_path / threads, argv, threads)
           for threads in ("1", "2")]
    assert raw[0] == raw[1]


@pytest.mark.parametrize(
    "argv",
    [
        ("conjugation-test", "--word", "translate:1,2"),
        ("conjugation-test", "--n", "9"),
        ("radial-shoot", "--n", "5", "--k", "2", "--v0", "1e300"),
        ("validate-operator", "--n", "3", "--k", "2", "--samples", "0"),
        ("homogenize", "--samples", "0"),
        ("conjugation-test", "--samples", "0"),
        ("harnack", "--samples", "-1"),
        ("moving-sphere", "--task", "lemmas", "--h-count", "0"),
        ("radial-shoot", "--n", "3", "--k", "1", "--r-max", "inf"),
        ("solve-yamabe", "--L", "inf"),
        ("solve-yamabe", "--tol", "0"),
        ("solve-yamabe", "--tol", "-1"),
        ("solve-yamabe", "--tol", "nan"),
        ("solve-yamabe", "--n", "5", "--k", "2", "--tol", "1"),
        ("radial-shoot", "--n", "3", "--k", "1", "--h", "1e-320"),
        ("radial-shoot", "--n", "3", "--k", "2", "--sup-tol", "inf"),
        ("radial-shoot", "--n", "3", "--k", "2", "--sup-tol", "nan"),
        ("radial-shoot", "--n", "3", "--k", "2", "--sup-tol", "-1"),
        # the matched bubble varies by less than sup_tol: a constant passes
        ("radial-shoot", "--n", "3", "--k", "2", "--v0", "1e-30"),
        ("radial-shoot", "--n", "3", "--k", "1", "--v0", "1e-3", "--h", "1e-3"),
        ("harnack", "--n", "3", "--beta", "-1"),
        # parameters whose arithmetic over- or underflows
        ("harnack", "--n", "3", "--R", "1e-320"),
        ("conjugation-test", "--mode", "fd", "--h", "1e-300"),
        ("conjugation-test", "--a", "1e-160"),
        ("verify-liouville", "--family", "fullspace", "--n", "4", "--a", "1e300"),
        ("verify-liouville", "--family", "fullspace", "--n", "4", "--a", "1e-320",
         "--beta", "1"),
        # refused before the d^2 slab is allocated
        ("moving-sphere", "--task", "lemmas", "--density", "100000"),
        # non-finite parameters are refused where they enter the library
        ("harnack", "--n", "3", "--R", "inf", "--samples", "4"),
        ("harnack", "--n", "3", "--delta", "inf", "--samples", "4"),
        ("verify-liouville", "--family", "halfspace", "--n", "4", "--beta", "inf"),
        ("verify-liouville", "--family", "halfspace", "--n", "4", "--xn", "inf"),
        ("verify-liouville", "--family", "ball", "--n", "4", "--beta", "inf"),
        ("verify-liouville", "--family", "ball", "--n", "4", "--c", "nan"),
        ("conjugation-test", "--a", "inf"),
        ("conjugation-test", "--mode", "fd", "--h", "inf"),
        # finite parameters whose conformal matrices are not: refused before
        # LAPACK, which would return numbers for them
        ("conjugation-test", "--mode", "analytic", "--a", "1e300", "--beta", "1e100",
         "--samples", "8"),
        # refused before the lambda grid or the stage list is built
        ("moving-sphere", "--lambda-steps", "100000000"),
        ("solve-yamabe", "--t-steps", "100000000"),
        # integer work flags: refused before any array or loop is built
        ("solve-yamabe", "--N", "1099511627776"),
        ("harnack", "--samples", "1000000000000"),
        ("moving-sphere", "--check-count", "1000000000000"),
        ("validate-operator", "--n", "3", "--k", "2", "--samples", "1000000000000"),
        ("moving-sphere", "--check-count", "-5", "--lambda-steps", "16"),
        ("solve-yamabe", "--N", "-8"),
        ("moving-sphere", "--center-count", str(cli.MAX_CENTER_COUNT + 1)),
        ("moving-sphere", "--task", "lemmas", "--h-count", str(cli.MAX_H_COUNT + 1)),
        ("solve-yamabe", "--N", str(2 * yamabe.MAX_NODES)),
        ("conjugation-test", "--samples", str(cli.MAX_SAMPLES + 1)),
        ("moving-sphere", "--check-count", str(cli.MAX_CHECK_COUNT + 1)),
        # just above the cap, so that without it these run cheaply and fail
        # the test rather than allocate
        ("verify-liouville", "--family", "fullspace", "--n", str(cli.MAX_DIMENSION + 1)),
        ("harnack", "--n", str(cli.MAX_DIMENSION + 1)),
        # a ring needs the origin and one more centre
        ("moving-sphere", "--center-count", "1"),
        ("harnack", "--n", "0"),
        # a negative dimension reached math.sqrt with a ValueError
        ("harnack", "--n", "-1"),
        # the weights of A^u underflow: A read zero on both sides and passed
        ("conjugation-test", "--a", "1e300", "--beta", "1", "--samples", "8"),
        ("conjugation-test", "--mode", "fd", "--a", "1e300", "--beta", "1e100",
         "--samples", "8"),
        # argparse choices refuse a family the handler does not know
        ("verify-liouville", "--family", "cone", "--n", "4"),
        # malformed or non-finite Mobius word components
        ("conjugation-test", "--word", "scale:abc"),
        ("conjugation-test", "--word", "scale:"),
        ("conjugation-test", "--word", "translate:1,x,2"),
        ("conjugation-test", "--word", "scale:1,2"),
        ("conjugation-test", "--word", "scale:nan"),
        ("conjugation-test", "--word", "scale:inf;invert"),
        ("conjugation-test", "--word", "translate:0,inf,0"),
    ],
    ids=["word-dim", "n9", "v0-overflow", "validate-0", "homogenize-0",
         "conjugation-0", "harnack-neg", "lemmas-0", "r-max-inf", "L-inf",
         "tol-0", "tol-neg", "tol-nan", "tol-loose", "h-tiny",
         "sup-tol-inf", "sup-tol-nan", "sup-tol-neg", "flat-bubble", "flat-bubble-h",
         "harnack-beta-neg", "harnack-R-underflow", "fd-h-underflow", "conjugation-a-overflow",
         "fullspace-a-overflow", "fullspace-a-underflow", "lemmas-density-cap",
         "harnack-R-inf", "harnack-delta-inf", "halfspace-beta-inf", "halfspace-xn-inf",
         "ball-beta-inf", "ball-c-nan", "conjugation-a-inf", "fd-h-inf",
         "conjugation-matrix-non-finite",
         "sweep-lambda-steps-cap", "yamabe-t-steps-cap",
         "yamabe-N-huge", "harnack-samples-huge", "sweep-check-count-huge",
         "validate-samples-huge", "sweep-check-count-neg", "yamabe-N-neg",
         "sweep-center-count-cap", "lemmas-h-count-cap", "yamabe-N-cap",
         "conjugation-samples-cap", "sweep-check-count-cap", "fullspace-n-cap",
         "harnack-n-cap", "sweep-center-count-1", "harnack-n-0", "harnack-n-neg",
         "conjugation-weights-underflow", "fd-weights-underflow", "family-unknown",
         "word-scale-text", "word-scale-empty", "word-translate-text", "word-scale-two",
         "word-scale-nan", "word-scale-inf", "word-translate-inf"],
)
def test_bad_input_exits_two_and_writes_nothing(tmp_path, capsys, argv):
    # a domain error returns 2, an argument rejected by the parser exits 2;
    # either way "error:" on stderr, no traceback and no artifact
    try:
        rc = run(tmp_path, *argv)
    except SystemExit as exc:
        rc = exc.code
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_dimension_cap_runs_at_its_value(tmp_path):
    # the cap is a ceiling, not a refusal of the dimensions in use (n = 9)
    assert cli.MAX_DIMENSION >= 9
    argv = ("verify-liouville", "--family", "fullspace", "--n", str(cli.MAX_DIMENSION))
    assert run(tmp_path, *argv) == 0


FUZZ_VALUES = ("0", "-0.0", "1e-320", "1e-300", "1e-160", "-1", "0.5", "1", "3",
               "1e10", "1e300", "inf", "-inf", "nan")
NON_FINITE = ("inf", "-inf", "nan")
# each command, with the fixed cheap settings of one without --samples, and
# the float flags it reads
FUZZ_COMMANDS = {
    ("harnack",): ("--R", "--delta", "--beta"),
    ("verify-liouville", "--family", "fullspace"): ("--a", "--beta"),
    ("verify-liouville", "--family", "halfspace"): ("--a", "--beta", "--c", "--xn"),
    ("verify-liouville", "--family", "ball"): ("--a", "--beta", "--c"),
    ("conjugation-test", "--mode", "analytic"): ("--a", "--beta"),
    ("conjugation-test", "--mode", "fd"): ("--a", "--beta", "--h"),
    ("moving-sphere", "--task", "sweep", "--check-count", "64", "--lambda-steps", "16",
     "--center-count", "2"): (
        "--a", "--beta", "--domain-radius", "--lambda-min", "--lambda-max", "--center-radius"),
    ("radial-shoot", "--k", "1"): ("--v0", "--h", "--r-max", "--sup-tol"),
    ("solve-yamabe", "--n", "5", "--k", "1", "--N", "8", "--t-steps", "2"): ("--L", "--tol"),
}
SAMPLED_COMMANDS = ("harnack", "verify-liouville", "conjugation-test")


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_float_flags_keep_the_exit_code_contract(data):
    # every float flag value, from subnormal to overflowing and non-finite,
    # ends in rc 0, 1 or 2, never in an exception; rc 2 writes nothing, and a
    # non-finite value is refused with rc 2
    cmd = data.draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    argv = list(cmd)
    # conjugation-test's default word is a word on R^3
    if cmd[0] != "conjugation-test" and "--n" not in cmd:
        argv.append(f"--n={data.draw(st.sampled_from([3, 4, 5]))}")
    non_finite = False
    for flag in FUZZ_COMMANDS[cmd]:
        value = data.draw(st.none() | st.sampled_from(FUZZ_VALUES))
        if value is not None:
            argv.append(f"{flag}={value}")
            non_finite |= value in NON_FINITE
    if cmd[0] in SAMPLED_COMMANDS:
        argv.append(f"--samples={data.draw(st.integers(1, 8))}")
    with tempfile.TemporaryDirectory() as out:
        # numpy warns on the overflowing values; the contract is the exit code
        with contextlib.redirect_stderr(io.StringIO()) as err, warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rc = main([*argv, "--output-dir", out])
        assert rc in (0, 1, 2), argv
        if non_finite:
            assert rc == 2, argv
        if rc == 2:
            assert "error:" in err.getvalue(), argv
            assert os.listdir(out) == [], argv


def test_radial_shoot_step_cap_returns_quickly(tmp_path):
    # about 1e15 RK4 steps on a profile that never leaves the cone: without
    # the step cap this runs until killed
    src = str(Path(conforma.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = [
        sys.executable, "-m", "conforma.cli", "radial-shoot", "--n", "3", "--k", "1",
        "--r-max", "1e12", "--h", "1e-3", "--output-dir", str(tmp_path),
    ]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_conjugation_test_command(tmp_path):
    rc = run(
        tmp_path,
        "conjugation-test",
        "--word", "translate:0.1,0,-0.2;scale:1.3;invert",
        "--samples", "20",
    )
    assert rc == 0
    res = read_result(tmp_path)["result"]
    assert res["checks"]["eigenvalue_conjugation"]["value"] <= 1e-8


@pytest.mark.parametrize("extra", [
    ("--n", "9"), ("--n", "12"), ("--n", "16"),
    # the fd truncation error grows with n: at n = 16 the default h = 1e-3
    # misses the 1e-4 gate, h = 1e-4 meets it
    ("--n", "16", "--mode", "fd", "--h", "1e-4"),
])
def test_conjugation_test_runs_up_to_the_dimension_cap(tmp_path, extra):
    assert run(tmp_path, "conjugation-test", "--word", "scale:1.7;invert", *extra) == 0


def test_failing_check_returns_one(tmp_path, capsys):
    # an fd stencil too coarse for the 1e-4 gate: reported, artifacts kept
    rc = run(
        tmp_path,
        "conjugation-test",
        "--mode", "fd",
        "--h", "0.05",
        "--word", "invert",
        "--samples", "10",
    )
    assert rc == 1
    assert "FAIL: conjugation-test" in capsys.readouterr().err
    res = read_result(tmp_path)
    assert res["pass"] is False


def test_domain_error_returns_two_and_writes_nothing(tmp_path, capsys):
    rc = run(tmp_path, "solve-yamabe", "--n", "4", "--k", "2", "--N", "16")
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "result.json").exists()
    assert not (tmp_path / "manifest.json").exists()


def test_unknown_command_exits_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, "frobnicate")
    assert exc.value.code == 2
    assert not (tmp_path / "result.json").exists()


def test_result_json_is_byte_stable(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        rc = run(out, "validate-operator", "--n", "3", "--k", "1",
                 "--samples", "80", "--seed", "7")
        assert rc == 0
    assert (a / "result.json").read_bytes() == (b / "result.json").read_bytes()
    rc = run(tmp_path / "c", "validate-operator", "--n", "3", "--k", "1",
             "--samples", "80", "--seed", "8")
    assert rc == 0
    assert (a / "result.json").read_bytes() != (tmp_path / "c" / "result.json").read_bytes()


def _outcome(parse, argv):
    """stdout, stderr and exit code of parse(argv), which must exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
    return out.getvalue(), err.getvalue(), exc.value.code


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["--version"],
    *([name, "--help"] for name in cli.COMMANDS),
    [],
    ["frobnicate"],
    ["--seed", "1", "harnack"],
    ["radial-shoot", "--n", "3", "--k", "1", "--bogus"],
    ["radial-shoot", "--n", "3"],
    ["validate-operator", "--n", "3", "--k", "2", "--samples", "100001"],
    ["verify-liouville", "--n", "3", "--family", "cube"],
], ids=" ".join)
def test_cli_surface_matches_full_parser(argv):
    # help, version and usage errors read as the hand-written full parser's
    got = _outcome(main, argv)
    assert got == _outcome(lambda a: build_parser_all().parse_args(a), argv)
    assert got[2] in (0, 2)


def _workload_argvs():
    """The distinct argvs of the benchmark's workloads, at the cheap end of
    the radial and yamabe grids (a command's parser does not depend on its
    values)."""
    workloads = load_workloads()
    argvs = {it.argv for w in workloads.WORKLOADS for seed in range(6)
             for it in workloads.build(w, seed)}
    return sorted(a for a in argvs if "1e-4" not in a
                  and ("--N" not in a or a[a.index("--N") + 1] == "64"))


def test_main_builds_only_the_command_parser(tmp_path, monkeypatch):
    calls = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        calls.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    argvs = _workload_argvs()
    assert {a[0] for a in argvs} == set(cli.COMMANDS)
    for argv in argvs:
        calls.clear()
        with contextlib.redirect_stderr(io.StringIO()):
            assert run(tmp_path, *argv, "--seed", "1") in (0, 1)
        assert calls == [argv[0]], argv


@pytest.mark.parametrize("argv", _workload_argvs(), ids=" ".join)
def test_command_parser_matches_full_parser(argv):
    # the same namespace, handler included, as the full parser gives
    full = vars(build_parser_all().parse_args(argv))
    assert vars(cli.build_parser(argv[0]).parse_args(argv)) == full
    assert vars(cli.build_parser().parse_args(argv)) == full
