"""What imports the library from outside src/ runs: the scripts under
scripts/, and the benchmark's tracer over every layer module."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import conforma
from conforma import cli
from helpers import pass_argvs

ROOT = Path(__file__).resolve().parents[1]


def run_python(*args, path=()):
    src = str(Path(conforma.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, *path, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True,
    )


def run_script(name, *args):
    return run_python(str(ROOT / "scripts" / name), *args)


def test_admissibility_threshold_script():
    # the t = 0 and t = 1 thresholds that criterion 9's failure message quotes
    proc = run_script("admissibility_threshold.py")
    assert proc.returncode == 0, proc.stderr
    rows = dict(line.split() for line in proc.stdout.splitlines()[2:])
    assert rows["0.00"] == "0.053920"
    assert rows["1.00"] == "0.009409"


def test_continuation_trace_script():
    proc = run_script("continuation_trace.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("status: ok")


def test_bench_layers_script_help():
    # imports cli._h_catalog and the moving-sphere and cones APIs
    proc = run_script("bench_layers.py", "--help")
    assert proc.returncode == 0, proc.stderr
    assert "{cli,cones,moving-sphere,radial}" in proc.stdout


def test_bench_layers_times_the_checks_workload():
    # L4 runs every argv of the checks workload and one of each command
    code = "import json, sys, bench_layers; json.dump(bench_layers.CLI_ARGVS, sys.stdout)"
    proc = run_python("-c", code, path=[str(ROOT / "scripts")])
    assert proc.returncode == 0, proc.stderr
    argvs = [tuple(argv) for argv in json.loads(proc.stdout)]
    assert set(pass_argvs("checks")) <= set(argvs)
    assert {argv[0] for argv in argvs} == set(cli.COMMANDS)


def test_bench_layers_requires_out():
    # no default file: a run never merges into a historical BENCH_*.json
    proc = run_script("bench_layers.py", "--suite", "radial", "--label", "change")
    assert proc.returncode == 2
    assert "--out" in proc.stderr


def test_bench_layers_suites_join_one_reading(tmp_path):
    # radial and moving-sphere both write L3: a second suite under the same
    # label adds its entries and keeps the first suite's
    code = "\n".join([
        "import sys, bench_layers",
        "out = sys.argv[1]",
        "bench_layers.SUITES = {'a': {'L3': lambda r: {'x_s': 1}}, 'b': {'L3': lambda r: {'y_s': r}}}",
        "for suite in 'ab':",
        "    sys.argv = ['bench_layers.py', '--suite', suite, '--label', 'change', '--out', out,",
        "                '--repeats', '2']",
        "    bench_layers.main_cli()",
    ])
    out = tmp_path / "readings.json"
    proc = run_python("-c", code, str(out), path=[str(ROOT / "scripts")])
    assert proc.returncode == 0, proc.stderr
    reading = json.loads(out.read_text())["readings"]["change"]
    assert reading["L3"] == {"x_s": 1, "y_s": 2}
    assert "machine" in reading


def load_bench_layers(monkeypatch):
    """scripts/bench_layers.py as a module; the thread settings and import
    path it sets are undone after the test."""
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("BENCH_LAYERS_CHECKOUT", raising=False)
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("bench_layers", ROOT / "scripts" / "bench_layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_layers_pairs_side_readings(monkeypatch):
    # canned side readings, no side runs: each timed entry, nested or not,
    # becomes per-repeat values, change/parent ratios, their median and the
    # change's wins; untimed entries and the machine are left out
    bench_layers = load_bench_layers(monkeypatch)
    parent = [1.0, 1.1, 0.9, 1.0, 1.2, 1.0, 0.95, 1.05, 1.0, 1.1]

    def side(x, y):
        return {"machine": {"cpu": "any"}, "L3": {"x_s": {"median_s": x, "samples": [x]}, "points": 7},
                "L4": {"argv": {"wall_s": {"median_s": y, "samples": [y]}}}}

    runs = {"parent": [side(p, p) for p in parent],
            "change": [side(0.5 * p, 2.0 * p) for p in parent]}
    reading = bench_layers.pair_runs(runs)
    assert set(reading) == {"L3", "L4"} and set(reading["L3"]) == {"x_s"}
    x = reading["L3"]["x_s"]
    assert x["parent_s"] == parent and x["change_s"] == [0.5 * p for p in parent]
    assert x["ratios"] == [0.5] * 10 and x["median_ratio"] == 0.5
    assert (x["wins"], x["pairs"], x["verdict"]) == (10, 10, "improved")
    wall = reading["L4"]["argv"]["wall_s"]
    assert (wall["median_ratio"], wall["wins"], wall["verdict"]) == (2.0, 0, "worse")


def test_bench_layers_pads_every_side_run(monkeypatch):
    # each run's environment pad has its own length, drawn from a fixed seed,
    # so a layout effect does not stay with one side of the pairs
    bench_layers = load_bench_layers(monkeypatch)
    calls = []

    def side_run(checkout, suite, pad):
        calls.append((checkout, len(pad)))
        return {"L3": {"x_s": {"median_s": 1.0, "samples": [1.0]}}}

    monkeypatch.setattr(bench_layers, "side_run", side_run)
    parent = Path("parent")
    bench_layers.against("radial", parent, 4)
    first, calls[:] = list(calls), []
    bench_layers.against("radial", parent, 4)
    assert calls == first
    sides = [checkout == parent for checkout, _ in first]
    assert sides == [True, False, False, True, True, False, False, True]
    lengths = [length for _, length in first]
    assert len(set(lengths)) == len(lengths)


def test_bench_layers_verdict_follows_the_compare_rule(monkeypatch):
    # improved needs 9 wins in 10 and medians apart by more than the
    # parent's interquartile range; ties win for neither side
    paired = load_bench_layers(monkeypatch).paired
    parent = [1.0, 1.1, 0.9, 1.0, 1.2, 1.0, 0.95, 1.05, 1.0, 1.1]  # IQR 0.1125
    nine = [0.7 * p for p in parent[:9]] + [1.3]
    assert paired(parent, nine)["verdict"] == "improved"
    eight = [0.7 * p for p in parent[:8]] + [1.3, 1.3]
    assert (paired(parent, eight)["wins"], paired(parent, eight)["verdict"]) == (8, "unresolved")
    close = [p - 0.01 for p in parent]  # wins all 10, gap 0.01 inside the IQR
    assert (paired(parent, close)["wins"], paired(parent, close)["verdict"]) == (10, "unresolved")
    same = paired(parent, list(parent))
    assert (same["wins"], same["median_ratio"], same["verdict"]) == (0, 1.0, "unresolved")
    assert paired(parent, [1.3 * p for p in parent])["verdict"] == "worse"


def test_radial_convergence_script():
    proc = run_script("radial_convergence.py", "--pairs", "3,1", "--steps", "2")
    assert proc.returncode == 0, proc.stderr


def test_bench_tracer_installs():
    # the traced benchmark run wraps every layer module, jacobi included
    code = "import tracing; t = tracing.Tracer(); t.install(); t.uninstall()"
    proc = run_python("-c", code, path=[str(ROOT / "bench")])
    assert proc.returncode == 0, proc.stderr


def test_cli_does_not_import_jacobi():
    # the Jacobi solver is the tests' reference only; no command loads it
    code = "import sys, conforma.cli; assert 'conforma.jacobi' not in sys.modules"
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr


def test_traced_checks_pass_runs_clean():
    # the tracer wraps every values method defined in conforma.fields; one
    # traced checks pass must still classify every item ok or known
    code = "\n".join([
        "import tempfile",
        "from pathlib import Path",
        "import tracing, worker, workloads",
        "from conforma import cli",
        "tracer = tracing.Tracer()",
        "tracer.install()",
        "with tempfile.TemporaryDirectory() as work:",
        "    loop = worker.Loop(cli, Path(work))",
        "    worker.run_pass(loop, workloads.build('checks', 1), tracer=tracer)",
        "tracer.uninstall()",
        "bad = [r['outcome'] for r in loop.records if r['outcome'] not in ('ok', 'known')]",
        "assert loop.records and not bad, bad",
    ])
    proc = run_python("-c", code, path=[str(ROOT / "bench")])
    assert proc.returncode == 0, proc.stderr
