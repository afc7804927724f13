"""What imports the library from outside src/ runs: the scripts under
scripts/, and the benchmark's tracer over every layer module."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import conforma

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


def test_bench_layers_derives_parent_over_change():
    # one ratio per timed entry that both parent and change hold, keyed by its
    # path, and the largest same-side rerun ratio next to it
    readings = {
        "parent": {
            "machine": {"cpu": "x"},
            "L1": {"a_s": {"median_s": 2.0, "samples": [2.0]},
                   "parent_only_s": {"median_s": 1.0}, "rays": 5},
            "L4": {"cmd": {"wall_s": {"median_s": 3.0}},
                   "tier1": {"median_s": 40.0, "samples": [40.0], "returncode": 0}},
        },
        "change": {
            "L0": {"change_only_s": {"median_s": 1.0}},
            "L1": {"a_s": {"median_s": 1.0}},
            "L4": {"cmd": {"wall_s": {"median_s": 2.9}}, "tier1": {"median_s": 50.0}},
        },
        "parent-rerun": {"L1": {"a_s": {"median_s": 2.2}}, "L4": {"cmd": {"wall_s": {"median_s": 3.3}}}},
        "change-rerun": {"L4": {"tier1": {"median_s": 60.0}}},
    }
    code = "\n".join([
        "import json, sys, bench_layers",
        "json.dump(bench_layers.parent_over_change(json.loads(sys.argv[1])), sys.stdout)",
    ])
    proc = run_python("-c", code, json.dumps(readings), path=[str(ROOT / "scripts")])
    assert proc.returncode == 0, proc.stderr
    table = json.loads(proc.stdout)
    assert sorted(table) == ["L1/a_s", "L4/cmd/wall_s", "L4/tier1"]
    assert table["L1/a_s"] == {"ratio": 2.0, "same_side_spread": pytest.approx(1.1)}
    # no verdict: block readings cannot tell a small change from host drift
    assert table["L4/cmd/wall_s"] == {"ratio": pytest.approx(3.0 / 2.9),
                                      "same_side_spread": pytest.approx(1.1)}
    assert table["L4/tier1"] == {"ratio": 0.8, "same_side_spread": 1.2}


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
