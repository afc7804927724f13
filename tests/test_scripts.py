"""What imports the library from outside src/ runs: the scripts under
scripts/, and the benchmark's tracer over every layer module."""

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
