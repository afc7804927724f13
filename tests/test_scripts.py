"""The scripts under scripts/ that call the yamabe API run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import conforma

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    src = str(Path(conforma.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True,
    )


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
