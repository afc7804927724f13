"""One workload in one fresh interpreter; started by bench/run.py.

Set-up (import conforma, build the parser, generate the inputs) ends with a
READY line on stdout; the parent times spawn-to-READY for setup_s. With
--baseline the worker prints READY right after its own imports (Python and
numpy, no conforma): the parent's reference spawn for setup_s. Then items
run in a closed loop, one at a time, each through conforma.cli.main(argv) in
this process, and the last stdout line is a JSON record of every item.

Untraced (--trace 0): the workload's pass (workloads.build) repeats while the
next pass is predicted to end within --seconds; at least one pass runs.
Traced (--trace 1): one untraced pass warms the caches and gives the untraced
goodput, then the tracer is installed and the same pass runs again traced.
Per-layer counts cover exactly that traced pass.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import speed
import workloads


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--root", required=True, help="repository checkout holding src/conforma")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--baseline", action="store_true",
                   help="set up without conforma and exit (implies --setup-only)")
    p.add_argument("--work-dir", required=True, help="scratch directory for item outputs")
    p.add_argument("--spans-out", default="", help="npz file for the kept spans (traced runs)")
    return p.parse_args(argv)


def check_payload(item, payload) -> str:
    """Checks of result.json beyond its own pass flag; '' when they hold."""
    if payload.get("command") != item.argv[0] or payload.get("seed") != item.seed:
        return "result.json names another command or seed"
    result = payload.get("result", {})
    if not payload.get("pass"):
        return ""
    checks = result.get("checks", {})
    if any(isinstance(c, dict) and c.get("pass") is False for c in checks.values()):
        return "pass is true while a check failed"
    argv = list(item.argv)
    if argv[0] == "radial-shoot":
        if result["profile"]["status"] != "ok" or not result["sup_error"] <= result["sup_tol"]:
            return "radial profile off the bubble"
    elif argv[0] == "solve-yamabe":
        if not result.get("status") == "ok":
            return "pass is true on a failed continuation"
        if result.get("constant_branch_deviation", 0.0) > 1e-8:
            return "solution left the constant branch"
    return ""


class Loop:
    """Runs items through cli.main and classifies each outcome."""

    def __init__(self, cli, work_dir: Path):
        self.cli = cli
        self.work_dir = work_dir
        self.digests: dict = {}
        self.records: list = []
        self.repeats_checked = 0

    def run_item(self, item, tracer=None, phase="measure"):
        out_dir = self.work_dir / f"item{item.key}"
        result_path = out_dir / "result.json"
        if result_path.exists():
            result_path.unlink()
        argv = item.full_argv(str(out_dir))
        probe = speed.probe()
        sink = io.StringIO()
        escaped = ""
        rc = None
        clock = time.perf_counter
        t0 = clock()
        if tracer is not None:
            tracer.open_item(t0)
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = self.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            escaped = f"SystemExit({exc.code!r})"
        except Exception as exc:  # counted as a failed item; the run goes on
            escaped = f"{type(exc).__name__}: {exc}"
        t1 = clock()
        trace_info = None
        if tracer is not None:
            trace_info = tracer.close_item(t1, len(self.records))

        outcome = self._classify(item, rc, escaped, result_path, sink.getvalue())
        rec = {
            "key": item.key, "phase": phase, "wall": t1 - t0, "probe": probe,
            "rc": rc, "outcome": outcome,
        }
        if trace_info is not None:
            rec["trace"] = trace_info
        self.records.append(rec)
        return rec

    def _classify(self, item, rc, escaped, result_path, output) -> str:
        """'ok', 'known' (the documented failure) or 'failed: <reason>'."""
        if escaped:
            return f"failed: exception escaped main: {escaped}"
        if rc not in (0, 1):
            tail = output.strip().splitlines()[-1:] or [""]
            return f"failed: rc {rc}: {tail[0][:200]}"
        try:
            data = result_path.read_bytes()
            payload = json.loads(data)
        except (OSError, ValueError) as exc:
            return f"failed: unreadable result.json ({exc})"
        digest = hashlib.sha256(data).hexdigest()
        seen = self.digests.get(item.key)
        if seen is None:
            self.digests[item.key] = digest
        else:
            self.repeats_checked += 1
            if seen != digest:
                return "failed: result.json differs from an earlier run of the same argv"
        passed = payload.get("pass")
        if (rc == 0) != (passed is True):
            return f"failed: rc {rc} with pass {passed!r}"
        problem = check_payload(item, payload)
        if problem:
            return f"failed: {problem}"
        if passed:
            return "ok"
        if item.known_failure:
            return "known"
        return "failed: check failed (pass false)"


def run_untraced(loop, items, seconds):
    """Whole passes while the next is predicted to fit; returns their wall times."""
    clock = time.perf_counter
    deadline = clock() + seconds
    walls = []
    while not walls or clock() + statistics.median(walls) <= deadline:
        t = clock()
        for item in items:
            loop.run_item(item)
        walls.append(clock() - t)
    return walls


def run_pass(loop, items, tracer=None, phase="measure"):
    clock = time.perf_counter
    start = clock()
    for item in items:
        loop.run_item(item, tracer=tracer, phase=phase)
    return clock() - start


def main(argv=None) -> int:
    args = _parse(argv)
    if args.baseline:
        print("READY", flush=True)
        return 0
    sys.path.insert(0, str(Path(args.root) / "src"))
    from conforma import cli
    import numpy

    cli.build_parser()
    items = workloads.build(args.workload, args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    work_dir = Path(args.work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    loop = Loop(cli, work_dir)
    out = {
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
        "pass_keys": [it.key for it in items],
    }
    try:
        if args.trace:
            import tracing

            out["untraced_wall"] = run_pass(loop, items, phase="warm")
            tracer = tracing.Tracer()
            tracer.install()
            try:
                out["pass_walls"] = [run_pass(loop, items, tracer=tracer)]
            finally:
                tracer.uninstall()
            out["layers"] = tracer.metrics()
            if args.spans_out:
                tracer.write_spans(args.spans_out)
                out["spans_written"] = tracer.kept_spans
        else:
            out["pass_walls"] = run_untraced(loop, items, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    # reference seconds: each item scaled by the probes just before and after it
    after = [r["probe"] for r in loop.records[1:]] + [speed.probe()]
    for rec, k_after in zip(loop.records, after):
        rec["ref_wall"] = rec["wall"] * speed.scale(rec["probe"], k_after)
    out["records"] = loop.records
    out["repeats_checked"] = loop.repeats_checked
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out, allow_nan=False, default=float), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
