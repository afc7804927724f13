"""conforma benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload radial --seed 1 --seconds 42 --trace 0

Run from the root of a checkout that holds src/conforma. Each run spawns
fresh interpreters (bench/worker.py) with BLAS/OpenMP pinned to one thread
and CONFORMA_THREADS unset: SETUP_PAIRS pairs of them only set up and exit
(one with conforma, one baseline without it), one more runs the workload's
items in a closed loop (one client; the next item starts when the previous
one returns). End-to-end metrics come from the untraced run (--trace 0), in
reference seconds (see speed.py and setup_s below); per-layer metrics come
from the traced run (--trace 1).

The last stdout line is {"correct", "attempted", "failed", "metrics"}.
Provenance and a per-item report go to stderr and to
.bench_out/<workload>-seed<seed>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# setup_s: each pair spawns a set-up-only worker and a baseline worker (Python
# and numpy, no conforma), alternating which goes first, and takes the ratio of
# their spawn-to-READY times. Both slow down together when the host does, so
# the ratio holds still where either time alone spreads by 15-30%. setup_s is
# the median ratio times BASELINE_REF_S, the baseline's spawn time on an
# uncontended 2-vCPU Intel Xeon VM (Python 3.11, numpy 2.4).
SETUP_PAIRS = 8
BASELINE_REF_S = 0.12
RUN_LIMIT_S = 170.0  # whole run, spawns included
PINNED_THREADS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
END_TO_END = {
    "ok_per_s": "items/s",
    "item_p50_s": "s",
    "item_tail_s": "s",
    "ok_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


class BenchError(RuntimeError):
    pass


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measuring time of an untraced run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _digest(root: Path, pattern: str) -> str:
    h = hashlib.sha256()
    for path in sorted(root.glob(pattern)):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _git(root: Path, *args):
    try:
        out = subprocess.run(
            ["git", "-C", str(root), *args], capture_output=True, text=True, timeout=20
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(root: Path, seed: int) -> dict:
    commit = dirty = None
    top = _git(root, "rev-parse", "--show-toplevel")
    if top and Path(top).resolve() == root:
        commit = _git(root, "rev-parse", "HEAD")
        status = _git(root, "status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status)
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": commit,
        "dirty": dirty,
        "src_sha256": _digest(root, "src/conforma/*.py"),
        "bench_sha256": _digest(root, "bench/*.py"),
        "workload_seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "threads": dict(PINNED_THREADS),
    }


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env.pop("CONFORMA_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(root, args, extra, deadline):
    """Run one worker; return (seconds from spawn to READY, stdout bytes)."""
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"), "--root", str(root),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                            env=_child_env(), cwd=str(root), bufsize=0)
    ready = None
    buf = bytearray()
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise BenchError("worker exceeded the run time limit")
                if not sel.select(remaining):
                    continue
                chunk = os.read(proc.stdout.fileno(), 1 << 16)
                if not chunk:
                    break
                buf += chunk
                if ready is None and b"READY\n" in buf:
                    ready = time.perf_counter() - t0
        rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if rc != 0 or ready is None:
        raise BenchError(f"worker exited with rc {rc} before finishing")
    return ready, bytes(buf)


def _counts_check(out_dir: Path, key: str, counts: dict) -> list:
    """Compare exact counts with an earlier traced run of the same code and seed."""
    path = out_dir / "counts" / f"{key}.json"
    if path.exists():
        before = json.loads(path.read_text())
        return [
            f"{name}: {before.get(name)!r} then {value!r}"
            for name, value in counts.items() if before.get(name) != value
        ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts, indent=1, sort_keys=True) + "\n")
    return []


def _check_spec(root: Path):
    spec_path = root / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    units = tracing.metric_units()
    want = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if want != END_TO_END:
        raise BenchError("BENCHMARK.json end_to_end differs from the metrics run.py reports")
    for m in spec["per_layer"]:
        if units.get(m["name"]) != m["unit"]:
            raise BenchError(f"BENCHMARK.json per-layer metric {m['name']} is not reported")
    if {w["name"] for w in spec["workloads"]} != set(workloads.WORKLOADS):
        raise BenchError("BENCHMARK.json workloads differ from bench/workloads.py")
    return [m["name"] for m in spec["per_layer"]]


def main(argv=None) -> int:
    args = _parse(argv)
    root = BENCH_DIR.parent
    if not (root / "src" / "conforma" / "cli.py").is_file():
        print(f"error: no conforma sources under {root / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    out_dir = root / ".bench_out"
    work_dir = out_dir / f"work-{os.getpid()}"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        per_layer = _check_spec(root)
        prov = provenance(root, args.seed)
        setups = []
        for i in range(SETUP_PAIRS):
            order = ("--setup-only", "--baseline")[:: 1 if i % 2 == 0 else -1]
            ready = {flag: _spawn(root, args, [flag, "--work-dir", str(work_dir)], deadline)[0]
                     for flag in order}
            setups.append((ready["--setup-only"], ready["--baseline"]))
        extra = ["--work-dir", str(work_dir)]
        if args.trace:
            extra += ["--spans-out", str(out_dir / f"spans-{tag}.npz")]
        run = json.loads(_spawn(root, args, extra, deadline)[1].decode().strip().splitlines()[-1])
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    prov["numpy"] = run["numpy"]
    every = run["records"]
    measured = [r for r in every if r["phase"] == "measure"]
    failures = [r for r in every if r["outcome"].startswith("failed")]
    passing = [r["ref_wall"] for r in measured if r["outcome"] == "ok"]
    raw_passing = [r["wall"] for r in measured if r["outcome"] == "ok"]
    known = sum(1 for r in measured if r["outcome"] == "known")
    pct = workloads.TAIL_PERCENTILE[args.workload]
    tail, beyond = workloads.percentile(passing, pct) if passing else (0.0, 0)
    summary = {
        "attempted": len(measured),
        "passing": len(passing),
        "known_failures": known,
        "unexpected_failures": len(failures),
        "fail_frac": (len(measured) - len(passing)) / len(measured),
        "passes": len(run["pass_walls"]),
        "runs_per_pass": len(run["pass_keys"]),
        "wall_s": sum(run["pass_walls"]),
        "item_wall_s": sum(r["wall"] for r in measured),
        "item_ref_s": sum(r["ref_wall"] for r in measured),
        "probe_median_s": statistics.median(r["probe"] for r in measured),
        "probe_ref_s": speed.REF_S,
        "tail_percentile": pct,
        "tail_runs_beyond": beyond,
        "repeats_checked": run["repeats_checked"],
        "setup_samples_s": [w for w, _ in setups],
        "setup_baseline_s": [b for _, b in setups],
        "setup_ratios": [w / b for w, b in setups],
    }
    raw = {
        "ok_per_s": len(raw_passing) / summary["item_wall_s"],
        "item_p50_s": statistics.median(raw_passing) if raw_passing else 0.0,
        "item_tail_s": workloads.percentile(raw_passing, pct)[0] if raw_passing else 0.0,
        "setup_s": statistics.median(summary["setup_samples_s"]),
    }
    summary["wall_clock_metrics"] = raw
    problems = [f"item {r['key']} ({r['phase']}): {r['outcome']}" for r in failures]
    if not passing:
        problems.append("no item passed")

    if args.trace:
        layers = run["layers"]
        warm_ok = sum(1 for r in every if r["phase"] == "warm" and r["outcome"] == "ok")
        layers["trace.ok_per_s"] = len(raw_passing) / run["pass_walls"][0]
        layers["trace.overhead_frac"] = (
            1.0 - layers["trace.ok_per_s"] * run["untraced_wall"] / warm_ok if warm_ok else 0.0
        )
        summary["untraced_wall_s"] = run["untraced_wall"]
        summary["spans_written"] = run.get("spans_written", 0)
        exact = {m: layers[m] for m in tracing.exact_metric_names()}
        key = f"{args.workload}-seed{args.seed}-{prov['src_sha256'][:16]}-{prov['bench_sha256'][:16]}"
        mismatches = _counts_check(out_dir, key, exact)
        summary["counts_match_earlier_run"] = not mismatches
        problems += [f"count changed between traced runs: {m}" for m in mismatches]
        units = tracing.metric_units()
        metrics = {m: {"value": layers[m], "unit": units[m]} for m in per_layer}
    else:
        values = {
            "ok_per_s": len(passing) / summary["item_ref_s"],
            "item_p50_s": statistics.median(passing) if passing else 0.0,
            "item_tail_s": tail,
            "ok_frac": len(passing) / len(measured),
            "setup_s": statistics.median(summary["setup_ratios"]) * BASELINE_REF_S,
            "peak_rss_mib": run["peak_rss_mib"],
        }
        metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END.items()}

    report = {"workload": args.workload, "trace": args.trace, "provenance": prov,
              "summary": summary, "problems": problems, "metrics": metrics,
              "records": every}
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{tag}.json").write_text(json.dumps(report, indent=1) + "\n")

    items = {it.key: it for it in workloads.build(args.workload, args.seed)}
    err = sys.stderr
    print(f"# conforma bench {tag}", file=err)
    print("# provenance " + json.dumps(prov, sort_keys=True), file=err)
    print(f"# {summary['attempted']} runs in {summary['passes']} passes of "
          f"{summary['runs_per_pass']}: {summary['passing']} passed, {known} known failures, "
          f"{len(failures)} unexpected failures; fail_frac {summary['fail_frac']:.4f}; "
          f"{summary['repeats_checked']} repeats byte-compared", file=err)
    if not args.trace:
        print(f"# item_tail_s is p{pct} of {len(passing)} passing runs ({beyond} beyond it)",
              file=err)
        print(f"# times are reference seconds: host-speed probe median "
              f"{summary['probe_median_s'] * 1e3:.3f} ms against {speed.REF_S * 1e3:.3f} ms; "
              f"setup_s is the median set-up/baseline spawn ratio times {BASELINE_REF_S} s; "
              "wall-clock values: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()), file=err)
    for item in items.values():
        if item.known_failure:
            print(f"# known failure: {' '.join(item.argv)}: {item.known_failure}", file=err)
    for p in problems:
        print(f"# PROBLEM {p}", file=err)
    for name, m in metrics.items():
        print(f"{name:45s} {m['value']:.6g} {m['unit']}", file=err)

    print(json.dumps({
        "correct": not problems,
        "attempted": len(every),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
