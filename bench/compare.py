"""Parent/change comparison of the conforma benchmark.

    python3 bench/compare.py --parent ../parent-checkout --change . \
        [--workloads radial yamabe] [--holdout-seed 900001] [--counts] [--out FILE]

Both directories are checkouts holding bench/, BENCHMARK.json and src/. Their
benchmark files must be identical: a change that claims a gain may not edit
the benchmark. For each workload it runs PAIRS pairs of untraced runs of
run_seconds (BENCHMARK.json), one per seed from SEED_BASE on, alternating which
side runs first, and gives one verdict per end-to-end metric against the
bounds in BENCHMARK.json:

- improved: the change wins at least 9 of 10 pairs (ties count for neither)
  and the medians differ by more than the parent's interquartile range, no
  more items fail than at the parent, and the held-out seed agrees;
- worse: the change's median is worse than the parent's by more than the bound;
- unresolved: the run-to-run spread is wider than the bound and not every
  change run beats every parent run, or an improvement is not confirmed;
- unchanged: otherwise.

Verdicts are taken on the reported values, which are reference seconds (see
speed.py). The scaling can itself be off by several percent on numpy-heavy
work, so "improved" and "worse" also need the raw wall-clock values of the
same pairs to agree: for "improved" the change wins at least 9 of 10 pairs in
wall-clock time too; for "worse" the median of the paired wall-clock ratios is
worse by more than the bound. Otherwise the verdict is unresolved and names
both readings. Alternating the side that runs first cancels slow host drift
within a pair.

Keep the held-out seed out of every run made while writing the change.
--counts adds one traced run per side and workload and lists the per-layer
counts that differ; such counts repeat exactly, so a difference is real.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
from run import provenance  # noqa: E402

WIN_SHARE = 0.9
PAIRS = 10
SEED_BASE = 1000


def _bench_files(root: Path) -> dict:
    files = {p.relative_to(root).as_posix(): p.read_bytes()
             for p in sorted((root / "bench").glob("*.py"))}
    files["BENCHMARK.json"] = (root / "BENCHMARK.json").read_bytes()
    return files


def run_once(root: Path, workload: str, seed: int, seconds, trace: int) -> dict:
    """One run; with trace 0, result["wall"] holds every end-to-end metric in
    wall-clock terms (from the run's report; metrics without a wall-clock
    reading keep their reported value)."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=str(root), capture_output=True, text=True, timeout=200)
    if out.returncode != 0:
        raise RuntimeError(f"{root}: {' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{root}: {workload} seed {seed} reported incorrect output:\n{out.stderr}")
    if not trace:
        report = json.loads(
            (root / ".bench_out" / f"{workload}-seed{seed}-trace0.json").read_text()
        )
        wall = {m: v["value"] for m, v in result["metrics"].items()}
        wall.update(report["summary"]["wall_clock_metrics"])
        result["wall"] = wall
    return result


def _wins(sign: float, parent: list, change: list) -> int:
    return sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)


def verdict(metric: dict, parent: list, change: list, wall: tuple,
            holdout=None, more_failures=False) -> dict:
    """One end-to-end metric on one workload; parent[i] and change[i] share a
    seed, and wall = (parent, change) holds their wall-clock readings."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    wins = _wins(sign, parent, change)
    med_p, med_c = statistics.median(parent), statistics.median(change)
    q1p, _, q3p = statistics.quantiles(parent, n=4)
    q1c, _, q3c = statistics.quantiles(change, n=4)
    iqr_p = q3p - q1p
    spread = max(iqr_p / abs(med_p), (q3c - q1c) / abs(med_c)) if med_p and med_c else math.inf
    gain = sign * (med_c - med_p)
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if wins >= math.ceil(WIN_SHARE * len(parent)) and gain > iqr_p:
        if more_failures:
            word = "unresolved (more items fail than at the parent)"
        elif holdout is not None and not sign * (holdout[1] - holdout[0]) > 0:
            word = "unresolved (gain not confirmed on the held-out seed)"
        else:
            word = "improved"
    elif -gain > metric["bound"] * abs(med_p):
        word = "worse"
    elif spread > metric["bound"] and not all_better:
        word = "unresolved"
    else:
        word = "unchanged"
    wall_wins = _wins(sign, *wall)
    wall_ratio = statistics.median(c / p for p, c in zip(*wall))
    if (word == "improved" and wall_wins < math.ceil(WIN_SHARE * len(parent))) or (
        word == "worse" and not sign * (wall_ratio - 1.0) < -metric["bound"]
    ):
        word = f"unresolved (reference seconds say {word}, wall clock does not)"
    return {
        "verdict": word, "wins": wins, "pairs": len(parent),
        "wall_wins": wall_wins, "wall_paired_ratio": wall_ratio,
        "parent": {"median": med_p, "q1": q1p, "q3": q3p},
        "change": {"median": med_c, "q1": q1c, "q3": q3c},
        "relative_change": (med_c - med_p) / med_p if med_p else None,
        "holdout": holdout,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--workloads", nargs="*")
    p.add_argument("--holdout-seed", type=int, default=900001)
    p.add_argument("--counts", action="store_true", help="also diff traced per-layer counts")
    p.add_argument("--out", type=Path, help="write every run and verdict here as JSON")
    args = p.parse_args(argv)

    parent, change = args.parent.resolve(), args.change.resolve()
    if _bench_files(parent) != _bench_files(change):
        print("error: the two checkouts run different benchmark code", file=sys.stderr)
        return 2
    spec = json.loads((change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    sides = {"parent": parent, "change": change}
    report = {"pairs": PAIRS, "seconds": seconds, "holdout_seed": args.holdout_seed,
              "provenance": {s: provenance(root, SEED_BASE) for s, root in sides.items()},
              "workloads": {}}
    for side, prov in report["provenance"].items():
        print(f"# {side} provenance " + json.dumps(prov, sort_keys=True), file=sys.stderr)

    for workload in names:
        runs = {"parent": [], "change": []}
        for i in range(PAIRS + 1):
            seed = SEED_BASE + i if i < PAIRS else args.holdout_seed
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(sides[side], workload, seed, seconds, 0))
                print(f"# {workload} seed {seed} {side} done", file=sys.stderr)
        ok_frac = {s: statistics.median(r["metrics"]["ok_frac"]["value"] for r in runs[s][:-1])
                   for s in runs}
        verdicts = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            vals = {s: [r["metrics"][name]["value"] for r in runs[s]] for s in runs}
            wall = tuple([r["wall"][name] for r in runs[s][:-1]] for s in ("parent", "change"))
            verdicts[name] = verdict(
                metric, vals["parent"][:-1], vals["change"][:-1], wall,
                holdout=(vals["parent"][-1], vals["change"][-1]),
                more_failures=ok_frac["change"] < ok_frac["parent"],
            )
        entry = {"verdicts": verdicts, "runs": runs}
        if args.counts:
            traced = {s: run_once(sides[s], workload, SEED_BASE, seconds, 1) for s in sides}
            entry["count_changes"] = {
                m: [traced["parent"]["metrics"][m]["value"], traced["change"]["metrics"][m]["value"]]
                for m in tracing.exact_metric_names()
                if m in traced["parent"]["metrics"]
                and traced["parent"]["metrics"][m] != traced["change"]["metrics"][m]
            }
        report["workloads"][workload] = entry

    print(f"{'workload':10s} " + " ".join(f"{m['name']:>14s}" for m in spec["end_to_end"]))
    for workload, entry in report["workloads"].items():
        print(f"{workload:10s} " + " ".join(
            f"{entry['verdicts'][m['name']]['verdict'].split(' ')[0]:>14s}"
            for m in spec["end_to_end"]))
    for workload, entry in report["workloads"].items():
        for name, v in entry["verdicts"].items():
            rel = v["relative_change"]
            print(f"# {workload} {name}: {v['verdict']}; parent median {v['parent']['median']:.6g} "
                  f"[{v['parent']['q1']:.6g}, {v['parent']['q3']:.6g}], change median "
                  f"{v['change']['median']:.6g} [{v['change']['q1']:.6g}, {v['change']['q3']:.6g}], "
                  f"change wins {v['wins']}/{v['pairs']}"
                  + (f", {rel:+.2%}" if rel is not None else "")
                  + f"; wall clock: change wins {v['wall_wins']}/{v['pairs']}, "
                  f"median paired ratio {v['wall_paired_ratio']:.4f}")
        for name, (a, b) in entry.get("count_changes", {}).items():
            print(f"# {workload} count {name}: parent {a!r}, change {b!r}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
