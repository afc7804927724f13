"""Per-layer timings of one path of the code, written to a BENCH_*.json.

Times, with fixed seeds and one BLAS/OpenMP thread, one of four suites. What
it times comes from the checkout's own bench/workloads.py: the checks pass's
argvs, the radial workload's (n, k) pairs and the checks workload's
homogenize pairs.

--suite cli:

- L4 for one argv per command (the distinct argvs of the checks pass, in
  definition order, then `moving-sphere --task sweep --beta 4.0`,
  `radial-shoot --n 5 --k 2` at h=1e-3 and h=1e-4 and `solve-yamabe --n 5
  --k 2 --N 64`, each at --seed 0): the wall time of one `cli.main` call,
  its handler time (`timing_seconds` of `manifest.json`) and their
  difference, the CLI's own cost (parser, argument digest, writing
  result.json and manifest.json); and the wall time of the tier-1 suite.
  Only this suite times commands.

--suite cones:

- L0 the sigma_1..sigma_k kernel per row on the 499 rays of each
  `homogenize` workload argv: `sigma_all` one row per call, and
  `sigma_rows` on all rows at once; and `op.grad_f` per row on the same
  rays: one row per call, and all rows in one call;
- L1 the unit-level ray solve per ray on the same rays: one
  `solve_unit_level` call on all the rows;
- the criterion-8 (homogenization) acceptance test.

--suite radial:

- L1 the radial slope per call on the (v, v', r) nodes of an h=1e-3 shot
  of every workload (n, k): the callable `shoot` uses (`slope_kernel(op)`);
- L3 `shoot` per h=1e-4 shot from v0 = 1 for every workload (n, k), and
  `profile_max_unit_residual` per profile of those shots;
- the criterion-4 acceptance test.

--suite moving-sphere:

- L2 `msi_violation` per radius: one scalar-radius call, and one call on a
  12-radius array divided by 12;
- L3 `critical_radius` per call on the criterion-5 inputs, `h_lemma_check`
  per call on the lemmas catalog, `gradient_bound_check` per bubble field;
- the criterion-5 acceptance test.

Each number is the median of --repeats runs; every run is kept under
"samples". The reading is stored under --label in --out, next to readings
of other labels already there; a suite run under a label that is already
there joins that reading entry by entry, so one file can hold several
suites' layers.
A reading describes one block of runs; the host drifts between blocks by
more than a small change moves a timing, so two readings do not resolve a
change.

--against DIR makes a paired reading of this checkout (the change) against
the checkout DIR (the parent). Each repeat runs the suite once in each
checkout, one process per side with that checkout's src/ on PYTHONPATH (and
its tests/ and bench/ on the import path) and one thread, and the side that
runs first alternates between repeats, so
the host's drift reaches both sides of a pair alike. Each of those processes
gets an environment pad of random length (from a fixed seed), which moves
its stack and heap layout from run to run: a layout that favours one
directory over another then spreads over both sides instead of staying
with one of them. Every timed entry
becomes the two sides' per-repeat values, the paired change/parent ratios,
their median and the change's win count, and a verdict on
bench/compare.py's rule: "improved" (or "worse") when the change wins (or
loses) at least 9 pairs in 10 and the medians differ by more than the
parent's interquartile range, "unresolved" otherwise. A layer speed claim
rests on such a reading; an end-to-end claim on bench/compare.py.

Run from a checkout (it imports that checkout's src/, tests/ and
bench/workloads.py):

    python scripts/bench_layers.py --suite cones --label change --out readings.json
    python scripts/bench_layers.py --suite moving-sphere --against ../parent \
        --repeats 10 --label change_vs_parent --out readings.json

Both sides run this script, so the parent checkout needs the functions a
suite calls, not this script.
"""
from __future__ import annotations

import os

os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

# the checkout whose code is timed: this script's own, or the side of an
# --against reading that BENCH_LAYERS_CHECKOUT names
ROOT = Path(os.environ.get("BENCH_LAYERS_CHECKOUT") or Path(__file__).resolve().parents[1])
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

import conforma  # noqa: E402
from conforma import radial  # noqa: E402
from conforma.bubbles import BubbleParams  # noqa: E402
from conforma.cli import _h_catalog, main  # noqa: E402
from conforma import cones  # noqa: E402
from conforma.cones import make_sigma_k_operator  # noqa: E402
from conforma.fields import BubbleField, ball  # noqa: E402
from conforma.moving_sphere import (  # noqa: E402
    SweepConfig,
    critical_radius,
    gradient_bound_check,
    h_lemma_check,
    msi_violation,
)
from conforma.sampling import ball_points, make_rng, sphere_points  # noqa: E402
import workloads  # noqa: E402


def pass_argvs(workload):
    """The distinct argvs of a workload's seed-0 pass, in definition order."""
    return list(dict(sorted((it.key, it.argv) for it in workloads.build(workload, 0))).values())


def flag(argv, name):
    return argv[argv.index(name) + 1]


def timed(fn, repeats):
    """Median and all samples of the wall time of fn()."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return {"median_s": statistics.median(samples), "samples": samples}


def per_item(entry, count):
    """Scale a timed() entry of count items to seconds per item."""
    return {
        "median_s": entry["median_s"] / count,
        "samples": [s / count for s in entry["samples"]],
        "items_per_sample": count,
    }


def criterion5_inputs():
    cfg = SweepConfig(
        lambda_min=0.04,
        lambda_max=4.0,
        check_points=ball_points(make_rng(0), 3, 4096, radius=8.0),
        lambda_steps=256,
    )
    centers = np.vstack([np.zeros(3), 0.3 * sphere_points(make_rng(1), 3, 8)])
    return cfg, centers


def ms_layer2(repeats):
    u = BubbleField(BubbleParams(n=3, a=1.0, beta=1.0), ball(9.0))
    rng = make_rng(0)
    x = ball_points(rng, 3, 1, radius=2.0)[0]
    pts = ball_points(rng, 3, 2048, radius=4.0)
    lams = 1.0 * np.arange(1, 13) / 13.0
    return {
        "msi_violation_scalar_radius_s": timed(
            lambda: msi_violation(u, x, 0.5, pts), repeats * 20
        ),
        "msi_violation_per_radius_in_12_batch_s": per_item(
            timed(lambda: msi_violation(u, x, lams, pts), repeats * 5), len(lams)
        ),
        "points": len(pts),
    }


def ms_layer3(repeats):
    cfg, centers = criterion5_inputs()
    u = BubbleField(BubbleParams(n=3, a=1.0, beta=1.0))

    def sweep_centres():
        for x in centers:
            critical_radius(u, x, cfg)

    catalog = _h_catalog(make_rng(0), 50)

    def lemma_catalog():
        for h, hp, alpha, a in catalog:
            h_lemma_check(h, hp, alpha, a)

    bubble = BubbleField(BubbleParams(3, 1.0, 1.0), domain=ball(9.0))
    return {
        "critical_radius_s": per_item(timed(sweep_centres, repeats), len(centers)),
        "h_lemma_check_s": per_item(timed(lemma_catalog, repeats), len(catalog)),
        "gradient_bound_check_s": timed(
            lambda: gradient_bound_check(bubble, 0.5, seed=0), repeats
        ),
    }


def cli_times(argv, repeats):
    """The wall time of main(argv), its handler time and their difference."""
    walls, handlers = [], []
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(repeats + 1):
            out = Path(tmp) / str(i)
            with contextlib.redirect_stderr(io.StringIO()):
                t0 = time.perf_counter()
                main(argv + ["--output-dir", str(out)])
                walls.append(time.perf_counter() - t0)
            handlers.append(json.loads((out / "manifest.json").read_text())["timing_seconds"])
    # the first run pays for lazy imports
    columns = {
        "wall_s": walls[1:],
        "handler_s": handlers[1:],
        "overhead_s": [w - h for w, h in zip(walls[1:], handlers[1:])],
    }
    return {key: {"median_s": statistics.median(v), "samples": v} for key, v in columns.items()}


def acceptance(name, repeats):
    import test_acceptance

    with contextlib.redirect_stdout(io.StringIO()):
        return timed(getattr(test_acceptance, name), repeats)


def tier1():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    # one run: a timed entry with one sample
    return {"median_s": wall, "samples": [wall], "returncode": proc.returncode,
            "summary": lines[-1] if lines else ""}


RADIAL_PAIRS = list(dict.fromkeys((int(flag(a, "--n")), int(flag(a, "--k")))
                                  for a in pass_argvs("radial")))


def radial_layer1(repeats):
    cases = []
    for n, k in RADIAL_PAIRS:
        op = make_sigma_k_operator(n, k)
        prof = radial.shoot(op, 1.0, h=1e-3, r_max=0.9)
        nodes = list(zip(prof.v.tolist()[1:], prof.vp.tolist()[1:], prof.r.tolist()[1:]))
        cases.append((radial.slope_kernel(op), nodes))
    count = sum(len(nodes) for _, nodes in cases)

    def kernel_calls():
        for slope, nodes in cases:
            for v, vp, r in nodes:
                slope(v, vp, r)

    return {"slope_per_call_s": per_item(timed(kernel_calls, repeats * 4), count)}


def radial_layer3(repeats):
    ops = [make_sigma_k_operator(n, k) for n, k in RADIAL_PAIRS]
    profiles = []

    def shots():
        profiles[:] = [radial.shoot(op, 1.0, h=1e-4, r_max=0.9) for op in ops]

    def residuals():
        for op, prof in zip(ops, profiles):
            radial.profile_max_unit_residual(op, prof)

    shoot_s = per_item(timed(shots, repeats), len(ops))
    return {
        "shoot_h1e-4_s": shoot_s,
        "residual_check_per_profile_s": per_item(timed(residuals, repeats), len(ops)),
        "nodes_per_profile": len(profiles[0].r),
    }


HOMOGENIZE_PAIRS = [(int(flag(a, "--n")), int(flag(a, "--op").removeprefix("sigma")))
                    for a in pass_argvs("checks") if a[0] == "homogenize"]


def homogenize_rays(n, k):
    """The 100 samples, 300 scaled rays and 99 midpoints that
    `homogenize --op sigma<k> --n <n> --seed 0` solves."""
    lams = cones.sample_cone_directions(make_rng(0), n, 100)
    scaled = (lams[:, None, :] * np.array([0.5, 2.0, 7.3])[:, None]).reshape(-1, n)
    return make_sigma_k_operator(n, k), np.concatenate([lams, scaled, 0.5 * (lams[:-1] + lams[1:])])


def cones_layer0(repeats):
    cases = [(k, homogenize_rays(n, k)[1]) for n, k in HOMOGENIZE_PAIRS]
    count = sum(len(rays) for _, rays in cases)

    def per_row():
        for _, rays in cases:
            for row in rays:
                cones.sigma_all(row)

    def rows():
        for k, rays in cases:
            cones.sigma_rows(rays, k)

    out = {
        "sigma_all_per_row_s": per_item(timed(per_row, repeats * 4), count),
        "rows": count,
        "sigma_rows_per_row_s": per_item(timed(rows, repeats * 40), count),
    }

    ops = [(make_sigma_k_operator(n, k), homogenize_rays(n, k)[1]) for n, k in HOMOGENIZE_PAIRS]

    def grad_per_row():
        for op, rays in ops:
            for row in rays:
                op.grad_f(row)

    def grad_rows():
        for op, rays in ops:
            op.grad_f(rays)

    out["grad_f_per_row_s"] = per_item(timed(grad_per_row, repeats * 4), count)
    out["grad_f_rows_per_row_s"] = per_item(timed(grad_rows, repeats * 40), count)
    return out


def cones_layer1(repeats):
    cases = [homogenize_rays(n, k) for n, k in HOMOGENIZE_PAIRS]
    count = sum(len(rays) for _, rays in cases)

    def solves():
        for op, rays in cases:
            cones.solve_unit_level(op.f, rays)

    return {"ray_solve_per_ray_s": per_item(timed(solves, repeats), count), "rays": count}


CLI_ARGVS = [list(a) for a in pass_argvs("checks")] + [
    ["moving-sphere", "--task", "sweep", "--beta", "4.0"],
    ["radial-shoot", "--n", "5", "--k", "2", "--h", "1e-3"],
    ["radial-shoot", "--n", "5", "--k", "2", "--h", "1e-4"],
    ["solve-yamabe", "--n", "5", "--k", "2", "--N", "64"],
]


def cli_layer4(repeats):
    out = {" ".join(argv): cli_times(argv + ["--seed", "0"], repeats * 4) for argv in CLI_ARGVS}
    out["tier1"] = tier1()
    return out


def machine():
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "cores": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "conforma": conforma.__version__,
        "threads": os.environ["OMP_NUM_THREADS"],
    }


# suite -> {reading key: runner of repeats}
SUITES = {
    "cli": {"L4": cli_layer4},
    "cones": {
        "L0": cones_layer0,
        "L1": cones_layer1,
        "criterion 8": functools.partial(acceptance, "test_criterion_08_homogenization"),
    },
    "moving-sphere": {
        "L2": ms_layer2,
        "L3": ms_layer3,
        "criterion 5": functools.partial(acceptance, "test_criterion_05_moving_sphere_invariant"),
    },
    "radial": {
        "L1": radial_layer1,
        "L3": radial_layer3,
        "criterion 4": functools.partial(acceptance, "test_criterion_04_radial_uniqueness"),
    },
}


def run_suite(suite, repeats):
    reading = {}
    for layer, run in SUITES[suite].items():
        # suites share layer keys (radial and cones L1, radial and
        # moving-sphere L3) but not entry names
        reading.setdefault(layer, {}).update(run(repeats))
    return reading


def side_run(checkout, suite, pad):
    """One run of the suite on checkout, in a process of its own whose
    environment holds the string pad."""
    path = os.pathsep.join([str(checkout / "src"), str(Path(__file__).resolve().parent)])
    env = dict(os.environ, BENCH_LAYERS_CHECKOUT=str(checkout), PYTHONPATH=path,
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", BENCH_LAYERS_PAD=pad)
    code = f"import json, bench_layers; print(json.dumps(bench_layers.run_suite({suite!r}, 1)))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{suite} suite in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def timed_entries(reading, path=()):
    """(path, median_s) of every timed entry of a reading."""
    for key, value in reading.items():
        if isinstance(value, dict):
            if "median_s" in value:
                yield path + (key,), value["median_s"]
            else:
                yield from timed_entries(value, path + (key,))


def paired(parent, change):
    """One timed entry of a paired reading; parent[i] and change[i] come from
    repeat i. The verdict takes bench/compare.py's rule for a lower-is-better
    metric."""
    from compare import WIN_SHARE

    ratios = [c / p for p, c in zip(parent, change)]
    wins = sum(c < p for p, c in zip(parent, change))
    losses = sum(c > p for p, c in zip(parent, change))
    need = math.ceil(WIN_SHARE * len(ratios))
    q1, _, q3 = statistics.quantiles(parent, n=4)
    gain = statistics.median(parent) - statistics.median(change)
    if wins >= need and gain > q3 - q1:
        verdict = "improved"
    elif losses >= need and -gain > q3 - q1:
        verdict = "worse"
    else:
        verdict = "unresolved"
    return {"parent_s": parent, "change_s": change, "ratios": ratios,
            "median_ratio": statistics.median(ratios), "wins": wins, "pairs": len(ratios),
            "verdict": verdict}


def pair_runs(runs):
    """The paired reading of runs = {"parent": [...], "change": [...]}, one
    side reading per repeat each, nested as the side readings are."""
    values = {side: [dict(timed_entries(r)) for r in rs] for side, rs in runs.items()}
    reading = {}
    for path in values["change"][0]:
        *parents, name = path
        node = reading
        for key in parents:
            node = node.setdefault(key, {})
        node[name] = paired([v[path] for v in values["parent"]], [v[path] for v in values["change"]])
    return reading


def against(suite, parent, repeats):
    """The paired reading of this checkout against parent; the side that runs
    first alternates between repeats, and every run draws its pad length."""
    sides = {"parent": parent, "change": ROOT}
    runs = {"parent": [], "change": []}
    rng = random.Random(0)
    for i in range(repeats):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            runs[side].append(side_run(sides[side], suite, "x" * rng.randrange(4096)))
    return pair_runs(runs)


def main_cli():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--suite", choices=sorted(SUITES), default="radial")
    ap.add_argument("--label", required=True, help="reading name, e.g. parent or change")
    ap.add_argument("--out", required=True, help="the BENCH_*.json to write the reading into")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--against", type=Path, metavar="DIR",
                    help="parent checkout: make a paired reading of this checkout against it")
    args = ap.parse_args()
    if args.against and args.repeats < 2:
        ap.error("--against needs --repeats of at least 2")

    path = Path(args.out)
    doc = json.loads(path.read_text()) if path.exists() else {}
    reading = doc.setdefault("readings", {}).setdefault(args.label, {})
    reading["machine"] = machine()
    if args.against:
        layers = against(args.suite, args.against.resolve(), args.repeats)
    else:
        layers = run_suite(args.suite, args.repeats)
    for layer, entries in layers.items():
        reading.setdefault(layer, {}).update(entries)
    path.write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main_cli()
