"""Batch experiment front end.

Eight subcommands, each a single deterministic experiment that writes
result.json (byte-stable for fixed command, params, and seed), manifest.json
(version, seed, timing — the only place timing lives), and the files its
handler returns: profile.csv and grid.csv under --format csv|both, sweep.csv
under --emit-sweep-csv, solve-yamabe's trace.jsonl always. Handlers return
data, not writers; main hands every file to reporting.write_files, which
picks the format from the suffix. Exit status: 0 every check record passes,
1 a record failed or the command returned none, 2 usage or parameter error
(nothing written).
One table, COMMANDS, holds the subcommands; main builds the parser of the
command it runs, and the full parser only for help, --version and an argv
that names no command first.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__, reporting
from .reporting import Check
from .bubbles import (
    BubbleParams,
    ball_robin_residual,
    bubble_values,
    halfspace_residual,
    verify_fullspace,
)
from .cones import (
    make_sigma_k_operator,
    homogenize,
    sample_cone_directions,
    validate_operator,
)
from .conformal import (
    Invert,
    MoebiusMap,
    Scale,
    Translate,
    conjugation_residual,
)
from .errors import ConformaError, DomainError
from .fields import BubbleField, ConstantField, ball, finite_difference
from .moving_sphere import (
    SweepConfig,
    alpha_invariant,
    gradient_bound_check,
    h_lemma_check,
    harnack_constant,
    harnack_product,
)
from .radial import (
    bubble_deviation,
    matched_beta,
    matched_bubble,
    profile_max_unit_residual,
    shoot,
)
from .sampling import ball_points, make_rng, shell_points
from .yamabe import c_star, continuation

SUP_TOL_RADIAL = 1e-5
R1_TOL = 1e-10
R2_TOL = 1e-12

# Caps on the integer work flags, from their measured cost per unit on a
# 2-core Xeon VM at one thread. --samples: conjugation-test --n 16 takes about
# 0.4 ms a sample with --mode fd (42 s and a 127 MiB peak RSS at the cap) and
# 0.1 ms analytic (10 s, 79 MiB); it holds conformal.CONJUGATION_SLAB samples'
# matrices at a time. harnack --n 8 holds about 0.4 KiB a sample (a peak near
# 75 MiB at the cap).
MAX_SAMPLES = 100_000
# --check-count: a default sweep (9 centres, 256 lambda steps) takes about
# 0.018 ms a check point, 5 s at the cap.
MAX_CHECK_COUNT = 2**18
# --center-count: a centre's critical radius takes about 12 ms at the default
# 4096 check points, 51 s at the cap.
MAX_CENTER_COUNT = 4096
# --h-count: a catalog function's interval-lemma check takes about 2 ms at the
# default density 64, 20 s at the cap (and about 1.3 s each at MAX_DENSITY).
MAX_H_COUNT = 10_000
# --n: verify-liouville --family fullspace holds (samples, n, n) matrices, a
# peak of about 250 MiB at n = 9 and 680 MiB (2 s) at n = 16 at the --samples
# cap. (harnack's constant C(n) overflows a float from n = 23.)
MAX_DIMENSION = 16


def _count(cap=math.inf, low=1):
    """argparse type for an integer work flag: an int in [low, cap], refused
    by the parser before any handler builds an array or a loop from it. The
    default low is 1: a check never passes on no evidence."""

    def count(text: str) -> int:
        value = int(text)
        if not low <= value <= cap:
            raise argparse.ArgumentTypeError(f"{value} is outside [{low}, {cap}]")
        return value

    return count


def _parse_word(text: str, n: int) -> MoebiusMap:
    """Parse 'translate:0.3,0,-0.1;scale:2;invert' into a Mobius word on R^n;
    every component must be a finite number."""
    gens = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        if part == "invert":
            gens.append(Invert())
            continue
        if ":" not in part:
            raise DomainError(f"bad generator {part!r}")
        head, payload = part.split(":", 1)
        if head not in ("translate", "scale"):
            raise DomainError(f"unknown generator {head!r}")
        try:
            vec = tuple(float(c) for c in payload.split(","))
        except ValueError:
            raise DomainError(f"generator {part!r} has a component that is not a number") from None
        if not all(math.isfinite(c) for c in vec):
            raise DomainError(f"generator {part!r} has a non-finite component")
        size = n if head == "translate" else 1
        if len(vec) != size:
            raise DomainError(f"{part!r} has {len(vec)} components, expected {size}")
        gens.append(Translate(vec) if head == "translate" else Scale(vec[0]))
    if not gens:
        raise DomainError("empty Mobius word")
    return MoebiusMap(tuple(gens))


# ---------------------------------------------------------------------------
# command handlers: each returns (result_dict, checks, files)
# checks: {name: Check}, the records main takes the run's pass from; a result
# with a "checks" key holds the same records there
# files: {filename: data}, only the files this run asked for; a .csv entry is
# (header, rows), a .jsonl entry the list of records. The handler owns the
# file's schema; reporting.write_files renders it


def _cmd_validate_operator(args):
    op = make_sigma_k_operator(args.n, args.k)
    checks = validate_operator(op, sample_count=args.samples, seed=args.seed)
    result = {
        "operator": op.name,
        "n": args.n,
        "k": args.k,
        "samples": args.samples,
        "checks": checks,
    }
    return result, checks, {}


def _cmd_verify_liouville(args):
    n, k, a = args.n, args.k, args.a
    family = args.family
    if family == "fullspace":
        op = make_sigma_k_operator(n, k)
        beta = args.beta if args.beta is not None else matched_beta(op, a)
        p = BubbleParams(n=n, a=a, beta=beta)
        res = verify_fullspace(op, p, sample_count=args.samples, seed=args.seed)
    elif family == "halfspace":
        beta = args.beta if args.beta is not None else 1.0
        center = [0.0] * n
        center[-1] = args.xn
        p = BubbleParams(n=n, a=a, beta=beta, center=np.asarray(center))
        c = args.c if args.c is not None else (n - 2.0) / a * beta * args.xn
        res = halfspace_residual(p, c, sample_count=args.samples, seed=args.seed)
    elif family == "ball":
        beta = args.beta if args.beta is not None else 1.0
        p = BubbleParams(n=n, a=a, beta=beta)
        c = args.c if args.c is not None else -0.5 * (n - 2.0) * (1.0 - beta) / a
        res = ball_robin_residual(p, c, sample_count=args.samples, seed=args.seed)
    checks = {
        "r1": Check(res.r1 <= R1_TOL, res.samples_used, {"value": res.r1, "tol": R1_TOL}),
        # a closed form in the parameters: one evaluation
        "r2": Check(res.r2 <= R2_TOL, 1, {"value": res.r2, "tol": R2_TOL}),
    }
    result = {
        "family": family,
        "bubble": p,
        "samples_used": res.samples_used,
        "checks": checks,
    }
    return result, checks, {}


def _cmd_radial_shoot(args):
    # an infinite tolerance would certify any profile
    if not (math.isfinite(args.sup_tol) and args.sup_tol > 0):
        raise DomainError(f"sup_tol = {args.sup_tol:g} must be finite and positive")
    op = make_sigma_k_operator(args.n, args.k)
    profile = shoot(op, args.v0, h=args.h, r_max=args.r_max)
    params = matched_bubble(op, args.v0)
    # a bubble (decreasing in r) within sup_tol of v0 passes a constant profile too
    flat = args.v0 - bubble_values(params, np.eye(args.n)[:1] * args.r_max)[0]
    if not flat > args.sup_tol:
        raise DomainError(f"matched bubble varies by {flat:.3g} <= sup_tol over [0, r_max]")
    sup_error = bubble_deviation(profile, params)
    unit_res = profile_max_unit_residual(op, profile)
    check = Check(profile.status == "ok" and sup_error <= args.sup_tol, len(profile.r))
    result = {
        "profile": profile,
        "matched_bubble": params,
        "sup_error": sup_error,
        "sup_tol": args.sup_tol,
        "max_unit_residual": unit_res,
        "pass": check.passed,
    }
    files = {}
    if args.format != "json":
        rows = zip(profile.r.tolist(), profile.v.tolist(), profile.vp.tolist(),
                   profile.vpp.tolist())
        files["profile.csv"] = (("r", "v", "vp", "vpp"), rows)
    return result, {"sup_error": check}, files


def _ring_centers(n: int, radius: float, count: int) -> np.ndarray:
    """Origin plus (count-1) points on a planar ring of the given radius."""
    xs = [np.zeros(n)]
    for j in range(count - 1):
        x = np.zeros(n)
        ang = 2.0 * math.pi * j / (count - 1)
        x[0] = radius * math.cos(ang)
        x[1] = radius * math.sin(ang)
        xs.append(x)
    return np.asarray(xs)


def _cmd_moving_sphere(args):
    if args.task == "lemmas":
        return _cmd_appendix_suite(args)
    n = args.n
    u = BubbleField(
        BubbleParams(n=n, a=args.a, beta=args.beta), domain=ball(args.domain_radius)
    )
    rng = make_rng(args.seed)
    pts = ball_points(rng, n, args.check_count, radius=args.domain_radius)
    cfg = SweepConfig(
        lambda_min=args.lambda_min,
        lambda_max=args.lambda_max,
        check_points=pts,
        lambda_steps=args.lambda_steps,
    )
    expected = args.beta ** -0.5
    centers = _ring_centers(n, args.center_radius, args.center_count)
    # alpha_invariant raises on a flagged centre, so no flag reaches the report
    alpha = alpha_invariant(u, centers, cfg)
    origin = alpha.lambda_bars[0]  # the ring centres start at the origin
    alpha_expected = (args.a / args.beta) ** (0.5 * (n - 2))
    checks = {
        "lambda_bar_origin": Check(
            abs(origin - expected) <= 1e-3 * expected,
            len(pts),
            {"value": origin, "expected": expected, "flag": ""},
        ),
        "alpha_spread": Check(
            alpha.spread <= 1e-2 * alpha_expected,
            len(centers),
            {"value": alpha.spread, "alpha_expected": alpha_expected},
        ),
    }
    result = {
        "n": n,
        "a": args.a,
        "beta": args.beta,
        "alpha": alpha,
        "checks": checks,
    }
    files = {}
    if args.emit_sweep_csv:
        header = tuple(f"x{i}" for i in range(n)) + ("lambda_bar", "alpha")
        rows = [
            tuple(x.tolist()) + (lam, val)
            for x, lam, val in zip(centers, alpha.lambda_bars, alpha.values)
        ]
        files["sweep.csv"] = (header, rows)
    return result, checks, files


def _h_catalog(rng, count: int):
    """Deterministic catalog of 1-D test functions (value, derivative, alpha, a).

    Mix of decaying bubble traces (pass), constants (pass), off-center or
    tight bubbles (may fail the hypothesis), and exponentials (fail both).
    Kinds 0, 2 and 3 are the traces (1 + beta (s - m)^2)^(-alpha/2) with
    (beta, m) = (1, 0), (beta, 0) and (1, m).
    """
    out = []
    for i in range(count):
        kind = i % 5
        if kind == 1:
            alpha = float(rng.integers(0, 3))
            a = 0.5 + float(rng.random())
            c = 0.5 + 2.0 * float(rng.random())

            def h(s, c=c):
                return c + 0.0 * np.asarray(s)

            def hp(s):
                return 0.0 * np.asarray(s)

        elif kind == 4:
            gamma = 2.0 + 8.0 * float(rng.random())
            alpha = 1.0 + float(rng.integers(1, 3))
            a = 0.5 + 0.5 * float(rng.random())

            def h(s, gamma=gamma):
                return np.exp(gamma * np.asarray(s, dtype=float))

            def hp(s, gamma=gamma):
                return gamma * np.exp(gamma * np.asarray(s, dtype=float))

        else:
            beta, m = 1.0, 0.0
            if kind == 0:
                alpha = 1.0 + float(rng.integers(1, 4))
                a = 0.25 + 0.5 * float(rng.random())
            elif kind == 2:
                alpha = 1.0 + float(rng.integers(1, 4))
                beta = 2.0 + 6.0 * float(rng.random())
                a = 0.6 + 0.6 * float(rng.random())  # beta too tight for this a
            else:
                alpha = 1.0 + 2.0 * float(rng.random())
                a = 0.4 + 0.4 * float(rng.random())
                m = -0.5 + float(rng.random())  # off-center trace

            def h(s, alpha=alpha, beta=beta, m=m):
                d = s - m
                return (1.0 + beta * d * d) ** (-0.5 * alpha)

            def hp(s, alpha=alpha, beta=beta, m=m):
                d = s - m
                return -alpha * beta * d * (1.0 + beta * d * d) ** (-0.5 * alpha - 1.0)

        out.append((h, hp, alpha, a))
    return out


def _cmd_appendix_suite(args):
    rng = make_rng(args.seed)
    catalog = _h_catalog(rng, args.h_count)
    implication_failures = 0
    hyp_passes = 0
    concl_passes = 0
    for h, hp, alpha, a in catalog:
        rep = h_lemma_check(h, hp, alpha, a, sample_density=args.density)
        hyp_passes += int(rep.hypothesis_pass)
        concl_passes += int(rep.conclusion_pass)
        if not rep.implication_holds():
            implication_failures += 1

    fields = [
        ("bubble_beta1", BubbleField(BubbleParams(3, 1.0, 1.0), domain=ball(9.0)), 0.5),
        (
            "bubble_beta4",
            BubbleField(BubbleParams(3, 1.0, 4.0), domain=ball(9.0)),
            0.25,
        ),
        ("constant", ConstantField(3, 2.0, domain=ball(9.0)), 1.0),
    ]
    grads = [(name, a, gradient_bound_check(u, a, seed=args.seed)) for name, u, a in fields]

    checks = {
        "no_implication_failures": Check(
            implication_failures == 0,
            len(catalog),
            {
                "failures": implication_failures,
                "h_count": args.h_count,
                "hypothesis_passes": hyp_passes,
                "conclusion_passes": concl_passes,
            },
        ),
        "gradient_bound_on_catalog": Check(
            all(not rep.vacuous and rep.conclusion_pass for _, _, rep in grads),
            len(grads),
            {"reports": [{"field": name, "a": a, **asdict(rep)} for name, a, rep in grads]},
        ),
    }
    result = {"task": "lemmas", "checks": checks}
    return result, checks, {}


def _cmd_harnack(args):
    n = args.n
    if not (args.beta > 0 and math.isfinite(args.beta)):
        raise DomainError(f"beta = {args.beta:g} must be positive and finite")
    a = math.sqrt(2.0 * n * args.beta)  # sigma_1(lam(A^u)) = 1 normalization
    u = BubbleField(
        BubbleParams(n=n, a=a, beta=args.beta), domain=ball(3.0 * args.R)
    )
    rep = harnack_product(u, args.R, args.delta, sample_count=args.samples, seed=args.seed)
    checks = {
        "product_bound": Check(rep.within_bound, args.samples, {"P": rep.P, "B": rep.B}),
        "rescaling_exactness": Check(
            rep.rescaling_exactness <= 1e-10, args.samples, {"value": rep.rescaling_exactness}
        ),
    }
    result = {
        "n": n,
        "R": args.R,
        "delta": args.delta,
        "beta": args.beta,
        "C_n": harnack_constant(n),
        "report": rep,
        "checks": checks,
    }
    return result, checks, {}


def _cmd_homogenize(args):
    if not args.op.startswith("sigma"):
        raise DomainError(f"unknown operator {args.op!r} (expected sigmaK)")
    try:
        k = int(args.op[len("sigma"):])
    except ValueError as exc:
        raise DomainError(f"unknown operator {args.op!r}") from exc
    n = args.n
    op = make_sigma_k_operator(n, k)
    deg1 = homogenize(op)
    rng = make_rng(args.seed)
    lams = sample_cone_directions(rng, n, args.samples)

    scales = np.array([0.5, 2.0, 7.3])
    scaled = (lams[:100, None, :] * scales[:, None]).reshape(-1, n)
    pairs = min(args.triples, len(lams) - 1)
    mids = 0.5 * (lams[:pairs] + lams[1 : pairs + 1])
    # every ray of the three checks in one batched root solve
    roots = deg1.f(np.concatenate([lams, scaled, mids]))
    cuts = [len(lams), len(lams) + len(scaled)]
    vals, scaled_vals, mid_vals = np.split(roots, cuts)

    # the closed form sigma_k^{1/k}
    gap = float(np.max(np.abs(vals - op.f(lams)), initial=0.0))
    base = vals[:100, None] * scales
    deg_gap = float(np.max(np.abs(scaled_vals.reshape(base.shape) - base) / base, initial=0.0))
    conc = 0.5 * (vals[:pairs] + vals[1 : pairs + 1]) - mid_vals
    conc_worst = float(np.max(conc, initial=-math.inf))

    checks = {
        "closed_form_gap": Check(gap <= 1e-10, len(lams), {"value": gap, "tol": 1e-10}),
        "degree_one": Check(deg_gap <= 1e-9, len(scaled), {"value": deg_gap, "tol": 1e-9}),
        # a sample with no neighbour forms no pair
        "midpoint_concavity": Check(
            conc_worst <= 1e-9, pairs, {"worst": conc_worst, "pairs": pairs}
        ),
    }
    result = {"operator": op.name, "n": n, "k": k, "samples": args.samples,
              "checks": checks}
    return result, checks, {}


def _cmd_solve_yamabe(args):
    op = make_sigma_k_operator(args.n, args.k)
    res = continuation(
        op, args.L, args.N, t_steps=args.t_steps, tol=args.tol, scheme=args.scheme
    )
    result = res.to_json_dict()
    # the continuation's verdict; result.json carries its status, not a check
    checks = {"continuation": Check(res.status == "ok", len(res.records))}
    if res.status == "ok":
        cs = c_star(op)
        dev = float(np.max(np.abs(res.final.values - cs)))
        result["c_star"] = cs
        result["constant_branch_deviation"] = dev
    files = {"trace.jsonl": res.records}
    if res.final is not None and args.format != "json":
        grid = res.final
        files["grid.csv"] = (("t_node", "u"), zip(grid.nodes().tolist(), grid.values.tolist()))
    return result, checks, files


def _cmd_conjugation_test(args):
    n = args.n
    u = BubbleField(BubbleParams(n=n, a=args.a, beta=args.beta))
    if args.mode == "fd":
        u = finite_difference(u, h=args.h)
        tol = 1e-4
    else:
        tol = 1e-8
    psi = _parse_word(args.word, n)
    rng = make_rng(args.seed)
    pts = shell_points(rng, n, args.samples, 0.6, 1.4)
    res = conjugation_residual(u, psi, pts)
    checks = {"eigenvalue_conjugation": Check(res <= tol, len(pts), {"value": res, "tol": tol})}
    result = {
        "n": n,
        "mode": args.mode,
        "word": args.word,
        "samples": args.samples,
        "checks": checks,
    }
    return result, checks, {}


# ---------------------------------------------------------------------------
# parser and driver


def _validate_operator_flags(p):
    p.add_argument("--n", type=_count(MAX_DIMENSION), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--samples", type=_count(MAX_SAMPLES), default=500)


def _verify_liouville_flags(p):
    p.add_argument("--family", choices=("fullspace", "halfspace", "ball"),
                   default="fullspace")
    p.add_argument("--n", type=_count(MAX_DIMENSION), required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--xn", type=float, default=0.7)
    p.add_argument("--samples", type=_count(MAX_SAMPLES), default=100)


def _radial_shoot_flags(p):
    p.add_argument("--n", type=_count(MAX_DIMENSION), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--v0", type=float, default=1.0)
    p.add_argument("--h", type=float, default=1e-4)
    p.add_argument("--r-max", type=float, default=0.9)
    p.add_argument("--sup-tol", type=float, default=SUP_TOL_RADIAL)


def _moving_sphere_flags(p):
    p.add_argument("--task", choices=("sweep", "lemmas"), default="sweep")
    p.add_argument("--n", type=_count(MAX_DIMENSION), default=3)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--domain-radius", type=float, default=8.0)
    p.add_argument("--lambda-min", type=float, default=0.04)
    p.add_argument("--lambda-max", type=float, default=4.0)
    p.add_argument("--lambda-steps", type=int, default=256)
    p.add_argument("--check-count", type=_count(MAX_CHECK_COUNT), default=4096)
    p.add_argument("--center-count", type=_count(MAX_CENTER_COUNT, 2), default=9)
    p.add_argument("--center-radius", type=float, default=0.3)
    p.add_argument("--emit-sweep-csv", action="store_true")
    p.add_argument("--h-count", type=_count(MAX_H_COUNT), default=50, help="lemmas task: catalog size")
    p.add_argument("--density", type=int, default=64, help="lemmas task: grid density")


def _harnack_flags(p):
    p.add_argument("--n", type=_count(MAX_DIMENSION), default=3)
    p.add_argument("--R", type=float, default=1.0)
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--samples", type=_count(MAX_SAMPLES), default=4096)


def _homogenize_flags(p):
    p.add_argument("--op", default="sigma2", help="sigmaK, e.g. sigma2")
    p.add_argument("--n", type=_count(MAX_DIMENSION), default=3)
    p.add_argument("--samples", type=_count(MAX_SAMPLES), default=100)
    p.add_argument("--triples", type=_count(), default=500)


def _solve_yamabe_flags(p):
    p.add_argument("--n", type=_count(MAX_DIMENSION), default=5)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--L", type=float, default=1.0)
    p.add_argument("--N", type=_count(), default=64)
    p.add_argument("--t-steps", type=int, default=11)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--scheme", choices=("spectral", "fd4"), default="spectral")


def _conjugation_test_flags(p):
    p.add_argument("--n", type=_count(MAX_DIMENSION), default=3)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--word", default="translate:0.3,-0.1,0.2;scale:1.7;invert")
    p.add_argument("--mode", choices=("analytic", "fd"), default="analytic")
    p.add_argument("--h", type=float, default=1e-3)
    p.add_argument("--samples", type=_count(MAX_SAMPLES), default=20)


# the subcommands in help order: name -> (help, adder of its own flags, handler)
COMMANDS = {
    "validate-operator": ("structural checks on (f, cone)",
                          _validate_operator_flags, _cmd_validate_operator),
    "verify-liouville": ("bubble residuals for the rigidity families",
                         _verify_liouville_flags, _cmd_verify_liouville),
    "radial-shoot": ("integrate the radial profile, compare to the bubble",
                     _radial_shoot_flags, _cmd_radial_shoot),
    "moving-sphere": ("critical-radius sweeps or interval-lemma suite",
                      _moving_sphere_flags, _cmd_moving_sphere),
    "harnack": ("sup-inf product against the explicit constant",
                _harnack_flags, _cmd_harnack),
    "homogenize": ("degree-1 normalization checks",
                   _homogenize_flags, _cmd_homogenize),
    "solve-yamabe": ("homotopy continuation on the product manifold",
                     _solve_yamabe_flags, _cmd_solve_yamabe),
    "conjugation-test": ("eigenvalue conjugation under a Mobius word",
                         _conjugation_test_flags, _cmd_conjugation_test),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of the named one alone.

    A one-command parser names all of them in its usage line, as the full
    parser does, so the errors it prints read the same."""
    parser = argparse.ArgumentParser(
        prog="conforma",
        description="Desk-scale checks for conformally invariant curvature equations.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    # on the full parser a metavar would rename "command" in argparse's
    # invalid-choice and missing-command errors
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in COMMANDS if command is None else (command,):
        help_text, add_flags, handler = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--output-dir", default=".", help="artifact directory")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=("json", "csv", "both"), default="json")
        add_flags(p)
        p.set_defaults(handler=handler)
    return parser


def _args_digest(args) -> dict:
    skip = {"handler", "command", "output_dir", "format"}
    out = {}
    for key in sorted(vars(args)):
        if key not in skip:
            out[key] = getattr(args, key)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # only the named command's parser; anything else (help, --version, no or
    # an unknown command) gets the full one and its messages
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv)

    t0 = time.perf_counter()
    try:
        result, checks, files = args.handler(args)
    except ConformaError as exc:
        # parameter-shape problems are usage errors: nothing is written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        # so is a parameter whose arithmetic over- or underflows
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - t0
    # a command with no check record certifies nothing
    passed = bool(checks) and all(c.passed for c in checks.values())

    out_dir = Path(args.output_dir)
    reporting.write_files(out_dir, {
        "result.json": {
            "command": args.command,
            "seed": args.seed,
            "params": _args_digest(args),
            "result": result,
            "pass": passed,
        },
        "manifest.json": {
            "version": __version__,
            "command": args.command,
            "seed": args.seed,
            "timing_seconds": elapsed,
        },
        **files,
    })

    if not passed:
        print(f"FAIL: {args.command} (see {out_dir / 'result.json'})", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
