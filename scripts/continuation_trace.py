#!/usr/bin/env python3
"""Print the homotopy path for the periodic product-manifold solve.

Runs the continuation from the semilinear start to the target operator
and prints one line per path step: the residual of the step's start (the
extrapolated path, from its iteration-0 record), Newton and Krylov
iterations, final residual, worst cone margin, and the smallest
|mu_j|/max|mu_j| and negative mode count of the last Newton step's
circulant preconditioner (of the start itself for a step that needed no
Newton step; "-" for the t = 0 step from its exact start). Then it prints
the endpoint's deviation from the constant branch value c*.

    PYTHONPATH=src python scripts/continuation_trace.py --n 5 --k 1 --L 3.5
"""

import argparse
import sys

import numpy as np

from conforma.cones import make_sigma_k_operator
from conforma.yamabe import c_star, continuation


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=5)
    ap.add_argument("--k", type=int, default=2)
    ap.add_argument("--L", type=float, default=1.0)
    ap.add_argument("--N", type=int, default=64)
    ap.add_argument("--t-steps", type=int, default=11)
    ap.add_argument("--tol", type=float, default=1e-10)
    ap.add_argument("--scheme", choices=("spectral", "fd4"), default="spectral")
    args = ap.parse_args(argv)

    op = make_sigma_k_operator(args.n, args.k)
    res = continuation(op, L=args.L, N=args.N, t_steps=args.t_steps,
                       tol=args.tol, scheme=args.scheme)

    print(f"operator {op.name}, N = {args.N}, L = {args.L}, "
          f"scheme {args.scheme}, c0 = {res.c0:.12g}")
    print(f"{'t':>6}  {'start res':>10}  {'newton':>6}  {'krylov':>6}  {'residual':>10}  "
          f"{'cone margin':>11}  {'symbol ratio':>12}  {'negative':>8}")
    start = {rec.t: rec.residual_inf for rec in res.records if rec.iter == 0}
    for s in res.steps:
        ratio = "-" if s.symbol_ratio is None else f"{s.symbol_ratio:.3e}"
        negative = "-" if s.negative_modes is None else str(s.negative_modes)
        print(f"{s.t:6.2f}  {start[s.t]:10.2e}  {s.iterations:6d}  {s.krylov_iters:6d}  "
              f"{s.residual_inf:10.2e}  {s.min_cone_margin:11.3e}  "
              f"{ratio:>12}  {negative:>8}")

    if res.status != "ok":
        print(f"status: {res.status} ({res.failure})")
        return 1
    dev = float(np.max(np.abs(res.final.values - c_star(op))))
    print(f"status: ok, |u - c*|_inf = {dev:.3e} "
          f"(c* = {c_star(op):.12g})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
