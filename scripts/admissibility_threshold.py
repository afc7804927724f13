#!/usr/bin/env python3
"""Bisect the largest admissible sinusoidal perturbation of the constant branch.

For grids u = c*(1 + eps sin(2 pi t / L)) the node eigenvalues leave the
operator's cone once eps is large enough; this finds the threshold for the
target operator and for each requested homotopy stage. The t = 0 stage is
semilinear and tolerates much larger amplitudes than the target. Beyond the
threshold the residual is undefined at the start, so newton_solve first
blends such a start toward its mean (admissibility restoration) and only
then iterates.
"""

import argparse
import sys

import numpy as np

from conforma.cones import make_sigma_k_operator
from conforma.yamabe import PeriodicGrid, c_star, min_cone_margin


def threshold(op, t, cs, L, N, scheme, eps_hi=1.0, bits=40):
    nodes = np.arange(N) * (L / N)

    def admissible(eps):
        vals = cs * (1.0 + eps * np.sin(2.0 * np.pi * nodes / L))
        if np.any(vals <= 0):
            return False
        g = PeriodicGrid(L=L, values=vals, scheme=scheme)
        return min_cone_margin(op, g, t) > 0.0

    lo, hi = 0.0, eps_hi
    if admissible(hi):
        return hi, False
    for _ in range(bits):
        mid = 0.5 * (lo + hi)
        if admissible(mid):
            lo = mid
        else:
            hi = mid
    return lo, True


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=5)
    ap.add_argument("--k", type=int, default=2)
    ap.add_argument("--L", type=float, default=1.0)
    ap.add_argument("--N", type=int, default=64)
    ap.add_argument("--scheme", choices=("spectral", "fd4"), default="spectral")
    ap.add_argument("--stages", nargs="+", type=float,
                    default=[0.0, 0.25, 0.5, 0.75, 1.0],
                    help="homotopy stages to probe")
    args = ap.parse_args(argv)

    op = make_sigma_k_operator(args.n, args.k)
    cs = c_star(op)
    print(f"operator {op.name}, constant branch c* = {cs:.12g}, "
          f"N = {args.N}, scheme {args.scheme}")
    print(f"{'stage t':>8}  {'eps threshold':>14}")
    for t in args.stages:
        eps, bounded = threshold(op, t, cs, args.L, args.N, args.scheme)
        mark = "" if bounded else "  (no rejection up to this amplitude)"
        print(f"{t:8.2f}  {eps:14.6f}{mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
