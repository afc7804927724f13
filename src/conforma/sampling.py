"""Seeded sampling.

All randomness flows through numpy's PCG64 so that a fixed seed reproduces
every sample stream exactly.
"""

from __future__ import annotations

import numpy as np


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def unit_vectors(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    out = rng.standard_normal((count, n))
    norms = np.linalg.norm(out, axis=1)
    while np.any(norms < 1e-12):
        bad = norms < 1e-12
        out[bad] = rng.standard_normal((int(bad.sum()), n))
        norms = np.linalg.norm(out, axis=1)
    return out / norms[:, None]


def ball_points(
    rng: np.random.Generator, n: int, count: int, radius: float = 1.0
) -> np.ndarray:
    dirs = unit_vectors(rng, n, count)
    radii = radius * rng.random(count) ** (1.0 / n)
    return dirs * radii[:, None]


def sphere_points(
    rng: np.random.Generator, n: int, count: int, radius: float = 1.0
) -> np.ndarray:
    return radius * unit_vectors(rng, n, count)


def shell_points(
    rng: np.random.Generator,
    n: int,
    count: int,
    r_inner: float,
    r_outer: float,
) -> np.ndarray:
    dirs = unit_vectors(rng, n, count)
    radii = r_inner + (r_outer - r_inner) * rng.random(count)
    return dirs * radii[:, None]
