"""Shared test helpers: random system generators and independent oracles.

The brute-force smallest-ball solver here is deliberately written on a
different route than the library (itertools enumeration plus NumPy linear
algebra) so the two can check each other.
"""

from __future__ import annotations

import cmath
import math
from itertools import combinations

import numpy as np

from ifsbound import (
    Ball,
    IfsSystem,
    Similitude2,
    Similitude3,
    containment_tol,
    min_ball,
    verify_containment,
)
from ifsbound.ifs import _word_tree_images


# ---------------------------------------------------------------------------
# random systems
# ---------------------------------------------------------------------------


def random_ifs_2d(rng, n=None, lam_range=(0.1, 0.8), rotations=True):
    """Random plane system with fixed points in the unit square."""
    if n is None:
        n = int(rng.integers(2, 6))
    maps = []
    for _ in range(n):
        lam = float(rng.uniform(*lam_range))
        theta = float(rng.uniform(-math.pi, math.pi)) if rotations else 0.0
        p = complex(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0))
        maps.append(Similitude2(p=p, phi=lam * cmath.exp(1j * theta)))
    return IfsSystem(maps=tuple(maps))


def random_ifs_3d(rng, n=None, lam_range=(0.1, 0.8)):
    """Random space system with fixed points in the unit cube."""
    if n is None:
        n = int(rng.integers(2, 6))
    maps = []
    for _ in range(n):
        lam = float(rng.uniform(*lam_range))
        axis = rng.normal(size=3)
        while np.linalg.norm(axis) < 1e-6:
            axis = rng.normal(size=3)
        angle = float(rng.uniform(-math.pi, math.pi))
        p = rng.uniform(0.0, 1.0, size=3)
        maps.append(Similitude3.from_axis_angle(p=p, lam=lam, axis=axis, angle=angle))
    return IfsSystem(maps=tuple(maps))


def touching_ifs(rng, n, dim=2):
    """Random system of factor 1/2 without rotation and fixed points on a
    1/8 grid: its word images are exact dyadic numbers, many of them equal,
    and many distances tie."""
    maps = []
    for _ in range(n):
        p = rng.integers(0, 9, size=dim) / 8.0
        if dim == 2:
            maps.append(Similitude2(p=complex(*p), phi=0.5))
        else:
            maps.append(Similitude3(p=p, lam=0.5, rot=np.eye(3)))
    return IfsSystem(maps=tuple(maps))


def translated(ifs, offset):
    """``ifs`` with every fixed point moved by ``offset`` (a complex number
    in 2D, a 3-vector in 3D)."""
    if ifs.dim == 2:
        return IfsSystem(maps=tuple(Similitude2(p=m.p + offset, phi=m.phi) for m in ifs.maps))
    return IfsSystem(maps=tuple(Similitude3(p=m.p + offset, lam=m.lam, rot=m.rot) for m in ifs.maps))


def cantor_ifs():
    return IfsSystem(maps=(Similitude2(p=0, phi=1 / 3), Similitude2(p=1, phi=1 / 3)))


def sierpinski_ifs():
    top = (1 + 1j * math.sqrt(3)) / 2
    return IfsSystem(
        maps=(
            Similitude2(p=0, phi=0.5),
            Similitude2(p=1, phi=0.5),
            Similitude2(p=top, phi=0.5),
        )
    )


def mixed_bifractal():
    """Two-map system with distinct real factors used in worked examples."""
    return IfsSystem(maps=(Similitude2(p=0, phi=0.5), Similitude2(p=1, phi=0.25)))


# ---------------------------------------------------------------------------
# brute-force smallest enclosing ball (independent oracle)
# ---------------------------------------------------------------------------


def _covers(center, radius, pts, tol):
    return all(np.linalg.norm(p - center) <= radius + tol for p in pts)


def _circumcenter_exact(subset):
    """Equidistant point of an affinely independent subset, or None."""
    base = subset[0]
    rows = np.array([2.0 * (q - base) for q in subset[1:]])
    rhs = np.array([np.dot(q - base, q - base) for q in subset[1:]])
    if len(rows) == 0:
        return base
    # least squares gives the minimum-norm offset, which lies in the affine
    # hull of the subset; reject rank-deficient (degenerate) subsets
    sol, residuals, rank, _ = np.linalg.lstsq(rows, rhs, rcond=None)
    if rank < len(rows):
        return None
    return base + sol


def brute_min_ball(points):
    """O(n^(d+2)) reference smallest enclosing ball.

    ``points`` is a sequence of complex numbers or length-2/3 vectors.
    Returns (center, radius) with center an ndarray.
    """
    first = points[0]
    if isinstance(first, (complex, float, int)):
        arr = [np.array([complex(p).real, complex(p).imag]) for p in points]
    else:
        arr = [np.asarray(p, dtype=float) for p in points]
    d = len(arr[0])
    tol = 1e-12 * (1.0 + max(float(np.linalg.norm(p)) for p in arr))
    best = None
    for size in range(1, d + 2):
        for subset in combinations(arr, size):
            if size == 1:
                center, radius = subset[0], 0.0
            elif size == 2:
                center = (subset[0] + subset[1]) / 2.0
                radius = float(np.linalg.norm(subset[0] - center))
            else:
                center = _circumcenter_exact(list(subset))
                if center is None:
                    continue
                radius = max(float(np.linalg.norm(q - center)) for q in subset)
            if _covers(center, radius, arr, tol):
                if best is None or radius < best[1]:
                    best = (center, radius)
    return best


def as_vec(z):
    """Complex or vector point to an ndarray."""
    if isinstance(z, (complex, float, int)):
        z = complex(z)
        return np.array([z.real, z.imag])
    return np.asarray(z, dtype=float)


# ---------------------------------------------------------------------------
# full-scan tighten (reference)
# ---------------------------------------------------------------------------


def tighten_full_scan(ifs, b, levels):
    """``tighten`` written with a fresh array for every step and a full scan
    of every word image: word images, contraction factors, the smallest-ball
    input (a list, which min_ball copies into coordinate rows and scans in
    full) and the reach.  Returns (ball, notes)."""
    assert min(verify_containment(ifs, b)) >= -containment_tol(b.r)
    centers, factors = _word_tree_images(ifs, [b.c], levels, 10**6, rows=1)
    center_ball, _ = min_ball(list(centers))
    c_prime = center_ball.c
    diff = centers - c_prime
    reach = np.abs(diff) if ifs.dim == 2 else np.sqrt(np.square(diff).sum(axis=1))
    reach = reach + factors * b.r
    radius = float(np.max(reach))
    coarse = center_ball.r + ifs.lambda_star**levels * b.r
    notes = (f"coarse radius bound {coarse:.12g}",)
    if radius > b.r:
        return Ball(b.c, b.r), notes + ("refinement did not shrink the ball; input kept",)
    return Ball(c_prime, radius), notes
