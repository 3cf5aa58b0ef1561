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
from ifsbound import minball
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
    centers, factors = _word_tree_images(ifs, [b.c], levels, 10**6, factors=True)
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


# ---------------------------------------------------------------------------
# reference forms of the fast paths (each must give the same bits)
# ---------------------------------------------------------------------------


def word_tree_reference(ifs, starts, levels):
    """Word images and contraction factors, each level filled by whole
    NumPy broadcasts: ``(N, 3)`` rows minus and plus the fixed point as a
    row vector in 3D, complex arithmetic in 2D."""
    pts = np.asarray(list(starts)) if ifs.dim == 2 else np.array([np.asarray(s, float) for s in starts])
    factors = np.ones(len(pts))
    for _ in range(levels):
        images, lams = [], []
        for m in ifs.maps:
            if ifs.dim == 2:
                # in place, phi first: NumPy's complex multiply rounds apart
                # between in-place and fresh output (seen on AVX-512)
                lin = pts - m.p
                np.multiply(m.phi, lin, out=lin)
            else:
                lin = ((pts - m.p) @ m.rot.T) * m.lam
            images.append(lin + m.p)
            lams.append(factors * m.lam)
        pts, factors = np.concatenate(images), np.concatenate(lams)
    return pts, factors


def norms_reference(diff):
    """Point lengths: ``np.abs`` in 2D, ``.sum(axis=1)`` of the squares in 3D."""
    if diff.ndim == 1:
        return np.abs(diff)
    return np.sqrt(np.square(diff).sum(axis=1))


def dist_reference(a, b):
    """A 3D distance through ``np.linalg.norm``."""
    return float(np.linalg.norm(np.asarray(a, float) - np.asarray(b, float)))


def _pivot_reference(q, d):
    """``minball._pivot`` scoring with one ``max()`` call per point."""
    best = None
    for sub, (cx, cy, cz), _ in minball._centers(q, d):
        reach = 0.0
        for x, y, z in reversed(q):
            dx, dy, dz = x - cx, y - cy, z - cz
            reach = max(reach, dx * dx + dy * dy + dz * dz)
            if best is not None and reach >= best[1]:
                break
        else:
            best = (cx, cy, cz), reach, sorted(sub)
    return best


def min_ball_reference(points):
    """``min_ball`` as the NumPy pivot loop over every input size: each
    step's farthest point comes from a distance pass over the coordinate
    view, and the ball and support points go through NumPy vectors.
    Returns (center coordinates, radius, support indices, support point
    coordinates)."""
    cols, work, e = minball._coordinates(points)
    d = len(cols)
    d2, tmp = np.empty((2, cols.shape[1]))
    support, c, r2 = [0], minball._point(work, 0), 0.0
    while True:
        k, far2 = minball._farthest(work, c, d2, tmp, None)
        if far2 <= r2:
            break
        ids = support + [k]
        center, reach, members = _pivot_reference([minball._point(work, i) for i in ids], d)
        if reach <= r2:
            _, cover2 = minball._farthest(work, center, d2, tmp, None)
            if cover2 < far2:
                support, c, far2 = [ids[i] for i in members], center, cover2
            break
        support, c, r2 = [ids[i] for i in members], center, reach
    support.sort()
    center = np.ldexp(np.array(c[:d]), e)
    return center, math.ldexp(math.sqrt(far2), e), tuple(support), [cols[:, i].copy() for i in support]
