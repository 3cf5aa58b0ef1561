"""Exact smallest enclosing circle (2D) and sphere (3D) of finite point sets.

One d-generic pivoting solver serves both dimensions (after Gärtner, "Fast
and Robust Smallest Enclosing Balls", ESA 1999): the ball is spanned by at
most d+1 support points, and each step adds the point farthest from the
center, found by one vectorised distance pass, then solves that small set
exactly.  The radius grows with every step; the loop ends when no point is
outside or the radius stops growing in floating point.

Also hosts the radius function of an IFS: the distance from a query point
to its farthest fixed point, the smallest covering radius centered there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .ifs import Ball, IfsSystem, _as_point, _rows, dist

# an edge whose part off the span of the earlier edges is below this
# fraction of its length counts as degenerate (flat simplex)
_RCOND = 1e-7


@dataclass(frozen=True)
class SupportSet:
    """Boundary points certifying the minimal ball, with input indices."""

    points: tuple
    indices: tuple


def radius_function(ifs: IfsSystem, z) -> float:
    """Largest distance from ``z`` to a fixed point of the system."""
    return max(dist(p, z) for p in ifs.fixed_points)


def _coordinates(points) -> np.ndarray:
    """Points as a ``(d, N)`` float array, one row per axis.  Array input is
    read through a view, never copied (a fresh copy of a large array costs
    more in page faults than its strided rows cost the distance pass)."""
    cols = _rows(points if isinstance(points, np.ndarray) else list(points)).T
    if cols.shape[1] == 0:
        raise ValueError("min_ball needs at least one point")
    if not np.all(np.isfinite(cols)):
        raise ValueError("non-finite coordinate")
    return cols


def _point(cols: np.ndarray, i: int) -> tuple:
    """Point ``i`` as ``(x, y, z)``; ``z = 0`` for a plane point keeps every
    sum the kernel forms exact, so one kernel serves both dimensions."""
    return (*cols[:, i].tolist(), 0.0)[:3]


@lru_cache(maxsize=None)
def _subsets(d: int, size: int) -> tuple:
    """Every subset of ``range(size)`` that holds the last index, led by it,
    and at most d others; smallest first (all of them last if size <= d+1)."""
    last = size - 1
    others = (o for m in range(min(d, last) + 1) for o in combinations(range(last), m))
    return tuple((last, *o) for o in others)


def _centers(q, d: int):
    """Center (in the affine hull) and edge rank of each ``_subsets`` subset
    of the points ``q`` (see :func:`_point`).  The offset ``x`` from the last
    point solves ``v . x = |v|^2 / 2`` for its edges ``v`` over a modified
    Gram-Schmidt basis, built from the prefix's basis plus one edge; an edge
    within ``_RCOND`` of the earlier span is dropped, so degenerate subsets
    stay finite.  A pair gets its exact midpoint, as the mean of two points
    does, so center strategies that agree in exact arithmetic tie exactly."""
    bx, by, bz = q[-1]
    edges = [(x - bx, y - by, z - bz) for x, y, z in q]
    state = {(): ((), (0.0, 0.0, 0.0))}
    for sub in _subsets(d, len(q)):
        basis, (x0, x1, x2) = state[sub[:-1]]
        vx, vy, vz = edges[sub[-1]]
        length2 = vx * vx + vy * vy + vz * vz
        wx, wy, wz = vx, vy, vz
        for ex, ey, ez in basis:
            t = wx * ex + wy * ey + wz * ez
            wx, wy, wz = wx - t * ex, wy - t * ey, wz - t * ez
        norm = math.sqrt(wx * wx + wy * wy + wz * wz)
        if norm * norm > _RCOND**2 * length2:
            inv = 1.0 / norm
            ex, ey, ez = wx * inv, wy * inv, wz * inv
            # v . e = norm, so this step makes v . x = |v|^2 / 2
            s = (0.5 * length2 - (vx * x0 + vy * x1 + vz * x2)) * inv
            x0, x1, x2 = x0 + s * ex, x1 + s * ey, x2 + s * ez
            basis += ((ex, ey, ez),)
        state[sub] = basis, (x0, x1, x2)
        if len(sub) == 2:
            yield sub, tuple((a + b) / 2.0 for a, b in zip(q[-1], q[sub[1]])), len(basis)
        else:
            yield sub, (bx + x0, by + x1, bz + x2), len(basis)


def _pivot(q, d: int):
    """Smallest ball of ``q`` with the last point on its boundary: center,
    squared radius and support indices.  Each candidate is scored by its
    covering radius of all of ``q``, so no degenerate subset can undercut
    the true ball; ties go to the first subset.  Scoring stops once a
    candidate reaches the best score, as it can then no longer win."""
    best = None
    for sub, (cx, cy, cz), _ in _centers(q, d):
        reach = 0.0
        for x, y, z in reversed(q):  # q[-1] first: the candidate's own radius
            dx, dy, dz = x - cx, y - cy, z - cz
            reach = max(reach, dx * dx + dy * dy + dz * dz)
            if best is not None and reach >= best[1]:
                break
        else:
            best = (cx, cy, cz), reach, sorted(sub)
    return best


def min_ball(points) -> tuple:
    """Smallest enclosing ball of a nonempty point set.

    Returns ``(Ball, SupportSet)``.  Accepts complex numbers, ``(x, y)``
    pairs, ``(x, y, z)`` triples, a complex 1-D array or an ``(N, 2|3)``
    array; plane results use complex centers and points.  Pivoting starts
    from the first point and always takes the farthest point (the first one
    on ties): nothing is random, so repeated calls are bit-for-bit identical.
    Support indices come sorted.  The radius is the largest distance from
    the center to any input point, so every point is covered.
    """
    cols = _coordinates(points)
    d = len(cols)
    d2, tmp = np.empty((2, cols.shape[1]))  # reused: fresh large arrays page-fault
    support, c, r2 = [0], _point(cols, 0), 0.0
    while True:
        np.square(np.subtract(cols[0], c[0], out=d2), out=d2)
        for row, ci in zip(cols[1:], c[1:]):
            np.add(d2, np.square(np.subtract(row, ci, out=tmp), out=tmp), out=d2)
        k = int(np.argmax(d2))
        if d2[k] <= r2:
            break
        ids = support + [k]
        center, reach, members = _pivot([_point(cols, i) for i in ids], d)
        if reach <= r2:
            break
        support, c, r2 = [ids[i] for i in members], center, reach
    support.sort()
    ball = Ball(c[:d], math.sqrt(d2[k]))
    points_out = tuple(_as_point(cols[:, i]) for i in support)
    return ball, SupportSet(points=points_out, indices=tuple(support))


def ball_from_support(points) -> Ball:
    """Exact ball through 1..d+1 boundary points.

    One point gives radius zero, two the diametral ball, three (2D) or four
    (3D) the circumball.  Degenerate inputs (collinear, coplanar) fall back
    to the smallest ball covering the points, so the function is total.
    """
    cols = _coordinates(points)
    d, k = cols.shape
    if k > d + 1:
        raise ValueError(f"at most {d + 1} support points in {d}D, got {k}")
    *_, (_, c, rank) = _centers([_point(cols, i) for i in range(k)], d)
    if rank < k - 1:
        return min_ball(cols.T)[0]
    return Ball(c[:d], float(np.max(np.linalg.norm(cols.T - c[:d], axis=1))))
