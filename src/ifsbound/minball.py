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

from .ifs import Ball, IfsSystem, dist

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
    """Points as a ``(d, N)`` float array: one row per axis makes the
    distance pass over all points several times faster than ``(N, d)``."""
    items = points if isinstance(points, np.ndarray) else list(points)
    if len(items) == 0:
        raise ValueError("min_ball needs at least one point")
    if isinstance(items[0], (complex, float, int)):
        z = np.asarray(items, dtype=complex)
        if z.ndim != 1:
            raise ValueError("bad 2D coordinate")
        cols = np.stack([z.real, z.imag])
    else:
        arr = np.asarray(items, dtype=float)
        if arr.ndim != 2 or arr.shape[1] not in (2, 3):
            raise ValueError(f"points must be 2D or 3D, got shape {arr.shape[1:]}")
        cols = np.ascontiguousarray(arr.T)
    if not np.all(np.isfinite(cols)):
        raise ValueError("non-finite coordinate")
    return cols


def _circumcenters(q: np.ndarray, idx: np.ndarray):
    """Center of the ball through each subset ``q[idx[j]]`` (d+1 indices; a
    smaller subset repeats its first), in the subset's affine hull, and the
    rank of its edges ``v_i = q_i - q_0``.  The offset ``x`` solves
    ``v_i . x = |v_i|^2 / 2`` over a modified Gram-Schmidt basis of the
    edges, for all subsets at once; an edge within ``_RCOND`` of the span
    of the earlier ones is dropped, so degenerate subsets stay finite."""
    base = q[idx[:, 0]]
    v = q[idx[:, 1:]] - base[:, None, :]
    length2 = np.einsum("sij,sij->si", v, v)
    x = np.zeros_like(base)
    basis, rank = [], 0
    for i in range(q.shape[1]):
        edge = v[:, i]
        w = edge.copy()
        for e in basis:
            w -= (w * e).sum(axis=1)[:, None] * e
        norm = np.sqrt((w * w).sum(axis=1))
        ok = norm * norm > _RCOND**2 * length2[:, i]
        inv = ok / np.where(ok, norm, 1.0)
        e = w * inv[:, None]
        # edge . e = norm, so this step makes edge . x = |edge|^2 / 2
        x += ((0.5 * length2[:, i] - (edge * x).sum(axis=1)) * inv)[:, None] * e
        basis.append(e)
        rank = rank + ok
    centers = base + x
    # a pair gets its exact midpoint, as the mean of two points does, so
    # that center strategies which agree in exact arithmetic tie exactly
    pair = np.count_nonzero(idx[:, 1:] != idx[:, :1], axis=1) == 1
    centers[pair] = (base[pair] + q[idx[pair, 1]]) / 2.0
    return centers, rank


@lru_cache(maxsize=None)
def _subsets(d: int, size: int) -> np.ndarray:
    """Index rows of every subset of ``range(size)`` that holds the last
    index and at most d others, smallest subsets first (the full set last
    when size <= d+1)."""
    last = size - 1
    rows = [
        [last, *others] + [last] * (d - len(others))
        for m in range(min(d, last) + 1)
        for others in combinations(range(last), m)
    ]
    idx = np.array(rows, dtype=np.intp)
    idx.setflags(write=False)
    return idx


def _pivot(q: np.ndarray):
    """Smallest ball of ``q`` with the last point on its boundary: center,
    squared radius and support indices.  Each candidate is scored by its
    covering radius of all of ``q``, so no degenerate subset can undercut
    the true ball; ties go to the smallest subset."""
    idx = _subsets(q.shape[1], len(q))
    centers, _ = _circumcenters(q, idx)
    diff = q[None, :, :] - centers[:, None, :]
    reach = np.einsum("sij,sij->si", diff, diff).max(axis=1)
    j = int(np.argmin(reach))
    return centers[j], float(reach[j]), sorted(set(idx[j].tolist()))


def _native(c: np.ndarray):
    """A complex number for a plane point, a 3-vector for a space point."""
    return complex(c[0], c[1]) if len(c) == 2 else c.copy()


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
    support, c, r2 = [0], cols[:, 0], 0.0
    while True:
        d2 = (cols[0] - c[0]) ** 2
        for axis in range(1, len(cols)):
            d2 += (cols[axis] - c[axis]) ** 2
        k = int(np.argmax(d2))
        if d2[k] <= r2:
            break
        ids = support + [k]
        center, reach, members = _pivot(cols[:, ids].T)
        if reach <= r2:
            break
        support, c, r2 = [ids[i] for i in members], center, reach
    support.sort()
    ball = Ball(_native(c), math.sqrt(d2[k]))
    points_out = tuple(_native(cols[:, i]) for i in support)
    return ball, SupportSet(points=points_out, indices=tuple(support))


def ball_from_support(points) -> Ball:
    """Exact ball through 1..d+1 boundary points.

    One point gives radius zero, two the diametral ball, three (2D) or four
    (3D) the circumball.  Degenerate inputs (collinear, coplanar) fall back
    to the smallest ball covering the points, so the function is total.
    """
    arr = _coordinates(points).T
    k, d = arr.shape
    if k > d + 1:
        raise ValueError(f"at most {d + 1} support points in {d}D, got {k}")
    centers, rank = _circumcenters(arr, _subsets(d, k)[-1:])
    if rank[0] < k - 1:
        return min_ball(arr)[0]
    c = centers[0]
    return Ball(_native(c), float(np.max(np.linalg.norm(arr - c, axis=1))))
