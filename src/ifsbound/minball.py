"""Exact smallest enclosing circle (2D) and sphere (3D) of finite point sets.

One d-generic pivoting solver serves both dimensions (after Gärtner, "Fast
and Robust Smallest Enclosing Balls", ESA 1999): the ball is spanned by at
most d+1 support points, and each step adds the point farthest from the
center, found by one vectorised distance pass, then solves that small set
exactly.  The radius grows with every step; the loop ends when no point is
outside or the radius stops growing in floating point (then the last pivot's
center is kept if it covers every point more tightly).  A caller that knows
a ball around each contiguous block of points, centered on its first point
(``tighten`` does, for its word tree), can let the pass skip the blocks that
cannot hold the farthest point (the culling of Hart and DeFanti, SIGGRAPH
1991); the point found and its distance are the same floats.  Point sets
whose extent along an axis lies beyond 2^500 or below 2^-400 are solved
scaled by a power of two, so no square overflows or underflows (a caller
that gives blocks has scaled its points itself).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations

import numpy as np

from .ifs import Ball, _point_of, _rows

# an edge whose part off the span of the earlier edges is below this
# fraction of its length counts as degenerate (flat simplex)
_RCOND = 1e-7


@dataclass(frozen=True)
class SupportSet:
    """Boundary points certifying the minimal ball, with input indices."""

    points: tuple
    indices: tuple


# up to this many points (and no blocks), the passes run in Python floats:
# a NumPy call costs more than a short loop
_FLOATS_UP_TO = 64

# spreads solved as given: no squared distance overflows, and none
# underflows below the normal range (a spread of one ulp at 2^-400 squares
# to 2^-904); outside it the points are scaled by a power of two, which is
# exact
_IN_RANGE = (2.0**-400, 2.0**500)


def _exponent(spread: float, size: float) -> int:
    """The binary exponent ``e`` at which points of extent ``spread`` and
    largest magnitude ``size`` are solved, scaled by ``2**-e``: 0 when the
    spread is 0 or within ``_IN_RANGE``, else that of the spread, raised
    where needed so that no scaled magnitude passes 2^1023."""
    if spread == 0.0 or _IN_RANGE[0] <= spread <= _IN_RANGE[1]:
        return 0
    return max(math.frexp(spread)[1], math.frexp(size)[1] - 1023)


def _coordinates(points, framed: bool = False) -> tuple:
    """Points as a ``(d, N)`` float array, one row per axis (a view of array
    input); the points to solve on, scaled by ``2**-e``: up to 64 as float
    triples (see :func:`_point`), more as a contiguous copy of the rows, and
    ``framed`` ones (in a caller's frame) as the view, with ``e = 0``; and
    the exponent ``e`` that :func:`_exponent` gives the largest half-extent
    along an axis, measured on those rows, and the largest magnitude."""
    cols = _rows(points if isinstance(points, np.ndarray) else list(points)).T
    count = cols.shape[1]
    if count == 0:
        raise ValueError("min_ball needs at least one point")
    # two reductions without a temporary array: faster than np.isfinite
    # (ndarray methods: np.max and np.min cost microseconds of dispatch)
    hi, lo = float(cols.max()), float(cols.min())
    if not (hi < math.inf and lo > -math.inf):  # NaN fails both
        raise ValueError("non-finite coordinate")
    if framed:
        return cols, cols, 0
    size = max(hi, -lo)
    # half-extents: a full extent of points near +-2^1024 overflows
    if count <= _FLOATS_UP_TO:
        rows = cols.tolist()
        e = _exponent(max(max(r) / 2 - min(r) / 2 for r in rows), size)
        if e:
            rows = [[math.ldexp(x, -e) for x in r] for r in rows]
        return cols, [(*p, 0.0)[:3] for p in zip(*rows)], e
    # strided rows of a view cost the passes more than a copy
    work = np.ascontiguousarray(cols)
    e = _exponent(max(float(r.max()) / 2 - float(r.min()) / 2 for r in work), size)
    return cols, np.ldexp(work, -e) if e else work, e


def _ball(c, r: float, e: int, d: int) -> Ball:
    """The ball ``(c, r)`` solved at exponent ``e``, scaled back (exactly)."""
    return Ball(_point_of([math.ldexp(x, e) for x in c[:d]]), math.ldexp(r, e))


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
    the true ball; ties go to the first subset."""
    best = None
    for sub, c, _ in _centers(q, d):
        reach = _farthest_floats(q, c)[1]
        if best is None or reach < best[1]:
            best = c, reach, sorted(sub)
    return best


def _dist2(cols: np.ndarray, c, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Squared distances of the points ``cols`` (one row per axis) from
    ``c``, in ``out``.  Only correctly rounded steps, so each value is the
    same float whichever array it is computed in."""
    np.square(np.subtract(cols[0], c[0], out=out), out=out)
    for row, ci in zip(cols[1:], c[1:]):
        np.add(out, np.square(np.subtract(row, ci, out=tmp), out=tmp), out=out)
    return out


def _gather(a: np.ndarray, near: np.ndarray, size: int) -> np.ndarray:
    """The blocks ``near`` of ``size`` consecutive entries along the last axis of ``a``."""
    blocks = a.reshape(*a.shape[:-1], -1, size)
    # np.take copies a strided array whole first; indexing is slower on a contiguous one
    rows = np.take(blocks, near, axis=-2) if a.flags.c_contiguous else blocks[..., near, :]
    return rows.reshape(*a.shape[:-1], -1)


def _near(first: np.ndarray, radii) -> np.ndarray:
    """Indices of the blocks v that can hold the largest value when each
    value of v is at most ``first[v] + radii[v]``, ``first[v]`` among them:
    those reaching ``first.max()``.  A NaN or an inf keeps its block."""
    # ndarray methods: np.max and friends cost microseconds of dispatch
    return (~(first + radii < first.max())).nonzero()[0]


def _farthest(cols: np.ndarray, c, d2: np.ndarray, tmp: np.ndarray, radii):
    """Index and squared distance of the point farthest from ``c``, the
    first on ties.  ``radii``, if given, splits the points into equal
    contiguous blocks, each within its radius of its first point.  The
    farthest distance is at least the largest one of the first points;
    only the :func:`_near` blocks are gathered (in index order) and
    scanned, so the result is the one of a full scan."""
    if radii is None:
        k = int(_dist2(cols, c, d2, tmp).argmax())
        return k, d2[k]
    nb = len(radii)
    size = cols.shape[1] // nb
    near = _near(np.sqrt(_dist2(cols[:, ::size], c, d2[:nb], tmp[:nb]), out=d2[:nb]), radii)
    rows = _gather(cols, near, size)
    j = int(_dist2(rows, c, d2[: rows.shape[1]], tmp[: rows.shape[1]]).argmax())
    return int(near[j // size]) * size + j % size, d2[j]


def _farthest_floats(pts: list, c) -> tuple:
    """:func:`_farthest` over points given as float triples: the same
    correctly rounded steps in Python floats (a plane point's ``z = 0`` adds
    an exact zero)."""
    cx, cy, cz = c
    k, far2 = 0, -1.0
    for i, (x, y, z) in enumerate(pts):
        dx, dy, dz = x - cx, y - cy, z - cz
        s = dx * dx + dy * dy + dz * dz
        if s > far2:  # the first on ties, as argmax
            k, far2 = i, s
    return k, far2


def min_ball(points, *, _blocks=None) -> tuple:
    """Smallest enclosing ball of a nonempty point set.

    Returns ``(Ball, SupportSet)``.  Accepts complex numbers, ``(x, y)``
    pairs, ``(x, y, z)`` triples, a complex 1-D array or an ``(N, 2|3)``
    array; plane results use complex centers and points.  Pivoting starts
    from the first point and always takes the farthest point (the first one
    on ties): nothing is random, so repeated calls are bit-for-bit identical.
    Support indices come sorted.  The radius is the largest distance from
    the center to any input point, so every point is covered.  Each pivot
    step reads every point once, or, with the private ``_blocks``, an array
    of radii that splits the points into equal contiguous blocks, each
    within its radius of its first point, only the first points and the
    blocks that can hold the farthest point; the result is the same either
    way.  The passes read up to 64 points as Python floats, more as one
    row per axis: a contiguous copy of the coordinates, or with blocks a
    view of array input, solved as given (``tighten`` has scaled it); each
    path forms the same correctly rounded operations, so the result is the
    same bit for bit.
    """
    cols, work, e = _coordinates(points, _blocks is not None)
    d, count = cols.shape
    if isinstance(work, list):
        farthest, point = partial(_farthest_floats, work), work.__getitem__
    else:
        d2, tmp = np.empty((2, count))  # reused: fresh large arrays page-fault

        def farthest(c):
            return _farthest(work, c, d2, tmp, _blocks)

        point = partial(_point, work)

    support, c, r2 = [0], point(0), 0.0
    while True:
        k, far2 = farthest(c)
        if far2 <= r2:
            break
        ids = support + [k]
        center, reach, members = _pivot([point(i) for i in ids], d)
        if reach <= r2:
            # no growth in floating point: the pivot's center may still
            # cover every point more tightly than the last one
            _, cover2 = farthest(center)
            if cover2 < far2:
                support, c, far2 = [ids[i] for i in members], center, cover2
            break
        support, c, r2 = [ids[i] for i in members], center, reach
    support.sort()
    ball = _ball(c, math.sqrt(far2), e, d)
    points_out = tuple(_point_of(cols[:, i].tolist()) for i in support)
    return ball, SupportSet(points=points_out, indices=tuple(support))


def ball_from_support(points) -> Ball:
    """Exact ball through 1..d+1 boundary points.

    One point gives radius zero, two the diametral ball, three (2D) or four
    (3D) the circumball.  Degenerate inputs (collinear, coplanar) fall back
    to the smallest ball covering the points, so the function is total.
    """
    cols, q, e = _coordinates(points)
    d, k = cols.shape
    if k > d + 1:
        raise ValueError(f"at most {d + 1} support points in {d}D, got {k}")
    *_, (_, c, rank) = _centers(q, d)
    if rank < k - 1:
        return min_ball(cols.T)[0]
    return _ball(c, math.sqrt(_farthest_floats(q, c)[1]), e, d)
