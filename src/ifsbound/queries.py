"""Numerical fractal-line intersection by bounding-ball subdivision.

Starting from a verified bounding ball, the attractor is refined breadth
first through the map images; a subtree is pruned when its ball misses the
line by more than the rounding allowance, and surviving balls of radius at
most ``eps``, grown by the allowance, emit their chord on the line widened
by ``eps``.  The merged interval list covers every attractor point on the
line, and each interval witnesses a leaf ball whose attractor part passes
within ``2*eps`` of the line, plus the allowance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ifs import (
    Ball,
    IfsSystem,
    DEFAULT_NODE_BUDGET,
    _allowance,
    _as_direction,
    _as_point,
    _coords,
    _rows,
    dist,
    point_dim,
)
# verify_containment stays a name here: bench/tracer.py wraps it at each lookup site
from .bounds import _certified, best_bounding_ball, verify_containment  # noqa: F401


@dataclass(frozen=True)
class Line:
    """Infinite line ``q(t) = a + t*u`` with unit direction, t in length units."""

    a: object
    u: object

    def __post_init__(self):
        a = _as_point(self.a, name="anchor")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "u", _as_direction(self.u, point_dim(a)))

    @property
    def dim(self) -> int:
        return point_dim(self.a)

    def at(self, t: float):
        return self.a + t * self.u

    def project(self, z) -> float:
        """Parameter of the orthogonal projection of ``z`` onto the line."""
        # kept per layout: a complex dot and np.dot round apart
        if self.dim == 2:
            d = z - self.a
            return d.real * self.u.real + d.imag * self.u.imag
        return float(np.dot(np.asarray(z, float) - self.a, self.u))

    def distance(self, z) -> float:
        """Orthogonal distance from a point to the line."""
        return dist(z, self.at(self.project(z)))


@dataclass(frozen=True, slots=True)
class HitInterval:
    """Line-parameter interval near the attractor, tagged with the leaf word."""

    t_lo: float
    t_hi: float
    word: tuple
    depth: int

    def __post_init__(self):
        if self.t_lo > self.t_hi:
            raise ValueError("t_lo must not exceed t_hi")


@dataclass(frozen=True)
class LineIntersection:
    """Sorted merged hit intervals; ``truncated`` marks a budget cutoff."""

    intervals: tuple
    truncated: bool


def line_ball_distance(line: Line, b: Ball) -> float:
    """Gap between a line and a closed ball: zero exactly when they meet."""
    if line.dim != b.dim:
        raise ValueError("line and ball dimensions differ")
    return max(0.0, line.distance(b.c) - b.r)


def _merge(t_lo: np.ndarray, t_hi: np.ndarray, words: list) -> tuple:
    """Merge overlapping intervals, given in emission order with ``words``
    holding one word array per emitted block; each merged hit keeps the word
    of its earliest contributing leaf (``lexsort`` is stable)."""
    if not len(t_lo):
        return ()
    order = np.lexsort((t_hi, t_lo))
    t_lo, reach = t_lo[order], np.maximum.accumulate(t_hi[order])
    first = np.flatnonzero(np.concatenate(([True], t_lo[1:] > reach[:-1])))
    last = np.append(first[1:], len(order)) - 1
    starts = np.cumsum([0] + [len(w) for w in words[:-1]])
    block = np.searchsorted(starts, order[first], side="right") - 1
    row = order[first] - starts[block]
    return tuple(
        HitInterval(lo, hi, tuple(words[b][r].tolist()), words[b].shape[1])
        for lo, hi, b, r in zip(
            t_lo[first].tolist(), reach[last].tolist(), block.tolist(), row.tolist()
        )
    )


def intersect_line(
    ifs: IfsSystem,
    line: Line,
    eps: float,
    bound: Ball | None = None,
    budget: int = DEFAULT_NODE_BUDGET,
) -> LineIntersection:
    """Intervals of line parameters where the line meets the attractor.

    ``bound`` must be a verified bounding ball (defaults to the best one
    the bounds module produces).  Subdivision is breadth first so that a
    budget cutoff corresponds to one uniform resolution level; on cutoff
    the surviving frontier is emitted as-is and the result is flagged
    truncated, preserving completeness at lower resolution.  Nodes are kept,
    and chords taken, up to the rounding allowance ``tighten`` uses, so a
    line tangent to ``bound`` where the attractor touches it keeps that hit.
    """
    if not eps > 0.0:  # also rejects NaN
        raise ValueError("eps must be positive")
    if bound is None:
        bound = best_bounding_ball(ifs).ball
    if line.dim != ifs.dim:
        raise ValueError("system and line dimensions differ")
    slack, verified = _certified(ifs, bound)
    if not verified:
        raise ValueError(f"bound is not a verified bounding ball (min slack {min(slack):.3e})")

    # The frontier holds one level of nodes, each with its composed map
    # T_w(z) = shift + lin @ z, its factor and its word.  Children extend the
    # word on the right: the child ball T_w(T_k(B)) nests inside T_w(B)
    # because T_k(B) is inside B, so pruning a node discards exactly its own
    # subtree.  A plane phi acts as [[re, -im], [im, re]].  The nodes lie in
    # B and their foot points within |c - a| + r of a: size bounds them all.
    n, dim = ifs.n, ifs.dim
    if dim == 2:
        lins = np.array([[[m.phi.real, -m.phi.imag], [m.phi.imag, m.phi.real]] for m in ifs.maps])
    else:
        lins = np.array([m.lam * m.rot for m in ifs.maps])
    lams = np.array([m.lam for m in ifs.maps])
    offsets = (np.eye(dim) - lins) @ _rows(ifs.fixed_points)[..., None]
    c, a, u = _coords(bound.c), _coords(line.a), _coords(line.u)
    size = float(np.abs(c).sum() + np.abs(a).sum()) + 2.0 * bound.r
    keys = np.arange(1, n + 1, dtype=np.min_scalar_type(n))
    shift, lin, factor, words = np.zeros((1, dim)), np.eye(dim)[None], np.ones(1), keys[None, :0]
    kept, emitted = [], []  # per level: the (t0, gap, radius) rows and words of emitted nodes
    visited = 1
    while True:
        allow = _allowance(words.shape[1], size)
        center = shift + lin @ c
        radius = factor * bound.r
        t0 = (center - a) @ u
        gap = np.hypot.reduce(center - (a + t0[:, None] * u), axis=1)
        hit = gap - radius <= allow
        pending = hit & (radius > eps)
        count = int(np.count_nonzero(pending))
        truncated = visited + n * count > budget
        keep = hit & ~pending
        if truncated:  # leaves first, then the unexpanded nodes of this level
            keep = np.concatenate((np.flatnonzero(keep), np.flatnonzero(pending)))
        kept.append(np.array((t0, gap, radius + allow))[:, keep])
        emitted.append(words[keep])
        if not count or truncated:
            break
        visited += n * count
        lin = lin[pending, None]
        shift = (shift[pending, None] + (lin @ offsets)[..., 0]).reshape(-1, dim)
        lin = (lin @ lins).reshape(-1, dim, dim)
        factor = (factor[pending, None] * lams).ravel()
        words = np.column_stack((np.repeat(words[pending], n, axis=0), np.tile(keys, count)))
    t0, gap, radius = np.concatenate(kept, axis=1)
    h = np.sqrt(np.maximum(0.0, radius * radius - gap * gap))
    return LineIntersection(
        intervals=_merge(t0 - h - eps, t0 + h + eps, emitted), truncated=truncated
    )
