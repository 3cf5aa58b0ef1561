"""Numerical fractal-line intersection by bounding-ball subdivision.

Starting from a verified bounding ball, the attractor is refined breadth
first through the map images; subtrees whose ball misses the line are
pruned exactly, and surviving balls of radius at most ``eps`` emit the
parameter interval of their chord on the line, widened by ``eps``.  The
merged interval list covers every attractor point on the line, and each
interval witnesses a leaf ball intersecting the line whose attractor part
passes within ``2*eps`` of it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .ifs import (
    Ball,
    IfsSystem,
    DEFAULT_NODE_BUDGET,
    point_dim,
)
from .bounds import best_bounding_ball, containment_tol, verify_containment


@dataclass(frozen=True)
class Line:
    """Infinite line ``q(t) = a + t*u`` with unit direction, t in length units."""

    a: object
    u: object

    def __post_init__(self):
        if isinstance(self.a, (complex, float, int)):
            a = complex(self.a)
            u = complex(self.u)
            norm = abs(u)
            if norm == 0.0 or not cmath.isfinite(u):
                raise ValueError("direction must be a nonzero finite vector")
            object.__setattr__(self, "a", a)
            object.__setattr__(self, "u", u / norm)
        else:
            a = np.asarray(self.a, dtype=float).copy()
            u = np.asarray(self.u, dtype=float).copy()
            if a.shape != u.shape or a.shape not in ((2,), (3,)):
                raise ValueError("anchor and direction must both be 2- or 3-vectors")
            norm = float(np.linalg.norm(u))
            if norm == 0.0 or not np.all(np.isfinite(u)):
                raise ValueError("direction must be a nonzero finite vector")
            u = u / norm
            if a.shape == (2,):
                object.__setattr__(self, "a", complex(a[0], a[1]))
                object.__setattr__(self, "u", complex(u[0], u[1]))
            else:
                a.setflags(write=False)
                u.setflags(write=False)
                object.__setattr__(self, "a", a)
                object.__setattr__(self, "u", u)

    @property
    def dim(self) -> int:
        return point_dim(self.a)

    def at(self, t: float):
        return self.a + t * self.u

    def project(self, z) -> float:
        """Parameter of the orthogonal projection of ``z`` onto the line."""
        if self.dim == 2:
            d = z - self.a
            return d.real * self.u.real + d.imag * self.u.imag
        return float(np.dot(np.asarray(z, float) - self.a, self.u))

    def distance(self, z) -> float:
        """Orthogonal distance from a point to the line."""
        t = self.project(z)
        foot = self.at(t)
        if self.dim == 2:
            return abs(z - foot)
        return float(np.linalg.norm(np.asarray(z, float) - foot))


@dataclass(frozen=True)
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


def _merge(raw: list) -> tuple:
    """Merge overlapping intervals; each merged hit keeps the word of its
    earliest contributing leaf."""
    raw.sort(key=lambda h: (h.t_lo, h.t_hi))
    merged: list = []
    for h in raw:
        if merged and h.t_lo <= merged[-1].t_hi:
            last = merged[-1]
            if h.t_hi > last.t_hi:
                merged[-1] = HitInterval(last.t_lo, h.t_hi, last.word, last.depth)
        else:
            merged.append(h)
    return tuple(merged)


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
    truncated, preserving completeness at lower resolution.
    """
    if not eps > 0.0:  # also rejects NaN
        raise ValueError("eps must be positive")
    if bound is None:
        bound = best_bounding_ball(ifs).ball
    if bound.dim != ifs.dim or line.dim != ifs.dim:
        raise ValueError("dimension mismatch between system, line, and bound")
    slack = verify_containment(ifs, bound)
    if min(slack) < -containment_tol(bound.r):
        raise ValueError("bound is not a verified bounding ball")

    def leaf_interval(word, center, radius) -> HitInterval:
        t0 = line.project(center)
        d = line.distance(center)
        h = math.sqrt(max(0.0, radius * radius - d * d))
        return HitInterval(t0 - h - eps, t0 + h + eps, word, len(word))

    # Each node carries its composed map T_w as an affine pair so children
    # extend the word on the right: the child ball T_w(T_k(B)) nests inside
    # the parent ball T_w(B) because T_k(B) is inside B, which is what makes
    # pruning a node discard exactly its own subtree of the attractor.
    n = ifs.n
    out: list = []
    truncated = False
    visited = 1
    if ifs.dim == 2:
        # T_w(z) = shift + factor * z
        offsets = [(1.0 - m.phi) * m.p for m in ifs.maps]
        phis = [m.phi for m in ifs.maps]
        frontier = [((), 0.0 + 0.0j, 1.0 + 0.0j)]

        def node_ball(shift, factor):
            return shift + factor * bound.c, abs(factor) * bound.r

        def children(word, shift, factor):
            return [
                (word + (k,), shift + factor * offsets[k - 1], factor * phis[k - 1])
                for k in range(1, n + 1)
            ]

    else:
        # T_w(z) = shift + scale * rot @ z
        offsets = [m.p - m.lam * (m.rot @ m.p) for m in ifs.maps]
        rots = [m.rot for m in ifs.maps]
        lams = [m.lam for m in ifs.maps]
        frontier = [((), np.zeros(3), 1.0, np.eye(3))]

        def node_ball(shift, scale, rot):
            return shift + scale * (rot @ bound.c), scale * bound.r

        def children(word, shift, scale, rot):
            return [
                (
                    word + (k,),
                    shift + scale * (rot @ offsets[k - 1]),
                    scale * lams[k - 1],
                    rot @ rots[k - 1],
                )
                for k in range(1, n + 1)
            ]

    while frontier:
        survivors = []
        for node in frontier:
            center, radius = node_ball(*node[1:])
            if line.distance(center) - radius <= 0.0:
                survivors.append((node, center, radius))
        pending = []
        for node, center, radius in survivors:
            if radius <= eps:
                out.append(leaf_interval(node[0], center, radius))
            else:
                pending.append((node, center, radius))
        if not pending:
            break
        if visited + n * len(pending) > budget:
            truncated = True
            out.extend(
                leaf_interval(node[0], center, radius)
                for node, center, radius in pending
            )
            break
        visited += n * len(pending)
        frontier = [child for node, _, _ in pending for child in children(*node)]
    return LineIntersection(intervals=_merge(out), truncated=truncated)
