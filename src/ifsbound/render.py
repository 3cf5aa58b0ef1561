"""Deterministic SVG emission of point clouds, circles, lines, and labels.

Plane scenes only.  Output is byte-stable for identical input: layers keep
their order, numbers use 9 significant digits, and the world-to-canvas
transform is a uniform scale with a y flip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ifs import Ball, _as_point, _rows
from .queries import Line

CIRCUM_COLOR = "#d62728"  # circumcircles render red
GENERAL_COLOR = "#1f77b4"  # general bounding circles render blue


@dataclass(frozen=True)
class PointCloud:
    points: tuple
    radius_px: float = 1.0
    color: str = "#202020"

    def __post_init__(self):
        rows = _rows(self.points)
        if rows.shape[1] != 2 or not np.isfinite(rows).all():
            raise ValueError("a point cloud holds finite plane points")
        object.__setattr__(self, "points", tuple(map(complex, *rows.T.tolist())))


@dataclass(frozen=True)
class CircleOutline:
    ball: Ball
    color: str = GENERAL_COLOR
    width_px: float = 1.5


@dataclass(frozen=True)
class LineSegment:
    line: Line
    color: str = "#444444"
    width_px: float = 1.0


@dataclass(frozen=True)
class Label:
    text: str
    anchor: complex
    color: str = "#000000"
    size_px: float = 12.0

    def __post_init__(self):
        object.__setattr__(self, "anchor", _as_point(self.anchor, 2, "anchor"))


@dataclass(frozen=True)
class Viewport:
    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self):
        if not (self.xmax > self.xmin and self.ymax > self.ymin):
            raise ValueError("viewport must have positive area")

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin


@dataclass(frozen=True)
class Scene:
    layers: tuple
    canvas: tuple = (800, 800)
    viewport: Viewport | None = None

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        w, h = self.canvas
        if w <= 0 or h <= 0:
            raise ValueError("canvas dimensions must be positive")


def _extent(layer):
    """(xmin, ymin, xmax, ymax) of a layer, or None for unbounded layers."""
    if isinstance(layer, PointCloud):
        if not layer.points:
            return None
        xs = [p.real for p in layer.points]
        ys = [p.imag for p in layer.points]
        return min(xs), min(ys), max(xs), max(ys)
    if isinstance(layer, CircleOutline):
        c, r = layer.ball.c, layer.ball.r
        return c.real - r, c.imag - r, c.real + r, c.imag + r
    if isinstance(layer, Label):
        return layer.anchor.real, layer.anchor.imag, layer.anchor.real, layer.anchor.imag
    return None  # infinite lines carry no finite extent


def _pad_axis(lo: float, hi: float, margin: float, pad: float):
    """Step one axis out by ``margin`` of its span (of ``pad`` when it is
    empty), then widen it by ``pad`` if it is still empty."""
    step = margin * (hi - lo if hi - lo > 0 else pad)
    lo, hi = lo - step, hi + step
    return (lo - pad / 2, hi + pad / 2) if hi == lo else (lo, hi)


def auto_viewport(scene: Scene, margin: float = 0.05) -> Viewport:
    """Smallest world rectangle holding every finite primitive, padded by
    ``margin`` of its own span per side, then widened to the canvas aspect."""
    boxes = [b for b in (_extent(layer) for layer in scene.layers) if b is not None]
    if not boxes:
        raise ValueError("scene has no primitive with finite extent")
    xmin = min(b[0] for b in boxes)
    ymin = min(b[1] for b in boxes)
    xmax = max(b[2] for b in boxes)
    ymax = max(b[3] for b in boxes)
    pad = max(xmax - xmin, ymax - ymin) or 1.0
    xmin, xmax = _pad_axis(xmin, xmax, margin, pad)
    ymin, ymax = _pad_axis(ymin, ymax, margin, pad)
    # widen the short axis so world aspect matches the canvas aspect
    w, h = scene.canvas
    target = w / h
    cur = (xmax - xmin) / (ymax - ymin)
    if cur < target:
        grow = (ymax - ymin) * target - (xmax - xmin)
        xmin -= grow / 2
        xmax += grow / 2
    elif cur > target:
        grow = (xmax - xmin) / target - (ymax - ymin)
        ymin -= grow / 2
        ymax += grow / 2
    return Viewport(xmin, ymin, xmax, ymax)


def _fmt(x: float) -> str:
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return f"{x:.9g}"


def canvas_transform(viewport: Viewport, canvas):
    """Return (scale, to_px) mapping world points to pixel (x, y) pairs."""
    w, h = canvas
    scale = w / viewport.width

    def to_px(z: complex):
        return (z.real - viewport.xmin) * scale, h - (z.imag - viewport.ymin) * scale

    return scale, to_px


def _clip_line(line: Line, vp: Viewport):
    """Intersect an infinite 2D line with the viewport; None when outside."""
    t_lo, t_hi = -math.inf, math.inf
    for anchor, direction, lo, hi in (
        (line.a.real, line.u.real, vp.xmin, vp.xmax),
        (line.a.imag, line.u.imag, vp.ymin, vp.ymax),
    ):
        if direction == 0.0:
            if not lo <= anchor <= hi:
                return None
            continue
        ta = (lo - anchor) / direction
        tb = (hi - anchor) / direction
        if ta > tb:
            ta, tb = tb, ta
        t_lo = max(t_lo, ta)
        t_hi = min(t_hi, tb)
    if t_lo > t_hi or not math.isfinite(t_lo) or not math.isfinite(t_hi):
        return None
    return line.at(t_lo), line.at(t_hi)


def emit(scene: Scene) -> str:
    """Serialize a scene to an SVG 1.1 document string."""
    vp = scene.viewport if scene.viewport is not None else auto_viewport(scene)
    w, h = scene.canvas
    scale, to_px = canvas_transform(vp, scene.canvas)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{w}" height="{h}" viewBox="0 0 {w} {h}">',
        f'<rect x="0" y="0" width="{w}" height="{h}" fill="#ffffff"/>',
    ]
    for layer in scene.layers:
        if isinstance(layer, PointCloud):
            parts.append(f'<g fill="{layer.color}">')
            for p in layer.points:
                x, y = to_px(p)
                parts.append(
                    f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(layer.radius_px)}"/>'
                )
            parts.append("</g>")
        elif isinstance(layer, CircleOutline):
            x, y = to_px(layer.ball.c)
            parts.append(
                f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(layer.ball.r * scale)}" '
                f'fill="none" stroke="{layer.color}" stroke-width="{_fmt(layer.width_px)}"/>'
            )
        elif isinstance(layer, LineSegment):
            seg = _clip_line(layer.line, vp)
            if seg is None:
                continue
            (x1, y1), (x2, y2) = to_px(seg[0]), to_px(seg[1])
            parts.append(
                f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
                f'stroke="{layer.color}" stroke-width="{_fmt(layer.width_px)}"/>'
            )
        elif isinstance(layer, Label):
            x, y = to_px(layer.anchor)
            text = layer.text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            parts.append(
                f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{_fmt(layer.size_px)}" '
                f'fill="{layer.color}">{text}</text>'
            )
        else:
            raise TypeError(f"unknown scene layer {layer!r}")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
