"""Explicit bounding circles and spheres for similitude IFS attractors.

Three constructions are provided, plus a containment verifier and an
iterative tightener:

* the general bounding ball ``(c, mu_star * rho(c) / (1 - lambda_star))``
  valid for any map count and in both 2D and 3D, with the center chosen as
  the smallest-covering-circle center of the fixed points (where the ball
  is smallest) or as one of two cheap mean-center heuristics;
* the trifractal circumcircle (three maps, plane): the smallest circle to
  which all three map images are internally tangent, in closed form;
* the bifractal circumcircle (two maps, plane): the unique fixed circle of
  the outer-tangential-circle transformation ``M``, in closed form.

The closed forms (which cube coordinates) and ``tighten`` follow the one
float-range rule (``ifs._exponent``): a spread outside [2^-300, 2^300], or a
coordinate from 2^1022 on, is solved at a power-of-two scale, which is exact.

Containment is certified through per-map slack values
``s_k = (1 - lam_k) * r - mu_k * |c - p_k|`` with ``mu_k = |1 - phi_k|`` in
the plane and ``mu_k = ||I - lam_k R_k||`` (spectral norm) in space: if all
slacks are nonnegative, the ball maps into itself under every map and hence
contains the attractor.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .ifs import (
    Ball,
    IfsSystem,
    DEFAULT_NODE_BUDGET,
    dist,
    _allowance,
    _ball,
    _coords,
    _exponent,
    _rows,
    _word_tree_images,
)
from .minball import _dist2, _gather, _near, min_ball

__all__ = [
    "BoundReport",
    "CircumcircleError",
    "apply_M",
    "best_bounding_ball",
    "circumcircle",
    "circumcircle_bifractal",
    "circumcircle_trifractal",
    "containment_tol",
    "general_bounding_ball",
    "mean_centers",
    "mu_star",
    "mu_values",
    "radius_function",
    "tighten",
    "verify_containment",
]

CONTAINMENT_RTOL = 1e-9

_METHODS = {
    "general",
    "general_arithmetic",
    "general_harmonic",
    "circum_tri",
    "circum_bi",
    "tightened",
}


class CircumcircleError(ValueError):
    """No circumcircle exists for this system (caller should fall back)."""


def containment_tol(r: float) -> float:
    """Tolerance of every containment check in the library: a slack down to
    ``-1e-9 * (1 + r)`` passes.  It is never below 1e-9 absolute, so for a
    ball far smaller than that it is no proof of containment."""
    return CONTAINMENT_RTOL * (1.0 + r)


@dataclass(frozen=True)
class BoundReport:
    """A bounding ball together with its construction tag and certificate."""

    ball: Ball
    method: str
    slack: tuple
    lambda_star: float
    mu_star: float
    notes: tuple = field(default=())

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"unknown method tag {self.method!r}")

    @property
    def min_slack(self) -> float:
        return min(self.slack)


def mu_values(ifs: IfsSystem) -> tuple:
    """Per-map displacement factors mu_k."""
    return tuple(m.mu for m in ifs.maps)


def mu_star(ifs: IfsSystem) -> float:
    return max(mu_values(ifs))


def verify_containment(ifs: IfsSystem, b: Ball) -> tuple:
    """Per-map containment slack of a candidate bounding ball.

    ``s_k = (1 - lam_k) * b.r - mu_k * |b.c - p_k|``.  All slacks
    nonnegative certifies that every map sends the ball into itself, hence
    that the ball contains the attractor (in the plane the condition is
    exact; in space it is sufficient).
    """
    if ifs.dim != b.dim:
        raise ValueError("system and ball dimensions differ")
    return _slack(ifs, b)


def _slack(ifs: IfsSystem, b: Ball) -> tuple:
    return tuple((1.0 - m.lam) * b.r - m.mu * dist(b.c, m.p) for m in ifs.maps)


def radius_function(ifs: IfsSystem, z) -> float:
    """Largest distance from ``z`` to a fixed point of the system."""
    return max(dist(p, z) for p in ifs.fixed_points)


def _certified(ifs: IfsSystem, b: Ball) -> tuple:
    """Per-map slack of ``b`` and the library's one containment verdict:
    every slack at least ``-containment_tol(b.r)``."""
    slack = verify_containment(ifs, b)
    return slack, min(slack) >= -containment_tol(b.r)


def _report(ifs, ball, method, notes=()) -> BoundReport:
    return BoundReport(
        ball=ball,
        method=method,
        slack=_slack(ifs, ball),
        lambda_star=ifs.lambda_star,
        mu_star=mu_star(ifs),
        notes=tuple(notes),
    )


def _arithmetic_center(ifs: IfsSystem):
    return sum(ifs.fixed_points) / ifs.n


def mean_centers(ifs: IfsSystem):
    """Arithmetic and harmonically weighted means of the fixed points.

    The harmonic weights are the reciprocals of the covering radius at each
    fixed point.  When the fixed points all coincide those radii vanish and
    the harmonic mean falls back to the arithmetic one with a warning; when
    they all overflow to inf the weights vanish and ``OverflowError`` is raised.
    """
    pts = ifs.fixed_points
    c_a = _arithmetic_center(ifs)
    if ifs.n == 1:
        return c_a, c_a
    rhos = [radius_function(ifs, p) for p in pts]
    if any(rho == 0.0 for rho in rhos):
        warnings.warn(
            "coincident fixed points: harmonic mean center undefined, "
            "falling back to the arithmetic mean",
            RuntimeWarning,
            stacklevel=2,
        )
        return c_a, c_a
    wsum = sum(1.0 / rho for rho in rhos)
    if wsum == 0.0:
        raise OverflowError("the covering radii of the fixed points overflow")
    c_h = sum(p / rho for p, rho in zip(pts, rhos)) / wsum
    return c_a, c_h


def general_bounding_ball(ifs: IfsSystem, center: str = "optimal") -> BoundReport:
    """General bounding ball ``r(c) = mu_star * rho(c) / (1 - lambda_star)``.

    ``center`` selects where the ball sits: ``optimal`` uses the center of
    the smallest circle covering the fixed points (the minimizer of the
    radius function), ``arithmetic``/``harmonic`` the mean centers.
    ``best`` is ``optimal``: no center gives a smaller radius function, so
    no other center gives a smaller ball.  Works in the plane and in space.
    A ball beyond the float range raises ``OverflowError``.
    """
    if center == "arithmetic":
        method, c = "general_arithmetic", _arithmetic_center(ifs)
    elif center == "harmonic":  # its OverflowError names the covering radii
        method, c = "general_harmonic", mean_centers(ifs)[1]
    elif center not in ("optimal", "best"):
        raise ValueError(f"unknown center strategy {center!r}")
    try:  # min_ball's scale-back and a complex abs raise OverflowError, not inf
        if center in ("optimal", "best"):
            method, c = "general", min_ball(ifs.fixed_points)[0].c
        r = mu_star(ifs) / (1.0 - ifs.lambda_star) * radius_function(ifs, c)
    except OverflowError:
        r = math.inf
    if not r < math.inf:
        raise OverflowError("the general bounding ball overflows the float range")
    return _report(ifs, Ball(c, r), method)


# ---------------------------------------------------------------------------
# circumcircles
# ---------------------------------------------------------------------------


def _require_plane(ifs: IfsSystem, n: int, name: str) -> None:
    if ifs.dim != 2 or ifs.n != n:
        raise ValueError(f"{name} needs a 2D system with exactly {n} maps")


def _circle_report(ifs: IfsSystem, method: str, solve) -> BoundReport:
    """The report of the circumcircle ``(c, r) = solve(*fixed_points)``, a
    closed form, solved at the scale the float-range rule gives the largest
    coordinate; a circle beyond the float range is not available."""
    pts = ifs.fixed_points
    size = max(max(abs(p.real), abs(p.imag)) for p in pts)
    e = _exponent(size, size)
    try:  # float **, complex abs and math.ldexp raise OverflowError, not inf
        c, r = solve(*(complex(math.ldexp(p.real, -e), math.ldexp(p.imag, -e)) for p in pts))
        if not (math.isfinite(r) and cmath.isfinite(c)):
            raise OverflowError
        ball = _ball([c.real, c.imag], r, e, 2)
    except OverflowError:
        raise CircumcircleError("the circumcircle overflows the float range") from None
    return _report(ifs, ball, method)


def _cross(z1: complex, z2: complex) -> float:
    return z1.real * z2.imag - z1.imag * z2.real


def _dot(z1: complex, z2: complex) -> float:
    return z1.real * z2.real + z1.imag * z2.imag


def circumcircle_trifractal(ifs: IfsSystem) -> BoundReport:
    """Closed-form circumcircle of a three-map plane system.

    The circumcircle is the smallest circle making every map image
    internally tangent: ``|T_k(c) - c| + lam_k * r = r`` for k = 1, 2, 3.
    It exists only for non-collinear fixed points and, for strongly
    rotating factors, only when the underlying quadratic has a real root;
    both failures raise :class:`CircumcircleError` so callers can fall back
    to the general bounding ball, as does a closed form that overflows.
    """
    _require_plane(ifs, 3, "circumcircle_trifractal")
    a1, a2, a3 = ((1.0 - m.lam) / m.mu for m in ifs.maps)

    def solve(p1, p2, p3):
        big_c = 2.0 * _cross(p2 - p1, p2 - p3)
        if big_c == 0.0:
            raise CircumcircleError("collinear fixed points: no circumcircle")
        big_a = (a3**2 - a2**2) * p1 + (a1**2 - a3**2) * p2 + (a2**2 - a1**2) * p3
        big_b = (
            (abs(p2) ** 2 - abs(p3) ** 2) * p1
            + (abs(p3) ** 2 - abs(p1) ** 2) * p2
            + (abs(p1) ** 2 - abs(p2) ** 2) * p3
        )
        c0 = big_b / (big_c * 1j)
        r0 = abs(c0 - p1)
        c1 = big_a / (big_c * 1j)
        if c1 == 0.0:
            return c0, r0 / a1
        d = _dot(c0, c1) + (
            a1**2 * _cross(p2, p3) + a2**2 * _cross(p3, p1) + a3**2 * _cross(p1, p2)
        ) / big_c
        disc = d * d - abs(c1) ** 2 * r0 * r0
        if d >= 0.0 or disc < 0.0:
            raise CircumcircleError("no real tangential circle for these rotation factors")
        # smaller root of the radius quadratic, in cancellation-free form
        r = r0 / math.sqrt(-d + math.sqrt(disc))
        return c0 + c1 * r * r, r

    return _circle_report(ifs, "circum_tri", solve)


def apply_M(ifs: IfsSystem, b: Ball) -> Ball:
    """Outer tangential circle of the two map images of a circle.

    For a two-map plane system this is one step of the transformation whose
    fixed circle is the bifractal circumcircle.  Applied to a bounding
    circle it yields another bounding circle, usually tighter.  When the
    two image centers coincide the tangent direction is undefined; the
    common center with the larger contracted radius is returned and a
    warning is emitted.
    """
    _require_plane(ifs, 2, "apply_M")
    m1, m2 = ifs.maps
    t1 = m1.apply(b.c)
    t2 = m2.apply(b.c)
    span = t2 - t1
    if span == 0.0:
        warnings.warn(
            "map images share one center: tangential direction undefined",
            RuntimeWarning,
            stacklevel=2,
        )
        return Ball(t1, max(m1.lam, m2.lam) * b.r)
    u = span / abs(span)
    center = (t1 + t2) / 2.0 + b.r * (m2.lam - m1.lam) / 2.0 * u
    radius = (m1.lam + m2.lam) / 2.0 * b.r + abs(span) / 2.0
    return Ball(center, radius)


def circumcircle_bifractal(ifs: IfsSystem) -> BoundReport:
    """Closed-form circumcircle of a two-map plane system.

    This is the unique fixed circle of :func:`apply_M`, the two-map
    analogue of the interval of a Cantor set.  Coincident fixed points
    degenerate to a radius-zero ball (the attractor is that single point),
    reported with a note; a closed form that overflows raises
    :class:`CircumcircleError`.
    """
    _require_plane(ifs, 2, "circumcircle_bifractal")
    m1, m2 = ifs.maps
    if m1.p == m2.p:
        return _report(
            ifs,
            Ball(m1.p, 0.0),
            "circum_bi",
            notes=("degenerate: coincident fixed points, attractor is a single point",),
        )
    lam = (m1.lam + m2.lam) / 2.0
    nu = (m2.lam - m1.lam) / (2.0 * (1.0 - lam))
    w1 = (1.0 - nu) * (1.0 - m1.phi)
    w2 = (1.0 + nu) * (1.0 - m2.phi)
    # den != 0: both weights have real parts >= 0, the one whose factor is 1 + |nu| >= 2^-53
    den = w1 + w2

    def solve(p1, p2):
        c = (w1 * p1 + w2 * p2) / den
        return c, m1.mu * m2.mu / ((1.0 - lam) * abs(den)) * abs(p2 - p1)

    return _circle_report(ifs, "circum_bi", solve)


def circumcircle(ifs: IfsSystem) -> BoundReport:
    """Circumcircle of a plane system: bifractal for two maps, trifractal
    for three.  Raises :class:`CircumcircleError` for any other system."""
    if ifs.dim != 2 or ifs.n not in (2, 3):
        raise CircumcircleError("circumcircles need a 2D system with 2 or 3 maps")
    if ifs.n == 2:
        return circumcircle_bifractal(ifs)
    return circumcircle_trifractal(ifs)


def best_bounding_ball(ifs: IfsSystem) -> BoundReport:
    """Smallest available bounding ball: circumcircle when it exists, passes
    its containment check and beats the general ball, otherwise the general
    ball at the smallest-circle center.

    Circumcircles apply to 2- and 3-map plane systems; everything else gets
    the general construction directly.
    """
    general = general_bounding_ball(ifs)
    if ifs.dim != 2 or ifs.n not in (2, 3):
        return general
    try:
        circ = circumcircle(ifs)
    except CircumcircleError as exc:
        note = f"circumcircle unavailable: {exc}"
    else:
        if not _certified(ifs, circ.ball)[1]:
            note = f"circumcircle fails its containment check (min slack {circ.min_slack:.3e})"
        elif circ.ball.r <= general.ball.r:
            return circ
        else:
            note = "general ball tighter than circumcircle"
    return replace(general, notes=general.notes + (note,))


# ---------------------------------------------------------------------------
# iterative tightening
# ---------------------------------------------------------------------------


# ``tighten`` scans its n^L word images by blocks of n^m words (n^m the
# largest power of n up to _BLOCK_WORDS) from _BLOCKS_FROM words on; below
# that a full pass measured as fast
_BLOCK_WORDS = 64
_BLOCKS_FROM = 8192


def _reach(points, factors, c, r: float) -> np.ndarray:
    """``|points - c| + factors * r``, computed over ``points`` and ``factors``."""
    # kept per layout: np.abs of a complex and a row norm round apart
    if points.ndim == 1:
        out = np.abs(np.subtract(points, c, out=points))
    else:  # min_ball's distance pass, on the axis rows of the word images
        rows = points.T
        out = np.sqrt(_dist2(rows, c, rows[0], rows[1]), out=rows[0])
    out += np.multiply(factors, r, out=factors)
    return out


def _blocks(ifs, b, slack, levels, factors):
    """``tighten``'s word blocks: ``None`` below _BLOCKS_FROM words or if no
    block would hold two words, else the depth m of blocks of n^m words, the
    factors ``lambda_v`` of their outer words, and the radius of a ball around
    each block, centered on its first word.  Block v holds the words
    T_v(T_u(c)) for the n^m inner words u; its first word's inner letters are
    all map 1, so lambda_v is that word's factor over ``lam_1**m``."""
    n, m = ifs.n, 0
    if n**levels < _BLOCKS_FROM or n > _BLOCK_WORDS:
        return None
    while n ** (m + 1) <= _BLOCK_WORDS:
        m += 1
    # B(c, grow) maps into itself under every map (it makes every slack
    # nonnegative), so it holds every exact T_u(c): a block lies within
    # 2 * lambda_v * grow of its first word.  It holds every exact word
    # image and fixed point too, so span = |c| + grow bounds their size; a
    # word and its block's first word each round off L levels, lams_v's
    # division a few ulps more.  An inf or NaN radius only keeps its block.
    grow = b.r - min(s / (1.0 - mm.lam) for s, mm in zip(slack, ifs.maps))
    span = float(np.abs(_coords(b.c)).sum()) + grow
    allowance = _allowance(levels, span + b.r)
    lams_v = factors[:: n**m] / ifs.maps[0].lam ** m
    return m, lams_v, 2.0 * grow * lams_v + allowance


def tighten(
    ifs: IfsSystem,
    b: Ball,
    levels: int,
    budget: int = DEFAULT_NODE_BUDGET,
) -> BoundReport:
    """Refine a verified bounding ball through depth-``levels`` word images.

    The input ball is mapped through every composition of the given depth;
    the refined center is the smallest-ball center of the image centers and
    the refined radius the exact covering radius
    ``max_w(|c_w - c'| + factor_w * b.r)``, which is never larger than the
    coarse bound ``r' + lambda_star**levels * b.r`` reported in the notes.
    If the refinement fails to shrink the ball (possible for adversarial
    factor combinations) the input ball is returned unchanged, so the
    output radius never exceeds the input radius.

    From 8192 words on, the smallest-ball passes and the covering radius
    read only the first word of each block of n^m <= 64 words and the
    blocks that can reach the farthest point: block ``v`` (its words share
    their first letters ``v``) lies within ``2 * lambda_v * grow`` of its
    first word, ``B(c, grow)`` being the smallest ball around ``c`` that
    every map sends into itself.  The result is the same, bit for bit; the
    blocks that can reach are copied and scanned, the others are skipped.

    The input must carry a nonnegative containment certificate; the output
    bounds the attractor by construction but is generally not certified by
    per-map slack, so deeper refinement should increase ``levels`` rather
    than chain calls.
    """
    if levels < 0:
        raise ValueError("levels must be >= 0")
    slack, verified = _certified(ifs, b)
    if not verified:
        raise ValueError(f"input ball is not a verified bounding ball (min slack {min(slack):.3e})")
    centers, factors = _word_tree_images(ifs, [b.c], levels, budget, factors=True)
    # a ball outside the float-range rule's range is refined scaled by 2^-e,
    # which is exact, so no squared 3D distance overflows or underflows;
    # min_ball solves blocked images in this frame
    c = _coords(b.c).tolist()
    e, work = _exponent(b.r, max(map(abs, c))), b
    if e:
        work = _ball(c, b.r, -e, ifs.dim)
        np.ldexp(_rows(centers), -e, out=_rows(centers))
        slack = [math.ldexp(s, -e) for s in slack]
    blocks = _blocks(ifs, work, slack, levels, factors)
    center_ball, _ = min_ball(centers, _blocks=None if blocks is None else blocks[2])
    if blocks is not None:
        # the covering radius is at least the largest first-word reach, and no
        # word of block v reaches more than radius_v + lambda_v * lambda_star^m * r
        # beyond its first word's reach: _near keeps the blocks that can matter
        m, lams_v, radii = blocks
        size = ifs.n**m
        first = _reach(centers[::size].copy(), factors[::size].copy(), center_ball.c, work.r)
        near = _near(first, radii + lams_v * (ifs.lambda_star**m * work.r))
        centers, factors = _gather(centers.T, near, size).T, _gather(factors, near, size)
    # min_ball is done with the images and factors: overwritten in place
    radius = float(_reach(centers, factors, center_ball.c, work.r).max())
    if e:
        center_ball = _ball(_coords(center_ball.c).tolist(), center_ball.r, e, ifs.dim)
        radius = math.ldexp(radius, e)
    coarse = center_ball.r + ifs.lambda_star**levels * b.r
    notes = (f"coarse radius bound {coarse:.12g}",)
    if radius > b.r:
        return _report(
            ifs,
            Ball(b.c, b.r),
            "tightened",
            notes=notes + ("refinement did not shrink the ball; input kept",),
        )
    return _report(ifs, Ball(center_ball.c, radius), "tightened", notes=notes)
