"""Explicit bounding circles and spheres for similitude IFS attractors.

Three constructions are provided, plus a containment verifier and an
iterative tightener:

* the general bounding ball ``(c, mu_star * rho(c) / (1 - lambda_star))``
  valid for any map count and in both 2D and 3D, with the center chosen as
  the smallest-covering-circle center of the fixed points or as one of two
  cheap mean-center heuristics;
* the trifractal circumcircle (three maps, plane): the smallest circle to
  which all three map images are internally tangent, in closed form;
* the bifractal circumcircle (two maps, plane): the unique fixed circle of
  the outer-tangential-circle transformation ``M``, in closed form.

Containment is certified through per-map slack values
``s_k = (1 - lam_k) * r - mu_k * |c - p_k|`` with ``mu_k = |1 - phi_k|`` in
the plane and ``mu_k = ||I - lam_k R_k||`` (spectral norm) in space: if all
slacks are nonnegative, the ball maps into itself under every map and hence
contains the attractor.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .ifs import (
    Ball,
    IfsSystem,
    DEFAULT_NODE_BUDGET,
    dist,
    mu_norm,  # re-exported: ifsbound.mu_norm
    _check_budget,
    _points,
    _word_tree_images,
)
from .minball import min_ball, radius_function

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
    """Relative tolerance used by every containment check in the library."""
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


def _report(ifs, ball, method, notes=()) -> BoundReport:
    return BoundReport(
        ball=ball,
        method=method,
        slack=_slack(ifs, ball),
        lambda_star=ifs.lambda_star,
        mu_star=mu_star(ifs),
        notes=tuple(notes),
    )


def mean_centers(ifs: IfsSystem):
    """Arithmetic and harmonically weighted means of the fixed points.

    The harmonic weights are the reciprocals of the covering radius at each
    fixed point.  When the fixed points all coincide those radii vanish and
    the harmonic mean falls back to the arithmetic one with a warning.
    """
    pts = ifs.fixed_points
    n = ifs.n
    c_a = sum(pts) / n
    rhos = [radius_function(ifs, p) for p in pts]
    if any(rho == 0.0 for rho in rhos) and n > 1:
        warnings.warn(
            "coincident fixed points: harmonic mean center undefined, "
            "falling back to the arithmetic mean",
            RuntimeWarning,
            stacklevel=2,
        )
        return c_a, c_a
    if n == 1:
        return c_a, c_a
    wsum = sum(1.0 / rho for rho in rhos)
    c_h = sum(p / rho for p, rho in zip(pts, rhos)) / wsum
    return c_a, c_h


def general_bounding_ball(ifs: IfsSystem, center: str = "optimal") -> BoundReport:
    """General bounding ball ``r(c) = mu_star * rho(c) / (1 - lambda_star)``.

    ``center`` selects where the ball sits: ``optimal`` uses the center of
    the smallest circle covering the fixed points (the minimizer of the
    radius function), ``arithmetic``/``harmonic`` the mean centers, and
    ``best`` evaluates all three and keeps the smallest resulting radius.
    Works in the plane and in space.
    """
    scale = mu_star(ifs) / (1.0 - ifs.lambda_star)

    def candidates():
        if center in ("optimal", "best"):
            # scored by radius_function like the other candidates, so that
            # ties (two fixed points: every center is the midpoint) go here
            ball, _ = min_ball(ifs.fixed_points)
            yield "general", ball.c, radius_function(ifs, ball.c)
        if center in ("arithmetic", "best", "harmonic"):
            c_a, c_h = mean_centers(ifs)
            if center in ("arithmetic", "best"):
                yield "general_arithmetic", c_a, radius_function(ifs, c_a)
            if center in ("harmonic", "best"):
                yield "general_harmonic", c_h, radius_function(ifs, c_h)

    if center not in ("optimal", "arithmetic", "harmonic", "best"):
        raise ValueError(f"unknown center strategy {center!r}")
    best = None
    for method, c, rho in candidates():
        if best is None or rho < best[2]:
            best = (method, c, rho)
    method, c, rho = best
    return _report(ifs, Ball(c, scale * rho), method)


# ---------------------------------------------------------------------------
# circumcircles
# ---------------------------------------------------------------------------


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
    to the general bounding ball.
    """
    if ifs.dim != 2:
        raise ValueError("circumcircle_trifractal needs a 2D system")
    if ifs.n != 3:
        raise ValueError("circumcircle_trifractal needs exactly 3 maps")
    p1, p2, p3 = ifs.fixed_points
    a1, a2, a3 = ((1.0 - m.lam) / m.mu for m in ifs.maps)

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
        c, r = c0, r0 / a1
    else:
        d = _dot(c0, c1) + (
            a1**2 * _cross(p2, p3) + a2**2 * _cross(p3, p1) + a3**2 * _cross(p1, p2)
        ) / big_c
        disc = d * d - abs(c1) ** 2 * r0 * r0
        if d >= 0.0 or disc < 0.0:
            raise CircumcircleError(
                "no real tangential circle for these rotation factors"
            )
        # smaller root of the radius quadratic, in cancellation-free form
        r = r0 / math.sqrt(-d + math.sqrt(disc))
        c = c0 + c1 * r * r
    return _report(ifs, Ball(c, r), "circum_tri")


def apply_M(ifs: IfsSystem, b: Ball) -> Ball:
    """Outer tangential circle of the two map images of a circle.

    For a two-map plane system this is one step of the transformation whose
    fixed circle is the bifractal circumcircle.  Applied to a bounding
    circle it yields another bounding circle, usually tighter.  When the
    two image centers coincide the tangent direction is undefined; the
    common center with the larger contracted radius is returned and a
    warning is emitted.
    """
    if ifs.dim != 2 or ifs.n != 2:
        raise ValueError("apply_M needs a 2D system with exactly 2 maps")
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
    reported with a note.
    """
    if ifs.dim != 2:
        raise ValueError("circumcircle_bifractal needs a 2D system")
    if ifs.n != 2:
        raise ValueError("circumcircle_bifractal needs exactly 2 maps")
    m1, m2 = ifs.maps
    p1, p2 = m1.p, m2.p
    if p1 == p2:
        return _report(
            ifs,
            Ball(p1, 0.0),
            "circum_bi",
            notes=("degenerate: coincident fixed points, attractor is a single point",),
        )
    lam = (m1.lam + m2.lam) / 2.0
    nu = (m2.lam - m1.lam) / (2.0 * (1.0 - lam))
    w1 = (1.0 - nu) * (1.0 - m1.phi)
    w2 = (1.0 + nu) * (1.0 - m2.phi)
    den = w1 + w2
    # den has positive real part for strict contractions; guard anyway
    if den == 0.0:
        raise CircumcircleError("degenerate factor combination: zero denominator")
    c = (w1 * p1 + w2 * p2) / den
    r = m1.mu * m2.mu / ((1.0 - lam) * abs(den)) * abs(p2 - p1)
    return _report(ifs, Ball(c, r), "circum_bi")


def circumcircle(ifs: IfsSystem) -> BoundReport:
    """Circumcircle of a plane system: bifractal for two maps, trifractal
    for three.  Raises :class:`CircumcircleError` for any other system."""
    if ifs.dim != 2 or ifs.n not in (2, 3):
        raise CircumcircleError("circumcircles need a 2D system with 2 or 3 maps")
    if ifs.n == 2:
        return circumcircle_bifractal(ifs)
    return circumcircle_trifractal(ifs)


def best_bounding_ball(ifs: IfsSystem) -> BoundReport:
    """Smallest available bounding ball: circumcircle when it exists and
    beats the general ball, otherwise the general ball at the best center.

    Circumcircles apply to 2- and 3-map plane systems; everything else gets
    the general construction directly.
    """
    general = general_bounding_ball(ifs, center="best")
    if ifs.dim != 2 or ifs.n not in (2, 3):
        return general
    try:
        circ = circumcircle(ifs)
    except CircumcircleError as exc:
        note = f"circumcircle unavailable: {exc}"
    else:
        if circ.ball.r <= general.ball.r:
            return circ
        note = "general ball tighter than circumcircle"
    return replace(general, notes=general.notes + (note,))


# ---------------------------------------------------------------------------
# iterative tightening
# ---------------------------------------------------------------------------


def _word_images(ifs: IfsSystem, z, levels: int, budget: int, spare: int = 0):
    """Centers and contraction factors of all depth-``levels`` compositions,
    then ``spare`` free rows of their length: views of one float buffer, so
    a caller's work arrays cost no allocation of their own."""
    size = ifs.n**levels
    _check_budget(size, budget)
    buf = np.empty((ifs.dim + 1 + spare, size))
    centers = _points(buf[: ifs.dim].reshape(size, ifs.dim))
    factors = buf[ifs.dim]
    centers[0], factors[0] = z, 1.0
    _word_tree_images(ifs, centers, levels, factors)
    return (centers, factors, *buf[ifs.dim + 1 :])


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

    The input must carry a nonnegative containment certificate; the output
    bounds the attractor by construction but is generally not certified by
    per-map slack, so deeper refinement should increase ``levels`` rather
    than chain calls.
    """
    if levels < 0:
        raise ValueError("levels must be >= 0")
    if ifs.dim != b.dim:
        raise ValueError("system and ball dimensions differ")
    slack = _slack(ifs, b)
    if min(slack) < -containment_tol(b.r):
        raise ValueError(
            "input ball is not a verified bounding ball "
            f"(min slack {min(slack):.3e})"
        )
    centers, factors, reach = _word_images(ifs, b.c, levels, budget, spare=1)
    center_ball, _ = min_ball(centers)
    c_prime = center_ball.c
    diff = np.subtract(centers, c_prime, out=centers)  # min_ball is done with them
    # kept per layout: np.abs of a complex and a row norm round apart
    if ifs.dim == 2:
        np.abs(diff, out=reach)
    else:
        np.sqrt(np.square(diff, out=diff).sum(axis=1, out=reach), out=reach)
    reach += np.multiply(factors, b.r, out=factors)
    radius = float(np.max(reach))
    coarse = center_ball.r + ifs.lambda_star**levels * b.r
    notes = (f"coarse radius bound {coarse:.12g}",)
    if radius > b.r:
        return _report(
            ifs,
            Ball(b.c, b.r),
            "tightened",
            notes=notes + ("refinement did not shrink the ball; input kept",),
        )
    return _report(ifs, Ball(c_prime, radius), "tightened", notes=notes)
