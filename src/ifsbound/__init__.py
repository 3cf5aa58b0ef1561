"""Explicit bounding circles and spheres for similitude IFS fractals."""

from .ifs import (
    AddressWord,
    Ball,
    DEFAULT_NODE_BUDGET,
    IfsDocumentError,
    IfsSystem,
    NodeBudgetExceeded,
    Point,
    Similitude2,
    Similitude3,
    address_points,
    apply_map,
    apply_map_ball,
    apply_word,
    chaos_game,
    dist,
    hutchinson_balls,
    mu_norm,
    parse_ifs,
    serialize_ifs,
)
from .minball import SupportSet, ball_from_support, min_ball
from .bounds import (
    BoundReport,
    CircumcircleError,
    apply_M,
    best_bounding_ball,
    circumcircle,
    circumcircle_bifractal,
    circumcircle_trifractal,
    containment_tol,
    general_bounding_ball,
    mean_centers,
    mu_star,
    mu_values,
    radius_function,
    tighten,
    verify_containment,
)


def __getattr__(name):
    """Load ``queries`` and ``render`` on first use (PEP 562): most CLI calls
    need neither, and each costs a few ms to compile and run per process."""
    if name in ("queries", "render"):
        __import__(f"{__name__}.{name}")  # binds it here; -X importtime lists it
        return globals()[name]
    if name not in __all__:  # the rest of __all__ is bound above
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = __getattr__("queries")
    if not hasattr(home, name):
        home = __getattr__("render")  # which imports queries anyway
    value = globals()[name] = getattr(home, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, "queries", "render"})


__version__ = "0.1.0"

__all__ = [
    "AddressWord",
    "Ball",
    "BoundReport",
    "CIRCUM_COLOR",
    "CircleOutline",
    "CircumcircleError",
    "DEFAULT_NODE_BUDGET",
    "GENERAL_COLOR",
    "HitInterval",
    "IfsDocumentError",
    "IfsSystem",
    "Label",
    "Line",
    "LineIntersection",
    "LineSegment",
    "NodeBudgetExceeded",
    "Point",
    "PointCloud",
    "Scene",
    "Similitude2",
    "Similitude3",
    "SupportSet",
    "Viewport",
    "address_points",
    "apply_M",
    "apply_map",
    "apply_map_ball",
    "apply_word",
    "auto_viewport",
    "ball_from_support",
    "best_bounding_ball",
    "canvas_transform",
    "chaos_game",
    "circumcircle",
    "circumcircle_bifractal",
    "circumcircle_trifractal",
    "containment_tol",
    "dist",
    "emit",
    "general_bounding_ball",
    "hutchinson_balls",
    "intersect_line",
    "line_ball_distance",
    "mean_centers",
    "min_ball",
    "mu_norm",
    "mu_star",
    "mu_values",
    "parse_ifs",
    "radius_function",
    "serialize_ifs",
    "tighten",
    "verify_containment",
]
