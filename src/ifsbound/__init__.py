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


def _bind(namespace: dict, module: str) -> None:
    """Import ``queries`` or ``render`` and bind into ``namespace`` each name
    of ``__all__`` it holds, keeping a name bound earlier (``bench/tracer.py``
    sets its wrappers on ``cli`` so).  A lookup tries ``queries`` first, so
    only ``cli._load("render")`` leaves ``queries`` unloaded."""
    home = getattr(__import__(f"{__name__}.{module}"), module)  # -X importtime lists __import__
    for name in __all__:
        if hasattr(home, name):
            namespace.setdefault(name, getattr(home, name))


def _lookup(namespace: dict, name: str):
    """PEP 562: ``queries``, ``render`` and their names load on first use."""
    if name in ("queries", "render"):
        return getattr(__import__(f"{__name__}.{name}"), name)
    if name in __all__:
        for module in ("queries", "render"):
            _bind(namespace, module)
            if name in namespace:
                return namespace[name]
    raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")


def __getattr__(name):
    return _lookup(globals(), name)


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
