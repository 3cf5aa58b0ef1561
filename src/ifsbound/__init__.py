"""Explicit bounding circles and spheres for similitude IFS fractals."""

from . import bounds, ifs, minball
from .ifs import *  # noqa: F403
from .minball import *  # noqa: F403
from .bounds import *  # noqa: F403


def _bind(namespace: dict, module: str) -> None:
    """Import ``queries`` or ``render`` and bind into ``namespace`` each name
    of ``__all__`` it holds, keeping a name bound earlier (``bench/tracer.py``
    sets its wrappers on ``cli`` so).  A lookup tries ``queries`` first, so
    only a direct ``_bind(namespace, "render")`` leaves ``queries`` unloaded."""
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

# the on-demand names of queries and render are listed here only, so that
# neither __all__ nor dir() loads those modules
__all__ = [
    *ifs.__all__,
    *minball.__all__,
    *bounds.__all__,
    "CIRCUM_COLOR",
    "CircleOutline",
    "GENERAL_COLOR",
    "HitInterval",
    "Label",
    "Line",
    "LineIntersection",
    "LineSegment",
    "PointCloud",
    "Scene",
    "Viewport",
    "auto_viewport",
    "canvas_transform",
    "emit",
    "intersect_line",
    "line_ball_distance",
]
