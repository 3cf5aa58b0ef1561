"""Command-line front end: ``ifsbound <subcommand> --input FILE ...``.

Input documents are JSON with a ``dimension`` key (2 or 3) and a ``maps``
array.  Plane maps carry ``{"p": [x, y], "phi": [re, im]}`` or
``{"p": [x, y], "lambda": l, "theta": t}``; space maps carry
``{"p": [x, y, z], "lambda": l, "axis": [x, y, z], "angle": a}``.  Angles
are radians.

Data records are emitted on stdout as a single JSON object with numbers at
12 significant digits; diagnostics go to stderr only.  Exit codes: 0 on
success, 1 on domain errors (failed verification, collinear circumcircle,
budget exhaustion), 2 on usage or document errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .ifs import (
    Ball,
    IfsDocumentError,
    IfsSystem,
    NodeBudgetExceeded,
    DEFAULT_NODE_BUDGET,
    _as_point,
    _coords,
    _rows,
    address_points,
    chaos_game,
    parse_ifs,
)
from .bounds import (
    BoundReport,
    CircumcircleError,
    best_bounding_ball,
    circumcircle,
    containment_tol,
    general_bounding_ball,
    mu_star,
    tighten,
    verify_containment,
)
from .queries import Line, intersect_line
from .render import (
    CIRCUM_COLOR,
    GENERAL_COLOR,
    CircleOutline,
    LineSegment,
    PointCloud,
    Scene,
    emit,
)


class NonFiniteRecordError(ValueError):
    """An output record would hold NaN or infinity, which JSON cannot."""


# ---------------------------------------------------------------------------
# record emission (12 significant digits, fixed key order)
# ---------------------------------------------------------------------------


def _jnum(x) -> str:
    v = float(x)
    if not math.isfinite(v):
        raise NonFiniteRecordError(f"non-finite number {v!r} in the output record")
    if v == 0.0:
        v = 0.0  # normalize -0.0
    return f"{v:.12g}"


def _jval(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return _jnum(v)
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_jval(x) for x in v) + "]"
    if isinstance(v, dict):
        return "{" + ", ".join(json.dumps(k) + ": " + _jval(x) for k, x in v.items()) + "}"
    raise TypeError(f"cannot serialize {v!r}")


def _emit_record(record: dict) -> None:
    sys.stdout.write(_jval(record) + "\n")


def _point_rows(pts: np.ndarray) -> str:
    """``_jval`` of the coordinate rows of a complex or ``(N, 3)`` point
    array, formatted flat: the recursion would cost most of a large
    ``sample``."""
    flat = _rows(pts)
    bad = flat[~np.isfinite(flat)]
    if len(bad):
        _jnum(bad[0])  # raises NonFiniteRecordError
    row = "[" + ", ".join(["%.12g"] * flat.shape[1]) + "]"  # %.12g is _jnum's format
    # adding 0.0 turns -0.0 into 0.0 and keeps every other value, as _jnum
    return "[" + ", ".join(row % tuple(r) for r in (flat + 0.0).tolist()) + "]"


def _report_record(report: BoundReport) -> dict:
    return {
        "method": report.method,
        "center": _coords(report.ball.c).tolist(),
        "radius": report.ball.r,
        "slack": list(report.slack),
        "lambda_star": report.lambda_star,
        "mu_star": report.mu_star,
        "notes": list(report.notes),
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _load_system(path: str) -> IfsSystem:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_ifs(fh.read())
    except OSError as exc:
        raise IfsDocumentError(f"cannot read {path}: {exc}") from None


def _budget() -> int:
    raw = os.environ.get("IFSBOUND_NODE_BUDGET")
    if raw is None:
        return DEFAULT_NODE_BUDGET
    try:
        value = int(raw)
        if value <= 0:
            raise ValueError
    except ValueError:
        raise IfsDocumentError(
            f"IFSBOUND_NODE_BUDGET must be a positive integer, got {raw!r}"
        ) from None
    return value


def _require(ok: bool, message: str) -> None:
    """Reject a command-line value as a usage error (exit 2)."""
    if not ok:
        raise IfsDocumentError(message)


def _ball_from_args(ifs: IfsSystem, args) -> Ball:
    try:
        return Ball(_as_point(args.center, ifs.dim, "center"), args.radius)
    except ValueError as exc:
        raise IfsDocumentError(f"--center/--radius: {exc}") from None


def _line_from_args(values) -> Line:
    ax, ay, ux, uy = values
    try:
        return Line(complex(ax, ay), complex(ux, uy))
    except ValueError as exc:
        raise IfsDocumentError(f"--line: {exc}") from None


def _sample_points(ifs: IfsSystem, args):
    """Attractor points by ``--depth`` (address words) or ``--count``
    (chaos game)."""
    _require(args.count is None or args.count >= 0, "--count must be >= 0")
    _require(args.depth is None or args.depth >= 0, "--depth must be >= 0")
    budget = _budget()
    if args.depth is not None:
        return address_points(ifs, args.depth, budget=budget)
    if args.count > budget:
        raise NodeBudgetExceeded(f"--count {args.count} exceeds the node budget {budget}")
    return chaos_game(ifs, args.count, args.seed)


def _cmd_bound(args) -> int:
    ifs = _load_system(args.input)
    if args.method == "auto":
        report = best_bounding_ball(ifs)
    elif args.method == "general":
        report = general_bounding_ball(ifs, center=args.center)
    else:
        report = circumcircle(ifs)
    _emit_record(_report_record(report))
    return 0


def _cmd_verify(args) -> int:
    ifs = _load_system(args.input)
    ball = _ball_from_args(ifs, args)
    slack = verify_containment(ifs, ball)
    ok = min(slack) >= -containment_tol(ball.r)
    _emit_record(
        {
            "center": _coords(ball.c).tolist(),
            "radius": ball.r,
            "slack": list(slack),
            "lambda_star": ifs.lambda_star,
            "mu_star": mu_star(ifs),
            "contained": ok,
        }
    )
    return 0 if ok else 1


def _cmd_tighten(args) -> int:
    ifs = _load_system(args.input)
    if args.center is not None or args.radius is not None:
        if args.center is None or args.radius is None:
            raise IfsDocumentError("--center and --radius must be given together")
        ball = _ball_from_args(ifs, args)
    else:
        ball = best_bounding_ball(ifs).ball
    report = tighten(ifs, ball, args.levels, budget=_budget())
    _emit_record(_report_record(report))
    return 0


def _cmd_intersect(args) -> int:
    ifs = _load_system(args.input)
    if ifs.dim != 2:
        print("error: the CLI line query is 2D only", file=sys.stderr)
        return 1
    _require(
        math.isfinite(args.eps) and args.eps > 0.0, "--eps must be a finite number > 0"
    )
    line = _line_from_args(args.line)
    result = intersect_line(ifs, line, args.eps, budget=_budget())
    _emit_record(
        {
            "intervals": [[h.t_lo, h.t_hi] for h in result.intervals],
            "truncated": result.truncated,
        }
    )
    return 0


def _cmd_sample(args) -> int:
    ifs = _load_system(args.input)
    if (args.depth is None) == (args.count is None):
        raise IfsDocumentError("give exactly one of --depth or --count")
    pts = _sample_points(ifs, args)
    sys.stdout.write('{"points": ' + _point_rows(pts) + "}\n")
    return 0


def _cmd_render(args) -> int:
    ifs = _load_system(args.input)
    if ifs.dim != 2:
        print("error: rendering is 2D only", file=sys.stderr)
        return 1
    pts = _sample_points(ifs, args)
    layers = [PointCloud(points=pts, radius_px=1.0)]
    general = general_bounding_ball(ifs, center="best")
    layers.append(CircleOutline(ball=general.ball, color=GENERAL_COLOR))
    try:
        layers.append(CircleOutline(ball=circumcircle(ifs).ball, color=CIRCUM_COLOR))
    except CircumcircleError:
        pass
    if args.line is not None:
        layers.append(LineSegment(line=_line_from_args(args.line)))
    doc = emit(Scene(layers=tuple(layers)))
    try:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(doc)
    except OSError as exc:
        raise IfsDocumentError(f"cannot write {args.out}: {exc}") from None
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ifsbound",
        description="bounding circles, verification, tightening, line "
        "intersection, sampling, and SVG rendering for similitude IFS fractals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="compute a bounding ball")
    p_bound.add_argument("--input", required=True, help="IFS JSON document")
    p_bound.add_argument(
        "--method", choices=("general", "circum", "auto"), default="auto"
    )
    p_bound.add_argument(
        "--center",
        choices=("optimal", "arithmetic", "harmonic", "best"),
        default="optimal",
        help="center strategy for the general method",
    )
    p_bound.set_defaults(func=_cmd_bound)

    p_verify = sub.add_parser("verify", help="check a ball's containment slack")
    p_verify.add_argument("--input", required=True)
    p_verify.add_argument(
        "--center", type=float, nargs="+", required=True, metavar="X"
    )
    p_verify.add_argument("--radius", type=float, required=True)
    p_verify.set_defaults(func=_cmd_verify)

    p_tighten = sub.add_parser("tighten", help="refine a verified bounding ball")
    p_tighten.add_argument("--input", required=True)
    p_tighten.add_argument("--center", type=float, nargs="+", metavar="X")
    p_tighten.add_argument("--radius", type=float)
    p_tighten.add_argument("--levels", type=int, default=1)
    p_tighten.set_defaults(func=_cmd_tighten)

    p_isect = sub.add_parser("intersect", help="fractal-line intersection intervals")
    p_isect.add_argument("--input", required=True)
    p_isect.add_argument(
        "--line",
        type=float,
        nargs=4,
        required=True,
        metavar=("AX", "AY", "UX", "UY"),
    )
    p_isect.add_argument("--eps", type=float, default=1e-3)
    p_isect.set_defaults(func=_cmd_intersect)

    p_sample = sub.add_parser("sample", help="sample attractor points")
    p_sample.add_argument("--input", required=True)
    p_sample.add_argument("--depth", type=int)
    p_sample.add_argument("--count", type=int)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.set_defaults(func=_cmd_sample)

    p_render = sub.add_parser("render", help="render attractor and circles to SVG")
    p_render.add_argument("--input", required=True)
    p_render.add_argument("--out", required=True)
    p_render.add_argument("--count", type=int, default=5000)
    p_render.add_argument("--seed", type=int, default=1)
    p_render.add_argument("--depth", type=int)
    p_render.add_argument(
        "--line", type=float, nargs=4, metavar=("AX", "AY", "UX", "UY")
    )
    p_render.set_defaults(func=_cmd_render)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # overflow shows as the error it causes, not as NumPy warnings
        with np.errstate(all="ignore"):
            return args.func(args)
    except IfsDocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, NodeBudgetExceeded) as exc:
        # also CircumcircleError, NonFiniteRecordError, float OverflowError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
