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
    IfsSystem,
    NodeBudgetExceeded,
    DEFAULT_NODE_BUDGET,
    Similitude2,
    Similitude3,
    address_points,
    chaos_game,
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


class IfsDocumentError(ValueError):
    """Malformed or invalid IFS input document or command-line value."""


class NonFiniteRecordError(ValueError):
    """An output record would hold NaN or infinity, which JSON cannot."""


# ---------------------------------------------------------------------------
# document parsing and serialization
# ---------------------------------------------------------------------------


def _floats(value, count, what):
    if not isinstance(value, (list, tuple)) or len(value) != count:
        raise IfsDocumentError(f"{what} must be a list of {count} numbers")
    try:
        return [float(v) for v in value]
    except (TypeError, ValueError):
        raise IfsDocumentError(f"{what} must contain numbers") from None


def parse_ifs(text: str) -> IfsSystem:
    """Parse and validate an IFS document, raising IfsDocumentError."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise IfsDocumentError(
            f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(doc, dict):
        raise IfsDocumentError("document root must be an object")
    dim = doc.get("dimension")
    if dim not in (2, 3):
        raise IfsDocumentError("dimension must be 2 or 3")
    recs = doc.get("maps")
    if not isinstance(recs, list) or not recs:
        raise IfsDocumentError("maps must be a nonempty array")
    maps = []
    for i, rec in enumerate(recs, start=1):
        if not isinstance(rec, dict):
            raise IfsDocumentError(f"map {i} must be an object")
        try:
            if dim == 2:
                px, py = _floats(rec.get("p"), 2, f"map {i} p")
                if "phi" in rec:
                    re, im = _floats(rec["phi"], 2, f"map {i} phi")
                    phi = complex(re, im)
                elif "lambda" in rec and "theta" in rec:
                    lam = float(rec["lambda"])
                    theta = float(rec["theta"])
                    phi = lam * complex(math.cos(theta), math.sin(theta))
                else:
                    raise IfsDocumentError(
                        f"map {i} needs either phi or lambda+theta"
                    )
                if not 0.0 < abs(phi) < 1.0:
                    raise IfsDocumentError(
                        f"map {i} is not a contraction (|phi| = {abs(phi):.6g})"
                    )
                maps.append(Similitude2(p=complex(px, py), phi=phi))
            else:
                p = _floats(rec.get("p"), 3, f"map {i} p")
                if "lambda" not in rec:
                    raise IfsDocumentError(f"map {i} needs lambda")
                lam = float(rec["lambda"])
                if not 0.0 < lam < 1.0:
                    raise IfsDocumentError(
                        f"map {i} is not a contraction (lambda = {lam:.6g})"
                    )
                axis = _floats(rec.get("axis"), 3, f"map {i} axis")
                if not any(axis):
                    raise IfsDocumentError(f"map {i} axis must be nonzero")
                angle = float(rec.get("angle", 0.0))
                maps.append(
                    Similitude3.from_axis_angle(p=p, lam=lam, axis=axis, angle=angle)
                )
        except IfsDocumentError:
            raise
        except (TypeError, ValueError) as exc:
            raise IfsDocumentError(f"map {i}: {exc}") from None
    return IfsSystem(maps=tuple(maps))


def _axis_angle_of(rot: np.ndarray):
    """Recover (axis, angle) from a rotation matrix via quaternion extraction."""
    m = rot
    t = float(np.trace(m))
    if t > 0.0:
        s = math.sqrt(t + 1.0) * 2.0
        w = 0.25 * s
        x = (m[2, 1] - m[1, 2]) / s
        y = (m[0, 2] - m[2, 0]) / s
        z = (m[1, 0] - m[0, 1]) / s
    elif m[0, 0] > m[1, 1] and m[0, 0] > m[2, 2]:
        s = math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
        w = (m[2, 1] - m[1, 2]) / s
        x = 0.25 * s
        y = (m[0, 1] + m[1, 0]) / s
        z = (m[0, 2] + m[2, 0]) / s
    elif m[1, 1] > m[2, 2]:
        s = math.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
        w = (m[0, 2] - m[2, 0]) / s
        x = (m[0, 1] + m[1, 0]) / s
        y = 0.25 * s
        z = (m[1, 2] + m[2, 1]) / s
    else:
        s = math.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
        w = (m[1, 0] - m[0, 1]) / s
        x = (m[0, 2] + m[2, 0]) / s
        y = (m[1, 2] + m[2, 1]) / s
        z = 0.25 * s
    if w < 0.0:
        w, x, y, z = -w, -x, -y, -z
    norm_v = math.sqrt(x * x + y * y + z * z)
    if norm_v < 1e-300:
        return (0.0, 0.0, 1.0), 0.0
    return (x / norm_v, y / norm_v, z / norm_v), 2.0 * math.atan2(norm_v, w)


def serialize_ifs(ifs: IfsSystem) -> str:
    """Emit a document that parses back to the same system."""

    def num(x):
        return float(f"{float(x):.17g}")

    recs = []
    if ifs.dim == 2:
        for m in ifs.maps:
            recs.append(
                {"p": [num(m.p.real), num(m.p.imag)], "phi": [num(m.phi.real), num(m.phi.imag)]}
            )
    else:
        for m in ifs.maps:
            axis, angle = _axis_angle_of(m.rot)
            recs.append(
                {
                    "p": [num(v) for v in m.p],
                    "lambda": num(m.lam),
                    "axis": [num(v) for v in axis],
                    "angle": num(angle),
                }
            )
    return json.dumps({"dimension": ifs.dim, "maps": recs}, indent=2) + "\n"


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
    if isinstance(v, complex):
        return "[" + _jnum(v.real) + ", " + _jnum(v.imag) + "]"
    if isinstance(v, np.ndarray):
        return _jval(v.tolist())
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_jval(x) for x in v) + "]"
    if isinstance(v, dict):
        return "{" + ", ".join(json.dumps(k) + ": " + _jval(x) for k, x in v.items()) + "}"
    raise TypeError(f"cannot serialize {v!r}")


def _emit_record(record: dict) -> None:
    sys.stdout.write(_jval(record) + "\n")


def _point_list(c) -> list:
    if isinstance(c, complex):
        return [c.real, c.imag]
    return [float(v) for v in c]


def _report_record(report: BoundReport) -> dict:
    return {
        "method": report.method,
        "center": _point_list(report.ball.c),
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
    center = args.center
    if len(center) != ifs.dim:
        raise IfsDocumentError(
            f"--center needs {ifs.dim} coordinates for this system"
        )
    c = complex(center[0], center[1]) if ifs.dim == 2 else np.array(center)
    try:
        return Ball(c, args.radius)
    except ValueError as exc:
        raise IfsDocumentError(f"--center/--radius: {exc}") from None


def _sample_points(ifs: IfsSystem, args):
    """Attractor points by ``--depth`` (address words) or ``--count``
    (chaos game)."""
    _require(args.count is None or args.count >= 0, "--count must be >= 0")
    _require(args.depth is None or args.depth >= 0, "--depth must be >= 0")
    if args.depth is not None:
        return address_points(ifs, args.depth, budget=_budget())
    return chaos_game(ifs, args.count, args.seed)


def _cmd_bound(args) -> int:
    ifs = _load_system(args.input)
    if args.method == "auto":
        report = best_bounding_ball(ifs)
    elif args.method == "general":
        report = general_bounding_ball(ifs, center=args.center)
    else:  # circum; CircumcircleError exits 1 from main
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
            "center": _point_list(ball.c),
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
    try:
        report = tighten(ifs, ball, args.levels, budget=_budget())
    except (ValueError, NodeBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
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
    ax, ay, ux, uy = args.line
    try:
        line = Line(complex(ax, ay), complex(ux, uy))
        result = intersect_line(ifs, line, args.eps, budget=_budget())
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
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
    try:
        pts = _sample_points(ifs, args)
    except NodeBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if ifs.dim == 2:
        listed = [[z.real, z.imag] for z in pts]
    else:
        listed = [list(map(float, row)) for row in pts]
    _emit_record({"points": listed})
    return 0


def _cmd_render(args) -> int:
    ifs = _load_system(args.input)
    if ifs.dim != 2:
        print("error: rendering is 2D only", file=sys.stderr)
        return 1
    pts = _sample_points(ifs, args)
    layers = [PointCloud(points=tuple(pts), radius_px=1.0)]
    general = general_bounding_ball(ifs, center="best")
    layers.append(CircleOutline(ball=general.ball, color=GENERAL_COLOR))
    try:
        layers.append(CircleOutline(ball=circumcircle(ifs).ball, color=CIRCUM_COLOR))
    except CircumcircleError:
        pass
    if args.line is not None:
        ax, ay, ux, uy = args.line
        layers.append(LineSegment(line=Line(complex(ax, ay), complex(ux, uy))))
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
        return args.func(args)
    except IfsDocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CircumcircleError, NodeBudgetExceeded, NonFiniteRecordError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
