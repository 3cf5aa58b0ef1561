"""Command-line front end: ``ifsbound <subcommand> --input FILE ...``.

Input documents are JSON with a ``dimension`` key (2 or 3) and a ``maps``
array.  Plane maps carry ``{"p": [x, y], "phi": [re, im]}`` or
``{"p": [x, y], "lambda": l, "theta": t}``; space maps carry
``{"p": [x, y, z], "lambda": l, "axis": [x, y, z], "angle": a}``.  Angles
are radians.

Data records are emitted on stdout as a single JSON object with numbers at
12 significant digits; diagnostics go to stderr only.  Exit codes: 0 on
success, 1 on domain errors (failed verification, collinear circumcircle,
budget exhaustion), 2 on usage or document errors.  ``run``, the process
entry, is ``main`` followed by an exit without the final garbage collections.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
import warnings
from typing import TYPE_CHECKING

import numpy as np

from . import _bind, _lookup
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
    _certified,
    best_bounding_ball,
    circumcircle,
    general_bounding_ball,
    mu_star,
    tighten,
    verify_containment,  # noqa: F401  (a lookup site bench/tracer.py wraps)
)

if TYPE_CHECKING:  # for type checkers; at run time _bind binds it on first use
    from .queries import Line


def __getattr__(name):
    return _lookup(globals(), name)


class NonFiniteRecordError(ValueError):
    """An output record would hold NaN or infinity, which JSON cannot."""


# ---------------------------------------------------------------------------
# record emission (12 significant digits, fixed key order)
# ---------------------------------------------------------------------------


# every record number is written with _NUM after adding 0.0, which turns
# -0.0 into 0.0 and keeps every other value
_NUM = "%.12g"


def _jnum(x) -> str:
    v = float(x) + 0.0
    if not math.isfinite(v):
        raise NonFiniteRecordError(f"non-finite number {v!r} in the output record")
    return _NUM % v


def _jval(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, float):
        return _jnum(v)
    if isinstance(v, np.ndarray):
        return _point_rows(v)
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_jval(x) for x in v) + "]"
    if isinstance(v, dict):
        return "{" + ", ".join(json.dumps(k) + ": " + _jval(x) for k, x in v.items()) + "}"
    raise TypeError(f"cannot serialize {v!r}")


def _point_rows(pts: np.ndarray) -> str:
    """The coordinate rows of a complex or ``(N, 3)`` point array as
    ``_jval`` writes them, formatted flat: its recursion would cost most of
    a large ``sample``."""
    flat = _rows(pts)
    bad = flat[~np.isfinite(flat)]
    if len(bad):
        _jnum(bad[0])  # raises NonFiniteRecordError
    row = "[" + ", ".join([_NUM] * flat.shape[1]) + "]"
    return "[" + ", ".join(row % tuple(r) for r in (flat + 0.0).tolist()) + "]"


def _ball_record(ifs: IfsSystem, ball: Ball, slack) -> dict:
    return {
        "center": _coords(ball.c).tolist(),
        "radius": ball.r,
        "slack": list(slack),
        "lambda_star": ifs.lambda_star,
        "mu_star": mu_star(ifs),
    }


def _report_record(ifs: IfsSystem, report: BoundReport) -> dict:
    return {
        "method": report.method,
        **_ball_record(ifs, report.ball, report.slack),
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
    _bind(globals(), "queries")  # bound on use: most calls need neither module
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


def _cmd_bound(ifs: IfsSystem, args) -> dict:
    if args.method == "auto":
        report = best_bounding_ball(ifs)
    elif args.method == "general":
        report = general_bounding_ball(ifs, center=args.center)
    else:
        report = circumcircle(ifs)
    return _report_record(ifs, report)


def _cmd_verify(ifs: IfsSystem, args) -> dict:
    ball = _ball_from_args(ifs, args)
    slack, contained = _certified(ifs, ball)
    return {**_ball_record(ifs, ball, slack), "contained": contained}


def _cmd_tighten(ifs: IfsSystem, args) -> dict:
    _require(args.levels >= 0, "--levels must be >= 0")
    if args.center is not None or args.radius is not None:
        _require(None not in (args.center, args.radius), "--center and --radius must be given together")
        ball = _ball_from_args(ifs, args)
    else:
        ball = best_bounding_ball(ifs).ball
    return _report_record(ifs, tighten(ifs, ball, args.levels, budget=_budget()))


def _cmd_intersect(ifs: IfsSystem, args) -> dict:
    if ifs.dim != 2:
        raise ValueError("the CLI line query is 2D only")
    _bind(globals(), "queries")
    _require(
        math.isfinite(args.eps) and args.eps > 0.0, "--eps must be a finite number > 0"
    )
    line = _line_from_args(args.line)
    result = intersect_line(ifs, line, args.eps, budget=_budget())
    return {
        "intervals": [[h.t_lo, h.t_hi] for h in result.intervals],
        "truncated": result.truncated,
    }


def _cmd_sample(ifs: IfsSystem, args) -> dict:
    _require((args.depth is None) != (args.count is None), "give exactly one of --depth or --count")
    return {"points": _sample_points(ifs, args)}


def _cmd_render(ifs: IfsSystem, args) -> None:
    if ifs.dim != 2:
        raise ValueError("rendering is 2D only")
    _bind(globals(), "render")
    pts = _sample_points(ifs, args)
    layers = [PointCloud(points=pts, radius_px=1.0)]
    general = general_bounding_ball(ifs)
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


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error:`` line (exit 2), without the
    usage block; subparsers inherit the class."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ifsbound",
        description="bounding circles, verification, tightening, line "
        "intersection, sampling, and SVG rendering for similitude IFS fractals",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", required=True, help="IFS JSON document")
    line = dict(type=float, nargs=4, metavar=("AX", "AY", "UX", "UY"))  # --line's spec

    def command(name, func, summary):
        p = sub.add_parser(name, parents=[common], help=summary)
        p.set_defaults(func=func)
        return p

    def ball_options(p, required):
        p.add_argument("--center", type=float, nargs="+", required=required, metavar="X")
        p.add_argument("--radius", type=float, required=required)

    p_bound = command("bound", _cmd_bound, "compute a bounding ball")
    p_bound.add_argument(
        "--method", choices=("general", "circum", "auto"), default="auto"
    )
    p_bound.add_argument(
        "--center",
        choices=("optimal", "arithmetic", "harmonic", "best"),
        default="optimal",
        help="center strategy for the general method (best: the smallest-circle center, as optimal)",
    )

    ball_options(command("verify", _cmd_verify, "check a ball's containment slack"), required=True)

    p_tighten = command("tighten", _cmd_tighten, "refine a verified bounding ball")
    ball_options(p_tighten, required=False)
    p_tighten.add_argument("--levels", type=int, default=1)

    p_isect = command("intersect", _cmd_intersect, "fractal-line intersection intervals")
    p_isect.add_argument("--line", required=True, **line)
    p_isect.add_argument("--eps", type=float, default=1e-3)

    p_sample = command("sample", _cmd_sample, "sample attractor points")
    p_sample.add_argument("--depth", type=int)
    p_sample.add_argument("--count", type=int)
    p_sample.add_argument("--seed", type=int, default=0)

    p_render = command("render", _cmd_render, "render attractor and circles to SVG")
    p_render.add_argument("--out", required=True)
    p_render.add_argument("--count", type=int, default=5000)
    p_render.add_argument("--seed", type=int, default=1)
    p_render.add_argument("--depth", type=int)
    p_render.add_argument("--line", **line)
    return parser


def _warning_line(message, category, filename, lineno, file=None, line=None):
    """Show a warning as one ``warning:`` line on stderr."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # overflow shows as the error it causes, not as NumPy warnings
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.showwarning = _warning_line
            record = args.func(_load_system(args.input), args)
            if record is not None:
                sys.stdout.write(_jval(record) + "\n")
    except IfsDocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, NodeBudgetExceeded) as exc:
        # also CircumcircleError and NonFiniteRecordError; Python's overflow
        # text, e.g. "(34, 'Numerical result out of range')", names no cause
        cause = "floating-point overflow: " if isinstance(exc, OverflowError) else ""
        print(f"error: {cause}{exc}", file=sys.stderr)
        return 1
    return 0 if (record or {}).get("contained", True) else 1


def run() -> None:
    """``main`` as a process: frozen objects are skipped by the collections
    at exit, and streams, atexit handlers and module teardown are as usual."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
