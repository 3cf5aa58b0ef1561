"""Seeded workloads of the ifsbound benchmark: inputs, operations, checks.

Each workload builds a *deck* of operations from the benchmark seed alone;
the library only ever receives the generated inputs.  A deck is stratified
(every size class appears in the same proportion for every seed) so that a
run's latency distribution depends on the seed's details, not on which
size classes the seed happened to draw.

Every workload offers the same four steps:

* ``build(lib, seed, workdir)``: the deck, a list of :class:`Op`;
* ``run(lib, op)``: the timed library call(s), returning the outputs;
* ``check(lib, op, out)``: ``None`` or the cause of a wrong output;
* ``digest(out)``: canonical bytes of the outputs, for determinism checks.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import xml.parsers.expat
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_library():
    """Import ``ifsbound`` from this checkout's ``src``, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ifsbound

    where = Path(ifsbound.__file__).resolve().parent
    if where != SRC / "ifsbound":
        raise ImportError(f"ifsbound imported from {where}, not from {SRC}")
    return ifsbound


@dataclass
class Op:
    """One deck entry: primitive parameters plus the library inputs built
    from them and any reference data the output check needs."""

    kind: str
    params: dict
    inputs: dict = field(default_factory=dict)
    ref: dict = field(default_factory=dict)
    cost: float = 0.0  # relative size, used to pick the warm-up op


def deck_fingerprint(deck) -> str:
    """Digest of the generated inputs (primitive parameters only)."""
    h = hashlib.sha256()
    for op in deck:
        h.update(json.dumps([op.kind, op.params], sort_keys=True).encode())
    return h.hexdigest()


def _rng(workload: str, seed: int) -> random.Random:
    # string seeds are hashed with SHA-512, independent of PYTHONHASHSEED
    return random.Random(f"ifsbound-bench:{workload}:{seed}")


# ---------------------------------------------------------------------------
# systems
# ---------------------------------------------------------------------------


def gen_system(rnd: random.Random, dim: int, n: int, lam_lo: float, lam_hi: float):
    """Primitive parameters of a random similitude system."""
    maps = []
    for _ in range(n):
        lam = rnd.uniform(lam_lo, lam_hi)
        angle = rnd.uniform(-math.pi, math.pi)
        if dim == 2:
            maps.append([rnd.uniform(-1, 1), rnd.uniform(-1, 1), lam, angle])
        else:
            p = [rnd.uniform(-1, 1) for _ in range(3)]
            axis = [rnd.gauss(0.0, 1.0) for _ in range(3)]
            maps.append(p + [lam] + axis + [angle])
    return {"dim": dim, "maps": maps}


def build_system(lib, spec):
    if spec["dim"] == 2:
        maps = tuple(
            lib.Similitude2(p=complex(x, y), phi=cmath.rect(lam, th))
            for x, y, lam, th in spec["maps"]
        )
    else:
        maps = tuple(
            lib.Similitude3.from_axis_angle(p=m[0:3], lam=m[3], axis=m[4:7], angle=m[7])
            for m in spec["maps"]
        )
    return lib.IfsSystem(maps=maps)


def system_document(spec) -> str:
    """The CLI input document of a system."""
    if spec["dim"] == 2:
        maps = [{"p": [x, y], "lambda": lam, "theta": th} for x, y, lam, th in spec["maps"]]
    else:
        maps = [
            {"p": m[0:3], "lambda": m[3], "axis": m[4:7], "angle": m[7]}
            for m in spec["maps"]
        ]
    return json.dumps({"dimension": spec["dim"], "maps": maps})


def attractor_point(ifs, rnd: random.Random, length: int):
    """An exact attractor member: a word image of a fixed point."""
    z = ifs.maps[rnd.randrange(ifs.n)].p
    for _ in range(length):
        z = ifs.maps[rnd.randrange(ifs.n)].apply(z)
    return z


def _fhex(x) -> str:
    if isinstance(x, complex):
        return float(x.real).hex() + "," + float(x.imag).hex()
    if hasattr(x, "tolist"):
        return ",".join(float(v).hex() for v in x.tolist())
    return float(x).hex()


def _ball_key(ball) -> str:
    return _fhex(ball.c) + ";" + _fhex(ball.r)


def _count_elements(svg: str, tag: str) -> int:
    """Parse an SVG document as XML and count ``<tag ...>`` elements;
    raises ``xml.parsers.expat.ExpatError`` when it is not well formed."""
    xml.parsers.expat.ParserCreate().Parse(svg, True)
    return svg.count(f"<{tag} ")


# ---------------------------------------------------------------------------
# refine: best_bounding_ball then tighten
# ---------------------------------------------------------------------------


class Refine:
    """Word counts n^L log-uniform from 10^2.5 to 10^5 (2D) or 10^4 (3D):
    every (dimension, map count, depth) class in that range appears
    ``REPEAT`` times per deck, each with its own random system.  The three
    classes of at least ``TOP`` words (about 6*10^4 each) appear twice as
    often, so that p90 falls inside that group instead of on the step
    between it and the next class, half its size."""

    name = "refine"
    in_process = True
    REPEAT = 4
    TOP = 5 * 10**4
    WORDS = {2: (10**2.5, 10**5), 3: (10**2.5, 10**4)}

    def classes(self):
        out = []
        for dim, (lo, hi) in self.WORDS.items():
            for n in (2, 3, 4):
                out += [(dim, n, L) for L in range(1, 40) if lo <= n**L <= hi]
        return out

    def build(self, lib, seed, workdir=None):
        rnd = _rng(self.name, seed)
        deck = []
        plan = [
            (dim, n, levels)
            for dim, n, levels in self.classes()
            for _ in range(self.REPEAT * (2 if n**levels >= self.TOP else 1))
        ]
        for dim, n, levels in plan:
            spec = gen_system(rnd, dim, n, 0.2, 0.6)
            ifs = build_system(lib, spec)
            deck.append(
                Op(
                    "refine",
                    {"system": spec, "levels": levels},
                    inputs={"ifs": ifs},
                    ref={"points": lib.address_points(ifs, 3)},
                    cost=float(n**levels),
                )
            )
        rnd.shuffle(deck)
        return deck

    def run(self, lib, op):
        ifs = op.inputs["ifs"]
        start = lib.best_bounding_ball(ifs)
        return start, lib.tighten(ifs, start.ball, op.params["levels"])

    def check(self, lib, op, out):
        start, tight = out
        if min(start.slack) < -lib.containment_tol(start.ball.r):
            return f"input ball slack {min(start.slack):.3e} below tolerance"
        if tight.ball.r > start.ball.r:
            return f"tightened radius {tight.ball.r!r} exceeds input {start.ball.r!r}"
        pts = op.ref["points"]
        c = tight.ball.c
        if isinstance(c, complex):
            far = max(abs(complex(p) - c) for p in pts)
        else:
            far = max(math.dist(p, c) for p in pts)
        if far > tight.ball.r + lib.containment_tol(tight.ball.r):
            return f"attractor point at {far!r} outside tightened radius {tight.ball.r!r}"
        return None

    def digest(self, out):
        start, tight = out
        return "|".join(
            [start.method, _ball_key(start.ball), tight.method, _ball_key(tight.ball)]
            + list(tight.notes)
        ).encode()


# ---------------------------------------------------------------------------
# sample_render: chaos_game or deduped address_points, then an SVG scene
# ---------------------------------------------------------------------------


class SampleRender:
    """Chaos-game counts log-uniform in [10^3.5, 10^4.5] (stratified); address
    depths cover every (map count, depth) class with n^(d+1) in
    [10^3.5, 1.5*10^5].  Address systems of even depth are *touching*:
    lambda = 1/2, no rotation and fixed points on a 1/64 grid, so
    T_i(p_j) = T_j(p_i) holds exactly and the dedupe has work to do; the
    rest are generic systems whose word images are all distinct."""

    name = "sample_render"
    in_process = True
    CHAOS = 88
    RAW = (10**3.5, 1.5 * 10**5)

    def address_classes(self):
        lo, hi = self.RAW
        return [(n, d) for n in (2, 3, 4) for d in range(1, 40) if lo <= n ** (d + 1) <= hi]

    def build(self, lib, seed, workdir=None):
        rnd = _rng(self.name, seed)
        plan = [("address", n, {"depth": d}) for n, d in self.address_classes()]
        for i in range(self.CHAOS):
            count = int(10 ** (3.5 + (i + rnd.random()) / self.CHAOS))
            plan.append(("chaos", rnd.choice((2, 3, 4)), {"count": count, "seed": rnd.getrandbits(32)}))
        deck = []
        for kind, n, params in plan:
            if kind == "address" and params["depth"] % 2 == 0:
                grid = [[rnd.randint(-64, 64) / 64, rnd.randint(-64, 64) / 64] for _ in range(n)]
                spec = {"dim": 2, "maps": [[x, y, 0.5, 0.0] for x, y in grid]}
            else:
                spec = gen_system(rnd, 2, n, 0.25, 0.6)
            cost = params["count"] if kind == "chaos" else n ** (params["depth"] + 1)
            deck.append(
                Op(kind, dict(params, system=spec), inputs={"ifs": build_system(lib, spec)}, cost=float(cost))
            )
        rnd.shuffle(deck)
        return deck

    def run(self, lib, op):
        ifs = op.inputs["ifs"]
        if op.kind == "chaos":
            pts = lib.chaos_game(ifs, op.params["count"], op.params["seed"])
        else:
            pts = lib.address_points(ifs, op.params["depth"])
        general = lib.general_bounding_ball(ifs, center="best")
        layers = [
            lib.PointCloud(points=pts, radius_px=1.0),
            lib.CircleOutline(ball=general.ball, color=lib.GENERAL_COLOR),
        ]
        circum = None
        if ifs.n in (2, 3):
            try:
                circum = (
                    lib.circumcircle_bifractal(ifs)
                    if ifs.n == 2
                    else lib.circumcircle_trifractal(ifs)
                )
            except lib.CircumcircleError:
                pass
        if circum is not None:
            layers.append(lib.CircleOutline(ball=circum.ball, color=lib.CIRCUM_COLOR))
        svg = lib.emit(lib.Scene(layers=tuple(layers)))
        return pts, general.ball, len(layers) - 1, svg

    def check(self, lib, op, out):
        pts, ball, outlines, svg = out
        far = float(np.max(np.abs(pts - ball.c))) if len(pts) else 0.0
        if far > ball.r + lib.containment_tol(ball.r):
            return f"sample point at {far!r} outside general radius {ball.r!r}"
        try:
            circles = _count_elements(svg, "circle")
        except xml.parsers.expat.ExpatError as exc:
            return f"SVG is not well-formed XML: {exc}"
        if circles != len(pts) + outlines:
            return f"SVG has {circles} circles, expected {len(pts) + outlines}"
        return None

    def digest(self, out):
        pts, ball, outlines, svg = out
        h = hashlib.sha256(pts.tobytes())
        h.update(_ball_key(ball).encode())
        h.update(svg.encode())
        return h.digest()


# ---------------------------------------------------------------------------
# line_query: intersect_line with the default bounding ball
# ---------------------------------------------------------------------------


class LineQuery:
    """eps log-uniform in [1e-6, 1e-3]; two thirds of the lines in 2D.

    Query cost grows with eps^-(D - codim) for similarity dimension
    D = log n / log(1/lambda), so D and eps are drawn as a Latin hypercube:
    each of ``COUNT`` strata of both appears once per deck, which keeps the
    latency distribution alike across seeds.  Most lines are anchored at an
    exact attractor point with a random direction; one in ``OUTSIDE_EVERY``
    is anchored outside the bounding ball and points past it, so it is
    pruned at the root."""

    name = "line_query"
    in_process = True
    COUNT = 300
    OUTSIDE_EVERY = 6
    EPS = (-6.0, -3.0)
    SIM_DIM = {2: (0.6, 2.2), 3: (1.0, 1.9)}
    BUDGET = 2 * 10**4

    def build(self, lib, seed, workdir=None):
        rnd = _rng(self.name, seed)
        lo, hi = self.EPS
        strata = list(range(self.COUNT))
        rnd.shuffle(strata)
        deck = []
        for i in range(self.COUNT):
            dim = 3 if i % 3 == 2 else 2
            n = rnd.choice((2, 3, 4))
            d_lo, d_hi = self.SIM_DIM[dim]
            sim_dim = d_lo + (d_hi - d_lo) * (strata[i] + rnd.random()) / self.COUNT
            lam = n ** (-1.0 / sim_dim)
            spec = gen_system(rnd, dim, n, 0.98 * lam, 1.02 * lam)
            ifs = build_system(lib, spec)
            eps = 10 ** (lo + (hi - lo) * (i + rnd.random()) / self.COUNT)
            outside = i % self.OUTSIDE_EVERY == 0
            if outside:
                ball = lib.best_bounding_ball(ifs).ball
                v = _unit(rnd, dim)
                scale = ball.r * rnd.uniform(1.2, 3.0)
                if dim == 2:
                    anchor, direction = ball.c + scale * v, 1j * v
                else:
                    anchor = ball.c + scale * v
                    direction = _cross(v, _unit(rnd, 3))
            else:
                anchor = attractor_point(ifs, rnd, rnd.randint(4, 12))
                direction = _unit(rnd, dim)
            params = {
                "system": spec,
                "eps": eps,
                "anchor": _plain(anchor),
                "direction": _plain(direction),
                "outside": outside,
            }
            line = lib.Line(anchor, direction)
            deck.append(Op("line", params, inputs={"ifs": ifs, "line": line}, cost=0.0 if outside else 1.0))
        rnd.shuffle(deck)
        return deck

    def run(self, lib, op):
        return lib.intersect_line(
            op.inputs["ifs"], op.inputs["line"], op.params["eps"], budget=self.BUDGET
        )

    def check(self, lib, op, out):
        ivs = out.intervals
        for a, b in zip(ivs, ivs[1:]):
            if not a.t_hi < b.t_lo:
                return f"intervals not sorted and disjoint: [{a.t_lo!r}, {a.t_hi!r}] then [{b.t_lo!r}, {b.t_hi!r}]"
        if op.params["outside"]:
            return f"line outside the bounding ball returned {len(ivs)} intervals" if ivs else None
        if not any(h.t_lo <= 0.0 <= h.t_hi for h in ivs):
            return "anchor parameter 0 lies in no returned interval"
        return None

    def digest(self, out):
        body = ";".join(_fhex(h.t_lo) + "," + _fhex(h.t_hi) for h in out.intervals)
        return f"{out.truncated}|{body}".encode()


def _unit(rnd, dim):
    if dim == 2:
        return cmath.rect(1.0, rnd.uniform(-math.pi, math.pi))
    v = np.array([rnd.gauss(0.0, 1.0) for _ in range(3)])
    return v / np.linalg.norm(v)


def _cross(a, b):
    v = np.cross(a, b)
    return v / np.linalg.norm(v)


def _plain(z):
    if isinstance(z, complex):
        return [z.real, z.imag]
    return [float(v) for v in z]


# ---------------------------------------------------------------------------
# cli: one `python -m ifsbound.cli` child process per op
# ---------------------------------------------------------------------------


def _strict_json(text: str):
    def reject(name):
        raise ValueError(f"non-finite constant {name}")

    return json.loads(text, parse_constant=reject)


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv, env):
    """Run ``argv``; return (exit code, stdout, stderr, peak RSS in KiB).

    The child's own peak RSS comes from ``wait4``, so set-up processes and
    earlier children never mix into it.  stderr is read after stdout, which
    is safe while a child writes less than a pipe buffer to stderr (the CLI
    writes at most a warning and one error line)."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        out, err = proc.stdout.read(), proc.stderr.read()
    finally:
        proc.stdout.close()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, err, usage.ru_maxrss


class Cli:
    """All six subcommands on small 2D/3D documents; 24 of the 200 ops take a
    documented error path (malformed document: exit 2; collinear
    ``--method circum``: exit 1).  A pass takes 40-60 s, so a 60 s run
    times every call exactly once: a call's best of two or three passes
    would read lower than a single call, and the pass count would then
    depend on how fast the machine happened to be."""

    name = "cli"
    in_process = False
    DOCS = 8
    env = cli_env()
    child_peak_kib = 0

    def build(self, lib, seed, workdir):
        rnd = _rng(self.name, seed)
        workdir = Path(workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        specs = [gen_system(rnd, 2 if i < 6 else 3, rnd.choice((2, 3, 4)), 0.25, 0.55) for i in range(self.DOCS)]
        docs = []
        for i, spec in enumerate(specs):
            path = workdir / f"system{i}.json"
            path.write_text(system_document(spec))
            docs.append(str(path))
        collinear = workdir / "collinear.json"
        t = [rnd.uniform(-1, 1) for _ in range(3)]
        collinear.write_text(
            system_document({"dim": 2, "maps": [[x, 0.5 * x, 0.4, 0.0] for x in t]})
        )
        malformed = workdir / "malformed.json"
        malformed.write_text('{"dimension": 2, "maps": [{"p": [0, 0], "phi": [0.5, 0]}')

        plan = []

        def add(argv, expect=0, out=None):
            plan.append({"argv": argv, "expect": expect, "out": out})

        twod = list(range(6))
        for i in range(40):
            k = rnd.randrange(self.DOCS)
            method = ("auto", "general", "general")[i % 3]
            add(["bound", "--input", docs[k], "--method", method,
                 "--center", rnd.choice(("optimal", "arithmetic", "harmonic", "best"))])
        for i in range(24):
            k = rnd.randrange(self.DOCS)
            ball = lib.general_bounding_ball(build_system(lib, specs[k])).ball
            center = [repr(v) for v in _plain(ball.c)]
            add(["verify", "--input", docs[k], "--center", *center, "--radius", repr(ball.r * 1.05)])
        for i in range(24):
            k = rnd.randrange(self.DOCS)
            add(["tighten", "--input", docs[k], "--levels", str(rnd.randint(2, 5))])
        for i in range(32):
            k = rnd.choice(twod)
            ifs = build_system(lib, specs[k])
            a = attractor_point(ifs, rnd, 6)
            u = _unit(rnd, 2)
            eps = 10 ** rnd.uniform(-3, -2)
            add(["intersect", "--input", docs[k], "--line",
                 repr(a.real), repr(a.imag), repr(u.real), repr(u.imag), "--eps", repr(eps)])
        for i in range(32):
            k = rnd.randrange(self.DOCS)
            if i % 2:
                add(["sample", "--input", docs[k], "--depth", str(rnd.randint(3, 5))])
            else:
                add(["sample", "--input", docs[k], "--count", str(rnd.randint(200, 1000)),
                     "--seed", str(rnd.getrandbits(32))])
        for i in range(24):
            k = rnd.choice(twod)
            out = str(workdir / f"render{i}.svg")
            add(["render", "--input", docs[k], "--out", out, "--count", str(rnd.randint(500, 2000)),
                 "--seed", str(rnd.getrandbits(32))], out=out)
        for i in range(12):
            add(["bound", "--input", str(malformed)], expect=2)
            add(["bound", "--input", str(collinear), "--method", "circum"], expect=1)

        deck = []
        for entry in plan:
            # paths differ between checkouts; the fingerprint keeps only names
            shown = [Path(a).name if a.startswith(str(workdir)) else a for a in entry["argv"]]
            deck.append(
                Op(
                    entry["argv"][0],
                    {"argv": shown, "expect": entry["expect"]},
                    inputs={"argv": entry["argv"], "out": entry["out"]},
                    cost=0.0 if entry["argv"][0] == "bound" and entry["expect"] == 0 else 1.0,
                )
            )
        rnd.shuffle(deck)
        return deck

    def run(self, lib, op):
        argv = [sys.executable, "-m", "ifsbound.cli", *op.inputs["argv"]]
        code, out, err, rss_kib = run_child(argv, self.env)
        self.child_peak_kib = max(self.child_peak_kib, rss_kib)
        svg = None
        if op.inputs["out"] is not None and code == 0:
            svg = Path(op.inputs["out"]).read_text()
        return code, out, err, svg, rss_kib

    def run_in_process(self, lib, op):
        """The same argv through ``ifsbound.cli.main`` in this process."""
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return lib.cli.main(op.inputs["argv"])

    def check(self, lib, op, out):
        code, stdout, stderr, svg, _ = out
        expect = op.params["expect"]
        if code != expect:
            tail = stderr.decode(errors="replace").strip().splitlines()[-1:] or [""]
            return f"exit {code}, expected {expect}: {tail[0]}"
        if expect != 0 or op.kind == "render":
            if stdout:
                return f"{len(stdout)} bytes on stdout, expected none"
        else:
            try:
                record = _strict_json(stdout.decode())
            except ValueError as exc:
                return f"stdout is not strict JSON: {exc}"
            if not isinstance(record, dict):
                return "stdout record is not a JSON object"
        if expect != 0:
            lines = stderr.decode(errors="replace").strip().splitlines()
            if not lines or not lines[-1].startswith("error: "):
                return "error path printed no 'error: ' line on stderr"
        if svg is not None:
            try:
                circles = _count_elements(svg, "circle")
            except xml.parsers.expat.ExpatError as exc:
                return f"SVG is not well-formed XML: {exc}"
            count = int(op.inputs["argv"][op.inputs["argv"].index("--count") + 1])
            if circles - count not in (1, 2):
                return f"SVG has {circles} circles for {count} points"
        return None

    def digest(self, out):
        code, stdout, _, svg, _ = out
        return b"%d|" % code + stdout + b"|" + (svg or "").encode()


WORKLOADS = {w.name: w for w in (Refine(), SampleRender(), LineQuery(), Cli())}
