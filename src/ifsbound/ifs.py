"""Similitude IFS data model, JSON documents, map application, and sampling.

2D points are plain Python complex numbers; 3D points are float64 NumPy
vectors of shape (3,).  Only this module knows that format: the other
modules read and build points through its private converters below.  A map
is a contraction ``z -> p + phi*(z - p)`` in the plane
(``phi = lam * exp(i*theta)``, ``0 < lam < 1``) or
``z -> p + lam * R @ (z - p)`` in space with ``R`` a proper rotation.

Address words are tuples of 1-based map indices; word ``(w1, ..., wL)``
names the composition that applies map ``wL`` first and map ``w1`` last.
"""

from __future__ import annotations

import cmath
import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence, Union

import numpy as np

from .rng import SplitMix64

DEFAULT_NODE_BUDGET = 10**6
DEFAULT_BURN_IN = 20

Point = Union[complex, np.ndarray]
AddressWord = tuple  # tuple of 1-based map indices


class NodeBudgetExceeded(RuntimeError):
    """Raised when a tree enumeration would produce more leaves than allowed."""


_NUMBER = (complex, float, int)  # a plane point given as one number


def _as_point(value, dim=None, name="point") -> Point:
    """``value`` in the point format: a number or a real pair becomes a
    finite ``complex``, a 3-sequence a finite read-only ``(3,)`` float copy.
    ``dim``, if given, is the dimension the point must have."""
    # plain Python floats where possible: NumPy calls cost microseconds each
    if isinstance(value, _NUMBER):
        z = complex(value)
        finite = cmath.isfinite(z)
    else:
        v = np.array(value, dtype=float)
        if v.shape not in ((2,), (3,)):
            raise ValueError(f"{name} must be a number, a real pair or a 3-vector, got shape {v.shape}")
        v.setflags(write=False)
        xs = v.tolist()
        finite = all(map(math.isfinite, xs))
        z = complex(*xs) if len(xs) == 2 else v
    if not finite:
        raise ValueError(f"non-finite {name}")
    if dim is not None and point_dim(z) != dim:
        raise ValueError(f"expected a {dim}D {name}, got a {point_dim(z)}D one")
    return z


def _point_of(xs) -> Point:
    """The point with the finite coordinates ``xs``, a list or tuple of
    two or three floats."""
    return complex(*xs) if len(xs) == 2 else _as_point(xs)


def _as_direction(value, dim: int) -> Point:
    """A nonzero direction of dimension ``dim`` scaled to unit length.  A
    number is divided by its modulus, a sequence by its vector norm, as the
    two round apart."""
    u = _as_point(value, dim, "direction")
    scalar = isinstance(value, _NUMBER)
    norm = abs(u) if scalar else float(np.linalg.norm(_coords(u)))
    if not 0.0 < norm < math.inf:
        raise ValueError("direction must be nonzero, with a finite length")
    return u / norm if scalar else _as_point(_coords(u) / norm)


def _coords(z: Point) -> np.ndarray:
    """A point as a float vector of its coordinates."""
    return np.array([z.real, z.imag]) if isinstance(z, complex) else np.asarray(z, float)


def _rows(pts) -> np.ndarray:
    """Points as an ``(N, d)`` float array: a view, not a copy, of a complex
    1-D array or of a float ``(N, 2|3)`` array of coordinate rows.  A real
    1-D array holds points on the real axis."""
    a = np.asarray(pts)
    if a.ndim == 1:
        return a.astype(complex, copy=False)[:, None].view(float)
    if a.ndim != 2 or a.shape[1] not in (2, 3) or a.dtype.kind == "c":
        raise ValueError(f"points must be 2D or 3D, got shape {a.shape[1:]}")
    return a.astype(float, copy=False)


def _points(rows: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_rows` on C-ordered rows: a complex view, or the rows."""
    return rows.view(complex)[:, 0] if rows.shape[1] == 2 else rows


@dataclass(frozen=True)
class Similitude2:
    """Plane contraction ``z -> p + phi*(z - p)`` with fixed point ``p``."""

    p: complex
    phi: complex

    def __post_init__(self):
        object.__setattr__(self, "p", complex(self.p))
        object.__setattr__(self, "phi", complex(self.phi))
        if not (cmath.isfinite(self.p) and cmath.isfinite(self.phi)):
            raise ValueError("non-finite map parameter")
        if not 0.0 < abs(self.phi) < 1.0:
            raise ValueError(f"not a contraction (|phi| = {abs(self.phi):.6g})")

    @cached_property
    def lam(self) -> float:
        """Contraction factor |phi|."""
        return abs(self.phi)

    @property
    def theta(self) -> float:
        """Rotation angle arg(phi) in (-pi, pi]."""
        return cmath.phase(self.phi)

    @cached_property
    def mu(self) -> float:
        """Displacement factor mu = |1 - phi|: ``|T(z) - z| = mu * |z - p|``."""
        return abs(1.0 - self.phi)

    @property
    def dim(self) -> int:
        return 2

    def apply(self, z: complex) -> complex:
        return self.p + self.phi * (z - self.p)


@dataclass(frozen=True)
class Similitude3:
    """Space contraction ``z -> p + lam * R @ (z - p)``.

    ``rot`` must already be a proper rotation; raw matrices are validated,
    not repaired.  Use :meth:`from_axis_angle` to build one safely.
    """

    p: np.ndarray
    lam: float
    rot: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", _as_point(self.p, 3, "fixed point"))
        object.__setattr__(self, "lam", float(self.lam))
        if not math.isfinite(self.lam):
            raise ValueError("non-finite map parameter")
        if not 0.0 < self.lam < 1.0:
            raise ValueError(f"not a contraction (lambda = {self.lam:.6g})")
        rot = np.array(self.rot, dtype=float)
        if rot.shape != (3, 3):
            raise ValueError("rotation must be a 3x3 matrix")
        if not np.all(np.isfinite(rot)):
            raise ValueError("non-finite rotation matrix")
        if np.max(np.abs(rot.T @ rot - np.eye(3))) > 1e-12:
            raise ValueError("rotation matrix is not orthogonal to 1e-12")
        if np.linalg.det(rot) < 0.0:
            raise ValueError("rotation matrix has negative determinant")
        rot.setflags(write=False)
        object.__setattr__(self, "rot", rot)

    @classmethod
    def from_axis_angle(cls, p, lam: float, axis, angle: float) -> "Similitude3":
        """Build with a Rodrigues rotation about ``axis`` by ``angle`` radians."""
        a = np.asarray(axis, dtype=float)
        norm = float(np.linalg.norm(a))
        if norm == 0.0 or not np.isfinite(norm):
            raise ValueError("rotation axis must be a nonzero finite vector")
        x, y, z = a / norm
        c, s = math.cos(angle), math.sin(angle)
        t = 1.0 - c
        rot = np.array(
            [
                [t * x * x + c, t * x * y - s * z, t * x * z + s * y],
                [t * x * y + s * z, t * y * y + c, t * y * z - s * x],
                [t * x * z - s * y, t * y * z + s * x, t * z * z + c],
            ]
        )
        return cls(p=p, lam=lam, rot=rot)

    @cached_property
    def mu(self) -> float:
        """Displacement factor mu = ||I - lam R||: ``|T(z) - z| <= mu * |z - p|``."""
        return mu_norm(self)

    @property
    def dim(self) -> int:
        return 3

    def apply(self, z: np.ndarray) -> np.ndarray:
        return self.p + self.lam * (self.rot @ (np.asarray(z, dtype=float) - self.p))


def mu_norm(m: Similitude3) -> float:
    """Spectral norm of ``I - lam * R`` for a space similitude.

    Equals ``sqrt(1 + lam^2 - 2*lam*cos(theta))`` where ``theta`` is the
    rotation angle recovered from the matrix trace, the largest singular
    value of ``I - lam * R``.
    """
    cos_theta = (float(np.trace(m.rot)) - 1.0) / 2.0
    cos_theta = min(1.0, max(-1.0, cos_theta))
    return math.sqrt(max(0.0, 1.0 + m.lam * m.lam - 2.0 * m.lam * cos_theta))


Similitude = Union[Similitude2, Similitude3]


@dataclass(frozen=True)
class IfsSystem:
    """Ordered, dimension-homogeneous list of similitudes."""

    maps: tuple

    def __post_init__(self):
        maps = tuple(self.maps)
        if not maps:
            raise ValueError("an IFS needs at least one map")
        for m in maps:
            if not isinstance(m, (Similitude2, Similitude3)):
                raise TypeError(f"not a similitude: {m!r}")
        if len({m.dim for m in maps}) != 1:
            raise ValueError("all maps must share one dimension")
        object.__setattr__(self, "maps", maps)

    @property
    def n(self) -> int:
        return len(self.maps)

    @property
    def dim(self) -> int:
        return self.maps[0].dim

    @cached_property
    def fixed_points(self) -> tuple:
        return tuple(m.p for m in self.maps)

    @cached_property
    def lambda_star(self) -> float:
        """Largest contraction factor of the system."""
        return max(m.lam for m in self.maps)


class IfsDocumentError(ValueError):
    """Malformed or invalid IFS input document or command-line value."""


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
            p = _floats(rec.get("p"), dim, f"map {i} p")
            if dim == 2:
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
                maps.append(Similitude2(p=complex(*p), phi=phi))
            else:
                if "lambda" not in rec:
                    raise IfsDocumentError(f"map {i} needs lambda")
                lam = float(rec["lambda"])
                axis = _floats(rec.get("axis"), 3, f"map {i} axis")
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
    """Recover (axis, angle) from a rotation matrix by Shepperd's quaternion extraction."""
    m = rot
    t = float(np.trace(m))
    if t > 0.0:
        s = math.sqrt(t + 1.0) * 2.0
        w = 0.25 * s
        q = [(m[2, 1] - m[1, 2]) / s, (m[0, 2] - m[2, 0]) / s, (m[1, 0] - m[0, 1]) / s]
    else:
        # a tie goes to the later axis: pi about (1, 1, 0) leads with y
        a = 0 if m[0, 0] > m[1, 1] and m[0, 0] > m[2, 2] else 1 if m[1, 1] > m[2, 2] else 2
        b, c = (a + 1) % 3, (a + 2) % 3
        j, k = sorted((b, c))  # the other two, subtracted in index order as rounding needs
        s = math.sqrt(1.0 + m[a, a] - m[j, j] - m[k, k]) * 2.0
        w = (m[c, b] - m[b, c]) / s
        q = [0.0] * 3
        q[a], q[b], q[c] = 0.25 * s, (m[a, b] + m[b, a]) / s, (m[a, c] + m[c, a]) / s
    x, y, z = q
    if w < 0.0:
        w, x, y, z = -w, -x, -y, -z
    norm_v = math.sqrt(x * x + y * y + z * z)
    if norm_v < 1e-300:
        return (0.0, 0.0, 1.0), 0.0
    return (x / norm_v, y / norm_v, z / norm_v), 2.0 * math.atan2(norm_v, w)


def serialize_ifs(ifs: IfsSystem) -> str:
    """Emit a document that parses back to the same system."""
    recs = []
    if ifs.dim == 2:
        for m in ifs.maps:
            recs.append({"p": [m.p.real, m.p.imag], "phi": [m.phi.real, m.phi.imag]})
    else:
        for m in ifs.maps:
            axis, angle = _axis_angle_of(m.rot)
            recs.append({"p": m.p.tolist(), "lambda": m.lam, "axis": axis, "angle": angle})
    return json.dumps({"dimension": ifs.dim, "maps": recs}, indent=2) + "\n"


@dataclass(frozen=True, eq=False)
class Ball:
    """Closed disk (2D) or closed ball (3D): center plus nonnegative radius."""

    c: Point
    r: float

    def __post_init__(self):
        object.__setattr__(self, "c", _as_point(self.c, name="center"))
        object.__setattr__(self, "r", float(self.r))
        if not (self.r >= 0.0 and math.isfinite(self.r)):
            raise ValueError(f"radius must be finite and >= 0, got {self.r}")

    @property
    def dim(self) -> int:
        return point_dim(self.c)


def point_dim(z: Point) -> int:
    return 2 if isinstance(z, _NUMBER) else 3


# sums of three squares that ``v . v`` forms without overflow, and in the
# normal range
_SQUARES_IN_RANGE = (sys.float_info.min, 2.0**1023)


def dist(a: Point, b: Point) -> float:
    """Euclidean distance, dimension-aware.  A 3D distance is
    ``sqrt(v . v)``, as ``np.linalg.norm`` computes it, unless ``v . v``
    would overflow or fall below the normal range: then ``math.hypot``,
    which does neither."""
    # kept per layout: a complex modulus (hypot) and a vector norm round apart
    if isinstance(a, _NUMBER):
        return abs(complex(a) - complex(b))
    v = np.asarray(a, float) - np.asarray(b, float)
    x, y, z = v.tolist()
    s = x * x + y * y + z * z  # Python floats: an overflow is inf, not a warning
    if not _SQUARES_IN_RANGE[0] <= s <= _SQUARES_IN_RANGE[1]:  # 0 too: v . v may underflow
        return math.hypot(x, y, z)
    return math.sqrt(v.dot(v))


def apply_map(m: Similitude, z: Point) -> Point:
    """Image of a single point under one similitude."""
    if m.dim != point_dim(z):
        raise ValueError("map and point dimensions differ")
    return m.apply(z)


def apply_map_ball(m: Similitude, b: Ball) -> Ball:
    """Exact image of a ball: a similitude sends B(c, r) onto B(T(c), lam*r)."""
    if m.dim != b.dim:
        raise ValueError("map and ball dimensions differ")
    return Ball(m.apply(b.c), m.lam * b.r)


def hutchinson_balls(ifs: IfsSystem, balls: Sequence[Ball]) -> list:
    """Images of every input ball under every map, map-major order."""
    return [apply_map_ball(m, b) for m in ifs.maps for b in balls]


def apply_word(ifs: IfsSystem, word: Iterable[int], z: Point):
    """Apply the composed map named by an address word.

    Returns ``(point, factor)`` where ``factor`` is the accumulated
    contraction of the composition (product of the per-map factors).
    The empty word is the identity.
    """
    word = tuple(word)
    n = ifs.n
    for k in word:
        if not 1 <= k <= n:
            raise IndexError(f"word index {k} out of range 1..{n}")
    factor = 1.0
    for k in reversed(word):
        m = ifs.maps[k - 1]
        z = m.apply(z)
        factor *= m.lam
    return z, factor


def _allowance(levels: int, size: float) -> float:
    """Rounding allowance of a map-tree node ``levels`` deep whose images,
    fixed points and query points are at most ``size``.  A tree level rounds
    off at most ~8 ulps of size in 3D (a 3-term dot product, a scale and two
    adds; less in 2D); the distances, comparisons and factor products add a
    few more.  64 ulps a level covers them all several times over, as a
    static error filter (Shewchuk, DCG 1997)."""
    return 64 * (levels + 1) * 2.0**-52 * size


def _word_tree_images(ifs: IfsSystem, starts, levels: int, budget: int, factors: bool = False):
    """Images of the points ``starts`` under all depth-``levels``
    compositions, map-major: block ``k`` of a level is map ``k+1`` applied
    to the level before.  Levels are written in place, last map first, so the
    source (block 0) goes last; only the last level is kept.  Returns the
    images and, with ``factors``, each composition's contraction factor,
    views of one float buffer of ``(d + factors) * N`` floats.  Plane images
    are complex; space images are ``(N, 3)`` with one buffer row per axis
    (F-ordered), so every "images op one point" runs along an axis row."""
    n, d = ifs.n, ifs.dim
    count = len(starts)
    size = count * n**levels
    if size > budget:
        raise NodeBudgetExceeded(
            f"enumeration would produce {size} leaves, budget is {budget}; "
            "lower the depth or raise the budget"
        )
    buf = np.empty((d + factors, size))
    out = buf[:3].T if d == 3 else _points(buf[:2].reshape(size, 2))
    out[:count] = starts
    buf[d:, :count] = 1.0  # the factors, if asked for
    lams = buf[d] if factors else None
    # kept per layout: a complex multiply is not a 2x2 matmul bit for bit,
    # and real (N, 2) rows measured 10x slower (ROADMAP "decided against")
    diff = np.empty((3, size // n)).T if d == 3 else None
    for _ in range(levels):
        src = out[:count]
        for k in range(n - 1, -1, -1):
            m, dst = ifs.maps[k], out[k * count : (k + 1) * count]
            if d == 2:
                np.multiply(m.phi, np.subtract(src, m.p, out=dst), out=dst)
            else:
                np.subtract(src, m.p, out=diff[:count])
                np.multiply(np.matmul(diff[:count], m.rot.T, out=dst), m.lam, out=dst)
            np.add(dst, m.p, out=dst)
            if factors:
                np.multiply(lams[:count], m.lam, out=lams[k * count : (k + 1) * count])
        count *= n
    return (out, *buf[d:])


def address_points(
    ifs: IfsSystem,
    depth: int,
    budget: int = DEFAULT_NODE_BUDGET,
    dedupe: bool = True,
) -> np.ndarray:
    """All images of the fixed points under depth-``depth`` compositions.

    Every returned point is an exact member of the attractor (the attractor
    contains the fixed points and is invariant under every map).  Output is
    a complex array (2D) or an (N, 3) float array (3D).  With ``dedupe``
    the points are sorted and exact duplicates removed, which gives a
    deterministic set; ``dedupe=False`` keeps the raw map-major multiset,
    useful when only aggregate statistics are needed from large depths.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    (pts,) = _word_tree_images(ifs, ifs.fixed_points, depth, budget)
    if not dedupe:
        return pts
    # lexsort and a neighbour mask give np.unique's result ~50x faster; the
    # mask is built by columns, one long inner loop each
    pts = pts[np.lexsort(_rows(pts).T[::-1])]
    new = np.zeros(len(pts), bool)
    new[0] = True
    for col in _rows(pts).T:
        new[1:] |= col[1:] != col[:-1]
    return pts[new]


def chaos_game(
    ifs: IfsSystem,
    count: int,
    seed: int,
    burn_in: int = DEFAULT_BURN_IN,
) -> np.ndarray:
    """Random-iteration sample of the attractor, bit-reproducible per seed.

    Starts at the first fixed point (a member of the attractor, so every
    iterate stays on the attractor up to rounding), applies uniformly
    chosen maps driven by the splitmix64 stream of ``seed``, discards
    ``burn_in`` iterates, and returns the next ``count`` points.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    gen = SplitMix64(seed)
    n = ifs.n
    z = ifs.maps[0].p
    for _ in range(burn_in):
        z = ifs.maps[gen.index(n)].apply(z)
    out = _points(np.empty((count, ifs.dim)))
    for i in range(count):
        z = ifs.maps[gen.index(n)].apply(z)
        out[i] = z
    return out
