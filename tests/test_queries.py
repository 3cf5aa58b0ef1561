import cmath
import math
import warnings

import numpy as np
import pytest

from ifsbound import (
    Ball,
    HitInterval,
    IfsSystem,
    Line,
    address_points,
    apply_map_ball,
    best_bounding_ball,
    chaos_game,
    general_bounding_ball,
    intersect_line,
    line_ball_distance,
    Similitude2,
    Similitude3,
    tighten,
)
from conftest import cantor_ifs, random_ifs_2d, random_ifs_3d


def covered(t, intervals, slop=0.0):
    return any(h.t_lo - slop <= t <= h.t_hi + slop for h in intervals)


class TestLine:
    def test_direction_normalized(self):
        line = Line(0j, 3 + 4j)
        assert abs(abs(line.u) - 1.0) <= 1e-12

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            Line(0j, 0j)

    def test_projection_and_distance(self):
        line = Line(1 + 1j, 1 + 0j)
        assert line.project(4 + 5j) == pytest.approx(3.0)
        assert line.distance(4 + 5j) == pytest.approx(4.0)

    def test_3d_line(self):
        line = Line(np.zeros(3), np.array([0.0, 0.0, 2.0]))
        assert np.allclose(line.u, [0, 0, 1])
        assert line.distance(np.array([3.0, 4.0, 10.0])) == pytest.approx(5.0)

    def test_direction_rounding_follows_its_form(self):
        # a pair is scaled by its vector norm and a complex number by its
        # modulus: the two round apart, and each form keeps its own rounding
        rng = np.random.default_rng(5)
        apart = 0
        for x, y in rng.normal(size=(2000, 2)).tolist():
            v, z = np.array([x, y]), complex(x, y)
            assert Line((0.0, 0.0), (x, y)).u == complex(*(v / np.linalg.norm(v)))
            assert Line(0j, z).u == z / abs(z)
            apart += complex(*(v / np.linalg.norm(v))) != z / abs(z)
        assert apart > 0

    def test_sequence_anchor_becomes_complex(self):
        line = Line((0.0, 2.0), (1.0, 0.0))
        assert line.a == 2j and line.u == 1

    def test_non_finite_anchor_rejected_2d(self):
        for a in (complex(math.nan, 0.0), complex(0.0, math.inf), (math.nan, 0.0)):
            with pytest.raises(ValueError, match="anchor"):
                Line(a, 1 + 0j if isinstance(a, complex) else (1.0, 0.0))

    def test_non_finite_anchor_rejected_3d(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="anchor"):
                Line(np.array([0.0, bad, 0.0]), np.array([1.0, 0.0, 0.0]))


class TestLineBallDistance:
    def test_separated(self):
        line = Line(2j, 1 + 0j)
        assert line_ball_distance(line, Ball(0.5, 0.5)) == pytest.approx(1.5)

    def test_through_center(self):
        line = Line(0j, 1 + 0j)
        assert line_ball_distance(line, Ball(0.5, 0.5)) == 0.0

    def test_tangent(self):
        line = Line(0.5j, 1 + 0j)
        assert line_ball_distance(line, Ball(0j, 0.5)) == pytest.approx(0.0, abs=1e-15)

    def test_zero_iff_intersecting(self):
        rng = np.random.default_rng(71)
        for _ in range(200):
            c = complex(*rng.uniform(-2, 2, 2))
            r = rng.uniform(0.01, 1.5)
            a = complex(*rng.uniform(-2, 2, 2))
            u = complex(*rng.normal(size=2))
            line = Line(a, u)
            gap = line_ball_distance(line, Ball(c, r))
            geometric = line.distance(c) <= r
            assert (gap == 0.0) == geometric


class TestIntersectCantor:
    def test_far_line_pruned_at_root(self):
        result = intersect_line(
            cantor_ifs(), Line(2j, 1 + 0j), eps=0.01, bound=Ball(0.5, 0.5)
        )
        assert result.intervals == ()
        assert not result.truncated

    def test_axis_line_covers_all_address_points(self):
        ifs = cantor_ifs()
        result = intersect_line(ifs, Line(0j, 1 + 0j), eps=1e-3, bound=Ball(0.5, 0.5))
        assert not result.truncated
        pts = address_points(ifs, 10)
        for z in pts:
            assert covered(z.real, result.intervals)
        # total measure stays below the unit interval plus widening
        total = sum(h.t_hi - h.t_lo for h in result.intervals)
        assert total <= 1.0
        assert covered(0.0, result.intervals) and covered(1.0, result.intervals)

    def test_tangent_line_has_no_false_hits(self):
        # tangent to the bounding circle from above: level-1 children miss it
        result = intersect_line(
            cantor_ifs(), Line(0.5j, 1 + 0j), eps=0.01, bound=Ball(0.5, 0.5)
        )
        assert result.intervals == () or all(
            abs((h.t_lo + h.t_hi) / 2 - 0.5) < 0.25 for h in result.intervals
        )
        pts = address_points(cantor_ifs(), 12)
        line = Line(0.5j, 1 + 0j)
        on_line = [z for z in pts if line.distance(z) <= 0.01]
        for z in on_line:
            assert covered(line.project(z), result.intervals)

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            intersect_line(cantor_ifs(), Line(0j, 1 + 0j), eps=0.0)

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValueError):
            intersect_line(
                cantor_ifs(), Line(0j, 1 + 0j), eps=0.01, bound=Ball(0.5, 0.3)
            )

    def test_interval_words_are_valid(self):
        result = intersect_line(
            cantor_ifs(), Line(0j, 1 + 0j), eps=1e-2, bound=Ball(0.5, 0.5)
        )
        for h in result.intervals:
            assert h.depth == len(h.word)
            assert all(k in (1, 2) for k in h.word)
            assert h.t_lo <= h.t_hi


class TestIntersectProperties:
    def test_completeness_random_lines(self):
        rng = np.random.default_rng(72)
        for _ in range(20):
            ifs = random_ifs_2d(rng, n=int(rng.integers(2, 4)), lam_range=(0.1, 0.6))
            target = chaos_game(ifs, 40, seed=int(rng.integers(1, 10**6)))[-1]
            angle = rng.uniform(0, math.pi)
            line = Line(target, complex(math.cos(angle), math.sin(angle)))
            result = intersect_line(ifs, line, eps=1e-3)
            assert covered(line.project(target), result.intervals, slop=1e-3)

    def test_empty_iff_separated(self):
        rng = np.random.default_rng(73)
        for _ in range(20):
            ifs = random_ifs_2d(rng, n=2, lam_range=(0.1, 0.6))
            bound = best_bounding_ball(ifs).ball
            # line strictly outside the bound
            offset = bound.r * 1.5 + 0.1
            line = Line(bound.c + offset * 1j, 1 + 0j)
            result = intersect_line(ifs, line, eps=1e-3, bound=bound)
            assert result.intervals == ()
            pts = address_points(ifs, 12, dedupe=False)
            assert min(abs(pts - bound.c - offset * 1j)) > 0  # sanity
            dists = np.abs((pts - line.a).imag)
            assert dists.min() > 0.0

    def test_halving_eps_keeps_coverage(self):
        rng = np.random.default_rng(74)
        for _ in range(10):
            ifs = random_ifs_2d(rng, n=2, lam_range=(0.2, 0.5))
            p = ifs.maps[0].p
            angle = rng.uniform(0, math.pi)
            line = Line(p, complex(math.cos(angle), math.sin(angle)))
            eps = 4e-3
            coarse = intersect_line(ifs, line, eps=eps)
            fine = intersect_line(ifs, line, eps=eps / 2)
            widened = [(h.t_lo - eps, h.t_hi + eps) for h in coarse.intervals]
            merged = []
            for lo, hi in sorted(widened):
                if merged and lo <= merged[-1][1]:
                    merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
                else:
                    merged.append((lo, hi))
            for h in fine.intervals:
                assert any(lo <= h.t_lo and h.t_hi <= hi for lo, hi in merged)

    def test_truncation_flag_and_coverage(self):
        ifs = cantor_ifs()
        line = Line(0j, 1 + 0j)
        result = intersect_line(ifs, line, eps=1e-4, bound=Ball(0.5, 0.5), budget=40)
        assert result.truncated
        pts = address_points(ifs, 10)
        for z in pts:
            assert covered(z.real, result.intervals)

    def test_truncation_emits_only_the_cutoff_depth(self):
        # 1 + 2 + 4 + 8 + 16 = 31 nodes fit a budget of 40; the next level does not
        result = intersect_line(
            cantor_ifs(), Line(0j, 1 + 0j), eps=1e-4, bound=Ball(0.5, 0.5), budget=40
        )
        assert result.truncated
        assert len(result.intervals) == 16
        assert {h.depth for h in result.intervals} == {4}

    @pytest.mark.parametrize("budget", [100, 10**6])
    def test_plane_system_and_its_3d_embedding_agree(self, budget):
        specs = [(0j, 0.45, 0.3), (1 + 0j, 0.45, -1.1), (0.5 + 0.8j, 0.45, 2.0)]
        plane = IfsSystem(
            maps=tuple(Similitude2(p=p, phi=lam * cmath.exp(1j * angle)) for p, lam, angle in specs)
        )
        space = IfsSystem(
            maps=tuple(
                Similitude3.from_axis_angle(p=[p.real, p.imag, 0.0], lam=lam, axis=[0, 0, 1], angle=angle)
                for p, lam, angle in specs
            )
        )
        bound = best_bounding_ball(plane).ball
        a, u = 0.5 + 0.3j, cmath.exp(0.2j)
        flat = intersect_line(plane, Line(a, u), eps=1e-3, bound=bound, budget=budget)
        deep = intersect_line(
            space,
            Line(np.array([a.real, a.imag, 0.0]), np.array([u.real, u.imag, 0.0])),
            eps=1e-3,
            bound=Ball(np.array([bound.c.real, bound.c.imag, 0.0]), bound.r),
            budget=budget,
        )
        assert flat.truncated == deep.truncated == (budget == 100)
        assert len(flat.intervals) >= 10
        assert [h.word for h in flat.intervals] == [h.word for h in deep.intervals]
        for a, b in zip(flat.intervals, deep.intervals):
            assert abs(a.t_lo - b.t_lo) <= 1e-12 and abs(a.t_hi - b.t_hi) <= 1e-12

    def test_sorted_deterministic_output(self):
        ifs = cantor_ifs()
        line = Line(0j, 1 + 0j)
        a = intersect_line(ifs, line, eps=1e-3, bound=Ball(0.5, 0.5))
        b = intersect_line(ifs, line, eps=1e-3, bound=Ball(0.5, 0.5))
        assert a == b
        los = [h.t_lo for h in a.intervals]
        assert los == sorted(los)

    def test_3d_line_query(self):
        rng = np.random.default_rng(75)
        ifs = random_ifs_3d(rng, n=2, lam_range=(0.2, 0.5))
        target = ifs.maps[0].p
        direction = rng.normal(size=3)
        line = Line(target, direction)
        result = intersect_line(ifs, line, eps=1e-3)
        assert covered(line.project(target), result.intervals, slop=1e-3)


def _tangent_probe(rng, dim, n):
    """A system of factor 1/2 without rotation whose first fixed point ``p``
    lies on the verified ball ``B(c, r)``, ``r`` being its distance from
    ``c``, the others at ``r/2`` from ``c``, and a direction tangent to the
    ball at ``p``: the line through ``p`` touches the ball, and so the
    attractor, only at ``p``."""
    def on_sphere(center, radius):
        v = rng.normal(size=dim)
        return center + radius * v / np.linalg.norm(v)

    c = rng.uniform(-1.0, 1.0, size=dim)
    p = on_sphere(c, rng.uniform(0.5, 2.0))
    r = float(np.linalg.norm(p - c))
    points = [p] + [on_sphere(c, r / 2) for _ in range(n - 1)]
    if dim == 2:
        maps = [Similitude2(p=complex(*q), phi=0.5) for q in points]
        return IfsSystem(maps=tuple(maps)), Ball(complex(*c), r), maps[0].p, 1j * (maps[0].p - complex(*c))
    maps = [Similitude3(p=q, lam=0.5, rot=np.eye(3)) for q in points]
    return IfsSystem(maps=tuple(maps)), Ball(c, r), maps[0].p, np.cross(p - c, rng.normal(size=3))


def _tangent_misses(dim, eps, queries, shift=0.0, seed=0):
    """Tangent probes whose answer has no interval holding the parameter of
    the touching fixed point; ``shift`` moves the anchor along the line."""
    rng = np.random.default_rng(seed)
    misses = 0
    for _ in range(queries):
        ifs, bound, p, u = _tangent_probe(rng, dim, 3 if dim == 2 else int(rng.integers(2, 5)))
        line = Line(p, u)
        line = Line(line.at(shift), line.u)
        result = intersect_line(ifs, line, eps, bound=bound)
        misses += not covered(line.project(p), result.intervals)
    return misses


class TestTangentHits:
    """A line tangent to the bound at a fixed point meets the attractor
    there: the rounding allowance keeps that node, at every resolution."""

    @pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-9])
    def test_plane_tangent_at_a_fixed_point(self, eps):
        assert _tangent_misses(2, eps, 200) == 0

    @pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-9])
    def test_space_tangent_at_a_fixed_point(self, eps):
        assert _tangent_misses(3, eps, 100) == 0

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("shift", [1e3, 1e6])
    def test_far_anchor(self, dim, shift):
        assert _tangent_misses(dim, 1e-6, 100, shift=shift) == 0

    def test_default_bound_touches_the_fixed_points(self):
        # without rotation the trifractal circumcircle passes through every
        # fixed point, so the tangent there meets the attractor at t = 0
        rng = np.random.default_rng(76)
        misses, systems = 0, 0
        while systems < 25:
            ifs = random_ifs_2d(rng, n=3, lam_range=(0.1, 0.5), rotations=False)
            report = best_bounding_ball(ifs)
            if report.method != "circum_tri":
                continue
            systems += 1
            for m in ifs.maps:
                result = intersect_line(ifs, Line(m.p, 1j * (m.p - report.ball.c)), 1e-6)
                misses += not covered(0.0, result.intervals)
        assert misses == 0


def _times(z, k):
    """A point or number ``z`` times 2^k, exactly."""
    if isinstance(z, complex):
        return complex(math.ldexp(z.real, k), math.ldexp(z.imag, k))
    return np.ldexp(z, k) if isinstance(z, np.ndarray) else math.ldexp(z, k)


def _system_times(ifs, k):
    """The system ``ifs`` with every fixed point times 2^k."""
    if ifs.dim == 2:
        return IfsSystem(maps=tuple(Similitude2(p=_times(m.p, k), phi=m.phi) for m in ifs.maps))
    return IfsSystem(maps=tuple(Similitude3(p=_times(m.p, k), lam=m.lam, rot=m.rot) for m in ifs.maps))


class TestLineScale:
    """The line query follows the float-range rule: a system, line, bound
    and eps all times 2^k give 2^k times the unit intervals, bit for bit,
    with the same words and truncation, far past the scales where a squared
    radius overflows (every interval turned to (-inf, inf)) or underflows
    (every chord was lost)."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_intervals_scale_by_powers_of_two(self, dim):
        rng = np.random.default_rng(90 + dim)
        truncated = []
        for i in range(6):
            ifs = random_ifs_2d(rng) if dim == 2 else random_ifs_3d(rng)
            pts = address_points(ifs, 3)
            anchor = pts[int(rng.integers(len(pts)))]  # an attractor point: the line hits
            u = cmath.rect(1.0, rng.uniform(0.0, math.pi)) if dim == 2 else rng.normal(size=3)
            # the default bound, whose circumcircles and general balls scale exactly
            budget = 40 if i % 2 else 10**6
            base = intersect_line(ifs, Line(anchor, u), 1e-3, budget=budget)
            assert base.intervals
            truncated.append(base.truncated)
            for k in (-700, -600, *rng.integers(-700, 901, size=3).tolist(), 600, 900):
                line = Line(_times(anchor, k), u)
                got = intersect_line(_system_times(ifs, k), line, _times(1e-3, k), budget=budget)
                assert got.truncated == base.truncated
                assert got.intervals == tuple(
                    HitInterval(_times(h.t_lo, k), _times(h.t_hi, k), h.word, h.depth) for h in base.intervals
                )
        assert any(truncated) and not all(truncated)

    def test_far_anchor_on_a_unit_system(self):
        # the anchor's rounding allowance, not the unit radius, sets the scale:
        # at 2^600 its square overflowed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = intersect_line(cantor_ifs(), Line(2.0**600, 1), 1e-3)
        assert result.intervals and not result.truncated
        ends = [t for h in result.intervals for t in (h.t_lo, h.t_hi)]
        assert all(map(math.isfinite, ends)) and covered(-(2.0**600), result.intervals)


_BALL_3D = Ball((0.5, 0.0, 0.0), 1.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda ifs: tighten(ifs, _BALL_3D, 1),
        lambda ifs: intersect_line(ifs, Line(0j, 1 + 0j), 1e-3, bound=_BALL_3D),
        lambda ifs: intersect_line(ifs, Line((0.0, 0.0, 0.0), (1.0, 0.0, 0.0)), 1e-3),
        lambda ifs: apply_map_ball(ifs.maps[0], _BALL_3D),
        lambda ifs: apply_map_ball(Similitude3(p=(0, 0, 0), lam=0.5, rot=np.eye(3)), Ball(0, 1.0)),
        lambda ifs: line_ball_distance(Line(0j, 1 + 0j), _BALL_3D),
        lambda ifs: line_ball_distance(Line((0.0, 0.0, 0.0), (1.0, 0.0, 0.0)), Ball(0, 1.0)),
    ],
    ids=[
        "tighten_3d_ball",
        "intersect_3d_bound",
        "intersect_3d_line",
        "map_ball_2d_3d",
        "map_ball_3d_2d",
        "line_ball_2d_3d",
        "line_ball_3d_2d",
    ],
)
def test_dimension_mismatch_raises(call):
    """A 2D system, map or line with a 3D ball or line (or the reverse):
    the containment check, the map or the line check rejects it before any
    work."""
    with pytest.raises(ValueError, match="dimension"):
        call(cantor_ifs())


class TestHitInterval:
    def test_ordering_validated(self):
        with pytest.raises(ValueError):
            HitInterval(1.0, 0.0, (), 0)
