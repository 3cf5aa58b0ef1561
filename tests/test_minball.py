import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ifsbound import (
    IfsSystem,
    Similitude2,
    ball_from_support,
    dist,
    min_ball,
    radius_function,
)
from ifsbound import minball
from ifsbound.ifs import _point_of
from conftest import _circumcenter_exact, as_vec, brute_min_ball, cantor_ifs

finite = dict(allow_nan=False, allow_infinity=False)
coord = st.floats(-10, 10, **finite)
points2 = st.builds(complex, coord, coord)


def random_points(rng, n, dim, half_width):
    """``n`` uniform points in a cube: complex numbers in 2D, 3-vectors in 3D."""
    if dim == 2:
        return [complex(a, b) for a, b in rng.uniform(-half_width, half_width, size=(n, 2))]
    return list(rng.uniform(-half_width, half_width, size=(n, 3)))


def three_point_ifs():
    return IfsSystem(
        maps=(
            Similitude2(p=0, phi=0.5),
            Similitude2(p=1, phi=0.5),
            Similitude2(p=1j, phi=0.5),
        )
    )


class TestRadiusFunction:
    def test_cantor_at_origin(self):
        assert radius_function(cantor_ifs(), 0) == pytest.approx(1.0)

    def test_cantor_midpoint(self):
        assert radius_function(cantor_ifs(), 0.5) == pytest.approx(0.5)

    def test_three_points(self):
        assert radius_function(three_point_ifs(), 0) == pytest.approx(1.0)

    @given(z1=points2, z2=points2, t=st.floats(0, 1, **finite))
    @settings(max_examples=200, deadline=None)
    def test_convexity(self, z1, z2, t):
        ifs = three_point_ifs()
        lhs = radius_function(ifs, t * z1 + (1 - t) * z2)
        rhs = t * radius_function(ifs, z1) + (1 - t) * radius_function(ifs, z2)
        assert lhs <= rhs + 1e-12


class TestMinBallExamples:
    def test_two_points_diametral(self):
        ball, support = min_ball([0j, 1 + 0j])
        assert ball.c == pytest.approx(0.5)
        assert ball.r == pytest.approx(0.5)
        assert set(support.indices) == {0, 1}

    def test_obtuse_third_point_inside(self):
        ball, support = min_ball([0j, 2 + 0j, 1 + 0.5j])
        assert ball.c == pytest.approx(1.0)
        assert ball.r == pytest.approx(1.0)
        assert set(support.indices) == {0, 1}

    def test_equilateral_triangle(self):
        ball, support = min_ball([0j, 1 + 0j, (1 + 1j * math.sqrt(3)) / 2])
        # frozen from the brute-force oracle
        assert ball.c == pytest.approx(0.5 + 0.2886751345948129j, abs=1e-12)
        assert ball.r == pytest.approx(0.5773502691896257, abs=1e-12)
        assert set(support.indices) == {0, 1, 2}

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            min_ball([])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            min_ball([0j, complex(float("nan"), 0)])
        with pytest.raises(ValueError):
            min_ball([np.array([0.0, 0.0, float("inf")])])
        for value in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="non-finite coordinate"):
                min_ball([1e300, complex(0, value)])
            with pytest.raises(ValueError, match="non-finite coordinate"):
                ball_from_support([0j, complex(value, 0)])

    def test_collinear_point_set(self):
        pts = [complex(x, 2 * x) for x in (0.0, 0.25, 0.4, 0.7, 1.0)]
        ball, _ = min_ball(pts)
        assert ball.c == pytest.approx((pts[0] + pts[-1]) / 2)
        assert ball.r == pytest.approx(abs(pts[-1] - pts[0]) / 2)

    def test_accepts_pairs_and_triples(self):
        ball2, _ = min_ball([(0.0, 0.0), (1.0, 0.0)])
        assert ball2.c == pytest.approx(0.5)
        ball3, _ = min_ball([np.zeros(3), np.array([2.0, 0.0, 0.0])])
        assert np.allclose(ball3.c, [1.0, 0.0, 0.0])
        assert ball3.r == pytest.approx(1.0)


class TestBallFromSupport:
    def test_single_point(self):
        b = ball_from_support([0.3 + 0.4j])
        assert b.c == 0.3 + 0.4j and b.r == 0.0

    def test_two_points(self):
        b = ball_from_support([0j, 2 + 0j])
        assert b.c == pytest.approx(1.0) and b.r == pytest.approx(1.0)

    def test_right_triangle_circumcircle(self):
        b = ball_from_support([0j, 1 + 0j, 1j])
        assert b.c == pytest.approx(0.5 + 0.5j)
        assert b.r == pytest.approx(math.sqrt(2) / 2)

    def test_collinear_falls_back_to_farthest_pair(self):
        b = ball_from_support([0j, 1 + 0j, 3 + 0j])
        assert b.c == pytest.approx(1.5)
        assert b.r == pytest.approx(1.5)

    def test_3d_regular_tetrahedron(self):
        pts = [
            np.array([1.0, 1.0, 1.0]),
            np.array([1.0, -1.0, -1.0]),
            np.array([-1.0, 1.0, -1.0]),
            np.array([-1.0, -1.0, 1.0]),
        ]
        b = ball_from_support(pts)
        assert np.allclose(b.c, [0.0, 0.0, 0.0], atol=1e-12)
        assert b.r == pytest.approx(math.sqrt(3))

    def test_3d_coplanar_four_falls_back(self):
        pts = [
            np.array([0.0, 0.0, 0.0]),
            np.array([1.0, 0.0, 0.0]),
            np.array([0.0, 1.0, 0.0]),
            np.array([1.0, 1.0, 0.0]),
        ]
        b = ball_from_support(pts)
        assert np.allclose(b.c, [0.5, 0.5, 0.0], atol=1e-9)
        assert b.r == pytest.approx(math.sqrt(0.5), abs=1e-9)

    def test_too_many_points_rejected(self):
        with pytest.raises(ValueError):
            ball_from_support([0j, 1j, 1 + 0j, 1 + 1j])
        with pytest.raises(ValueError):
            ball_from_support([np.zeros(3)] * 5)


class TestMinBallProperties:
    def test_deterministic_bit_for_bit(self):
        rng = np.random.default_rng(11)
        pts = [complex(a, b) for a, b in rng.uniform(-3, 3, size=(40, 2))]
        b1, s1 = min_ball(pts)
        b2, s2 = min_ball(pts)
        assert b1.c == b2.c and b1.r == b2.r
        assert s1.indices == s2.indices

    def test_coverage_large_random_sets(self):
        rng = np.random.default_rng(21)
        for _ in range(10_000):
            n = int(rng.integers(1, 201))
            pts = [complex(a, b) for a, b in rng.uniform(-5, 5, size=(n, 2))]
            ball, _ = min_ball(pts)
            tol = 1e-9 * (1 + ball.r)
            assert max(abs(p - ball.c) for p in pts) <= ball.r + tol

    def test_matches_brute_force_2d(self):
        rng = np.random.default_rng(5)
        for _ in range(250):
            n = int(rng.integers(1, 13))
            pts = [complex(a, b) for a, b in rng.uniform(-2, 2, size=(n, 2))]
            ball, _ = min_ball(pts)
            _, r_ref = brute_min_ball(pts)
            assert ball.r == pytest.approx(r_ref, abs=1e-9)

    def test_matches_brute_force_3d(self):
        rng = np.random.default_rng(6)
        for _ in range(120):
            n = int(rng.integers(1, 13))
            pts = [rng.uniform(-2, 2, size=3) for _ in range(n)]
            ball, _ = min_ball(pts)
            _, r_ref = brute_min_ball(pts)
            assert ball.r == pytest.approx(r_ref, abs=1e-9)

    def test_support_on_boundary(self):
        rng = np.random.default_rng(7)
        for dim in (2, 3):
            for _ in range(200):
                n = int(rng.integers(2, 40))
                pts = random_points(rng, n, dim, 4)
                ball, support = min_ball(pts)
                tol = 1e-9 * (1 + ball.r)
                for p in support.points:
                    assert abs(dist(p, ball.c) - ball.r) <= tol

    def test_support_ball_reproduces_min_ball(self):
        rng = np.random.default_rng(8)
        for dim in (2, 3):
            for _ in range(200):
                n = int(rng.integers(2, 40))
                pts = random_points(rng, n, dim, 4)
                ball, support = min_ball(pts)
                again = ball_from_support(support.points)
                assert dist(again.c, ball.c) <= 1e-9 * (1 + ball.r)
                assert again.r == pytest.approx(ball.r, abs=1e-9 * (1 + ball.r))

    def test_support_certificate_strict(self):
        # dropping any support point must shrink the ball (generic inputs)
        rng = np.random.default_rng(9)
        for _ in range(120):
            n = int(rng.integers(3, 25))
            pts = [complex(a, b) for a, b in rng.uniform(-4, 4, size=(n, 2))]
            ball, support = min_ball(pts)
            if len(support.indices) == 1:
                continue
            for idx in support.indices:
                rest = [p for i, p in enumerate(pts) if i != idx]
                smaller, _ = min_ball(rest)
                assert smaller.r < ball.r + 1e-12

    @given(
        pts=st.lists(points2, min_size=1, max_size=9),
    )
    @settings(max_examples=150, deadline=None)
    # a near-right triangle: the pivot's circumcircle does not grow r^2 in
    # floating point, yet covers the points more tightly than the midpoint
    @example(pts=[7 + 5j, 1e-07 - 3j, 5j])
    def test_hypothesis_fuzz_vs_oracle(self, pts):
        ball, _ = min_ball(pts)
        _, r_ref = brute_min_ball(pts)
        scale = 1 + max(abs(p) for p in pts)
        assert abs(ball.r - r_ref) <= 1e-9 * scale
        assert max(abs(p - ball.c) for p in pts) <= ball.r + 1e-9 * (1 + ball.r)

    def test_coplanar_3d_matches_2d(self):
        rng = np.random.default_rng(15)
        for _ in range(60):
            n = int(rng.integers(2, 30))
            flat = rng.uniform(-3, 3, size=(n, 2))
            b2, _ = min_ball([complex(a, b) for a, b in flat])
            b3, _ = min_ball([np.array([a, b, 0.0]) for a, b in flat])
            assert abs(b3.c[0] - b2.c.real) <= 1e-10
            assert abs(b3.c[1] - b2.c.imag) <= 1e-10
            assert abs(b3.c[2]) <= 1e-10
            assert b3.r == pytest.approx(b2.r, abs=1e-10)


def _same(a, b):
    (ba, sa), (bb, sb) = a, b
    assert np.array_equal(np.asarray(ba.c), np.asarray(bb.c)) and ba.r == bb.r
    assert sa.indices == sb.indices
    assert all(np.array_equal(np.asarray(p), np.asarray(q)) for p, q in zip(sa.points, sb.points))


class TestArrayInput:
    def test_complex_array_matches_list(self):
        rng = np.random.default_rng(31)
        z = rng.uniform(-2, 2, 500) + 1j * rng.uniform(-2, 2, 500)
        ref = min_ball(list(z))
        _same(min_ball(z), ref)
        _same(min_ball(np.stack([z.real, z.imag], axis=1)), ref)
        _same(min_ball([(p.real, p.imag) for p in z]), ref)
        assert isinstance(ref[0].c, complex) and isinstance(ref[1].points[0], complex)

    def test_3d_array_matches_list(self):
        rng = np.random.default_rng(32)
        pts = rng.uniform(-2, 2, size=(500, 3))
        ref = min_ball(list(pts))
        _same(min_ball(pts), ref)
        _same(min_ball([tuple(p) for p in pts]), ref)
        assert ref[0].c.shape == (3,)

    @pytest.mark.parametrize("layout", ["strided_complex", "fortran_3d", "column_slice", "read_only"])
    def test_array_views_match_list(self, layout):
        """Array input is never written and gives the list input's result
        bit for bit.  ``_coordinates`` reads a view of the caller's memory
        at every count (the passes then read a contiguous copy)."""
        rng = np.random.default_rng(35)
        for count in (500, 8192):
            if layout == "strided_complex":
                base = rng.uniform(-2, 2, 2 * count) + 1j * rng.uniform(-2, 2, 2 * count)
                pts, ref = base[::2], min_ball(list(base[::2]))
            elif layout == "fortran_3d":
                pts = base = np.asfortranarray(rng.uniform(-2, 2, size=(count, 3)))
                ref = min_ball([tuple(p) for p in pts])
            elif layout == "column_slice":
                base = rng.uniform(-2, 2, size=(count, 3))
                pts, ref = base[:, :2], min_ball([complex(x, y) for x, y in base[:, :2]])
            else:
                pts = base = rng.uniform(-2, 2, size=(count, 3))
                pts.flags.writeable = False
                ref = min_ball([tuple(p) for p in pts])
            before = base.copy()
            assert np.shares_memory(minball._coordinates(pts)[0], base)
            _same(min_ball(pts), ref)
            assert np.array_equal(base, before)

    @pytest.mark.parametrize("layout", ["complex", "strided_complex", "rows", "fortran_3d"])
    def test_nan_in_viewed_array_rejected(self, layout):
        z = np.arange(8) * (1 + 2j)
        arr = np.arange(24.0).reshape(8, 3)
        pts = {
            "complex": z,
            "strided_complex": z[::2],
            "rows": arr,
            "fortran_3d": np.asfortranarray(arr),
        }[layout]
        pts[2] = np.nan
        with pytest.raises(ValueError, match="non-finite coordinate"):
            min_ball(pts)

    def test_bad_arrays_rejected(self):
        with pytest.raises(ValueError):
            min_ball(np.zeros((0, 2)))
        with pytest.raises(ValueError):
            min_ball(np.zeros((5, 4)))
        with pytest.raises(ValueError):
            min_ball(np.array([0j, complex(0, float("inf"))]))


class TestMagnitudeRange:
    """Point sets whose extent along an axis lies beyond about 2^+-500 are
    solved scaled by a power of two, so squared distances neither overflow
    nor underflow."""

    def test_spread_beyond_square_range(self):
        ball, support = min_ball([1e155, -1e155, 0j])
        assert ball.c == 0 and ball.r == 1e155
        assert support.indices == (0, 1)
        assert support.points == (1e155 + 0j, -1e155 + 0j)
        ball = ball_from_support([1e155 + 0j, -1e155 + 0j])
        assert ball.c == 0 and ball.r == 1e155

    def test_tiny_spread_keeps_its_radius(self):
        # (2e-200)^2 underflows to 0 unscaled
        ball, _ = min_ball([1e-200, -1e-200])
        assert ball.c == 0 and ball.r == 1e-200
        assert ball_from_support([1e-200j, -1e-200j]).r == 1e-200
        # so does the square of one ulp at 2^-490
        pts = [2.0**-490, 2.0**-490 + 2.0**-542]
        for ball in (min_ball(pts)[0], ball_from_support(pts)):
            assert ball.r > 0.0 and all(abs(p - ball.c) <= ball.r for p in pts)

    @pytest.mark.parametrize("form", ["complex", "pairs", "triples"])
    @pytest.mark.parametrize(
        "pair, radius",
        [
            (((1.0, 0.0), (1.0, 1e-200)), 5e-201),
            (((1e-100, 1e-170), (1e-100, -1e-170)), 1e-170),
            (((1e200, 1e-170), (1e200, -1e-170)), 1e-170),
            (((1.7e308, 0.0), (-1.7e308, 0.0)), 1.7e308),
        ],
    )
    def test_spread_sets_the_scale(self, pair, radius, form):
        """The scale comes from the extent along an axis, not from the
        largest magnitude: a spread far below it keeps its radius, and a
        full extent of 3.4e308 does not overflow."""
        pts = {
            "complex": [complex(*p) for p in pair],
            "pairs": list(pair),
            "triples": [(*p, 0.0) for p in pair],
        }[form]
        ball, support = min_ball(pts)
        assert ball.r == radius and support.indices == (0, 1)
        for p in pair:
            assert dist(_point_of((*p, 0.0) if form == "triples" else p), ball.c) <= ball.r

    @pytest.mark.parametrize("x", [1.7e308, -1.7e308])
    @pytest.mark.parametrize("form", ["pairs", "triples"])
    def test_pair_midpoint_beyond_the_float_range(self, x, form):
        # x + x overflows: the midpoint's x is taken as x/2 + x/2
        pts = [(x, 0.0), (x, 1.0)] if form == "pairs" else [(x, 0.0, 0.0), (x, 1.0, 0.0)]
        ball, support = min_ball(pts)
        assert ball.r == 0.5 and support.indices == (0, 1)
        assert np.asarray(ball.c).tolist() == (x + 0.5j if form == "pairs" else [x, 0.5, 0.0])
        assert ball_from_support(pts).r == 0.5

    def test_support_pair_far_below_its_magnitude(self):
        ball = ball_from_support([(1.0, 0.0), (1.0, 1e-200)])
        assert ball.c == 1 + 5e-201j and ball.r == 5e-201

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("exponent", [600, -600])
    def test_scaling_is_exact(self, dim, exponent):
        """Scaled by 2^k, a point set's ball is the unscaled ball times 2^k,
        bit for bit, with the same support."""

        def scaled(a):
            a = np.atleast_1d(np.asarray(a))
            return np.ldexp(a.view(float), exponent).view(a.dtype)

        rng = np.random.default_rng(70 + dim)
        for _ in range(10):
            pts = np.array(random_points(rng, 40, dim, 1.0))
            ball, support = min_ball(pts)
            big_ball, big_support = min_ball(scaled(pts))
            assert np.asarray(big_ball.c).tobytes() == scaled(ball.c).tobytes()
            assert big_ball.r == math.ldexp(ball.r, exponent)
            assert big_support.indices == support.indices
            sub = pts[list(support.indices)]
            assert ball_from_support(scaled(sub)).r == math.ldexp(ball_from_support(sub).r, exponent)


class TestDegenerateSets:
    """Cospherical and degenerate inputs stop, cover every point and keep
    the support on the boundary."""

    def check(self, pts, radius):
        ball, support = min_ball(pts)
        arr = np.asarray(pts)
        if arr.ndim == 1:
            far = np.max(np.abs(arr - ball.c))
        else:
            far = np.max(np.linalg.norm(arr - ball.c, axis=1))
        assert far <= ball.r * (1 + 1e-15)
        assert ball.r == pytest.approx(radius, rel=1e-12, abs=1e-300)
        for p in support.points:
            assert abs(dist(p, ball.c) - ball.r) <= 1e-9 * (1 + ball.r)
        assert list(support.indices) == sorted(support.indices)

    def test_circle(self):
        theta = np.linspace(0.0, 2.0 * np.pi, 10**5, endpoint=False)
        self.check(3.0 * np.exp(1j * theta) + (1 + 2j), 3.0)

    def test_sphere(self):
        v = np.random.default_rng(33).normal(size=(5 * 10**4, 3))
        v /= np.linalg.norm(v, axis=1)[:, None]
        self.check(2.0 * v + 1.0, 2.0)

    def test_all_equal(self):
        self.check(np.full(5 * 10**4, 0.25 - 1j), 0.0)
        self.check(np.tile([0.5, -1.0, 2.0], (5 * 10**4, 1)), 0.0)

    def test_collinear_3d(self):
        t = np.random.default_rng(34).uniform(-1.0, 1.0, 10**4)
        pts = np.stack([t, 2.0 * t + 1.0, -t], axis=1)
        self.check(pts, (t.max() - t.min()) * math.sqrt(6.0) / 2.0)


def _small_sets(rng, dim):
    """(points, degenerate) for every point count the pivot solves
    (1..d+2): generic sets, sets with a duplicated point, collinear triples
    and, in 3D, coplanar quadruples."""
    sets = []
    for k in range(1, dim + 3):
        for _ in range(30):
            pts = random_points(rng, k, dim, 2)
            sets.append((pts, False))
            if k > 1:
                i, j = rng.choice(k, size=2, replace=False)
                sets.append(([pts[j] if m == i else p for m, p in enumerate(pts)], True))
    for _ in range(30):
        a, u, v = rng.uniform(-2, 2, size=(3, dim))
        sets.append(([a + t * u for t in rng.uniform(-1, 1, 3)], True))
        if dim == 3:
            sets.append(([a + s * u + t * v for s, t in rng.uniform(-1, 1, (4, 2))], True))
    if dim == 2:
        sets = [([complex(*p) if np.ndim(p) else p for p in pts], flat) for pts, flat in sets]
    return sets


class TestSmallKernel:
    """The exact solver on every subproblem size, against the oracle."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_min_ball_matches_oracle(self, dim):
        for pts, _ in _small_sets(np.random.default_rng(40 + dim), dim):
            ball, support = min_ball(pts)
            _, r_ref = brute_min_ball(pts)
            assert ball.r == pytest.approx(r_ref, abs=1e-9)
            assert len(support.indices) <= dim + 1
            for p in support.points:
                assert abs(dist(p, ball.c) - ball.r) <= 1e-9 * (1 + ball.r)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_ball_from_support_matches_oracle(self, dim):
        for pts, degenerate in _small_sets(np.random.default_rng(50 + dim), dim):
            if len(pts) > dim + 1:
                continue
            b = ball_from_support(pts)
            if degenerate:  # the smallest covering ball
                center, r_ref = brute_min_ball(pts)
            else:
                vecs = [as_vec(p) for p in pts]
                center = _circumcenter_exact(vecs)
                r_ref = max(float(np.linalg.norm(v - center)) for v in vecs)
            assert np.linalg.norm(as_vec(b.c) - center) <= 1e-9 * (1 + r_ref)
            assert b.r == pytest.approx(r_ref, abs=1e-9 * (1 + r_ref))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_pivot_every_size(self, dim):
        # with a boundary point of the smallest ball last, the smallest ball
        # through that point is the smallest ball of the set
        sizes = set()
        for pts, _ in _small_sets(np.random.default_rng(60 + dim), dim):
            vecs = [as_vec(p) for p in pts]
            center, r_ref = brute_min_ball(pts)
            tol = 1e-9 * (1 + r_ref)
            last = max(i for i, v in enumerate(vecs) if abs(np.linalg.norm(v - center) - r_ref) <= tol)
            cols = np.array(vecs[:last] + vecs[last + 1 :] + [vecs[last]]).T
            q = [minball._point(cols, i) for i in range(len(vecs))]
            c, reach, members = minball._pivot(q, dim)
            sizes.add(len(q))
            assert math.sqrt(reach) == pytest.approx(r_ref, abs=tol)
            assert np.linalg.norm(np.array(c[:dim]) - center) <= tol
            assert members[-1] == len(q) - 1 and members == sorted(set(members))
        assert sizes == set(range(1, dim + 3))


class TestGather:
    """``_gather`` copies the chosen blocks of consecutive entries, bit for
    bit as indexing the reshaped blocks does, in each layout it is given."""

    @pytest.mark.parametrize("layout", ["complex", "rows", "strided_rows", "fortran"])
    def test_matches_block_indexing(self, layout):
        rng = np.random.default_rng(170)
        for nb, size in ((1, 1), (5, 1), (8, 64), (37, 27)):
            count = nb * size
            near = np.sort(rng.choice(nb, size=rng.integers(0, nb + 1), replace=False))
            if layout == "complex":
                a = rng.normal(size=count) + 1j * rng.normal(size=count)
                expected = np.take(a.reshape(-1, size), near, axis=-2).reshape(-1)
                got = minball._gather(a, near, size)
            elif layout in ("rows", "strided_rows"):
                if layout == "rows":
                    a = rng.normal(size=(3, count))
                else:  # the (2, N) rows min_ball reads of complex points
                    a = np.stack([rng.normal(size=count), rng.normal(size=count)], axis=-1).T
                    assert count == 1 or not a.flags.c_contiguous
                d = len(a)
                expected = a.reshape(d, nb, size)[:, near].reshape(d, -1)
                got = minball._gather(a, near, size)
            else:
                a = np.asfortranarray(rng.normal(size=(count, 3)))
                rows = a.T.reshape(3, -1, size)
                expected = np.take(rows, near, axis=-2).reshape(3, -1).T
                got = minball._gather(a.T, near, size).T
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


class TestNear:
    """``_near`` keeps the blocks whose first value plus radius reaches the
    largest first value; a tie, a NaN or an inf keeps its block."""

    @pytest.mark.parametrize(
        "first, radii, kept",
        [
            ([1.0, 3.0, 2.0], [1.5, 0.0, 0.5], [1]),  # 2.5 and 2.5 fall short of 3
            ([1.0, 3.0, 2.0], [2.0, 0.0, 1.0], [0, 1, 2]),  # ties at the maximum
            ([1.0, 3.0], [math.nan, 0.0], [0, 1]),
            ([math.nan, 3.0, 1.0], [0.0, 0.0, 0.0], [0, 1, 2]),  # the maximum is NaN
            ([1.0, 3.0, 2.0], [math.inf, 0.0, 0.0], [0, 1]),
        ],
    )
    def test_keeps_blocks_that_reach_the_maximum(self, first, radii, kept):
        assert minball._near(np.array(first), np.array(radii)).tolist() == kept
