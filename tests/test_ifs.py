import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ifsbound import (
    Ball,
    BoundReport,
    IfsSystem,
    Label,
    Line,
    NodeBudgetExceeded,
    PointCloud,
    Similitude2,
    Similitude3,
    address_points,
    apply_map,
    apply_map_ball,
    apply_word,
    chaos_game,
    hutchinson_balls,
    min_ball,
    tighten,
)
from ifsbound.rng import SplitMix64
from conftest import cantor_ifs, random_ifs_3d, sierpinski_ifs

finite = dict(allow_nan=False, allow_infinity=False)

points = st.builds(complex, st.floats(-5, 5, **finite), st.floats(-5, 5, **finite))
factors = st.builds(
    lambda lam, th: lam * cmath.exp(1j * th),
    st.floats(0.05, 0.95, **finite),
    st.floats(-math.pi, math.pi, **finite),
)
maps2 = st.builds(Similitude2, p=points, phi=factors)


class TestSimilitudeValidation:
    def test_phi_on_unit_circle_rejected(self):
        with pytest.raises(ValueError):
            Similitude2(p=0, phi=1.0)

    def test_phi_zero_rejected(self):
        with pytest.raises(ValueError):
            Similitude2(p=0, phi=0.0)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Similitude2(p=0, phi=1.0),
            lambda: Similitude2(p=0, phi=0.0),
            lambda: Similitude3(p=np.zeros(3), lam=1.5, rot=np.eye(3)),
            lambda: Similitude3(p=np.zeros(3), lam=0.0, rot=np.eye(3)),
        ],
        ids=["2d-unit", "2d-zero", "3d-above-one", "3d-zero"],
    )
    def test_constructors_name_the_contraction(self, build):
        with pytest.raises(ValueError, match="not a contraction"):
            build()

    def test_lam_theta_accessors(self):
        m = Similitude2(p=1j, phi=0.5 * cmath.exp(1j * 0.7))
        assert m.lam == pytest.approx(0.5, abs=1e-15)
        assert m.theta == pytest.approx(0.7, abs=1e-15)

    def test_3d_lambda_range(self):
        with pytest.raises(ValueError):
            Similitude3.from_axis_angle(p=[0, 0, 0], lam=1.0, axis=[0, 0, 1], angle=0.3)

    def test_3d_raw_matrix_validated_not_repaired(self):
        bad = np.eye(3)
        bad[0, 1] = 1e-6
        with pytest.raises(ValueError):
            Similitude3(p=np.zeros(3), lam=0.5, rot=bad)

    def test_3d_reflection_rejected(self):
        refl = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            Similitude3(p=np.zeros(3), lam=0.5, rot=refl)

    def test_3d_non_finite_rotation_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            Similitude3(p=np.zeros(3), lam=0.5, rot=np.full((3, 3), np.nan))
        with pytest.raises(ValueError, match="non-finite"):
            Similitude3.from_axis_angle(p=[0, 0, 0], lam=0.5, axis=[0, 0, 1], angle=math.nan)

    def test_axis_angle_rotation_is_orthogonal(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            axis = rng.normal(size=3)
            angle = rng.uniform(-math.pi, math.pi)
            m = Similitude3.from_axis_angle(p=[0, 0, 0], lam=0.4, axis=axis, angle=angle)
            assert np.max(np.abs(m.rot.T @ m.rot - np.eye(3))) <= 1e-12
            assert np.linalg.det(m.rot) == pytest.approx(1.0, abs=1e-12)

    def test_zero_axis_rejected(self):
        with pytest.raises(ValueError):
            Similitude3.from_axis_angle(p=[0, 0, 0], lam=0.5, axis=[0, 0, 0], angle=1.0)

    def test_mixed_dimensions_rejected(self):
        m2 = Similitude2(p=0, phi=0.5)
        m3 = Similitude3.from_axis_angle(p=[0, 0, 0], lam=0.5, axis=[0, 0, 1], angle=0)
        with pytest.raises(ValueError):
            IfsSystem(maps=(m2, m3))

    def test_empty_system_rejected(self):
        with pytest.raises(ValueError):
            IfsSystem(maps=())

    def test_non_similitude_rejected(self):
        for maps in ((object(),), (Similitude2(p=0, phi=0.5), "map")):
            with pytest.raises(TypeError, match="not a similitude"):
                IfsSystem(maps=maps)


class TestApplyMap:
    def test_third_of_unit(self):
        assert apply_map(Similitude2(p=0, phi=1 / 3), 1) == pytest.approx(1 / 3)

    def test_fixed_point_is_fixed(self):
        p0 = 0.3 + 0.8j
        m = Similitude2(p=p0, phi=0.4 * cmath.exp(1j))
        assert apply_map(m, p0) == p0

    def test_anchored_at_one(self):
        assert apply_map(Similitude2(p=1, phi=1 / 3), 0) == pytest.approx(2 / 3)

    def test_dimension_mismatch(self):
        m = Similitude2(p=0, phi=0.5)
        with pytest.raises(ValueError):
            apply_map(m, np.zeros(3))

    @given(m=maps2, z1=points, z2=points)
    @settings(max_examples=200, deadline=None)
    def test_contraction_ratio_exact(self, m, z1, z2):
        image_gap = abs(apply_map(m, z1) - apply_map(m, z2))
        assert abs(image_gap - m.lam * abs(z1 - z2)) <= 1e-12 * (1 + abs(z1 - z2))

    @given(m=maps2)
    @settings(max_examples=200, deadline=None)
    def test_fixed_point_property(self, m):
        assert abs(apply_map(m, m.p) - m.p) <= 1e-14


class TestApplyMapBall:
    def test_cantor_left(self):
        out = apply_map_ball(Similitude2(p=0, phi=1 / 3), Ball(0.5, 0.5))
        assert out.c == pytest.approx(1 / 6)
        assert out.r == pytest.approx(1 / 6)

    def test_cantor_right(self):
        out = apply_map_ball(Similitude2(p=1, phi=1 / 3), Ball(0.5, 0.5))
        assert out.c == pytest.approx(5 / 6)
        assert out.r == pytest.approx(1 / 6)

    def test_3d_identity_rotation(self):
        m = Similitude3.from_axis_angle(p=[0, 0, 0], lam=0.5, axis=[0, 0, 1], angle=0.0)
        out = apply_map_ball(m, Ball(np.array([2.0, 0.0, 0.0]), 1.0))
        assert np.allclose(out.c, [1.0, 0.0, 0.0])
        assert out.r == pytest.approx(0.5)

    @given(m=maps2, c=points, r=st.floats(0.01, 3, **finite), ang=st.floats(0, 2 * math.pi, **finite))
    @settings(max_examples=200, deadline=None)
    def test_boundary_maps_to_boundary(self, m, c, r, ang):
        b = Ball(c, r)
        z = c + r * cmath.exp(1j * ang)
        image = apply_map_ball(m, b)
        assert abs(abs(apply_map(m, z) - image.c) - image.r) <= 1e-12 * (1 + r)


class TestHutchinson:
    def test_cantor_pair(self):
        out = hutchinson_balls(cantor_ifs(), [Ball(0.5, 0.5)])
        assert len(out) == 2
        assert out[0].c == pytest.approx(1 / 6) and out[0].r == pytest.approx(1 / 6)
        assert out[1].c == pytest.approx(5 / 6) and out[1].r == pytest.approx(1 / 6)

    def test_empty_input(self):
        assert hutchinson_balls(cantor_ifs(), []) == []

    def test_sierpinski_halves_radii(self):
        out = hutchinson_balls(sierpinski_ifs(), [Ball(0.5 + 0.3j, 0.8)])
        assert len(out) == 3
        assert all(b.r == pytest.approx(0.4) for b in out)

    def test_map_major_order(self):
        balls = [Ball(0.1, 0.1), Ball(0.9, 0.1)]
        out = hutchinson_balls(cantor_ifs(), balls)
        expected = [
            apply_map_ball(m, b) for m in cantor_ifs().maps for b in balls
        ]
        assert [(b.c, b.r) for b in out] == [(b.c, b.r) for b in expected]


class TestApplyWord:
    def test_cantor_composition(self):
        # hand composition: T2(0.5) = 5/6, then T1 gives 5/18
        z, factor = apply_word(cantor_ifs(), (1, 2), 0.5)
        assert z == pytest.approx(5 / 18, abs=1e-15)
        assert factor == pytest.approx(1 / 9, abs=1e-15)

    def test_empty_word_is_identity(self):
        z, factor = apply_word(cantor_ifs(), (), 0.77 + 0.1j)
        assert z == 0.77 + 0.1j
        assert factor == 1.0

    def test_single_letter_fixes_fixed_point(self):
        ifs = cantor_ifs()
        for k, m in enumerate(ifs.maps, start=1):
            z, _ = apply_word(ifs, (k,), m.p)
            assert z == m.p

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            apply_word(cantor_ifs(), (3,), 0.0)
        with pytest.raises(IndexError):
            apply_word(cantor_ifs(), (0,), 0.0)

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_factor_is_product_of_map_factors(self, data):
        maps = data.draw(st.lists(maps2, min_size=1, max_size=4))
        ifs = IfsSystem(maps=tuple(maps))
        word = data.draw(
            st.lists(st.integers(1, len(maps)), min_size=0, max_size=6).map(tuple)
        )
        _, factor = apply_word(ifs, word, 0.0)
        expected = math.prod(ifs.maps[k - 1].lam for k in word)
        assert abs(factor - expected) <= 1e-14 * (1 + expected)


class TestAddressPoints:
    def test_cantor_depth0_is_fixed_points(self):
        pts = address_points(cantor_ifs(), 0)
        assert np.allclose(pts, [0.0, 1.0])

    def test_cantor_depth1(self):
        pts = address_points(cantor_ifs(), 1)
        assert np.allclose(sorted(pts.real), [0.0, 1 / 3, 2 / 3, 1.0])

    def test_single_map_collapses(self):
        ifs = IfsSystem(maps=(Similitude2(p=0.2 + 0.4j, phi=0.5j),))
        for depth in (0, 3, 7):
            pts = address_points(ifs, depth)
            assert pts.shape == (1,)
            assert pts[0] == 0.2 + 0.4j

    def test_single_map_levels_count_against_the_budget(self):
        # one leaf at every depth, but a round of work a level
        ifs = IfsSystem(maps=(Similitude2(p=0.2 + 0.4j, phi=0.5j),))
        assert address_points(ifs, 8, budget=8).tolist() == [0.2 + 0.4j]
        with pytest.raises(NodeBudgetExceeded, match="enumeration would walk 9 levels, budget is 8"):
            address_points(ifs, 9, budget=8)

    def test_budget_exceeded(self):
        with pytest.raises(NodeBudgetExceeded):
            address_points(cantor_ifs(), 19)  # 2^20 points, just above the default
        address_points(cantor_ifs(), 19, budget=2**20)  # raising it works

    def test_budget_boundary(self):
        assert len(address_points(cantor_ifs(), 2, budget=8)) == 8  # 2^3 leaves
        with pytest.raises(NodeBudgetExceeded, match="enumeration would produce 8 leaves, budget is 7"):
            address_points(cantor_ifs(), 2, budget=7)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_huge_depth_exceeds_the_budget(self, dim):
        # decided without forming 3**10**6, a number of 477,122 digits
        ifs = sierpinski_ifs() if dim == 2 else random_ifs_3d(np.random.default_rng(25), n=3)
        with pytest.raises(NodeBudgetExceeded, match=r"would produce 3·3\^1000000 leaves, budget is 1000000"):
            address_points(ifs, 10**6)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_dedupe_matches_unique(self, dim):
        # touching maps: neighbouring images share points exactly
        p = [0, 1, 0.5 + 0.5j] if dim == 2 else [[0, 0, 0], [1, 0, 0], [0.5, 0.5, 0], [0.5, 0.2, 0.5]]
        if dim == 2:
            ifs = IfsSystem(maps=tuple(Similitude2(p=q, phi=0.5) for q in p))
        else:
            maps = (Similitude3.from_axis_angle(p=q, lam=0.5, axis=[0, 0, 1], angle=0.0) for q in p)
            ifs = IfsSystem(maps=tuple(maps))
        for depth in (0, 1, 4, 7):
            raw = address_points(ifs, depth, dedupe=False)
            pts = address_points(ifs, depth)
            ref = np.unique(raw) if dim == 2 else np.unique(raw, axis=0)
            assert pts.shape == ref.shape and np.array_equal(pts, ref)
            assert depth == 0 or len(pts) < len(raw)

    def test_3d_depth1_shape(self):
        m1 = Similitude3.from_axis_angle(p=[0, 0, 0], lam=0.5, axis=[0, 0, 1], angle=0.3)
        m2 = Similitude3.from_axis_angle(p=[1, 0, 0], lam=0.5, axis=[0, 1, 0], angle=-0.3)
        pts = address_points(IfsSystem(maps=(m1, m2)), 1)
        assert pts.shape == (4, 3)

    def test_members_are_attractor_points(self):
        # depth L+1 points stay inside any ball certified for depth L images
        ifs = cantor_ifs()
        deep = address_points(ifs, 6)
        assert np.all(deep.real >= -1e-12) and np.all(deep.real <= 1 + 1e-12)
        assert np.allclose(deep.imag, 0.0)


class TestChaosGame:
    def test_zero_count(self):
        assert chaos_game(cantor_ifs(), 0, seed=9).size == 0

    def test_deterministic_per_seed(self):
        a = chaos_game(cantor_ifs(), 500, seed=123)
        b = chaos_game(cantor_ifs(), 500, seed=123)
        assert np.array_equal(a, b)

    def test_seed_changes_sequence(self):
        a = chaos_game(cantor_ifs(), 100, seed=1)
        b = chaos_game(cantor_ifs(), 100, seed=2)
        assert not np.array_equal(a, b)

    def test_cantor_stays_in_unit_interval(self):
        pts = chaos_game(cantor_ifs(), 1000, seed=1)
        assert np.all(pts.real >= -1e-6) and np.all(pts.real <= 1 + 1e-6)
        assert np.allclose(pts.imag, 0.0)

    def test_3d_output_shape(self):
        m1 = Similitude3.from_axis_angle(p=[0, 0, 0], lam=0.5, axis=[1, 1, 0], angle=0.4)
        m2 = Similitude3.from_axis_angle(p=[1, 1, 1], lam=0.4, axis=[0, 0, 1], angle=-1.0)
        pts = chaos_game(IfsSystem(maps=(m1, m2)), 64, seed=5)
        assert pts.shape == (64, 3)
        assert np.all(np.isfinite(pts))


_SPACE = [1.0, 2.0, 3.0]
_POINT_INPUTS = {
    # each constructor reads one point and gives it back in the point format
    "Ball": lambda p: Ball(p, 1.0).c,
    "Line anchor": lambda p: Line(p, _SPACE if np.size(p) == 3 else 1j).a,
    "min_ball": lambda p: min_ball([p])[0].c,
    "min_ball support": lambda p: min_ball([p])[1].points[0],
    "PointCloud": lambda p: PointCloud(points=[p]).points[0],
    "Label": lambda p: Label(text="a", anchor=p).anchor,
}


class TestPointInput:
    """Every public entry point accepts and rejects the same point forms."""

    @pytest.mark.parametrize("reader", list(_POINT_INPUTS))
    @pytest.mark.parametrize(
        "form, expected",
        [(1.5 + 2j, 1.5 + 2j), (1.5, 1.5 + 0j), (3, 3 + 0j), ((1.5, 2.0), 1.5 + 2j), (np.array([1.5, 2.0]), 1.5 + 2j)],
        ids=["complex", "float", "int", "pair", "array"],
    )
    def test_plane_forms(self, reader, form, expected):
        z = _POINT_INPUTS[reader](form)
        assert type(z) is complex and z == expected

    @pytest.mark.parametrize("reader", ["Ball", "Line anchor", "min_ball", "min_ball support"])
    @pytest.mark.parametrize("form", [(1.0, 2.0, 3.0), [1, 2, 3], np.array(_SPACE)], ids=["tuple", "ints", "array"])
    def test_space_forms_give_read_only_copies(self, reader, form):
        v = _POINT_INPUTS[reader](form)
        assert v.dtype == float and v.shape == (3,) and np.array_equal(v, _SPACE)
        assert not v.flags.writeable
        assert not np.shares_memory(v, form)

    @pytest.mark.parametrize("reader", list(_POINT_INPUTS))
    @pytest.mark.parametrize(
        "bad",
        [complex(math.nan, 0), math.inf, (0.0, math.nan), np.array([0.0, math.inf, 0.0]), np.zeros(4), (1, 2, 3, 4)],
        ids=["nan", "inf", "nan_pair", "inf_vector", "shape4", "tuple4"],
    )
    def test_bad_points_rejected(self, reader, bad):
        with pytest.raises(ValueError):
            _POINT_INPUTS[reader](bad)

    def test_line_dimensions_must_agree(self):
        with pytest.raises(ValueError):
            Line(0j, np.array(_SPACE))
        with pytest.raises(ValueError):
            Line(_SPACE, 1j)

    def test_point_cloud_rows(self):
        rows = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert PointCloud(points=rows).points == (1 + 2j, 3 + 4j)
        with pytest.raises(ValueError):
            PointCloud(points=np.ones((2, 3)))


_PLANE = IfsSystem(maps=(Similitude2(p=0, phi=0.5), Similitude2(p=1, phi=0.5)))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: tighten(_PLANE, Ball(0.5, 1.0), -1), "levels must be >= 0"),
        (lambda: address_points(_PLANE, depth=-1), "depth must be >= 0"),
        (lambda: chaos_game(_PLANE, count=-1, seed=1), "count must be >= 0"),
        (lambda: chaos_game(_PLANE, count=5, seed=1, burn_in=-1), "burn_in must be >= 0"),
        (
            lambda: BoundReport(ball=Ball(0, 1.0), method="bogus", slack=(), lambda_star=0.5, mu_star=0.5),
            "unknown method tag 'bogus'",
        ),
        (lambda: Similitude3(p=(0, 0, 0), lam=0.5, rot=np.eye(2)), "rotation must be a 3x3 matrix"),
        (lambda: SplitMix64(1).index(0), "n must be positive"),
    ],
    ids=[
        "tighten_levels", "address_depth", "chaos_count", "chaos_burn_in", "report_method", "rotation_2x2",
        "rng_index",
    ],
)
def test_library_calls_name_their_invalid_input(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
