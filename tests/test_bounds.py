import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ifsbound import (
    Ball,
    CircumcircleError,
    IfsSystem,
    NodeBudgetExceeded,
    Similitude2,
    Similitude3,
    address_points,
    apply_M,
    apply_word,
    best_bounding_ball,
    circumcircle,
    circumcircle_bifractal,
    circumcircle_trifractal,
    containment_tol,
    general_bounding_ball,
    mean_centers,
    min_ball,
    mu_norm,
    mu_star,
    mu_values,
    tighten,
    verify_containment,
)
from ifsbound import bounds
from ifsbound.ifs import _coords, _word_tree_images
from conftest import (
    cantor_ifs,
    mixed_bifractal,
    random_ifs_2d,
    random_ifs_3d,
    sierpinski_ifs,
    tighten_full_scan,
    touching_ifs,
    translated,
)


def residuals(ifs, ball):
    """Tangency defects |T_k(c) - c| + lam_k * r - r for every map."""
    return [
        abs(m.apply(ball.c) - ball.c) + m.lam * ball.r - ball.r for m in ifs.maps
    ]


class TestMuNorm:
    def test_identity_rotation(self):
        m = Similitude3.from_axis_angle(p=[0, 0, 0], lam=0.5, axis=[0, 0, 1], angle=0.0)
        assert mu_norm(m) == pytest.approx(0.5, abs=1e-15)

    def test_quarter_turn(self):
        m = Similitude3.from_axis_angle(
            p=[0, 0, 0], lam=0.5, axis=[0, 0, 1], angle=math.pi / 2
        )
        assert mu_norm(m) == pytest.approx(math.sqrt(1.25), abs=1e-12)
        assert mu_norm(m) == pytest.approx(abs(1 - 0.5j), abs=1e-12)

    def test_half_turn(self):
        m = Similitude3.from_axis_angle(
            p=[0, 0, 0], lam=0.5, axis=[0, 1, 0], angle=math.pi
        )
        assert mu_norm(m) == pytest.approx(1.5, abs=1e-12)

    def test_against_singular_values(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            ifs = random_ifs_3d(rng, n=1)
            m = ifs.maps[0]
            direct = np.linalg.svd(np.eye(3) - m.lam * m.rot, compute_uv=False)[0]
            assert mu_norm(m) == pytest.approx(direct, abs=1e-10)

    def test_matches_plane_formula(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            lam = rng.uniform(0.05, 0.95)
            theta = rng.uniform(-math.pi, math.pi)
            m = Similitude3.from_axis_angle(
                p=[0, 0, 0], lam=lam, axis=[0, 0, 1], angle=theta
            )
            assert mu_norm(m) == pytest.approx(
                abs(1 - lam * cmath.exp(1j * theta)), abs=1e-10
            )

    def test_maps_hold_their_mu(self):
        rng = np.random.default_rng(33)
        for ifs in (random_ifs_2d(rng, n=3), random_ifs_3d(rng, n=3)):
            expected = [
                abs(1.0 - m.phi) if ifs.dim == 2 else mu_norm(m) for m in ifs.maps
            ]
            assert [m.mu for m in ifs.maps] == expected
            assert mu_values(ifs) == tuple(expected)
            assert mu_star(ifs) == max(expected)


class TestVerifyContainment:
    def test_cantor_tight_ball(self):
        s = verify_containment(cantor_ifs(), Ball(0.5, 0.5))
        assert s == pytest.approx((0.0, 0.0), abs=1e-15)

    def test_cantor_loose_ball(self):
        s = verify_containment(cantor_ifs(), Ball(0.5, 1.0))
        assert s == pytest.approx((1 / 3, 1 / 3), abs=1e-12)

    def test_cantor_failing_ball(self):
        s = verify_containment(cantor_ifs(), Ball(0.5, 0.4))
        assert s == pytest.approx((-1 / 15, -1 / 15), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            verify_containment(cantor_ifs(), Ball(np.zeros(3), 1.0))


class TestGeneralBoundingBall:
    def test_cantor(self):
        report = general_bounding_ball(cantor_ifs())
        assert report.method == "general"
        assert report.ball.c == pytest.approx(0.5, abs=1e-12)
        assert report.ball.r == pytest.approx(0.5, abs=1e-12)
        assert report.lambda_star == pytest.approx(1 / 3)
        assert report.mu_star == pytest.approx(2 / 3)
        assert min(report.slack) >= -containment_tol(report.ball.r)

    def test_sierpinski(self):
        report = general_bounding_ball(sierpinski_ifs())
        assert report.ball.c == pytest.approx(0.5 + 1j * math.sqrt(3) / 6, abs=1e-9)
        assert report.ball.r == pytest.approx(1 / math.sqrt(3), abs=1e-9)

    def test_mixed_bifractal(self):
        report = general_bounding_ball(mixed_bifractal())
        assert report.ball.c == pytest.approx(0.5, abs=1e-12)
        assert report.ball.r == pytest.approx(0.75, abs=1e-12)

    def test_single_map_gives_point_ball(self):
        ifs = IfsSystem(maps=(Similitude2(p=0.2 + 0.7j, phi=0.6j),))
        report = general_bounding_ball(ifs)
        assert report.ball.c == pytest.approx(0.2 + 0.7j)
        assert report.ball.r == 0.0

    def test_optimal_beats_means(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            ifs = random_ifs_2d(rng)
            r_opt = general_bounding_ball(ifs, center="optimal").ball.r
            r_ari = general_bounding_ball(ifs, center="arithmetic").ball.r
            r_har = general_bounding_ball(ifs, center="harmonic").ball.r
            assert r_opt <= r_ari + 1e-12
            assert r_opt <= r_har + 1e-12
            r_best = general_bounding_ball(ifs, center="best").ball.r
            assert r_best <= min(r_opt, r_ari, r_har) + 1e-12

    def test_strategy_tags(self):
        ifs = mixed_bifractal()
        assert general_bounding_ball(ifs, center="arithmetic").method == "general_arithmetic"
        assert general_bounding_ball(ifs, center="harmonic").method == "general_harmonic"
        # best is the smallest-circle center, though all three are exactly 0.5
        assert general_bounding_ball(ifs, center="best").method == "general"

    def test_best_is_the_optimal_center(self):
        """``best`` is the smallest-circle center, field for field, also on
        Sierpinski, where the arithmetic mean's ball is one ulp smaller."""
        rng = np.random.default_rng(43)
        systems = [sierpinski_ifs()] + [random_ifs_2d(rng) for _ in range(20)]
        systems += [random_ifs_3d(rng) for _ in range(20)]
        for ifs in systems:
            best = general_bounding_ball(ifs, center="best")
            optimal = general_bounding_ball(ifs, center="optimal")
            assert np.asarray(best.ball.c).tobytes() == np.asarray(optimal.ball.c).tobytes()
            assert best.ball.r == optimal.ball.r
            fields = ("method", "slack", "lambda_star", "mu_star", "notes")
            assert [getattr(best, f) for f in fields] == [getattr(optimal, f) for f in fields]

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            general_bounding_ball(cantor_ifs(), center="median")

    def test_3d_slack_nonnegative(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            ifs = random_ifs_3d(rng)
            report = general_bounding_ball(ifs)
            assert min(report.slack) >= -containment_tol(report.ball.r)

    @pytest.mark.parametrize(
        "maps",
        [
            # the smallest circle of the fixed points (radius 2.4e308) is beyond the float range
            [Similitude2(p=x * (1 + 1j), phi=0.5) for x in (1.7e308, -1.7e308)],
            # only the radius, 3 * 1e308, is
            [Similitude2(p=x, phi=-0.5) for x in (1e308, -1e308)],
        ],
        ids=["circle", "radius"],
    )
    @pytest.mark.parametrize("center", ["optimal", "arithmetic", "best"])
    def test_beyond_the_float_range_is_one_overflow(self, maps, center):
        ifs = IfsSystem(maps=tuple(maps))
        with pytest.raises(OverflowError, match="^the general bounding ball overflows the float range$"):
            general_bounding_ball(ifs, center)
        with pytest.raises(OverflowError, match="^the general bounding ball overflows the float range$"):
            best_bounding_ball(ifs)


class TestMeanCenters:
    def test_three_point_arithmetic(self):
        ifs = IfsSystem(
            maps=(
                Similitude2(p=0, phi=0.5),
                Similitude2(p=1, phi=0.5),
                Similitude2(p=1j, phi=0.5),
            )
        )
        c_a, _ = mean_centers(ifs)
        assert c_a == pytest.approx((1 + 1j) / 3)

    def test_symmetric_pair(self):
        c_a, c_h = mean_centers(cantor_ifs())
        assert c_a == pytest.approx(0.5)
        assert c_h == pytest.approx(0.5)

    def test_equilateral_means_coincide(self):
        c_a, c_h = mean_centers(sierpinski_ifs())
        centroid = 0.5 + 1j * math.sqrt(3) / 6
        assert c_a == pytest.approx(centroid, abs=1e-12)
        assert c_h == pytest.approx(centroid, abs=1e-12)

    def test_single_map_means_are_its_fixed_point(self):
        ifs = IfsSystem(maps=(Similitude2(p=0.3 + 0.4j, phi=0.5),))
        assert mean_centers(ifs) == (0.3 + 0.4j, 0.3 + 0.4j)

    def test_coincident_fixed_points_warn(self):
        ifs = IfsSystem(
            maps=(Similitude2(p=0.5, phi=0.3), Similitude2(p=0.5, phi=0.3j))
        )
        with pytest.warns(RuntimeWarning):
            c_a, c_h = mean_centers(ifs)
        assert c_h == c_a == pytest.approx(0.5)


class TestCircumcircleTrifractal:
    def test_sierpinski_is_classical_circumcircle(self):
        report = circumcircle_trifractal(sierpinski_ifs())
        assert report.method == "circum_tri"
        assert report.ball.c == pytest.approx(0.5 + 1j * math.sqrt(3) / 6, abs=1e-9)
        assert report.ball.r == pytest.approx(1 / math.sqrt(3), abs=1e-9)
        tol = containment_tol(report.ball.r)
        for p in sierpinski_ifs().fixed_points:
            assert abs(abs(p - report.ball.c) - report.ball.r) <= tol

    def test_equal_rotated_factors(self):
        top = (1 + 1j * math.sqrt(3)) / 2
        phi = 0.4 * cmath.exp(1j * math.pi / 6)
        ifs = IfsSystem(
            maps=(
                Similitude2(p=0, phi=phi),
                Similitude2(p=1, phi=phi),
                Similitude2(p=top, phi=phi),
            )
        )
        report = circumcircle_trifractal(ifs)
        tol = containment_tol(report.ball.r)
        assert all(abs(res) <= tol for res in residuals(ifs, report.ball))

    def test_distinct_factors_quadratic_branch(self):
        ifs = IfsSystem(
            maps=(
                Similitude2(p=0, phi=0.3),
                Similitude2(p=1, phi=0.4 * cmath.exp(1j * math.pi / 7)),
                Similitude2(p=0.3 + 0.9j, phi=0.5 * cmath.exp(-1j * math.pi / 5)),
            )
        )
        report = circumcircle_trifractal(ifs)
        tol = containment_tol(report.ball.r)
        assert all(abs(res) <= tol for res in residuals(ifs, report.ball))
        # theta_1 = 0, so the first fixed point sits on the circle
        assert abs(abs(0 - report.ball.c) - report.ball.r) <= tol

    def test_collinear_fixed_points(self):
        ifs = IfsSystem(
            maps=(
                Similitude2(p=0, phi=0.3),
                Similitude2(p=1, phi=0.3),
                Similitude2(p=2, phi=0.3),
            )
        )
        with pytest.raises(CircumcircleError):
            circumcircle_trifractal(ifs)

    def test_wrong_map_count(self):
        with pytest.raises(ValueError):
            circumcircle_trifractal(cantor_ifs())

    def test_zero_angle_fixed_points_on_circle(self):
        rng = np.random.default_rng(51)
        hits = 0
        while hits < 50:
            ifs = random_ifs_2d(rng, n=3, rotations=False)
            try:
                report = circumcircle_trifractal(ifs)
            except CircumcircleError:
                continue
            hits += 1
            tol = containment_tol(report.ball.r)
            for p in ifs.fixed_points:
                assert abs(abs(p - report.ball.c) - report.ball.r) <= tol

    def test_random_tangency_residuals(self):
        rng = np.random.default_rng(52)
        hits = 0
        while hits < 100:
            ifs = random_ifs_2d(rng, n=3)
            try:
                report = circumcircle_trifractal(ifs)
            except CircumcircleError:
                continue
            hits += 1
            tol = containment_tol(report.ball.r)
            assert all(abs(res) <= tol for res in residuals(ifs, report.ball))
            assert min(report.slack) >= -tol


class TestApplyM:
    def test_cantor_tight_ball_is_fixed(self):
        out = apply_M(cantor_ifs(), Ball(0.5, 0.5))
        assert out.c == pytest.approx(0.5, abs=1e-15)
        assert out.r == pytest.approx(0.5, abs=1e-15)

    def test_hand_evaluated_step(self):
        out = apply_M(mixed_bifractal(), Ball(0.5, 0.5))
        assert out.c == pytest.approx(0.5, abs=1e-15)
        assert out.r == pytest.approx(0.5, abs=1e-15)

    def test_iteration_converges_to_circumcircle(self):
        rng = np.random.default_rng(53)
        for _ in range(60):
            ifs = random_ifs_2d(rng, n=2)
            target = circumcircle_bifractal(ifs).ball
            ball = general_bounding_ball(ifs).ball
            for _ in range(200):
                ball = apply_M(ifs, ball)
                if abs(ball.c - target.c) + abs(ball.r - target.r) <= 1e-9:
                    break
            assert abs(ball.c - target.c) + abs(ball.r - target.r) <= 1e-9

    def test_degenerate_shared_image_center(self):
        # T(0) = p * (1 - phi): both maps send the probe center to 0.5
        ifs = IfsSystem(
            maps=(Similitude2(p=1, phi=0.5), Similitude2(p=2, phi=0.75))
        )
        probe = Ball(0.0, 1.0)
        t1 = ifs.maps[0].apply(probe.c)
        assert t1 == ifs.maps[1].apply(probe.c)
        with pytest.warns(RuntimeWarning):
            out = apply_M(ifs, probe)
        assert out.c == t1
        assert out.r == pytest.approx(0.75)

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            apply_M(sierpinski_ifs(), Ball(0.5, 1.0))


class TestCircumcircleBifractal:
    def test_cantor_interval(self):
        report = circumcircle_bifractal(cantor_ifs())
        assert report.method == "circum_bi"
        assert report.ball.c == pytest.approx(0.5, abs=1e-12)
        assert report.ball.r == pytest.approx(0.5, abs=1e-12)

    def test_mixed_factors(self):
        report = circumcircle_bifractal(mixed_bifractal())
        assert report.ball.c == pytest.approx(0.5, abs=1e-12)
        assert report.ball.r == pytest.approx(0.5, abs=1e-12)
        # tighter than the general ball for the same system
        assert report.ball.r < general_bounding_ball(mixed_bifractal()).ball.r

    def test_symmetric_real_family(self):
        for lam in (0.1, 0.25, 0.5, 0.75, 0.9):
            ifs = IfsSystem(
                maps=(Similitude2(p=0, phi=lam), Similitude2(p=1, phi=lam))
            )
            report = circumcircle_bifractal(ifs)
            assert report.ball.c == pytest.approx(0.5, abs=1e-12)
            assert report.ball.r == pytest.approx(0.5, abs=1e-12)

    def test_coincident_fixed_points_degenerate(self):
        ifs = IfsSystem(
            maps=(Similitude2(p=0.5j, phi=0.5), Similitude2(p=0.5j, phi=0.25j))
        )
        report = circumcircle_bifractal(ifs)
        assert report.ball.c == 0.5j
        assert report.ball.r == 0.0
        assert any("degenerate" in note for note in report.notes)

    def test_fixed_circle_property(self):
        rng = np.random.default_rng(54)
        for _ in range(150):
            ifs = random_ifs_2d(rng, n=2)
            report = circumcircle_bifractal(ifs)
            tol = containment_tol(report.ball.r)
            out = apply_M(ifs, report.ball)
            assert abs(out.c - report.ball.c) <= tol
            assert abs(out.r - report.ball.r) <= tol
            assert all(abs(res) <= tol for res in residuals(ifs, report.ball))

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            circumcircle_bifractal(sierpinski_ifs())

    def test_overflow_is_unavailable(self):
        # solved at a safe scale, the circle's radius |p2 - p1| / 2 = 2.4e308
        # is beyond the float range once scaled back
        far = 1.7e308 * (1 + 1j)
        ifs = IfsSystem(maps=(Similitude2(p=-far, phi=0.5), Similitude2(p=far, phi=0.5)))
        with pytest.raises(CircumcircleError, match="the circumcircle overflows the float range"):
            circumcircle_bifractal(ifs)


@pytest.mark.parametrize(
    "construct",
    [
        lambda: circumcircle_trifractal(cantor_ifs()),
        lambda: circumcircle_bifractal(sierpinski_ifs()),
        lambda: apply_M(random_ifs_3d(np.random.default_rng(5), n=2), Ball([0, 0, 0], 1.0)),
    ],
    ids=["trifractal-2-maps", "bifractal-3-maps", "apply_M-3d"],
)
def test_plane_constructions_share_one_guard(construct):
    with pytest.raises(ValueError, match="needs a 2D system with exactly"):
        construct()


class TestBestBoundingBall:
    def test_prefers_tighter_circumcircle(self):
        report = best_bounding_ball(mixed_bifractal())
        assert report.method == "circum_bi"
        assert report.ball.r == pytest.approx(0.5, abs=1e-12)

    def test_collinear_trifractal_falls_back(self):
        ifs = IfsSystem(
            maps=(
                Similitude2(p=0, phi=0.3),
                Similitude2(p=1, phi=0.3),
                Similitude2(p=2, phi=0.3),
            )
        )
        report = best_bounding_ball(ifs)
        assert report.method.startswith("general")
        assert any("circumcircle unavailable" in note for note in report.notes)
        assert min(report.slack) >= -containment_tol(report.ball.r)

    def test_many_maps_use_general(self):
        rng = np.random.default_rng(55)
        ifs = random_ifs_2d(rng, n=5)
        report = best_bounding_ball(ifs)
        assert report.method.startswith("general")

    def test_overflowing_candidates_are_skipped(self):
        # fixed points 2e308 apart: the harmonic weights overflow, and so
        # does the circumcircle (radius 2.4e308, looser than the general
        # ball for these factors); the optimal center's ball (1.69e308) does not
        ifs = IfsSystem(maps=(Similitude2(p=1e308j, phi=0.75 - 0.25j), Similitude2(p=-1e308j, phi=0.75 + 0.25j)))
        with pytest.raises(OverflowError, match="covering radii"):
            general_bounding_ball(ifs, center="harmonic")
        with pytest.raises(CircumcircleError, match="overflows"):
            circumcircle(ifs)
        best = general_bounding_ball(ifs, center="best")
        assert best.method == "general" and best.ball.c == 0 and math.isfinite(best.ball.r)
        report = best_bounding_ball(ifs)
        assert report.method == "general" and report.ball.r == best.ball.r
        assert report.notes == ("circumcircle unavailable: the circumcircle overflows the float range",)


    def test_circumcircle_failing_its_check_falls_back(self):
        # fixed points near 1e6: the closed form rounds to a circle whose
        # own slack is -4.3e-3, far below the tolerance
        ps = (0.8013 + 0.5822j, 0.4791 + 0.1597j, 0.3912 + 0.5167j)
        phis = (-0.01324 - 0.15941j, 0.15146 - 0.06767j, -0.46409 - 0.40232j)
        ifs = IfsSystem(maps=tuple(Similitude2(p=1e6 * (1 - 1j) + p, phi=f) for p, f in zip(ps, phis)))
        circ = circumcircle(ifs)
        assert circ.min_slack < -containment_tol(circ.ball.r)
        report = best_bounding_ball(ifs)
        assert report.method == "general"
        assert report.min_slack >= -containment_tol(report.ball.r)
        assert report.notes == (f"circumcircle fails its containment check (min slack {circ.min_slack:.3e})",)
        assert tighten(ifs, report.ball, 3).ball.r <= report.ball.r


class TestCircumcircleDispatch:
    def test_picks_construction_by_map_count(self):
        assert circumcircle(cantor_ifs()).method == "circum_bi"
        assert circumcircle(sierpinski_ifs()).method == "circum_tri"

    def test_other_systems_raise(self):
        rng = np.random.default_rng(57)
        for ifs in (
            IfsSystem(maps=(Similitude2(p=0, phi=0.5),)),
            random_ifs_2d(rng, n=4),
            random_ifs_3d(rng, n=2),
        ):
            with pytest.raises(CircumcircleError, match="2 or 3 maps"):
                circumcircle(ifs)


class TestTighten:
    def test_cantor_tight_ball_is_fixed_point(self):
        report = tighten(cantor_ifs(), Ball(0.5, 0.5), 1)
        assert report.method == "tightened"
        assert report.ball.c == pytest.approx(0.5, abs=1e-12)
        assert report.ball.r == pytest.approx(0.5, abs=1e-12)

    def test_hand_evaluated_level_one(self):
        report = tighten(mixed_bifractal(), Ball(0.5, 0.75), 1)
        assert report.ball.c == pytest.approx(0.5625, abs=1e-12)
        assert report.ball.r == pytest.approx(0.6875, abs=1e-12)

    def test_level_zero_returns_input(self):
        report = tighten(mixed_bifractal(), Ball(0.5, 0.75), 0)
        assert report.ball.c == pytest.approx(0.5, abs=1e-15)
        assert report.ball.r == pytest.approx(0.75, abs=1e-15)

    def test_rejects_non_bounding_input(self):
        with pytest.raises(ValueError):
            tighten(cantor_ifs(), Ball(0.5, 0.4), 2)

    def test_budget_guard(self):
        with pytest.raises(NodeBudgetExceeded):
            tighten(cantor_ifs(), Ball(0.5, 0.5), 4, budget=8)

    def test_budget_boundary(self):
        tighten(cantor_ifs(), Ball(0.5, 0.5), 3, budget=8)  # 2^3 words
        with pytest.raises(NodeBudgetExceeded, match="enumeration would produce 8 leaves, budget is 7"):
            tighten(cantor_ifs(), Ball(0.5, 0.5), 3, budget=7)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_huge_levels_exceed_the_budget(self, dim):
        ifs = sierpinski_ifs() if dim == 2 else random_ifs_3d(np.random.default_rng(25), n=3)
        with pytest.raises(NodeBudgetExceeded, match=r"would produce 1·3\^1000000 leaves, budget is 1000000"):
            tighten(ifs, best_bounding_ball(ifs).ball, 10**6)

    def test_monotone_and_below_coarse_bound(self):
        rng = np.random.default_rng(56)
        for _ in range(60):
            ifs = random_ifs_2d(rng)
            base = general_bounding_ball(ifs).ball
            for levels in (1, 2, 3):
                report = tighten(ifs, base, levels)
                assert report.ball.r <= base.r + 1e-12
                # independent coarse bound: min ball of word centers plus
                # worst-case contracted input radius
                words = [
                    w
                    for w in _all_words(ifs.n, levels)
                ]
                centers = [apply_word(ifs, w, base.c)[0] for w in words]
                cball, _ = min_ball(centers)
                coarse = cball.r + ifs.lambda_star**levels * base.r
                assert report.ball.r <= coarse + 1e-12

    def test_deep_tighten_approaches_attractor_ball(self):
        ifs = mixed_bifractal()
        base = Ball(0.5, 0.75)
        oracle, _ = min_ball(list(address_points(ifs, 12)))
        prev = base.r
        for levels in (4, 8, 12):
            r = tighten(ifs, base, levels).ball.r
            assert r <= prev + 1e-12
            assert abs(r - oracle.r) <= 2 * ifs.lambda_star**levels * base.r
            prev = r

    def test_3d_tighten(self):
        rng = np.random.default_rng(57)
        ifs = random_ifs_3d(rng, n=2)
        base = general_bounding_ball(ifs).ball
        report = tighten(ifs, base, 3)
        assert report.ball.r <= base.r + 1e-12
        pts = address_points(ifs, 8)
        gap = np.linalg.norm(pts - report.ball.c, axis=1).max()
        assert gap <= report.ball.r + containment_tol(report.ball.r)


class TestTightenReference:
    """``tighten`` works in one buffer and reads its word images through a
    view; it must give what the copying formulation gives, bit for bit."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_bit_identical_to_copying_formulation(self, dim):
        rng = np.random.default_rng(90 + dim)
        kept = 0
        for i in range(12):
            if dim == 2 or i % 2 == 0:
                ifs = random_ifs_2d(rng, lam_range=(0.05, 0.9))
            else:
                ifs = random_ifs_3d(rng, lam_range=(0.05, 0.9))
            base = best_bounding_ball(ifs).ball
            if dim == 3 and ifs.dim == 2:
                # a plane system in space keeps its tight circumcircle, so
                # the "input kept" branch shows up in 3D too
                ifs = IfsSystem(
                    maps=tuple(
                        Similitude3.from_axis_angle(
                            p=[m.p.real, m.p.imag, 0.0], lam=m.lam, axis=[0, 0, 1], angle=m.theta
                        )
                        for m in ifs.maps
                    )
                )
                base = Ball(np.array([base.c.real, base.c.imag, 0.0]), base.r)
            for levels in range(7):
                report = tighten(ifs, base, levels)
                ball, notes = tighten_full_scan(ifs, base, levels)
                assert np.asarray(report.ball.c).tobytes() == np.asarray(ball.c).tobytes()
                assert report.ball.r == ball.r
                assert report.method == "tightened"
                assert report.notes == notes
                assert report.slack == verify_containment(ifs, ball)
                assert report.mu_star == mu_star(ifs)
                kept += "input kept" in notes[-1]
        assert kept > 0  # the "input kept" branch is compared too


class TestBlockScan:
    """From 8192 words on, ``tighten`` scans its word images by blocks: its
    smallest ball and covering radius must be those of the full scan, bit
    for bit, with the same support indices and notes."""

    ENGAGE = 8192

    @staticmethod
    def _check(ifs, base, levels):
        calls = []

        def spy(points, **kwargs):
            result = min_ball(points, **kwargs)
            calls.append((points.copy(), kwargs, result))
            return result

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bounds, "min_ball", spy)
            report = tighten(ifs, base, levels)
        ball, notes = tighten_full_scan(ifs, base, levels)
        assert np.asarray(report.ball.c).tobytes() == np.asarray(ball.c).tobytes()
        assert report.ball.r == ball.r
        assert report.notes == notes
        ((points, kwargs, (center_ball, support)),) = calls
        full_ball, full_support = min_ball(points)
        assert np.asarray(center_ball.c).tobytes() == np.asarray(full_ball.c).tobytes()
        assert center_ball.r == full_ball.r
        assert support.indices == full_support.indices
        return kwargs.get("_blocks") is not None

    @staticmethod
    def _sizes(n):
        """The largest depth whose word count lies below the size the block
        scan starts at, and the next depth, at or above it."""
        below = max(L for L in range(1, 20) if n**L < TestBlockScan.ENGAGE)
        return below, below + 1

    KINDS = ["generic", "touching", "generic_3d", "touching_3d"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_full_scan(self, kind):
        rng = np.random.default_rng(120 + self.KINDS.index(kind))
        blocked = 0
        for i in range(10):
            n = 2 + i % 3
            if kind == "generic":
                ifs = random_ifs_2d(rng, n=n, lam_range=(0.2, 0.7))
            elif kind == "generic_3d":
                ifs = random_ifs_3d(rng, n=n, lam_range=(0.2, 0.7))
            else:
                ifs = touching_ifs(rng, n, dim=3 if kind == "touching_3d" else 2)
            base = best_bounding_ball(ifs).ball
            for levels in self._sizes(n):
                blocked += self._check(ifs, base, levels)
        assert blocked == 10  # the larger size of each system scans by blocks

    @pytest.mark.parametrize("dim", [2, 3])
    def test_translated_far_from_origin(self, dim):
        # |p| ~ 1e6: the rounding allowance grows with the size of the points
        rng = np.random.default_rng(130 + dim)
        offset = 1e6 * (1 + 1j) if dim == 2 else np.array([1e6, -1e6, 1e6])
        for i in range(8):
            n = 2 + i % 3
            ifs = random_ifs_2d(rng, n=n) if dim == 2 else random_ifs_3d(rng, n=n)
            ifs = translated(ifs, offset)
            base = general_bounding_ball(ifs).ball
            assert self._check(ifs, base, self._sizes(n)[1])

    def test_huge_and_tiny_points(self):
        # solved at a scaled exponent inside min_ball, blocks included
        for scale in (1e155, 1e-200):
            maps = tuple(Similitude2(p=scale * p, phi=0.5) for p in (1, -1, 0.5j))
            ifs = IfsSystem(maps=maps)
            base = general_bounding_ball(ifs).ball  # the circumcircle overflows
            assert self._check(ifs, base, 9)

    def test_tiny_images_of_a_unit_ball(self):
        # the radius is in range but every word image lies below 2^-400: the
        # full scan is solved scaled by a power of two, the block scan as given
        maps = (Similitude2(p=0, phi=0.5j), Similitude2(p=1e-130, phi=0.5))
        assert self._check(IfsSystem(maps=maps), Ball(0, 1.0), 13)

    def test_engages_from_8192_words(self):
        ifs = random_ifs_2d(np.random.default_rng(140), n=2)
        base = best_bounding_ball(ifs).ball
        assert not self._check(ifs, base, 12)
        assert self._check(ifs, base, 13)


def _scaled(ifs, scale):
    """The system ``ifs`` with every fixed point times ``scale``."""
    if ifs.dim == 2:
        return IfsSystem(maps=tuple(Similitude2(p=m.p * scale, phi=m.phi) for m in ifs.maps))
    return IfsSystem(maps=tuple(Similitude3(p=m.p * scale, lam=m.lam, rot=m.rot) for m in ifs.maps))


def _covers_scaled(ball, pts):
    """Whether ``ball`` holds the 3D points ``pts``, measured at the
    exponent of its radius, where no square overflows or underflows."""
    e = math.frexp(ball.r)[1]
    d = np.linalg.norm(np.ldexp(pts - ball.c, -e), axis=1)
    return bool((d <= math.ldexp(ball.r, -e)).all())


class TestRadiusOutOfRange:
    """A ball whose radius lies outside min_ball's range is refined scaled
    by a power of two: the radii are the unit-scale ones times the scale,
    and the ball still holds the attractor."""

    FAR = IfsSystem(
        maps=(
            Similitude3.from_axis_angle(p=(1.0, 0, 0), lam=0.4, axis=(0, 0, 1), angle=0.3),
            Similitude3.from_axis_angle(p=(-1.0, 0, 0), lam=0.5, axis=(0, 0, 1), angle=0.0),
        )
    )

    @pytest.mark.parametrize("scale", [1e-200, 1e-170, 1e200])
    def test_far_document(self, scale):
        ifs = _scaled(self.FAR, scale)
        base = best_bounding_ball(ifs).ball
        assert base.r == pytest.approx(1.25814277202 * scale, rel=1e-9, abs=0)
        pts = address_points(ifs, 8)
        for levels, radius in ((2, 1.12476900133), (13, 1.00102741796)):
            report = tighten(ifs, base, levels)
            assert report.ball.r == pytest.approx(radius * scale, rel=1e-9, abs=0)
            assert _covers_scaled(report.ball, pts)

    def test_tiny_radius_far_from_the_origin(self):
        # scaled by 2^996 the center would overflow: the scale stops short
        ifs = IfsSystem(maps=tuple(Similitude3(p=(1e300, 0, 0), lam=m.lam, rot=m.rot) for m in self.FAR.maps))
        report = tighten(ifs, Ball((1e300, 0, 0), 1e-300), 3)
        assert np.array_equal(report.ball.c, [1e300, 0, 0]) and report.ball.r == 0.5**3 * 1e-300

    def test_random_system_by_blocks(self):
        # 3^9 words: the block scan; unscaled, its reach underflowed
        rng = np.random.default_rng(150)
        for _ in range(5):
            unit = random_ifs_3d(rng, n=3, lam_range=(0.2, 0.7))
            ifs = _scaled(unit, 1e-170)
            report = tighten(ifs, best_bounding_ball(ifs).ball, 9)
            expected = tighten(unit, best_bounding_ball(unit).ball, 9).ball.r * 1e-170
            assert report.ball.r == pytest.approx(expected, rel=1e-9, abs=0)
            assert _covers_scaled(report.ball, address_points(ifs, 6))


# fixed-point coordinates on a 2^-10 grid in [-1, 1]: times 2^k for any k in
# [-1000, 1000] they stay exact, normal floats
_GRID = st.integers(-(2**10), 2**10).map(lambda i: math.ldexp(i, -10))


@st.composite
def _unit_systems(draw, dim, counts=st.integers(2, 5)):
    maps = []
    for _ in range(draw(counts)):
        p = [draw(_GRID) for _ in range(dim)]
        lam, angle = draw(st.floats(0.2, 0.7)), draw(st.floats(-math.pi, math.pi))
        if dim == 2:
            maps.append(Similitude2(p=complex(*p), phi=cmath.rect(lam, angle)))
        else:
            axis = draw(st.tuples(*[st.floats(-1, 1)] * 3).filter(lambda a: math.hypot(*a) > 0.1))
            maps.append(Similitude3.from_axis_angle(p=p, lam=lam, axis=axis, angle=angle))
    return IfsSystem(maps=tuple(maps))


def _assert_scaled(ball, unit, k):
    """``ball`` is ``unit`` times 2^k, bit for bit."""
    assert np.array_equal(_coords(ball.c), np.ldexp(_coords(unit.c), k)) and ball.r == math.ldexp(unit.r, k)


class TestScaleEquivariance:
    """Times 2^k, a unit system's results are the unit results times 2^k,
    bit for bit: scaling by a power of two is exact while every value stays
    normal, and out-of-range point sets and distances are solved at a
    power-of-two scale."""

    @pytest.mark.parametrize("dim", [2, 3])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_results_scale_by_powers_of_two(self, dim, data):
        unit = data.draw(_unit_systems(dim))
        k = data.draw(st.integers(-1000, 1000))
        ifs = _scaled(unit, 2.0**k)
        _assert_scaled(min_ball(ifs.fixed_points)[0], min_ball(unit.fixed_points)[0], k)
        with warnings.catch_warnings():  # coincident fixed points: the harmonic center falls back
            warnings.simplefilter("ignore", RuntimeWarning)
            for center in ("optimal", "arithmetic", "harmonic"):
                _assert_scaled(general_bounding_ball(ifs, center).ball, general_bounding_ball(unit, center).ball, k)
        base, best = best_bounding_ball(unit).ball, best_bounding_ball(ifs).ball
        _assert_scaled(best, base, k)
        # the slacks, not the verdict: containment_tol is not scale-free
        assert verify_containment(ifs, best) == tuple(math.ldexp(s, k) for s in verify_containment(unit, base))
        _assert_scaled(tighten(ifs, best, 6).ball, tighten(unit, base, 6).ball, k)


def _hex(ball):
    """The bits of a plane ball's center and radius."""
    return ball.c.real.hex(), ball.c.imag.hex(), ball.r.hex()


# ROADMAP item 1's document times 2^500: at 2^-500 its trifractal closed form
# underflowed to a circle 13x too small
_ITEM1 = IfsSystem(
    maps=tuple(
        Similitude2(p=complex(math.ldexp(x, 500), math.ldexp(y, 500)), phi=complex(*f))
        for (x, y), f in (
            ((-5.261604122584017e-152, 1.4766427625592287e-152), (0.19805059465607325, -0.28948047737751437)),
            ((-2.675760607411687e-151, -1.3593468038007286e-151), (-0.36638456420116855, -0.45871380609891726)),
            ((2.0747585716942888e-153, 7.920038967133988e-152), (-0.07252019919399065, -0.5402993520140258)),
        )
    )
)


class TestCircumcircleScale:
    """The circumcircles follow the float-range rule: times 2^k, a unit
    system's circumcircle is the unit one times 2^k bit for bit, and an
    unavailable one is unavailable for the same reason."""

    @given(unit=_unit_systems(2, st.integers(2, 3)), k=st.integers(-1000, 1000))
    @example(unit=_ITEM1, k=-500)
    @settings(max_examples=60, deadline=None)
    def test_circumcircles_scale_by_powers_of_two(self, unit, k):
        ifs = _scaled(unit, 2.0**k)
        try:
            base = circumcircle(unit)
        except CircumcircleError as exc:
            base = exc
        try:
            ball = circumcircle(ifs).ball
        except CircumcircleError as exc:
            assert str(exc) == str(base)
        else:
            assert isinstance(base, bounds.BoundReport), base
            c = complex(math.ldexp(base.ball.c.real, k), math.ldexp(base.ball.c.imag, k))
            assert _hex(ball) == _hex(Ball(c, math.ldexp(base.ball.r, k)))
        # every bound holds the attractor: depth-6 points, measured at the
        # exponent of its radius, within 1e-9 of it
        report = best_bounding_ball(ifs)
        e = math.frexp(report.ball.r)[1]
        pts = address_points(ifs, 6)
        d = np.abs(np.ldexp(pts.real - report.ball.c.real, -e) + 1j * np.ldexp(pts.imag - report.ball.c.imag, -e))
        assert (d <= math.ldexp(report.ball.r, -e) * (1 + 1e-9)).all()


def _x_axis_system(maps, x):
    """Maps ``(y, z, lam, angle)`` that turn about the x axis, with fixed
    points ``(x, y, z)``: every word image keeps the x coordinate ``x``."""
    return IfsSystem(
        maps=tuple(
            Similitude3.from_axis_angle(p=(x, y, z), lam=lam, axis=(1, 0, 0), angle=angle)
            for y, z, lam, angle in maps
        )
    )


def _rng5_systems():
    """Five three-map systems: per map, (y, z) ~ U(-1, 1)^2, lam ~ U(0.3, 0.5)
    and an angle ~ U(-3, 3), drawn in that order from ``default_rng(5)``."""
    rng = np.random.default_rng(5)

    def one_map():
        y, z = rng.uniform(-1, 1, 2).tolist()
        return y, z, float(rng.uniform(0.3, 0.5)), float(rng.uniform(-3, 3))

    return [[one_map() for _ in range(3)] for _ in range(5)]


_RNG5 = _rng5_systems()
_X_AXIS_MAP = st.tuples(_GRID, _GRID, st.floats(0.2, 0.7), st.floats(-math.pi, math.pi))


def _yz(ball):
    """The y and z bits of a ball's center, and its radius."""
    return ball.c[1:].tobytes(), ball.r


class TestTranslationAlongAnAxis:
    """Moved along the x axis, which every map turns about, a system's
    balls keep their radii and the y and z of their centers, bit for bit:
    no x difference is ever nonzero, and the scale is set by the points'
    extent, not by their magnitude."""

    @given(
        maps=st.lists(_X_AXIS_MAP, min_size=2, max_size=4),
        x=st.builds(math.ldexp, st.sampled_from([1.0, -1.0]), st.integers(-1000, 1000)),
    )
    @example(maps=_RNG5[0], x=1e200)
    @example(maps=_RNG5[1], x=1e200)
    @example(maps=_RNG5[2], x=1e200)
    @example(maps=_RNG5[3], x=1e200)
    @example(maps=_RNG5[4], x=1e200)
    @settings(max_examples=40, deadline=None)
    def test_balls_do_not_move_off_the_axis(self, maps, x):
        results = []
        for ifs in (_x_axis_system(maps, 0.0), _x_axis_system(maps, x)):
            best = best_bounding_ball(ifs).ball
            results.append(
                [
                    _yz(min_ball(ifs.fixed_points)[0]),
                    _yz(general_bounding_ball(ifs).ball),
                    _yz(best),
                    _yz(tighten(ifs, best, 4).ball),
                ]
            )
        assert results[0] == results[1]

    def test_block_scans_refine_far_from_the_origin(self):
        # 3^9 words: tighten's blocked min_ball; scaled by the magnitude
        # 1e200, the unit y/z spread squared to 0 and the input was kept
        for maps in _RNG5:
            results = []
            for ifs in (_x_axis_system(maps, 0.0), _x_axis_system(maps, 1e200)):
                best = best_bounding_ball(ifs).ball
                refined = tighten(ifs, best, 9)
                assert refined.ball.r < best.r  # refined, not kept
                results.append((_yz(best), _yz(refined.ball), refined.notes))
            assert results[0] == results[1]


class TestBlockRadii:
    """At the first depth ``tighten`` scans by blocks, every word image lies
    within its block's radius of the block's first word."""

    KINDS = ["generic", "touching", "translated", "tiny", "huge"]

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("kind", KINDS)
    def test_blocks_lie_within_their_radii(self, kind, dim):
        rng = np.random.default_rng(160 + 10 * dim + self.KINDS.index(kind))
        for i in range(6):
            n = 2 + i % 3
            if kind == "touching":
                ifs = touching_ifs(rng, n, dim=dim)
            else:
                ifs = (random_ifs_2d if dim == 2 else random_ifs_3d)(rng, n=n, lam_range=(0.2, 0.7))
            if kind == "translated":
                ifs = translated(ifs, 1e6 * (1 + 1j) if dim == 2 else np.array([1e6, -1e6, 1e6]))
            elif kind in ("tiny", "huge"):
                ifs = _scaled(ifs, 1e-200 if kind == "tiny" else 1e155)
            base = (general_bounding_ball if kind in ("tiny", "huge") else best_bounding_ball)(ifs).ball
            levels = TestBlockScan._sizes(n)[1]
            images, factors = _word_tree_images(ifs, [base.c], levels, 10**6, factors=True)
            slack = verify_containment(ifs, base)
            m, _, radii = bounds._blocks(ifs, base, slack, levels, factors)
            # hypot: no square leaves the float range at 1e-200 or 1e155
            if dim == 2:
                blocks = images.reshape(len(radii), -1)
                dist = np.abs(blocks - blocks[:, :1])
            else:
                blocks = images.reshape(len(radii), -1, 3)
                x, y, z = np.moveaxis(blocks - blocks[:, :1], -1, 0)
                dist = np.hypot(np.hypot(x, y), z)
            assert m and (dist <= radii[:, None]).all()


class TestBlockRule:
    """``tighten`` scans by blocks from 8192 words on, when a block of n^m
    <= 64 words holds at least two words: m = 6, 3, 3 for n = 2, 3, 4."""

    @staticmethod
    def _rule(n, levels):
        maps = tuple(Similitude2(p=complex(math.cos(k), math.sin(k)), phi=0.1) for k in range(n))
        ifs = IfsSystem(maps=maps)
        base = general_bounding_ball(ifs).ball
        _, factors = _word_tree_images(ifs, [base.c], levels, 10**6, factors=True)
        return bounds._blocks(ifs, base, verify_containment(ifs, base), levels, factors), factors

    @pytest.mark.parametrize("n,m", [(2, 6), (3, 3), (4, 3)])
    def test_depth_from_8192_words(self, n, m):
        below, at = TestBlockScan._sizes(n)
        assert self._rule(n, below)[0] is None
        (depth, lams_v, radii), factors = self._rule(n, at)
        assert depth == m and len(lams_v) == len(radii) == len(factors) // n**m

    @pytest.mark.parametrize("n,levels", [(1, 20), (65, 3)])
    def test_none_without_two_words_a_block(self, n, levels):
        assert self._rule(n, levels)[0] is None


class TestWordImages:
    """Depth-L word images come in map-major order: entry i is the word
    whose letters are the base-n digits of i, first letter most significant,
    mapped as T_w1(...T_wL(z))."""

    @pytest.mark.parametrize("dim,levels", [(2, 5), (2, 8), (3, 4), (3, 6)])
    def test_matches_per_word_composition(self, dim, levels):
        rng = np.random.default_rng(58 + levels)
        ifs = random_ifs_2d(rng, n=3) if dim == 2 else random_ifs_3d(rng, n=3)
        z = 0.3 - 0.2j if dim == 2 else np.array([0.3, -0.2, 0.5])
        centers, factors = _word_tree_images(ifs, [z], levels, 10**6, factors=True)
        words = _all_words(ifs.n, levels)
        assert len(centers) == len(factors) == len(words)
        ref = [apply_word(ifs, w, z) for w in words]
        ref_centers = np.array([c for c, _ in ref])
        scale = np.max(np.abs(ref_centers))
        assert np.max(np.abs(centers - ref_centers)) <= 1e-15 * scale
        assert factors.tolist() == [f for _, f in ref]


def _all_words(n, length):
    if length == 0:
        return [()]
    shorter = _all_words(n, length - 1)
    return [(k,) + w for k in range(1, n + 1) for w in shorter]


class TestContainmentFuzz:
    """Every produced ball must contain deep address points."""

    def _check(self, ifs, ball, pts):
        tol = containment_tol(ball.r)
        if ifs.dim == 2:
            gap = np.abs(pts - ball.c).max()
        else:
            gap = np.linalg.norm(pts - ball.c, axis=1).max()
        assert gap <= ball.r + tol

    def test_2d_systems(self):
        rng = np.random.default_rng(58)
        for _ in range(40):
            ifs = random_ifs_2d(rng)
            pts = address_points(ifs, 6, budget=10**6, dedupe=False)
            produced = [
                general_bounding_ball(ifs, center="optimal"),
                general_bounding_ball(ifs, center="arithmetic"),
                general_bounding_ball(ifs, center="harmonic"),
                best_bounding_ball(ifs),
            ]
            if ifs.n == 2:
                produced.append(circumcircle_bifractal(ifs))
            if ifs.n == 3:
                try:
                    produced.append(circumcircle_trifractal(ifs))
                except CircumcircleError:
                    pass
            base = produced[0].ball
            produced.append(tighten(ifs, base, 2))
            for report in produced:
                self._check(ifs, report.ball, pts)
            if ifs.n == 2:
                self._check(ifs, apply_M(ifs, base), pts)

    def test_3d_systems(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            ifs = random_ifs_3d(rng)
            pts = address_points(ifs, 6, budget=10**6, dedupe=False)
            report = general_bounding_ball(ifs)
            self._check(ifs, report.ball, pts)
            self._check(ifs, tighten(ifs, report.ball, 2).ball, pts)

    def test_slack_certificates(self):
        rng = np.random.default_rng(60)
        for _ in range(60):
            ifs = random_ifs_2d(rng)
            general = general_bounding_ball(ifs, center="best")
            assert min(general.slack) >= -containment_tol(general.ball.r)
            if ifs.n == 2:
                circ = circumcircle_bifractal(ifs)
                tol = containment_tol(circ.ball.r)
                assert min(circ.slack) >= -tol
                # tangential construction: the binding maps touch
                assert min(abs(s) for s in circ.slack) <= tol


class TestDepthNesting:
    def test_deeper_points_stay_in_hutchinson_images(self):
        # depth L+1 address points live inside the map images of any ball
        # that is verified for the attractor
        from ifsbound import hutchinson_balls

        rng = np.random.default_rng(62)
        for _ in range(20):
            ifs = random_ifs_2d(rng)
            ball = general_bounding_ball(ifs).ball
            images = hutchinson_balls(ifs, [ball])
            pts = address_points(ifs, 4)
            for z in pts:
                tol = containment_tol(ball.r)
                assert any(abs(z - im.c) <= im.r + tol for im in images)


class TestPlaneSpaceConsistency:
    def test_embedded_systems_match(self):
        rng = np.random.default_rng(61)
        for _ in range(40):
            ifs2 = random_ifs_2d(rng)
            maps3 = tuple(
                Similitude3.from_axis_angle(
                    p=[m.p.real, m.p.imag, 0.0],
                    lam=m.lam,
                    axis=[0, 0, 1],
                    angle=m.theta,
                )
                for m in ifs2.maps
            )
            ifs3 = IfsSystem(maps=maps3)
            r2 = general_bounding_ball(ifs2)
            r3 = general_bounding_ball(ifs3)
            assert abs(r3.ball.c[0] - r2.ball.c.real) <= 1e-10
            assert abs(r3.ball.c[1] - r2.ball.c.imag) <= 1e-10
            assert abs(r3.ball.c[2]) <= 1e-10
            assert r3.ball.r == pytest.approx(r2.ball.r, abs=1e-10)
            assert mu_star(ifs3) == pytest.approx(mu_star(ifs2), abs=1e-10)
