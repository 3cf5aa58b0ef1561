import cmath
import math

import numpy as np
import pytest

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
from ifsbound.bounds import _word_images
from ifsbound.ifs import _word_tree_images
from conftest import (
    cantor_ifs,
    mixed_bifractal,
    random_ifs_2d,
    random_ifs_3d,
    sierpinski_ifs,
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

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            general_bounding_ball(cantor_ifs(), center="median")

    def test_3d_slack_nonnegative(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            ifs = random_ifs_3d(rng)
            report = general_bounding_ball(ifs)
            assert min(report.slack) >= -containment_tol(report.ball.r)


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


def _tighten_reference(ifs, b, levels):
    """``tighten`` written with a fresh array for every step: word images,
    contraction factors, the smallest-ball input (a list, which min_ball
    copies into coordinate rows) and the reach.  Returns (ball, notes)."""
    assert min(verify_containment(ifs, b)) >= -containment_tol(b.r)
    size = ifs.n**levels
    centers = np.empty(size, dtype=complex) if ifs.dim == 2 else np.empty((size, 3))
    centers[0] = b.c
    factors = np.ones(size)
    _word_tree_images(ifs, centers, levels, factors)
    center_ball, _ = min_ball(list(centers))
    c_prime = center_ball.c
    diff = centers - c_prime
    reach = np.abs(diff) if ifs.dim == 2 else np.sqrt(np.square(diff).sum(axis=1))
    reach = reach + factors * b.r
    radius = float(np.max(reach))
    coarse = center_ball.r + ifs.lambda_star**levels * b.r
    notes = (f"coarse radius bound {coarse:.12g}",)
    if radius > b.r:
        return Ball(b.c, b.r), notes + ("refinement did not shrink the ball; input kept",)
    return Ball(c_prime, radius), notes


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
                ball, notes = _tighten_reference(ifs, base, levels)
                assert np.asarray(report.ball.c).tobytes() == np.asarray(ball.c).tobytes()
                assert report.ball.r == ball.r
                assert report.method == "tightened"
                assert report.notes == notes
                assert report.slack == verify_containment(ifs, ball)
                assert report.mu_star == mu_star(ifs)
                kept += "input kept" in notes[-1]
        assert kept > 0  # the "input kept" branch is compared too


class TestWordImages:
    """Depth-L word images come in map-major order: entry i is the word
    whose letters are the base-n digits of i, first letter most significant,
    mapped as T_w1(...T_wL(z))."""

    @pytest.mark.parametrize("dim,levels", [(2, 5), (2, 8), (3, 4), (3, 6)])
    def test_matches_per_word_composition(self, dim, levels):
        rng = np.random.default_rng(58 + levels)
        ifs = random_ifs_2d(rng, n=3) if dim == 2 else random_ifs_3d(rng, n=3)
        z = 0.3 - 0.2j if dim == 2 else np.array([0.3, -0.2, 0.5])
        centers, factors = _word_images(ifs, z, levels, 10**6)
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
