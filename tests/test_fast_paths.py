"""The fast paths of refine give the bits of the plain NumPy forms.

The word-tree fill, the covering-radius norms, the smallest ball of small
point sets and the 3D distance each have a faster form (3D images stored
one buffer row per axis, adds of axis rows, Python floats, ``sqrt(v . v)``); the
references in ``conftest.py`` keep the plain forms (C-ordered ``(N, 3)``
rows in 3D), and every comparison here is ``==``.
"""

import math

import numpy as np
import pytest

from ifsbound import IfsSystem, dist, min_ball
from ifsbound import bounds
from ifsbound.ifs import _word_tree_images
from conftest import (
    dist_reference,
    min_ball_reference,
    norms_reference,
    random_ifs_2d,
    random_ifs_3d,
    word_tree_reference,
)


def _system(dim, n, seed):
    rng = np.random.default_rng(seed)
    return random_ifs_2d(rng, n=n) if dim == 2 else random_ifs_3d(rng, n=n)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("starts", ["center", "fixed_points"])
def test_word_tree_matches_broadcast_fill(dim, n, starts):
    """Depths 0-8, 1 to 4^9 images: the axis-row fill (and its BLAS
    matmul on F-ordered rows) gives the C-row reference's bits."""
    ifs = _system(dim, n, 100 * dim + n)
    pts = [bounds.best_bounding_ball(ifs).ball.c] if starts == "center" else list(ifs.fixed_points)
    for levels in range(9):
        images, factors = _word_tree_images(ifs, pts, levels, 10**6, factors=True)
        ref_images, ref_factors = word_tree_reference(ifs, pts, levels)
        assert np.array_equal(images, ref_images)
        assert np.array_equal(factors, ref_factors)


@pytest.mark.parametrize("n", [2, 3])
def test_3d_images_are_axis_rows(n):
    """3D images hold one row per axis, so each "images op one point"
    runs along an axis row."""
    ifs = _system(3, n, 17)
    images, _ = _word_tree_images(ifs, [ifs.maps[0].p], 6, 10**6, factors=True)
    assert images.shape == (n**6, 3) and images.T.flags.c_contiguous


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("count", [1, 2, 63, 64, 65, 200, 4096])
def test_reach_matches_broadcast_norms(dim, count):
    rng = np.random.default_rng(count)
    rows = rng.uniform(-3.0, 3.0, size=(count, dim))
    pts = rows.view(complex)[:, 0].copy() if dim == 2 else rows
    c = complex(0.3, -0.7) if dim == 2 else np.array([0.3, -0.7, 1.1])
    factors = rng.uniform(0.0, 0.5, count)
    expected = norms_reference(pts - c) + factors * 2.5
    assert np.array_equal(bounds._reach(pts.copy(), factors.copy(), c, 2.5), expected)
    if dim == 3:  # F-ordered rows: the distance pass runs in place on contiguous axis rows
        assert np.array_equal(bounds._reach(np.asfortranarray(pts), factors.copy(), c, 2.5), expected)


def _same_as_reference(points):
    ball, support = min_ball(points)
    center, r, indices, coords = min_ball_reference(points)
    assert np.array_equal(np.asarray(ball.c) if ball.dim == 3 else [ball.c.real, ball.c.imag], center)
    assert ball.r == r and support.indices == indices
    for p, q in zip(support.points, coords):
        assert np.array_equal(np.asarray(p) if ball.dim == 3 else [p.real, p.imag], q)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 63, 64, 65, 8191, 8192])
def test_min_ball_matches_numpy_pivot_loop(dim, count):
    """Python floats up to 64 points, a contiguous copy from 65 on: the
    same ball and support as the NumPy loop over the view."""
    rng = np.random.default_rng(1000 * dim + count)
    for scale in (1.0, 1e200, 1e-200):  # in range, and solved scaled
        rows = rng.uniform(-1.0, 1.0, size=(count, dim)) * scale
        _same_as_reference(rows)
        _same_as_reference(rows.view(complex)[:, 0] if dim == 2 else list(rows))


@pytest.mark.parametrize("dim", [2, 3])
def test_min_ball_ties_and_duplicates_match(dim):
    # dyadic points on a grid: many equal distances, ties go to the first
    rng = np.random.default_rng(dim)
    for count in (5, 64, 65, 300):
        _same_as_reference(rng.integers(-4, 5, size=(count, dim)) / 8.0)


def test_fixed_points_of_systems_match():
    rng = np.random.default_rng(5)
    for _ in range(40):
        for ifs in (random_ifs_2d(rng), random_ifs_3d(rng)):
            _same_as_reference(ifs.fixed_points)


def test_dist_3d_in_range_matches_norm():
    rng = np.random.default_rng(11)
    for scale in (1.0, 1e-150, 1e150, 1e-300 * 2**80):
        for _ in range(500):
            a, b = rng.normal(size=3) * scale, rng.normal(size=3) * scale
            if scale < 1e-200:  # v . v underflows to 0, the norm with it
                assert dist(a, b) == math.hypot(*(a - b).tolist()) > 0.0
            else:
                assert dist(a, b) == dist_reference(a, b)


@pytest.mark.parametrize(
    "a, b, expected",
    [
        ((1e200, 0, 0), (-1e200, 0, 0), 2e200),
        ((1e-200, 0, 0), (0, 0, 0), 1e-200),
        ((3e-170, 4e-170, 0), (0, 0, 0), 5e-170),
        ((0, 0, 5e-324), (0, 0, 0), 5e-324),
    ],
)
def test_dist_3d_out_of_square_range(a, b, expected):
    # the squared distance overflows or underflows; the distance does not
    assert dist(np.array(a, float), np.array(b, float)) == pytest.approx(expected, rel=1e-15, abs=0)


def test_dist_3d_beyond_the_float_range_is_inf():
    assert dist(np.array([0.0, 1.7e308, 0.0]), np.array([1.7e308, 0.0, 0.0])) == math.inf


def test_cached_system_properties():
    ifs = _system(2, 3, 9)
    assert ifs.fixed_points is ifs.fixed_points
    assert ifs.lambda_star == max(m.lam for m in ifs.maps) == max(abs(m.phi) for m in ifs.maps)
    again = IfsSystem(maps=ifs.maps)
    assert again == ifs and again.fixed_points == ifs.fixed_points
