import math

import pytest

from ifsbound import (
    Ball,
    CircleOutline,
    Label,
    Line,
    LineSegment,
    PointCloud,
    Scene,
    Viewport,
    auto_viewport,
    canvas_transform,
    chaos_game,
    circumcircle_trifractal,
    emit,
    general_bounding_ball,
)
from conftest import sierpinski_ifs


class TestAutoViewport:
    def test_single_ball_with_margin(self):
        scene = Scene(layers=(CircleOutline(ball=Ball(0.5 + 0.5j, 0.5)),), canvas=(400, 400))
        vp = auto_viewport(scene, margin=0.1)
        assert vp.xmin == pytest.approx(-0.1)
        assert vp.xmax == pytest.approx(1.1)
        assert vp.ymin == pytest.approx(-0.1)
        assert vp.ymax == pytest.approx(1.1)

    def test_two_points_zero_margin(self):
        scene = Scene(layers=(PointCloud(points=(0j, 1 + 1j)),), canvas=(300, 300))
        vp = auto_viewport(scene, margin=0.0)
        assert (vp.xmin, vp.ymin, vp.xmax, vp.ymax) == pytest.approx((0, 0, 1, 1))

    def test_empty_scene_rejected(self):
        with pytest.raises(ValueError):
            auto_viewport(Scene(layers=(), canvas=(100, 100)))

    def test_line_only_scene_rejected(self):
        scene = Scene(layers=(LineSegment(line=Line(0j, 1 + 0j)),))
        with pytest.raises(ValueError):
            auto_viewport(scene)

    def test_aspect_correction_widens_short_axis(self):
        scene = Scene(layers=(PointCloud(points=(0j, 1 + 0.25j)),), canvas=(400, 400))
        vp = auto_viewport(scene, margin=0.0)
        assert vp.width == pytest.approx(vp.height)
        assert vp.width == pytest.approx(1.0)

    # exact values: each expected bound is the arithmetic auto_viewport does
    def test_single_point_exact(self):
        vp = auto_viewport(Scene(layers=(PointCloud(points=(0.3 + 0.7j,)),)), margin=0.0)
        assert (vp.xmin, vp.ymin, vp.xmax, vp.ymax) == (0.3 - 0.5, 0.7 - 0.5, 0.3 + 0.5, 0.7 + 0.5)

    def test_horizontal_segment_exact(self):
        scene = Scene(layers=(PointCloud(points=(0.2 + 0.5j, 1.4 + 0.5j)),), canvas=(400, 400))
        vp = auto_viewport(scene, margin=0.1)
        step = 0.1 * (1.4 - 0.2)
        xmin, xmax, ymin, ymax = 0.2 - step, 1.4 + step, 0.5 - step, 0.5 + step
        grow = (xmax - xmin) / 1.0 - (ymax - ymin)
        assert (vp.xmin, vp.ymin, vp.xmax, vp.ymax) == (xmin, ymin - grow / 2, xmax, ymax + grow / 2)

    def test_single_circle_exact(self):
        scene = Scene(layers=(CircleOutline(ball=Ball(0.5 + 0.25j, 0.75)),), canvas=(400, 200))
        vp = auto_viewport(scene, margin=0.0)
        xmin, xmax, ymin, ymax = 0.5 - 0.75, 0.5 + 0.75, 0.25 - 0.75, 0.25 + 0.75
        grow = (ymax - ymin) * 2.0 - (xmax - xmin)
        assert (vp.xmin, vp.ymin, vp.xmax, vp.ymax) == (xmin - grow / 2, ymin, xmax + grow / 2, ymax)

    def test_label_counts_as_a_point(self):
        scene = Scene(layers=(Label("x", 0.2 + 0.4j), CircleOutline(ball=Ball(0.5 + 0.5j, 0.1))))
        vp = auto_viewport(scene, margin=0.0)
        assert (vp.xmin, vp.ymin, vp.xmax, vp.ymax) == (0.2, 0.30000000000000004, 0.6, 0.7)

    def test_empty_point_cloud_has_no_extent(self):
        circle = CircleOutline(ball=Ball(0.5 + 0.5j, 0.1))
        scene = Scene(layers=(PointCloud(points=()), circle))
        assert auto_viewport(scene) == auto_viewport(Scene(layers=(circle,)))
        assert '<g fill="#202020">\n</g>' in emit(scene)

    def test_degenerate_single_point_padded(self):
        scene = Scene(layers=(PointCloud(points=(0.3 + 0.3j,)),))
        vp = auto_viewport(scene, margin=0.0)
        assert vp.width > 0 and vp.height > 0


class TestEmit:
    def test_byte_determinism(self):
        pts = tuple(chaos_game(sierpinski_ifs(), 500, seed=3))
        scene = Scene(layers=(PointCloud(points=pts),))
        assert emit(scene) == emit(scene)

    def test_circle_at_canvas_center(self):
        scene = Scene(
            layers=(CircleOutline(ball=Ball(0j, 1.0)),),
            canvas=(100, 100),
            viewport=Viewport(-2, -2, 2, 2),
        )
        doc = emit(scene)
        assert doc.count('stroke="') == 1
        assert '<circle cx="50" cy="50" r="25"' in doc

    def test_document_structure(self):
        scene = Scene(
            layers=(
                PointCloud(points=(0.5 + 0.5j,)),
                CircleOutline(ball=Ball(0.5 + 0.5j, 0.5)),
                LineSegment(line=Line(0j, 1 + 0j)),
                Label(text="a<b&c>d", anchor=0.5 + 0.5j),
            ),
            canvas=(200, 200),
            viewport=Viewport(-1, -1, 2, 2),
        )
        doc = emit(scene)
        assert doc.startswith("<svg xmlns=")
        assert doc.rstrip().endswith("</svg>")
        assert "a&lt;b&amp;c&gt;d" in doc
        assert "<line " in doc

    def test_line_outside_viewport_skipped(self):
        scene = Scene(
            layers=(
                PointCloud(points=(0.5 + 0.5j,)),
                LineSegment(line=Line(100j, 1 + 0j)),
            ),
            canvas=(200, 200),
            viewport=Viewport(0, 0, 1, 1),
        )
        assert "<line " not in emit(scene)

    def test_reversed_line_swaps_its_ends(self):
        def line_element(u):
            scene = Scene(
                layers=(LineSegment(line=Line(0.5 + 0.5j, u)),),
                canvas=(200, 200),
                viewport=Viewport(0, 0, 1, 1),
            )
            (element,) = [s for s in emit(scene).splitlines() if s.startswith("<line ")]
            return element

        stroke = 'stroke="#444444" stroke-width="1"/>'
        assert line_element(1 + 1j) == f'<line x1="0" y1="200" x2="200" y2="0" {stroke}'
        assert line_element(-1 - 1j) == f'<line x1="200" y1="0" x2="0" y2="200" {stroke}'

    def test_sierpinski_scene_containment_in_pixels(self):
        ifs = sierpinski_ifs()
        pts = tuple(chaos_game(ifs, 5000, seed=7))
        circ = circumcircle_trifractal(ifs)
        gen = general_bounding_ball(ifs)
        scene = Scene(
            layers=(
                PointCloud(points=pts),
                CircleOutline(ball=circ.ball, color="#d62728"),
                CircleOutline(ball=gen.ball, color="#1f77b4"),
            ),
            canvas=(640, 640),
        )
        doc = emit(scene)
        assert doc.count('fill="none"') == 2
        vp = auto_viewport(scene)
        scale, to_px = canvas_transform(vp, scene.canvas)
        cx, cy = to_px(circ.ball.c)
        r_px = circ.ball.r * scale
        for p in pts:
            x, y = to_px(p)
            assert math.hypot(x - cx, y - cy) <= r_px + 0.5

    def test_unknown_layer_rejected(self):
        scene = Scene(layers=("not a layer",), viewport=Viewport(0, 0, 1, 1))
        with pytest.raises(TypeError):
            emit(scene)


class TestViewport:
    def test_positive_area_required(self):
        with pytest.raises(ValueError):
            Viewport(0, 0, 0, 1)

    def test_canvas_validation(self):
        with pytest.raises(ValueError):
            Scene(layers=(), canvas=(0, 100))
