import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ifsbound
from ifsbound import (
    Ball,
    IfsDocumentError,
    IfsSystem,
    Line,
    Similitude3,
    intersect_line,
    parse_ifs,
    serialize_ifs,
    tighten,
)
from ifsbound.cli import NonFiniteRecordError, _jnum, _jval, _point_rows, main
from conftest import random_ifs_2d, random_ifs_3d

CANTOR_DOC = json.dumps(
    {
        "dimension": 2,
        "maps": [
            {"p": [0, 0], "phi": [0.3333333333333333, 0]},
            {"p": [1, 0], "phi": [0.3333333333333333, 0]},
        ],
    }
)

COLLINEAR_TRI_DOC = json.dumps(
    {
        "dimension": 2,
        "maps": [
            {"p": [0, 0], "lambda": 0.3, "theta": 0.0},
            {"p": [1, 0], "lambda": 0.3, "theta": 0.0},
            {"p": [2, 0], "lambda": 0.3, "theta": 0.0},
        ],
    }
)


TRI_DOC = json.dumps(
    {
        "dimension": 2,
        "maps": [
            {"p": [0, 0], "phi": [0.4, 0]},
            {"p": [1, 0], "phi": [0.4, 0]},
            {"p": [0.25, 0.75], "phi": [0.4, 0]},
        ],
    }
)

@pytest.fixture
def cantor_file(tmp_path):
    path = tmp_path / "cantor.json"
    path.write_text(CANTOR_DOC)
    return str(path)


class TestParseIfs:
    def test_cantor_document(self):
        ifs = parse_ifs(CANTOR_DOC)
        assert ifs.n == 2 and ifs.dim == 2
        assert ifs.maps[0].p == 0 and ifs.maps[1].p == 1
        assert ifs.maps[0].phi == pytest.approx(1 / 3)

    def test_lambda_theta_form(self):
        doc = json.dumps(
            {
                "dimension": 2,
                "maps": [{"p": [0, 0], "lambda": 0.5, "theta": math.pi / 2}],
            }
        )
        ifs = parse_ifs(doc)
        assert ifs.maps[0].phi == pytest.approx(0.5j, abs=1e-15)

    def test_contraction_violation_names_map(self):
        # one test over 2D phi, 2D lambda+theta and 3D lambda, so its id stays
        good2 = {"p": [0, 0], "phi": [0.5, 0]}
        good3 = {"p": [0, 0, 0], "lambda": 0.5, "axis": [0, 0, 1]}
        for dim, good, bad in [
            (2, good2, {"p": [1, 0], "phi": [1.0, 0]}),
            (2, good2, {"p": [1, 0], "lambda": 1.0, "theta": 0.0}),
            (3, good3, {"p": [1, 0, 0], "lambda": 1.0, "axis": [0, 0, 1]}),
        ]:
            doc = json.dumps({"dimension": dim, "maps": [good, bad]})
            with pytest.raises(IfsDocumentError, match="map 2: not a contraction"):
                parse_ifs(doc)

    def test_zero_axis_rejected(self):
        doc = json.dumps(
            {
                "dimension": 3,
                "maps": [{"p": [0, 0, 0], "lambda": 0.5, "axis": [0, 0, 0], "angle": 1.0}],
            }
        )
        with pytest.raises(IfsDocumentError, match="axis"):
            parse_ifs(doc)

    def test_syntax_error_reports_position(self):
        with pytest.raises(IfsDocumentError, match="line 1"):
            parse_ifs("{not json")

    def test_dimension_mismatch(self):
        doc = json.dumps(
            {"dimension": 3, "maps": [{"p": [0, 0], "lambda": 0.5, "axis": [0, 0, 1]}]}
        )
        with pytest.raises(IfsDocumentError):
            parse_ifs(doc)

    def test_missing_factor(self):
        doc = json.dumps({"dimension": 2, "maps": [{"p": [0, 0]}]})
        with pytest.raises(IfsDocumentError, match="phi or lambda"):
            parse_ifs(doc)


class TestRoundTrip:
    def test_2d_round_trip(self):
        rng = np.random.default_rng(81)
        for _ in range(30):
            ifs = random_ifs_2d(rng)
            back = parse_ifs(serialize_ifs(ifs))
            assert back.n == ifs.n
            for a, b in zip(ifs.maps, back.maps):
                assert abs(a.p - b.p) <= 1e-12
                assert abs(a.phi - b.phi) <= 1e-12

    def test_3d_round_trip(self):
        rng = np.random.default_rng(82)
        for _ in range(30):
            ifs = random_ifs_3d(rng)
            back = parse_ifs(serialize_ifs(ifs))
            for a, b in zip(ifs.maps, back.maps):
                assert np.max(np.abs(a.p - b.p)) <= 1e-12
                assert abs(a.lam - b.lam) <= 1e-12
                assert np.max(np.abs(a.rot - b.rot)) <= 1e-12

    @pytest.mark.parametrize(
        "axis, angle",
        [
            ([0, 0, 1], 0.0),
            ([1, 0, 0], math.pi),
            ([0, 1, 0], math.pi),
            ([0, 0, 1], math.pi),
            ([1, 1, 0], math.pi),
            ([1, 0, 1], math.pi),
            ([0, 1, 1], math.pi),
            ([1, 1, 1], math.pi),
            ([1, 2, 3], math.pi - 1e-9),
            ([1, 2, 3], -(math.pi - 1e-9)),
            ([1, 2, 3], 1e-9),
        ],
        ids=["identity", "pi-x", "pi-y", "pi-z", "pi-xy", "pi-xz", "pi-yz", "pi-xyz",
             "near-pi", "near-minus-pi", "tiny"],
    )
    def test_every_quaternion_branch_round_trips(self, axis, angle):
        # the trace branch and each diagonal branch of _axis_angle_of,
        # including the ties of a half turn about a diagonal axis
        m = Similitude3.from_axis_angle(p=[0, 0, 0], lam=0.5, axis=axis, angle=angle)
        back = parse_ifs(serialize_ifs(IfsSystem(maps=(m,))))
        assert np.max(np.abs(back.maps[0].rot - m.rot)) <= 1e-12

    def test_half_turn_rotation_round_trip(self):
        doc = json.dumps(
            {
                "dimension": 3,
                "maps": [
                    {"p": [0.1, 0.2, 0.3], "lambda": 0.4, "axis": [1, 2, 3], "angle": math.pi}
                ],
            }
        )
        ifs = parse_ifs(doc)
        back = parse_ifs(serialize_ifs(ifs))
        assert np.max(np.abs(ifs.maps[0].rot - back.maps[0].rot)) <= 1e-12


class TestCliCommands:
    def test_bound_circum_record(self, cantor_file, capsys):
        code = main(["bound", "--method", "circum", "--input", cantor_file])
        captured = capsys.readouterr()
        assert code == 0
        record = json.loads(captured.out)
        assert record["method"] == "circum_bi"
        assert record["center"] == pytest.approx([0.5, 0])
        assert record["radius"] == pytest.approx(0.5)
        assert captured.err == ""

    def test_bound_auto_collinear_falls_back(self, tmp_path, capsys):
        path = tmp_path / "collinear.json"
        path.write_text(COLLINEAR_TRI_DOC)
        code = main(["bound", "--method", "auto", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 0
        record = json.loads(captured.out)
        assert record["method"].startswith("general")
        assert any("circumcircle unavailable" in n for n in record["notes"])
        assert min(record["slack"]) >= -1e-9 * (1 + record["radius"])

    def test_bound_circum_collinear_is_domain_error(self, tmp_path, capsys):
        path = tmp_path / "collinear.json"
        path.write_text(COLLINEAR_TRI_DOC)
        code = main(["bound", "--method", "circum", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "collinear" in captured.err

    def test_verify_pass_and_fail(self, cantor_file, capsys):
        code = main(
            ["verify", "--input", cantor_file, "--center", "0.5", "0", "--radius", "0.5"]
        )
        record = json.loads(capsys.readouterr().out)
        assert code == 0 and record["contained"] is True
        code = main(
            ["verify", "--input", cantor_file, "--center", "0.5", "0", "--radius", "0.4"]
        )
        captured = capsys.readouterr()
        record = json.loads(captured.out)
        assert code == 1
        assert record["contained"] is False
        assert record["slack"] == pytest.approx([-1 / 15, -1 / 15])

    def test_tighten_explicit_ball(self, tmp_path, capsys):
        doc = json.dumps(
            {
                "dimension": 2,
                "maps": [
                    {"p": [0, 0], "phi": [0.5, 0]},
                    {"p": [1, 0], "phi": [0.25, 0]},
                ],
            }
        )
        path = tmp_path / "bi.json"
        path.write_text(doc)
        code = main(
            [
                "tighten",
                "--input",
                str(path),
                "--center",
                "0.5",
                "0",
                "--radius",
                "0.75",
                "--levels",
                "1",
            ]
        )
        record = json.loads(capsys.readouterr().out)
        assert code == 0
        assert record["center"] == pytest.approx([0.5625, 0])
        assert record["radius"] == pytest.approx(0.6875)

    def test_tighten_default_ball(self, cantor_file, capsys):
        code = main(["tighten", "--input", cantor_file, "--levels", "2"])
        record = json.loads(capsys.readouterr().out)
        assert code == 0
        assert record["method"] == "tightened"
        assert record["radius"] <= 0.5 + 1e-12

    def test_tighten_rejects_bad_ball(self, cantor_file, capsys):
        code = main(
            [
                "tighten",
                "--input",
                cantor_file,
                "--center",
                "0.5",
                "0",
                "--radius",
                "0.3",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""

    def test_intersect_record(self, cantor_file, capsys):
        code = main(
            ["intersect", "--input", cantor_file, "--line", "0", "0", "1", "0", "--eps", "0.001"]
        )
        record = json.loads(capsys.readouterr().out)
        assert code == 0
        assert record["truncated"] is False
        ts = [t for pair in record["intervals"] for t in pair]
        assert min(ts) <= 0.0 <= max(ts)
        assert any(lo <= 1.0 <= hi for lo, hi in record["intervals"])

    def test_intersect_far_line_empty(self, cantor_file, capsys):
        code = main(
            ["intersect", "--input", cantor_file, "--line", "0", "2", "1", "0"]
        )
        record = json.loads(capsys.readouterr().out)
        assert code == 0
        assert record["intervals"] == []

    @pytest.mark.parametrize("line", [["1", "0", "1", "2"], ["0.25", "0.75", "-2", "-1"]])
    def test_intersect_tangent_at_a_fixed_point(self, line, tmp_path, capsys):
        # the line touches the default circumcircle at a fixed point (t = 0)
        path = tmp_path / "tri.json"
        path.write_text(TRI_DOC)
        code = main(["intersect", "--input", str(path), "--line", *line, "--eps", "1e-6"])
        record = json.loads(capsys.readouterr().out)
        assert code == 0
        [(lo, hi)] = record["intervals"]
        assert lo <= 0.0 <= hi

    def test_sample_depth(self, cantor_file, capsys):
        code = main(["sample", "--input", cantor_file, "--depth", "1"])
        record = json.loads(capsys.readouterr().out)
        assert code == 0
        xs = sorted(p[0] for p in record["points"])
        assert xs == pytest.approx([0, 1 / 3, 2 / 3, 1])

    def test_sample_chaos(self, cantor_file, capsys):
        code = main(["sample", "--input", cantor_file, "--count", "10", "--seed", "4"])
        record = json.loads(capsys.readouterr().out)
        assert code == 0
        assert len(record["points"]) == 10

    def test_sample_requires_one_mode(self, cantor_file, capsys):
        code = main(["sample", "--input", cantor_file])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""

    def test_sample_budget_env(self, cantor_file, capsys, monkeypatch):
        monkeypatch.setenv("IFSBOUND_NODE_BUDGET", "4")
        code = main(["sample", "--input", cantor_file, "--depth", "3"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        monkeypatch.setenv("IFSBOUND_NODE_BUDGET", "1000")
        code = main(["sample", "--input", cantor_file, "--depth", "3"])
        assert code == 0

    def test_document_error_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        code = main(["bound", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "syntax error" in captured.err

    def test_usage_error_exit_2(self, capsys):
        assert main(["bound"]) == 2
        assert main(["frobnicate"]) == 2

    def test_auto_picks_circumcircle_when_tighter(self, cantor_file, capsys):
        code = main(["bound", "--input", cantor_file])
        record = json.loads(capsys.readouterr().out)
        assert code == 0
        assert record["method"] == "circum_bi"

    def test_3d_intersect_and_render_rejected(self, tmp_path, capsys):
        doc = json.dumps(
            {
                "dimension": 3,
                "maps": [
                    {"p": [0, 0, 0], "lambda": 0.5, "axis": [0, 0, 1], "angle": 0.4},
                    {"p": [1, 1, 1], "lambda": 0.5, "axis": [1, 0, 0], "angle": -0.2},
                ],
            }
        )
        path = tmp_path / "space.json"
        path.write_text(doc)
        assert main(["intersect", "--input", str(path), "--line", "0", "0", "1", "0"]) == 1
        assert main(["render", "--input", str(path), "--out", str(tmp_path / "x.svg")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""

    def test_3d_nan_angle_is_document_error(self, tmp_path, capsys):
        path = tmp_path / "space.json"
        path.write_text(
            '{"dimension": 3, "maps": ['
            '{"p": [0, 0, 0], "lambda": 0.5, "axis": [0, 0, 1], "angle": NaN}, '
            '{"p": [1, 1, 1], "lambda": 0.5, "axis": [1, 0, 0], "angle": -0.2}]}'
        )
        code = main(["bound", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: map 1")

    def test_3d_bound_and_verify(self, tmp_path, capsys):
        doc = json.dumps(
            {
                "dimension": 3,
                "maps": [
                    {"p": [0, 0, 0], "lambda": 0.5, "axis": [0, 0, 1], "angle": 0.4},
                    {"p": [1, 1, 1], "lambda": 0.5, "axis": [1, 0, 0], "angle": -0.2},
                ],
            }
        )
        path = tmp_path / "space.json"
        path.write_text(doc)
        code = main(["bound", "--input", str(path)])
        record = json.loads(capsys.readouterr().out)
        assert code == 0
        assert len(record["center"]) == 3
        args = ["verify", "--input", str(path), "--center"]
        args += [str(v) for v in record["center"]]
        args += ["--radius", str(record["radius"] * 1.01)]
        assert main(args) == 0
        capsys.readouterr()

    def test_stdout_determinism(self, cantor_file, capsys):
        main(["bound", "--method", "auto", "--input", cantor_file])
        first = capsys.readouterr().out
        main(["bound", "--method", "auto", "--input", cantor_file])
        second = capsys.readouterr().out
        assert first == second

    def test_render_determinism(self, cantor_file, tmp_path, capsys):
        out1 = tmp_path / "a.svg"
        out2 = tmp_path / "b.svg"
        assert main(["render", "--input", cantor_file, "--out", str(out1), "--count", "200"]) == 0
        assert main(["render", "--input", cantor_file, "--out", str(out2), "--count", "200"]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_bytes().startswith(b"<svg")

    def test_render_with_line_and_depth(self, cantor_file, tmp_path, capsys):
        out = tmp_path / "c.svg"
        code = main(
            [
                "render",
                "--input",
                cantor_file,
                "--out",
                str(out),
                "--depth",
                "6",
                "--line",
                "0",
                "0",
                "1",
                "0",
            ]
        )
        capsys.readouterr()
        assert code == 0
        text = out.read_text()
        assert "<line " in text and 'stroke="#d62728"' in text


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--count", "-1"],
        ["sample", "--depth", "-1"],
        ["verify", "--center", "0.5", "0", "--radius", "-1"],
        ["verify", "--center", "0.5", "0", "--radius", "nan"],
        ["tighten", "--center", "0.5", "0", "--radius", "nan"],
        ["intersect", "--line", "0", "0", "1", "0", "--eps", "nan"],
        ["intersect", "--line", "0", "0", "1", "0", "--eps", "0"],
        ["intersect", "--line", "0", "0", "1", "0", "--eps", "-0.001"],
        ["render", "--out", "{missing}/x.svg", "--count", "100"],
        ["intersect", "--line", "0", "0", "nan", "0"],
        ["render", "--out", "{missing}.svg", "--count", "100", "--line", "nan", "0", "1", "0"],
        ["render", "--out", "{missing}.svg", "--count", "100", "--line", "0", "0", "0", "0"],
        ["tighten", "--levels", "-1"],
    ],
)
def test_hostile_numbers_are_usage_errors(argv, cantor_file, tmp_path, capsys):
    argv = [a.format(missing=tmp_path / "missing") for a in argv]
    code = main(argv + ["--input", cantor_file])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["bound"],
        ["frobnicate"],
        ["sample", "--input", "{cantor}", "--depth", "x"],
        ["bound", "--input", "{cantor}", "--method", "nope"],
    ],
    ids=["missing_input", "unknown_command", "bad_int", "bad_choice"],
)
def test_argparse_errors_are_one_line(argv, cantor_file, capsys):
    code = main([a.format(cantor=cantor_file) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err


def test_help_still_goes_to_stdout(capsys):
    assert main(["sample", "--help"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: ifsbound sample") and "--depth" in captured.out
    assert captured.err == ""


@pytest.mark.parametrize(
    "doc, message",
    [
        ([], "document root must be an object"),
        ({"dimension": 4, "maps": []}, "dimension must be 2 or 3"),
        ({"dimension": 2, "maps": []}, "maps must be a nonempty array"),
        ({"dimension": 2, "maps": [1]}, "map 1 must be an object"),
        ({"dimension": 3, "maps": [{"p": [0, 0, 0], "axis": [0, 0, 1]}]}, "map 1 needs lambda"),
        ({"dimension": 2, "maps": [{"p": ["a", 0], "phi": [0.5, 0]}]}, "map 1 p must contain numbers"),
    ],
    ids=["array_root", "dimension_4", "no_maps", "map_not_object", "3d_without_lambda", "text_coordinate"],
)
def test_invalid_documents_are_one_error_line(doc, message, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code = main(["bound", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("raw", ["0", "-3", "abc"])
def test_bad_node_budget_is_one_error_line(raw, cantor_file, capsys, monkeypatch):
    monkeypatch.setenv("IFSBOUND_NODE_BUDGET", raw)
    code = main(["sample", "--input", cantor_file, "--depth", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: IFSBOUND_NODE_BUDGET must be a positive integer, got {raw!r}\n"


@pytest.mark.parametrize("command", ["sample", "render"])
def test_count_beyond_budget_is_domain_error(command, cantor_file, tmp_path, capsys, monkeypatch):
    out = ["--out", str(tmp_path / "x.svg")] if command == "render" else []
    code = main([command, "--input", cantor_file, *out, "--count", "100000000000000"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    monkeypatch.setenv("IFSBOUND_NODE_BUDGET", "50")
    assert main([command, "--input", cantor_file, *out, "--count", "51"]) == 1
    assert main([command, "--input", cantor_file, *out, "--count", "50"]) == 0


def test_non_finite_numbers_never_serialized():
    assert _jnum(-0.0) == "0"
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(NonFiniteRecordError):
            _jnum(bad)


@pytest.mark.parametrize("dim", [2, 3])
def test_point_rows_match_jval(dim):
    rng = np.random.default_rng(70 + dim)
    rows = rng.normal(size=(300, dim)) * 10.0 ** rng.integers(-300, 300, size=(300, dim))
    rows[3, 0] = rows[5, -1] = -0.0
    rows[7] = 0.0
    if dim == 2:
        pts = rows.view(complex).ravel()
        listed = [[z.real, z.imag] for z in pts]
    else:
        pts = rows
        listed = [list(map(float, row)) for row in pts]
    out = _point_rows(pts)
    assert out == _jval(listed)
    assert "-0," not in out and "-0]" not in out
    assert _point_rows(pts[:0]) == "[]"
    for bad in (float("nan"), float("inf")):
        broken = rows.copy()
        broken[11, -1] = bad
        with pytest.raises(NonFiniteRecordError, match="non-finite number"):
            _point_rows(broken.view(complex).ravel() if dim == 2 else broken)


@pytest.mark.parametrize("dim", [2, 3])
def test_sample_overflow_is_domain_error(dim, tmp_path, capsys):
    # word images of fixed points at +-1.7e308 overflow to infinity
    if dim == 2:
        maps = [{"p": [x, 0], "phi": [0.5, 0]} for x in (1.7e308, -1.7e308)]
    else:
        maps = [{"p": [x, 0, 0], "lambda": 0.5, "axis": [0, 0, 1], "angle": 0.0} for x in (1.7e308, -1.7e308)]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"dimension": dim, "maps": maps}))
    with np.errstate(all="ignore"):
        code = main(["sample", "--input", str(path), "--depth", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: non-finite number")


def _run_python(args):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ifsbound.__file__)))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def test_library_import_leaves_cli_unloaded():
    probe = (
        "import sys, ifsbound; "
        "print([m for m in ('ifsbound.cli', 'argparse', 'xml.sax.saxutils', "
        "'urllib.request') if m in sys.modules])"
    )
    result = _run_python(["-c", probe])
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_module_entry_point_writes_one_error_line(tmp_path):
    result = _run_python(["-m", "ifsbound.cli", "bound", "--input", str(tmp_path / "none.json")])
    assert result.returncode == 2
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot read")


def _huge_document(dim) -> str:
    # word images of fixed points at +-1.7e308 overflow to infinity
    if dim == 2:
        maps = [{"p": [x, 0], "phi": [0.5, 0]} for x in (1.7e308, -1.7e308)]
    else:
        maps = [{"p": [x, 0, 0], "lambda": 0.5, "axis": [0, 0, 1], "angle": 0.0} for x in (1.7e308, -1.7e308)]
    return json.dumps({"dimension": dim, "maps": maps})


@pytest.mark.parametrize(
    "dim, argv",
    [
        (2, ["bound", "--method", "circum"]),
        (2, ["bound", "--method", "general", "--center", "harmonic"]),
        (2, ["tighten", "--center", "0", "1.7e308", "--radius", "1e308"]),
        (2, ["intersect", "--line", "0", "0", "1", "0"]),
        (2, ["sample", "--depth", "1"]),
        (2, ["sample", "--count", "5"]),
        (2, ["render", "--out", "{tmp}/x.svg", "--count", "10"]),
        (3, ["bound", "--method", "general", "--center", "harmonic"]),
        # the distance to a fixed point exceeds the float range ...
        (3, ["verify", "--center", "0", "1.7e308", "0", "--radius", "1e308"]),
        # ... or already one of its coordinate differences does
        (3, ["verify", "--center", "1.7e308", "1.7e308", "0", "--radius", "1e308"]),
        (3, ["tighten", "--center", "0", "1.7e308", "0", "--radius", "1e308"]),
        (3, ["sample", "--depth", "1"]),
        (3, ["sample", "--count", "5"]),
    ],
)
def test_overflow_is_one_error_line(dim, argv, tmp_path):
    """Overflowing numbers end in exit 1 and one error line on the real
    stderr: no traceback and no NumPy warning lines.  (The fixed points
    +-1.7e308 are 3.4e308 apart: the harmonic weights, the bifractal
    circumcircle and distances from far centers overflow.)"""
    path = tmp_path / "huge.json"
    path.write_text(_huge_document(dim))
    argv = [a.format(tmp=tmp_path) for a in argv]
    result = _run_python(["-m", "ifsbound.cli", *argv, "--input", str(path)])
    assert result.returncode == 1
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr


@pytest.mark.parametrize(
    "dim, argv, code",
    [
        (2, ["bound"], 0),
        (2, ["tighten"], 0),
        (3, ["bound"], 0),
        (3, ["bound", "--method", "general"], 0),
        (3, ["tighten"], 0),
        (3, ["verify", "--center", "0", "0", "0", "--radius", "1e308"], 1),
    ],
    ids=["2d-bound", "2d-tighten", "3d-bound", "3d-general", "3d-tighten", "3d-verify"],
)
def test_huge_fixed_points_give_a_record(dim, argv, code, tmp_path):
    """Balls around the fixed points +-1.7e308 fit the float range: the
    smallest-circle center is solved scaled, the circumcircle falls back,
    and 3D distances do not square out of range."""
    path = tmp_path / "huge.json"
    path.write_text(_huge_document(dim))
    result = _run_python(["-m", "ifsbound.cli", *argv, "--input", str(path)])
    assert result.returncode == code and result.stderr == ""
    record = json.loads(result.stdout, parse_constant=lambda name: pytest.fail(name))
    if argv[0] == "verify":
        assert record["contained"] is False and record["slack"] == [-3.5e307, -3.5e307]
    else:
        assert record["center"] == [0] * dim and record["radius"] == 1.7e308
        assert record["slack"] == [0, 0]


def _far_document(dim, far):
    """Two maps (lambda 0.4 turning by 0.3 rad, lambda 0.5) with fixed
    points at +-far on one axis."""
    if dim == 2:
        maps = [{"p": [0, y], "lambda": lam, "theta": t} for y, lam, t in ((far, 0.4, 0.3), (-far, 0.5, 0.0))]
    else:
        maps = [
            {"p": [x, 0, 0], "lambda": lam, "axis": [0, 0, 1], "angle": t}
            for x, lam, t in ((far, 0.4, 0.3), (-far, 0.5, 0.0))
        ]
    return json.dumps({"dimension": dim, "maps": maps})


@pytest.mark.parametrize(
    "argv",
    [
        ["bound"],
        ["bound", "--method", "general", "--center", "optimal"],
        ["bound", "--method", "general", "--center", "best"],
        ["bound", "--method", "general", "--center", "harmonic"],
        ["bound", "--method", "general", "--center", "arithmetic"],
        ["tighten", "--levels", "2"],
    ],
    ids=["bound", "optimal", "best", "harmonic", "arithmetic", "tighten"],
)
def test_3d_distances_beyond_square_range(argv, tmp_path, capsys):
    # fixed points 2e200 apart: their squared distance overflows
    path = tmp_path / "far.json"
    path.write_text(_far_document(3, 1e200))
    code = main([*argv, "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    record = json.loads(captured.out)
    if argv[0] == "tighten":  # refined at a scaled exponent, not kept
        assert record["radius"] == 1.12476900133e200
    else:
        assert record["center"] == [0, 0, 0] and record["radius"] == 1.25814277202e200


@pytest.mark.parametrize("exponent", [-200, -170, 200])
@pytest.mark.parametrize(
    "argv, digits",
    [
        (["bound"], "1.25814277202"),
        (["tighten", "--levels", "2"], "1.12476900133"),
        (["tighten", "--levels", "13"], "1.00102741796"),
    ],
    ids=["bound", "tighten2", "tighten13"],
)
def test_3d_radii_scale_with_the_document(exponent, argv, digits, tmp_path, capsys):
    # the unit document's radii times 10^exponent, with no warning: at
    # 1e-200 the squared distances underflow to 0, at 1e200 they overflow
    path = tmp_path / "doc.json"
    path.write_text(_far_document(3, float(f"1e{exponent}")))
    code = main([*argv, "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert json.loads(captured.out)["radius"] == float(f"{digits}e{exponent}")


@pytest.mark.parametrize(
    "argv", [["bound"], ["bound", "--method", "general", "--center", "best"]], ids=["bound", "best"]
)
def test_best_center_skips_an_overflowing_candidate(argv, tmp_path, capsys):
    # the harmonic weights and the circumcircle overflow, the smallest-circle center does not
    path = tmp_path / "far.json"
    path.write_text(_far_document(2, 1e308))
    code = main([*argv, "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    record = json.loads(captured.out)
    assert record["method"] == "general" and record["radius"] == 1.25814277202e308


def test_overflowing_circumcircle_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "far.json"
    path.write_text(_far_document(2, 1e308))
    code = main(["bound", "--method", "circum", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "overflow" in lines[0]


def test_optimal_center_of_huge_fixed_points(tmp_path, capsys):
    # the fixed points +-1.7e308 are 3.4e308 apart, but the ball is finite
    path = tmp_path / "huge.json"
    path.write_text(_huge_document(2))
    code = main(["bound", "--method", "general", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    record = json.loads(captured.out)
    assert record["center"] == [0, 0] and record["radius"] == 1.7e308


def test_circumcircle_overflow_names_its_cause(tmp_path, capsys):
    # abs(p) ** 2 of a fixed point at 1e308 raises OverflowError in Python floats
    maps = [{"p": p, "phi": [0.5, 0]} for p in ([1e308, 0], [-1e308, 0], [0, 1e308])]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"dimension": 2, "maps": maps}))
    code = main(["bound", "--method", "circum", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "overflow" in lines[0]


def _assert_circumcircle_falls_back(maps, method, code, radius, tmp_path, capsys):
    """``bound`` takes the general ball, with a note, for a circumcircle
    that overflows; ``bound --method circum`` exits 1 with one error line."""
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"dimension": 2, "maps": maps}))
    code_out = main(["bound", "--method", method, "--input", str(path)])
    captured = capsys.readouterr()
    assert code_out == code
    if method == "circum":
        assert captured.out == ""
        assert captured.err == "error: the circumcircle overflows the float range\n"
        return
    assert captured.err == ""
    record = json.loads(captured.out)
    assert record["method"] == "general" and record["radius"] == radius
    notes = ["circumcircle unavailable: the circumcircle overflows the float range"]
    assert record["notes"] == (notes if method == "auto" else [])


@pytest.mark.parametrize("method, code", [("auto", 0), ("circum", 1), ("general", 0)])
def test_trifractal_overflow_falls_back(method, code, tmp_path, capsys):
    # abs(p) ** 2 of fixed points near 2^700 raises OverflowError in Python
    # floats: the circumcircle is unavailable, so bound takes the general ball
    ps = ((-5.261604122584017e-152, 1.4766427625592287e-152),
          (-2.675760607411687e-151, -1.3593468038007286e-151),
          (2.0747585716942888e-153, 7.920038967133988e-152))
    phis = ((0.19805059465607325, -0.28948047737751437),
            (-0.36638456420116855, -0.45871380609891726),
            (-0.07252019919399065, -0.5402993520140258))
    maps = [{"p": [math.ldexp(x, 1200) for x in p], "phi": list(f)} for p, f in zip(ps, phis)]
    _assert_circumcircle_falls_back(maps, method, code, 1.03661887978e211, tmp_path, capsys)


@pytest.mark.parametrize("method, code", [("auto", 0), ("circum", 1), ("general", 0)])
def test_bifractal_overflow_falls_back(method, code, tmp_path, capsys):
    # |p2 - p1| = 2.1e308: Python's complex abs raises OverflowError
    maps = [{"p": [s * 0.75e308, s * 0.75e308], "phi": [0.5, 0]} for s in (-1, 1)]
    _assert_circumcircle_falls_back(maps, method, code, 1.06066017178e308, tmp_path, capsys)


@pytest.mark.parametrize("gap, verified", [(1e-9, True), (1e-8, False)])
def test_one_containment_verdict(gap, verified, cantor_file, capsys):
    """verify, tighten and intersect_line agree on Cantor balls just inside
    (min slack -6.7e-10) and just outside (-6.7e-9) the tolerance 1.5e-9."""
    ifs, ball = parse_ifs(CANTOR_DOC), Ball(0.5, 0.5 - gap)
    code = main(["verify", "--input", cantor_file, "--center", "0.5", "0", "--radius", repr(ball.r)])
    assert json.loads(capsys.readouterr().out)["contained"] is verified
    assert code == (0 if verified else 1)
    for query in (lambda: tighten(ifs, ball, 2), lambda: intersect_line(ifs, Line(0, 1), 1e-3, ball)):
        if verified:
            query()
        else:
            with pytest.raises(ValueError, match=r"is not a verified bounding ball \(min slack -6\.667e-09\)"):
                query()


def _bound_general(tmp_path, points, center):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"dimension": 2, "maps": [{"p": p, "phi": [0.5, 0]} for p in points]}))
    return main(["bound", "--method", "general", "--center", center, "--input", str(path)])


def test_harmonic_overflow_names_its_cause(tmp_path, capsys):
    # both covering radii are inf, so every harmonic weight is 0
    code = _bound_general(tmp_path, [[0, 1e308], [0, -1e308]], "harmonic")
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (
        "error: floating-point overflow: the covering radii of the fixed points overflow\n"
    )


def test_arithmetic_center_survives_harmonic_overflow(tmp_path, capsys):
    # the arithmetic center 0 has the finite covering radius 1e308
    code = _bound_general(tmp_path, [[0, 1e308], [0, -1e308]], "arithmetic")
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    record = json.loads(captured.out)
    assert record["method"] == "general_arithmetic"
    assert record["center"] == [0, 0] and record["radius"] == 1e308


@pytest.mark.parametrize(
    "center, err",
    [
        ("harmonic", "warning: coincident fixed points: harmonic mean center undefined, "
         "falling back to the arithmetic mean\n"),
        ("arithmetic", ""),
    ],
    ids=["harmonic", "arithmetic"],
)
def test_warning_is_one_stderr_line(center, err, tmp_path):
    out, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(stderr):
            code = _bound_general(tmp_path, [[0.5, 0.5], [0.5, 0.5]], center)
    assert code == 0
    record = json.loads(out.getvalue(), parse_constant=lambda name: pytest.fail(name))
    assert record["center"] == [0.5, 0.5]
    assert stderr.getvalue() == err


@pytest.mark.parametrize(
    "argv",
    [["bound"], ["tighten"], ["bound", "--method", "general", "--center", "best"]],
    ids=["bound", "tighten", "best"],
)
def test_coincident_fixed_points_need_no_warning(argv, tmp_path):
    # only an explicit --center harmonic computes the harmonic mean
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"dimension": 2, "maps": [{"p": [0.5, 0.5], "phi": [0.5, 0]}] * 2}))
    out, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(stderr):
            code = main([*argv, "--input", str(path)])
    assert code == 0 and stderr.getvalue() == ""
    assert json.loads(out.getvalue())["center"] == [0.5, 0.5]


def test_spread_far_below_the_magnitude(tmp_path, capsys):
    # unscaled, the y spread 2e-170 squares to 0 beside the x coordinate 1e-100
    maps = [{"p": [1e-100, y, 0], "lambda": 0.5, "axis": [0, 0, 1], "angle": 0.0} for y in (1e-170, -1e-170)]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"dimension": 3, "maps": maps}))
    code = main(["bound", "--method", "general", "--center", "optimal", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    record = json.loads(captured.out)
    assert record["center"] == [1e-100, 0, 0] and record["radius"] == 1e-170


@pytest.mark.parametrize("name", ["missing.json", "."], ids=["missing", "directory"])
def test_unreadable_input_is_one_error_line(name, tmp_path, capsys):
    path = tmp_path / name
    code = main(["bound", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: cannot read {path}: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["bound"],
        ["bound", "--method", "general", "--center", "optimal"],
        ["bound", "--method", "general", "--center", "best"],
        ["bound", "--method", "general", "--center", "arithmetic"],
        ["tighten"],
        ["tighten", "--levels", "9"],
    ],
    ids=["bound", "optimal", "best", "arithmetic", "tighten", "tighten_blocks"],
)
def test_spread_beyond_square_range(argv, tmp_path, capsys):
    # fixed points 2e155 apart: their squared distance overflows unscaled
    path = tmp_path / "doc.json"
    maps = [{"p": p, "phi": [0.5, 0]} for p in ([1e155, 0], [-1e155, 0], [0, 0])]
    path.write_text(json.dumps({"dimension": 2, "maps": maps}))
    code = main([*argv, "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    record = json.loads(captured.out)
    assert record["center"] == [0, 0] and record["radius"] == 1e155


@pytest.mark.parametrize("center", ["arithmetic", "harmonic"])
def test_one_finite_covering_radius_keeps_the_mean_centers(center, tmp_path, capsys):
    # the radii at +-1e308 are inf, the one at 0 is finite: the weights still sum above 0
    code = _bound_general(tmp_path, [[1e308, 0], [-1e308, 0], [0, 0]], center)
    record = json.loads(capsys.readouterr().out)
    assert code == 0
    assert record["method"] == f"general_{center}"
    assert record["center"] == [0, 0] and record["radius"] == 1e308


@pytest.mark.parametrize(
    "argv, message",
    [
        (["intersect", "--line", "0", "0", "1", "0"], "error: the CLI line query is 2D only"),
        (["render", "--out", "{tmp}/x.svg"], "error: rendering is 2D only"),
    ],
    ids=["intersect", "render"],
)
def test_plane_only_commands_reject_space_documents(argv, message, tmp_path, capsys):
    maps = [{"p": [x, 0, 0], "lambda": 0.5, "axis": [0, 0, 1], "angle": 0.3} for x in (0, 1)]
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"dimension": 3, "maps": maps}))
    argv = [a.format(tmp=tmp_path) for a in argv]
    code = main([*argv, "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == message + "\n"
    assert not (tmp_path / "x.svg").exists()


@pytest.mark.parametrize("value", ["NaN", "Infinity"])
@pytest.mark.parametrize("dim", [2, 3])
def test_non_finite_lambda_reads_alike_in_both_dimensions(dim, value, tmp_path, capsys):
    rest = '"theta": 0' if dim == 2 else '"axis": [0, 0, 1], "angle": 0'
    path = tmp_path / "doc.json"
    path.write_text(f'{{"dimension": {dim}, "maps": [{{"p": {[0] * dim}, "lambda": {value}, {rest}}}]}}')
    code = main(["bound", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: map 1: non-finite map parameter\n"


_HOSTILE = [0.0, 1e308, -1e308, 1.7e308, -1.7e308, 5e-324, -5e-324, 2.5e-310]
_NEAR_ONE = math.nextafter(1.0, 0.0)


def _arg(x: float) -> str:
    # positional digits: argparse takes "-1e+308" for an option, "-1.0" for a number
    return np.format_float_positional(x, trim="0")


def _hostile_map(dim):
    coord = st.sampled_from(_HOSTILE)
    lam = st.one_of(st.sampled_from([_NEAR_ONE, 0.5, 5e-324]), st.floats(5e-324, _NEAR_ONE))
    angle = st.sampled_from([0.0, math.pi, 1.0, -2.5])
    if dim == 2:
        return st.one_of(
            st.fixed_dictionaries({"p": st.lists(coord, min_size=2, max_size=2), "lambda": lam, "theta": angle}),
            st.fixed_dictionaries({"p": st.lists(coord, min_size=2, max_size=2), "phi": st.tuples(lam, st.just(0.0))}),
        )
    return st.fixed_dictionaries(
        {
            "p": st.lists(coord, min_size=3, max_size=3),
            "lambda": lam,
            "axis": st.lists(st.sampled_from(_HOSTILE + [1.0]), min_size=3, max_size=3),
            "angle": angle,
        }
    )


@st.composite
def _hostile_run(draw, command):
    dim = 2 if command in ("intersect", "render") else draw(st.sampled_from([2, 3]))
    doc = {"dimension": dim, "maps": draw(st.lists(_hostile_map(dim), min_size=1, max_size=3))}
    num = st.sampled_from(_HOSTILE).map(_arg)
    if command == "bound":
        argv = ["--method", draw(st.sampled_from(["auto", "general", "circum"])),
                "--center", draw(st.sampled_from(["optimal", "arithmetic", "harmonic", "best"]))]
    elif command == "verify":
        argv = ["--center", *draw(st.lists(num, min_size=dim, max_size=dim)), "--radius", draw(num.filter(lambda s: not s.startswith("-")))]
    elif command == "tighten":
        argv = ["--levels", str(draw(st.integers(0, 3)))]
    elif command == "intersect":
        argv = ["--line", *draw(st.lists(num, min_size=4, max_size=4)), "--eps", draw(st.sampled_from(["1e-3", "5e-324", "1e308"]))]
    elif command == "sample":
        argv = draw(st.sampled_from([["--depth", "2"], ["--count", "20", "--seed", "3"]]))
    else:
        argv = ["--count", "20", *draw(st.sampled_from([[], ["--depth", "2"], ["--line", "0", "0", "1", "0"]]))]
    return doc, [command, *argv]


@pytest.mark.parametrize("command", ["bound", "verify", "tighten", "intersect", "sample", "render"])
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_hostile_documents_end_in_a_record_or_one_error_line(command, data):
    """Every run over extreme coordinates and contraction factors prints one
    strict-JSON record or exits 1/2 with one error line, with NumPy warnings
    turned into errors."""
    doc, argv = data.draw(_hostile_run(command))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        if command == "render":
            argv += ["--out", os.path.join(tmp, "x.svg")]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), mock.patch.dict(os.environ, {"IFSBOUND_NODE_BUDGET": "5000"}):
            warnings.simplefilter("error")
            # the library's documented fallback for coincident fixed points
            warnings.filterwarnings("ignore", "coincident fixed points", RuntimeWarning)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([*argv, "--input", path])
    if out.getvalue() and command != "render":
        assert code == 0 or (code == 1 and command == "verify"), (code, err.getvalue())
        record = json.loads(out.getvalue(), parse_constant=lambda name: pytest.fail(name))
        assert isinstance(record, dict)
    else:
        assert out.getvalue() == ""
        if code != 0:
            lines = err.getvalue().splitlines()
            assert code in (1, 2) and len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()
        else:
            assert command == "render"
