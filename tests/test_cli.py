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
from ifsbound import IfsDocumentError, parse_ifs, serialize_ifs
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
        doc = json.dumps(
            {
                "dimension": 2,
                "maps": [
                    {"p": [0, 0], "phi": [0.5, 0]},
                    {"p": [1, 0], "lambda": 1.0, "theta": 0.0},
                ],
            }
        )
        with pytest.raises(IfsDocumentError, match="map 2 is not a contraction"):
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
        (2, ["bound"]),
        (2, ["bound", "--method", "general"]),
        (2, ["tighten"]),
        (2, ["intersect", "--line", "0", "0", "1", "0"]),
        (2, ["sample", "--depth", "1"]),
        (2, ["sample", "--count", "5"]),
        (2, ["render", "--out", "{tmp}/x.svg", "--count", "10"]),
        (3, ["bound"]),
        (3, ["bound", "--method", "general"]),
        (3, ["verify", "--center", "0", "0", "0", "--radius", "1e308"]),
        (3, ["tighten"]),
        (3, ["sample", "--depth", "1"]),
        (3, ["sample", "--count", "5"]),
    ],
)
def test_overflow_is_one_error_line(dim, argv, tmp_path):
    """Overflowing numbers end in exit 1 and one error line on the real
    stderr: no traceback and no NumPy warning lines."""
    path = tmp_path / "huge.json"
    path.write_text(_huge_document(dim))
    argv = [a.format(tmp=tmp_path) for a in argv]
    result = _run_python(["-m", "ifsbound.cli", *argv, "--input", str(path)])
    assert result.returncode == 1
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr


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
