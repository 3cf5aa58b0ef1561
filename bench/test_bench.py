"""Tests of the benchmark itself: seeding, output checks, metric names.

    python3 -m pytest -q bench/test_bench.py
"""

import dataclasses
import json
import re

import pytest

import run
import tracer
import workloads as W

lib = W.import_library()
SPEC = json.loads((W.ROOT / "BENCHMARK.json").read_text())


def _deck(name, seed, tmp_path):
    return W.WORKLOADS[name].build(lib, seed, tmp_path / f"{name}-{seed}")


def _quick(name, seed, tmp_path, trace=0, limit=4, setup_probes=0, seconds=0.0):
    wl = W.WORKLOADS[name]
    return run.measure(lib, wl, seed, seconds, trace, tmp_path / f"run-{name}-{seed}-{trace}",
                       setup_probes=setup_probes, deck_limit=limit)


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_seed_fixes_inputs(name, tmp_path):
    deck = _deck(name, 7, tmp_path)
    assert len(deck) >= run.MIN_DECK
    first = W.deck_fingerprint(deck)
    assert W.deck_fingerprint(_deck(name, 7, tmp_path)) == first
    assert W.deck_fingerprint(_deck(name, 8, tmp_path)) != first


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_same_seed_same_digest(name, tmp_path):
    result, meta = _quick(name, 5, tmp_path)
    again, meta2 = _quick(name, 5, tmp_path)
    assert result["failed"] == 0, meta["failures"]
    assert meta["digest"] == meta2["digest"]
    assert meta["inputs"] == meta2["inputs"]


def _first(name, tmp_path, pred=lambda op: True):
    wl = W.WORKLOADS[name]
    op = next(op for op in _deck(name, 11, tmp_path) if pred(op))
    out = wl.run(lib, op)
    assert wl.check(lib, op, out) is None
    return wl, op, out


def test_refine_rejects_shrunk_radius(tmp_path):
    wl, op, (start, tight) = _first("refine", tmp_path)
    shrunk = dataclasses.replace(tight, ball=lib.Ball(tight.ball.c, tight.ball.r * 0.5))
    assert "outside tightened radius" in wl.check(lib, op, (start, shrunk))
    grown = dataclasses.replace(tight, ball=lib.Ball(tight.ball.c, start.ball.r * 1.5))
    assert "exceeds input" in wl.check(lib, op, (start, grown))


def test_line_query_rejects_dropped_or_extra_interval(tmp_path):
    wl, op, out = _first("line_query", tmp_path, lambda op: not op.params["outside"])
    kept = tuple(h for h in out.intervals if not h.t_lo <= 0.0 <= h.t_hi)
    dropped = lib.LineIntersection(intervals=kept, truncated=out.truncated)
    assert "anchor parameter 0" in wl.check(lib, op, dropped)
    unsorted = lib.LineIntersection(intervals=out.intervals * 2, truncated=out.truncated)
    assert "sorted and disjoint" in wl.check(lib, op, unsorted)

    wl, op, out = _first("line_query", tmp_path, lambda op: op.params["outside"])
    fake = lib.LineIntersection(intervals=(lib.HitInterval(-1.0, 1.0, (), 0),), truncated=False)
    assert "outside the bounding ball" in wl.check(lib, op, fake)


def test_sample_render_rejects_bad_points_or_svg(tmp_path):
    wl, op, (pts, ball, outlines, svg) = _first("sample_render", tmp_path)
    moved = pts.copy()
    moved[0] = ball.c + 2.0 * ball.r
    assert "outside general radius" in wl.check(lib, op, (moved, ball, outlines, svg))
    cut = svg.replace("<circle ", "<ellipse ", 1)
    assert "circles, expected" in wl.check(lib, op, (pts, ball, outlines, cut))
    broken = svg.replace("</svg>", "")
    assert "not well-formed" in wl.check(lib, op, (pts, ball, outlines, broken))


def test_cli_rejects_wrong_exit_or_nonstrict_json(tmp_path):
    wl, op, (code, out, err, svg, rss) = _first(
        "cli", tmp_path, lambda op: op.kind == "bound" and op.params["expect"] == 0
    )
    assert "expected 0" in wl.check(lib, op, (1, out, b"error: x\n", svg, rss))
    nan = out.replace(b'"radius": ', b'"radius": NaN, "r": ', 1)
    assert "not strict JSON" in wl.check(lib, op, (code, nan, err, svg, rss))


def test_runner_counts_corrupted_results_as_failed(tmp_path):
    class Shrinking(W.Refine):
        def run(self, lib, op):
            start, tight = super().run(lib, op)
            return start, dataclasses.replace(tight, ball=lib.Ball(tight.ball.c, 0.0))

    wl = Shrinking()
    deck = wl.build(lib, 3, None)[:3]
    res = run.timed_passes(lib, wl, deck, 0.0)
    assert len(res.failures) == res.attempted == 3
    assert all("outside tightened radius" in f["cause"] for f in res.failures)


def test_benchmark_json_follows_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    assert {w["name"] for w in SPEC["workloads"]} <= set(W.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bytes", "length", "ratio")
          and m["name"] != "trace.overhead_ratio"]


@pytest.mark.parametrize("name", ["refine", "cli"])
def test_every_metric_is_emitted_with_its_unit(name, tmp_path):
    result, _ = _quick(name, 2, tmp_path, trace=0, limit=3, setup_probes=1)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())

    traced, meta = _quick(name, 2, tmp_path, trace=1, limit=3)
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == run.PER_LAYER
    # a longer run makes more traced passes; per-pass counts must not change
    again, meta2 = _quick(name, 2, tmp_path, trace=1, limit=3, seconds=6.0)
    assert meta2["passes"] > meta["passes"]
    for key in COUNTS:
        assert traced["metrics"][key]["value"] == again["metrics"][key]["value"], key
    spans = json.loads((W.ROOT / meta["spans"]).read_text())
    assert spans["fields"] == ["name", "start", "end", "parent", "op"] and spans["spans"]


def test_self_time_excludes_children():
    t = tracer.Tracer()
    t.spans = [["outer", 0.0, 10.0, -1, 0], ["inner", 2.0, 5.0, 0, 0], ["deep", 3.0, 4.0, 1, 0]]
    incl, self_s = t.totals()
    assert incl["outer"] == 10.0 and self_s["outer"] == 7.0
    assert self_s["inner"] == 2.0 and self_s["deep"] == 1.0
