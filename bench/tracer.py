"""In-memory spans and counters around the library's public callables.

Nothing here is inside the library: each callable is replaced, for the
duration of a traced run, by a wrapper at every place a caller looks it up
(modules import by name, so ``bounds.min_ball`` and ``ifsbound.min_ball`` are
separate bindings).  Spans hold ``[name, start, end, parent, op]``; self
times are derived from them after the run.
"""

from __future__ import annotations

import functools
import json
import math
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.enabled = False
        self.op = None
        self._stack = []
        self._undo = []

    def wrap(self, name, fn, after=None):
        """``fn`` with a span named ``name``; ``after(counts, args, kwargs,
        result)`` then records counters outside the span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            rec = [name, perf_counter(), 0.0, parent, tracer.op]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                tracer._stack.pop()
            if after is not None:
                after(tracer.counts, args, kwargs, result)
            return result

        return traced

    def count_calls(self, key, fn):
        """``fn`` counting its calls under ``key``, with no span (for
        per-node callables whose spans would dwarf the work)."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.enabled:
                tracer.counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def patch(self, owner, attr, replacement):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans}, fh)

    # -- derived numbers ----------------------------------------------------

    def totals(self):
        """(inclusive seconds, self seconds) per span name."""
        incl = defaultdict(float)
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            incl[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
        return incl, self_s


# ---------------------------------------------------------------------------
# what is wrapped, and where
# ---------------------------------------------------------------------------


def _after_min_ball(counts, args, kwargs, result):
    counts["minball.calls"] += 1
    counts["minball.points"] += len(args[0])
    counts["minball.support"] += len(result[1].indices)


def _after_shuffle(counts, args, kwargs, result):
    counts["rng.draws"] += max(len(args[1]) - 1, 0)  # one index() per swap


def _after_tighten(counts, args, kwargs, result):
    ifs, ball, levels = args[0], args[1], args[2]
    counts["bounds.tighten_calls"] += 1
    counts["bounds.words"] += ifs.n**levels
    counts["bounds.kept_input"] += any("input kept" in note for note in result.notes)
    if ball.r > 0.0:
        # exact sums, so the mean does not depend on how many passes ran
        counts["bounds.radius_ratio_sum"] += Fraction(result.ball.r / ball.r)


def _after_verify(counts, args, kwargs, result):
    counts["bounds.verify_calls"] += 1


def _after_address(counts, args, kwargs, result):
    depth = args[1] if len(args) > 1 else kwargs["depth"]
    counts["ifs.address_raw"] += args[0].n ** (depth + 1)
    counts["ifs.address_unique"] += len(result)


def _chaos_after(burn_in_default):
    def after(counts, args, kwargs, result):
        count = args[1] if len(args) > 1 else kwargs["count"]
        burn_in = args[3] if len(args) > 3 else kwargs.get("burn_in", burn_in_default)
        counts["ifs.chaos_points"] += count
        counts["rng.draws"] += count + burn_in

    return after


def _after_intersect(counts, args, kwargs, result):
    counts["queries.intersect_calls"] += 1
    counts["queries.intervals"] += len(result.intervals)
    counts["queries.truncated"] += bool(result.truncated)
    counts["queries.hit_length_sum"] += Fraction(math.fsum(h.t_hi - h.t_lo for h in result.intervals))


def _after_emit(counts, args, kwargs, result):
    counts["render.svg_bytes"] += len(result)
    counts["render.elements"] += result.count("<") - result.count("</")


def install(tracer: Tracer, lib):
    """Wrap every traced callable at each of its lookup sites."""
    from ifsbound import bounds, cli, ifs, minball, queries, rng  # noqa: F401

    sites = [
        # (span name, defining module, attribute, lookup sites, after-hook)
        ("minball.min_ball", minball, "min_ball", [bounds], _after_min_ball),
        ("bounds.tighten", bounds, "tighten", [lib, cli], _after_tighten),
        ("bounds.verify_containment", bounds, "verify_containment", [lib, bounds, queries, cli], _after_verify),
        ("bounds.best_bounding_ball", bounds, "best_bounding_ball", [lib, queries, cli], None),
        ("ifs.address_points", ifs, "address_points", [lib, cli], _after_address),
        ("ifs.chaos_game", ifs, "chaos_game", [lib, cli], _chaos_after(ifs.DEFAULT_BURN_IN)),
        ("queries.intersect_line", queries, "intersect_line", [lib, cli], _after_intersect),
        ("render.scene", lib.render, "PointCloud", [lib, cli], None),
        ("render.scene", lib.render, "Scene", [lib, cli], None),
        ("render.emit", lib.render, "emit", [lib, cli], _after_emit),
    ]
    for name, home, attr, lookups, after in sites:
        original = getattr(home, attr)
        for where in lookups:
            tracer.patch(where, attr, tracer.wrap(name, original, after))
    tracer.patch(rng.SplitMix64, "shuffle", tracer.wrap("rng.shuffle", rng.SplitMix64.shuffle, _after_shuffle))
    tracer.patch(queries.Line, "distance", tracer.count_calls("queries.distance_calls", queries.Line.distance))


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-layer values per deck pass (counts repeat exactly between runs
    of one seed because every traced pass runs the whole deck)."""
    incl, self_s = tracer.totals()
    c = tracer.counts

    def per_pass(x):
        return x / passes

    def ratio(num, den):
        return float(num / den) if den else 0.0

    return {
        "minball.min_ball_s": per_pass(incl["minball.min_ball"]),
        "minball.ns_per_point": ratio(incl["minball.min_ball"] * 1e9, c["minball.points"]),
        "minball.calls": per_pass(c["minball.calls"]),
        "minball.points": per_pass(c["minball.points"]),
        "minball.support_size_mean": ratio(c["minball.support"], c["minball.calls"]),
        "rng.shuffle_s": per_pass(incl["rng.shuffle"]),
        "rng.draws": per_pass(c["rng.draws"]),
        "bounds.tighten_s": per_pass(incl["bounds.tighten"]),
        "bounds.tighten_self_s": per_pass(self_s["bounds.tighten"]),
        "bounds.words": per_pass(c["bounds.words"]),
        "bounds.kept_input": per_pass(c["bounds.kept_input"]),
        "bounds.radius_ratio": ratio(c["bounds.radius_ratio_sum"], c["bounds.tighten_calls"]),
        "bounds.best_ball_s": per_pass(incl["bounds.best_bounding_ball"]),
        "bounds.verify_s": per_pass(incl["bounds.verify_containment"]),
        "bounds.verify_calls": per_pass(c["bounds.verify_calls"]),
        "ifs.address_points_s": per_pass(incl["ifs.address_points"]),
        "ifs.address_raw": per_pass(c["ifs.address_raw"]),
        "ifs.address_unique": per_pass(c["ifs.address_unique"]),
        "ifs.dedupe_keep_ratio": ratio(c["ifs.address_unique"], c["ifs.address_raw"]),
        "ifs.chaos_game_s": per_pass(incl["ifs.chaos_game"]),
        "ifs.chaos_points": per_pass(c["ifs.chaos_points"]),
        "render.scene_s": per_pass(incl["render.scene"]),
        "render.emit_s": per_pass(incl["render.emit"]),
        "render.svg_bytes": per_pass(c["render.svg_bytes"]),
        "render.elements": per_pass(c["render.elements"]),
        "queries.intersect_s": per_pass(incl["queries.intersect_line"]),
        "queries.intersect_self_s": per_pass(self_s["queries.intersect_line"]),
        "queries.distance_calls": per_pass(c["queries.distance_calls"]),
        "queries.intervals": per_pass(c["queries.intervals"]),
        "queries.truncated": per_pass(c["queries.truncated"]),
        "queries.hit_length": ratio(c["queries.hit_length_sum"], c["queries.intersect_calls"]),
    }
