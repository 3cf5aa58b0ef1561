"""ifsbound benchmark: seeded closed-loop workloads with one caller each.

    python3 bench/run.py --workload refine --seed 1 --seconds 60 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 60 --trace 0

A run builds its deck of at least 100 operations from ``--seed``, warms up
with the deck's cheapest operation, then runs whole passes over the deck
until the next pass would end after ``--seconds``.  An op's latency is its
best time over the passes; throughput and percentiles are taken over the
deck's ops.  The first pass checks every output and records its digest;
later passes must reproduce the digest exactly.  With ``--trace 0`` the
last line of stdout holds the end-to-end metrics; with ``--trace 1`` one
untraced pass is followed by traced passes, and the last line holds the
per-layer metrics.  ``all`` runs every
workload in turn and prints one table.
"""

from time import perf_counter

T0 = perf_counter()  # set-up probes time from here: imports, inputs, warm-up

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import tracer as T  # noqa: E402
import workloads as W  # noqa: E402

MIN_DECK = 100  # ops per deck, so p90 has at least 10 samples beyond it
SETUP_PROBES = 7
IMPORT_PROBES = 3
OUT_DIR = W.ROOT / ".bench_out"
WORK_DIR = W.ROOT / ".bench_work"

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MiB",
    "success_ratio": "ratio",
}

PER_LAYER = {
    "minball.min_ball_s": "s",
    "minball.ns_per_point": "ns",
    "minball.calls": "count",
    "minball.points": "count",
    "minball.support_size_mean": "count",
    "rng.shuffle_s": "s",
    "rng.draws": "count",
    "bounds.tighten_s": "s",
    "bounds.tighten_self_s": "s",
    "bounds.words": "count",
    "bounds.kept_input": "count",
    "bounds.radius_ratio": "ratio",
    "bounds.best_ball_s": "s",
    "bounds.verify_s": "s",
    "bounds.verify_calls": "count",
    "ifs.address_points_s": "s",
    "ifs.address_raw": "count",
    "ifs.address_unique": "count",
    "ifs.dedupe_keep_ratio": "ratio",
    "ifs.chaos_game_s": "s",
    "ifs.chaos_points": "count",
    "render.scene_s": "s",
    "render.emit_s": "s",
    "render.svg_bytes": "bytes",
    "render.elements": "count",
    "queries.intersect_s": "s",
    "queries.intersect_self_s": "s",
    "queries.distance_calls": "count",
    "queries.intervals": "count",
    "queries.truncated": "count",
    "queries.hit_length": "length",
    "cli.process_ms_p50": "ms",
    "cli.main_ms_p50": "ms",
    "cli.startup_ms": "ms",
    "cli.import_ms": "ms",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


def source_lines() -> dict:
    """Lines per module of ``src/ifsbound`` (metadata, not a metric)."""
    counts = {
        p.name: len(p.read_text().splitlines())
        for p in sorted((W.SRC / "ifsbound").glob("*.py"))
    }
    counts["total"] = sum(counts.values())
    return counts


def _self_command(workload, seed, extra=()):
    return [sys.executable, str(W.Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), *extra]


def setup_probe_seconds(workload, seed) -> float:
    """Set-up time of a fresh process: imports, deck, warm-up op."""
    proc = subprocess.run(
        _self_command(workload, seed, ["--setup-probe"]),
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def import_ms() -> float:
    """Cumulative ``import ifsbound`` time from ``-X importtime``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import ifsbound"],
        env=W.cli_env(), capture_output=True, text=True, check=True,
    )
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "ifsbound":
            return int(parts[1]) / 1000.0
    raise RuntimeError("no ifsbound line in -X importtime output")


def warm_up(lib, wl, deck):
    op = min(deck, key=lambda o: o.cost)
    wl.run(lib, op)


class Passes:
    """Outcome of the timed phase."""

    def __init__(self, size):
        self.samples = [[] for _ in range(size)]  # untraced seconds per op
        self.failures = []
        self.digests = [None] * size
        self.pass_op_seconds = []
        self.traced_latencies = []
        self.traced_passes = 0
        self.main_ms = []
        self.main_untraced_ms = []
        self.stdout_bytes = 0

    @property
    def attempted(self):
        return sum(map(len, self.samples)) + len(self.traced_latencies)

    def best(self):
        """Each op's best time over the untraced passes.  Slow spells of a
        shared machine last seconds to minutes; the best of several passes
        spread over the run is what repeats from run to run."""
        return [min(s) for s in self.samples]


def timed_passes(lib, wl, deck, seconds, tracer=None) -> Passes:
    """Whole passes over the deck, closed loop, one caller.

    Passes continue until the next one (estimated by the last) would end
    after ``seconds``; at least one runs.  With a tracer, the first pass of
    an in-process workload runs untraced as the overhead baseline and at
    least one traced pass follows.  CLI children cannot be traced, so every
    CLI pass is traced and each call is repeated in this process through
    ``ifsbound.cli.main``, once untraced as the baseline and once traced."""
    res = Passes(len(deck))
    start = perf_counter()
    passes = 0
    while True:
        tracing = tracer is not None and (passes > 0 or not wl.in_process)
        if tracer is not None:
            tracer.enabled = tracing
        t_pass = perf_counter()
        op_seconds = 0.0
        for i, op in enumerate(deck):
            if tracer is not None:
                tracer.op = [passes, i]
            t0 = perf_counter()
            try:
                out, cause = wl.run(lib, op), None
            except Exception as exc:  # a failed op is counted, not fatal
                out, cause = None, f"{type(exc).__name__}: {exc}"
            dt = perf_counter() - t0
            op_seconds += dt
            (res.traced_latencies if tracing else res.samples[i]).append(dt)
            if tracing and not wl.in_process:
                tracer.enabled = False
                t1 = perf_counter()
                wl.run_in_process(lib, op)
                res.main_untraced_ms.append((perf_counter() - t1) * 1e3)
                tracer.enabled = True
                t1 = perf_counter()
                wl.run_in_process(lib, op)
                res.main_ms.append((perf_counter() - t1) * 1e3)
                res.stdout_bytes += len(out[1]) if out is not None else 0
            if out is not None:
                digest = hashlib.sha256(wl.digest(out)).hexdigest()
                if passes == 0:
                    res.digests[i] = digest
                    cause = wl.check(lib, op, out)
                elif digest != res.digests[i]:
                    cause = "output differs from the first pass"
            if cause is not None:
                res.failures.append({"pass": passes, "op": i, "kind": op.kind, "cause": cause})
        if tracer is not None:
            tracer.enabled = False
        passes += 1
        res.traced_passes += tracing
        res.pass_op_seconds.append(op_seconds)
        if tracer is not None and wl.in_process and passes < 2:
            continue
        last = perf_counter() - t_pass
        if perf_counter() - start + last > seconds:
            return res


def _quantiles(values):
    q = statistics.quantiles(values, n=10, method="inclusive")
    return q[4], q[8]


def measure(lib, wl, seed, seconds, trace, workdir, setup_probes=SETUP_PROBES,
            deck_limit=None):
    """One run: returns (result object, metadata)."""
    deck = wl.build(lib, seed, workdir)
    if deck_limit is not None:
        deck = deck[:deck_limit]
    warm_up(lib, wl, deck)
    if trace:
        setups, imports = [], [import_ms() for _ in range(IMPORT_PROBES)]
    else:
        setups, imports = [setup_probe_seconds(wl.name, seed) for _ in range(setup_probes)], []

    tracer = None
    if trace:
        tracer = T.Tracer()
        T.install(tracer, lib)
    try:
        res = timed_passes(lib, wl, deck, seconds, tracer)
    finally:
        if tracer is not None:
            tracer.restore()

    attempted = res.attempted
    failed = len(res.failures)
    if trace:
        traced = res.traced_passes
        values = T.layer_metrics(tracer, traced)
        if wl.in_process:
            process = main = 0.0
            overhead = statistics.mean(res.pass_op_seconds[1:]) / res.pass_op_seconds[0]
        else:
            process = statistics.median(res.traced_latencies) * 1e3
            main = statistics.median(res.main_ms)
            overhead = sum(res.main_ms) / sum(res.main_untraced_ms)
        values.update({
            "cli.process_ms_p50": process,
            "cli.main_ms_p50": main,
            "cli.startup_ms": process - main,
            "cli.import_ms": statistics.median(imports),
            "cli.stdout_bytes": res.stdout_bytes / traced,
            "trace.overhead_ratio": overhead,
        })
        units = PER_LAYER
        spans = OUT_DIR / f"spans-{wl.name}-seed{seed}.json"
        tracer.write(spans)
    else:
        best = res.best()
        p50, p90 = _quantiles(best)
        if wl.in_process:
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        else:
            peak_kib = wl.child_peak_kib
        values = {
            "setup_s": statistics.median(setups) if setups else 0.0,
            "ops_per_s": len(best) / sum(best),
            "latency_p50_ms": p50 * 1e3,
            "latency_p90_ms": p90 * 1e3,
            "peak_rss_mb": peak_kib / 1024.0,
            "success_ratio": 1.0 - failed / attempted,
        }
        units = END_TO_END
        spans = None

    run_digest = hashlib.sha256("".join(d or "-" for d in res.digests).encode()).hexdigest()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    meta = {
        "workload": wl.name,
        "seed": seed,
        "deck_ops": len(deck),
        "passes": len(res.pass_op_seconds),
        "inputs": W.deck_fingerprint(deck),
        "digest": run_digest,
        "setup_probes_s": setups,
        "failures": res.failures[:50],
        "source_lines": source_lines(),
        "spans": str(spans.relative_to(W.ROOT)) if spans else None,
    }
    return result, meta


def print_table(rows):
    for workload, result in rows:
        print(f"{workload}: attempted {result['attempted']} ops, failed {result['failed']}")
        for name, m in result["metrics"].items():
            print(f"  {name:28s} {m['value']:>16.6g} {m['unit']}")


def run_all(args) -> int:
    rows = []
    for name in W.WORKLOADS:
        proc = subprocess.run(
            _self_command(name, args.seed, ["--seconds", str(args.seconds), "--trace", str(args.trace)]),
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.splitlines()
        for line in lines:
            if line.startswith("# failure"):
                print(f"{name} {line}")
        rows.append((name, json.loads(lines[-1])))
    print_table(rows)
    print(json.dumps({name: result for name, result in rows}))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*W.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        lib = W.import_library()
    except ImportError as exc:
        print(f"error: cannot import ifsbound from this checkout: {exc}", file=sys.stderr)
        return 2
    wl = W.WORKLOADS[args.workload]
    workdir = WORK_DIR / f"{wl.name}-{os.getpid()}"
    try:
        if args.setup_probe:
            warm_up(lib, wl, wl.build(lib, args.seed, workdir))
            print(json.dumps({"setup_s": perf_counter() - T0}))
            return 0
        result, meta = measure(lib, wl, args.seed, args.seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK_DIR.is_dir() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()
    for f in meta["failures"]:
        print(f"# failure pass {f['pass']} op {f['op']} ({f['kind']}): {f['cause']}")
    print_table([(wl.name, result)])
    print("# meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
