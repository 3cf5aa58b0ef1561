#!/usr/bin/env python3
"""Check that two checkouts of ifsbound produce the same outputs.

    python scripts/parity.py OTHER_CHECKOUT [--seeds 1,3,4] [--workloads cli,refine]

Each checkout runs in its own subprocess, with its own ``bench/workloads.py``
and its own ``src``, over the benchmark decks of the given seeds:

* ``cli``: every op runs in process through ``ifsbound.cli.main``; its exit
  code, stdout, stderr and SVG file are compared;
* ``refine``, ``line_query``, ``sample_render``: every op runs once and its
  workload digest is compared.

The decks are built by each checkout's own workloads, and a cli deck calls
the library under test to pick its ``verify`` arguments, so two commits can
build different decks from one seed: a differing deck fingerprint is
reported as deck drift.  Prints each deck's fingerprint, every differing
op and the ``src/ifsbound`` line counts of both checkouts, per module and in
total (source lines are tracked next to timings); exits 1 on any difference,
0 when there is none.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
WORKLOADS = ("cli", "refine", "line_query", "sample_render")


def _sha(data) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def _cli_op(lib, op, workdir: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.main(op.inputs["argv"])
    svg = Path(op.inputs["out"]).read_text() if op.inputs["out"] and code == 0 else ""
    return {
        "label": " ".join(op.params["argv"]),
        "code": code,
        # each checkout writes its deck to its own directory
        "stdout": _sha(out.getvalue().replace(workdir, "<workdir>")),
        "stderr": _sha(err.getvalue().replace(workdir, "<workdir>")),
        "svg": _sha(svg),
    }


def collect(checkout: Path, seeds, names) -> dict:
    """Fingerprint and per-op outputs of every deck, run in this process
    with ``checkout``'s workloads and library."""
    sys.path.insert(0, str(checkout / "bench"))
    import workloads as W

    lib = W.import_library()
    import ifsbound.cli  # noqa: F401  (lib.cli serves the in-process cli ops)

    decks = {}
    with tempfile.TemporaryDirectory(prefix="ifsbound-parity-") as tmp:
        for name in names:
            wl = W.WORKLOADS[name]
            for seed in seeds:
                workdir = Path(tmp) / f"{name}-{seed}"
                deck = wl.build(lib, seed, workdir)
                if name == "cli":
                    ops = [_cli_op(lib, op, str(workdir)) for op in deck]
                else:
                    ops = [{"label": op.kind, "digest": _sha(wl.digest(wl.run(lib, op)))} for op in deck]
                decks[f"{name} seed {seed}"] = {"fingerprint": W.deck_fingerprint(deck), "ops": ops}
    return decks


def source_lines(checkout: Path) -> dict:
    """Lines of each ``src/ifsbound/*.py`` in ``checkout``, as ``wc -l`` counts them."""
    return {p.name: p.read_bytes().count(b"\n") for p in (checkout / "src" / "ifsbound").glob("*.py")}


def run_checkout(checkout: Path, seeds, names) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    argv = [sys.executable, str(Path(__file__).resolve()), "--collect", str(checkout),
            "--seeds", ",".join(map(str, seeds)), "--workloads", ",".join(names)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def compare(this: dict, other: dict) -> int:
    """Print the comparison; return the number of differences."""
    differences = 0
    for key, a in this.items():
        b = other[key]
        print(f"{key}: fingerprint {a['fingerprint'][:16]} here, {b['fingerprint'][:16]} there")
        if a["fingerprint"] != b["fingerprint"]:
            print("  deck drift: the two checkouts built different decks")
            differences += 1
        if len(a["ops"]) != len(b["ops"]):
            print(f"  {len(a['ops'])} ops here, {len(b['ops'])} there")
            differences += 1
        differing = 0
        for i, (x, y) in enumerate(zip(a["ops"], b["ops"])):
            fields = [k for k in x if k != "label" and x[k] != y[k]]
            if fields:
                print(f"  op {i} ({x['label']}): differs in {', '.join(fields)}")
                differing += 1
        print(f"  {min(len(a['ops']), len(b['ops']))} ops compared, {differing} differ")
        differences += differing
    return differences


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", nargs="?", type=Path, help="the checkout to compare against")
    parser.add_argument("--seeds", default="1,3,4", help="comma-separated deck seeds")
    parser.add_argument("--workloads", default=",".join(WORKLOADS), help="comma-separated workloads")
    parser.add_argument("--collect", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    names = args.workloads.split(",")
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workloads: {', '.join(unknown)}")
    if args.collect is not None:
        json.dump(collect(args.collect.resolve(), seeds, names), sys.stdout)
        return 0
    if args.other is None:
        parser.error("OTHER_CHECKOUT is required")
    this = run_checkout(HERE, seeds, names)
    other = run_checkout(args.other.resolve(), seeds, names)
    differences = compare(this, other)
    here, there = source_lines(HERE), source_lines(args.other.resolve())
    for name in sorted(here.keys() | there.keys()):
        print(f"  {name}: {here.get(name, 0)} lines here, {there.get(name, 0)} there")
    print(f"src/ifsbound: {sum(here.values())} lines here, {sum(there.values())} there")
    ops = sum(len(deck["ops"]) for deck in this.values())
    print(f"{len(this)} decks, {ops} ops here: {differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
