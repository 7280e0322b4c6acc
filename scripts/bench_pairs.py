#!/usr/bin/env python3
"""Compare two checkouts with the blstate benchmark, in alternating pairs.

    python3 scripts/bench_pairs.py PARENT CHANGE --seeds 1 2 3 [--trace-seed N]
        [--out BENCH_x.json]

PARENT and CHANGE are the roots of two checkouts.  The workloads and the
run length are those that CHANGE's ``BENCHMARK.json`` declares.  For
each workload and seed the script runs ``perfbench/run.py`` (each
checkout's own copy, unchanged) once in each checkout, and alternates
which side goes first: the change first on the first seed, the parent
first on the next, and so on.  Before every run it deletes that
checkout's ``src/blstate/__pycache__``, so neither side reads bytecode
that the other side's runs did not compile (``setup_s`` is mostly
compiling the sources when bytecode is not written).

The summary per workload and end-to-end metric holds each side's q1,
median and q3 over the seeds, the number of pairs where the change is
better (every metric is lower-is-better) and the change of the median
in percent.  With ``--trace-seed N``, each checkout then makes one
``--trace 1`` run per workload on seed N, and every per-layer metric of
its last line is recorded under ``"layers"`` with the parent's value,
the change's value and the change in percent.  The tier-1 tests (``pytest --durations=5``) then run once
in each checkout, and their wall time, summary line and five slowest
tests are recorded.  Last, one child process per checkout enumerates
the state and endomorphism operators of each rung of the enum-ladder
(built with ``blstate.constructors``) and prints the search's
``(nodes, leaves, rejected, tried, orbits)``; both sides' counts are
recorded under ``"work_counts"`` with whether they are equal, so a
speed claim shows whether the work changed as well as the time.  The
report goes to ``--out``, or to stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

METRICS = ("setup_s", "run_s", "cpu_s", "record_p50_s", "record_p99_s", "peak_rss_mb")
SIDES = ("parent", "change")

# the enum-ladder of perfbench: each rung's chain factors and the classes
# it enumerates; the child reads only names every checkout has
COUNTS_PROGRAM = """
import json
from blstate.constructors import direct_product, godel_chain, mv_chain
from blstate.operators import EnumerationStats, enumerate_operator_tables

ladder = {
    "g3xg4": (godel_chain(3), godel_chain(4)),
    "mv2xmv2xmv1": (mv_chain(2), mv_chain(2), mv_chain(1)),
    "s4xs4": (mv_chain(4), mv_chain(4)),
    "g3xg3xg3": (godel_chain(3),) * 3,
}
counts = {}
for rung, factors in ladder.items():
    algebra = direct_product(*factors)
    for cls in ("state", "endomorphism"):
        stats = EnumerationStats()
        enumerate_operator_tables(algebra, cls, stats=stats)
        counts[f"{rung}.{cls}"] = [stats.nodes, stats.leaves, stats.rejected, stats.tried,
                                   stats.orbits]
print(json.dumps(counts))
"""


def clear_bytecode(root: Path) -> None:
    shutil.rmtree(root / "src" / "blstate" / "__pycache__", ignore_errors=True)


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: bool = False) -> dict:
    """One ``perfbench/run.py`` run; its last stdout line as a dict.

    An untraced run keeps the end-to-end metrics, a traced run every
    per-layer metric.
    """
    clear_bytecode(root)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=root, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise RuntimeError(f"{root}: perfbench exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    names = result["metrics"] if trace else METRICS
    return {
        "failed": result["failed"],
        "attempted": result["attempted"],
        "metrics": {name: result["metrics"][name]["value"] for name in names},
    }


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(pairs: list[dict]) -> dict:
    """Per metric: both sides' quartiles, better-pair counts and the median change."""
    out = {}
    for name in METRICS:
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        q_parent, q_change = quartiles(parent), quartiles(change)
        out[name] = {
            "parent": q_parent,
            "change": q_change,
            "change_better_pairs": sum(c < p for p, c in zip(parent, change)),
            "ties": sum(c == p for p, c in zip(parent, change)),
            "pairs": len(pairs),
            "median_change_pct": round(100 * (q_change["median"] / q_parent["median"] - 1), 2),
            "median_gap": q_parent["median"] - q_change["median"],
            "parent_q1_q3_spread": q_parent["q3"] - q_parent["q1"],
        }
    return out


def compare_layers(parent: dict[str, float], change: dict[str, float]) -> dict:
    """Per layer metric: both sides' values and the change in percent.

    A metric missing on one side is None there; the percentage is None
    when either value is missing or the parent's is 0.
    """
    out = {}
    for name in sorted(parent.keys() | change.keys()):
        p, c = parent.get(name), change.get(name)
        pct = None if p is None or c is None or p == 0 else round(100 * (c / p - 1), 2)
        out[name] = {"parent": p, "change": c, "change_pct": pct}
    return out


def trace_workload(roots: dict[str, Path], workload: str, seed: int, seconds: float) -> dict:
    """One traced run per side; the parent runs first."""
    runs = {side: run_once(roots[side], workload, seed, seconds, trace=True) for side in SIDES}
    return {
        "seed": seed,
        "failed_operations": {side: runs[side]["failed"] for side in SIDES},
        "metrics": compare_layers(runs["parent"]["metrics"], runs["change"]["metrics"]),
    }


_DURATION = re.compile(r"^\s*(\d+(?:\.\d+)?)s\s+(call|setup|teardown)\s+(\S+)")


def slowest_tests(pytest_output: str) -> list[dict]:
    """The entries of pytest's ``--durations`` block, slowest first."""
    return [
        {"seconds": float(m.group(1)), "phase": m.group(2), "test": m.group(3)}
        for m in map(_DURATION.match, pytest_output.splitlines())
        if m
    ]


def run_tier1(root: Path) -> dict:
    clear_bytecode(root)
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    began = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--durations=5"],
        cwd=root, env=env, capture_output=True, text=True, check=False,
    )
    wall = time.monotonic() - began
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    return {
        "wall_s": round(wall, 2),
        "exit_code": proc.returncode,
        "summary": lines[-1] if lines else "",
        "slowest": slowest_tests(proc.stdout),
    }


def work_counts(root: Path) -> dict[str, list[int]]:
    """The enumerator's counts per enum-ladder rung and class, from a child
    process that imports the checkout's own ``src``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", COUNTS_PROGRAM], cwd=root, env=env,
                          capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise RuntimeError(f"{root}: the count run exited with code {proc.returncode}")
    return json.loads(proc.stdout)


def compare_counts(roots: dict[str, Path]) -> dict:
    """Both sides' ``work_counts`` and whether they are equal."""
    counts = {side: work_counts(root) for side, root in roots.items()}
    return {"fields": ["nodes", "leaves", "rejected", "tried", "orbits"], **counts,
            "equal": counts["parent"] == counts["change"]}


def describe(root: Path) -> str:
    """The checkout's commit, and a sha256 of its ``src/blstate/*.py``
    (names and contents, in name order), which also names a tree
    without ``.git``, such as a ``git archive`` copy."""
    def git(*args):
        proc = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True)
        return proc.stdout.strip()

    digest = hashlib.sha256()
    for path in sorted((root / "src" / "blstate").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    dirty = " with uncommitted changes" if git("status", "--porcelain", "--", "src") else ""
    commit = git("rev-parse", "--short", "HEAD") or "unknown"
    return f"commit {commit}{dirty}, src/blstate sha256 {digest.hexdigest()[:16]}"


def run_workload(roots: dict[str, Path], workload: str, seeds: list[int], seconds: float) -> dict:
    """Alternating pairs of runs of one workload, one pair per seed."""
    pairs = []
    for i, seed in enumerate(seeds):
        order = SIDES[::-1] if i % 2 == 0 else SIDES
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(roots[side], workload, seed, seconds)
        pairs.append(pair)
        run_s = {side: pair[side]["metrics"]["run_s"] for side in SIDES}
        print(f"{workload} seed {seed} ({order[0]} first): run_s parent "
              f"{run_s['parent']:.4f} change {run_s['change']:.4f}", file=sys.stderr, flush=True)
    return {
        "seeds": seeds,
        "failed_operations": {s: sum(p[s]["failed"] for p in pairs) for s in SIDES},
        "attempted_operations": {s: sum(p[s]["attempted"] for p in pairs) for s in SIDES},
        "summary": summarize(pairs),
        "pairs": pairs,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seeds", required=True, type=int, nargs="+")
    parser.add_argument("--trace-seed", type=int,
                        help="after the pairs, one traced run per side and workload on this seed")
    parser.add_argument("--out", type=Path, help="the BENCH_*.json to write")
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, root in roots.items():
        if not (root / "perfbench" / "run.py").is_file():
            print(f"{side}: no perfbench/run.py under {root}", file=sys.stderr)
            return 2
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]

    report = {
        "command": f"python3 perfbench/run.py --workload W --seed N --seconds {seconds:g} --trace 0",
        "order": "alternating pairs: the change runs first on the first seed, "
                 "the parent on the next, and so on; each checkout's "
                 "src/blstate/__pycache__ is deleted before each of its runs",
        "machine": f"{os.cpu_count()}-core {platform.machine()}, Python {platform.python_version()}",
        "parent": describe(roots["parent"]),
        "change": describe(roots["change"]),
    }
    for workload in spec["workloads"]:
        report[workload["name"]] = run_workload(roots, workload["name"], args.seeds, seconds)
    if args.trace_seed is not None:
        report["trace_command"] = report["command"].replace("--trace 0", "--trace 1")
        report["layers"] = {
            w["name"]: trace_workload(roots, w["name"], args.trace_seed, seconds)
            for w in spec["workloads"]
        }
    report["tier1"] = {side: run_tier1(root) for side, root in roots.items()}
    report["work_counts"] = compare_counts(roots)
    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        args.out.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    runs = [report[w["name"]] for w in spec["workloads"]] + list(report.get("layers", {}).values())
    failed = sum(sum(run["failed_operations"].values()) for run in runs)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
