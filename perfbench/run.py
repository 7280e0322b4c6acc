"""The blstate benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout (it imports ``blstate`` from
``src``).  Workloads, all closed-loop with one caller:

* ``paper-suite`` - the default corpus through ``default_corpus`` ->
  ``run_suite`` -> ``render_json`` (keep-going), as the CLI runs it.
* ``enum-ladder`` - ``enumerate_operator_tables`` for the ``state`` and
  ``endomorphism`` classes on g3xg4, mv2xmv2xmv1, s4xs4 and g3xg3xg3.
* ``user-corpus`` - seeded documents (``corpus_gen.py``), each parsed,
  sealed, graded and certified by a one-instance suite run.

Every pass runs in a fresh process (``worker.py``), so each starts with
cold caches as a user's command does.  All passes of a run get the same
inputs; they repeat until ``--seconds`` have gone by, after a few
set-up-only processes.  Outputs are checked against ``expected/``
(captured by ``capture.py``): ``failed`` counts the operations - suite
records, ladder rungs or documents - whose output differs.

Times are in seconds at a reference machine speed (see "Speed scale"
in ``worker.py``): the machine is shared and its speed drifts by tens
of percent within a minute, so every timed segment is scaled by a
calibration loop run right next to it.  ``run_s`` and ``cpu_s`` sum
the segments' medians over the passes, a record's latency is its median
over the passes, and ``setup_s`` is the median over every set-up
process of the run.  The unscaled times are printed above the result.

With ``--trace 0`` the last stdout line holds the end-to-end metrics;
with ``--trace 1`` passes alternate untraced and traced, and it holds
the per-layer metrics listed in ``layers.json``, which also maps each
to the end-to-end metric it should move.  Traces are written under
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("paper-suite", "enum-ladder", "user-corpus")
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "cpu_s": "s",
    "record_p50_s": "s",
    "record_p99_s": "s",
    "peak_rss_mb": "MB",
}
# a run must end within 180 s: no pass starts that would likely cross this
RUN_LIMIT_S = 150.0
# set-up-only processes per run, on top of each timed pass's own set-up
SETUP_PROBES = 5


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def layer_metrics() -> dict[str, str]:
    spec = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def run_pass(root: Path, spec: dict, timeout: float) -> dict:
    spec = dict(spec, spawned_at=monotonic())
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"pass {spec['index']} exited with code {proc.returncode}")
    return dict(json.loads(proc.stdout.strip().splitlines()[-1]), traced=spec["trace"])


def prepare(workload: str, seed: str, out: Path) -> dict:
    """Inputs that are made outside the timed process, once per run."""
    if workload != "user-corpus":
        return {}
    from corpus_gen import write_corpus

    if out.exists():
        shutil.rmtree(out)
    return {"documents": [(vid, str(path)) for vid, path in write_corpus(seed, out)]}


def pass_scale(p: dict) -> float:
    return statistics.median(seg["scale"] for seg in p["segments"])


def medians_by_key(pairs) -> dict[str, float]:
    values: dict[str, list[float]] = {}
    for key, value in pairs:
        values.setdefault(key, []).append(value)
    return {key: statistics.median(v) for key, v in values.items()}


def end_to_end(passes: list[dict], probes: list[dict]) -> dict[str, float]:
    """End-to-end metrics of one run, segment by segment, in scaled seconds.

    Every pass of a run has the same inputs, so each segment (the suite
    run, a ladder rung or a document) is timed once per pass.  ``run_s``
    and ``cpu_s`` sum the segments' medians over the passes; a record's
    latency is its median over the passes.
    """
    segments = [seg for p in passes for seg in p["segments"]]
    wall = medians_by_key((s["key"], s["wall"] * s["scale"]) for s in segments)
    cpu = medians_by_key((s["key"], s["cpu"] * s["scale"]) for s in segments)
    latencies = list(medians_by_key(kv for p in passes for kv in p["records"].items()).values())
    return {
        "setup_s": statistics.median(p["setup_s"] * p["setup_scale"] for p in probes + passes),
        "run_s": sum(wall.values()),
        "cpu_s": sum(cpu.values()),
        "record_p50_s": statistics.median(latencies),
        "record_p99_s": statistics.quantiles(latencies, n=100, method="inclusive")[98],
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def raw_wall(p: dict) -> float:
    return sum(seg["wall"] for seg in p["segments"])


def layer_value(name: str, unit: str, plain: list[dict], traced: list[dict]) -> float:
    """One per-layer metric: its median over the traced passes.

    The tracer's own objects slow the calibration loop of a traced
    pass, so its seconds are scaled by the untraced passes' median scale.
    """
    if name == "trace.overhead_ratio":
        return statistics.median(map(raw_wall, traced)) / statistics.median(map(raw_wall, plain))
    if name == "ops.fail_ratio":
        everything = plain + traced
        return sum(p["op_failures"] for p in everything) / sum(p["attempted"] for p in everything)
    scale = statistics.median(map(pass_scale, plain))
    if name.startswith("operators.enum."):
        rung, stat = name[len("operators.enum."):].rsplit("_", 1)
        values = [p.get("rungs", {}).get(rung, [0.0, 0])[0 if stat == "s" else 1] for p in traced]
    elif name.startswith("suite.claim."):
        claim = name[len("suite.claim."):].removesuffix("_s")
        values = [p.get("claims", {}).get(claim, 0.0) for p in traced]
    else:
        function, stat = name.rsplit(".", 1)
        if stat == "per_s":
            # calls per second of inclusive time; 1/s scales inversely
            spans = [p["layers"].get(function, {"calls": 0, "incl_s": 0.0}) for p in traced]
            rates = [s["calls"] / s["incl_s"] if s["incl_s"] else 0.0 for s in spans]
            return statistics.median(rates) / scale
        values = [p["layers"].get(function, {}).get(stat, 0.0) for p in traced]
    median = statistics.median(values)
    return median * scale if unit == "s" else median


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "blstate" / "__init__.py").is_file():
        print("no blstate sources under ./src: run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    out = root / ".bench_out"
    out.mkdir(exist_ok=True)

    spec = {
        "root": str(root),
        "workload": args.workload,
        "seed": str(args.seed),
        "trace": False,
        "setup_only": True,
        **prepare(args.workload, str(args.seed), out / args.workload),
    }
    start = monotonic()
    try:
        probes = [run_pass(root, dict(spec, index=-1 - i), timeout=60) for i in range(SETUP_PROBES)]
        passes: list[dict] = []
        while True:
            k = len(passes)
            began = monotonic()
            timeout = max(RUN_LIMIT_S - (began - start), 30.0)
            traced = bool(args.trace) and k % 2 == 1
            passes.append(
                run_pass(root, dict(spec, setup_only=False, trace=traced, index=k), timeout)
            )
            now = monotonic()
            enough = now - start >= args.seconds and (not args.trace or len(passes) >= 2)
            if enough or now - start + (now - began) > RUN_LIMIT_S:
                break
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if args.trace:
        units = layer_metrics()
        values = {name: layer_value(name, unit, plain, traced) for name, unit in units.items()}
    else:
        units = END_TO_END
        values = end_to_end(plain, probes)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    op_failures = sum(p["op_failures"] for p in passes)
    samples = len(set().union(*(p["records"] for p in plain))) if plain else 0

    for k, p in enumerate(passes):
        for note in p["notes"]:
            print(f"mismatch (pass {k}): {note}")
    print(
        f"# {args.workload} seed={args.seed}: {len(plain)} untraced + {len(traced)} traced "
        f"passes, {samples} latency samples (each a median over the untraced passes), "
        f"{len(probes) + len(plain)} set-ups, {attempted} operations, {failed} differ from "
        f"expected, {op_failures} raised, failed or differ (ratio {op_failures / attempted:.4f})"
    )
    print(
        "# per pass, unscaled wall s / scale: "
        + " ".join(
            f"{raw_wall(p):.3f}/{pass_scale(p):.3f}"
            + ("t" if p["traced"] else "")
            for p in passes
        )
    )
    for name, value in values.items():
        print(f"{name:48s} {value:.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
