"""One timed pass of a benchmark workload, in a fresh process.

``run.py`` starts this script once per pass, from the root of a
checkout, with one JSON argument (workload, seed, pass index, trace and
set-up-only flags, spawn time and, for ``user-corpus``, the document
directories).  It prints one JSON line: set-up time, the timed
segments, peak memory, per-record latencies, the outcome check against
``expected/`` and, in a traced pass, the per-layer figures.  A
set-up-only pass stops once its inputs are ready.

A fresh process per pass means every pass starts with cold caches, as
``blstate paper-suite`` does for its users.  Passes use ``workers=1``;
this script starts no threads and no processes.

Speed scale.  The machine is shared, and its speed drifts by tens of
percent within a minute.  A segment is a timed call (the whole suite
run, one ladder rung, one document); a short fixed calibration loop
runs just before it, every ``SAMPLE_EVERY_S`` during it (its time is
taken off the call's) and just after it.  The segment's ``scale`` is
``REFERENCE_CALIBRATION_S`` over the median of those loop times.
Multiplied by it, a segment's times read as seconds at the reference
speed: a change to the program moves them, the machine's load mostly
does not.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import pkgutil
import random
import resource
import signal
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected"

# about the time of _calibration_loop on the machine the benchmark was
# defined on (2 vCPUs, Python 3.11.7) while it was quiet, so that scaled
# seconds read close to the seconds of a quiet run there
REFERENCE_CALIBRATION_S = 0.008
CALIBRATION_REPS = 3
SAMPLE_EVERY_S = 0.5

LADDER = {
    "g3xg4": ("g3", "g4"),
    "mv2xmv2xmv1": ("mv2", "mv2", "mv1"),
    "s4xs4": ("mv4", "mv4"),
    "g3xg3xg3": ("g3", "g3", "g3"),
}
LADDER_CLASSES = ("state", "endomorphism")
# the claims whose summed record time is reported per layer
CLAIMS = (
    "Thm-6.4", "Cor-6.5", "Prop-6.2", "Prop-6.1", "Thm-2.5", "Prop-5.4", "Rem-2.15", "Prop-2.13",
)


def monotonic() -> float:
    """System-wide clock, comparable between the parent and this process."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


_CALIBRATION_DATA: list = []


def _calibration_loop() -> int:
    """Fixed pure-Python work in blstate's style: table walks, small tuples
    as dict keys, nested calls, over a working set of about a megabyte."""
    if not _CALIBRATION_DATA:
        table = tuple(tuple((i * j + 1) % 61 for j in range(61)) for i in range(61))
        items = [tuple(range(i % 5, i % 5 + 3 + i % 3)) for i in range(20000)]
        _CALIBRATION_DATA.extend((table, items))
    table, items = _CALIBRATION_DATA

    def step(x: int, i: int) -> int:
        return table[x][i % 61]

    seen: dict[tuple, int] = {}
    x = 0
    for i in range(25000):
        x = step(x, i)
        key = items[(i * 7919) % 20000]
        seen[key] = seen.get(key, 0) + x
    return x + len(seen)


def calibrate(reps: int = CALIBRATION_REPS) -> list[float]:
    """Times of the calibration loop: how fast the machine runs right now."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        _calibration_loop()
        times.append(time.perf_counter() - start)
    return times


def scale_of(calibration: list[float]) -> float:
    return REFERENCE_CALIBRATION_S / statistics.median(calibration)


class Sampler:
    """Times the calibration loop every ``SAMPLE_EVERY_S`` while a call runs.

    A SIGALRM handler runs the loop between two bytecodes of the call;
    ``spent`` is the time the samples took, to be taken off the call's.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        self.samples += calibrate(1)
        self.spent += self.samples[-1]

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def timed(segments: list, key: str, fn, *args):
    """Call ``fn``, appending its segment (wall, CPU, scale); returns its result."""
    before = calibrate()
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    with Sampler() as sampler:
        result = fn(*args)
    wall = time.perf_counter() - start - sampler.spent
    cpu = cpu_seconds() - cpu0 - sampler.spent
    scale = scale_of(before + sampler.samples + calibrate())
    segments.append({"key": key, "wall": wall, "cpu": cpu, "scale": scale})
    return result


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_blstate(root: Path):
    """Import every ``blstate`` module from the checkout's ``src``."""
    sys.path.insert(0, str(root / "src"))
    package = importlib.import_module("blstate")
    modules = {
        info.name: importlib.import_module(f"blstate.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
    }
    return package, modules


# ---------------------------------------------------------------------------
# outcome checks against the captured expectations


def compare_suite_report(text: str, expected_text: str) -> tuple[int, list, list[str]]:
    """(attempted, differing keys, notes) for a canonical JSON suite report.

    Each (claim, instance) record is one operation; a record that is
    missing, extra or different is a failure.  When every record agrees
    but the bytes differ, the report as a whole counts as one failure.
    """
    def records(raw: str) -> dict:
        return {(r["claim"], r["instance"]): r for r in json.loads(raw)["records"]}

    got, want = records(text), records(expected_text)
    keys = sorted(set(got) | set(want))
    bad = [k for k in keys if got.get(k) != want.get(k)]
    notes = [f"record {k[0]} @ {k[1]}: got {got.get(k)} want {want.get(k)}" for k in bad[:5]]
    if not bad and text != expected_text:
        bad = [("<report bytes>", "")]
        notes.append("report bytes differ from the captured report")
    return len(keys), bad, notes


def run_document(bl, doc_dir: Path):
    """Load, seal, grade and certify one user document; an exception is its result."""
    corpus, suite, document = bl["corpus"], bl["suite"], bl["document"]
    try:
        instances = corpus.load_corpus_dir(doc_dir)
        report = suite.run_suite(instances, workers=1)
        text = suite.render_json(report, keep_going=True)
        inst = instances[0]
        tables = {name: op.table for name, op in {**inst.operators, **inst.rejected}.items()}
        canonical = document.serialize_algebra(document.document_from_algebra(inst.algebra, tables))
    except Exception as exc:  # a raised error is this document's outcome
        return exc
    return report, text, canonical


def document_outcome(result) -> dict:
    if isinstance(result, Exception):
        return {"outcome": "raised", "exception": type(result).__name__}
    report, text, canonical = result
    return {
        "outcome": "ok",
        "records": len(report.records),
        "report_sha256": sha256(text),
        "document_sha256": sha256(canonical),
    }


def ladder_outcome(result) -> dict:
    if isinstance(result, Exception):
        return {"outcome": "raised", "exception": type(result).__name__}
    return {"tables": len(result), "sha256": sha256(json.dumps([list(t) for t in result]))}


def load_expected(workload: str):
    text = (EXPECTED / f"{workload}.json").read_text(encoding="utf-8")
    return text if workload == "paper-suite" else json.loads(text)


def claim_seconds(records) -> dict[str, float]:
    return {c: sum(r.elapsed for r in records if r.claim_id == c) for c in CLAIMS}


# ---------------------------------------------------------------------------
# workloads: set-up (timed from process start), run (timed segments) and
# check (untimed: attempted / failed, the scaled latency samples)


def setup_paper_suite(bl, spec):
    corpus = list(bl["corpus"].default_corpus())
    # records are sorted by (claim, instance), so the order changes no output
    random.Random(f"paper-suite:{spec['seed']}").shuffle(corpus)
    return corpus


def suite_report(bl, corpus):
    try:
        report = bl["suite"].run_suite(corpus, workers=1)
        return report, bl["suite"].render_json(report, keep_going=True)
    except Exception as exc:
        return exc


def run_paper_suite(bl, corpus, tracer, segments):
    return timed(segments, "suite", suite_report, bl, corpus)


def check_paper_suite(bl, result, expected, out):
    if isinstance(result, Exception):
        out["attempted"] = out["failed"] = len(json.loads(expected)["records"])
        out["op_failures"] = out["attempted"]
        out["notes"] = [f"suite raised {type(result).__name__}: {result}"]
        return
    report, text = result
    scale = out["segments"][0]["scale"]
    out["attempted"], bad, out["notes"] = compare_suite_report(text, expected)
    out["failed"] = len(bad)
    fail = bl["suite"].FAIL
    fail_verdicts = {(r.claim_id, r.instance) for r in report.records if r.verdict == fail}
    out["op_failures"] = len(fail_verdicts | set(bad))
    out["records"] = {f"{r.claim_id}|{r.instance}": r.elapsed * scale for r in report.records}
    out["claims"] = claim_seconds(report.records)


def setup_enum_ladder(bl, spec):
    ops = [(rung, cls) for rung in LADDER for cls in LADDER_CLASSES]
    random.Random(f"enum-ladder:{spec['seed']}").shuffle(ops)
    from corpus_gen import product

    carriers = {rung: product(factors) for rung, factors in LADDER.items()}
    return [(rung, cls, carriers[rung]) for rung, cls in ops]


def enumerate_rung(bl, algebra, cls, span):
    try:
        with span:
            return bl["operators"].enumerate_operator_tables(algebra, cls, workers=1)
    except Exception as exc:
        return exc


def run_enum_ladder(bl, ops, tracer, segments):
    results = []
    for rung, cls, algebra in ops:
        span = tracer.span(f"operators.enum.{rung}.{cls}") if tracer else nullcontext()
        results.append(timed(segments, f"{rung}.{cls}", enumerate_rung, bl, algebra, cls, span))
    return results


def check_enum_ladder(bl, results, expected, out):
    out["attempted"], out["failed"], out["op_failures"] = len(results), 0, 0
    out["notes"], out["rungs"] = [], {}
    for tables, segment in zip(results, out["segments"]):
        rung, cls = segment["key"].split(".")
        outcome = ladder_outcome(tables)
        differs = outcome != expected[rung][cls]
        if differs:
            out["notes"].append(f"rung {rung} {cls}: got {outcome} want {expected[rung][cls]}")
        out["failed"] += differs
        out["op_failures"] += differs or isinstance(tables, Exception)
        out["records"][segment["key"]] = segment["wall"] * segment["scale"]
        out["rungs"][segment["key"]] = [segment["wall"], outcome.get("tables", 0)]


def setup_user_corpus(bl, spec):
    return [(vid, Path(path)) for vid, path in spec["documents"]]


def run_user_corpus(bl, docs, tracer, segments):
    return [timed(segments, vid, run_document, bl, doc_dir) for vid, doc_dir in docs]


def check_user_corpus(bl, results, expected, out):
    failures = 0
    out["notes"] = []
    out["claims"] = dict.fromkeys(CLAIMS, 0.0)
    for result, segment in zip(results, out["segments"]):
        vid = segment["key"]
        outcome = document_outcome(result)
        differs = outcome != expected.get(vid)
        if differs:
            out["notes"].append(f"document {vid}: got {outcome} want {expected.get(vid)}")
        if isinstance(result, Exception):
            failures += 1
            continue
        records, scale = result[0].records, segment["scale"]
        out["records"].update((f"{vid}|{r.claim_id}", r.elapsed * scale) for r in records)
        for c, seconds in claim_seconds(records).items():
            out["claims"][c] += seconds
        failures += differs or any(r.verdict == bl["suite"].FAIL for r in records)
    out["attempted"], out["failed"], out["op_failures"] = len(results), len(out["notes"]), failures


WORKLOADS = {
    "paper-suite": (setup_paper_suite, run_paper_suite, check_paper_suite),
    "enum-ladder": (setup_enum_ladder, run_enum_ladder, check_enum_ladder),
    "user-corpus": (setup_user_corpus, run_user_corpus, check_user_corpus),
}


def main(spec: dict) -> dict:
    root = Path(spec["root"])
    setup, run, check = WORKLOADS[spec["workload"]]
    package, bl = load_blstate(root)
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install([package, *bl.values()])
    segments: list[dict] = []
    try:
        inputs = setup(bl, spec)
        setup_s = monotonic() - spec["spawned_at"]
        setup_scale = scale_of(calibrate(5))
        if spec["setup_only"]:
            return {"setup_s": setup_s, "setup_scale": setup_scale}
        result = run(bl, inputs, tracer, segments)
    finally:
        if tracer is not None:
            tracer.uninstall()
    out = {
        "setup_s": setup_s,
        "setup_scale": setup_scale,
        "segments": segments,
        "peak_rss_mb": peak_rss_mb(),
        "records": {},
    }
    check(bl, result, load_expected(spec["workload"]), out)
    if tracer is not None:
        out["layers"] = tracer.summary()
        tracer.write(root / ".bench_out" / f"trace-{spec['workload']}-{spec['index']}.json.gz")
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
