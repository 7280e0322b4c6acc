#!/usr/bin/env python3
"""Run the full claim suite over the built-in corpus and write reports.

Writes both the text and JSON renderings (canonical, timing-free) plus a
timed text report for profiling, into an output directory.
"""

import argparse
import sys
from pathlib import Path

from blstate.corpus import default_corpus, load_corpus_dir
from blstate.suite import render_json, render_text, run_suite


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--corpus", help="directory of .json documents")
    args = parser.parse_args(argv)

    corpus = load_corpus_dir(args.corpus) if args.corpus else default_corpus()
    report = run_suite(corpus)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "suite.txt").write_text(render_text(report), encoding="utf-8")
    (out / "suite.json").write_text(render_json(report), encoding="utf-8")
    (out / "suite_timed.txt").write_text(
        render_text(report, timings=True), encoding="utf-8"
    )
    print(f"{len(report.records)} records -> {out}/suite.txt, suite.json")
    failures = report.failures
    if failures:
        for r in failures:
            print(f"FAIL {r.claim_id} @ {r.instance}: {r.witness}")
        return 1
    print("all claims pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
