"""Capture the expected outputs that every benchmark run checks against.

    python3 perfbench/capture.py

Run from the repository root, on the code whose outputs are the
reference; it rewrites ``perfbench/expected/``:

* ``paper-suite.json`` - the canonical keep-going JSON suite report of
  the default corpus, byte for byte;
* ``enum-ladder.json`` - per rung and class, the table count and a
  digest of the table list;
* ``user-corpus.json`` - per catalog variant (and the one-element
  document), its outcome: digests of its suite report and canonical
  document, or the type of the exception it raises.  Every omission
  form of a variant must give the same outcome.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import worker


def capture_paper_suite(bl) -> str:
    report = bl["suite"].run_suite(bl["corpus"].default_corpus(), workers=1)
    return bl["suite"].render_json(report, keep_going=True)


def capture_enum_ladder(bl) -> dict:
    from corpus_gen import product

    enumerate_tables = bl["operators"].enumerate_operator_tables
    out = {}
    for rung, factors in worker.LADDER.items():
        algebra = product(factors)
        out[rung] = {
            cls: worker.ladder_outcome(enumerate_tables(algebra, cls, workers=1))
            for cls in worker.LADDER_CLASSES
        }
    return out


def capture_user_corpus(bl, workdir: Path) -> dict:
    import corpus_gen as G

    texts = {G.ONE_ELEMENT: [G.ONE_ELEMENT_TEXT]}
    for slot, variants in G.slots().items():
        forms = [(False, False), (True, False)]
        if G.lattice_omittable(slot):
            forms.append((True, True))
        for vid, make in variants.items():
            algebra, operators = make()
            texts[vid] = [G.document_text(algebra, operators, *form) for form in forms]
    out = {}
    for vid, forms in sorted(texts.items()):
        outcomes = []
        for i, text in enumerate(forms):
            doc_dir = workdir / f"{vid}-{i}"
            doc_dir.mkdir()
            (doc_dir / f"{vid}.json").write_text(text, encoding="utf-8")
            outcomes.append(worker.document_outcome(worker.run_document(bl, doc_dir)))
        if any(o != outcomes[0] for o in outcomes):
            raise SystemExit(f"{vid}: omission forms disagree: {outcomes}")
        out[vid] = outcomes[0]
        print(vid, outcomes[0], flush=True)
    return out


def main() -> int:
    root = Path.cwd()
    _, bl = worker.load_blstate(root)
    worker.EXPECTED.mkdir(exist_ok=True)
    (worker.EXPECTED / "paper-suite.json").write_text(capture_paper_suite(bl), encoding="utf-8")
    (root / ".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=root / ".bench_out") as workdir:
        users = capture_user_corpus(bl, Path(workdir))
    for name, payload in (("enum-ladder", capture_enum_ladder(bl)), ("user-corpus", users)):
        text = json.dumps(payload, indent=1, sort_keys=True) + "\n"
        (worker.EXPECTED / f"{name}.json").write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
