"""Command-line surface.

Exit codes: 0 all checks pass, 1 a check failed (witness printed),
2 usage or parse error.  Output is deterministic: stable orderings and
exact rationals printed as p/q.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from .algebra import BLAxiomError, classify_variety
from .constructors import (
    NonLinearSummandError,
    direct_product,
    four_element_example,
    godel_chain,
    mv_chain,
    ordinal_sum,
)
from .corpus import default_corpus, load_corpus_dir
from .document import (
    ParseError,
    ValidationError,
    document_from_algebra,
    parse_algebra,
    realize_algebra,
    realize_document,
    serialize_algebra,
)
from .filters import all_filters, classify_algebra, maximal_filters, radical
from .operators import (
    EnumerationStats,
    classify_state_algebra,
    enumerate_operator_tables,
    kernel_and_faithfulness,
    verify_operator,
)
from .states import extremal_states, format_fraction, sigma_compatible_correspondence
from .suite import CLAIM_IDS, render_json, render_text, run_suite

_BUILTIN = re.compile(r"^(mv_chain|godel_chain)\((\d+)\)$")


def _load(source: str):
    """Resolve a FILE argument: builtin spec or path to a document.

    Returns (algebra, operators dict).
    """
    m = _BUILTIN.match(source)
    if m:
        kind, n = m.group(1), int(m.group(2))
        algebra = mv_chain(n) if kind == "mv_chain" else godel_chain(n)
        return algebra, {}
    if source in ("example-3-4", "example_3_4"):
        algebra, sigma = four_element_example()
        return algebra, {"sigma": verify_operator(algebra, sigma)}
    text = Path(source).read_text(encoding="utf-8")
    algebra, operators, _states = realize_document(parse_algebra(text))
    return algebra, operators


def _fmt_set(algebra, members) -> str:
    return "{" + ", ".join(algebra.labels[x] for x in sorted(members)) + "}"


def _fmt_map(algebra, table) -> str:
    return ", ".join(
        f"{algebra.labels[x]}->{algebra.labels[table[x]]}" for x in range(algebra.size)
    )


def _cmd_construct(args) -> int:
    kind = args.what[0]
    rest = args.what[1:]
    if kind in ("mv-chain", "godel-chain"):
        if len(rest) != 1 or not rest[0].isdigit():
            print(f"construct {kind} expects one integer argument", file=sys.stderr)
            return 2
        algebra = mv_chain(int(rest[0])) if kind == "mv-chain" else godel_chain(int(rest[0]))
        doc = document_from_algebra(algebra)
    elif kind == "product":
        if len(rest) != 2:
            print("construct product expects two sources", file=sys.stderr)
            return 2
        a, _ = _load(rest[0])
        b, _ = _load(rest[1])
        doc = document_from_algebra(direct_product(a, b))
    elif kind == "ordinal-sum":
        if not rest:
            print("construct ordinal-sum expects at least one source", file=sys.stderr)
            return 2
        parts = [_load(s)[0] for s in rest]
        doc = document_from_algebra(ordinal_sum(parts))
    elif kind == "example-3-4":
        algebra, sigma = four_element_example()
        doc = document_from_algebra(algebra, operators={"sigma": sigma})
    else:
        print(f"unknown construct kind {kind!r}", file=sys.stderr)
        return 2
    text = serialize_algebra(doc)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    text = Path(args.file).read_text(encoding="utf-8")
    doc = parse_algebra(text)
    try:
        algebra = realize_algebra(doc)
    except ValidationError as exc:
        if exc.violation is not None:
            v = exc.violation
            print(f"FAIL {v.axiom} at witness {v.witness}" + (f" ({v.detail})" if v.detail else ""))
        else:
            print(f"FAIL {exc}")
        return 1
    flags = classify_variety(algebra)
    print(
        f"OK BL-algebra with {algebra.size} elements"
        f" (mv={flags.is_mv} godel={flags.is_godel} linear={flags.is_linear})"
    )
    for name, table in doc.operators.items():
        op = verify_operator(algebra, table)
        print(f"operator {name}: class={op.verified_class} preserves_impl={op.preserves_impl}")
        if op.verified_class == "none":
            ax, w = op.witnesses[0]
            print(f"FAIL operator {name} is not a state operator (axiom {ax} at {w})")
            return 1
    return 0


def _cmd_enumerate(args) -> int:
    algebra, _ = _load(args.file)
    stats = EnumerationStats() if args.stats else None
    tables = enumerate_operator_tables(algebra, args.cls, stats=stats)
    print(f"{len(tables)} operator(s) of class {args.cls} on {algebra.size} elements")
    for t in tables:
        print(_fmt_map(algebra, t))
    if stats is not None:
        print(json.dumps(vars(stats)), file=sys.stderr)
    return 0


def _cmd_filters(args) -> int:
    algebra, _ = _load(args.file)
    fs = all_filters(algebra)
    print(f"{len(fs)} filter(s)")
    for f in fs:
        print(_fmt_set(algebra, f))
    print("maximal:")
    for f in maximal_filters(algebra):
        print(_fmt_set(algebra, f))
    print(f"radical: {_fmt_set(algebra, radical(algebra))}")
    return 0


def _pick_operator(operators, name):
    if name not in operators:
        known = ", ".join(sorted(operators)) or "(none)"
        raise KeyError(f"unknown operator {name!r}; available: {known}")
    return operators[name]


def _cmd_classify(args) -> int:
    algebra, operators = _load(args.file)
    cls = classify_algebra(algebra)
    print(
        f"simple={cls.simple} semisimple={cls.semisimple} local={cls.local}"
        f" perfect={cls.perfect} locally_finite={cls.locally_finite}"
    )
    print(f"radical: {_fmt_set(algebra, cls.radical)}")
    print(f"maximal filters: {len(cls.maximal_filters)}")
    if args.operator:
        op = _pick_operator(operators, args.operator)
        print(f"operator {args.operator}: class={op.verified_class}")
        if op.verified_class == "none":
            ax, w = op.witnesses[0]
            print(f"FAIL not a state operator (axiom {ax} at {w})")
            return 1
        ker, faithful, rad_faithful = kernel_and_faithfulness(op)
        report = classify_state_algebra(algebra, op)
        print(
            f"ssbl_simple={report.ssbl_simple} sssbl_semisimple={report.sssbl_semisimple}"
            f" radical_faithful={report.radical_faithful}"
        )
        print(f"kernel: {_fmt_set(algebra, ker)} faithful={faithful}")
        print(f"rad_sigma: {_fmt_set(algebra, report.rad_sigma)}")
        print(f"image: {report.image.size} elements {_fmt_set(algebra, report.image_to_original)}")
        failures = report.failed()
        for outcome in report.checks:
            status = "ok" if outcome.holds else ("DISCREPANCY" if outcome.holds is None else "FAIL")
            print(f"check {outcome.claim}: {status}")
        if failures:
            return 1
    return 0


def _cmd_states(args) -> int:
    algebra, operators = _load(args.file)
    ext = extremal_states(algebra)
    print(f"{len(ext)} extremal state(s)")
    for st in ext:
        print(", ".join(format_fraction(v) for v in st.values))
    if args.operator:
        op = _pick_operator(operators, args.operator)
        if not op.is_state:
            print(f"FAIL {args.operator} is not a state operator")
            return 1
        report = sigma_compatible_correspondence(algebra, op)
        print(f"extremal compatible state(s): {len(report.compatible_extremal)}")
        for st in report.compatible_extremal:
            print(", ".join(format_fraction(v) for v in st.values))
        print(f"bijection with image states: {'ok' if report.bijection_ok else 'FAIL'}")
        if not report.bijection_ok:
            return 1
    return 0


def _cmd_search_nonstrong(args) -> int:
    algebra, _ = _load(args.file)
    if algebra.size > 10:
        print("carrier too large for exhaustive search (limit 10)", file=sys.stderr)
        return 2
    state_tables = enumerate_operator_tables(algebra, "state")
    strong_tables = set(enumerate_operator_tables(algebra, "strong"))
    candidates = [t for t in state_tables if t not in strong_tables]
    print(
        f"{len(state_tables)} state operator(s), {len(strong_tables)} strong;"
        f" {len(candidates)} candidate(s) that are state but not strong"
    )
    for t in candidates:
        w = verify_operator(algebra, t).witness_for("3s")
        print(f"candidate (not a proof): {_fmt_map(algebra, t)}; strong axiom fails at {w}")
    return 0


def _cmd_paper_suite(args) -> int:
    try:
        corpus = load_corpus_dir(args.corpus) if args.corpus else default_corpus()
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    claim_ids = None
    if args.claims:
        claim_ids = [c.strip() for c in args.claims.split(",") if c.strip()]
        unknown = set(claim_ids) - set(CLAIM_IDS)
        if unknown:
            print(f"unknown claim ids: {sorted(unknown)}", file=sys.stderr)
            return 2
    report = run_suite(corpus, claim_ids)
    render = render_json if args.format == "json" else render_text
    text = render(report, keep_going=args.keep_going, timings=args.timings)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 1 if report.failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blstate",
        description="Workbench for finite BL-algebras with internal state operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="emit a canonical algebra document")
    p.add_argument("what", nargs="+", metavar="KIND [ARGS...]")
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("verify", help="verify a document as a BL-algebra")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("enumerate-operators", help="list all operators of a class")
    p.add_argument("file")
    p.add_argument("--class", dest="cls", default="state",
                   choices=["state", "strong", "morphism", "endomorphism"])
    p.add_argument("--stats", action="store_true",
                   help="print search counters as one JSON line on stderr")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("filters", help="list filters, maximal filters and the radical")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_filters)

    p = sub.add_parser("classify", help="classification flags (optionally with an operator)")
    p.add_argument("file")
    p.add_argument("--operator")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("states", help="extremal states (optionally the compatible-state report)")
    p.add_argument("file")
    p.add_argument("--operator")
    p.set_defaults(fn=_cmd_states)

    p = sub.add_parser("search-nonstrong",
                       help="search for state operators that are not strong")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_search_nonstrong)

    p = sub.add_parser("paper-suite", help="re-check the claim catalog over a corpus")
    p.add_argument("--claims", help="comma-separated claim ids")
    p.add_argument("--corpus", help="directory of .json documents")
    p.add_argument("--keep-going", action="store_true")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--timings", action="store_true",
                   help="include elapsed times (report no longer canonical)")
    p.add_argument("--out", help="write the report to a file")
    p.set_defaults(fn=_cmd_paper_suite)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (KeyError, ValueError, NonLinearSummandError, BLAxiomError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
