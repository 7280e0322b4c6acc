"""Strict JSON document format for algebras, operators and states.

A document carries labels and operation tables; ``prod`` is required,
``impl`` may be derived by residuation, and ``meet``/``join`` may be
omitted for chains (the label order is then the chain order).  Unknown
fields are rejected.  ``serialize`` emits a canonical form: fixed key
order, two-space indent, operators and states sorted by name, rationals
in lowest terms as ``p/q``.  ``parse(serialize(doc))`` is byte-stable on
canonical documents.

The canonical form is written by direct string assembly, one join per
table row, label list and operator: every string goes through
``json.encoder.encode_basestring_ascii`` and every entry through
``int.__repr__``.  The text is byte-identical to ``json.dumps(payload,
indent=2, ensure_ascii=True) + "\\n"``, the tests' oracle, without the
pure-Python indent encoder that ``json.dumps`` uses whenever ``indent``
is set.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .algebra import (
    BLAxiomError,
    FiniteBLAlgebra,
    NoResiduumError,
    Table,
    as_table,
    residuum_from_monoid,
    verify_bl_axioms,
)
from .operators import StateOperator, verify_operator
from .states import RationalState, format_fraction

FORMAT_VERSION = "blstate/1"


class ParseError(Exception):
    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        loc = f" (line {line}, column {col})" if line is not None else ""
        super().__init__(message + loc)
        self.line = line
        self.col = col


class ValidationError(Exception):
    """A well-formed document that does not describe a BL-algebra."""

    def __init__(self, message: str, violation=None):
        super().__init__(message)
        self.violation = violation


@dataclass
class AlgebraDocument:
    labels: tuple[str, ...]
    prod: Table
    meet: Table | None = None
    join: Table | None = None
    impl: Table | None = None
    operators: dict[str, tuple[int, ...]] = field(default_factory=dict)
    states: dict[str, tuple[Fraction, ...]] = field(default_factory=dict)


def _require_keys(obj: dict, allowed: set[str], required: set[str], where: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ParseError(f"unknown field {key!r} in {where}")
    for key in required:
        if key not in obj:
            raise ParseError(f"missing field {key!r} in {where}")


def _parse_table(raw, n: int, where: str) -> Table:
    if not isinstance(raw, list) or not raw:
        raise ParseError(f"{where} must be a nonempty list of rows")
    if len(raw) != n:
        raise ParseError(f"{where} must have {n} rows, got {len(raw)}")
    rows = []
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(f"{where} row {i} must be a list of {n} entries")
        for j, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                raise ParseError(f"{where}[{i}][{j}] must be an integer in [0, {n})")
        rows.append(tuple(row))
    return tuple(rows)


def parse_algebra(text: str) -> AlgebraDocument:
    """Strict parse; raises ``ParseError`` with a position where known."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from exc
    if not isinstance(raw, dict):
        raise ParseError("document must be a JSON object")
    _require_keys(
        raw,
        {"format", "labels", "tables", "operators", "states"},
        {"format", "labels", "tables"},
        "document",
    )
    if raw["format"] != FORMAT_VERSION:
        raise ParseError(f"unsupported format {raw['format']!r}")
    labels = raw["labels"]
    if (
        not isinstance(labels, list)
        or not labels
        or any(not isinstance(x, str) for x in labels)
    ):
        raise ParseError("labels must be a nonempty list of strings")
    if len(set(labels)) != len(labels):
        raise ParseError("labels must be distinct")
    n = len(labels)
    tables = raw["tables"]
    if not isinstance(tables, dict):
        raise ParseError("tables must be an object")
    _require_keys(tables, {"meet", "join", "prod", "impl"}, {"prod"}, "tables")
    if ("meet" in tables) != ("join" in tables):
        raise ParseError("meet and join must be given together or both omitted")
    doc = AlgebraDocument(
        labels=tuple(labels),
        prod=_parse_table(tables["prod"], n, "tables.prod"),
        meet=_parse_table(tables["meet"], n, "tables.meet") if "meet" in tables else None,
        join=_parse_table(tables["join"], n, "tables.join") if "join" in tables else None,
        impl=_parse_table(tables["impl"], n, "tables.impl") if "impl" in tables else None,
    )
    operators_raw = raw.get("operators", {})
    states_raw = raw.get("states", {})
    if not isinstance(operators_raw, dict):
        raise ParseError("operators must be an object")
    if not isinstance(states_raw, dict):
        raise ParseError("states must be an object")
    for name, value in operators_raw.items():
        if not isinstance(value, list) or len(value) != n:
            raise ParseError(f"operators.{name} must be a list of {n} element indices")
        for v in value:
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                raise ParseError(f"operators.{name} entries must be integers in [0, {n})")
        doc.operators[name] = tuple(value)
    for name, value in states_raw.items():
        if not isinstance(value, list) or len(value) != n:
            raise ParseError(f"states.{name} must be a list of {n} rationals")
        vals = []
        for v in value:
            if not isinstance(v, str):
                raise ParseError(f"states.{name} entries must be 'p/q' strings")
            try:
                frac = Fraction(v)
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"states.{name}: bad rational {v!r}") from exc
            if not 0 <= frac <= 1:
                raise ParseError(f"states.{name}: {v!r} outside [0, 1]")
            vals.append(frac)
        doc.states[name] = tuple(vals)
    return doc


def _block(items: list[str], indent: str, brackets: str = "[]") -> str:
    """Encoded JSON values laid out as ``json.dumps(indent=2)`` lays out a
    container at ``indent``: one item a line, and ``[]`` or ``{}`` when empty."""
    if not items:
        return brackets
    sep = ",\n" + indent + "  "
    return brackets[0] + sep[1:] + sep.join(items) + "\n" + indent + brackets[1]


def _object(members: list[tuple[str, str]], indent: str) -> str:
    return _block([f"{_quote(key)}: {value}" for key, value in members], indent, "{}")


def _ints(values, indent: str) -> str:
    return _block(list(map(int.__repr__, values)), indent)


def serialize_algebra(doc: AlgebraDocument) -> str:
    """Canonical serialization: fixed key order, sorted names, newline-terminated."""
    tables = [
        (name, _block([_ints(row, "      ") for row in table], "    "))
        for name, table in zip(
            ("meet", "join", "prod", "impl"), (doc.meet, doc.join, doc.prod, doc.impl)
        )
        if table is not None
    ]
    members = [
        ("format", _quote(FORMAT_VERSION)),
        ("labels", _block(list(map(_quote, doc.labels)), "  ")),
        ("tables", _object(tables, "  ")),
    ]
    if doc.operators:
        operators = [(name, _ints(doc.operators[name], "    ")) for name in sorted(doc.operators)]
        members.append(("operators", _object(operators, "  ")))
    if doc.states:
        states = [
            (name, _block([_quote(format_fraction(v)) for v in doc.states[name]], "    "))
            for name in sorted(doc.states)
        ]
        members.append(("states", _object(states, "  ")))
    return _object(members, "") + "\n"


def _derive_bounds(meet: Table, join: Table) -> tuple[int, int]:
    n = len(meet)
    bottoms = [b for b in range(n) if all(meet[b][x] == b for x in range(n))]
    tops = [t for t in range(n) if all(join[t][x] == t for x in range(n))]
    if len(bottoms) != 1 or len(tops) != 1:
        raise ValidationError("tables do not determine unique bottom and top")
    return bottoms[0], tops[0]


def realize_algebra(doc: AlgebraDocument) -> FiniteBLAlgebra:
    """Derive any omitted tables and seal the algebra.

    Raises ``ValidationError`` wrapping the axiom violation when the
    tables are complete but not a BL-algebra.
    """
    n = len(doc.labels)
    if doc.meet is not None:
        meet, join = doc.meet, doc.join
    else:
        # chain in label order
        meet = as_table([[min(i, j) for j in range(n)] for i in range(n)])
        join = as_table([[max(i, j) for j in range(n)] for i in range(n)])
    bottom, top = _derive_bounds(meet, join)
    if doc.impl is not None:
        impl = doc.impl
    else:
        leq = [[meet[a][b] == a for b in range(n)] for a in range(n)]
        try:
            impl = residuum_from_monoid(leq, doc.prod)
        except NoResiduumError as exc:
            raise ValidationError(f"product table is not residuated: {exc}") from exc
    try:
        return verify_bl_axioms(doc.labels, meet, join, doc.prod, impl, bottom, top)
    except BLAxiomError as exc:
        raise ValidationError(str(exc), exc.violation) from exc


def realize_document(
    doc: AlgebraDocument,
) -> tuple[FiniteBLAlgebra, dict[str, StateOperator], dict[str, RationalState]]:
    """Seal the algebra and attach verified operators and states."""
    algebra = realize_algebra(doc)
    operators = {
        name: verify_operator(algebra, table) for name, table in doc.operators.items()
    }
    states = {
        name: RationalState(algebra, values) for name, values in doc.states.items()
    }
    return algebra, operators, states


def document_from_algebra(
    algebra: FiniteBLAlgebra,
    operators: dict[str, tuple[int, ...]] | None = None,
    states: dict[str, tuple[Fraction, ...]] | None = None,
) -> AlgebraDocument:
    """Canonical full document (all four tables explicit)."""
    return AlgebraDocument(
        labels=algebra.labels,
        prod=algebra.prod,
        meet=algebra.meet,
        join=algebra.join,
        impl=algebra.impl,
        operators=dict(operators or {}),
        states=dict(states or {}),
    )
