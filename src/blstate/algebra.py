"""Finite BL-algebras represented as explicit operation tables.

Elements are dense indices ``0..n-1``; labels are presentation-only.
The lattice order is derived from the meet table (``a <= b`` iff
``meet(a, b) == a``) and cross-checked against the join table while an
algebra is sealed.  A sealed algebra is immutable and safe to share
between threads; every downstream module assumes its input passed
``verify_bl_axioms``.

Sealing has two parts: the table check decides; the element scan names
the witness.  On carriers of at most 256 elements (a property of the
input: each table row then fits in ``bytes``) the laws are decided on
whole tables with ``bytes.translate``; the element scan runs only on a
failure, or on a larger carrier, and names the first violation.

Pointwise laws are data, ``Law`` values (``classify_variety`` reads
four).  A law's lambda is its per-tuple evaluator (``witness``), which
names the lexicographically first failing tuple.  Run on symbols, the
lambda of a term law, an instance law over the named tables, builds its
term.  ``holds`` decides a law over at most ``_ROW`` tuples per tuple,
and a term over more with the row evaluator, as the table check of
sealing decides: the leading variables run in loops and every subterm
of the others is one ``bytes`` row.  ``violation`` scans only a failing
law for its witness.  A law that reads the operator table ``t`` or more
than the named tables is no term, and the per-tuple evaluator decides it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial, wraps
from itertools import chain, combinations, compress, product as iproduct, repeat, starmap
from operator import getitem, not_
from typing import Callable, Iterable, Sequence

Table = tuple[tuple[int, ...], ...]

# Symbolic order of an element whose powers never reach bottom.
INFINITE_ORDER = math.inf


class NoResiduumError(Exception):
    """The monoid is not residuated: {z : prod(a,z) <= b} has no maximum."""

    def __init__(self, a: int, b: int):
        super().__init__(f"no residuum for pair ({a}, {b})")
        self.pair = (a, b)


class InternalCheckError(AssertionError):
    """A cross-check between two independent computations disagreed."""


@dataclass(frozen=True)
class AxiomViolation:
    """First axiom failure found by the deterministic scan.

    ``axiom`` is one of lattice / monoid / adjointness / divisibility /
    prelinearity (or an operator axiom id when raised by the operator
    checker).  Re-evaluating the named axiom at ``witness`` must fail.
    """

    axiom: str
    witness: tuple[int, ...]
    detail: str = ""


class BLAxiomError(Exception):
    def __init__(self, violation: AxiomViolation):
        super().__init__(
            f"{violation.axiom} fails at {violation.witness}"
            + (f": {violation.detail}" if violation.detail else "")
        )
        self.violation = violation


def as_table(rows: Iterable[Iterable[int]]) -> Table:
    return tuple(tuple(int(v) for v in row) for row in rows)


def _check_shape(labels, tables: dict[str, Table], bottom: int, top: int) -> None:
    n = len(labels)
    if n == 0:
        raise ValueError("empty carrier")
    if len(set(labels)) != n:
        raise ValueError("labels must be distinct")
    for name, t in tables.items():
        if len(t) != n or any(len(row) != n for row in t):
            raise ValueError(f"{name} table must be {n}x{n}")
        if any(not (0 <= v < n) for row in t for v in row):
            raise ValueError(f"{name} table entry out of range [0, {n})")
    if not (0 <= bottom < n and 0 <= top < n):
        raise ValueError("bottom/top out of range")


def memoized(fn):
    """Memoize ``fn(obj, *args)`` in ``obj.__dict__``, keyed by ``args``.

    The values are freed together with ``obj``.  A call that raises
    stores nothing.  Threads racing on a first call may each compute,
    but every caller gets the first value stored.
    """

    @wraps(fn)
    def wrapper(obj, *args):
        memo = obj.__dict__.setdefault("_memo", {})
        key = (fn, *args)
        value = memo.get(key, memo)  # the memo itself marks a miss
        return memo.setdefault(key, fn(obj, *args)) if value is memo else value

    return wrapper


def _laws_hold(
    meet: Table, join: Table, prod: Table, impl: Table, bottom: int, top: int
) -> bool:
    """Whether every BL law holds, decided on whole tables in C.

    Each table row becomes a ``bytes`` object, which needs a carrier of
    at most 256 elements.  ``flat.translate(row + pad)`` maps every entry
    of a flattened table through one row: it composes the table with
    that row in a single call.  The checks run in scan order, and a
    check may assume the laws before it.  Two laws of the scan are not
    checked again, because the others imply them: meet and join induce
    one order (commutativity and absorption), and top is the unit of
    prod (adjointness gives impl(a, top) == top, and divisibility then
    gives prod(a, top) == meet(a, top) == a).
    """
    n = len(meet)
    rng = range(n)
    pad = bytes(256 - n)
    m, j, p, i = tables = [[bytes(row) for row in t] for t in (meet, join, prod, impl)]
    fm, fj, fp, fi = (b"".join(t) for t in tables)

    def transposed(flat: bytes) -> bytes:
        return b"".join(flat[c::n] for c in rng)

    def associative(rows: list[bytes], flat: bytes) -> bool:
        # row t(a, b) equals row b mapped through row a, for every b
        return all(
            flat.translate(rows[a] + pad) == b"".join(map(rows.__getitem__, rows[a]))
            for a in rng
        )

    def absorbs(outer: list[bytes], inner: list[bytes]) -> bool:
        return all(inner[a].translate(outer[a] + pad) == bytes((a,)) * n for a in rng)

    # leq[x][y] is 1 where meet(x, y) == x: row x of meet marked at value x
    leq = [m[x].translate(bytes(x) + b"\1" + bytes(255 - x)) for x in rng]
    return (
        fm == transposed(fm)
        and fj == transposed(fj)
        and associative(m, fm)
        and associative(j, fj)
        and absorbs(m, j)
        and absorbs(j, m)
        and m[bottom] == bytes((bottom,)) * n
        and j[top] == bytes((top,)) * n
        and fp == transposed(fp)
        and associative(p, fp)
        # adjointness at fixed c, over (a, b): c <= impl(a, b) iff prod(c, a) <= b
        and all(
            fi.translate(leq[c] + pad) == b"".join(map(leq.__getitem__, p[c])) for c in rng
        )
        and all(i[a].translate(p[a] + pad) == m[a] for a in rng)
        # prelinearity: join(impl(a, b), impl(b, a)) == top
        and bytes(map(getitem, map(j.__getitem__, fi), transposed(fi)))
        == bytes((top,)) * (n * n)
    )


def find_axiom_violation(
    meet: Table, join: Table, prod: Table, impl: Table, bottom: int, top: int
) -> AxiomViolation | None:
    """First failure of the BL laws in the documented scan order, or None.

    The table check decides; the element scan names the witness.  The
    tables must be n x n with entries, ``bottom`` and ``top`` in
    ``range(n)`` (``verify_bl_axioms`` checks this first).  On a carrier
    of at most 256 elements ``_laws_hold`` decides every law on whole
    tables, and a pass returns None at once.  The element scan
    (``_first_violation``) runs only when that check fails or n > 256,
    so every violation returned is the one the scan names.
    """
    if len(meet) <= 256 and _laws_hold(meet, join, prod, impl, bottom, top):
        return None
    return _first_violation(meet, join, prod, impl, bottom, top)


def _first_violation(
    meet: Table, join: Table, prod: Table, impl: Table, bottom: int, top: int
) -> AxiomViolation | None:
    """Scan the six invariant groups in a fixed deterministic order.

    Group order: lattice, monoid, adjointness, divisibility,
    prelinearity; within a group the sub-law order is as written below
    and indices run lexicographically.  The first failure wins, which
    keeps violation witnesses reproducible.
    """
    n = len(meet)
    rng = range(n)

    # lattice: commutativity, associativity, absorption, bounds, meet/join agreement
    for a, b in iproduct(rng, rng):
        if meet[a][b] != meet[b][a]:
            return AxiomViolation("lattice", (a, b), "meet not commutative")
        if join[a][b] != join[b][a]:
            return AxiomViolation("lattice", (a, b), "join not commutative")
    for a, b, c in iproduct(rng, rng, rng):
        if meet[meet[a][b]][c] != meet[a][meet[b][c]]:
            return AxiomViolation("lattice", (a, b, c), "meet not associative")
        if join[join[a][b]][c] != join[a][join[b][c]]:
            return AxiomViolation("lattice", (a, b, c), "join not associative")
    for a, b in iproduct(rng, rng):
        if meet[a][join[a][b]] != a:
            return AxiomViolation("lattice", (a, b), "absorption meet(a, join(a,b)) != a")
        if join[a][meet[a][b]] != a:
            return AxiomViolation("lattice", (a, b), "absorption join(a, meet(a,b)) != a")
    for a in rng:
        if meet[bottom][a] != bottom:
            return AxiomViolation("lattice", (a,), "bottom is not the least element")
        if join[top][a] != top:
            return AxiomViolation("lattice", (a,), "top is not the greatest element")
    for a, b in iproduct(rng, rng):
        if (meet[a][b] == a) != (join[a][b] == b):
            return AxiomViolation("lattice", (a, b), "meet/join induce different orders")

    # monoid: commutativity, associativity, unit top
    for a, b in iproduct(rng, rng):
        if prod[a][b] != prod[b][a]:
            return AxiomViolation("monoid", (a, b), "prod not commutative")
    for a, b, c in iproduct(rng, rng, rng):
        if prod[prod[a][b]][c] != prod[a][prod[b][c]]:
            return AxiomViolation("monoid", (a, b, c), "prod not associative")
    for a in rng:
        if prod[a][top] != a:
            return AxiomViolation("monoid", (a,), "top is not the monoid unit")

    # adjointness: c <= impl(a,b)  iff  prod(a,c) <= b
    for a, b, c in iproduct(rng, rng, rng):
        p = prod[a][c]
        if (meet[c][impl[a][b]] == c) != (meet[p][b] == p):
            return AxiomViolation("adjointness", (a, b, c))

    for a, b in iproduct(rng, rng):
        if meet[a][b] != prod[a][impl[a][b]]:
            return AxiomViolation("divisibility", (a, b))

    for a, b in iproduct(rng, rng):
        if join[impl[a][b]][impl[b][a]] != top:
            return AxiomViolation("prelinearity", (a, b))
    return None


@dataclass(frozen=True)
class FiniteBLAlgebra:
    """A sealed finite BL-algebra.  Construct via ``verify_bl_axioms``."""

    size: int
    labels: tuple[str, ...]
    meet: Table
    join: Table
    prod: Table
    impl: Table
    bottom: int
    top: int

    # -- order ---------------------------------------------------------

    @cached_property
    def leq(self) -> tuple[tuple[bool, ...], ...]:
        return tuple(
            tuple(self.meet[a][b] == a for b in range(self.size)) for a in range(self.size)
        )

    def le(self, a: int, b: int) -> bool:
        return self.meet[a][b] == a

    def comparable(self, a: int, b: int) -> bool:
        return self.le(a, b) or self.le(b, a)

    @cached_property
    def is_linear(self) -> bool:
        n = self.size
        return all(self.comparable(a, b) for a in range(n) for b in range(a + 1, n))

    # -- derived operations ---------------------------------------------

    @cached_property
    def neg_table(self) -> tuple[int, ...]:
        return tuple(self.impl[x][self.bottom] for x in range(self.size))

    def neg(self, x: int) -> int:
        return self.neg_table[x]

    def oplus(self, x: int, y: int) -> int:
        return self.neg(self.prod[self.neg(x)][self.neg(y)])

    @cached_property
    def oplus_table(self) -> Table:
        neg = self.neg_table  # row x: y -> neg(prod(neg x, neg y))
        return tuple(tuple(map(neg.__getitem__, map(self.prod[v].__getitem__, neg))) for v in neg)

    def ominus(self, x: int, y: int) -> int:
        return self.prod[x][self.neg(y)]

    def dist(self, x: int, y: int) -> int:
        return self.prod[self.impl[x][y]][self.impl[y][x]]

    def power(self, x: int, k: int) -> int:
        """k-fold product of x with itself; power(x, 0) is top."""
        acc = self.top
        for _ in range(k):
            acc = self.prod[acc][x]
        return acc

    def power_values(self, x: int) -> tuple[int, ...]:
        """Distinct values of x, x^2, ... up to the first repeat."""
        seen: list[int] = []
        cur = x
        while cur not in seen:
            seen.append(cur)
            cur = self.prod[cur][x]
        return tuple(seen)

    def ord_of(self, x: int):
        """Least k >= 1 with x^k == bottom, or INFINITE_ORDER."""
        for k, v in enumerate(self.power_values(x), start=1):
            if v == self.bottom:
                return k
        return INFINITE_ORDER

    @cached_property
    def orders(self) -> tuple:
        """``ord_of`` of every element."""
        return tuple(map(self.ord_of, range(self.size)))

    def orthogonal(self, x: int, y: int) -> bool:
        return self.prod[x][y] == self.bottom

    def partial_sum(self, x: int, y: int) -> int:
        """x + y = neg(y) -> neg(neg(x)); defined when x, y orthogonal."""
        return self.impl[self.neg(y)][self.neg(self.neg(x))]

    # -- misc -----------------------------------------------------------

    @cached_property
    def idempotents(self) -> tuple[int, ...]:
        return tuple(x for x in range(self.size) if self.prod[x][x] == x)

    @cached_property
    def byte_rows(self) -> tuple[tuple[bytes, ...], ...]:
        """meet, join, prod and impl with every row as ``bytes``.

        Only for carriers of at most 256 elements; the table kernels
        (``operators``, ``constructors.table_preserves``) read them.
        """
        return tuple(tuple(map(bytes, t)) for t in (self.meet, self.join, self.prod, self.impl))

    @cached_property
    def upsets(self) -> tuple[frozenset[int], ...]:
        """Row x is the upset {y : x <= y}, built once per algebra."""
        rng = range(self.size)
        return tuple(frozenset(compress(rng, row)) for row in self.leq)

    @cached_property
    def upset_masks(self) -> tuple[int, ...]:
        """Row x of ``upsets`` as a bitmask: bit y is set when x <= y."""
        return tuple(sum(1 << y for y in row) for row in self.upsets)

    def upset(self, x: int) -> frozenset[int]:
        return self.upsets[x]

    def same_tables(self, other: "FiniteBLAlgebra") -> bool:
        """Structural equality ignoring labels."""
        return (
            self.size == other.size
            and self.meet == other.meet
            and self.join == other.join
            and self.prod == other.prod
            and self.impl == other.impl
            and self.bottom == other.bottom
            and self.top == other.top
        )

    def relabeled(self, labels: Sequence[str]) -> "FiniteBLAlgebra":
        return verify_bl_axioms(
            labels, self.meet, self.join, self.prod, self.impl, self.bottom, self.top
        )

    def __repr__(self) -> str:  # keep reprs short in pytest output
        return f"FiniteBLAlgebra(n={self.size}, labels={'/'.join(self.labels)})"


def verify_bl_axioms(
    labels: Sequence[str],
    meet: Iterable[Iterable[int]],
    join: Iterable[Iterable[int]],
    prod: Iterable[Iterable[int]],
    impl: Iterable[Iterable[int]],
    bottom: int,
    top: int,
) -> FiniteBLAlgebra:
    """Seal candidate tables as a BL-algebra or raise ``BLAxiomError``.

    Shape problems (wrong sizes, duplicate labels, out-of-range entries)
    raise ``ValueError``; axiom failures raise ``BLAxiomError`` carrying
    the first ``AxiomViolation`` in the documented scan order.
    """
    labels = tuple(str(x) for x in labels)
    meet_t, join_t, prod_t, impl_t = map(as_table, (meet, join, prod, impl))
    _check_shape(
        labels,
        {"meet": meet_t, "join": join_t, "prod": prod_t, "impl": impl_t},
        bottom,
        top,
    )
    bad = find_axiom_violation(meet_t, join_t, prod_t, impl_t, bottom, top)
    if bad is not None:
        raise BLAxiomError(bad)
    return FiniteBLAlgebra(
        size=len(labels),
        labels=labels,
        meet=meet_t,
        join=join_t,
        prod=prod_t,
        impl=impl_t,
        bottom=bottom,
        top=top,
    )


def residuum_from_monoid(leq: Sequence[Sequence[bool]], prod: Iterable[Iterable[int]]) -> Table:
    """Compute impl(a,b) = max{z : prod(a,z) <= b} for every pair.

    Raises ``NoResiduumError`` when some candidate set has no maximum,
    i.e. the monoid is not residuated with respect to the given order.
    """
    prod_t = as_table(prod)
    n = len(prod_t)
    out = []
    for a in range(n):
        row = []
        for b in range(n):
            candidates = [z for z in range(n) if leq[prod_t[a][z]][b]]
            best = None
            for z in candidates:
                if all(leq[w][z] for w in candidates):
                    best = z
                    break
            if best is None:
                raise NoResiduumError(a, b)
            row.append(best)
        out.append(tuple(row))
    return tuple(out)


# ---------------------------------------------------------------------------
# pointwise laws: terms and their two evaluators (see the module docstring)


# eq=False: laws are constants, hashed by identity as memo keys
@dataclass(frozen=True, eq=False)
class Law:
    """``check`` holds at every tuple of elements; ``text`` names a failure.

    ``check`` is a lambda whose single-letter parameters (x, y, c, d)
    are the variables, after the others: ``t``, the operator table, ``a``,
    the algebra, and any other name an attribute of the algebra (``neg``
    and ``oplus`` read ``neg_table`` and ``oplus_table``).  Called with
    the tables and elements it is the per-tuple evaluator.  An instance
    law whose tables are all named in ``_UNARY``, ``_BINARY`` and the
    constants bottom and top, written with ``==``, ``!=``, ``and``, ``or``
    and ``not``, is a term: run on symbols (``_term``) it builds its term,
    which the row evaluator decides.  A law that reads the operator ``t``
    is no term; the per-tuple evaluator decides it.
    """

    text: str
    check: Callable

    @cached_property
    def is_term(self) -> bool:
        return _parameters(self.check)[0] <= _UNARY | _BINARY | {"bottom", "top"}


_UNARY = {"neg"}
_BINARY = {"meet", "join", "prod", "impl", "oplus", "leq"}


@lru_cache(maxsize=256)
def _parameters(check: Callable) -> tuple[frozenset[str], int]:
    """The table names ``check`` reads and its number of variables."""
    code = check.__code__
    names = code.co_varnames[: code.co_argcount]
    variables = sum(len(name) == 1 and name not in "ta" for name in names)
    return frozenset(names[: len(names) - variables]), variables


class _Symbol:
    """A term under construction: ``check`` called with symbols returns its
    term as ``node``, a tuple ``("var", i)``, ``(name,)`` for a constant,
    ``(table, u)`` or ``(table, u, v)``, ``("eq", u, v)``, ``("not", p)``,
    ``("and", p, q)`` or ``("or", p, q)``.  ``and``, ``or`` and ``not``
    test a truth value; ``path`` holds the tests made so far, with the
    branch taken, and the branches ``_term`` chose for the first ones."""

    __slots__ = ("path", "node")
    __hash__ = None

    def __init__(self, path: tuple, *node):
        self.path = path
        self.node = node

    def __getitem__(self, u):
        return _Symbol(self.path, *self.node, u.node)

    def __eq__(self, v):
        return _Symbol(self.path, "eq", self.node, v.node)

    def __ne__(self, v):
        return _Symbol(self.path, "not", ("eq", self.node, v.node))

    def __bool__(self) -> bool:
        chosen, tests = self.path
        if self.node not in tests:  # a value tested again takes the same branch
            tests[self.node] = chosen[len(tests)] if len(tests) < len(chosen) else True
        return tests[self.node]


_TRUE, _FALSE = ("true",), ("false",)


def _branch(c: tuple, a: tuple, b: tuple) -> tuple:
    """The term "a if c else b" of truth values."""
    n = ("not", c)
    if a == b:
        return a
    if a in (_TRUE, c):
        return c if b == _FALSE else ("or", c, b)
    if b in (_FALSE, c):
        return ("and", c, a)
    if a == _FALSE:
        return n if b == _TRUE else ("and", n, b)
    return ("or", n, a) if b == _TRUE else ("or", ("and", c, a), ("and", n, b))


@lru_cache(maxsize=256)
def _term(check: Callable) -> tuple:
    """The term of a term law: ``check`` runs on symbols once per branch
    of its truth tests, and the results join as ``_branch`` terms."""
    code = check.__code__
    names = code.co_varnames[: code.co_argcount]
    tables = len(names) - _parameters(check)[1]

    def run(chosen: tuple) -> tuple:
        path = (chosen, {})
        value = check(*(_Symbol(path, *((name,) if k < tables else ("var", k - tables)))
                        for k, name in enumerate(names)))
        tests = list(path[1])
        if len(tests) > len(chosen):  # the next test took its first branch
            return _branch(tests[len(chosen)], run(chosen + (True,)), run(chosen + (False,)))
        return value.node if isinstance(value, _Symbol) else _TRUE if value else _FALSE

    return run(())


@lru_cache(maxsize=4096)
def _vars(u: tuple) -> frozenset[int]:
    """The variables a term reads."""
    return frozenset({u[1]}) if u[0] == "var" else frozenset().union(*map(_vars, u[1:]))


def _subterms(u: tuple):
    yield u
    if u[0] != "var":
        for w in u[1:]:
            yield from _subterms(w)


_mask = partial(int.from_bytes, byteorder="little")  # a 0/1 byte row as a bit mask
# _EQ[v] translates a row to 1 where it holds v and to 0 elsewhere
_EQ = tuple(bytes(v) + b"\1" + bytes(255 - v) for v in range(256))
# the per-tuple evaluator decides a law over at most _ROW tuples, and the
# row evaluator a larger one, on rows of at most _ROW entries
_ROW = 1024


def _pairwise(pairs: tuple, r: bytes, u: bytes) -> bytes:
    """``T[r[i]][u[i]]`` for every i, from ``pairs = (times, groups)``
    (``_input``, on n elements): the byte ``r[i] % w * n + u[i]`` codes the
    pair, and each group of w values of ``r`` reads its own lookup table."""
    times, groups = pairs
    codes = (_mask(r.translate(times)) + _mask(u)).to_bytes(len(r), "little")
    if len(groups) == 1:
        return codes.translate(groups[0][1])
    out = 0
    for select, lookup in groups:
        out |= _mask(codes.translate(lookup)) & _mask(r.translate(select)) * 255
    return out.to_bytes(len(r), "little")


def _same(r: bytes, u: bytes) -> int:
    """The mask of the positions where two rows agree."""
    return _mask((_mask(r) ^ _mask(u)).to_bytes(len(r), "little").translate(_EQ[0]))


def _inner(term: tuple, arity: int, k: int) -> tuple[int, ...]:
    """The k row variables: of all sets of k variables, the one with the
    fewest subterms that pair two rows (``_pairwise``) inside the loops,
    and on a tie the later variables."""
    pairs = [u for u in set(_subterms(term)) if len(u) == 3 and u[0] in _BINARY]

    def paired(rows):
        return sum(
            bool(_vars(u[1]) & rows and _vars(u[2]) & rows and _vars(u) - rows) for u in pairs
        )

    return min(reversed(list(combinations(range(arity), k))), key=lambda s: paired(set(s)))


def _step(op: str, args: list, row: bool, slot: Callable, k: int) -> Callable:
    """The step ``f(v)`` that computes a subterm from the values ``v``:
    ``args`` holds each operand's (slot, level, is row, is truth value),
    and ``slot(name)`` is the slot of a value bound to the carrier."""
    (p, _, pr, _), (q, _, qr, _) = args[0], args[-1]
    if op in ("not", "and", "or") or (op == "eq" and args[0][3]):
        if not row:
            return {"not": lambda v: not v[p], "and": lambda v: v[p] and v[q],
                    "or": lambda v: v[p] or v[q], "eq": lambda v: v[p] == v[q]}[op]
        o = slot(f"ONES{k}")
        return {"not": lambda v: v[o] ^ v[p], "and": lambda v: v[p] & v[q],
                "or": lambda v: v[p] | v[q], "eq": lambda v: v[o] ^ v[p] ^ v[q]}[op]
    if op == "eq":
        if pr and qr:
            return lambda v: _same(v[p], v[q])
        if row:
            r, s = (p, q) if pr else (q, p)
            return lambda v: _mask(v[r].translate(_EQ[v[s]]))
        return lambda v: v[p] == v[q]
    if len(args) == 1:
        T = slot(f"{op}_p")
        return (lambda v: v[p].translate(v[T])) if row else (lambda v: v[T][v[p]])
    if not row:
        T = slot(op)
        return lambda v: v[T][v[p]][v[q]]
    if pr and qr:
        T = slot(f"{op}_2")
        f = lambda v: _pairwise(v[T], v[p], v[q])
    elif qr:
        T = slot(f"{op}_p")
        f = lambda v: v[q].translate(v[T][v[p]])
    else:
        T = slot(f"{op}_q")
        f = lambda v: v[p].translate(v[T][v[q]])
    return (lambda v: _mask(f(v))) if op == "leq" else f



@memoized
def _program(law: Law, k: int) -> tuple:
    """The row evaluator of a term law with the k row variables ``_inner``.

    Each subterm gets a slot in a list of values and a step (``_step``)
    that computes it from its operands' slots in the loop of its last
    outer variable, or once per carrier if it reads none.  A subterm that
    reads a row variable is a ``bytes`` row over the tuples of the row
    variables, or a bit mask of truth values; a row that a scalar of a
    deeper loop picks from a row of an outer level is tabulated over the
    scalar's values.  The whole term is one mask, ``end``, which must be
    all true in the innermost loop.
    """
    term, arity = _term(law.check), _parameters(law.check)[1]
    inner = _inner(term, arity, k)
    outer = [i for i in range(arity) if i not in inner]
    slots: dict = {}  # a string names a value bound to the carrier (``_input``)
    seen: dict = {}
    steps: list[list] = [[] for _ in range(len(outer) + 1)]  # steps[level + 1]

    def slot(name) -> int:
        return slots.setdefault(name, len(slots))

    def add(key, level, row, truth, f) -> tuple:
        steps[level + 1].append((slot(key), f))
        return slot(key), level, row, truth

    def lift(w):  # a truth value as a mask
        o, s = slot(f"ONES{k}"), w[0]
        return w if w[2] else add(("lift", s), w[1], True, True, lambda v: v[o] if v[s] else 0)

    def visit(u):
        """(slot, level, is row, is truth value) of the subterm ``u``."""
        if u in seen:
            return seen[u]
        op, *args = u
        if op == "var":
            i = args[0]
            seen[u] = ((slot(f"G{k}{inner.index(i)}"), -1, True, False) if i in inner
                       else (slot(u), outer.index(i), False, False))
        elif not args:  # bottom, top, or a truth constant
            seen[u] = (slot(op), -1, False, u in (_TRUE, _FALSE))
        else:
            a = [visit(w) for w in args]
            row = any(w[2] for w in a)
            if row and (op in ("not", "and", "or") or op == "eq" and a[0][3]):
                a = list(map(lift, a))
            level = max(w[1] for w in a)
            truth = op in ("leq", "eq", "not", "and", "or")
            picked = [w for w in a if not w[2] and w[1] >= 1]  # a scalar of a deeper loop
            if op in _BINARY and row and picked and max(w[1] for w in a if w[2]) < level:
                # a row that the scalar picks: tabulated over its values
                R, pick, value = slot("R"), picked[0][0], slot(("value", u))
                f = _step(op, [(value, -1, False, w[3]) if w is picked[0] else w for w in a],
                          row, slot, k)

                def tabulate(v):
                    out = []
                    for v[value] in v[R]:
                        out.append(f(v))
                    return out

                rows = add(("table", u), max(w[1] for w in a if w[2]), False, False, tabulate)[0]
                seen[u] = add(u, level, True, truth, lambda v: v[rows][v[pick]])
            else:
                seen[u] = add(u, level, row, truth, _step(op, a, row, slot, k))
        return seen[u]

    end = lift(visit(term))[0]
    loops, ones = [slot(("var", i)) for i in outer], slot(f"ONES{k}")
    inputs = [(s, name) for name, s in slots.items() if isinstance(name, str)]
    return inputs, len(slots), loops, steps, end, ones


@memoized
def _input(a, name: str):
    """A value the row evaluator reads from ``a``: ``R``, the elements;
    ``ONESk`` and ``Gkj``,
    the all-true mask and column j of the grid of k row variables; a
    constant or table ``T``; ``T_p`` and ``T_q``, the rows and columns of
    ``T`` padded for ``bytes.translate`` (a unary table is one row);
    ``T_2``, the pairs form of ``T`` that ``_pairwise`` reads."""
    n = a.size
    if name in ("R", "true", "false"):
        return range(n) if name == "R" else name == "true"
    if name[:4] == "ONES":
        return _mask(b"\1" * n ** int(name[4]))
    if name[0] == "G":
        return _grid(n, int(name[1]))[int(name[2])]
    table, _, form = name.partition("_")
    table = _table(a, table)
    pad = bytes(256 - n)
    if not form:
        return table
    if not isinstance(table[0], tuple):
        return bytes(table) + pad
    if form == "2":  # groups of w rows, a pair of each coded in one byte
        w = 256 // n
        return bytes(v % w * n for v in range(n)) + pad, [
            (bytes(v // w == h // w for v in range(n)) + pad,
             (flat := b"".join(map(bytes, table[h:h + w]))) + bytes(256 - len(flat)))
            for h in range(0, n, w)
        ]
    return tuple(bytes(r) + pad for r in (table if form == "p" else zip(*table)))


_ATTRIBUTE = {"neg": "neg_table", "oplus": "oplus_table"}  # table name -> algebra attribute


def _table(a, name: str):
    return getattr(a, _ATTRIBUTE.get(name, name))


@lru_cache(maxsize=64)
def _grid(n: int, k: int) -> tuple[bytes, ...]:
    """The columns of ``product(range(n), repeat=k)``: column i holds each
    element n ** (k - 1 - i) times in a row, and that block n ** i times."""
    return tuple(
        bytes(chain.from_iterable(map(repeat, range(n), repeat(n ** (k - 1 - i))))) * n**i
        for i in range(k)
    )


def _rows_hold(a, law: Law) -> bool:
    """Whether the term law ``law`` holds on the carrier ``a`` of at most
    256 elements, decided by its row evaluator (``_program``)."""
    k = _parameters(law.check)[1]  # as many row variables as fit in one row
    while k > 1 and a.size**k > _ROW:
        k -= 1
    inputs, size, loops, steps, end, ones = _program(law, k)
    v = [None] * size
    for s, name in inputs:
        v[s] = _input(a, name)
    for s, f in steps[0]:
        v[s] = f(v)
    elements, depth = range(a.size), len(loops)

    def loop(d: int) -> bool:
        var, level, last = loops[d], steps[d + 1], d + 1 == depth
        for x in elements:
            v[var] = x
            for s, f in level:
                v[s] = f(v)
            if not (v[end] == v[ones] if last else loop(d + 1)):
                return False
        return True

    return loop(0) if depth else v[end] == v[ones]


@memoized
def _bind(algebra: FiniteBLAlgebra, law: Law) -> tuple[Callable, tuple | None]:
    """``(bind, columns)``: ``bind(t)`` is the law's ``check`` with the
    tables of ``algebra`` and the operator table ``t`` filled in, a
    predicate on one tuple; ``columns`` holds the tuples as byte columns
    (``_grid``) where there are at most ``_ROW``."""
    code = law.check.__code__
    n, k = algebra.size, _parameters(law.check)[1]
    names = code.co_varnames[: code.co_argcount - k]
    tables = [algebra if p == "a" else _table(algebra, p) for p in names if p != "t"]
    instance = partial(law.check, *tables)
    columns = _grid(n, k) if n <= 256 and n**k <= _ROW else None
    bind = (lambda t: partial(law.check, t, *tables)) if "t" in names else (lambda t: instance)
    return bind, columns


def holds(law: Law, algebra: FiniteBLAlgebra, table: Sequence[int] | None = None) -> bool:
    """Whether ``law`` holds (at the operator ``table``).

    The row evaluator decides a term law over more than ``_ROW`` tuples
    on at most 256 elements; the per-tuple evaluator decides elsewhere.
    """
    bind, columns = _bind(algebra, law)
    if columns is not None:
        return all(map(bind(table), *columns))
    if law.is_term and algebra.size <= 256:
        return _rows_hold(algebra, law)
    tuples = iproduct(range(algebra.size), repeat=_parameters(law.check)[1])
    return all(starmap(bind(table), tuples))


def witness(
    law: Law, algebra: FiniteBLAlgebra, table: Sequence[int] | None = None
) -> tuple[int, ...] | None:
    """The lexicographically first tuple where ``law`` fails, or None:
    the per-tuple evaluator, the oracle of the row evaluator."""
    bind, columns = _bind(algebra, law)
    pred = bind(table)
    if columns is not None:
        return next(compress(zip(*columns), map(not_, map(pred, *columns))), None)
    tuples = iproduct(range(algebra.size), repeat=_parameters(law.check)[1])
    return next((args for args in tuples if not pred(*args)), None)


def violation(
    laws: Law | Sequence[Law], algebra: FiniteBLAlgebra, table: Sequence[int] | None = None
) -> tuple[Law, tuple[int, ...]] | None:
    """The first failure ``(law, tuple)`` of ``laws``, or None.

    ``holds`` decides each law; only a failing law is scanned for its
    witness.  The laws share their variables: the lexicographically first
    failing tuple wins, and at the same tuple the earlier law.  ``table``
    is the operator table of per-operator laws.
    """
    found = None
    for law in (laws,) if isinstance(laws, Law) else laws:
        if not holds(law, algebra, table):
            failure = witness(law, algebra, table)
            if found is None or failure < found[1]:
                found = (law, failure)
    return found


@dataclass(frozen=True)
class VarietyFlags:
    """Identity-based classification of a sealed algebra.

    A false flag carries the first witness tuple in ``witnesses``.
    """

    is_mv: bool
    is_godel: bool
    is_linear: bool
    mv_or_product_identity: bool
    witnesses: tuple[tuple[str, tuple[int, ...]], ...]

    def witness(self, flag: str) -> tuple[int, ...] | None:
        for name, w in self.witnesses:
            if name == flag:
                return w
        return None


_VARIETY_LAWS = {
    "is_mv": Law("x-- = x", lambda neg, x: neg[neg[x]] == x),
    "is_godel": Law("x*x = x", lambda prod, x: prod[x][x] == x),
    # the failing pairs are symmetric, so the first one has x < y
    "is_linear": Law("x <= y or y <= x for x < y",
                     lambda leq, x, y: x == y or leq[x][y] or leq[y][x]),
    "mv_or_product_identity": Law(
        "x->(x*y) = -x v y",
        lambda join, prod, impl, neg, x, y: impl[x][prod[x][y]] == join[neg[x]][y]),
}


@memoized
def classify_variety(algebra: FiniteBLAlgebra) -> VarietyFlags:
    """Check x--=x, x^2=x, linearity and x->(x*y) = -x v y pointwise."""
    found = {flag: violation(law, algebra) for flag, law in _VARIETY_LAWS.items()}
    return VarietyFlags(
        *(found[flag] is None for flag in _VARIETY_LAWS),
        tuple((flag, f[1]) for flag, f in found.items() if f is not None),
    )
