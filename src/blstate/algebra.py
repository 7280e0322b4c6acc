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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, wraps
from itertools import compress, product as iproduct
from operator import getitem
from typing import Iterable, Sequence

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
        try:
            return memo[key]
        except KeyError:
            return memo.setdefault(key, fn(obj, *args))

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
    def upsets(self) -> tuple[frozenset[int], ...]:
        """Row x is the upset {y : x <= y}, built once per algebra."""
        rng = range(self.size)
        return tuple(frozenset(compress(rng, row)) for row in self.leq)

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


@memoized
def classify_variety(algebra: FiniteBLAlgebra) -> VarietyFlags:
    """Check x--=x, x^2=x, linearity and x->(x*y) = -x v y pointwise."""
    n = algebra.size
    witnesses: list[tuple[str, tuple[int, ...]]] = []

    is_mv = True
    for x in range(n):
        if algebra.neg(algebra.neg(x)) != x:
            is_mv = False
            witnesses.append(("is_mv", (x,)))
            break

    is_godel = True
    for x in range(n):
        if algebra.prod[x][x] != x:
            is_godel = False
            witnesses.append(("is_godel", (x,)))
            break

    is_linear = True
    for a in range(n):
        done = False
        for b in range(a + 1, n):
            if not algebra.comparable(a, b):
                is_linear = False
                witnesses.append(("is_linear", (a, b)))
                done = True
                break
        if done:
            break

    mv_or_product = True
    for x in range(n):
        done = False
        for y in range(n):
            if algebra.impl[x][algebra.prod[x][y]] != algebra.join[algebra.neg(x)][y]:
                mv_or_product = False
                witnesses.append(("mv_or_product_identity", (x, y)))
                done = True
                break
        if done:
            break

    return VarietyFlags(is_mv, is_godel, is_linear, mv_or_product, tuple(witnesses))
