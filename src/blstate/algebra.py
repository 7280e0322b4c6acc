"""Finite BL-algebras represented as explicit operation tables.

Elements are dense indices ``0..n-1``; labels are presentation-only.
The lattice order is derived from the meet table (``a <= b`` iff
``meet(a, b) == a``) and cross-checked against the join table while an
algebra is sealed.  A sealed algebra is immutable and safe to share
between threads; every downstream module assumes its input is sealed.
Tables from outside the package are sealed only by ``verify_bl_axioms``;
the package seals quotients and operator images by certificate (a
class map that respects every operation, an image closed under every
operation), since homomorphic images and subalgebras of a BL-algebra
are BL-algebras.

Pointwise laws are data, ``Law`` values: the BL laws of sealing
(``_SEALING``), the operator axioms and preservation (``operators``),
the quotient certificate (``constructors.CONGRUENT``), the pointwise
claims of ``suite`` and the four laws of ``classify_variety``.  A law's
lambda is its per-tuple evaluator (``witness``), which names the
lexicographically first failing tuple.
``holds`` is the one place that picks a route: a law with a row kernel
(``Law.rows``) is decided by that kernel on ``bytes`` rows on a carrier
of at most 256 elements (each table row then fits in ``bytes``), and
every other law per tuple.  Either route decides a law alone, on tables
that may be unsealed: ``find_axiom_violation`` wraps the candidate
tables of a seal in an unsealed ``FiniteBLAlgebra`` and runs
``violation``, which scans only a failing law for its witness, over the
groups of ``_SEALING`` in the documented order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial, wraps
from itertools import chain, compress, product as iproduct, repeat, starmap
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
    prelinearity.  Re-evaluating the named axiom at ``witness`` must fail.
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


def translation(row: bytes) -> bytes:
    """``row`` padded to 256 bytes, a table for ``bytes.translate``: it
    maps each value v < len(row) to ``row[v]``."""
    return row + bytes(256 - len(row))


def as_table(rows: Iterable[Iterable[int]]) -> Table:
    return tuple(tuple(map(int, row)) for row in rows)


def _check_shape(labels, tables: dict[str, Table], bottom: int, top: int) -> None:
    n = len(labels)
    if n == 0:
        raise ValueError("empty carrier")
    if len(set(labels)) != n:
        raise ValueError("labels must be distinct")
    for name, t in tables.items():
        if len(t) != n or any(map(n.__ne__, map(len, t))):
            raise ValueError(f"{name} table must be {n}x{n}")
        if min(map(min, t)) < 0 or max(map(max, t)) >= n:
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

    @cached_property
    def oplus_table(self) -> Table:
        neg = self.neg_table  # row x: y -> neg(prod(neg x, neg y))
        return tuple(tuple(map(neg.__getitem__, map(self.prod[v].__getitem__, neg))) for v in neg)

    def dist(self, x: int, y: int) -> int:
        return self.prod[self.impl[x][y]][self.impl[y][x]]

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

    # -- misc -----------------------------------------------------------

    @cached_property
    def idempotents(self) -> tuple[int, ...]:
        return tuple(x for x in range(self.size) if self.prod[x][x] == x)

    @cached_property
    def byte_rows(self) -> tuple[tuple[bytes, ...], ...]:
        """meet, join, prod, impl and the order (``leq`` as 0 and 1) with
        every row as ``bytes``: the one format of the row kernels of the
        laws (``Law.rows``), for carriers of at most 256 elements.
        """
        rows = tuple(tuple(map(bytes, t)) for t in (self.meet, self.join, self.prod, self.impl))
        leq = tuple(m.translate(translation(bytes(x) + b"\1")) for x, m in enumerate(rows[0]))
        return (*rows, leq)

    @cached_property
    def padded_rows(self) -> tuple[tuple[bytes, ...], ...]:
        """``byte_rows`` with every row a ``translation`` table:
        ``u.translate(row)`` is ``u`` through the row."""
        return tuple(tuple(map(translation, rows)) for rows in self.byte_rows)

    @cached_property
    def flat_rows(self) -> tuple[bytes, ...]:
        """Each table of ``byte_rows`` as one ``bytes``, row after row."""
        return tuple(map(b"".join, self.byte_rows))

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
    labels = tuple(map(str, labels))
    tables = dict(zip(("meet", "join", "prod", "impl"), map(as_table, (meet, join, prod, impl))))
    _check_shape(labels, tables, bottom, top)
    bad = find_axiom_violation(*tables.values(), bottom, top)
    if bad is not None:
        raise BLAxiomError(bad)
    return FiniteBLAlgebra(len(labels), labels, *tables.values(), bottom, top)


def residuum_from_monoid(leq: Sequence[Sequence[bool]], prod: Iterable[Iterable[int]]) -> Table:
    """Compute impl(a,b) = max{z : prod(a,z) <= b} for every pair.

    Raises ``NoResiduumError`` when some candidate set has no maximum,
    i.e. the monoid is not residuated with respect to the given order.
    Each candidate set is read in C.  In an order only the candidate with
    the most elements below it can be the maximum; the ascending scan
    for one runs only when that candidate is not.
    """
    prod_t = as_table(prod)
    rng = range(len(prod_t))
    below = [[row[b] for row in leq] for b in rng]  # below[b][w]: w <= b
    height = list(map(sum, below))
    out = []
    for a in rng:
        row = []
        for b in rng:
            candidates = list(compress(rng, map(below[b].__getitem__, prod_t[a])))
            best = max(candidates, key=height.__getitem__, default=None)
            if best is None or not all(map(below[best].__getitem__, candidates)):
                best = next((z for z in candidates if all(leq[w][z] for w in candidates)), None)
            if best is None:
                raise NoResiduumError(a, b)
            row.append(best)
        out.append(tuple(row))
    return tuple(out)


# ---------------------------------------------------------------------------
# pointwise laws and their evaluators (see the module docstring)


# eq=False: laws are constants, hashed by identity as memo keys
@dataclass(frozen=True, eq=False)
class Law:
    """``check`` holds at every tuple of elements; ``text`` names a failure.

    ``check`` is a lambda whose single-letter parameters (x, y, c, d)
    are the variables, after the others: ``t``, the operator table, and
    any other name an attribute of the algebra (``neg`` and ``oplus``
    read ``neg_table`` and ``oplus_table``).  Called with the tables and
    elements it is the per-tuple evaluator.  ``rows``, if given, is the
    law's row kernel: ``rows(a, t)`` decides the law on an
    algebra of at most 256 elements (at the operator table ``t``, None for
    a law that does not read it) with ``bytes`` rows, reading the tables
    exactly as ``check`` does.  A kernel decides its law alone, assuming
    no other law, so ``a`` may hold unsealed tables (sealing's candidate).
    """

    text: str
    check: Callable
    rows: Callable | None = None


def _parameters(check: Callable) -> tuple[frozenset[str], int]:
    """The table names ``check`` reads and its number of variables."""
    code = check.__code__
    names = code.co_varnames[: code.co_argcount]
    variables = sum(len(name) == 1 and name != "t" for name in names)
    return frozenset(names[: len(names) - variables]), variables


_mask = partial(int.from_bytes, byteorder="little")  # a 0/1 byte row as a bit mask


def _pairs(table: Table) -> tuple:
    """``table`` (n x n) as ``_pairwise`` reads it: ``(times, groups)``.
    With ``w = 256 // n``, ``times`` maps a value r to ``r % w * n``, and
    each group ``(select, lookup)`` covers w rows: ``select`` marks the
    values r of the group, and ``lookup`` is those rows flattened."""
    n = len(table)
    w = 256 // n
    return translation(bytes(v % w * n for v in range(n))), [
        (translation(bytes(v // w == h // w for v in range(n))),
         translation(b"".join(map(bytes, table[h:h + w]))))
        for h in range(0, n, w)
    ]


def _pairwise(pairs: tuple, r: bytes, u: bytes) -> bytes:
    """``T[r[i]][u[i]]`` for every i, from ``pairs = _pairs(T)``: the byte
    ``r[i] % w * n + u[i]`` codes the pair, and each group of w values of
    ``r`` reads its own lookup table."""
    times, groups = pairs
    codes = (_mask(r.translate(times)) + _mask(u)).to_bytes(len(r), "little")
    if len(groups) == 1:
        return codes.translate(groups[0][1])
    out = 0
    for select, lookup in groups:
        out |= _mask(codes.translate(lookup)) & _mask(r.translate(select)) * 255
    return out.to_bytes(len(r), "little")


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


@memoized
def _bind(algebra: FiniteBLAlgebra, law: Law) -> tuple[Callable, int]:
    """``(bind, k)``: ``bind(t)`` is the law's ``check`` with the tables
    of ``algebra`` and the operator table ``t`` filled in, a predicate on
    one tuple of ``k`` elements."""
    code = law.check.__code__
    k = _parameters(law.check)[1]
    names = code.co_varnames[: code.co_argcount - k]
    tables = [_table(algebra, p) for p in names if p != "t"]
    instance = partial(law.check, *tables)
    bind = (lambda t: partial(law.check, t, *tables)) if "t" in names else (lambda t: instance)
    return bind, k


def holds(law: Law, algebra: FiniteBLAlgebra, table: Sequence[int] | None = None) -> bool:
    """Whether ``law`` holds (at the operator ``table``).

    The one place that picks a route: a law with a row kernel is decided
    by that kernel on at most 256 elements, and every other law, or one
    on a larger carrier, by the per-tuple evaluator.  Both routes decide
    the law alone, on tables that may be unsealed.
    """
    if law.rows is not None and algebra.size <= 256:
        return law.rows(algebra, table)
    bind, k = _bind(algebra, law)
    return all(starmap(bind(table), iproduct(range(algebra.size), repeat=k)))


def witness(
    law: Law, algebra: FiniteBLAlgebra, table: Sequence[int] | None = None
) -> tuple[int, ...] | None:
    """The lexicographically first tuple where ``law`` fails, or None:
    the per-tuple evaluator, the oracle of the row kernels."""
    bind, k = _bind(algebra, law)
    pred = bind(table)
    tuples = iproduct(range(algebra.size), repeat=k)
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


# ---------------------------------------------------------------------------
# the BL laws of sealing: each row kernel reads the tables by their index
# in ``byte_rows`` (meet 0, join 1, prod 2, impl 3, leq 4), and their
# ``padded_rows`` and ``flat_rows``, built once per candidate, and decides
# its law alone, as the candidate tables are not sealed; ``t`` is unused


_ZERO = b"\1" + bytes(255)  # translation table: 1 at a zero byte, else 0


def _picked(rows: Sequence[bytes], by: Iterable[bytes]) -> Iterable[bytes]:
    """For each row of ``by``, the rows of ``rows`` it picks, joined."""
    return map(b"".join, map(map, repeat(rows.__getitem__), by))


def _columns(a: FiniteBLAlgebra, k: int) -> tuple[bytes, ...]:
    """The columns of the k-th table of ``byte_rows``."""
    flat, n = a.flat_rows[k], a.size
    return tuple(flat[c::n] for c in range(n))


def _equal(u: bytes, v: bytes) -> bytes:
    """1 where the bytes of ``u`` and ``v`` agree, else 0."""
    return (_mask(u) ^ _mask(v)).to_bytes(len(u), "little").translate(_ZERO)


def _associative_rows(k: int, a: FiniteBLAlgebra, t) -> bool:
    # for each x, over the (y, z) grid: T(x, T(y, z)) is the flat table
    # through row x, T(T(x, y), z) the rows that row x picks
    rows = a.byte_rows[k]
    through = map(a.flat_rows[k].translate, a.padded_rows[k])
    return all(map(bytes.__eq__, through, _picked(rows, rows)))


def _absorption_rows(outer: int, inner: int, a: FiniteBLAlgebra, t) -> bool:
    # for each x, over y: row x of inner through row x of outer is x
    through = map(bytes.translate, a.byte_rows[inner], a.padded_rows[outer])
    return b"".join(through) == _grid(a.size, 2)[0]


def _one_order_rows(a: FiniteBLAlgebra, t) -> bool:
    # meet(x, y) == x against join(x, y) == y, over the (x, y) grid
    xs, ys = _grid(a.size, 2)
    return _equal(a.flat_rows[0], xs) == _equal(a.flat_rows[1], ys)


def _adjointness_rows(a: FiniteBLAlgebra, t) -> bool:
    # for each z, over the (x, y) grid: leq[z][impl[x][y]] is the flat impl
    # table through row z of leq, leq[prod[x][z]][y] the rows of leq that
    # column z of prod picks
    through = map(a.flat_rows[3].translate, a.padded_rows[4])
    return all(map(bytes.__eq__, through, _picked(a.byte_rows[4], _columns(a, 2))))


def _prelinearity_rows(a: FiniteBLAlgebra, t) -> bool:
    # join[impl[x][y]][impl[y][x]] over the (x, y) grid, one _pairwise lookup
    both = _pairwise(_pairs(a.join), a.flat_rows[3], b"".join(_columns(a, 3)))
    return both == bytes((a.top,)) * (a.size * a.size)


# the BL laws in scan order, in groups of laws over the same variables
_SEALING = (
    ("lattice", (
        Law("meet not commutative", lambda meet, x, y: meet[x][y] == meet[y][x],
            lambda a, t: a.byte_rows[0] == _columns(a, 0)),
        Law("join not commutative", lambda join, x, y: join[x][y] == join[y][x],
            lambda a, t: a.byte_rows[1] == _columns(a, 1)),
    )),
    ("lattice", (
        Law("meet not associative",
            lambda meet, x, y, z: meet[meet[x][y]][z] == meet[x][meet[y][z]],
            partial(_associative_rows, 0)),
        Law("join not associative",
            lambda join, x, y, z: join[join[x][y]][z] == join[x][join[y][z]],
            partial(_associative_rows, 1)),
    )),
    ("lattice", (
        Law("absorption meet(a, join(a,b)) != a",
            lambda meet, join, x, y: meet[x][join[x][y]] == x, partial(_absorption_rows, 0, 1)),
        Law("absorption join(a, meet(a,b)) != a",
            lambda meet, join, x, y: join[x][meet[x][y]] == x, partial(_absorption_rows, 1, 0)),
    )),
    ("lattice", (
        Law("bottom is not the least element", lambda meet, bottom, x: meet[bottom][x] == bottom,
            lambda a, t: a.byte_rows[0][a.bottom] == bytes((a.bottom,)) * a.size),
        Law("top is not the greatest element", lambda join, top, x: join[top][x] == top,
            lambda a, t: a.byte_rows[1][a.top] == bytes((a.top,)) * a.size),
    )),
    ("lattice", (Law("meet/join induce different orders",
                     lambda meet, join, x, y: (meet[x][y] == x) == (join[x][y] == y),
                     _one_order_rows),)),
    ("monoid", (Law("prod not commutative", lambda prod, x, y: prod[x][y] == prod[y][x],
                    lambda a, t: a.byte_rows[2] == _columns(a, 2)),)),
    ("monoid", (Law("prod not associative",
                    lambda prod, x, y, z: prod[prod[x][y]][z] == prod[x][prod[y][z]],
                    partial(_associative_rows, 2)),)),
    # column top of prod is the identity
    ("monoid", (Law("top is not the monoid unit", lambda prod, top, x: prod[x][top] == x,
                    lambda a, t: a.flat_rows[2][a.top::a.size] == bytes(range(a.size))),)),
    # z <= impl(x, y) iff prod(x, z) <= y
    ("adjointness", (Law("", lambda meet, prod, impl, x, y, z: (
        (meet[z][impl[x][y]] == z) == (meet[prod[x][z]][y] == prod[x][z])), _adjointness_rows),)),
    # row x of impl through row x of prod is row x of meet
    ("divisibility", (Law("", lambda meet, prod, impl, x, y: meet[x][y] == prod[x][impl[x][y]],
                          lambda a, t: tuple(map(bytes.translate, a.byte_rows[3],
                                                 a.padded_rows[2])) == a.byte_rows[0]),)),
    ("prelinearity", (Law("", lambda join, impl, top, x, y: join[impl[x][y]][impl[y][x]] == top,
                          _prelinearity_rows),)),
)


def find_axiom_violation(
    meet: Table, join: Table, prod: Table, impl: Table, bottom: int, top: int
) -> AxiomViolation | None:
    """First failure of the BL laws in the documented scan order, or None.

    The tables must be n x n with entries, ``bottom`` and ``top`` in
    ``range(n)`` (``verify_bl_axioms`` checks this first).  The failing
    law's text is the ``detail``.
    """
    candidate = FiniteBLAlgebra(len(meet), (), meet, join, prod, impl, bottom, top)
    for axiom, laws in _SEALING:
        found = violation(laws, candidate)
        if found is not None:
            return AxiomViolation(axiom, found[1], found[0].text)
    return None


@dataclass(frozen=True)
class VarietyFlags:
    """Identity-based classification of a sealed algebra.

    A false flag carries the first witness tuple in ``witnesses``.
    """

    is_mv: bool
    is_godel: bool
    is_linear: bool
    witnesses: tuple[tuple[str, tuple[int, ...]], ...]


_VARIETY_LAWS = {
    "is_mv": Law("x-- = x", lambda neg, x: neg[neg[x]] == x),
    "is_godel": Law("x*x = x", lambda prod, x: prod[x][x] == x),
    # the failing pairs are symmetric, so the first one has x < y
    "is_linear": Law("x <= y or y <= x for x < y",
                     lambda leq, x, y: x == y or leq[x][y] or leq[y][x]),
}


@memoized
def classify_variety(algebra: FiniteBLAlgebra) -> VarietyFlags:
    """Check x--=x, x^2=x and linearity pointwise."""
    found = {flag: violation(law, algebra) for flag, law in _VARIETY_LAWS.items()}
    return VarietyFlags(
        *(found[flag] is None for flag in _VARIETY_LAWS),
        tuple((flag, f[1]) for flag, f in found.items() if f is not None),
    )
