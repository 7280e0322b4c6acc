"""State operators: verification, exhaustive enumeration, families.

An operator is a total unary map given as a value table.  ``verify_operator``
finds the axioms a table fails, and ``StateOperator`` keeps only those:
its classes (state / strong / morphism, else none) are read off them
through ``CLASS_AXIOMS``, and the witness of each failed axiom is named
when it is first read.  The axioms (``AXIOM_LAWS``) and the
preservation of each operation (``PRESERVES``, which ``is_endomorphism``
reads) are ``algebra.Law`` data, each with a row kernel that decides it
on whole rows with ``bytes.translate`` (axiom 1 reads one entry):
``algebra.holds`` decides, and ``algebra.witness`` scans only to name a
witness.  The MV-operator axioms and additivity (``MV_LAWS``,
``ADDITIVITY``) have no kernel: the per-tuple evaluator decides them.

``enumerate_operator_tables`` finds every operator of a class by
backtracking that propagates the class's axioms instance by instance;
its docstring argues each prune.  The instances ``s[l] ==
T[s[a]][s[b]]`` are generated from the order, each once, through BL
identities such as x -> y = x -> (x ^ y) (``_watch_lists``).  The
monotone bounds of a node read only the maximal earlier elements below
it and the minimal ones above it, and every leaf is re-checked by the
row kernels.  The search keeps the lexicographically least table of
each automorphism orbit (a lex-leader constraint, after Crawford,
Ginsberg, Luks and Roy, "Symmetry-breaking predicates for search
problems", KR 1996): ``automorphisms`` returns generators of the
carrier's automorphism group, memoized on it, and a leaf's orbit is
built by C-level gathers (``operator.itemgetter``), then expanded.
``state_strong_gap`` compares the state and strong classes for
``blstate search-nonstrong`` and ``scripts/search_nonstrong.py``.
The class ``mv``, on an MV carrier only, finds the maps that satisfy
Flaminio and Montagna's MV internal-state axioms (``MV_LAWS``): its
instances are those of mv3, in the derived ``oplus``, and its leaves
are re-checked by ``MV_LAWS`` through ``holds``.  Prop-3.13 of the
suite compares its tables with the state tables as sets.

Two pairs of routes are kept on purpose as independent cross-checks that
must agree: the pruned enumerator vs ``brute_force_operator_tables`` (an
unpruned, vectorized numpy oracle sharing none of its machinery; it
lives in the tests, ``tests/oracles.py``, so numpy is no runtime
dependency), and, in ``state_filter_closures``, the Prop-5.4 formula
vs the filter lattice: ``filter_generated_masks`` under sigma, the
meet of the sigma-closed upsets of idempotents that contain the seed.
The kernel checks every seed of an operator in one pass on ``int``
bitmasks.  It evaluates the formula (the union of the upsets of the
monoid generated by the x * sigma(x)) at the monoid's least element,
the product of the idempotent powers of the generators: every member
of the monoid lies above it, so its upset is the whole union.  The
literal closure of the monoid is the test oracle
(``tests/oracles.py``).  ``state_filter_generated`` is its one-seed
wrapper, which no command calls; ``perfbench/layers.json`` traces it.
State-filters, their maximal members and Rad_sigma are the filter
family, maximal filters and radical of ``filters`` with the operator
table as ``sigma``; the maximality cross-check (inclusion vs the power
criterion on sigma-images) lives there.  ``operator_image`` is the one
implementation of the image subalgebra: built once per operator and
memoized on it, it is what ``classify_state_algebra``, the states and
the command line read.

A function of a verified operator takes the operator alone, which
carries its algebra (``op.algebra``): ``operator_image``,
``state_filter_closures``, ``state_filter_generated`` and
``classify_state_algebra``, which is memoized on the operator too.  Its
``CheckOutcome``s are the one outcome type of the suite's check
contract (``suite``): ``holds`` True passes, False fails and None is a
logged discrepancy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from itertools import compress, product as iproduct
from operator import index, itemgetter
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .algebra import (
    FiniteBLAlgebra,
    InternalCheckError,
    Law,
    classify_variety,
    holds,
    memoized,
    translation,
    violation,
    witness,
)
from .constructors import (
    direct_product,
    mv_chain,
    ordinal_sum,
    ordinal_summand_slices,
)
from .filters import (
    classify_algebra,
    filter_generated_masks,
    filter_masks,
    mask_members,
    maximal_filters,
    radical,
    state_filters,
)


class ShapeMismatchError(Exception):
    pass


class NotMVError(Exception):
    pass


# operator axiom identifiers; "3s" is the strong variant of axiom 3,
# "6" is product preservation, "7" is impl preservation
OPERATOR_AXIOMS = ("1", "2", "3", "3s", "4", "5", "6", "7")


def _sigma(t: Sequence[int]) -> tuple[bytes, bytes]:
    """``(row, s)`` for the row kernels: sigma as ``bytes``, and the same
    as a ``translation`` table, so ``r.translate(s)`` maps a whole row
    ``r`` through sigma (as the kernels of the BL laws compose tables).
    The kernels read the rows of the carrier padded once per carrier
    (``padded_rows``) and its flat tables (``flat_rows``)."""
    row = bytes(t)
    return row, translation(row)


def _axiom_2_rows(a: FiniteBLAlgebra, t: Sequence[int]) -> bool:
    row, s = _sigma(t)
    meet, _, _, impl, _ = a.byte_rows
    through = a.padded_rows[3]
    return all(
        impl[x].translate(s) == meet[x].translate(s).translate(through[v])
        for x, v in enumerate(row)
    )


def _axiom_3_rows(a: FiniteBLAlgebra, t: Sequence[int]) -> bool:
    row, s = _sigma(t)
    prod = a.byte_rows[2]
    _, _, through_prod, through_impl, _ = a.padded_rows
    return all(
        prod[x].translate(s)
        == prod[x].translate(through_impl[x]).translate(s).translate(through_prod[v])
        for x, v in enumerate(row)
    )


def _axiom_3s_rows(a: FiniteBLAlgebra, t: Sequence[int]) -> bool:
    row, s = _sigma(t)
    _, join, prod, _, _ = a.byte_rows
    through = a.padded_rows[2]
    neg = a.neg_table
    return all(
        prod[x].translate(s) == join[neg[x]].translate(s).translate(through[v])
        for x, v in enumerate(row)
    )


def _closed(k: int, a: FiniteBLAlgebra, t: Sequence[int]) -> bool:
    """The kernel of axiom 4 (k = 2, prod) or 5 (k = 3, impl): T(sigma(x),
    sigma(y)) is a fixed point, for each image value sigma(x)."""
    row, s = _sigma(t)
    through = a.padded_rows[k]
    return all((u := row.translate(through[v])).translate(s) == u for v in set(row))


def _preserved(k: int, a: FiniteBLAlgebra, t: Sequence[int]) -> bool:
    """The kernel of preserving the k-th of meet, join, prod and impl: the
    flat table through sigma equals, row x after row x, sigma through
    row sigma(x)."""
    row, s = _sigma(t)
    return a.flat_rows[k].translate(s) == b"".join(
        map(row.translate, map(a.padded_rows[k].__getitem__, row))
    )


# preservation of each operation; is_endomorphism reads all four
PRESERVES = {
    "meet": Law("sigma(x^y) = sigma(x) ^ sigma(y)",
                lambda t, meet, x, y: t[meet[x][y]] == meet[t[x]][t[y]], partial(_preserved, 0)),
    "join": Law("sigma(x v y) = sigma(x) v sigma(y)",
                lambda t, join, x, y: t[join[x][y]] == join[t[x]][t[y]], partial(_preserved, 1)),
    "prod": Law("sigma(x*y) = sigma(x) * sigma(y)",
                lambda t, prod, x, y: t[prod[x][y]] == prod[t[x]][t[y]], partial(_preserved, 2)),
    "impl": Law("sigma(x->y) = sigma(x) -> sigma(y)",
                lambda t, impl, x, y: t[impl[x][y]] == impl[t[x]][t[y]], partial(_preserved, 3)),
}

AXIOM_LAWS = {
    "1": Law("sigma(bottom) = bottom", lambda t, bottom, x: x != bottom or t[x] == x,
             lambda a, t: t[a.bottom] == a.bottom),
    "2": Law("sigma(x->y) = sigma(x) -> sigma(x^y)",
             lambda t, meet, impl, x, y: t[impl[x][y]] == impl[t[x]][t[meet[x][y]]],
             _axiom_2_rows),
    "3": Law("sigma(x*y) = sigma(x) * sigma(x -> x*y)",
             lambda t, prod, impl, x, y: t[prod[x][y]] == prod[t[x]][t[impl[x][prod[x][y]]]],
             _axiom_3_rows),
    "3s": Law("sigma(x*y) = sigma(x) * sigma(-x v y)",
              lambda t, join, prod, neg, x, y: t[prod[x][y]] == prod[t[x]][t[join[neg[x]][y]]],
              _axiom_3s_rows),
    "4": Law("sigma(sigma(x) * sigma(y)) = sigma(x) * sigma(y)",
             lambda t, prod, x, y: t[prod[t[x]][t[y]]] == prod[t[x]][t[y]], partial(_closed, 2)),
    "5": Law("sigma(sigma(x) -> sigma(y)) = sigma(x) -> sigma(y)",
             lambda t, impl, x, y: t[impl[t[x]][t[y]]] == impl[t[x]][t[y]], partial(_closed, 3)),
    "6": PRESERVES["prod"],
    "7": PRESERVES["impl"],
}


IDEMPOTENT = Law("idempotence at {}", lambda t, x: t[t[x]] == t[x])

CLASS_AXIOMS = {
    "state": ("1", "2", "3", "4", "5"),
    "strong": ("1", "2", "3s", "4", "5"),
    "morphism": ("1", "2", "4", "5", "6"),
}


def satisfies_class(algebra: FiniteBLAlgebra, table: Sequence[int], cls: str) -> bool:
    if cls == "endomorphism":
        return is_endomorphism(algebra, table)
    if cls == "mv":
        return all(holds(law, algebra, table) for law in MV_LAWS.values())
    return all(holds(AXIOM_LAWS[ax], algebra, table) for ax in CLASS_AXIOMS[cls])


def is_endomorphism(algebra: FiniteBLAlgebra, table: Sequence[int]) -> bool:
    return (
        table[algebra.bottom] == algebra.bottom
        and table[algebra.top] == algebra.top
        and all(holds(law, algebra, table) for law in PRESERVES.values())
    )


@dataclass(frozen=True)
class StateOperator:
    """A graded unary operator on a sealed algebra.

    ``failed`` lists the axioms of ``OPERATOR_AXIOMS`` that do not hold
    everywhere, and the operator's class is a function of it: ``classes``
    holds each class of ``CLASS_AXIOMS`` none of whose axioms failed, read
    once per operator, and ``verified_class`` is the strongest of them.
    ``witnesses`` names the first failing tuple of each failed axiom.
    """

    algebra: FiniteBLAlgebra
    table: tuple[int, ...]
    failed: tuple[str, ...]

    @cached_property
    def classes(self) -> frozenset[str]:
        failed = set(self.failed)
        return frozenset(c for c, axioms in CLASS_AXIOMS.items() if failed.isdisjoint(axioms))

    is_state = property(lambda op: "state" in op.classes)
    is_strong = property(lambda op: "strong" in op.classes)
    is_morphism = property(lambda op: "morphism" in op.classes)
    preserves_impl = property(lambda op: "7" not in op.failed)

    @property
    def verified_class(self) -> str:
        return next((c for c in ("morphism", "strong", "state") if c in self.classes), "none")

    @cached_property
    def witnesses(self) -> tuple[tuple[str, tuple[int, ...]], ...]:
        return tuple((ax, witness(AXIOM_LAWS[ax], self.algebra, self.table)) for ax in self.failed)

    def __call__(self, x: int) -> int:
        return self.table[x]

    @cached_property
    def kernel(self) -> frozenset[int]:
        return frozenset(x for x in range(self.algebra.size) if self.table[x] == self.algebra.top)

    @cached_property
    def fixed_points(self) -> tuple[int, ...]:
        return tuple(x for x in range(self.algebra.size) if self.table[x] == x)

    @property
    def is_faithful(self) -> bool:
        return self.kernel == frozenset({self.algebra.top})

    def __repr__(self) -> str:
        return f"StateOperator({self.verified_class}, {self.table})"


def identity_table(algebra: FiniteBLAlgebra) -> tuple[int, ...]:
    return tuple(range(algebra.size))


def verify_operator(algebra: FiniteBLAlgebra, table: Sequence[int]) -> StateOperator:
    """Grade a map: the operator of the axioms it fails.

    Then asserts, on the classes read off those axioms, the proved
    implication chain morphism => strong => state, that a state
    operator is idempotent, and that an impl-preserving one preserves
    prod; a breach would mean the checker itself is wrong, so it raises
    ``InternalCheckError``.
    """
    try:
        t = tuple(map(index, table))
    except TypeError:
        raise ValueError("operator table has a non-integral entry") from None
    if len(t) != algebra.size or any(not (0 <= v < algebra.size) for v in t):
        raise ValueError("operator table must be total on the carrier")
    op = StateOperator(
        algebra, t, tuple(ax for ax in OPERATOR_AXIOMS if not holds(AXIOM_LAWS[ax], algebra, t))
    )
    if op.is_morphism and not op.is_strong:
        raise InternalCheckError("morphism operator failed the strong axioms")
    if op.is_strong and not op.is_state:
        raise InternalCheckError("strong operator failed the state axioms")
    if op.is_state and violation(IDEMPOTENT, algebra, t) is not None:
        raise InternalCheckError("verified operator is not idempotent")
    if op.preserves_impl and op.is_state and not op.is_morphism:
        raise InternalCheckError("impl-preserving state operator must preserve prod")
    return op


# ---------------------------------------------------------------------------
# enumeration


@dataclass
class EnumerationStats:
    """Search counters of ``enumerate_operator_tables``."""

    nodes: int = 0  # search-tree nodes visited, leaves included
    leaves: int = 0  # complete tables reached
    rejected: int = 0  # leaves refused by the full re-check
    tried: int = 0  # candidate values tried, one ``consequences`` call each
    orbits: int = 0  # leaves kept: least of their automorphism orbit, in the class


@memoized
def automorphisms(algebra: FiniteBLAlgebra) -> tuple[tuple[int, ...], ...]:
    """Generators of the automorphism group of the carrier, as tables.

    An automorphism is a lattice automorphism, so it permutes the
    join-irreducible elements J (those that are not the join of the
    elements below them) and sends x to the join of the images of the
    members of J below x.  The search assigns the images of J in
    ascending order (the base) and keeps a candidate only if it has the
    same idempotence and the same up-set and down-set sizes, is not yet
    taken, and is ordered against the images assigned so far as its
    element is against theirs.  A completed map must be a bijection that
    ``is_endomorphism`` accepts.

    Generators are found from the last base point back to the first
    (point stabilizers, as in McKay and Piperno's individualization
    search): at base point b, every automorphism found so far fixes the
    points before b, and for each candidate image of b outside the orbit
    those generate, one automorphism that fixes the earlier points and
    sends b there is searched for and, if it exists, kept.  The orbits
    so built are those of the whole group at each level, so the product
    of their lengths is its order, and the whole group is never listed.
    On a chain (|J| = n - 1) only the identity exists: no generator.
    """
    n, leq, join, prod = algebra.size, algebra.leq, algebra.join, algebra.prod
    down = [[u for u in range(n) if leq[u][x]] for x in range(n)]
    base = []
    for x in range(n):  # join-irreducible: the elements strictly below x do not join to x
        lub = algebra.bottom
        for u in down[x]:
            if u != x:
                lub = join[lub][u]
        if lub != x:
            base.append(x)
    if len(base) == n - 1:
        return ()
    key = {j: (prod[j][j] == j, sum(leq[j]), len(down[j])) for j in base}
    candidates = [[c for c in base if key[c] == key[b]] for b in base]
    below = [[i for i, b in enumerate(base) if leq[b][x]] for x in range(n)]

    def fits(images: list[int], c: int) -> bool:
        b = base[len(images)]
        return c not in images and all(
            leq[base[i]][b] == leq[u][c] and leq[b][base[i]] == leq[c][u]
            for i, u in enumerate(images)
        )

    def extend(images: list[int]) -> tuple[int, ...] | None:
        if len(images) == len(base):
            table = [algebra.bottom] * n
            for x in range(n):
                for i in below[x]:
                    table[x] = join[table[x]][images[i]]
            if len(set(table)) == n and is_endomorphism(algebra, table):
                return tuple(table)
            return None
        for c in candidates[len(images)]:
            if fits(images, c):
                images.append(c)
                found = extend(images)
                images.pop()
                if found is not None:
                    return found
        return None

    gens: list[tuple[int, ...]] = []
    for level in reversed(range(len(base))):
        orbit = [base[level]]
        for c in candidates[level]:
            if c in orbit or not fits(base[:level], c):
                continue
            g = extend([*base[:level], c])
            if g is None:
                continue
            gens.append(g)
            for u in orbit:  # the orbit of base[level] under every generator so far
                for h in gens:
                    if h[u] not in orbit:
                        orbit.append(h[u])
    return tuple(gens)


def _leader_orbit(
    t: tuple[int, ...], gens: Sequence[tuple[tuple[int, ...], itemgetter]]
) -> list[tuple[int, ...]] | None:
    """The orbit of the table t under conjugation s -> g.s.g^-1 by the
    generators ``(g, itemgetter(*g^-1))``, or None if a member is smaller
    than t.  A conjugate is two C-level gathers, s.g^-1 off s and g
    through that; a carrier with an automorphism other than the identity
    has at least four elements, so each gather returns a tuple."""
    orbit, seen = [t], {t}
    for s in orbit:
        for g, gather in gens:
            c = itemgetter(*gather(s))(g)
            if c not in seen:
                if c < t:
                    return None
                seen.add(c)
                orbit.append(c)
    return orbit


# (l, a, b, T): the equation s[l] == T[s[a]][s[b]], T one of the tables
# meet, join, prod, impl, and oplus for the class mv
_Instance = tuple[int, int, int, tuple[tuple[int, ...], ...]]


def _watch_lists(algebra: FiniteBLAlgebra, cls: str) -> list[list[_Instance]]:
    """Static axiom instances ``s[l] == T[s[a]][s[b]]`` of the class.

    Entry ``w`` lists the instances with ``max(a, b) == w``: once ``w`` is
    assigned, both arguments are known, so ``l`` is either checked or
    forced.  Every instance is an equation of the class's own axioms,
    which makes pruning on it sound.  Arguments of the commutative meet,
    join, prod and oplus are sorted, so mirrored instances are kept once,
    and instances are ordered by ``(l, a, b, k)``, T the k-th table.  On
    comparable arguments a meet, join or impl instance says only s[a] <=
    s[b] (or the reverse), which monotonicity enforces, so it is left
    out.  Each class's instances are generated from the order:

    - endomorphism: impl on the pairs (x, y) with x not below y, prod on
      the index pairs a <= b, meet and join on the incomparable a < b;
    - axiom 2: x -> y = x -> (x ^ y), and x ^ y is x exactly when x <= y,
      so one instance (x -> m, x, m) per m strictly below x;
    - axiom 3 (state): sigma(x * y) = sigma(x) * sigma(x -> x * y) reads
      only x and p = x * y, so one instance per distinct p in row x;
    - axiom 6 (morphism): prod on the index pairs a <= b;
    - axiom 3s (strong) and mv3 (mv): one pass over the pairs, into a set.
    """
    n, meet, join, prod, impl = algebra.size, algebra.meet, algebra.join, algebra.prod, algebra.impl
    neg, leq = algebra.neg_table, algebra.leq
    tables = (meet, join, prod, impl, algebra.oplus_table if cls == "mv" else None)
    if cls == "endomorphism":
        keys = [(impl[x][y], x, y, 3) for x in range(n) for y in range(n) if not leq[x][y]]
        for b in range(n):
            keys += [(prod[a][b], a, b, 2) for a in range(b + 1)]
            keys += [(T[a][b], a, b, k) for a in range(b) if not (leq[a][b] or leq[b][a])
                     for k, T in ((0, meet), (1, join))]
    elif cls == "mv":  # mv3, in the commuting oplus
        keys = list({(p, x, z, 4) if x <= z else (p, z, x, 4) for x in range(n)
                     for y, p in enumerate(tables[4][x]) for z in (prod[y][neg[prod[x][y]]],)})
    else:
        keys = [(impl[x][m], x, m, 3) for x in range(n) for m in range(n)
                if leq[m][x] and m != x]
        if cls == "state":  # axiom 3 reads only x and p = x * y
            keys += {(p, x, z, 2) if x <= z else (p, z, x, 2)
                     for x in range(n) for p in set(prod[x]) for z in (impl[x][p],)}
        elif cls == "strong":  # axiom 3s
            keys += {(p, x, z, 2) if x <= z else (p, z, x, 2) for x in range(n)
                     for y, p in enumerate(prod[x]) for z in (join[neg[x]][y],)}
        else:  # axiom 6
            keys += [(prod[a][b], a, b, 2) for b in range(n) for a in range(b + 1)]
    keys.sort()
    watches: list[list[_Instance]] = [[] for _ in range(n)]
    for l, a, b, k in keys:
        watches[a if a > b else b].append((l, a, b, tables[k]))
    return watches


def _enumerate_backtrack(
    algebra: FiniteBLAlgebra,
    cls: str,
    watches: list[list[_Instance]],
    stats: EnumerationStats,
) -> list[tuple[int, ...]]:
    """The backtracking search over the class's watched instances.

    ``known[x]`` is x's assigned or forced image, else None.  A trail
    resets only the entries its candidate forced, and ``descend(e)``
    puts back the ``known[e]`` it found.  A node whose ``known`` holds
    no None is a leaf, even when later elements were only forced: their
    watched instances and monotonicity are left to ``satisfies_class``.
    The candidates of an unforced node are listed once in ``intervals``,
    keyed by the monotone interval ``[lo, hi]``, the forced image of the
    negation, ``known[neg[e]]``, and whether e is its own negation; when
    that image is known, only the ``v`` with ``neg[v]`` equal to it are
    kept, and at a negation-fixed e only the negation-fixed ``v``.  A
    forced node's one candidate is its forced image, if that lies in the
    interval.  The image closure runs only for a value new to the path
    (``imaged`` flags the values of ``images``), against those before it.

    ``lo`` joins the images of the maximal earlier elements below e only,
    ``hi`` meets those of the minimal earlier elements above e.  By
    induction on the nodes these are the full join and meet: ``known`` is
    monotone on the earlier elements, as each comparable pair of them was
    checked at its later element's node, and each of them below (above)
    e lies below a maximal (above a minimal) one.  No order of the
    indices is assumed, not even a linear extension.

    ``descend(e, leads)`` carries the generators g whose conjugate
    g.s.g^-1 the node has not yet compared with s, each with the first
    position p it could not decide; the positions before p agree.  After
    a candidate's consequences succeed, each resumes at its p: a
    conjugate entry smaller than s's, where ``known`` fixes both, prunes
    the candidate, and a larger one drops g from the subtree (with none
    left, nothing resumes).  A leaf that is not the least table of its
    orbit under the generated group is dropped before ``satisfies_class``
    runs and is not counted; a kept leaf that passes adds its orbit."""
    n, meet, join, prod, impl = algebra.size, algebra.meet, algebra.join, algebra.prod, algebra.impl
    leq, neg = algebra.leq, algebra.neg_table
    bits, up = [1 << u for u in range(n)], algebra.upset_masks  # bit u of up[x]: x <= u
    down = [sum(compress(bits, column)) for column in zip(*leq)]
    # the maximal earlier elements below each element, the minimal above it
    below = [[u for u in range(e) if up[u] & down[e] & (1 << e) - 1 == 1 << u] for e in range(n)]
    above = [[u for u in range(e) if down[u] & up[e] & (1 << e) - 1 == 1 << u] for e in range(n)]
    intervals: dict[tuple[int, int, int | None, bool], list[int]] = {}

    known: list[int | None] = [None] * n
    known[algebra.bottom] = algebra.bottom
    known[algebra.top] = algebra.top
    gens = [(g, tuple(sorted(range(n), key=g.__getitem__))) for g in automorphisms(algebra)]
    gathers = [(g, itemgetter(*inverse)) for g, inverse in gens]
    images: list[int] = []  # the distinct image values on the path, in order
    imaged = [cls == "endomorphism"] * n  # an endomorphism has no image closure
    results: list[tuple[int, ...]] = []

    def consequences(e: int, v: int, new_image: bool, trail: list[int]) -> bool:
        x, w = neg[e], neg[v]
        if (cur := known[x]) is None:
            known[x] = w
            trail.append(x)
        elif cur != w:
            return False
        for l, a, b, T in watches[e]:
            w = T[known[a]][known[b]]
            if (cur := known[l]) is None:
                known[l] = w
                trail.append(l)
            elif cur != w:
                return False
        # a repeated image value adds no pair to the closure: the pairs of
        # earlier image values were forced when their later member appeared,
        # and those entries of known stay set until that member is left
        if new_image:
            if (cur := known[v]) is None:
                known[v] = v
                trail.append(v)
            elif cur != v:
                return False
            for u in images:  # v is the last of them
                for z in (prod[u][v], impl[u][v], impl[v][u], meet[u][v], join[u][v]):
                    if (cur := known[z]) is None:
                        known[z] = z
                        trail.append(z)
                    elif cur != z:
                        return False
        return True

    def undecided(parent: list[tuple]) -> list[tuple] | None:
        left = []
        for g, inverse, p in parent:
            while p < n:
                if (x := known[p]) is None or (y := known[inverse[p]]) is None:
                    left.append((g, inverse, p))
                    break
                if g[y] != x:
                    if g[y] < x:
                        return None
                    break
                p += 1
        return left

    def descend(e: int, leads: list[tuple]) -> None:
        stats.nodes += 1
        if None not in known:
            t = tuple(known)  # type: ignore[arg-type]
            if (orbit := _leader_orbit(t, gathers)) is None:
                return
            stats.leaves += 1
            if satisfies_class(algebra, t, cls):
                results.extend(orbit)
                stats.orbits += 1
            else:
                stats.rejected += 1
            return
        lo, hi = algebra.bottom, algebra.top
        for u in below[e]:
            lo = join[lo][known[u]]
        for u in above[e]:
            hi = meet[hi][known[u]]
        entry = known[e]
        m, fixed = known[neg[e]], neg[e] == e
        if entry is not None:
            candidates = (entry,) if leq[lo][entry] and leq[entry][hi] else ()
        elif (candidates := intervals.get((lo, hi, m, fixed))) is None:
            candidates = intervals[lo, hi, m, fixed] = [
                v for v in range(n) if leq[lo][v] and leq[v][hi]
                and (neg[v] == v if fixed else m is None or neg[v] == m)
            ]
        stats.tried += len(candidates)
        for v in candidates:
            trail: list[int] = []
            known[e] = v
            new_image = not imaged[v]
            if new_image:
                images.append(v)
                imaged[v] = True
            if consequences(e, v, new_image, trail):
                if (left := leads and undecided(leads)) is not None:
                    descend(e + 1, left)
            if new_image:
                images.pop()
                imaged[v] = False
            for x in trail:
                known[x] = None
        known[e] = entry

    descend(0, [(g, inverse, 0) for g, inverse in gens])
    return sorted(results)


def enumerate_operator_tables(
    algebra: FiniteBLAlgebra,
    cls: str = "state",
    *,
    workers: int = 1,
    stats: EnumerationStats | None = None,
) -> list[tuple[int, ...]]:
    """All operator tables of the class, in lexicographic order.

    Backtracking assigns images in ascending element order and
    propagates the class axioms instance by instance.  Each axiom is
    unrolled once per call into static instances ``s[l] == T[s[a]][s[b]]``
    (``_watch_lists``: axioms 2 and 3 for ``state``, 2 and 3s for
    ``strong``, 2 and 6 for ``morphism``, preservation of meet, join,
    prod and impl for ``endomorphism``, and for ``mv`` only mv3 of
    ``MV_LAWS``, ``s[x + y] == s[x] + s[y * -(x * y)]`` with T the derived
    ``oplus``), each watched at ``max(a, b)``: when that element is
    assigned, ``s[l]`` is checked if already assigned and forced
    otherwise.  The pruner also uses consequences proved for every
    operator of the class: bottom and top are fixed, the map is
    monotone, negations map to negated images, and (for the three state
    classes and ``mv``) every image value is a fixed point whose pairwise
    meet/join/prod/impl closure consists of fixed points; that closure
    covers the value-dependent axioms 4 and 5.  For ``mv`` these are
    theorems of Flaminio and Montagna: an MV internal state is monotone
    and idempotent, and its image is an MV-subalgebra.  So every prune is
    sound for it: the fixed top is mv1, the negation step is mv2 itself,
    and the closure enforces mv4 (x + y is -x -> y).  ``mv`` needs an MV
    carrier (else ``NotMVError``).  A table is a leaf as soon as every
    entry is assigned or forced, and every leaf is re-checked against
    the full axiom set (``satisfies_class``), decided on whole tables, or
    for ``mv`` by ``MV_LAWS`` through ``holds``; it rejects the complete
    tables that an instance watched at a later element would have
    pruned.  ``brute_force_operator_tables`` in ``tests/oracles.py``
    shares none of this machinery and is the deliberately independent
    cross-check.

    The search keeps only the lexicographically least table of each
    orbit under conjugation s -> g.s.g^-1 by the automorphisms g of the
    carrier (``automorphisms``): a node is pruned when a generator's
    conjugate is already smaller on the entries the node knows, and a
    leaf is kept only if no member of its orbit is smaller.  The result
    is the sorted union of the kept tables' orbits, which is exactly the
    list the search finds without this pruning.  The class is closed
    under conjugation, since an automorphism preserves meet, join, prod,
    impl and the bounds, in which every class axiom is an equation (and
    the derived oplus of ``mv``).  So each orbit lies wholly in the class
    or outside it, and every table of the class lies in the orbit of its
    least member.  That member is reached: the search without this
    pruning reaches every table of the class, and no prune fires on its
    path, because ``known`` holds only entries that every completion of
    a node shares, so a conjugate smaller on them would be smaller than
    the member itself.  Orbits are disjoint, so no table is listed twice.

    The search runs single-threaded.  ``stats``, when given, receives
    the node, leaf, rejected-leaf, tried-candidate and kept-orbit counts;
    a leaf that is not the least of its orbit is not counted as a leaf.
    """
    # ``workers`` stays only for perfbench, which passes workers=1; drop both together
    if workers != 1:
        raise ValueError(f"workers must be 1, got {workers!r}")
    if cls not in ("state", "strong", "morphism", "endomorphism", "mv"):
        raise ValueError(f"unknown operator class {cls!r}")
    if cls == "mv" and not classify_variety(algebra).is_mv:
        raise NotMVError("the class mv needs an MV carrier (x-- = x everywhere)")
    if stats is None:
        stats = EnumerationStats()
    return _enumerate_backtrack(algebra, cls, _watch_lists(algebra, cls), stats)


def enumerate_state_operators(algebra: FiniteBLAlgebra) -> list[StateOperator]:
    """Every state operator of the carrier, graded, in lexicographic table order."""
    return [verify_operator(algebra, t) for t in enumerate_operator_tables(algebra)]


def state_strong_gap(
    algebra: FiniteBLAlgebra,
) -> tuple[int, int, list[tuple[tuple[int, ...], tuple[int, ...]]]]:
    """The state operators that are not strong, which may not exist.

    Returns the numbers of state and of strong operators, and each state
    table that is not strong with the first pair where axiom 3s fails.
    """
    state = enumerate_operator_tables(algebra, "state")
    strong = set(enumerate_operator_tables(algebra, "strong"))
    gap = [(t, witness(AXIOM_LAWS["3s"], algebra, t)) for t in state if t not in strong]
    return len(state), len(strong), gap


# ---------------------------------------------------------------------------
# state filters


def state_filter_closures(
    op: StateOperator,
    seeds: Iterable[Iterable[int]],
    extensions: Iterable[tuple[int, int]],
) -> list[int]:
    """Least state-filters of many seeds at once, as bitmasks (Prop. 5.4).

    ``seeds`` are nonempty sets of elements, and an empty seed or an
    element out of range raises ``ValueError``; ``extensions`` are pairs
    (f, a) of a state-filter bitmask f and an element a, standing for
    the seed f + {a}; a pair whose f is not a state-filter of ``op`` or
    whose a is out of range raises ``ValueError`` naming the pair.
    Each is computed twice and the two must agree:
    by the Prop-5.4 formula and by the filter lattice
    (``filter_generated_masks`` under sigma).  The result lists the
    seeds' masks, then the extensions'.

    The formula is read at the least element of the monoid.  For each
    x, e_x is the idempotent power of g_x = x * sigma(x), the last of
    its distinct powers.  Powers descend, so every product of powers
    of the g_x, x in a seed, lies above the product of the e_x, which
    is itself such a product.  So the union of the upsets of the
    generated monoid is the upset of that one element.  Likewise a
    state-filter f is the upset of its least element m, and the union
    of the upsets of i * g_a^n (i in f, n >= 1) is the upset of
    m * e_a.
    """
    algebra, table = op.algebra, op.table
    prod, up, n = algebra.prod, algebra.upset_masks, algebra.size
    power_values, top = algebra.power_values, algebra.top
    idem = [power_values(prod[x][table[x]])[-1] for x in range(n)]
    formula, masks = [], []
    for seed in seeds:
        least, mask = top, 0
        for x in seed:
            if not 0 <= x < n:
                raise ValueError("seed element out of range")
            least = prod[least][idem[x]]
            mask |= 1 << x
        if not mask:
            raise ValueError("seed must be nonempty")
        formula.append(up[least])
        masks.append(mask)
    n_seeds = len(masks)
    state_masks = filter_masks(algebra, table)
    for f, a in extensions:
        if not 0 <= a < n:
            raise ValueError(f"extension {(f, a)}: element out of range")
        if f not in state_masks:
            raise ValueError(f"extension {(f, a)}: {f:#b} is not a state-filter of the operator")
        formula.append(up[prod[up.index(f)][idem[a]]])
        masks.append(f | 1 << a)
    lattice = filter_generated_masks(algebra, masks, table)
    if formula != lattice:
        k = next(k for k, (f, g) in enumerate(zip(formula, lattice)) if f != g)
        if k >= n_seeds:
            raise InternalCheckError("state-filter extension closure mismatch")
        raise InternalCheckError(
            f"state-filter closure mismatch: formula {sorted(mask_members(formula[k]))}"
            f" vs lattice {sorted(mask_members(lattice[k]))}"
        )
    return formula


def state_filter_generated(op: StateOperator, seed: Iterable[int]) -> frozenset[int]:
    """Least state-filter containing ``seed``, by ``state_filter_closures``."""
    [mask] = state_filter_closures(op, [seed], [])
    return mask_members(mask)


# ---------------------------------------------------------------------------
# image subalgebra and the class-level theorems


@memoized
def operator_image(
    op: StateOperator,
) -> tuple[FiniteBLAlgebra, Mapping[int, int], tuple[int, ...]]:
    """The image subalgebra on the fixed points of a verified operator.

    Returns (image algebra, original->image index map, image->original).
    Fixed points are relabeled in ascending original order.  The image
    is built once per operator and memoized on it, so every call returns
    the same tuple; its index map is read-only.  It is sealed by
    certificate: every restricted entry and both bounds are fixed points
    (else ``InternalCheckError``), so the image is a subalgebra of a
    BL-algebra, hence one.  An operator that fixes every element (the
    identity) has its carrier as image: the same object, whose memos
    then serve the image, with the identity index map.
    """
    if not op.is_state:
        raise ValueError("image extraction requires a verified state operator")
    fixed = op.fixed_points
    if frozenset(fixed) != frozenset(op.table):
        raise InternalCheckError("fixed points differ from the raw image")
    pos = {orig: i for i, orig in enumerate(fixed)}
    a = op.algebra
    if len(fixed) == a.size:
        return a, MappingProxyType(pos), fixed
    try:
        tables = [
            tuple(tuple(pos[table[x][y]] for y in fixed) for x in fixed)
            for table in (a.meet, a.join, a.prod, a.impl)
        ]
        bounds = pos[a.bottom], pos[a.top]
    except KeyError as exc:
        raise InternalCheckError(f"the image is not closed: {exc} is not fixed") from None
    image = FiniteBLAlgebra(len(fixed), tuple(a.labels[x] for x in fixed), *tables, *bounds)
    return image, MappingProxyType(pos), fixed


@dataclass(frozen=True)
class CheckOutcome:
    claim: str
    holds: bool | None  # None marks a logged discrepancy rather than a failure
    witness: str = ""


@dataclass(frozen=True)
class StateAlgebraClassification:
    ssbl_simple: bool
    sssbl_semisimple: bool
    radical_faithful: bool
    ker: frozenset[int]
    rad_sigma: frozenset[int]
    checks: tuple[CheckOutcome, ...]

    def failed(self) -> tuple[CheckOutcome, ...]:
        return tuple(c for c in self.checks if c.holds is False)


@memoized
def classify_state_algebra(op: StateOperator) -> StateAlgebraClassification:
    """Image, kernel and radical data plus the class-level theorem checks.

    Biconditionals are asserted only under their stated hypotheses
    (state-morphism operator, radical-faithfulness); the perfect-algebra
    equivalence is evaluated for every state operator but a mismatch is
    logged as a discrepancy rather than failed.  Memoized on the operator.
    """
    algebra = op.algebra
    image, pos, fixed = operator_image(op)
    ker = op.kernel
    if ker not in state_filters(algebra, op.table):
        raise InternalCheckError("operator kernel is not a state-filter")
    base = classify_algebra(algebra)
    radical_faithful = all(x in base.radical for x in range(algebra.size)
                           if op.table[x] in base.radical)
    img_cls = classify_algebra(image)
    rad_s = radical(algebra, op.table)

    rad_image_orig = frozenset(fixed[z] for z in img_cls.radical)
    sigma_rad = frozenset(op.table[x] for x in base.radical)

    checks: list[CheckOutcome] = []

    def add(claim: str, holds: bool, witness: str = "") -> None:
        checks.append(CheckOutcome(claim, holds, witness))

    # radical comparisons (all state operators)
    add(
        "radical-image-inclusion",
        rad_image_orig <= sigma_rad,
        f"Rad(image)={sorted(rad_image_orig)} sigma(Rad)={sorted(sigma_rad)}",
    )
    if op.is_strong:
        add(
            "radical-image-equality-strong",
            rad_image_orig == sigma_rad,
            f"Rad(image)={sorted(rad_image_orig)} sigma(Rad)={sorted(sigma_rad)}",
        )
    add(
        "radical-sigma-identity",
        frozenset(op.table[x] for x in rad_s) == rad_image_orig,
        f"sigma(rad_sigma)={sorted(op.table[x] for x in rad_s)}",
    )

    ssbl_simple = img_cls.simple
    sssbl_semisimple = img_cls.semisimple

    if op.is_morphism:
        ker_maximal = ker in maximal_filters(algebra)
        add(
            "simple-iff-kernel-maximal",
            ssbl_simple == ker_maximal,
            f"simple={ssbl_simple} ker_maximal={ker_maximal}",
        )
        add(
            "semisimple-iff-radical-in-kernel",
            sssbl_semisimple == (base.radical <= ker),
            f"semisimple={sssbl_semisimple} rad_in_ker={base.radical <= ker}",
        )
        if radical_faithful:
            add(
                "local-iff-image-local",
                base.local == img_cls.local,
                f"local={base.local} image_local={img_cls.local}",
            )
            add(
                "simple-iff-local-and-kernel-radical",
                ssbl_simple == (base.local and ker == base.radical),
                f"simple={ssbl_simple} local={base.local} ker_eq_rad={ker == base.radical}",
            )

    # perfect-algebra equivalence: evaluated for every state operator,
    # discrepancies logged instead of failed
    lhs = base.perfect
    rhs = radical_faithful and img_cls.perfect
    checks.append(
        CheckOutcome(
            "perfect-iff-radical-faithful-and-image-perfect",
            True if lhs == rhs else None,
            f"perfect={lhs} radical_faithful={radical_faithful} image_perfect={img_cls.perfect}",
        )
    )

    return StateAlgebraClassification(
        ssbl_simple=ssbl_simple,
        sssbl_semisimple=sssbl_semisimple,
        radical_faithful=radical_faithful,
        ker=ker,
        rad_sigma=rad_s,
        checks=tuple(checks),
    )


# ---------------------------------------------------------------------------
# operator families on shaped algebras


@dataclass(frozen=True)
class ChainProductSum:
    """S_n stacked under a product of MV-chains, with coordinate maps.

    ``algebra`` is ``ordinal_sum([mv_chain(n), upper])`` with ``upper =
    direct_product(mv_chain(d_1), ..., mv_chain(d_k))``, one k-ary
    product sealed once.  ``chain_ids`` lists the global ids of the
    bottom chain (without the shared top); ``upper_ids`` the global ids
    of the top summand including the shared top, in the row-major order
    of ``upper``.  ``local_zero`` is the least element of the top summand.
    """

    algebra: FiniteBLAlgebra
    dims: tuple[int, ...]
    chain_ids: tuple[int, ...]
    upper_ids: tuple[int, ...]
    local_zero: int
    coord_of: tuple[tuple[int, ...], ...]  # upper_ids order -> coordinates
    id_of_coord: dict[tuple[int, ...], int]

    def idempotent_of_subset(self, js: frozenset[int]) -> int:
        """The idempotent with coordinate d_i on js and 0 elsewhere."""
        coord = tuple(self.dims[i] if i in js else 0 for i in range(len(self.dims)))
        return self.id_of_coord[coord]


def chain_product_sum(n: int, dims: Sequence[int]) -> ChainProductSum:
    """Build S_n + (S_d1 x ... x S_dk) with its coordinate bookkeeping."""
    bad = [d for d in (n, *dims) if not hasattr(type(d), "__index__")]
    if bad:
        raise ShapeMismatchError(f"chain size {bad[0]!r} is not an integer")
    n, dims = index(n), tuple(map(index, dims))
    if n < 1 or not dims or any(d < 1 for d in dims):
        raise ShapeMismatchError("need n >= 1 and at least one chain factor")
    chain = mv_chain(n)
    upper = direct_product(*map(mv_chain, dims))
    algebra = ordinal_sum([chain, upper])
    slices = ordinal_summand_slices([chain, upper])
    chain_ids = tuple(slices[0][:-1])
    upper_ids = tuple(slices[1])  # the last is the shared top
    # the product is row-major: local index -> coordinate tuple
    coord_list = tuple(iproduct(*(range(d + 1) for d in dims)))
    id_map = dict(zip(coord_list, upper_ids))
    return ChainProductSum(
        algebra=algebra,
        dims=dims,
        chain_ids=chain_ids,
        upper_ids=upper_ids,
        local_zero=id_map[tuple(0 for _ in dims)],
        coord_of=coord_list,
        id_of_coord=id_map,
    )


def sigma_j_table(shape: ChainProductSum, js: Iterable[int]) -> tuple[int, ...]:
    """Fix the bottom chain; force coordinates in ``js`` to their caps."""
    js = frozenset(js)
    if any(j < 0 or j >= len(shape.dims) for j in js):
        raise ShapeMismatchError("coordinate index out of range")
    table = list(range(shape.algebra.size))
    for local, global_id in enumerate(shape.upper_ids):
        c = shape.coord_of[local]
        new = tuple(shape.dims[i] if i in js else c[i] for i in range(len(shape.dims)))
        table[global_id] = shape.id_of_coord[new]
    return tuple(table)


def interval_collapse_table(
    algebra: FiniteBLAlgebra, a: int, local_zero: int
) -> tuple[tuple[int, ...], bool]:
    """Collapse [a, 1] to top and [0_1, a*] to 0_1, identity elsewhere.

    ``a`` must be idempotent and lie above ``local_zero``.  Returns the
    table together with a coverage flag: whether the two intervals cover
    everything above ``local_zero``.  The table verifies as a
    state-morphism operator whenever coverage holds; without coverage it
    may fail (the checker decides).
    """
    if algebra.prod[a][a] != a:
        raise ShapeMismatchError("a must be idempotent")
    if not algebra.le(local_zero, a):
        raise ShapeMismatchError("a must lie above the local zero")
    a_star = algebra.impl[a][local_zero]
    table = []
    covered = True
    for x in range(algebra.size):
        if algebra.le(a, x):
            table.append(algebra.top)
        elif algebra.le(local_zero, x) and algebra.le(x, a_star):
            table.append(local_zero)
        else:
            table.append(x)
            if algebra.le(local_zero, x):
                covered = False
    return tuple(table), covered


def godel_floor_table(algebra: FiniteBLAlgebra, a: int) -> tuple[int, ...]:
    """On a linear Godel chain: keep x <= a, send the rest to top.

    The floors at the elements of the chain are all its state operators
    (Ex-4.11).
    """
    if not (algebra.is_linear and all(algebra.prod[x][x] == x for x in range(algebra.size))):
        raise ShapeMismatchError("requires a linear chain with idempotent product")
    return tuple(x if algebra.le(x, a) else algebra.top for x in range(algebra.size))


# ---------------------------------------------------------------------------
# MV internal states


# the MV-operator axioms in the derived oplus and ominus, and additivity
MV_LAWS = {
    "mv1": Law("sigma(1) = 1", lambda t, top, x: x != top or t[x] == x),
    "mv2": Law("sigma(x-) = sigma(x)-", lambda t, neg, x: t[neg[x]] == neg[t[x]]),
    "mv3": Law("sigma(x+y) = sigma(x) + sigma(y - x*y)",
               lambda t, prod, neg, oplus, x, y: (
                   t[oplus[x][y]] == oplus[t[x]][t[prod[y][neg[prod[x][y]]]]])),
    "mv4": Law("sigma(sigma(x) + sigma(y)) = sigma(x) + sigma(y)",
               lambda t, oplus, x, y: t[oplus[t[x]][t[y]]] == oplus[t[x]][t[y]]),
}
ADDITIVITY = Law("sigma(x+y) = sigma(x) + sigma(y) for orthogonal x, y",
                 lambda t, prod, bottom, oplus, x, y: (
                     prod[x][y] != bottom or t[oplus[x][y]] == oplus[t[x]][t[y]]))
