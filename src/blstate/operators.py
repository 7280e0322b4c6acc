"""State operators: verification, exhaustive enumeration, families.

An operator is a total unary map given as a value table.  ``verify_operator``
grades a table into the classes none / state / strong / morphism and
records a witness for each failed class.  ``enumerate_operator_tables``
finds every operator of a class by backtracking that propagates the
class's axioms instance by instance: each equational axiom is unrolled
into static instances ``s[l] == T[s[a]][s[b]]``, and an instance checks
or forces ``s[l]`` as soon as ``s[a]`` and ``s[b]`` are assigned.

Two pairs of routes are kept on purpose as independent cross-checks that
must agree: the pruned enumerator vs ``brute_force_operator_tables`` (an
unpruned, vectorized numpy oracle sharing none of its machinery; it
lives in the tests, ``tests/oracles.py``, so numpy is no runtime
dependency), and, in each of ``state_filter_generated`` and
``state_filter_generated_ext``, the closure formula (a union of the
algebra's cached upset rows) vs the plain closure ``filter_generated``
under sigma, which both closures share.
State-filters, their maximal members and Rad_sigma are the filter
family, maximal filters and radical of ``filters`` with the operator
table as ``sigma``; the maximality cross-check (inclusion vs the power
criterion on sigma-images) lives there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product as iproduct
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .algebra import FiniteBLAlgebra, InternalCheckError, classify_variety, verify_bl_axioms
from .constructors import (
    direct_product,
    mv_chain,
    ordinal_sum,
    ordinal_summand_slices,
    preservation_witness,
)
from .filters import (
    classify_algebra,
    filter_generated,
    filter_violation,
    maximal_filters,
    radical,
    state_filters,
)


class ShapeMismatchError(Exception):
    pass


class NotMVError(Exception):
    pass


class NotAStateFilterError(Exception):
    pass


# operator axiom identifiers; "3s" is the strong variant of axiom 3,
# "6" is product preservation, "7" is impl preservation
OPERATOR_AXIOMS = ("1", "2", "3", "3s", "4", "5", "6", "7")

AXIOM_TEXT = {
    "1": "sigma(bottom) = bottom",
    "2": "sigma(x->y) = sigma(x) -> sigma(x^y)",
    "3": "sigma(x*y) = sigma(x) * sigma(x -> x*y)",
    "3s": "sigma(x*y) = sigma(x) * sigma(-x v y)",
    "4": "sigma(sigma(x) * sigma(y)) = sigma(x) * sigma(y)",
    "5": "sigma(sigma(x) -> sigma(y)) = sigma(x) -> sigma(y)",
    "6": "sigma(x*y) = sigma(x) * sigma(y)",
    "7": "sigma(x->y) = sigma(x) -> sigma(y)",
}


def axiom_witness(
    algebra: FiniteBLAlgebra, table: Sequence[int], axiom: str
) -> tuple[int, ...] | None:
    """First pair (lexicographic) violating the axiom, or None."""
    s = table
    meet, prod, impl = algebra.meet, algebra.prod, algebra.impl
    if axiom == "1":
        return None if s[algebra.bottom] == algebra.bottom else (algebra.bottom,)
    if axiom == "6":
        return preservation_witness(s, prod, prod)
    if axiom == "7":
        return preservation_witness(s, impl, impl)
    for x, y in iproduct(range(algebra.size), repeat=2):
        if axiom == "2":
            ok = s[impl[x][y]] == impl[s[x]][s[meet[x][y]]]
        elif axiom == "3":
            ok = s[prod[x][y]] == prod[s[x]][s[impl[x][prod[x][y]]]]
        elif axiom == "3s":
            ok = s[prod[x][y]] == prod[s[x]][s[algebra.join[algebra.neg(x)][y]]]
        elif axiom == "4":
            t = prod[s[x]][s[y]]
            ok = s[t] == t
        elif axiom == "5":
            t = impl[s[x]][s[y]]
            ok = s[t] == t
        else:
            raise ValueError(f"unknown axiom {axiom}")
        if not ok:
            return (x, y)
    return None


CLASS_AXIOMS = {
    "state": ("1", "2", "3", "4", "5"),
    "strong": ("1", "2", "3s", "4", "5"),
    "morphism": ("1", "2", "4", "5", "6"),
}


def satisfies_class(algebra: FiniteBLAlgebra, table: Sequence[int], cls: str) -> bool:
    if cls == "endomorphism":
        return is_endomorphism(algebra, table)
    return all(axiom_witness(algebra, table, a) is None for a in CLASS_AXIOMS[cls])


def is_endomorphism(algebra: FiniteBLAlgebra, table: Sequence[int]) -> bool:
    s = table
    if s[algebra.bottom] != algebra.bottom or s[algebra.top] != algebra.top:
        return False
    return all(
        preservation_witness(s, t, t) is None
        for t in (algebra.meet, algebra.join, algebra.prod, algebra.impl)
    )


@dataclass(frozen=True)
class StateOperator:
    """A graded unary operator on a sealed algebra.

    ``verified_class`` is the strongest fully-holding class; the
    ``witnesses`` tuple records the first failing pair for every axiom
    that does not hold everywhere.
    """

    algebra: FiniteBLAlgebra
    table: tuple[int, ...]
    is_state: bool
    is_strong: bool
    is_morphism: bool
    preserves_impl: bool
    witnesses: tuple[tuple[str, tuple[int, ...]], ...]

    @property
    def verified_class(self) -> str:
        if self.is_morphism:
            return "morphism"
        if self.is_strong:
            return "strong"
        if self.is_state:
            return "state"
        return "none"

    def witness_for(self, axiom: str) -> tuple[int, ...] | None:
        for name, w in self.witnesses:
            if name == axiom:
                return w
        return None

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

    @cached_property
    def sealed_image(self) -> tuple[FiniteBLAlgebra, Mapping[int, int], tuple[int, ...]]:
        """(image, pos, fixed) of ``operator_image``, sealed on first use."""
        if not self.is_state:
            raise ValueError("image extraction requires a verified state operator")
        fixed = self.fixed_points
        if frozenset(fixed) != frozenset(self.table):
            raise InternalCheckError("fixed points differ from the raw image")
        pos = {orig: i for i, orig in enumerate(fixed)}
        a = self.algebra

        def restrict(table):
            return [[pos[table[x][y]] for y in fixed] for x in fixed]

        image = verify_bl_axioms(
            [a.labels[x] for x in fixed],
            restrict(a.meet),
            restrict(a.join),
            restrict(a.prod),
            restrict(a.impl),
            pos[a.bottom],
            pos[a.top],
        )
        return image, MappingProxyType(pos), fixed

    def __repr__(self) -> str:
        return f"StateOperator({self.verified_class}, {self.table})"


def identity_table(algebra: FiniteBLAlgebra) -> tuple[int, ...]:
    return tuple(range(algebra.size))


def verify_operator(algebra: FiniteBLAlgebra, table: Sequence[int]) -> StateOperator:
    """Grade a map into its strongest operator class, verdict-carrying.

    Also asserts the proved implication chain morphism => strong =>
    state on the computed verdicts; a breach would mean the checker
    itself is wrong, so it raises ``InternalCheckError``.
    """
    t = tuple(int(v) for v in table)
    if len(t) != algebra.size or any(not (0 <= v < algebra.size) for v in t):
        raise ValueError("operator table must be total on the carrier")
    witnesses = []
    holds = {}
    for ax in OPERATOR_AXIOMS:
        w = axiom_witness(algebra, t, ax)
        holds[ax] = w is None
        if w is not None:
            witnesses.append((ax, w))
    is_state = all(holds[a] for a in CLASS_AXIOMS["state"])
    is_strong = all(holds[a] for a in CLASS_AXIOMS["strong"])
    is_morphism = all(holds[a] for a in CLASS_AXIOMS["morphism"])
    if is_morphism and not is_strong:
        raise InternalCheckError("morphism operator failed the strong axioms")
    if is_strong and not is_state:
        raise InternalCheckError("strong operator failed the state axioms")
    if is_state:
        for x in range(algebra.size):
            if t[t[x]] != t[x]:
                raise InternalCheckError("verified operator is not idempotent")
    if holds["7"] and is_state and not is_morphism:
        raise InternalCheckError("impl-preserving state operator must preserve prod")
    return StateOperator(
        algebra=algebra,
        table=t,
        is_state=is_state,
        is_strong=is_strong,
        is_morphism=is_morphism,
        preserves_impl=holds["7"],
        witnesses=tuple(witnesses),
    )


# ---------------------------------------------------------------------------
# enumeration


@dataclass
class EnumerationStats:
    """Search counters of ``enumerate_operator_tables``."""

    nodes: int = 0  # search-tree nodes visited, leaves included
    leaves: int = 0  # complete tables reached
    rejected: int = 0  # leaves refused by the full re-check


# (l, a, b, k): the equation s[l] == T[s[a]][s[b]], T the k-th of
# meet, join, prod, impl
_Instance = tuple[int, int, int, int]


def _watch_lists(algebra: FiniteBLAlgebra, cls: str) -> list[list[_Instance]]:
    """Static axiom instances ``s[l] == T[s[a]][s[b]]`` of the class.

    Entry ``w`` lists the instances with ``max(a, b) == w``: once ``w`` is
    assigned, both arguments are known, so ``l`` is either checked or
    forced.  Every instance is an equation of the class's own axioms,
    which makes pruning on it sound.  Arguments of the commutative meet,
    join and prod are sorted, so mirrored instances are kept once.
    """
    meet, join, prod, impl = algebra.meet, algebra.join, algebra.prod, algebra.impl
    neg, leq = algebra.neg_table, algebra.leq
    tables = (meet, join, prod, impl)
    keys: set[_Instance] = set()

    def add(l: int, a: int, b: int, k: int) -> None:
        if k != 3 and b < a:  # impl (k == 3) is the one that does not commute
            a, b = b, a
        # on comparable arguments a meet, join or impl instance says only
        # s[a] <= s[b] (or the reverse), which the monotonicity check enforces
        if k != 2 and (leq[a][b] or (k != 3 and leq[b][a])):
            return
        keys.add((l, a, b, k))

    for x, y in iproduct(range(algebra.size), repeat=2):
        if cls == "endomorphism":
            for k, t in enumerate(tables):
                add(t[x][y], x, y, k)
            continue
        add(impl[x][y], x, meet[x][y], 3)  # axiom 2
        if cls == "state":
            add(prod[x][y], x, impl[x][prod[x][y]], 2)  # axiom 3
        elif cls == "strong":
            add(prod[x][y], x, join[neg[x]][y], 2)  # axiom 3s
        else:
            add(prod[x][y], x, y, 2)  # axiom 6
    watches: list[list[_Instance]] = [[] for _ in range(algebra.size)]
    for key in sorted(keys):
        watches[max(key[1], key[2])].append(key)
    return watches


def _enumerate_backtrack(
    algebra: FiniteBLAlgebra,
    cls: str,
    watches: list[list[_Instance]],
    stats: EnumerationStats,
) -> list[tuple[int, ...]]:
    """The backtracking search over the class's watched instances."""
    n = algebra.size
    meet, join, prod, impl = algebra.meet, algebra.join, algebra.prod, algebra.impl
    tables = (meet, join, prod, impl)
    leq = algebra.leq
    neg = algebra.neg_table
    fixpointy = cls != "endomorphism"

    assign: list[int | None] = [None] * n
    forced: list[int | None] = [None] * n
    results: list[tuple[int, ...]] = []

    def force(e: int, v: int, trail: list[int]) -> bool:
        cur = assign[e]
        if cur is not None:
            return cur == v
        if forced[e] is not None:
            return forced[e] == v
        forced[e] = v
        trail.append(e)
        return True

    def consequences(e: int, v: int, trail: list[int]) -> bool:
        for u in range(e):
            su = assign[u]
            if leq[u][e] and not leq[su][v]:
                return False
            if leq[e][u] and not leq[v][su]:
                return False
        if not force(neg[e], neg[v], trail):
            return False
        for l, a, b, k in watches[e]:
            if not force(l, tables[k][assign[a]][assign[b]], trail):
                return False
        if fixpointy:
            if not force(v, v, trail):
                return False
            for u in range(e + 1):
                su = assign[u]
                for z in (prod[su][v], impl[su][v], impl[v][su], meet[su][v], join[su][v]):
                    if not force(z, z, trail):
                        return False
        return True

    root_trail: list[int] = []
    ok = force(algebra.bottom, algebra.bottom, root_trail) and force(
        algebra.top, algebra.top, root_trail
    )
    if not ok:
        return []

    def descend(e: int) -> None:
        stats.nodes += 1
        if e == n:
            stats.leaves += 1
            t = tuple(assign)  # type: ignore[arg-type]
            if satisfies_class(algebra, t, cls):
                results.append(t)
            else:
                stats.rejected += 1
            return
        candidates = (forced[e],) if forced[e] is not None else range(n)
        for v in candidates:
            trail: list[int] = []
            assign[e] = v
            if consequences(e, v, trail):
                descend(e + 1)
            assign[e] = None
            for idx in trail:
                forced[idx] = None

    descend(0)
    return results


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
    (axioms 2 and 3 for ``state``, 2 and 3s for ``strong``, 2 and 6 for
    ``morphism``, preservation of meet, join, prod and impl for
    ``endomorphism``).  An instance is watched at ``max(a, b)``: when
    that element is assigned, ``s[l]`` is checked if already assigned
    and forced otherwise.  The pruner also uses consequences proved for
    every operator of the class: bottom and top are fixed, the map is
    monotone, negations map to negated images, and (for the three state
    classes) every image value is a fixed point whose pairwise
    meet/join/prod/impl closure consists of fixed points; that closure
    covers the value-dependent axioms 4 and 5.  Every leaf is re-checked
    against the full axiom set.  ``brute_force_operator_tables`` in
    ``tests/oracles.py`` shares none of this machinery and is the
    deliberately independent cross-check.

    The search runs single-threaded.  ``stats``, when given, receives
    the node, leaf and rejected-leaf counts.
    """
    # ``workers`` stays only for perfbench, which passes workers=1; drop both together
    if workers != 1:
        raise ValueError(f"workers must be 1, got {workers!r}")
    if cls not in ("state", "strong", "morphism", "endomorphism"):
        raise ValueError(f"unknown operator class {cls!r}")
    if stats is None:
        stats = EnumerationStats()
    return _enumerate_backtrack(algebra, cls, _watch_lists(algebra, cls), stats)


def enumerate_state_operators(
    algebra: FiniteBLAlgebra, cls: str = "state"
) -> list[StateOperator]:
    if cls == "endomorphism":
        raise ValueError("endomorphism tables are not graded; use enumerate_operator_tables")
    return [verify_operator(algebra, t) for t in enumerate_operator_tables(algebra, cls)]


# ---------------------------------------------------------------------------
# kernels and state filters


def kernel_and_faithfulness(op: StateOperator) -> tuple[frozenset[int], bool, bool]:
    """Kernel state-filter, faithfulness, radical-faithfulness."""
    ker = op.kernel
    if filter_violation(op.algebra, ker) is not None:
        raise InternalCheckError("operator kernel is not a filter")
    if any(op.table[x] not in ker for x in ker):
        raise InternalCheckError("operator kernel is not closed under the operator")
    rad = radical(op.algebra)
    radical_faithful = all(
        x in rad for x in range(op.algebra.size) if op.table[x] in rad
    )
    return ker, op.is_faithful, radical_faithful


def state_filter_generated(
    algebra: FiniteBLAlgebra, op: StateOperator, seed: Iterable[int]
) -> frozenset[int]:
    """Least state-filter containing ``seed`` (Prop. 5.4).

    Computed twice: by the closure formula (the union of the upsets of
    the submonoid generated by the elements x * sigma(x), x in seed) and
    by the plain closure ``filter_generated`` under sigma.  The two must
    agree.
    """
    xs = sorted(set(seed))
    if not xs:
        raise ValueError("seed must be nonempty")
    prod = algebra.prod

    gens = {prod[x][op.table[x]] for x in xs}
    monoid = set(gens)
    frontier = set(gens)
    while frontier:
        new = set()
        for a in frontier:
            for g in gens:
                p = prod[a][g]
                if p not in monoid:
                    new.add(p)
        monoid |= new
        frontier = new
    by_formula = frozenset().union(*map(algebra.upsets.__getitem__, monoid))

    by_closure = filter_generated(algebra, xs, op.table)
    if by_formula != by_closure:
        raise InternalCheckError(
            f"state-filter closure mismatch: formula {sorted(by_formula)}"
            f" vs fixpoint {sorted(by_closure)}"
        )
    return by_formula


def state_filter_generated_ext(
    algebra: FiniteBLAlgebra, op: StateOperator, members: frozenset[int], a: int
) -> frozenset[int]:
    """Least state-filter containing the state-filter ``members`` and ``a``.

    Computed twice: by the extension formula (the union of the upsets of
    i * g^n, i in ``members``, n >= 1, g = a * sigma(a)) and by the same
    plain closure as ``state_filter_generated``.  The two must agree.
    """
    if members not in state_filters(algebra, op.table):
        raise NotAStateFilterError(f"{sorted(members)} is not a state-filter")
    prod = algebra.prod
    powers = algebra.power_values(prod[a][op.table[a]])
    products = {prod[i][p] for i in members for p in powers}
    by_formula = frozenset().union(*map(algebra.upsets.__getitem__, products))
    if by_formula != filter_generated(algebra, members | {a}, op.table):
        raise InternalCheckError("state-filter extension closure mismatch")
    return by_formula


# ---------------------------------------------------------------------------
# image subalgebra and the class-level theorems


def operator_image(
    op: StateOperator,
) -> tuple[FiniteBLAlgebra, Mapping[int, int], tuple[int, ...]]:
    """The image subalgebra on the fixed points of a verified operator.

    Returns (image algebra, original->image index map, image->original).
    Fixed points are relabeled in ascending original order.  The image
    is sealed once per operator (``StateOperator.sealed_image``) and the
    same tuple is returned on every call; its index map is read-only.
    """
    return op.sealed_image


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
    image: FiniteBLAlgebra
    image_to_original: tuple[int, ...]
    checks: tuple[CheckOutcome, ...]

    def failed(self) -> tuple[CheckOutcome, ...]:
        return tuple(c for c in self.checks if c.holds is False)


def classify_state_algebra(
    algebra: FiniteBLAlgebra, op: StateOperator
) -> StateAlgebraClassification:
    """Image, kernel and radical data plus the class-level theorem checks.

    Biconditionals are asserted only under their stated hypotheses
    (state-morphism operator, radical-faithfulness); the perfect-algebra
    equivalence is evaluated for every state operator but a mismatch is
    logged as a discrepancy rather than failed.
    """
    image, pos, fixed = operator_image(op)
    ker, faithful, radical_faithful = kernel_and_faithfulness(op)
    base = classify_algebra(algebra)
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
        image=image,
        image_to_original=fixed,
        checks=tuple(checks),
    )


# ---------------------------------------------------------------------------
# operator families on shaped algebras


@dataclass(frozen=True)
class ChainProductSum:
    """S_n stacked under a product of MV-chains, with coordinate maps.

    ``algebra`` is ordinal_sum([mv_chain(n), mv_chain(d_1) x ... x mv_chain(d_k)]).
    ``chain_ids`` lists the global ids of the bottom chain (without the
    shared top); ``upper_ids`` the global ids of the top summand
    including the shared top.  ``local_zero`` is the least element of
    the top summand.
    """

    algebra: FiniteBLAlgebra
    chain_len: int
    dims: tuple[int, ...]
    chain_ids: tuple[int, ...]
    upper_ids: tuple[int, ...]
    local_zero: int
    coord_of: tuple[tuple[int, ...], ...]  # upper_ids order -> coordinates
    id_of_coord: dict[tuple[int, ...], int]

    @property
    def top(self) -> int:
        return self.algebra.top

    def idempotent_of_subset(self, js: frozenset[int]) -> int:
        """The idempotent with coordinate d_i on js and 0 elsewhere."""
        coord = tuple(self.dims[i] if i in js else 0 for i in range(len(self.dims)))
        return self.id_of_coord[coord]


def chain_product_sum(n: int, dims: Sequence[int]) -> ChainProductSum:
    """Build S_n + (S_d1 x ... x S_dk) with its coordinate bookkeeping."""
    dims = tuple(int(d) for d in dims)
    if n < 1 or not dims or any(d < 1 for d in dims):
        raise ShapeMismatchError("need n >= 1 and at least one chain factor")
    chain = mv_chain(n)
    upper = mv_chain(dims[0])
    sizes = [dims[0] + 1]
    for d in dims[1:]:
        upper = direct_product(upper, mv_chain(d))
        sizes.append(d + 1)
    algebra = ordinal_sum([chain, upper])
    slices = ordinal_summand_slices([chain, upper])
    chain_ids = tuple(slices[0][:-1])
    upper_ids = tuple(slices[1])

    # local index in the product -> coordinate tuple (row-major nesting)
    def coords(local: int) -> tuple[int, ...]:
        out = []
        for size in reversed(sizes[1:]):
            local, r = divmod(local, size)
            out.append(r)
        out.append(local)
        return tuple(reversed(out))

    upper_local = list(range(upper.size))
    coord_list = []
    id_map: dict[tuple[int, ...], int] = {}
    for local, global_id in zip(upper_local, upper_ids[:-1]):
        c = coords(local)
        coord_list.append(c)
        id_map[c] = global_id
    top_coord = coords(upper.size - 1)
    coord_list.append(top_coord)
    id_map[top_coord] = algebra.top
    local_zero = id_map[tuple(0 for _ in dims)]
    return ChainProductSum(
        algebra=algebra,
        chain_len=n,
        dims=dims,
        chain_ids=chain_ids,
        upper_ids=upper_ids,
        local_zero=local_zero,
        coord_of=tuple(coord_list),
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
    """On a linear Godel chain: keep x <= a, send the rest to top."""
    if not (algebra.is_linear and all(algebra.prod[x][x] == x for x in range(algebra.size))):
        raise ShapeMismatchError("requires a linear chain with idempotent product")
    return tuple(x if algebra.le(x, a) else algebra.top for x in range(algebra.size))


def godel_strict_floor_table(algebra: FiniteBLAlgebra, a: int) -> tuple[int, ...]:
    """On a linear Godel chain: keep x < a, send the rest to top."""
    if a == algebra.bottom:
        raise ShapeMismatchError("a must not be the bottom element")
    if not (algebra.is_linear and all(algebra.prod[x][x] == x for x in range(algebra.size))):
        raise ShapeMismatchError("requires a linear chain with idempotent product")
    return tuple(
        x if algebra.le(x, a) and x != a else algebra.top for x in range(algebra.size)
    )


# ---------------------------------------------------------------------------
# MV equivalence


def mv_axiom_witness(
    algebra: FiniteBLAlgebra, table: Sequence[int], axiom: str
) -> tuple[int, ...] | None:
    """MV-operator axioms evaluated with the derived oplus/ominus."""
    s = table
    a = algebra
    if axiom == "mv1":
        return None if s[a.top] == a.top else (a.top,)
    for x, y in iproduct(range(a.size), repeat=2):
        if axiom == "mv2":
            ok = s[a.neg(x)] == a.neg(s[x])
            if not ok:
                return (x,)
            continue
        if axiom == "mv3":
            ok = s[a.oplus(x, y)] == a.oplus(s[x], s[a.ominus(y, a.prod[x][y])])
        elif axiom == "mv4":
            t = a.oplus(s[x], s[y])
            ok = s[t] == t
        else:
            raise ValueError(axiom)
        if not ok:
            return (x, y)
    return None


MV_AXIOMS = ("mv1", "mv2", "mv3", "mv4")


@dataclass(frozen=True)
class MVEquivalenceReport:
    bl_state: bool
    mv_state: bool
    strong: bool
    additive_on_orthogonal: bool
    witnesses: tuple[tuple[str, tuple[int, ...]], ...]


def mv_equivalence_check(algebra: FiniteBLAlgebra, table: Sequence[int]) -> MVEquivalenceReport:
    """Compare the MV-operator axioms with the BL-operator axioms.

    Requires an MV carrier (x-- = x everywhere).  For maps passing both,
    also checks strongness and additivity on orthogonal pairs.
    """
    if not classify_variety(algebra).is_mv:
        raise NotMVError("carrier does not satisfy double-negation")
    t = tuple(int(v) for v in table)
    witnesses = []
    mv_ok = True
    for ax in MV_AXIOMS:
        w = mv_axiom_witness(algebra, t, ax)
        if w is not None:
            mv_ok = False
            witnesses.append((ax, w))
    op = verify_operator(algebra, t)
    bl_ok = op.is_state
    if bl_ok != mv_ok:
        raise InternalCheckError(
            f"MV and BL axiom sets disagree on {t}: bl={bl_ok} mv={mv_ok}"
        )
    strong = op.is_strong
    if bl_ok and not strong:
        raise InternalCheckError("state operator on an MV carrier must be strong")
    additive = True
    if bl_ok:
        for x, y in iproduct(range(algebra.size), repeat=2):
            if not algebra.orthogonal(x, y):
                continue
            lhs = t[algebra.oplus(x, y)]
            rhs = algebra.oplus(t[x], t[y])
            if lhs != rhs:
                additive = False
                witnesses.append(("additivity", (x, y)))
                break
    return MVEquivalenceReport(
        bl_state=bl_ok,
        mv_state=mv_ok,
        strong=strong,
        additive_on_orthogonal=additive,
        witnesses=tuple(witnesses),
    )
