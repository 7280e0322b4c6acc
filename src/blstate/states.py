"""Rational-valued states: verification, extremal states, correspondences.

All arithmetic is exact; no floating point is used anywhere in this
module.  A ``RationalState`` keeps its map as integer numerators ``p``
over one positive denominator ``d`` in lowest terms (``gcd(d, *p) ==
1``), so s(x) = p[x] / d.  Every scan, pull-back, mixture and hull test
runs on those integers, and the linear algebra eliminates fraction-free
on integer rows.  ``fractions.Fraction`` is kept at the edges: parsing
input, the public ``RationalState(algebra, values)`` constructor and its
``values`` (built on first read), the results of ``solve_linear`` and
``convex_coefficients``, and messages.

The Bosbach and Riecan scans are kept on purpose as two independent
routes to "is a state" and must agree on every map; likewise the four
extremality criteria (state-morphism, max-join, Lukasiewicz product,
maximal kernel) must agree on every state.

Each map is checked once per object: a ``RationalState`` caches its
``check_state`` verdict on itself (``verdict``).  The states that
``extremal_states``, ``pull_back_state`` and ``mix_states`` build are
looked up in a per-carrier table keyed by ``(p, d)``, so an equal map
built twice on one carrier is one object and is scanned once.  The table
is a ``weakref.WeakValueDictionary`` kept in the algebra's ``__dict__``:
it holds only states that are alive elsewhere and is freed with the
algebra.  A state built by the public constructor enters no table, so
memory does not grow with the number of distinct maps checked.
``check_state`` and ``convex_coefficients`` read only state objects, and
``pull_back_state`` only a state object of the operator's image, whose
verdict is the cached one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product as iproduct
from operator import mul
from typing import Sequence
from weakref import WeakValueDictionary

from .algebra import FiniteBLAlgebra, InternalCheckError, memoized
from .constructors import quotient_by_filter
from .filters import maximal_filters
from .operators import StateOperator, operator_image

ZERO = Fraction(0)
ONE = Fraction(1)


class NotAStateError(Exception):
    pass


@dataclass(frozen=True, init=False, eq=False, repr=False)
class RationalState:
    """One exact rational value in [0, 1] per carrier element.

    The map is kept as integer numerators ``p`` over the denominator
    ``d``, in lowest terms; ``values`` are its Fractions, built on first
    read.  Two states are equal iff their algebras and values are equal.
    A state is immutable: the objects of the per-carrier table are shared
    and carry their cached verdict, so no attribute may be assigned.
    """

    algebra: FiniteBLAlgebra
    p: tuple[int, ...]
    d: int

    def __init__(self, algebra: FiniteBLAlgebra, values: Sequence[Fraction]):
        vals = tuple(map(Fraction, values))
        if len(vals) != algebra.size:
            raise ValueError("state must assign a value to every element")
        if any(v < 0 or v > 1 for v in vals):
            raise ValueError("state values must lie in [0, 1]")
        p, d = _numerators(vals)
        self.__dict__.update(algebra=algebra, p=p, d=d, values=vals)

    @classmethod
    def _of(cls, algebra: FiniteBLAlgebra, p: tuple[int, ...], d: int) -> RationalState:
        state = cls.__new__(cls)
        state.__dict__.update(algebra=algebra, p=p, d=d)
        return state

    @cached_property
    def values(self) -> tuple[Fraction, ...]:
        d = self.d
        return tuple(Fraction(x, d) for x in self.p)

    def __call__(self, x: int) -> Fraction:
        return Fraction(self.p[x], self.d)

    @cached_property
    def verdict(self) -> StateVerdict:
        """``check_state`` of this map, run on first read and kept on
        this object (and freed with it)."""
        return check_state(self)

    def __eq__(self, other):
        if not isinstance(other, RationalState):
            return NotImplemented
        return (
            self.p == other.p
            and self.d == other.d
            and (self.algebra is other.algebra or self.algebra == other.algebra)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.d))

    def __repr__(self) -> str:
        return "RationalState(" + ", ".join(format_fraction(v) for v in self.values) + ")"


def _numerators(values: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """(p, d) of Fractions: numerators over the least common denominator,
    which is in lowest terms."""
    d = math.lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (d // v.denominator) for v in values), d


def _state(algebra: FiniteBLAlgebra, p: Sequence[int], d: int) -> RationalState:
    """The live state object of the map p/d on this carrier, made on a miss.

    ``p`` and ``d`` are reduced to lowest terms and looked up in the
    carrier's weak table, so an equal map is one object while it lives.
    """
    g = math.gcd(d, *p)
    if g != 1:
        p, d = tuple(x // g for x in p), d // g
    else:
        p = tuple(p)
    table = algebra.__dict__.get("_states")
    if table is None:
        table = algebra.__dict__.setdefault("_states", WeakValueDictionary())
    state = table.get((p, d))
    if state is None:
        state = table[p, d] = RationalState._of(algebra, p, d)
    return state


def format_fraction(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


# ---------------------------------------------------------------------------
# verdicts
#
# The scans below read a candidate map as integer numerators ``p`` over
# one shared denominator ``d`` (s(x) = p[x] / d, d > 0), so every test is
# an exact identity between integers: s(x) == 1 becomes p[x] == d, and
# 1 - s(x) + s(y) becomes d - p[x] + p[y].


def range_witness(p: Sequence[int], d: int):
    """("range", x) for the first value p[x] / d outside [0, 1], or None."""
    if min(p) >= 0 and max(p) <= d:
        return None
    return ("range", next(x for x, v in enumerate(p) if not 0 <= v <= d))


def bosbach_witness(algebra: FiniteBLAlgebra, p: Sequence[int], d: int):
    """First failure of the Bosbach identities, or None.

    A state maps into [0, 1] with s(0)=0 and s(1)=1; these are tested
    first, in that order: bottom, top, range.
    """
    if p[algebra.bottom] != 0:
        return ("bottom",)
    if p[algebra.top] != d:
        return ("top",)
    out = range_witness(p, d)
    if out is not None:
        return out
    impl = algebra.impl
    for x, y in iproduct(range(algebra.size), repeat=2):
        if p[x] + p[impl[x][y]] != p[y] + p[impl[y][x]]:
            return (x, y)
    return None


def riecan_witness(algebra: FiniteBLAlgebra, p: Sequence[int], d: int):
    """First failure of additivity on orthogonal pairs, or None.

    Normalization: both s(0)=0 and s(1)=1 are required, so that the
    constant-zero map does not qualify and the Bosbach equivalence is
    well posed; so is the range [0, 1], as in ``bosbach_witness``.
    """
    if p[algebra.bottom] != 0:
        return ("bottom",)
    if p[algebra.top] != d:
        return ("top",)
    out = range_witness(p, d)
    if out is not None:
        return out
    # x + y = -y -> --x, defined when x and y are orthogonal (x * y = 0)
    impl, neg, bottom = algebra.impl, algebra.neg_table, algebra.bottom
    for x, row in enumerate(algebra.prod):
        nnx, px = neg[neg[x]], p[x]
        for y, xy in enumerate(row):
            if xy == bottom and p[impl[neg[y]][nnx]] != px + p[y]:
                return (x, y)
    return None


def state_morphism_witness(algebra: FiniteBLAlgebra, p: Sequence[int], d: int):
    if p[algebra.bottom] != 0:
        return ("bottom",)
    impl = algebra.impl
    for x, y in iproduct(range(algebra.size), repeat=2):
        if p[impl[x][y]] != min(d - p[x] + p[y], d):
            return (x, y)
    return None


def max_join_witness(algebra: FiniteBLAlgebra, p: Sequence[int]):
    join = algebra.join
    for x, y in iproduct(range(algebra.size), repeat=2):
        if p[join[x][y]] != max(p[x], p[y]):
            return (x, y)
    return None


def luk_mult_witness(algebra: FiniteBLAlgebra, p: Sequence[int], d: int):
    prod = algebra.prod
    for x, y in iproduct(range(algebra.size), repeat=2):
        if p[prod[x][y]] != max(p[x] + p[y] - d, 0):
            return (x, y)
    return None


def kernel_is_maximal_filter(algebra: FiniteBLAlgebra, p: Sequence[int], d: int) -> bool:
    ker = frozenset(x for x in range(algebra.size) if p[x] == d)
    return ker in maximal_filters(algebra)


@dataclass(frozen=True)
class StateVerdict:
    bosbach: bool
    state_morphism: bool
    max_join: bool
    luk_mult: bool
    kernel_maximal: bool
    witnesses: tuple[tuple[str, tuple], ...]

    @property
    def is_state(self) -> bool:
        return self.bosbach

    @property
    def extremal(self) -> bool:
        """All four extremality criteria, which must agree for a state."""
        if not self.bosbach:
            return False
        votes = (self.state_morphism, self.max_join, self.luk_mult, self.kernel_maximal)
        if len(set(votes)) != 1:
            raise InternalCheckError(f"extremality criteria disagree: {votes}")
        return votes[0]


def check_state(state: RationalState) -> StateVerdict:
    """Exhaustive verdict over all pairs; asserts Bosbach iff Riecan.

    The input is a ``RationalState``, read as its numerators ``p`` over
    ``d`` on its algebra; any other input raises ``ValueError``.  All five
    scans and the kernel test run on integers.
    """
    if not isinstance(state, RationalState):
        raise ValueError("check_state takes a RationalState")
    algebra, p, d = state.algebra, state.p, state.d
    wb = bosbach_witness(algebra, p, d)
    wr = riecan_witness(algebra, p, d)
    if (wb is None) != (wr is None):
        raise InternalCheckError(
            f"Bosbach/Riecan verdicts disagree: bosbach={wb} riecan={wr} map={p}/{d}"
        )
    wm = state_morphism_witness(algebra, p, d)
    wj = max_join_witness(algebra, p)
    wl = luk_mult_witness(algebra, p, d)
    named = (("bosbach", wb), ("riecan", wr), ("state_morphism", wm), ("max_join", wj),
             ("luk_mult", wl))
    return StateVerdict(
        bosbach=wb is None,
        state_morphism=wm is None,
        max_join=wj is None,
        luk_mult=wl is None,
        kernel_maximal=kernel_is_maximal_filter(algebra, p, d),
        witnesses=tuple((name, w) for name, w in named if w is not None),
    )


# ---------------------------------------------------------------------------
# extremal states via maximal-filter quotients


@memoized
def extremal_states(algebra: FiniteBLAlgebra) -> tuple[RationalState, ...]:
    """One extremal state per maximal filter, in filter order.

    The quotient by a maximal filter is simple, hence a linear chain;
    ranking its elements embeds it into the rationals as rank/k.  Each
    resulting state is cross-checked to pass all extremality criteria
    (its ``verdict``, which stays cached on it), and distinct filters
    must give distinct states.  The tuple is memoized on the algebra.
    """
    if algebra.size < 2:
        raise ValueError("need at least two elements")
    out: list[RationalState] = []
    for f in maximal_filters(algebra):
        quotient, proj = quotient_by_filter(algebra, f)
        if not quotient.is_linear:
            raise InternalCheckError("maximal-filter quotient is not a chain")
        order = sorted(range(quotient.size), key=lambda c: sum(quotient.leq[c]), reverse=True)
        rank = {c: i for i, c in enumerate(order)}
        st = _state(algebra, [rank[c] for c in proj], quotient.size - 1)
        if not st.verdict.extremal:
            raise InternalCheckError("quotient state failed an extremality criterion")
        if st in out:
            raise InternalCheckError("distinct maximal filters produced equal states")
        out.append(st)
    return tuple(out)


# ---------------------------------------------------------------------------
# exact linear algebra helpers
#
# Elimination runs fraction-free on integer rows: a row is scaled by the
# lcm of its denominators, eliminating subtracts integer multiples, and
# each new row is divided by the gcd of its entries.  Each pivot row ends
# with a positive pivot and zeros in the other pivot columns, so divided
# by its pivot it is a row of the reduced row echelon form, which is
# unique: the results equal those of elimination on Fractions.


def _eliminate(m: list[list[int]], n_cols: int) -> list[int] | None:
    """Gauss-Jordan on the augmented integer rows ``m``, in place.

    Returns the pivot columns, row i holding the positive pivot of
    column ``piv_cols[i]``, or None when the system is inconsistent.
    """
    n_rows = len(m)
    piv_cols: list[int] = []
    r = 0
    for c in range(n_cols):
        piv = next((i for i in range(r, n_rows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        row = m[r]
        a = row[c]
        for i in range(n_rows):
            f = m[i][c]
            if i != r and f:
                new = [a * x - f * y for x, y in zip(m[i], row)]
                g = math.gcd(*new)
                m[i] = [x // g for x in new] if g > 1 else new
        piv_cols.append(c)
        r += 1
        if r == n_rows:
            break
    if any(m[i][n_cols] for i in range(r, n_rows)):
        return None
    for i, c in enumerate(piv_cols):
        if m[i][c] < 0:
            m[i] = [-x for x in m[i]]
    return piv_cols


def solve_linear(
    rows: list[list[Fraction]], rhs: list[Fraction]
) -> tuple[list[Fraction], list[list[Fraction]]] | None:
    """Solve A x = b over the rationals.

    Returns (particular solution, null-space basis) or None when the
    system is inconsistent.
    """
    m = [_numerators([*row, b])[0] for row, b in zip(rows, rhs)]
    n_cols = len(rows[0]) if rows else 0
    piv_cols = _eliminate(m, n_cols)
    if piv_cols is None:
        return None
    particular = [ZERO] * n_cols
    for row, c in zip(m, piv_cols):
        particular[c] = Fraction(row[n_cols], row[c])
    basis = []
    for fc in (c for c in range(n_cols) if c not in piv_cols):
        vec = [ZERO] * n_cols
        vec[fc] = ONE
        for row, c in zip(m, piv_cols):
            vec[c] = Fraction(-row[fc], row[c])
        basis.append(vec)
    return particular, basis


def convex_coefficients(
    points: Sequence[RationalState], target: RationalState
) -> tuple[Fraction, ...] | None:
    """Exact convex-combination coefficients, or None if outside the hull.

    Solves sum(l_i * p_i) = target with sum(l_i) = 1 and l_i >= 0 by
    scanning basic supports; fine for the handfuls of extremal states a
    finite algebra has.  Points and target are ``RationalState``s on one
    carrier (any other input raises ``ValueError``); the supports are
    solved on integer rows.
    """
    if not all(isinstance(s, RationalState) for s in (*points, target)):
        raise ValueError("convex_coefficients takes RationalStates")
    _carrier((target, *points), "points and target must be on one carrier")
    k = len(points)
    if k == 0:
        return None
    maps = [(pt.p, pt.d) for pt in points]
    t, e = target.p, target.d
    # one scale for every column: point j's numerators times lcm / d_j
    scale = math.lcm(e, *(d for _, d in maps))
    columns = [[x * (scale // d) for x in p] for p, d in maps]
    goal = [x * (scale // e) for x in t]
    for size in range(1, k + 1):
        for support in combinations(range(k), size):
            m = [[columns[j][c] for j in support] + [goal[c]] for c in range(len(goal))]
            m.append([1] * (size + 1))
            piv_cols = _eliminate(m, size)
            if piv_cols is None or any(m[i][size] < 0 for i in range(len(piv_cols))):
                continue
            coeffs = [ZERO] * k
            for row, c in zip(m, piv_cols):
                coeffs[support[c]] = Fraction(row[size], row[c])
            return tuple(coeffs)
    return None


def _carrier(states: Sequence[RationalState], message: str) -> FiniteBLAlgebra:
    """The algebra of the nonempty ``states``, which must all be on that
    object or an equal algebra; else ``ValueError(message)``."""
    algebra = states[0].algebra
    if any(s.algebra is not algebra and s.algebra != algebra for s in states):
        raise ValueError(message)
    return algebra


def mix_states(
    states: Sequence[RationalState], weights: Sequence[Fraction]
) -> RationalState:
    """The convex combination sum(w_i * s_i) of states on one carrier."""
    if len(states) != len(weights) or not states:
        raise ValueError("need matching nonempty states/weights")
    weights = [Fraction(w) for w in weights]
    if sum(weights) != 1 or any(w < 0 for w in weights):
        raise ValueError("weights must be a convex combination")
    algebra = _carrier(states, "states to mix must be on one carrier")
    # w_i * p_i / d_i over one denominator: integer coefficients c_i / d
    terms = [(w / s.d, s.p) for s, w in zip(states, weights) if w]
    d = math.lcm(*(c.denominator for c, _ in terms))
    coeffs = [c.numerator * (d // c.denominator) for c, _ in terms]
    p = [sum(map(mul, coeffs, col)) for col in zip(*(q for _, q in terms))]
    return _state(algebra, p, d)


# ---------------------------------------------------------------------------
# pulling states through an operator


def pull_back_state(op: StateOperator, image_state: RationalState) -> RationalState:
    """Compose a state on the image subalgebra with the operator.

    The input is a ``RationalState`` of the image algebra object
    (``operator_image(op)[0]``), indexed by ascending fixed points; any
    other input raises ``ValueError``.  It is checked through its cached
    ``verdict``, and a map that is not a state raises ``NotAStateError``.
    The result is verified to be a state on the full algebra; when the
    operator is a morphism operator and the input is extremal, the
    result is verified extremal.  When the image is the carrier itself
    (``operator_image``), the pull-back is the input object.  Otherwise
    it is the carrier's state object of the pulled-back map, so a map
    that is already alive there is not scanned again.
    """
    image, pos, _ = operator_image(op)
    if not isinstance(image_state, RationalState) or image_state.algebra is not image:
        raise ValueError("input must be a state object of the operator's image")
    verdict = image_state.verdict
    if not verdict.is_state:
        raise NotAStateError(f"input is not a state on the image: {verdict.witnesses}")
    if image is op.algebra:
        pulled = image_state
    else:
        p = image_state.p
        pulled = _state(op.algebra, [p[pos[t]] for t in op.table], image_state.d)
        if not pulled.verdict.is_state:
            raise InternalCheckError("pull-back of a state failed the state identities")
    if op.is_morphism and verdict.extremal and not pulled.verdict.extremal:
        raise InternalCheckError("pull-back of an extremal state lost extremality")
    return pulled


def is_compatible(op: StateOperator, state: RationalState) -> bool:
    """Constant on operator fibers: sigma(x)=sigma(y) implies s(x)=s(y)."""
    by_image: dict[int, int] = {}
    for t, v in zip(op.table, state.p):
        if by_image.setdefault(t, v) != v:
            return False
    return True


@dataclass(frozen=True)
class CorrespondenceReport:
    compatible_extremal: tuple[RationalState, ...]
    round_trip_ok: bool
    affine_ok: bool
    extremal_independent: bool

    @property
    def bijection_ok(self) -> bool:
        return self.round_trip_ok and self.affine_ok and self.extremal_independent


def restrict_to_image(op: StateOperator, state: RationalState) -> RationalState:
    """The image state that a compatible state restricts to: its map on
    the fixed points, as the image's state object."""
    image, _, fixed = operator_image(op)
    p = state.p
    return _state(image, [p[x] for x in fixed], state.d)


@memoized
def pulled_back_extremal_states(op: StateOperator) -> tuple[RationalState, ...]:
    """The image's extremal states pulled back through the operator.

    One ``pull_back_state`` per extremal state of the image subalgebra,
    in ``extremal_states`` order; the tuple is memoized on the operator.
    """
    image, _, _ = operator_image(op)
    return tuple(pull_back_state(op, s) for s in extremal_states(image))


@memoized
def sigma_compatible_correspondence(op: StateOperator) -> CorrespondenceReport:
    """Certify the affine bijection between compatible states and image states.

    Both directions are computed from their definitions: pushing a
    compatible state down to the image and pulling an image state back
    through the operator.  The check covers the extremal generators, a
    deterministic set of rational mixtures, and the affine behaviour of
    both maps.  Topological content is out of scope: this certifies the
    bijection and its affineness on finite data only.  The report is
    memoized on the operator.
    """
    image, _, _ = operator_image(op)
    image_ext = extremal_states(image)
    pulled = pulled_back_extremal_states(op)
    for st in pulled:
        if not is_compatible(op, st):
            raise InternalCheckError("pull-back is not compatible with the operator")

    round_trip = all(restrict_to_image(op, st) == src for st, src in zip(pulled, image_ext))

    # mixtures: uniform and a lopsided pair mix, exercised through both maps
    weights_menu: list[list[Fraction]] = []
    k = len(image_ext)
    if k >= 1:
        weights_menu.append([Fraction(1, k)] * k)
    if k >= 2:
        w = [ZERO] * k
        w[0], w[1] = Fraction(1, 3), Fraction(2, 3)
        weights_menu.append(w)
    affine_ok = True
    for weights in weights_menu:
        mixed_image = mix_states(image_ext, weights)
        mixed_pulled = mix_states(pulled, weights)
        direct = pull_back_state(op, mixed_image)
        if direct != mixed_pulled:
            affine_ok = False
        if restrict_to_image(op, mixed_pulled) != mixed_image:
            affine_ok = False
        if not is_compatible(op, mixed_pulled):
            affine_ok = False

    independent = True
    for i in range(len(pulled)):
        others = [s for j, s in enumerate(pulled) if j != i]
        if others and convex_coefficients(others, pulled[i]) is not None:
            independent = False
    return CorrespondenceReport(
        compatible_extremal=pulled,
        round_trip_ok=round_trip,
        affine_ok=affine_ok,
        extremal_independent=independent,
    )
