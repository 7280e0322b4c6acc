"""Claims registry and deterministic suite runner.

Every algebraic law the workbench certifies has a stable claim id (the
README lists the full catalog).  A suite run produces one record per
(claim, instance); reports are byte-identical across runs because
records are emitted in (claim, instance) order and timings are excluded
unless explicitly requested.

Every claim has one check contract.  A check takes one subject: the
instance, or, for a per-operator claim, the operator, which carries its
own algebra (``op.algebra``).  It returns None when the claim passes, a
witness string when it fails, or an ``operators.CheckOutcome`` whose
``holds`` (True, False or None) makes the record a pass, a failure or a
``discrepancy``, with the outcome's witness.  ``run_suite`` is the one
place that turns that value into a ``SuiteRecord``.  A per-operator
claim's ``over`` names the pool class it covers (``state``, ``strong``
or ``morphism``); ``_over_pool``, the one loop over the pool, returns
the first value of that part of the instance's pool that does not pass,
with the operator named in its witness (``<op>: <witness>``, or
``<op>: <claim> (<witness>)`` for an outcome).  The claims that read
``classify_state_algebra`` (``_classified``) return its outcomes.  A
library cross-check that raises ``InternalCheckError`` fails only its
claim: ``<operator>: internal cross-check: <message>`` from
``_over_pool``, ``internal cross-check: <message>`` from ``run_suite``
(an instance check or an ``applies`` filter).

A pointwise law (``Prop-2.2-*``, ``S2-*``, most of ``Lemma-3.5``,
``Lemma-3.9``, ``Lemma-3.10-1``) is ``algebra.Law`` data, decided by
``algebra.holds`` and named by the per-tuple scan through
``algebra.violation``; the 3- and 4-variable laws of Prop 2.2 carry row
kernels, which decide them on every carrier of at most 256 elements.
``_instance_laws`` names the failing elements by index,
``_operator_laws`` by label.  Claims about preserving whole operations
read the verdicts ``verify_operator`` already computed
(``preserves_impl``, axiom 6 in ``failed``), call ``is_endomorphism``,
or decide ``operators.PRESERVES["join"]`` (Lemma-3.10-2).  Lemma-3.5-k
and -l (the image is a subalgebra made of the fixed points) read the
certificate that seals ``operators.operator_image``.

``render_json`` writes the canonical report by direct string assembly
from one record template, ``_RECORD``.  Strings go through
``json.encoder.encode_basestring_ascii``, so the text is byte-identical
to ``json.dumps(payload, indent=2, ensure_ascii=True) + "\\n"``, the
tests' oracle, without the pure-Python indent encoder that ``json.dumps``
uses whenever ``indent`` is set.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from json.encoder import encode_basestring_ascii as _quote
from time import perf_counter
from typing import Callable, Iterable, Sequence

from .algebra import (
    INFINITE_ORDER,
    InternalCheckError,
    Law,
    _grid,
    _mask,
    _pairs,
    _pairwise,
    holds,
    violation,
)
from .constructors import quotient_by_filter, swap_table
from .corpus import CorpusInstance
from .filters import (
    all_filters,
    classify_algebra,
    filter_masks,
    is_primary,
    maximal_filters,
    radical,
    radical_by_formula,
    state_filters,
    subdirectly_irreducible,
)
from .operators import (
    ADDITIVITY,
    IDEMPOTENT,
    PRESERVES,
    CheckOutcome,
    classify_state_algebra,
    enumerate_operator_tables,
    enumerate_state_operators,
    godel_floor_table,
    interval_collapse_table,
    identity_table,
    is_endomorphism,
    operator_image,
    sigma_j_table,
    state_filter_closures,
    verify_operator,
)
from .states import (
    RationalState,
    check_state,
    convex_coefficients,
    extremal_states,
    mix_states,
    pull_back_state,
    pulled_back_extremal_states,
    sigma_compatible_correspondence,
)

PASS = "pass"
FAIL = "fail"
DISCREPANCY = "discrepancy"
_VERDICTS = {True: PASS, False: FAIL, None: DISCREPANCY}  # by ``CheckOutcome.holds``


@dataclass(frozen=True)
class Claim:
    claim_id: str
    description: str
    applies: Callable[[CorpusInstance], bool]
    check: Callable
    over: str | None = None  # the pool class of a per-operator check


@dataclass(frozen=True)
class SuiteRecord:
    claim_id: str
    instance: str
    verdict: str
    witness: str
    elapsed: float


@dataclass
class SuiteReport:
    records: list[SuiteRecord]

    @property
    def failures(self) -> list[SuiteRecord]:
        return [r for r in self.records if r.verdict == FAIL]


# ---------------------------------------------------------------------------
# helpers


def _pool(inst: CorpusInstance, over: str):
    for name, op in inst.pool():
        if over == "strong" and not op.is_strong:
            continue
        if over == "morphism" and not op.is_morphism:
            continue
        yield name, op


def _over_pool(inst: CorpusInstance, check, over: str = "state"):
    """``check(op)`` over the ``over`` pool: the value of the first
    operator that does not pass, with the operator named in its witness,
    or None.  A cross-check raised for one operator is that operator's
    failure.
    """
    for name, op in _pool(inst, over):
        try:
            w = check(op)
        except InternalCheckError as exc:
            w = f"internal cross-check: {exc}"
        if isinstance(w, CheckOutcome):
            if w.holds is not True:
                return CheckOutcome(w.claim, w.holds, f"{name}: {w.claim} ({w.witness})")
        elif w is not None:
            return f"{name}: {w}"
    return None


def _classified(*names: str):
    """A per-operator check: the operator's first outcome among ``names``
    in ``classify_state_algebra`` whose ``holds`` is not True, or None."""

    def check(op):
        outcomes = classify_state_algebra(op).checks
        return next((c for c in outcomes if c.claim in names and c.holds is not True), None)

    return check


def _asserts(call: Callable):
    """An instance check that passes unless ``call``, a library function
    that asserts the claim's law, raises on the algebra.  It calls this
    module's binding of the name at each run, so a wrapper set on the
    module (a profiler's, a test's) sees the call."""
    name = call.__name__

    def check(inst):
        globals()[name](inst.algebra)

    return check


def _instance_laws(*laws: Law):
    """An instance check; a failure names its elements by index."""

    def check(inst):
        found = violation(laws, inst.algebra)
        return None if found is None else found[0].text.format(*found[1])

    return check


def _operator_laws(*laws: Law, when=None):
    """A per-operator check where ``when(op)`` holds (always if None);
    a failure names its elements by label."""

    def check(op):
        if when is not None and not when(op):
            return None
        a = op.algebra
        found = violation(laws, a, op.table)
        return None if found is None else found[0].text.format(*map(a.labels.__getitem__, found[1]))

    return check


def _sample_states(inst: CorpusInstance) -> list[tuple[str, RationalState]]:
    """Deterministic named maps for state-level claims: mixtures of the
    extremal states + the document's state objects (``inst.states``),
    which need not be states."""
    a = inst.algebra
    ext = extremal_states(a)
    out = []
    if len(ext) >= 2:
        out.append(("uniform mixture", mix_states(ext, _uniform_weights(len(ext)))))
        w = [Fraction(0)] * len(ext)
        w[0], w[1] = Fraction(1, 4), Fraction(3, 4)
        out.append(("1/4-3/4 mixture", mix_states(ext, w)))
    out.extend(inst.states.items())
    return out


def _uniform_weights(k: int) -> list[Fraction]:
    return [Fraction(1, k)] * k


# ---------------------------------------------------------------------------
# section 2 claims


# The row kernels of the 3- and 4-variable laws read the tables as their
# lambdas do, with the later variables as a bytes row or a grid of rows
# (``_grid``) and the earlier ones in loops; a mask of premises may not
# meet a mask of failed conclusions.  No operator table: ``t`` is unused.


def _monotone_prod_rows(a, t) -> bool:
    # for each x and c, over the (y, d) grid; the conclusion row depends
    # only on v = prod[x][c], so it is tabulated once per value
    n, pad = a.size, bytes(256 - a.size)
    leq = [bytes(row) for row in a.leq]
    padded, ys = [row + pad for row in leq], _grid(n, 2)[0]
    flat = b"".join(a.byte_rows[2])
    x_le = [_mask(ys.translate(row)) for row in padded]  # leq[x][y]
    c_le = [_mask(row * n) for row in leq]  # leq[c][d]
    above = {v: _mask(flat.translate(padded[v])) for v in set(flat)}  # leq[v][prod[y][d]]
    return not any(
        x_le[x] & c_le[c] & ~above[v] for x, row in enumerate(a.prod) for c, v in enumerate(row)
    )


_prop_2_2_1 = _instance_laws(Law(
    "monotonicity of prod at {},{},{},{}",
    lambda prod, leq, x, y, c, d: (
        not leq[x][y] or not leq[c][d] or leq[prod[x][c]][prod[y][d]]),
    _monotone_prod_rows))


def _monotone_impl_rows(a, t) -> bool:
    # for each c and x, over y: the conclusion row is impl[c] through
    # leq[impl[c][x]], tabulated once per value of impl[c]
    pad = bytes(256 - a.size)
    leq = [bytes(row) for row in a.leq]
    x_le, padded = list(map(_mask, leq)), [row + pad for row in leq]
    for row in a.byte_rows[3]:
        above = {v: _mask(row.translate(padded[v])) for v in set(row)}
        if any(x_le[x] & ~above[v] for x, v in enumerate(row)):
            return False
    return True


_prop_2_2_2 = _instance_laws(Law(
    "monotonicity of impl at {2},{0},{1}",
    lambda impl, leq, x, y, c: not leq[x][y] or leq[impl[c][x]][impl[c][y]],
    _monotone_impl_rows))
_prop_2_2_3 = _instance_laws(Law(
    "a->b- = (a*b)- fails at {},{}",
    lambda prod, impl, neg, x, y: impl[x][neg[y]] == neg[prod[x][y]]))
_prop_2_2_4 = _instance_laws(Law(
    "a->(a^b) = a->b fails at {},{}", lambda meet, impl, x, y: impl[x][meet[x][y]] == impl[x][y]))


def _prod_step_rows(a, t) -> bool:
    # for each x, over the (y, c) grid: impl[prod[x][c]][prod[y][c]], then
    # leq from impl[x][y] to it, each one _pairwise lookup
    n, pad = a.size, bytes(256 - a.size)
    _, _, prod, impl = a.byte_rows
    ys, flat = _grid(n, 2)[0], b"".join(prod)  # y and prod[y][c] over the grid
    impl2, leq2, ones = _pairs(a.impl), _pairs(a.leq), b"\1" * (n * n)
    return all(
        _pairwise(leq2, ys.translate(impl[x] + pad), _pairwise(impl2, prod[x] * n, flat)) == ones
        for x in range(n)
    )


_prop_2_2_5 = _instance_laws(Law(
    "a->b <= a*c->b*c fails at {},{},{}",
    lambda prod, impl, leq, x, y, c: leq[impl[x][y]][impl[prod[x][c]][prod[y][c]]],
    _prod_step_rows))


def _residuation_rows(a, t) -> bool:
    # for each x, over the (y, c) grid: impl[x][impl[y][c]] is the flat
    # impl table through impl[x], impl[prod[x][y]][c] the rows prod[x] picks
    pad = bytes(256 - a.size)
    _, _, prod, impl = a.byte_rows
    flat = b"".join(impl)
    return all(
        flat.translate(impl[x] + pad) == b"".join(map(impl.__getitem__, prod[x]))
        for x in range(a.size)
    )


_prop_2_2_6 = _instance_laws(Law(  # the residuation law a->(b->c) = (a*b)->c
    "residuation law fails at {},{},{}",
    lambda prod, impl, x, y, c: impl[x][impl[y][c]] == impl[prod[x][y]][c],
    _residuation_rows))
_s2_orthogonality = _instance_laws(Law(
    "orthogonality forms disagree at {},{}",
    lambda prod, neg, leq, bottom, x, y: (
        leq[neg[neg[x]]][neg[y]] == leq[x][neg[y]] == (prod[x][y] == bottom))))
_s2_partial_sum = _instance_laws(Law(  # x + y = y- -> x--, defined on orthogonal pairs
    "partial sum not symmetric at {},{}",
    lambda prod, impl, neg, bottom, x, y: (
        prod[x][y] != bottom or impl[neg[y]][neg[neg[x]]] == impl[neg[x]][neg[neg[y]]])))


def _thm_2_5(inst):
    # extremal_states asserts .extremal on each extremal state it builds
    for name, st in _sample_states(inst):
        verdict = st.verdict
        if not verdict.is_state:
            scan, w = verdict.witnesses[0]
            return f"state {name} is not a state ({scan} at {w})"
        verdict.extremal  # raises if the criteria disagree
    return None


def _rem_2_9(inst):
    a = inst.algebra
    for f in all_filters(a):
        quotient_by_filter(a, f)  # asserts a congruence with x/F = 1/F iff x in F
    return None


def _cor_2_12(inst):
    # classify_algebra asserts x- <= y- across the split (n > 1; n = 1 has only (0, 0))
    if not classify_algebra(inst.algebra).perfect:
        return CheckOutcome("Cor-2.12", True, "not perfect; vacuous")
    return None


def _prop_2_13(inst):
    a = inst.algebra
    everything = frozenset(range(a.size))
    for f in all_filters(a):
        if f == everything:
            continue
        quotient, _ = quotient_by_filter(a, f)
        q_local = len(maximal_filters(quotient)) == 1
        if is_primary(a, f) != q_local:
            return f"primary/local mismatch for {sorted(f)}"
    return None


def _lemma_2_14(inst):
    cls = classify_algebra(inst.algebra)  # asserts locally finite iff simple
    if cls.simple and not inst.algebra.is_linear:
        return "simple algebra is not linear"
    return None


# ---------------------------------------------------------------------------
# section 3 claims: operator properties


def _l35_a(op):
    top = op.algebra.top
    return None if op.table[top] == top else "sigma(top) != top"


def _image_subalgebra(op):
    # Lemma 3.5(k)-(l): operator_image raises InternalCheckError unless both hold
    operator_image(op)
    return None


def _l35_o(op):
    a = op.algebra
    if frozenset(op.table) == frozenset(range(a.size)) and op.table != identity_table(a):
        return "surjective but not the identity"
    return None


def _l35_r(op):
    a = op.algebra
    if op.is_faithful and a.is_linear and op.table != identity_table(a):
        return "faithful operator on a chain is not the identity"
    return None


# Lemma 3.5(m): for x of finite order, ord(sigma(x)) <= ord(x) and sigma(x)
# lies outside the radical.  One law decides both clauses: on n > 1 every
# element of the radical has infinite order, so a sigma(x) in the radical
# already makes the order grow at x.  At n = 1 the one element is the
# bottom, of order 1, and lies in the radical, so the paper's second
# clause is read for n > 1 only; the order clause holds there.
LEMMA_3_5_M = Law("order grows at {}",
                  lambda t, orders, x: orders[x] == INFINITE_ORDER or orders[t[x]] <= orders[x])

LEMMA_3_5 = {
    "a": _l35_a,
    "b": _operator_laws(Law("negation at {}", lambda t, neg, x: t[neg[x]] == neg[t[x]])),
    "c": _operator_laws(Law("monotone at {},{}",
                            lambda t, leq, x, y: not leq[x][y] or leq[t[x]][t[y]])),
    "d": _operator_laws(
        Law("prod bound at {},{}", lambda t, prod, leq, x, y: leq[prod[t[x]][t[y]]][t[prod[x][y]]]),
        Law("prod equality (orthogonal) at {},{}",
            lambda t, prod, bottom, x, y: (
                prod[x][y] != bottom or t[prod[x][y]] == prod[t[x]][t[y]]))),
    "e": _operator_laws(
        Law("ominus bound at {},{}",
            lambda t, prod, neg, leq, x, y: leq[prod[t[x]][neg[t[y]]]][t[prod[x][neg[y]]]]),
        Law("ominus equality at {},{}",
            lambda t, prod, neg, leq, x, y: (
                not leq[x][y] or t[prod[x][neg[y]]] == prod[t[x]][neg[t[y]]]))),
    "f": _operator_laws(Law(
        "meet identity at {},{}",
        lambda t, meet, prod, impl, x, y: t[meet[x][y]] == prod[t[x]][t[impl[x][y]]])),
    "g": _operator_laws(
        Law("impl bound at {},{}", lambda t, impl, leq, x, y: leq[t[impl[x][y]]][impl[t[x]][t[y]]]),
        Law("impl equality at {},{}",
            lambda t, impl, leq, x, y: (
                not (leq[x][y] or leq[y][x]) or t[impl[x][y]] == impl[t[x]][t[y]]))),
    "h": _operator_laws(Law(  # sigma(x->y) * sigma(y->x) <= d(sigma(x), sigma(y))
        "distance bound at {},{}",
        lambda t, prod, impl, leq, x, y: (
            leq[prod[t[impl[x][y]]][t[impl[y][x]]]][prod[impl[t[x]][t[y]]][impl[t[y]][t[x]]]]))),
    "i": _operator_laws(
        Law("oplus bound at {},{}",
            lambda t, oplus, leq, x, y: leq[t[oplus[x][y]]][oplus[t[x]][t[y]]]),
        Law("oplus equality at {},{}",
            lambda t, oplus, top, x, y: oplus[x][y] != top or oplus[t[x]][t[y]] == top)),
    "j": _operator_laws(IDEMPOTENT),
    "k": _image_subalgebra,
    "l": _image_subalgebra,
    "m": _operator_laws(LEMMA_3_5_M),
    "n": _operator_laws(Law(
        "impl-preservation symmetry at {},{}",
        lambda t, impl, x, y: (
            (t[impl[x][y]] == impl[t[x]][t[y]]) == (t[impl[y][x]] == impl[t[y]][t[x]])))),
    "o": _l35_o,
    "p": _operator_laws(
        Law("strict monotonicity at {},{}",
            lambda t, leq, x, y: (
                not leq[x][y] or x == y or (leq[t[x]][t[y]] and t[x] != t[y]))),
        when=lambda op: op.is_faithful),
    "q": _operator_laws(
        Law("comparable displacement at {}",
            lambda t, leq, x: t[x] == x or not (leq[t[x]][x] or leq[x][t[x]])),
        when=lambda op: op.is_faithful),
    "r": _l35_r,
}

LEMMA_3_9 = {
    "a": _operator_laws(Law(
        "strong prod equality at {},{}",
        lambda t, prod, neg, leq, x, y: (
            not leq[neg[x]][y] or t[prod[x][y]] == prod[t[x]][t[y]]))),
    "b": _operator_laws(Law(
        "strong ominus equality at {},{}",
        lambda t, prod, neg, leq, x, y: (
            not (leq[x][y] or leq[y][x]) or t[prod[x][neg[y]]] == prod[t[x]][neg[t[y]]]))),
    "c": _operator_laws(Law(
        "swap identity at {}",
        lambda t, prod, neg, x: t[prod[x][t[neg[x]]]] == t[prod[neg[x]][t[x]]])),
}

_l310_1 = _operator_laws(Law(
    "pointwise impl/meet equivalence at {},{}",
    lambda t, meet, impl, x, y: (
        (t[impl[x][y]] == impl[t[x]][t[y]]) == (t[meet[x][y]] == meet[t[x]][t[y]]))))


def _l310_2(op):
    pres_impl = op.preserves_impl
    pres_join = holds(PRESERVES["join"], op.algebra, op.table)
    if pres_impl != pres_join:
        return f"global impl/join equivalence: impl={pres_impl} join={pres_join}"
    return None


def _l310_3(op):
    if op.preserves_impl:
        if "6" in op.failed:
            return "impl-preserving but not prod-preserving"
        if not is_endomorphism(op.algebra, op.table):
            return "impl-preserving but not an endomorphism"
    return None


def _lemma_3_11(op):
    if not op.preserves_impl:
        return "does not preserve impl on a chain"
    if op.is_strong and "6" in op.failed:
        return "strong but does not preserve prod"
    return None


def _prop_3_8_3_16(inst):
    for name, op in list(inst.operators.items()) + list(inst.rejected.items()):
        if op.is_morphism and not op.is_strong:
            return f"{name}: morphism but not strong"
        if op.is_strong and not op.is_state:
            return f"{name}: strong but not state"
    return None


def _prop_3_13(inst):
    # the maps that satisfy the MV axioms (the mv leaf check decides MV_LAWS)
    # are exactly the state operators, and each of them is strong and additive
    a = inst.algebra
    ops = inst.enumerated if inst.enumerated is not None else enumerate_state_operators(a)
    state = [op.table for op in ops]
    mv = enumerate_operator_tables(a, "mv")
    if (only := set(state) ^ set(mv)):
        t = min(only)
        return f"{t} is only in the {'state' if t in state else 'mv'} tables"
    for op in ops:
        if not op.is_strong:
            return f"{op.table} is a state operator that is not strong"
        if not holds(ADDITIVITY, a, op.table):
            return f"additivity fails for {op.table}"
    return None


# ---------------------------------------------------------------------------
# section 4 claims


def _lemma_4_2(inst):
    # per operator, but the summands come from the instance's shape
    shape = inst.shape
    upper = frozenset(shape.upper_ids)

    def keeps_summands(op):
        for c in shape.chain_ids:
            if op.table[c] != c:
                return f"does not fix the bottom chain at {c}"
        for u in shape.upper_ids:
            if op.table[u] not in upper:
                return f"leaves the top summand at {u}"
        return None

    return _over_pool(inst, keeps_summands)


def _lemma_4_3(inst):
    shape = inst.shape
    a = inst.algebra
    k = len(shape.dims)
    tables = {}
    for mask in range(1 << k):
        js = frozenset(i for i in range(k) if mask >> i & 1)
        t = sigma_j_table(shape, js)
        op = verify_operator(a, t)
        if not (op.is_morphism and op.preserves_impl):
            return f"sigma_J {sorted(js)} is not an impl-preserving morphism"
        expected_ker = a.upset(shape.idempotent_of_subset(frozenset(range(k)) - js))
        if op.kernel != expected_ker:
            return f"sigma_J {sorted(js)} kernel mismatch"
        tables[js] = t
    if len(set(tables.values())) != 1 << k:
        return "sigma_J family is not pairwise distinct"
    if inst.enumerated is not None and len(inst.enumerated) < (1 << k):
        return "fewer state operators than the sigma_J family"
    return None


def _lemma_4_4(inst):
    shape = inst.shape
    a = inst.algebra
    full = sigma_j_table(shape, frozenset(range(len(shape.dims))))
    for x in shape.upper_ids:
        if a.prod[x][x] != x:
            continue
        t, covered = interval_collapse_table(a, x, shape.local_zero)
        if covered:
            op = verify_operator(a, t)
            if not (op.is_morphism and op.preserves_impl):
                return f"covered collapse at {a.labels[x]} is not a morphism operator"
    low, covered = interval_collapse_table(a, shape.local_zero, shape.local_zero)
    if not covered or low != full:
        return "collapse at the local zero differs from the full sigma_J"
    return None


def _rem_4_5(inst):
    a = inst.algebra
    for name, op in inst.rejected.items():
        if op.verified_class != "none":
            return f"{name}: expected rejection, got {op.verified_class}"
    pin = inst.pinned_rejection
    if pin is not None:
        op = inst.rejected[pin.operator]
        x = pin.element
        xx = a.prod[x][x]
        got_sq = op.table[xx]
        got_prod = a.prod[op.table[x]][op.table[x]]
        if got_sq != pin.sigma_of_square or got_prod != pin.square_of_sigma:
            return f"pinned witness mismatch at {a.labels[x]}"
        if got_sq == got_prod:
            return "pinned witness does not separate the two sides"
    return None


def _idempotent_endomorphism(op):
    if "6" in op.failed or not op.preserves_impl:
        return "not an endomorphism on a chain"
    if violation(IDEMPOTENT, op.algebra, op.table) is not None:
        return "not idempotent"
    return None


def _prop_4_9(inst):
    # per operator, then the converse over the enumerated carrier
    a = inst.algebra
    found = _over_pool(inst, _idempotent_endomorphism)
    if found is not None or inst.enumerated is None or a.size > 6:
        return found
    endos = enumerate_operator_tables(a, "endomorphism")
    idem = {t for t in endos if violation(IDEMPOTENT, a, t) is None}
    states = {op.table for op in inst.enumerated}
    if idem != states:
        return "state operators differ from idempotent endomorphisms"
    return None


def _prop_4_10(op):
    if not is_endomorphism(op.algebra, op.table):
        return "not an endomorphism on x^2=x carrier"
    return None


def _ex_4_11(inst):
    a = inst.algebra
    family = {godel_floor_table(a, x) for x in range(a.size)}
    enumerated = {op.table for op in inst.enumerated}
    if enumerated != family:
        return f"family size {len(family)} differs from enumerated {len(enumerated)}"
    return None


def _prop_4_12(inst):
    tables = [op.table for op in inst.enumerated]
    if tables != [identity_table(inst.algebra)]:
        return f"{len(tables)} operators on a locally finite carrier"
    return None


# ---------------------------------------------------------------------------
# section 5 claims


def _ex_5_2(inst):
    a = inst.algebra
    left = inst.operators["sigma_diag_left"]
    right = inst.operators["sigma_diag_right"]
    for name, op in (("sigma_diag_left", left), ("sigma_diag_right", right)):
        irr, least = subdirectly_irreducible(a, op.table)
        if not irr:
            return f"{name}: not subdirectly irreducible"
        if least != op.kernel:
            return f"{name}: least state-filter is not the kernel"
    if a.is_linear:
        return "product carrier should not be linear"
    swap = swap_table(inst.diag_base)
    composed = tuple(swap[left.table[swap[x]]] for x in range(a.size))
    if composed != right.table:
        return "swap does not interchange the two diagonal operators"
    return None


def _ex_5_3(inst):
    a = inst.algebra
    op = inst.operators["sigma_h"]
    b, c = inst.hom.source, inst.hom.target
    expected_ker = frozenset(b.top * c.size + j for j in range(c.size))
    if op.kernel != expected_ker:
        return "kernel is not {1} x C"
    if not op.is_morphism:
        return "sigma_h is not a morphism operator"
    irr, least = subdirectly_irreducible(a, op.table)
    if not irr:
        return "not subdirectly irreducible"
    _, least_c = subdirectly_irreducible(c)
    expected_least = frozenset(b.top * c.size + j for j in least_c)
    if least != expected_least:
        return "least state-filter is not {1} x F_C"
    return None


def _prop_5_4(op):
    # the kernel asserts formula == filter lattice on every singleton, pair
    # and (proper state-filter, outside element); maximal_filters asserts
    # inclusion order == power criterion
    a = op.algebra
    rng = range(a.size)
    whole = (1 << a.size) - 1
    extensions = [
        (f, x) for f in filter_masks(a, op.table) if f != whole for x in rng if not f >> x & 1
    ]
    seeds = [(x,) for x in rng] + list(combinations(rng, 2))
    state_filter_closures(op, seeds, extensions)
    maximal_filters(a, op.table)
    return None


def _thm_5_5(op):
    irr, _ = subdirectly_irreducible(op.algebra, op.table)
    if irr:
        image, _, _ = operator_image(op)
        if not image.is_linear:
            return "irreducible but image not linear"
    if op.is_faithful:
        image, _, _ = operator_image(op)
        image_irr, _ = subdirectly_irreducible(image)
        if irr != image_irr:
            return f"faithful irreducibility mismatch ({irr} vs {image_irr})"
    return None


def _prop_5_8(op):
    a = op.algebra
    for f in maximal_filters(a, op.table):
        quotient, proj = quotient_by_filter(a, f)
        coinfinitesimal = radical_by_formula(quotient)
        for elem in range(a.size):
            if proj[op.table[elem]] in coinfinitesimal and op.table[elem] not in f:
                return f"co-infinitesimal image outside {sorted(f)}"
    return None


def _prop_5_9(op):
    a = op.algebra
    image, pos, fixed = operator_image(op)
    image_max = set(maximal_filters(image))
    max_state = set(maximal_filters(a, op.table))
    for i_filter in state_filters(a, op.table):
        sig_i = frozenset(op.table[x] for x in i_filter)
        if sig_i != i_filter & frozenset(fixed):
            return "sigma(I) != I n sigma(A)"
        as_image = frozenset(pos[x] for x in sig_i)
        if as_image not in all_filters(image):
            return "sigma(I) is not a filter of the image"
        if i_filter in max_state and as_image not in image_max:
            return "sigma(I) loses maximality"
    for j_filter in all_filters(image):
        j_orig = frozenset(fixed[z] for z in j_filter)
        preimage = frozenset(x for x in range(a.size) if op.table[x] in j_orig)
        if preimage not in state_filters(a, op.table):
            return "preimage is not a state-filter"
        if frozenset(op.table[x] for x in preimage) != j_orig:
            return "preimage does not restrict back"
        if j_filter in image_max and preimage not in max_state:
            return "preimage loses maximality"
    return None


# ---------------------------------------------------------------------------
# section 6 claims


def _prop_6_1(op):
    # pull_back_state asserts each pull-back is a state; the extremal
    # image states are pulled back once per operator, their uniform
    # mixture here
    pulled_back_extremal_states(op)
    image, _, _ = operator_image(op)
    ext = extremal_states(image)
    if len(ext) >= 2:
        pull_back_state(op, mix_states(ext, _uniform_weights(len(ext))))
    return None


def _prop_6_2(op):
    pulled_back_extremal_states(op)  # asserts morphisms keep extremality
    return None


def _thm_6_4(op):
    if not sigma_compatible_correspondence(op).bijection_ok:
        return "correspondence fails"
    return None


def _cor_6_5(op):
    # finite-instance content only: compatible mixtures lie in the hull
    # of the extremal compatible states (no topology is certified)
    points = sigma_compatible_correspondence(op).compatible_extremal
    k = len(points)
    mixtures = [points[0]] if k == 1 else []
    if k >= 2:
        mixtures.append(mix_states(points, _uniform_weights(k)))
    for target in mixtures:
        if convex_coefficients(points, target) is None:
            return "mixture escapes the hull"
    return None


# ---------------------------------------------------------------------------
# registry


def _always(inst: CorpusInstance) -> bool:
    return True


def _nontrivial(inst):
    # classify_algebra skips its equivalence cross-checks at n = 1
    return inst.algebra.size > 1


def _is_mv(inst):
    return inst.variety.is_mv


def _is_linear(inst):
    return inst.algebra.is_linear


def _is_godel(inst):
    return inst.variety.is_godel


def _is_shaped(inst):
    return inst.shape is not None


def _is_locally_finite(inst):
    return inst.enumerated is not None and classify_algebra(inst.algebra).locally_finite


def _has_rejected(inst):
    return bool(inst.rejected)


def _has_diag(inst):
    return (
        inst.diag_base is not None
        and "sigma_diag_left" in inst.operators
        and "sigma_diag_right" in inst.operators
        and classify_algebra(inst.diag_base).simple
    )


def _has_hom(inst):
    return inst.hom is not None and "sigma_h" in inst.operators


def _is_linear_godel(inst):
    return inst.algebra.is_linear and inst.variety.is_godel and inst.enumerated is not None


def build_registry() -> list[Claim]:
    claims: list[Claim] = []

    def add(cid, desc, applies, check, over=None):
        claims.append(Claim(cid, desc, applies, check, over))

    add("Prop-2.2-1", "prod is monotone in both arguments", _always, _prop_2_2_1)
    add("Prop-2.2-2", "impl is monotone in its second argument", _always, _prop_2_2_2)
    add("Prop-2.2-3", "a->b- equals (a*b)-", _always, _prop_2_2_3)
    add("Prop-2.2-4", "a->(a^b) equals a->b", _always, _prop_2_2_4)
    add("Prop-2.2-5", "a->b <= (a*c)->(b*c)", _always, _prop_2_2_5)
    add("Prop-2.2-6", "residuation law a->(b->c) = (a*b)->c", _always, _prop_2_2_6)
    add("S2-orthogonality", "three orthogonality forms coincide", _always, _s2_orthogonality)
    add("S2-partial-sum", "partial sum is symmetric on orthogonal pairs", _always, _s2_partial_sum)
    add("Thm-2.5", "four extremality criteria agree on sampled states", _always, _thm_2_5)
    add("Prop-2.6", "maximal filters match the power criterion", _always,
        _asserts(maximal_filters))  # asserts inclusion order == power criterion
    add("Prop-2.7", "local iff every proper filter is primary", _nontrivial,
        _asserts(classify_algebra))  # asserts local iff every proper filter is primary
    add("Prop-2.8", "local iff ord(x) or ord(x-) is finite", _nontrivial,
        _asserts(classify_algebra))  # asserts local iff ord(x) or ord(x-) finite for every x
    add("Rem-2.9", "filter quotients are congruences with x/F=1/F iff x in F", _always, _rem_2_9)
    add("Prop-2.10", "radical equals the co-infinitesimal set", _always,
        _asserts(radical))  # asserts intersection of maximal filters == formula
    add("Rem-2.11", "radical and its negation set are negation-linked", _always,
        _asserts(classify_algebra))  # asserts x in Rad- gives x- in Rad
    add("Cor-2.12", "perfect algebras compare negations across the split", _always, _cor_2_12)
    add("Prop-2.13", "P primary iff the quotient by P is local", _always, _prop_2_13)
    add("Lemma-2.14", "locally finite iff simple (and then linear)", _nontrivial, _lemma_2_14)
    add("Rem-2.15", "maximal-filter quotients give extremal state-morphisms", _always,
        _asserts(extremal_states))  # asserts .extremal, which includes state_morphism

    for key, fn in LEMMA_3_5.items():
        add(f"Lemma-3.5-{key}", f"state-operator fact ({key})", _always, fn, "state")
    for key, fn in LEMMA_3_9.items():
        add(f"Lemma-3.9-{key}", f"strong-operator fact ({key})", _always, fn, "strong")
    add("Lemma-3.10-1", "pointwise impl equality iff meet equality",
        _always, _l310_1, "state")
    add("Lemma-3.10-2", "global impl preservation iff join preservation",
        _always, _l310_2, "state")
    add("Lemma-3.10-3", "impl preservation makes an endomorphism",
        _always, _l310_3, "state")
    add("Lemma-3.11", "operators on chains preserve impl; strong ones preserve prod",
        _is_linear, _lemma_3_11, "state")
    add("Prop-3.8", "strong operators are state operators", _always, _prop_3_8_3_16)
    add("Prop-3.16", "morphism operators are strong", _always, _prop_3_8_3_16)
    add("Prop-3.13", "MV and BL operator axioms agree; MV state ops are strong",
        _is_mv, _prop_3_13)

    add("Lemma-4.2", "operators fix the bottom chain and keep the top summand",
        _is_shaped, _lemma_4_2)
    add("Lemma-4.3", "the 2^k coordinate-cap operators are distinct morphisms",
        _is_shaped, _lemma_4_3)
    add("Lemma-4.4", "covered interval collapses are morphism operators",
        _is_shaped, _lemma_4_4)
    add("Rem-4.5", "the catalogued uncovered collapse is rejected with its witness",
        _has_rejected, _rem_4_5)
    add("Prop-4.9", "operators on chains are idempotent endomorphisms",
        _is_linear, _prop_4_9)
    add("Prop-4.10", "operators on x^2=x carriers are endomorphisms",
        _is_godel, _prop_4_10, "state")
    add("Ex-4.11", "floor collapses exhaust the operators on Godel chains",
        _is_linear_godel, _ex_4_11)
    add("Prop-4.12", "the identity is the only operator on locally finite carriers",
        _is_locally_finite, _prop_4_12)

    add("Ex-5.2", "diagonal operators give irreducible non-linear state algebras",
        _has_diag, _ex_5_2)
    add("Ex-5.3", "graph operators of homomorphisms have kernel {1} x C",
        _has_hom, _ex_5_3)
    add("Prop-5.4", "generated state-filters match the closure formula",
        _always, _prop_5_4, "state")
    add("Thm-5.5", "irreducible state algebras have linear images",
        _always, _thm_5_5, "state")
    add("Prop-5.7", "image radical sits inside the operator image of the radical",
        _always, _classified("radical-image-inclusion", "radical-image-equality-strong"),
        "state")
    add("Prop-5.8", "co-infinitesimal images belong to maximal state-filters",
        _always, _prop_5_8, "state")
    add("Prop-5.9", "state-filters correspond to image filters", _always, _prop_5_9, "state")
    add("Prop-5.10", "sigma of the state radical is the image radical",
        _always, _classified("radical-sigma-identity"), "state")

    add("Prop-6.1", "states on the image pull back to states", _always, _prop_6_1, "state")
    add("Prop-6.2", "extremal states pull back extremally through morphisms",
        _always, _prop_6_2, "morphism")
    add("Thm-6.4", "compatible states correspond affinely to image states",
        _always, _thm_6_4, "state")
    add("Cor-6.5", "compatible mixtures stay inside the extremal hull",
        _always, _cor_6_5, "state")

    add("Thm-7.3", "simple iff the kernel is a maximal filter", _always,
        _classified("simple-iff-kernel-maximal"), "morphism")
    add("Thm-7.5", "semisimple iff the radical sits inside the kernel", _always,
        _classified("semisimple-iff-radical-in-kernel"), "morphism")
    add("Thm-7.6", "perfect iff radical-faithful with perfect image", _always,
        _classified("perfect-iff-radical-faithful-and-image-perfect"), "state")
    # classify_state_algebra adds the checks of Thm-7.8 and 7.9 for
    # radical-faithful morphisms only
    add("Thm-7.8", "local iff the image is local (radical-faithful morphisms)", _always,
        _classified("local-iff-image-local"), "morphism")
    add("Thm-7.9", "simple iff local with kernel equal to the radical", _always,
        _classified("simple-iff-local-and-kernel-radical"), "morphism")
    return claims


REGISTRY = build_registry()
CLAIM_IDS = tuple(c.claim_id for c in REGISTRY)


# ---------------------------------------------------------------------------
# runner


def run_suite(
    corpus: Sequence[CorpusInstance],
    claim_ids: Iterable[str] | None = None,
    *,
    workers: int = 1,
) -> SuiteReport:
    """Run (claim, instance) tasks one after another, in stable order, and
    grade the value of each check into its record."""
    # ``workers`` stays only for perfbench, which passes workers=1; drop both together
    if workers != 1:
        raise ValueError(f"workers must be 1, got {workers!r}")
    wanted = set(claim_ids) if claim_ids is not None else None
    if wanted is not None:
        unknown = wanted - set(CLAIM_IDS)
        if unknown:
            raise KeyError(f"unknown claim ids: {sorted(unknown)}")
    # every filter runs before any check, so a check's time never holds
    # the classify_algebra work that an ``applies`` filter does first;
    # a cross-check that fails inside a filter fails that claim only
    tasks = []
    for claim in REGISTRY:
        if wanted is not None and claim.claim_id not in wanted:
            continue
        for inst in corpus:
            try:
                if claim.applies(inst):
                    tasks.append((claim, inst, None))
            except InternalCheckError as exc:
                tasks.append((claim, inst, f"internal cross-check: {exc}"))

    # the one grader: a check's value (see the module docstring) -> a record
    records = []
    for claim, inst, found in tasks:
        start = perf_counter()
        if found is None:  # the filter passed: run the check
            try:
                if claim.over is None:
                    found = claim.check(inst)
                else:
                    found = _over_pool(inst, claim.check, claim.over)
            except InternalCheckError as exc:
                found = f"internal cross-check: {exc}"
        if isinstance(found, CheckOutcome):
            verdict, witness = _VERDICTS[found.holds], found.witness
        else:
            verdict, witness = (PASS, "") if found is None else (FAIL, found)
        records.append(
            SuiteRecord(
                claim_id=claim.claim_id,
                instance=inst.name,
                verdict=verdict,
                witness=witness,
                elapsed=perf_counter() - start,
            )
        )
    records.sort(key=lambda r: (r.claim_id, r.instance))
    return SuiteReport(records)


def _shown(report: SuiteReport, keep_going: bool):
    """The records to render, whether rendering stopped at the first
    failure, and the verdict counts of the rendered records."""
    shown, stopped = report.records, False
    if not keep_going:
        for i, r in enumerate(shown):
            if r.verdict == FAIL:
                shown, stopped = shown[: i + 1], True
                break
    counts = {PASS: 0, FAIL: 0, DISCREPANCY: 0}
    for r in shown:
        counts[r.verdict] += 1
    return shown, stopped, counts


def render_text(report: SuiteReport, keep_going: bool = True, timings: bool = False) -> str:
    shown, stopped, counts = _shown(report, keep_going)
    lines = []
    for r in shown:
        suffix = f" [{r.elapsed:.3f}s]" if timings else ""
        witness = f": {r.witness}" if r.witness else ""
        lines.append(f"{r.verdict.upper():11s} {r.claim_id} @ {r.instance}{witness}{suffix}")
    summary = (
        f"# {len(shown)} records: {counts[PASS]} pass, {counts[FAIL]} fail, "
        f"{counts[DISCREPANCY]} discrepancy"
    )
    if stopped:
        summary += " (stopped at first failure)"
    lines.append(summary)
    return "\n".join(lines) + "\n"


# one record of the JSON report at its indent; the last slot holds the
# ``elapsed`` line under ``--timings`` and is empty otherwise
_RECORD = (
    '    {\n      "claim": %s,\n      "instance": %s,\n      "verdict": %s,\n'
    '      "witness": %s%s\n    }'
)
_ELAPSED = ',\n      "elapsed": %r'


def render_json(report: SuiteReport, keep_going: bool = True, timings: bool = False) -> str:
    """The canonical JSON report (see the module docstring); counts are
    written by ``int.__repr__`` and ``elapsed``, rounded to 6 places, by
    ``float.__repr__``, as ``json.dumps`` writes them."""
    shown, stopped, counts = _shown(report, keep_going)
    records = ",\n".join([
        _RECORD % (
            _quote(r.claim_id), _quote(r.instance), _quote(r.verdict), _quote(r.witness),
            _ELAPSED % round(r.elapsed, 6) if timings else "",
        )
        for r in shown
    ])
    return (
        '{\n  "format": "blstate-suite/1",\n  "records": '
        + (f"[\n{records}\n  ]" if shown else "[]")
        + f',\n  "summary": {{\n    "records": {len(shown)},\n    "pass": {counts[PASS]},\n'
        f'    "fail": {counts[FAIL]},\n    "discrepancy": {counts[DISCREPANCY]},\n'
        f'    "stopped_early": {"true" if stopped else "false"}\n  }}\n}}\n'
    )
