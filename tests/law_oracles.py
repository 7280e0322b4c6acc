"""Hand-written law loops, kept as the oracle for the law engine.

These are the pointwise claim functions of ``suite``, the operator-axiom
scan and the MV-axiom checks of ``operators`` and ``classify_variety`` of
``algebra`` as they read before those laws became ``algebra.Law`` data.  ``test_laws`` requires the engine to
return the witness each of them returns, text for text.
"""

from itertools import product as iproduct
from typing import Sequence

from blstate.algebra import (
    FiniteBLAlgebra,
    INFINITE_ORDER,
    VarietyFlags,
    memoized,
)
from blstate.filters import radical
from blstate.operators import identity_table
from .oracles import first_unpreserved_pair


# The derived operations, written out from neg, prod and impl: never read
# from the algebra's ``oplus_table``, so the oracles share nothing with the
# law kernels.
def _oplus(a: FiniteBLAlgebra, x: int, y: int) -> int:
    return a.neg(a.prod[a.neg(x)][a.neg(y)])


def _ominus(a: FiniteBLAlgebra, x: int, y: int) -> int:
    return a.prod[x][a.neg(y)]


def _partial_sum(a: FiniteBLAlgebra, x: int, y: int) -> int:
    """x + y = neg(y) -> neg(neg(x)), defined when x * y = bottom."""
    return a.impl[a.neg(y)][a.neg(a.neg(x))]


def _lbl(algebra: FiniteBLAlgebra, x: int) -> str:
    return algebra.labels[x]


def _leq_pairs(a: FiniteBLAlgebra):
    return [(x, y) for x in range(a.size) for y in range(a.size) if a.le(x, y)]



def _prop_2_2_1(inst):
    a = inst.algebra
    pairs = _leq_pairs(a)
    leq = a.leq
    for x, y in pairs:
        px, py = a.prod[x], a.prod[y]
        for c, d in pairs:
            if not leq[px[c]][py[d]]:
                return f"monotonicity of prod at {x},{y},{c},{d}"
    return None


def _prop_2_2_2(inst):
    a = inst.algebra
    for (x, y) in _leq_pairs(a):
        for c in range(a.size):
            if not a.le(a.impl[c][x], a.impl[c][y]):
                return f"monotonicity of impl at {c},{x},{y}"
    return None


def _prop_2_2_3(inst):
    a = inst.algebra
    for x, y in iproduct(range(a.size), repeat=2):
        if a.impl[x][a.neg(y)] != a.neg(a.prod[x][y]):
            return f"a->b- = (a*b)- fails at {x},{y}"
    return None


def _prop_2_2_4(inst):
    a = inst.algebra
    for x, y in iproduct(range(a.size), repeat=2):
        if a.impl[x][a.meet[x][y]] != a.impl[x][y]:
            return f"a->(a^b) = a->b fails at {x},{y}"
    return None


def _prop_2_2_5(inst):
    a = inst.algebra
    for x, y, c in iproduct(range(a.size), repeat=3):
        if not a.le(a.impl[x][y], a.impl[a.prod[x][c]][a.prod[y][c]]):
            return f"a->b <= a*c->b*c fails at {x},{y},{c}"
    return None


def _prop_2_2_6(inst):
    # the residuation law a->(b->c) = (a*b)->c
    a = inst.algebra
    for x, y, c in iproduct(range(a.size), repeat=3):
        if a.impl[x][a.impl[y][c]] != a.impl[a.prod[x][y]][c]:
            return f"residuation law fails at {x},{y},{c}"
    return None


def _s2_orthogonality(inst):
    a = inst.algebra
    for x, y in iproduct(range(a.size), repeat=2):
        c1 = a.le(a.neg(a.neg(x)), a.neg(y))
        c2 = a.le(x, a.neg(y))
        c3 = a.prod[x][y] == a.bottom
        if not (c1 == c2 == c3):
            return f"orthogonality forms disagree at {x},{y}"
    return None


def _s2_partial_sum(inst):
    a = inst.algebra
    for x, y in iproduct(range(a.size), repeat=2):
        if a.prod[x][y] == a.bottom and _partial_sum(a, x, y) != _partial_sum(a, y, x):
            return f"partial sum not symmetric at {x},{y}"
    return None


def _l35_a(a, op):
    return None if op.table[a.top] == a.top else "sigma(top) != top"


def _l35_b(a, op):
    for x in range(a.size):
        if op.table[a.neg(x)] != a.neg(op.table[x]):
            return f"negation at {_lbl(a, x)}"
    return None


def _l35_c(a, op):
    for x, y in _leq_pairs(a):
        if not a.le(op.table[x], op.table[y]):
            return f"monotone at {_lbl(a,x)},{_lbl(a,y)}"
    return None


def _l35_d(a, op):
    t = op.table
    for x, y in iproduct(range(a.size), repeat=2):
        p = a.prod[x][y]
        if not a.le(a.prod[t[x]][t[y]], t[p]):
            return f"prod bound at {_lbl(a,x)},{_lbl(a,y)}"
        if p == a.bottom and t[p] != a.prod[t[x]][t[y]]:
            return f"prod equality (orthogonal) at {_lbl(a,x)},{_lbl(a,y)}"
    return None


def _l35_e(a, op):
    t = op.table
    for x, y in iproduct(range(a.size), repeat=2):
        lhs = t[_ominus(a, x, y)]
        rhs = a.prod[t[x]][a.neg(t[y])]
        if not a.le(rhs, lhs):
            return f"ominus bound at {_lbl(a,x)},{_lbl(a,y)}"
        if a.le(x, y) and lhs != rhs:
            return f"ominus equality at {_lbl(a,x)},{_lbl(a,y)}"
    return None


def _l35_f(a, op):
    t = op.table
    for x, y in iproduct(range(a.size), repeat=2):
        if t[a.meet[x][y]] != a.prod[t[x]][t[a.impl[x][y]]]:
            return f"meet identity at {_lbl(a,x)},{_lbl(a,y)}"
    return None


def _l35_g(a, op):
    t = op.table
    for x, y in iproduct(range(a.size), repeat=2):
        lhs = t[a.impl[x][y]]
        rhs = a.impl[t[x]][t[y]]
        if not a.le(lhs, rhs):
            return f"impl bound at {_lbl(a,x)},{_lbl(a,y)}"
        if a.comparable(x, y) and lhs != rhs:
            return f"impl equality at {_lbl(a,x)},{_lbl(a,y)}"
    return None


def _l35_h(a, op):
    t = op.table
    for x, y in iproduct(range(a.size), repeat=2):
        lhs = a.prod[t[a.impl[x][y]]][t[a.impl[y][x]]]
        if not a.le(lhs, a.dist(t[x], t[y])):
            return f"distance bound at {_lbl(a,x)},{_lbl(a,y)}"
    return None


def _l35_i(a, op):
    t = op.table
    for x, y in iproduct(range(a.size), repeat=2):
        s = _oplus(a, x, y)
        if not a.le(t[s], _oplus(a, t[x], t[y])):
            return f"oplus bound at {_lbl(a,x)},{_lbl(a,y)}"
        if s == a.top and _oplus(a, t[x], t[y]) != a.top:
            return f"oplus equality at {_lbl(a,x)},{_lbl(a,y)}"
    return None


def _l35_j(a, op):
    for x in range(a.size):
        if op.table[op.table[x]] != op.table[x]:
            return f"idempotence at {_lbl(a, x)}"
    return None


def _l35_k(a, op):
    image = frozenset(op.table)
    if a.bottom not in image or a.top not in image:
        return "image misses a bound"
    for table in (a.meet, a.join, a.prod, a.impl):
        for x, y in iproduct(sorted(image), repeat=2):
            if table[x][y] not in image:
                return f"image not closed at {_lbl(a,x)},{_lbl(a,y)}"
    return None


def _l35_l(a, op):
    if frozenset(op.table) != frozenset(op.fixed_points):
        return "image differs from fixed points"
    return None


def _l35_m(a, op):
    if a.size == 1:
        return None
    rad = radical(a)
    for x in range(a.size):
        o = a.ord_of(x)
        if o == INFINITE_ORDER:
            continue
        if a.ord_of(op.table[x]) > o:
            return f"order grows at {_lbl(a, x)}"
        if op.table[x] in rad:
            return f"finite-order image inside the radical at {_lbl(a, x)}"
    return None


def _l35_n(a, op):
    t = op.table
    for x, y in iproduct(range(a.size), repeat=2):
        fwd = t[a.impl[x][y]] == a.impl[t[x]][t[y]]
        bwd = t[a.impl[y][x]] == a.impl[t[y]][t[x]]
        if fwd != bwd:
            return f"impl-preservation symmetry at {_lbl(a,x)},{_lbl(a,y)}"
    return None


def _l35_o(a, op):
    if frozenset(op.table) == frozenset(range(a.size)) and op.table != identity_table(a):
        return "surjective but not the identity"
    return None


def _l35_p(a, op):
    if not op.is_faithful:
        return None
    for x, y in _leq_pairs(a):
        if x != y and not (a.le(op.table[x], op.table[y]) and op.table[x] != op.table[y]):
            return f"strict monotonicity at {_lbl(a,x)},{_lbl(a,y)}"
    return None


def _l35_q(a, op):
    if not op.is_faithful:
        return None
    for x in range(a.size):
        if op.table[x] != x and a.comparable(op.table[x], x):
            return f"comparable displacement at {_lbl(a, x)}"
    return None


def _l35_r(a, op):
    if op.is_faithful and a.is_linear and op.table != identity_table(a):
        return "faithful operator on a chain is not the identity"
    return None


def _l39_a(a, op):
    t = op.table
    for x, y in iproduct(range(a.size), repeat=2):
        if a.le(a.neg(x), y) and t[a.prod[x][y]] != a.prod[t[x]][t[y]]:
            return f"strong prod equality at {_lbl(a,x)},{_lbl(a,y)}"
    return None


def _l39_b(a, op):
    t = op.table
    for x, y in iproduct(range(a.size), repeat=2):
        if a.comparable(x, y) and t[_ominus(a, x, y)] != a.prod[t[x]][a.neg(t[y])]:
            return f"strong ominus equality at {_lbl(a,x)},{_lbl(a,y)}"
    return None


def _l39_c(a, op):
    t = op.table
    for x in range(a.size):
        if t[a.prod[x][t[a.neg(x)]]] != t[a.prod[a.neg(x)][t[x]]]:
            return f"swap identity at {_lbl(a, x)}"
    return None


def _l310_1(a, op):
    t = op.table
    for x, y in iproduct(range(a.size), repeat=2):
        impl_eq = t[a.impl[x][y]] == a.impl[t[x]][t[y]]
        meet_eq = t[a.meet[x][y]] == a.meet[t[x]][t[y]]
        if impl_eq != meet_eq:
            return f"pointwise impl/meet equivalence at {_lbl(a,x)},{_lbl(a,y)}"
    return None


def _l310_2(a, op):
    pres_impl = first_unpreserved_pair(op.table, a.impl) is None
    pres_join = first_unpreserved_pair(op.table, a.join) is None
    if pres_impl != pres_join:
        return f"global impl/join equivalence: impl={pres_impl} join={pres_join}"
    return None


def _l310_3(a, op):
    t = op.table
    if first_unpreserved_pair(t, a.impl) is None:
        if first_unpreserved_pair(t, a.prod) is not None:
            return "impl-preserving but not prod-preserving"
        if any(first_unpreserved_pair(t, tb) is not None for tb in (a.meet, a.join)):
            return "impl-preserving but not an endomorphism"
    return None


def _lemma_3_11(a, op):
    if first_unpreserved_pair(op.table, a.impl) is not None:
        return "does not preserve impl on a chain"
    if op.is_strong and first_unpreserved_pair(op.table, a.prod) is not None:
        return "strong but does not preserve prod"
    return None


def _idempotent_endomorphism(a, op):
    if any(first_unpreserved_pair(op.table, tb) is not None for tb in (a.prod, a.impl)):
        return "not an endomorphism on a chain"
    if any(op.table[op.table[x]] != op.table[x] for x in range(a.size)):
        return "not idempotent"
    return None



def _prop_4_10(a, op):
    for table in (a.meet, a.join, a.prod, a.impl):
        if first_unpreserved_pair(op.table, table) is not None:
            return "not an endomorphism on x^2=x carrier"
    return None


def _axiom_scan(
    algebra: FiniteBLAlgebra, table: Sequence[int], axiom: str
) -> tuple[int, ...] | None:
    s = table
    meet, prod, impl = algebra.meet, algebra.prod, algebra.impl
    if axiom == "1":
        return None if s[algebra.bottom] == algebra.bottom else (algebra.bottom,)
    if axiom == "6":
        return first_unpreserved_pair(s, prod)
    if axiom == "7":
        return first_unpreserved_pair(s, impl)
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
            ok = s[_oplus(a, x, y)] == _oplus(a, s[x], s[_ominus(a, y, a.prod[x][y])])
        elif axiom == "mv4":
            t = _oplus(a, s[x], s[y])
            ok = s[t] == t
        else:
            raise ValueError(axiom)
        if not ok:
            return (x, y)
    return None


@memoized
def classify_variety(algebra: FiniteBLAlgebra) -> VarietyFlags:
    """Check x--=x, x^2=x and linearity pointwise."""
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

    return VarietyFlags(is_mv, is_godel, is_linear, tuple(witnesses))
