"""Seeded generator of user corpora for the ``user-corpus`` workload.

A corpus is one document per slot plus the hand-written one-element
document that the README calls degenerate.  Every other document is
built only from ``blstate.constructors``: chains, products, ordinal
sums and diagonal products, some with embedded operators.  Sizes run
from 1 to 32.

The seed chooses, for each slot, one variant out of a fixed catalog
(products appear with their factors in every order), which half of the
documents omit ``impl`` (chains may omit ``meet``/``join`` as well),
and the processing order.  Variants of one slot have near-equal cost,
so the work of a corpus barely depends on the seed, while each seed
still gives different files.  Because the catalog is finite, the
expected outcome of every variant can be captured once (see
``capture.py``).  Omitting tables never changes a document's outcome:
the omitted tables are derived back.
"""

from __future__ import annotations

import json
import random
from itertools import permutations
from pathlib import Path

from blstate import constructors as C

ONE_ELEMENT = "one"
ONE_ELEMENT_TEXT = (
    '{"format": "blstate/1", "labels": ["1"], "tables": {"prod": [[0]]}}\n'
)


def chain(name: str):
    """``mvN`` is the (N+1)-element MV-chain, ``gN`` the N-element Godel chain."""
    kind = name.rstrip("0123456789")
    make = C.mv_chain if kind == "mv" else C.godel_chain
    return make(int(name[len(kind):]))


def product(names):
    """Left-nested direct product of the named chains."""
    algebra = chain(names[0])
    for name in names[1:]:
        algebra = C.direct_product(algebra, chain(name))
    return algebra


def _swap_operator(table, size_a: int, size_b: int) -> tuple[int, ...]:
    """Carry an operator on A x B over to B x A (row-major pairing)."""
    out = [0] * (size_a * size_b)
    for i in range(size_a):
        for j in range(size_b):
            image = table[i * size_b + j]
            out[j * size_a + i] = (image % size_b) * size_a + image // size_b
    return tuple(out)


def _chain_doc(name):
    return lambda: (chain(name), {})


def _example_doc():
    algebra, sigma = C.four_element_example()
    return algebra, {"sigma": sigma}


def _hom_product_doc(flip: bool):
    # (x, y) -> (x, h(x)) for the embedding h: mv1 -> g3 sending 1 to the top
    def build():
        b, c = C.mv_chain(1), C.godel_chain(3)
        table = C.sigma_h_table(b, c, C.homomorphism(b, c, (0, 2)))
        if not flip:
            return C.direct_product(b, c), {"sigma_h": table}
        return C.direct_product(c, b), {"sigma_h": _swap_operator(table, b.size, c.size)}

    return build


def _diag_doc(base: str):
    def build():
        b = chain(base)
        return C.direct_product(b, b), {
            "diag_left": C.diagonal_operator_table(b, 1),
            "diag_right": C.diagonal_operator_table(b, 2),
            "swap": C.swap_table(b),
        }

    return build


def _product_doc(names):
    return lambda: (product(names), {})


def _sum_doc(first: str, names):
    return lambda: (C.ordinal_sum([chain(first), product(names)]), {})


def _orders(names):
    return [tuple(p) for p in dict.fromkeys(permutations(names))]


def slots() -> dict:
    """Slot -> {variant id: maker}; variants of a slot cost about the same."""
    return {
        "chain2": {"mv1": _chain_doc("mv1")},
        "chain4": {"g4": _chain_doc("g4")},
        "example4": {"ex34": _example_doc},
        "chain6": {"mv5": _chain_doc("mv5")},
        "hom6": {"mv1xg3_h": _hom_product_doc(False), "g3xmv1_h": _hom_product_doc(True)},
        "chain9": {"g9": _chain_doc("g9")},
        "diag9": {"g3xg3_diag": _diag_doc("g3")},
        "sum11": {f"mv2+{'x'.join(o)}": _sum_doc("mv2", o) for o in _orders(("g3", "mv2"))},
        "prod12": {"x".join(o): _product_doc(o) for o in _orders(("mv2", "g4"))},
        "diag16": {"mv3xmv3_diag": _diag_doc("mv3"), "g4xg4_diag": _diag_doc("g4")},
        "sum19": {f"mv1+{'x'.join(o)}": _sum_doc("mv1", o) for o in _orders(("g3", "g6"))},
        "prod24": {"x".join(o): _product_doc(o) for o in _orders(("mv1", "mv2", "g4"))},
        "prod32": {"x".join(o): _product_doc(o) for o in _orders(("g4", "mv7"))},
    }


def lattice_omittable(slot: str) -> bool:
    """Chains may leave meet/join out: the label order is the chain order."""
    return slot.startswith("chain")


def catalog() -> dict:
    """Every variant id the generator can emit -> its maker."""
    return {vid: make for variants in slots().values() for vid, make in variants.items()}


def document_text(algebra, operators: dict, omit_impl: bool, omit_lattice: bool) -> str:
    tables = {"prod": [list(r) for r in algebra.prod]}
    if not omit_lattice:
        tables["meet"] = [list(r) for r in algebra.meet]
        tables["join"] = [list(r) for r in algebra.join]
    if not omit_impl:
        tables["impl"] = [list(r) for r in algebra.impl]
    doc = {"format": "blstate/1", "labels": list(algebra.labels), "tables": tables}
    if operators:
        doc["operators"] = {name: list(operators[name]) for name in sorted(operators)}
    return json.dumps(doc, sort_keys=True) + "\n"


def plan(seed: str) -> list[tuple[str, bool, bool]]:
    """(variant id, omit impl, omit meet/join) per document, in processing order."""
    rng = random.Random(f"user-corpus:{seed}")
    variants = slots()
    names = sorted(variants)
    omit = set(rng.sample(range(len(names)), len(names) // 2))
    docs = []
    for i, name in enumerate(names):
        vid = rng.choice(sorted(variants[name]))
        omit_impl = i in omit
        omit_lattice = omit_impl and lattice_omittable(name) and rng.random() < 0.5
        docs.append((vid, omit_impl, omit_lattice))
    docs.append((ONE_ELEMENT, True, True))
    rng.shuffle(docs)
    return docs


def write_corpus(seed: str, out_dir: Path) -> list[tuple[str, Path]]:
    """Write the seed's corpus; returns (variant id, document directory) in order."""
    out_dir = Path(out_dir)
    makers = catalog()
    written = []
    for i, (vid, omit_impl, omit_lattice) in enumerate(plan(seed)):
        if vid == ONE_ELEMENT:
            text = ONE_ELEMENT_TEXT
        else:
            algebra, operators = makers[vid]()
            text = document_text(algebra, operators, omit_impl, omit_lattice)
        doc_dir = out_dir / f"{i:02d}"
        doc_dir.mkdir(parents=True, exist_ok=True)
        (doc_dir / f"{vid}.json").write_text(text, encoding="utf-8")
        written.append((vid, doc_dir))
    return written
