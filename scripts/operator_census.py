#!/usr/bin/env python3
"""Census of operator counts per class over a sweep of small algebras.

Prints one row per algebra with the number of state / strong / morphism
operators and BL-endomorphisms, cross-checking the pruned enumerator
against unpruned brute force wherever that is affordable.  The brute
force is the test suite's numpy oracle (``tests/oracles.py``, imported
from the checkout this script lives in), so it needs the ``test`` extra.
"""

import argparse
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from blstate.constructors import direct_product, godel_chain, mv_chain, ordinal_sum
from blstate.operators import enumerate_operator_tables
from tests.oracles import brute_force_operator_tables


def sweep():
    yield "mv_chain(1)", mv_chain(1)
    yield "mv_chain(2)", mv_chain(2)
    yield "mv_chain(3)", mv_chain(3)
    yield "mv_chain(4)", mv_chain(4)
    yield "godel_chain(3)", godel_chain(3)
    yield "godel_chain(4)", godel_chain(4)
    yield "godel_chain(5)", godel_chain(5)
    yield "mv1 x mv1", direct_product(mv_chain(1), mv_chain(1))
    yield "mv2 x mv1", direct_product(mv_chain(2), mv_chain(1))
    yield "mv2 x mv2", direct_product(mv_chain(2), mv_chain(2))
    yield "g3 x g3", direct_product(godel_chain(3), godel_chain(3))
    yield "mv1 + mv1", ordinal_sum([mv_chain(1), mv_chain(1)])
    yield "mv1 + (mv1 x mv1)", ordinal_sum([mv_chain(1), direct_product(mv_chain(1), mv_chain(1))])
    yield "mv1 + (mv2 x mv1)", ordinal_sum([mv_chain(1), direct_product(mv_chain(2), mv_chain(1))])
    yield "mv2 + g3", ordinal_sum([mv_chain(2), godel_chain(3)])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--brute-limit", type=int, default=7,
                        help="cross-check with brute force up to this carrier size")
    args = parser.parse_args(argv)

    print(f"{'algebra':22s} {'n':>3s} {'state':>6s} {'strong':>7s} {'morph':>6s} {'endo':>5s} {'time':>7s}")
    for name, a in sweep():
        start = perf_counter()
        counts = {}
        for cls in ("state", "strong", "morphism", "endomorphism"):
            tables = enumerate_operator_tables(a, cls)
            counts[cls] = len(tables)
            if a.size <= args.brute_limit:
                brute = brute_force_operator_tables(a, cls)
                if tables != brute:
                    print(f"MISMATCH for {name} / {cls}", file=sys.stderr)
                    return 1
        elapsed = perf_counter() - start
        checked = "*" if a.size <= args.brute_limit else " "
        print(
            f"{name:22s} {a.size:3d} {counts['state']:6d} {counts['strong']:7d}"
            f" {counts['morphism']:6d} {counts['endomorphism']:5d} {elapsed:6.2f}s{checked}"
        )
    print("(* = verified against unpruned brute force)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
