#!/usr/bin/env python3
"""Search for state operators that are not strong.

Whether such an operator exists is open; this sweep enumerates both
classes over a family of small algebras and reports any difference as a
candidate counterexample with its witness, never as a proof.
"""

import argparse
import sys

from blstate import operators
from blstate.constructors import direct_product, godel_chain, mv_chain, ordinal_sum


def candidates(max_chain: int, max_size: int):
    chains = [mv_chain(n) for n in range(1, max_chain + 1)]
    chains += [godel_chain(n) for n in range(2, max_chain + 1)]
    for a in chains:
        yield a
    for a in chains:
        for b in chains:
            if a.size * b.size <= max_size:
                yield direct_product(a, b)
    for a in chains:
        for b in chains:
            if a.is_linear and a.size + b.size - 1 <= max_size:
                yield ordinal_sum([a, b])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-chain", type=int, default=4)
    parser.add_argument("--max-size", type=int, default=9,
                        help="largest product or ordinal-sum carrier to search")
    args = parser.parse_args(argv)

    total_state = total_candidates = 0
    seen = set()
    for a in candidates(args.max_chain, args.max_size):
        key = (a.meet, a.join, a.prod, a.impl)
        if key in seen:
            continue
        seen.add(key)
        n_state, n_strong, gap = operators.state_strong_gap(a)
        total_state += n_state
        total_candidates += len(gap)
        marker = f"  <-- {len(gap)} candidate(s)" if gap else ""
        print(f"n={a.size:2d} state={n_state:3d} strong={n_strong:3d}{marker}")
        for t, witness in gap:
            print(f"    candidate (not a proof): {t} strong axiom fails at {witness}")
    print(f"searched {len(seen)} algebras, {total_state} state operators,"
          f" {total_candidates} candidate(s) that are state but not strong")
    return 0


if __name__ == "__main__":
    sys.exit(main())
