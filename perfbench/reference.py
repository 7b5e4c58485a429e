#!/usr/bin/env python3
"""Regenerate perfbench/reference.json: |Cong(P)| and its height per block shape.

    python3 perfbench/reference.py            # about half a minute

For every multiset of kernel-block sizes on n <= 4 points, the variant is
built from a representative sandwich by the benchmark's own star-product
table (checks.star_table), and its congruences are listed by varcong's
brute-force oracle alone (varcong.congruence.enumerate_all_congruences),
which knows nothing of the structure theory.  Heights come from a
longest-chain search over the oracle's relations.  The same is done for
the image monoids T_1..T_3.

Where the oracle is too slow (T_4: 256 elements, about three minutes)
the classical value stands in: Cong(T_4) is Malcev's chain of 11
congruences, so its height is 11 too.  The output is deterministic, so a
regenerated file is byte-identical to the stored one.
"""

import json
import sys
from pathlib import Path

import numpy as np

import checks

HERE = Path(__file__).resolve().parent
OUT = HERE / "reference.json"


def partitions(n, least=1):
    """Multisets of positive integers summing to n, as sorted tuples."""
    if n == 0:
        yield ()
        return
    for first in range(least, n + 1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def representative(shape):
    """Idempotent whose kernel blocks are consecutive runs of the given
    sizes, each mapped to its smallest point: (1, 1, 2) -> '4: 1 2 3 3'."""
    images = []
    for size in shape:
        images += [len(images)] * size
    return checks.format_map(tuple(images))


def oracle_census(mul):
    """(count, height) of the congruence lattice of a table, by the oracle."""
    from varcong.congruence import enumerate_all_congruences
    rels = enumerate_all_congruences(np.asarray(mul), cap=len(mul))
    labels = [np.asarray(rel.block_id, dtype=np.int64) for rel in rels]
    for lab in labels:
        if not checks.is_compatible(np.asarray(mul), lab):
            raise AssertionError("the oracle returned a non-congruence")
    return len(rels), checks.longest_chain(labels)


def main():
    sys.path.insert(0, str(HERE.parent / "src"))
    shapes = {}
    for n in range(1, 5):
        for shape in partitions(n):
            a = representative(shape)
            mul = checks.star_table(a)
            if shape == (1, 1, 1, 1):
                count = height = checks.image_monoid_congruences(4)
                source = "classical: Cong(T_4) is Malcev's chain"
            else:
                count, height = oracle_census(mul)
                source = "oracle"
            shapes[checks.shape_key(shape)] = {
                "sandwich": a, "elements": len(mul), "congruences": count,
                "height": height, "source": source}
            print(f"{a}: |P|={len(mul)} |Cong|={count} height={height} ({source})",
                  file=sys.stderr)
    monoids = {}
    for r in range(1, 5):
        if r == 4:
            count, source = checks.image_monoid_congruences(4), "classical"
        else:
            count, _ = oracle_census(checks.plain_table(r))
            source = "oracle"
            if count != checks.image_monoid_congruences(r):
                raise AssertionError(f"oracle gives |Cong(T_{r})| = {count}")
        monoids[str(r)] = {"congruences": count, "source": source}
    payload = {"generated_by": "python3 perfbench/reference.py",
               "shapes": shapes, "image_monoids": monoids}
    OUT.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT}", file=sys.stderr)


if __name__ == "__main__":
    main()
