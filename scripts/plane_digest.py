#!/usr/bin/env python3
"""One SHA-256 over every plane family and its check: the family text and
the ``check_efficient`` JSON of each (n, d), in order.  A change to the
generators, the family constructor or the checker that keeps every answer
keeps the digest.

The planes are every (n, d) with 1 <= d <= --max-degree and
3 <= n <= C(d+2, 2), degree by degree and size by size, each built by
``generate_P2``.  Every plane hashes one JSON line holding (n, d), the
family text and the verdict.  At the default --max-degree the plane count
and digest must equal ``PINNED``, or the script exits 1:

    PYTHONPATH=src python3 scripts/plane_digest.py
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from math import comb

from syzstab.criterion import check_efficient
from syzstab.families import generate_P2

MAX_DEGREE = 30

#: (planes, digest) at MAX_DEGREE.
PINNED = (5395, "d467bda179063ca98433bf16b71132c9307298665868c7410758a2be802dd1f5")


def lines(max_degree: int):
    """One JSON line per plane, in order."""
    for d in range(1, max_degree + 1):
        for n in range(3, comb(d + 2, 2) + 1):
            family, _ = generate_P2(n, d)
            verdict = check_efficient(family)
            yield json.dumps(
                [[n, d], family.to_text(), verdict.to_json_dict()],
                separators=(",", ":"),
            )


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--max-degree", type=int, default=MAX_DEGREE)
    args = p.parse_args(argv)
    if args.max_degree < 1:
        print("error: --max-degree must be at least 1", file=sys.stderr)
        return 1
    h = hashlib.sha256()
    count = 0
    for line in lines(args.max_degree):
        h.update(line.encode() + b"\n")
        count += 1
    found = (count, h.hexdigest())
    print(f"planes: {count}")
    print(f"sha256: {found[1]}")
    if args.max_degree == MAX_DEGREE and found != PINNED:
        print(f"error: expected {PINNED[0]} planes with sha256 {PINNED[1]}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
