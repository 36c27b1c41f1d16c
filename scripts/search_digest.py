#!/usr/bin/env python3
"""One SHA-256 over many exhaustive searches: their reports, resume tokens
and progress records, in order.  A change to the search that keeps every
answer keeps the digest.

The triples are every (N, d, n) with N <= 4, d <= 5 and
2 <= n <= C(N+d, N) whose search holds at most --max-families families
(C(F, n-N-1) for F = C(N+d, N) - N - 1 free monomials; none when n <= N).
Each triple runs whole, then at each budget b among 1, floor(T/3) and
T - 1, for T its family count, with 1 <= b < T: cut at b, then resumed
from the cut's token to the end.  Every run hashes one JSON line holding
the triple, the budget, the report (token included) and the progress
records.  At the default --max-families the run count and digest must
equal ``PINNED``, or the script exits 1:

    PYTHONPATH=src python3 scripts/search_digest.py
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from math import comb

from syzstab.search import DEFAULT_BUDGET, exhaustive_search

MAX_N = 4
MAX_D = 5
MAX_FAMILIES = 50_000

#: (runs, digest) at MAX_FAMILIES.
PINNED = (771, "7d43b4b3bdb2bcf29145d09cf8be002ec70f74f760ee251ea4f1fedb0d78115d")


def triples(max_families: int):
    """(N, d, n, family count) of every triple the rule picks, in order."""
    for N in range(1, MAX_N + 1):
        for d in range(1, MAX_D + 1):
            monomials = comb(N + d, N)
            for n in range(2, monomials + 1):
                k = n - (N + 1)
                count = comb(monomials - (N + 1), k) if k >= 0 else 0
                if count <= max_families:
                    yield N, d, n, count


def runs(max_families: int):
    """One JSON line per search run, in order."""
    for N, d, n, count in triples(max_families):
        cuts = sorted({b for b in (1, count // 3, count - 1) if 1 <= b < count})
        for budget in [DEFAULT_BUDGET, *cuts]:
            token = None
            while True:
                records = []
                report = exhaustive_search(
                    N, d, n, budget if token is None else DEFAULT_BUDGET,
                    progress=records.append, resume_token=token,
                )
                yield json.dumps(
                    [[N, d, n], budget, token is not None, report.to_json_dict(),
                     records],
                    separators=(",", ":"),
                )
                token = report.resume_token
                if token is None:
                    break


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--max-families", type=int, default=MAX_FAMILIES)
    args = p.parse_args(argv)
    if args.max_families < 0:
        print("error: --max-families must be at least 0", file=sys.stderr)
        return 1
    h = hashlib.sha256()
    count = 0
    for line in runs(args.max_families):
        h.update(line.encode() + b"\n")
        count += 1
    found = (count, h.hexdigest())
    print(f"runs: {count}")
    print(f"sha256: {found[1]}")
    if args.max_families == MAX_FAMILIES and found != PINNED:
        print(f"error: expected {PINNED[0]} runs with sha256 {PINNED[1]}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
