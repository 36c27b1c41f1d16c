#!/usr/bin/env python3
"""One SHA-256 over each corpus that pins the repository's answers: the
plane constructions with their verdicts, the exhaustive searches, and every
generator's family and recipe.  A change that keeps every answer keeps every
digest.

    PYTHONPATH=src python3 scripts/digest.py [planes] [searches] [generators]
        [--max-degree D] [--max-families F]

With no name every digest runs; named digests run in that fixed order.
Each prints its count and its SHA-256.  A digest run at its default bound
must equal its pin, or the script exits 1 after the other digests.

- planes: every (n, d) with 1 <= d <= --max-degree and 3 <= n <= C(d+2, 2),
  degree by degree and size by size, each built by ``generate_P2``.  Every
  plane hashes one JSON line holding (n, d), the family text and the
  ``check_efficient`` verdict.
- searches: every (N, d, n) with N <= 4, d <= 5 and 2 <= n <= C(N+d, N)
  whose search holds at most --max-families families (C(F, n-N-1) for
  F = C(N+d, N) - N - 1 free monomials; none when n <= N).  Each triple runs
  whole, then at each budget b among 1, floor(T/3) and T - 1, for T its
  family count, with 1 <= b < T: cut at b, then resumed from the cut's
  token to the end.  Every run hashes one JSON line holding the triple, the
  budget, the report (token included) and the progress records.
- generators: every call of ``generator_calls``, in order, hashes its
  family and recipe as JSON, or its error's type and text.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from itertools import product
from math import comb

from syzstab.criterion import check_efficient
from syzstab.errors import Error
from syzstab.families import (
    generate,
    generate_full_set,
    generate_P2,
    generate_P31,
    generate_P32,
    generate_P33,
    generate_P34,
    generate_pure_powers,
)
from syzstab.search import DEFAULT_BUDGET, exhaustive_search


def _line(value) -> str:
    return json.dumps(value, separators=(",", ":")) + "\n"


def planes(max_degree: int):
    """One JSON line per plane, in order."""
    for d in range(1, max_degree + 1):
        for n in range(3, comb(d + 2, 2) + 1):
            family, _ = generate_P2(n, d)
            yield _line([[n, d], family.to_text(), check_efficient(family).to_json_dict()])


def searches(max_families: int):
    """One JSON line per search run, in order."""
    for N, d in product(range(1, 5), range(1, 6)):
        monomials = comb(N + d, N)
        for n in range(2, monomials + 1):
            k = n - (N + 1)
            count = comb(monomials - (N + 1), k) if k >= 0 else 0
            if count > max_families:
                continue
            cuts = sorted({b for b in (1, count // 3, count - 1) if 1 <= b < count})
            for budget in [DEFAULT_BUDGET, *cuts]:
                token = None
                while True:
                    records = []
                    report = exhaustive_search(
                        N, d, n, budget if token is None else DEFAULT_BUDGET,
                        progress=records.append, resume_token=token,
                    )
                    yield _line([[N, d, n], budget, token is not None,
                                 report.to_json_dict(), records])
                    token = report.resume_token
                    if token is None:
                        break


def generator_calls():
    """Calls of every generator and dispatcher over small ranges: each
    supported size, the sizes just past them and the full sets."""
    for N in range(2, 6):
        for d in range(1, 9):
            for n in range(1, comb(d + 2, 2) + N + 2):
                yield generate, N, n, d
            yield generate, N, comb(d + N, N), d
    for build in (generate_P31, generate_P32, generate_P33, generate_P34):
        for d in range(1, 17):
            for n in range(1, comb(d + 2, 2) + 2):
                yield build, n, d
    for N in range(1, 5):
        for d in range(1, 6):
            yield generate_full_set, N, d
            yield generate_pure_powers, N, d
    # The catalog past the degrees above: every size at d = 17..60.
    for d in range(17, 61):
        for n in range(3, 19):
            yield generate_P31, n, d


def generators():
    """Each call's family and recipe as JSON, or its error's type and text."""
    for build, *args in generator_calls():
        try:
            family, recipe = build(*args)
            yield json.dumps([family.to_json_dict(), recipe.to_json_dict()])
        except Error as err:
            yield f"{type(err).__name__}:{err}"


def digest_of(texts) -> tuple[int, str]:
    """(count, SHA-256) of the texts, hashed in order."""
    h = hashlib.sha256()
    count = 0
    for count, text in enumerate(texts, 1):
        h.update(text.encode())
    return count, h.hexdigest()


#: name: (the noun it counts, its corpus, the bound flags the corpus takes,
#: its (count, sha256) with those flags at their defaults).
DIGESTS = {
    "planes": ("planes", planes, ("max_degree",),
               (5395, "d467bda179063ca98433bf16b71132c9307298665868c7410758a2be802dd1f5")),
    "searches": ("runs", searches, ("max_families",),
                 (771, "7d43b4b3bdb2bcf29145d09cf8be002ec70f74f760ee251ea4f1fedb0d78115d")),
    "generators": ("calls", generators, (),
                   (5512, "dfcf1104a77820583a52293c545650383544288e1b53de9210f084c91d9283a3")),
}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("names", nargs="*", metavar="name",
                   help=f"one of {', '.join(DIGESTS)} (default: all)")
    p.add_argument("--max-degree", type=int, default=30)
    p.add_argument("--max-families", type=int, default=50_000)
    args = p.parse_intermixed_args(argv)
    unknown = [name for name in args.names if name not in DIGESTS]
    if unknown:
        p.error(f"unknown digest {unknown[0]!r} (choose from {', '.join(DIGESTS)})")
    if args.max_degree < 1:
        print("error: --max-degree must be at least 1", file=sys.stderr)
        return 1
    if args.max_families < 0:
        print("error: --max-families must be at least 0", file=sys.stderr)
        return 1
    failed = False
    for name, (noun, corpus, bounds, pin) in DIGESTS.items():
        if args.names and name not in args.names:
            continue
        found = digest_of(corpus(*(getattr(args, b) for b in bounds)))
        print(f"{noun}: {found[0]}")
        print(f"sha256: {found[1]}")
        if found != pin and all(getattr(args, b) == p.get_default(b) for b in bounds):
            print(f"error: expected {pin[0]} {noun} with sha256 {pin[1]}",
                  file=sys.stderr)
            failed = True
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
