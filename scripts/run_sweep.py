#!/usr/bin/env python3
"""Sweep the constructions: for each number of variables N+1 and degree d,
build the family of every supported size through ``generate`` (every plane
size for N = 2; N+1 up to (d+2)(d+1)/2 + N - 2 plus the full monomial set
above), check it, and flag a family of the wrong size, degree or pure
powers, and any deviation from the expected verdict (stable everywhere
except the lone semistable-only case (N, n, d) = (2, 5, 2)).  Acceptance
tests 3 and 4 take their expected verdicts from ``sweep_cell``."""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from math import comb

from syzstab.criterion import Stability, check_efficient
from syzstab.errors import Error
from syzstab.families import generate


def sweep_cell(cell: tuple[int, int]) -> tuple[int, int, int, list[str]]:
    """Check all supported sizes for one (N, d): each family must have n
    members, all of degree d, among them every pure power, and the
    expected verdict."""
    N, d = cell
    problems = []
    sizes = list(range(N + 1, comb(d + 2, 2) + N - 2 + 1))
    full = comb(d + N, N)
    if full not in sizes:
        sizes.append(full)
    for n in sizes:
        family, recipe = generate(N, n, d)
        where = f"(N={N}, n={n}, d={d}) [{recipe.source}]"
        if family.degrees != (d,) * n or not family.is_m_primary():
            problems.append(
                f"{where}: expected {n} members of degree {d} with every pure "
                f"power, got {family}"
            )
            continue
        verdict = check_efficient(family)
        expected = (
            Stability.SEMISTABLE_ONLY if (N, n, d) == (2, 5, 2) else Stability.STABLE
        )
        if verdict.status is not expected:
            problems.append(
                f"{where}: expected {expected.value}, got {verdict.status.value}"
            )
    return N, d, len(sizes), problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--dims", type=int, nargs="+", default=[2, 3, 4, 5], metavar="N"
    )
    parser.add_argument("--d-min", type=int, default=1)
    parser.add_argument("--d-max", type=int, default=8)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)
    for bad, message in (
        (min(args.dims) < 2, "--dims must all be at least 2"),
        (args.d_min < 1, "--d-min must be at least 1"),
        (args.d_max < args.d_min, "--d-max must be at least --d-min"),
        (args.jobs < 1, "--jobs must be at least 1"),
    ):
        if bad:
            print(f"error: {message}", file=sys.stderr)
            return 1

    cells = [
        (N, d) for N in args.dims for d in range(args.d_min, args.d_max + 1)
    ]
    workers = min(args.jobs, len(cells), os.cpu_count() or 1)
    total = 0
    failures = []
    try:
        with ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
            scan = pool.map if pool else map
            for N, d, count, problems in scan(sweep_cell, cells):
                total += count
                failures.extend(problems)
                print(
                    f"N={N} d={d}: {count} families checked, "
                    f"{len(problems)} problems"
                )
    except Error as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(f"total: {total} families")
    for line in failures:
        print(f"PROBLEM {line}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
