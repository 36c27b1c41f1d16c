#!/usr/bin/env python3
"""Sweep every plane family size for a range of degrees: construct the
family for each (n, d), post-validate it, check stability, and flag any
deviation from the expected verdict (stable everywhere except the lone
semistable-only case at n = 5, d = 2)."""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from math import comb

from syzstab.criterion import Stability, check_efficient
from syzstab.families import generate_P2


def sweep_degree(d: int) -> tuple[int, int, list[str]]:
    """Check all sizes for one degree; return (d, families, problems)."""
    problems = []
    top = comb(d + 2, 2)
    for n in range(3, top + 1):
        family, recipe = generate_P2(n, d)
        verdict = check_efficient(family)
        expected = (
            Stability.SEMISTABLE_ONLY if (n, d) == (5, 2) else Stability.STABLE
        )
        if verdict.status is not expected:
            problems.append(
                f"(n={n}, d={d}) [{recipe.source}]: expected "
                f"{expected.value}, got {verdict.status.value}"
            )
    return d, top - 2, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--d-min", type=int, default=2)
    parser.add_argument("--d-max", type=int, default=20)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()

    degrees = range(args.d_min, args.d_max + 1)
    workers = min(args.jobs, len(degrees), os.cpu_count() or 1)
    total = 0
    failures = []
    with ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        scan = pool.map if pool else map
        for d, count, problems in scan(sweep_degree, degrees):
            total += count
            failures.extend(problems)
            print(f"d={d}: {count} families checked, {len(problems)} problems")
    print(f"total: {total} families over d={args.d_min}..{args.d_max}")
    for line in failures:
        print(f"PROBLEM {line}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
