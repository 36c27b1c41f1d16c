#!/usr/bin/env python3
"""Differential fuzzing of the two checkers: draw random families (equal
and mixed degree), run the exponential subset scan and the candidate-gcd
checker on each, the latter on its default path and forced onto the
closed-cell scan, and require identical verdicts, witness included, whose
witness re-validates exactly through verify_verdict."""

from __future__ import annotations

import argparse
import random
import sys
from math import comb

from syzstab import criterion
from syzstab.criterion import (
    Stability,
    StabilityVerdict,
    check_brute_force,
    check_efficient,
    verify_verdict,
)
from syzstab.errors import InvalidVerdictError
from syzstab.monomial import MonomialFamily, exponent_vectors_of_degree


def random_family(
    rng: random.Random, max_dim: int = 3, max_degree: int = 8, max_size: int = 12
) -> MonomialFamily:
    """A random gcd-1 family, equal-degree half the time, mixed otherwise.
    At the default bounds this is acceptance test 1's distribution."""
    while True:
        var_count = rng.randint(2, max_dim + 1)
        if rng.random() < 0.5:
            d = rng.randint(1, max_degree)
            pool = list(exponent_vectors_of_degree(var_count, d))
            n = rng.randint(2, min(max_size, len(pool)))
            members = rng.sample(pool, n)
        else:
            # Never more members than nonzero vectors of degree at most
            # max_degree, or the draw below would not end.
            nonzero = comb(max_degree + var_count, var_count) - 1
            n = rng.randint(2, min(max_size, nonzero))
            members = set()
            while len(members) < n:
                d = rng.randint(1, max_degree)
                vec = [0] * var_count
                for _ in range(d):
                    vec[rng.randrange(var_count)] += 1
                members.add(tuple(vec))
            members = sorted(members)
        family = MonomialFamily.of(members, var_count=var_count)
        if family.overall_gcd().is_unit:
            return family


def disagreement(family: MonomialFamily) -> tuple[StabilityVerdict, str | None]:
    """The oracle's verdict on ``family``, and what is wrong with it or with
    the candidate-gcd checker's: None when the default path and the forced
    closed-cell scan give the oracle's whole verdict, witness included, and
    that witness re-validates through verify_verdict."""
    slow = check_brute_force(family)
    fast = check_efficient(family)
    grid_limit = criterion.GRID_LIMIT
    criterion.GRID_LIMIT = 0  # no lattice scan: force the closed-cell scan
    try:
        closure = check_efficient(family)
    finally:
        criterion.GRID_LIMIT = grid_limit
    if not slow == fast == closure:
        return slow, f"brute:   {slow}\n  default: {fast}\n  closure: {closure}"
    try:
        verify_verdict(family, slow)
    except InvalidVerdictError as err:
        return slow, f"witness does not re-validate: {err}"
    return slow, None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--max-dim", type=int, default=3)
    parser.add_argument("--max-degree", type=int, default=8)
    parser.add_argument("--max-size", type=int, default=12)
    args = parser.parse_args(argv)
    # 2^n subsets per family of n members: the oracle's budget caps n.
    top = criterion.BRUTE_BUDGET.bit_length() - 1
    for bad, message in (
        (args.samples < 1, "--samples must be at least 1"),
        (args.max_dim < 1, "--max-dim must be at least 1"),
        (args.max_degree < 1, "--max-degree must be at least 1"),
        (not 2 <= args.max_size <= top, f"--max-size must be between 2 and {top}"),
    ):
        if bad:
            print(f"error: {message}", file=sys.stderr)
            return 1
    if args.seed is None:
        args.seed = random.randrange(2**32)
    print(f"seed: {args.seed}")
    rng = random.Random(args.seed)

    counts = {status: 0 for status in Stability}
    for index in range(args.samples):
        family = random_family(rng, args.max_dim, args.max_degree, args.max_size)
        verdict, problem = disagreement(family)
        if problem is not None:
            print(
                f"MISMATCH at sample {index}:\n  {problem}\n{family.to_text()}",
                file=sys.stderr,
            )
            return 1
        counts[verdict.status] += 1
        if (index + 1) % 1000 == 0:
            print(f"{index + 1}/{args.samples} checked")

    for status, count in counts.items():
        print(f"{status.value}: {count}")
    print("all verdicts agree; all witnesses re-validate")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
