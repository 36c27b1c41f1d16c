"""The four benchmark workloads.

Each workload builds its inputs from the seed in its constructor (the
set-up that ``setup_s`` times), then exposes one pass of operations in run
order.  ``run(op, tracer)`` performs one operation and checks its output;
``finish(tracer)`` runs checks that are deferred to the end of a run and
returns how many operations they failed.  The program only ever sees the
generated inputs.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
from collections import defaultdict
from math import comb
from pathlib import Path
from time import perf_counter

from syzstab.criterion import (
    Stability,
    check_brute_force,
    check_efficient,
    subset_quotient,
)
from syzstab.families import generate, generate_P2
from syzstab.moduli import cohomology_table
from syzstab.monomial import MonomialFamily, exponent_vectors_of_degree
from syzstab.search import exhaustive_search

from tracing import NullTracer

HERE = Path(__file__).resolve().parent
GOLDEN = (5**0.5 - 1) / 2

# The CLI's machine contract: exit code per status, and the JSON envelope.
EXIT_BY_STATUS = {Stability.STABLE: 0, Stability.SEMISTABLE_ONLY: 2, Stability.UNSTABLE: 3}
SCHEMA_VERSION = 1


def spread_order(items: list, offset: float) -> list:
    """Reorder ``items``, given sorted by expected cost, so that every prefix
    of the result samples the whole cost range evenly: item i is visited in
    the order of frac(offset + i * golden ratio), a low-discrepancy
    sequence.  A run cut off mid-pass then still measures the full mix."""
    ranks = sorted(range(len(items)), key=lambda i: (offset + i * GOLDEN) % 1.0)
    return [items[i] for i in ranks]


def efficient_span(family: MonomialFamily) -> str:
    kind = "equal" if family.is_equal_degree else "mixed"
    return f"criterion.check_efficient.{kind}"


def traced_check_efficient(tr, family: MonomialFamily):
    return tr.call(efficient_span(family), check_efficient, family)


def verify_verdict(tr, family: MonomialFamily, verdict) -> bool:
    """True when the verdict carries exactly the witness its status needs
    and that witness recomputes through ``subset_quotient`` on the claimed
    side of the slope."""
    slope = verdict.family_slope
    if verdict.status is Stability.STABLE:
        return verdict.violation is None and verdict.equality_witness is None
    if verdict.status is Stability.UNSTABLE:
        w, other = verdict.violation, verdict.equality_witness
    else:
        w, other = verdict.equality_witness, verdict.violation
    if w is None or other is not None:
        return False
    again = tr.call("criterion.subset_quotient", subset_quotient, family, w.indices)
    if again.quotient != w.quotient or again.gcd != w.gcd:
        return False
    if verdict.status is Stability.UNSTABLE:
        return w.quotient > slope
    return w.quotient == slope


class PlaneSweep:
    """``generate_P2(n, D)`` then ``check_efficient`` for every plane size n
    at one degree D.  One operation is one (n, D) pair."""

    name = "plane-sweep"
    in_children = False

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.d = 6 if tiny else 22
        sizes = list(range(3, comb(self.d + 2, 2) + 1))
        self.ops = spread_order(sizes, random.Random(seed).random())
        for n in (sizes[0], sizes[-1]):
            self.run(n, NullTracer())

    def inputs(self):
        return {"d": self.d, "order": self.ops}

    def run(self, n: int, tr) -> bool:
        family, _ = tr.call("families.generate", generate_P2, n, self.d)
        tr.count("families.generate.members", family.n)
        verdict = traced_check_efficient(tr, family)
        expected = (
            Stability.SEMISTABLE_ONLY if (n, self.d) == (5, 2) else Stability.STABLE
        )
        return (
            family.n == n
            and family.var_count == 3
            and set(family.degrees) == {self.d}
            and verdict.status is expected
            and verify_verdict(tr, family, verdict)
        )

    def finish(self, tr) -> int:
        return 0


_POOLS: dict[tuple[int, int], list[tuple[int, ...]]] = {}


def draw_family(rng: random.Random, max_vars=4, max_degree=8, max_size=12):
    """One family from acceptance test 1's random distribution, as
    ``(equal_degree_branch, var_count, members)``.  Consumes the generator
    exactly as that test's ``random_gcd_one_family`` does, on raw tuples."""
    while True:
        v = rng.randint(2, max_vars)
        equal = rng.random() < 0.5
        if equal:
            d = rng.randint(1, max_degree)
            pool = _POOLS.get((v, d))
            if pool is None:
                pool = _POOLS[v, d] = list(exponent_vectors_of_degree(v, d))
            n = rng.randint(2, min(max_size, len(pool)))
            members = rng.sample(pool, n)
        else:
            n = rng.randint(2, max_size)
            found: set[tuple[int, ...]] = set()
            while len(found) < n:
                d = rng.randint(1, max_degree)
                vec = [0] * v
                for _ in range(d):
                    vec[rng.randrange(v)] += 1
                found.add(tuple(vec))
            members = sorted(found)
        if not any(all(m[i] for m in members) for i in range(v)):
            return equal, v, members


def stratum_counts(draws: int, seed: int = 0) -> dict[tuple[int, bool], int]:
    """How often each (size, equal-degree branch) stratum occurs among
    ``draws`` families of the distribution; regenerates ``STRATUM_COUNTS``."""
    rng = random.Random(seed)
    counts: dict[tuple[int, bool], int] = defaultdict(int)
    for _ in range(draws):
        equal, _, members = draw_family(rng)
        counts[len(members), equal] += 1
    return dict(sorted(counts.items()))


# stratum_counts(400_000, seed=0).  The subset oracle's cost grows as 2^n,
# so the pool holds each stratum in these fixed proportions: a seed then
# changes which families are drawn, not how many of each size, and the
# run-to-run spread stays small.
STRATUM_COUNTS = {
    (2, False): 1980, (2, True): 31152,
    (3, False): 5272, (3, True): 29928,
    (4, False): 8718, (4, True): 24776,
    (5, False): 12500, (5, True): 20648,
    (6, False): 15588, (6, True): 20667,
    (7, False): 18020, (7, True): 18137,
    (8, False): 20430, (8, True): 17516,
    (9, False): 22170, (9, True): 16597,
    (10, False): 23802, (10, True): 15371,
    (11, False): 25027, (11, True): 12857,
    (12, False): 25866, (12, True): 12978,
}


def _quotas(total: int) -> dict[tuple[int, bool], int]:
    """Largest-remainder split of ``total`` in the STRATUM_COUNTS ratios."""
    weight = sum(STRATUM_COUNTS.values())
    exact = {k: total * c / weight for k, c in STRATUM_COUNTS.items()}
    quotas = {k: int(x) for k, x in exact.items()}
    short = total - sum(quotas.values())
    for k in sorted(exact, key=lambda k: quotas[k] - exact[k])[:short]:
        quotas[k] += 1
    return quotas


class OracleDiff:
    """Seeded random families without a common factor, each decided by
    both ``check_brute_force`` and ``check_efficient``; statuses must agree
    and both witnesses re-validate.  One operation is one family."""

    name = "oracle-diff"
    in_children = False

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        rng = random.Random(seed)
        quotas = _quotas(60 if tiny else 400)
        chosen: dict[tuple[int, bool], list] = defaultdict(list)
        missing = sum(quotas.values())
        while missing:
            equal, v, members = draw_family(rng)
            key = (len(members), equal)
            if len(chosen[key]) < quotas[key]:
                chosen[key].append((v, members))
                missing -= 1
        by_cost = [item for key in sorted(chosen) for item in chosen[key]]
        self.ops = spread_order(by_cost, rng.random())
        for item in self.ops[:3]:
            self.run(item, NullTracer())

    def inputs(self):
        return self.ops

    def run(self, item, tr) -> bool:
        v, members = item
        family = tr.call("monomial.family_of", MonomialFamily.of, members, var_count=v)
        tr.count("monomial.family_of.members", family.n)
        slow = tr.call("criterion.check_brute_force", check_brute_force, family)
        tr.count("criterion.check_brute_force.subsets", 2**family.n)
        fast = traced_check_efficient(tr, family)
        return (
            slow.status is fast.status
            and verify_verdict(tr, family, slow)
            and verify_verdict(tr, family, fast)
        )

    def finish(self, tr) -> int:
        return 0


FULL_CENSUS = [(3, 3, n) for n in range(12, 20)] + [(4, 2, n) for n in range(9, 15)]
TINY_CENSUS = [(3, 3, n) for n in range(17, 20)] + [(4, 2, n) for n in range(12, 15)]


class SearchCensus:
    """Serial ``exhaustive_search`` over the pinned open-gap census; every
    report must match the fixture recorded from the original code.  One
    operation is one search call."""

    name = "search-census"
    in_children = False

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        with open(HERE / "census_fixture.json", encoding="utf-8") as fh:
            self.fixture = json.load(fh)
        census = TINY_CENSUS if tiny else FULL_CENSUS
        self.ops = spread_order(census, random.Random(seed).random())
        self.run((4, 2, 14), NullTracer())

    def inputs(self):
        return self.ops

    def run(self, triple, tr) -> bool:
        N, d, n = triple
        report = tr.call("search.exhaustive_search", exhaustive_search, N, d, n)
        tr.count("search.families_examined", report.families_examined)
        tr.count("search.orbits_examined", report.orbits_examined)
        got = {
            key: value
            for key, value in report.to_json_dict().items()
            if key in ("families_examined", "orbits_examined", "best_status",
                       "best_family", "exhausted")
        }
        return got == self.fixture[f"{N},{d},{n}"]

    def finish(self, tr) -> int:
        return 0


def mixed_family(rng: random.Random, n: int, var_count=5, max_degree=4):
    """n distinct monomials of random degree 1..max_degree, no common factor."""
    while True:
        found: set[tuple[int, ...]] = set()
        while len(found) < n:
            vec = [0] * var_count
            for _ in range(rng.randint(1, max_degree)):
                vec[rng.randrange(var_count)] += 1
            found.add(tuple(vec))
        members = sorted(found)
        if not any(all(m[i] for m in members) for i in range(var_count)):
            return MonomialFamily.of(members)


class CliCheck:
    """Child processes of ``python -m syzstab.cli``, one at a time, on family
    files written during set-up.  One operation is one process.  Exit codes
    and JSON are compared with in-process verdicts at the end of the run."""

    name = "cli-check"
    in_children = True

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        files = workdir / "cli"
        files.mkdir(parents=True, exist_ok=True)
        families = {
            # grid path
            "plane": generate(2, 60, 10)[0] if tiny else generate(2, 400, 30)[0],
            # equal degrees, divisor grid over 500k cells: closure fallback
            "fallback": generate(6, 80, 20)[0],
            # mixed degrees
            "mixed": mixed_family(random.Random(seed), 20 if tiny else 60),
        }
        self.texts = {}
        passes = [("moduli", ("moduli", "2", "4", "3", "--json"))]
        for label, family in families.items():
            path = files / f"{label}.txt"
            self.texts[label] = family.to_text()
            path.write_text(self.texts[label], encoding="utf-8")
            passes.append((label, ("check", "--json", str(path))))
        self.ops = spread_order(passes, random.Random(seed).random())
        self.env = dict(os.environ, PYTHONPATH=str(workdir.parent / "src"))
        self.cwd = workdir.parent
        self.records: list[tuple[str, float, int, str]] = []
        self._spawn(("moduli", "2", "4", "3", "--json"))

    def inputs(self):
        return {"order": [label for label, _ in self.ops], "files": self.texts}

    def _spawn(self, args):
        return subprocess.run(
            [sys.executable, "-m", "syzstab.cli", *args],
            capture_output=True, text=True, env=self.env, cwd=self.cwd,
            stdin=subprocess.DEVNULL, timeout=150,
        )

    def run(self, op, tr) -> bool:
        label, args = op
        start = perf_counter()
        span = "cli.startup" if label == "moduli" else "cli.check"
        proc = tr.call(span, self._spawn, args)
        self.records.append((label, perf_counter() - start, proc.returncode, proc.stdout))
        return True

    # Generated families are stable; the random mixed ones are unstable
    # (exit code 3) for every seed tried.
    EXPECTED = {"plane": Stability.STABLE, "fallback": Stability.STABLE,
                "mixed": Stability.UNSTABLE}

    def finish(self, tr) -> int:
        """Compare every recorded process with the in-process verdict of the
        same input, which must have the expected status; also times that
        in-process parse and check."""
        expected = {"moduli": (0, {"schema_version": SCHEMA_VERSION,
                                   **cohomology_table(2, 4, 3).to_json_dict()})}
        self.in_process_s = {"moduli": 0.0}
        for label, text in self.texts.items():
            start = perf_counter()
            family = tr.call("monomial.from_text", MonomialFamily.from_text, text)
            tr.count("monomial.from_text.members", family.n)
            verdict = traced_check_efficient(tr, family)
            self.in_process_s[label] = perf_counter() - start
            if verdict.status is not self.EXPECTED[label]:
                continue  # no expectation: every process of this input fails
            expected[label] = (
                EXIT_BY_STATUS[verdict.status],
                {"schema_version": SCHEMA_VERSION, **verdict.to_json_dict()},
            )
        failed = 0
        for label, _, code, out in self.records:
            try:
                got = (code, json.loads(out))
            except ValueError:
                got = (code, out)
            failed += got != expected.get(label)
        return failed

    def layer_metrics(self, count: int) -> dict[str, float]:
        """CLI layer figures over the first ``count`` recorded processes."""
        records = self.records[:count]
        startup = [s for label, s, _, _ in records if label == "moduli"]
        checks = [(label, s) for label, s, _, _ in records if label != "moduli"]
        return {
            "cli.startup_s": statistics.median(startup) if startup else 0.0,
            "cli.process_s": sum(s for _, s in checks),
            "cli.self_s": sum(s - self.in_process_s[label] for label, s in checks),
        }


WORKLOADS = {w.name: w for w in (PlaneSweep, OracleDiff, SearchCensus, CliCheck)}
