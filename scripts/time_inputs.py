#!/usr/bin/env python3
"""Time the runs that no benchmark workload reaches: whole searches,
among them one at N = 5 whose lanes take several blocks, budgeted
searches of spaces past the orbit filter's lanes or past
``criterion.GRID_LIMIT``, the whole search over the widest image table,
a whole search past the grid limit that no status floor shortens, a
whole search of three monomials past both of the filter's caps, and the
plane sweep at d = 40.  Each input runs in a child process R times, and
its line gives the median wall time, the range and the SHA-256 of the
child's stdout, so that a speed claim also shows that the answers did
not move.

    python3 scripts/time_inputs.py [name ...] [--rounds R] [--against DIR]

With no name every input runs, in the table's order.  A child runs from
the root of its checkout, with ``PYTHONPATH=src`` and
``PYTHONDONTWRITEBYTECODE=1``; its time includes interpreter start-up.  A
child writes no bytecode cache but reads one that is there, so compare
checkouts that hold no ``__pycache__``, such as fresh ``git archive``
copies, and every module a child loads is compiled.
``--against DIR`` names a second checkout, say the parent commit's: each
round runs both, DIR first on odd rounds and this one first on even rounds,
and each input prints a line for each, then the ratio of their medians.
The script exits 1 if a child fails, if an input's output differs between
rounds, or if the two checkouts print different output.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]

_SEARCH = ["-m", "syzstab.cli", "search"]

#: name: the child's arguments after the interpreter, run from a checkout's
#: root.  The first six searches run whole; 5 4 9 keeps 292 lanes, in 3
#: blocks, and an image table of the other 428 permutations.  4 14 7 and
#: 3 27 6 lie past the lanes, 2 90 5 past the grid limit.  Whole 2 600 4
#: walks the widest image table, F = 180,898 free monomials at k = 1.
#: Whole 1 800 4 lies past the grid limit and has no semistable family,
#: so every representative takes a status.  Whole 8 2 12 keeps 3,237
#: lanes and streams the image columns of the other 359,643 permutations,
#: three columns zipped for each family that passes the lanes.
INPUTS = {
    "search-3-4-10": [*_SEARCH, "3", "4", "10"],
    "search-4-3-13": [*_SEARCH, "4", "3", "13"],
    "search-2-6-8": [*_SEARCH, "2", "6", "8"],
    "search-7-2-12": [*_SEARCH, "7", "2", "12"],
    "search-9-2-11": [*_SEARCH, "9", "2", "11"],
    "search-5-4-9": [*_SEARCH, "5", "4", "9"],
    "search-4-14-7": [*_SEARCH, "4", "14", "7", "--budget", "2000000"],
    "search-3-27-6": [*_SEARCH, "3", "27", "6", "--budget", "1000000"],
    "search-2-90-5": [*_SEARCH, "2", "90", "5", "--budget", "3000000"],
    "search-2-600-4": [*_SEARCH, "2", "600", "4"],
    "search-1-800-4": [*_SEARCH, "1", "800", "4"],
    "search-8-2-12": [*_SEARCH, "8", "2", "12"],
    "sweep-2-40": [
        "scripts/run_sweep.py", "--dims", "2", "--d-min", "40", "--d-max", "40"
    ],
}


def run_child(root: Path, args: list[str]) -> tuple[float, int, bytes, bytes]:
    """(wall seconds, exit code, stdout, stderr) of one child process."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    start = perf_counter()
    done = subprocess.run(
        [sys.executable, *args], cwd=root, env=env, capture_output=True
    )
    return perf_counter() - start, done.returncode, done.stdout, done.stderr


def time_input(name: str, roots: list[Path], rounds: int) -> tuple[list, list]:
    """Each root's list of wall times and set of stdout digests, over
    ``rounds`` rounds of ``INPUTS[name]``; with two roots, the second goes
    first on odd rounds.  Raises ``RuntimeError`` if a child fails."""
    times: list[list[float]] = [[] for _ in roots]
    digests: list[set[str]] = [set() for _ in roots]
    for r in range(1, rounds + 1):
        order = range(len(roots)) if r % 2 == 0 else reversed(range(len(roots)))
        for i in order:
            seconds, code, out, err = run_child(roots[i], INPUTS[name])
            if code:
                last = err.decode(errors="replace").strip().splitlines()[-1:]
                raise RuntimeError(f"{name} exited {code} in {roots[i]}: {''.join(last)}")
            times[i].append(seconds)
            digests[i].add(hashlib.sha256(out).hexdigest())
    return times, digests


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("names", nargs="*", metavar="name",
                   help=f"one of {', '.join(INPUTS)} (default: all)")
    p.add_argument("--rounds", type=int, default=5)
    p.add_argument("--against", type=Path, metavar="DIR",
                   help="a second checkout to alternate with this one")
    args = p.parse_intermixed_args(argv)
    unknown = [name for name in args.names if name not in INPUTS]
    problem = None
    if unknown:
        problem = f"unknown input {unknown[0]!r} (choose from {', '.join(INPUTS)})"
    elif args.rounds < 1:
        problem = "--rounds must be at least 1"
    elif args.against is not None and not (args.against / "src" / "syzstab").is_dir():
        problem = f"--against {args.against} holds no src/syzstab"
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 1
    roots = [ROOT] if args.against is None else [ROOT, args.against.resolve()]
    labels = ["here", "against"]
    failed = False
    for name in args.names or INPUTS:
        try:
            times, digests = time_input(name, roots, args.rounds)
        except RuntimeError as err:
            print(f"error: {err}", file=sys.stderr)
            failed = True
            continue
        medians = [statistics.median(t) for t in times]
        for label, t, median, found in zip(labels, times, medians, digests):
            print(f"{name} {label}: median {median:.3f} s, range "
                  f"[{min(t):.3f}, {max(t):.3f}] s, sha256 {' '.join(sorted(found))}",
                  flush=True)
        if len(roots) == 2:
            print(f"{name} against/here: {medians[1] / medians[0]:.2f}x", flush=True)
        if len(set().union(*digests)) > 1:
            print(f"error: {name} printed different output", file=sys.stderr)
            failed = True
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
