"""Seeded end-to-end and per-layer benchmark of syzstab, stdlib only.

    python3 bench/run.py --workload plane-sweep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the repository root; the package is imported from ``src/``.  Each
run is a closed loop with one client: the next operation starts when the
previous one has finished and been checked, in this one process (the
``cli-check`` workload runs one child process at a time).  The last line
of output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the line before it records the machine and the inputs.

``--trace 0`` reports the end-to-end metrics, from each input's median
time over the run, scaled to a reference machine pace (``pace.py``).
``--trace 1`` is a separate run that records spans around the calls into
each package module for half of ``--seconds``, replays the same operations
untraced to measure the tracing overhead, and reports the per-layer
metrics.  ``bench/targets.json`` names the end-to-end metric and workload
each per-layer metric should move.

The run exits 1 if any operation produced a wrong output, and 2 without a
result if the package source is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import ExitStack
from pathlib import Path
from time import perf_counter

from pace import Pace
from tracing import NullTracer, Tracer, patched

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKDIR = ROOT / ".bench_work"
WORKLOAD_NAMES = ("plane-sweep", "oracle-diff", "search-census", "cli-check")
SETUP_REPEATS = 5
# The tail is the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--tiny", action="store_true", help="tiny inputs, for the smoke test"
    )
    return p.parse_args(argv)


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def fresh_import() -> None:
    """Start an interpreter that imports numpy and the whole package."""
    subprocess.run(
        [sys.executable, "-c", "import numpy, syzstab.cli"],
        cwd=ROOT, stdin=subprocess.DEVNULL, timeout=120, check=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )


def loop(workload, tracer, pace, *, seconds=None, count=None):
    """Run operations in pass order until ``count`` are done, or until
    ``seconds`` have passed and every input has run at least once, marking
    the machine's pace between operations.  Returns ((start, end) of each
    operation, failed operations)."""
    ops = workload.ops
    spans: list[tuple[float, float]] = []
    failed = 0
    deadline = perf_counter() + (seconds or 0)
    while True:
        pace.maybe_mark()
        op = ops[len(spans) % len(ops)]
        began = perf_counter()
        try:
            ok = tracer.call("bench.op", workload.run, op, tracer)
        except Exception:  # a crash is a failed operation; keep measuring
            traceback.print_exc()
            ok = False
        spans.append((began, perf_counter()))
        failed += not ok
        if count is not None:
            if len(spans) == count:
                break
        elif len(spans) >= len(ops) and spans[-1][1] >= deadline:
            break
    pace.mark()
    return spans, failed


def per_input(spans, pace, inputs: int) -> list[float]:
    """Median reference-pace time of each input over the run."""
    scaled = [(end - start) * pace.scale(start, end) for start, end in spans]
    return [statistics.median(scaled[i::inputs]) for i in range(inputs)]


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest nearest-rank percentile that has
    TAIL_BEYOND values above it.  With too few values for that percentile
    to lie above the median, the maximum."""
    ordered = sorted(values)
    if len(ordered) <= 2 * TAIL_BEYOND:
        return ordered[-1], 100.0
    k = len(ordered) - TAIL_BEYOND
    return ordered[k - 1], 100.0 * k / len(ordered)


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload.in_children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def instrument(stack: ExitStack, tracer) -> None:
    """Rebind the two internal call sites the harness cannot wrap from
    outside: the gcd closure inside the checkers and the checker inside
    the search."""
    import syzstab.criterion
    import syzstab.search
    from workloads import efficient_span

    def closure(original):
        def wrapper(family, **kwargs):
            result = tracer.call("criterion.gcd_closure", original, family, **kwargs)
            tracer.count("criterion.gcd_closure.size", len(result))
            return result

        return wrapper

    def search_check(original):
        def wrapper(family, **kwargs):
            return tracer.call(efficient_span(family), original, family, **kwargs)

        return wrapper

    stack.enter_context(patched(syzstab.criterion, "gcd_closure", closure))
    stack.enter_context(patched(syzstab.search, "check_efficient", search_check))


def end_to_end(workload, seconds: float, setup_s: float):
    pace = Pace()
    spans, failed = loop(workload, NullTracer(), pace, seconds=seconds)
    failed += workload.finish(NullTracer())
    times = per_input(spans, pace, len(workload.ops))
    tail_s, tail_pct = tail(times)
    metrics = {
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_ms.p50": (statistics.median(times) * 1e3, "ms"),
        "op_ms.tail": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(workload), "MB"),
        "setup_s": (setup_s, "s"),
    }
    wall = [end - start for start, end in spans]
    elapsed = spans[-1][1] - spans[0][0]
    info = {
        "inputs": len(times),
        "tail_pct": tail_pct,
        "samples": len(spans),
        "elapsed_s": elapsed,
        "kernel_s.median": statistics.median(pace.seconds),
        "wall_ops_per_s": len(spans) / elapsed,
        "wall_op_ms.p50": statistics.median(wall) * 1e3,
    }
    return metrics, len(spans), failed, info


def per_layer(workload, seconds: float):
    tracer = Tracer()
    pace = Pace()
    with ExitStack() as stack:
        instrument(stack, tracer)
        samples, failed = loop(workload, tracer, pace, seconds=seconds / 2)
    replay, replay_failed = loop(workload, NullTracer(), pace, count=len(samples))
    with ExitStack() as stack:
        instrument(stack, tracer)
        failed += replay_failed + workload.finish(tracer)
    traced_s = sum(per_input(samples, pace, len(workload.ops)))
    plain_s = sum(per_input(replay, pace, len(workload.ops)))

    secs, calls = tracer.totals()
    counts = tracer.counts
    own = tracer.layer_self_seconds()
    families = counts["search.families_examined"]
    orbits = counts["search.orbits_examined"]
    cli = (
        workload.layer_metrics(len(samples))
        if hasattr(workload, "layer_metrics")
        else {"cli.startup_s": 0.0, "cli.process_s": 0.0, "cli.self_s": 0.0}
    )

    def spans(name):
        return {f"{name}.s": (secs[name], "s"), f"{name}.calls": (calls[name], "count")}

    metrics = {
        **spans("criterion.check_efficient.equal"),
        **spans("criterion.check_efficient.mixed"),
        "criterion.check_brute_force.s": (secs["criterion.check_brute_force"], "s"),
        "criterion.check_brute_force.subsets": (
            counts["criterion.check_brute_force.subsets"], "count"),
        "criterion.gcd_closure.s": (secs["criterion.gcd_closure"], "s"),
        "criterion.gcd_closure.size": (counts["criterion.gcd_closure.size"], "count"),
        **spans("criterion.subset_quotient"),
        "criterion.self_s": (own["criterion"], "s"),
        "search.exhaustive_search.s": (secs["search.exhaustive_search"], "s"),
        "search.families_examined": (families, "count"),
        "search.orbits_examined": (orbits, "count"),
        "search.orbit_ratio": (orbits / families if families else 0.0, "ratio"),
        "search.check_efficient.s": (
            tracer.child_seconds("search.exhaustive_search"), "s"),
        "search.self_s": (own["search"], "s"),
        **spans("families.generate"),
        "families.generate.members": (counts["families.generate.members"], "count"),
        "families.self_s": (own["families"], "s"),
        **spans("monomial.family_of"),
        "monomial.family_of.members": (counts["monomial.family_of.members"], "count"),
        "monomial.from_text.s": (secs["monomial.from_text"], "s"),
        "monomial.from_text.members": (counts["monomial.from_text.members"], "count"),
        "monomial.self_s": (own["monomial"], "s"),
        **{name: (value, "s") for name, value in cli.items()},
        "bench.self_s": (own["bench"], "s"),
        "bench.ops": (len(samples), "count"),
        "trace.overhead_frac": (traced_s / plain_s - 1.0, "ratio"),
        "trace.spans": (len(tracer.spans), "count"),
    }
    tracer.write(WORKDIR / f"spans-{workload.name}.jsonl")
    info = {"samples": len(samples), "traced_s": traced_s, "untraced_s": plain_s}
    return metrics, 2 * len(samples), failed, info


def run_one(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import syzstab
    from workloads import WORKLOADS

    if Path(syzstab.__file__).resolve().parent != ROOT / "src" / "syzstab":
        print(f"error: imported syzstab from {syzstab.__file__}", file=sys.stderr)
        return 2

    # Set-up is a fresh interpreter's imports, then input generation, file
    # writes and warm-up; it is repeated and the median reported.
    WORKDIR.mkdir(exist_ok=True)
    pace = Pace()
    setups = []
    for _ in range(SETUP_REPEATS):
        pace.mark()
        began = perf_counter()
        fresh_import()
        workload = WORKLOADS[args.workload](args.seed, args.tiny, WORKDIR)
        ended = perf_counter()
        pace.mark()
        setups.append((ended - began) * pace.scale(began, ended))
    setup_s = statistics.median(setups)

    if args.trace:
        metrics, attempted, failed, run_info = per_layer(workload, args.seconds)
    else:
        metrics, attempted, failed, run_info = end_to_end(
            workload, args.seconds, setup_s)

    inputs = json.dumps(workload.inputs(), sort_keys=True, separators=(",", ":"))
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "input_sha256": hashlib.sha256(inputs.encode()).hexdigest(),
        "failed_frac": failed / attempted,
        "setup_runs_s": setups,
        **run_info,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": git_commit(),
    }
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:14} {name:38} {value:>16.6f} {unit}")
    print(f"{args.workload:14} {'failed_frac':38} {failed / attempted:>16.6f} ratio")
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process, one after another, so that no
    workload's peak memory or warm state carries into the next."""
    metrics = {}
    attempted = failed = 0
    correct = True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              stdin=subprocess.DEVNULL)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"error: workload {name} printed no result", file=sys.stderr)
            correct = False
            continue
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct and failed == 0 else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "syzstab" / "__init__.py").is_file():
        print(f"error: package source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
