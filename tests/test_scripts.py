import contextlib
import hashlib
import io
import shutil
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syzstab import cli, criterion, search
from syzstab.criterion import Stability, StabilityVerdict, SubsetWitness
from syzstab.monomial import MonomialFamily

from conftest import CHILD_ENV, SCRIPTS, load_script


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        timeout=60,
        env=CHILD_ENV,
    )


def test_sweep_script_checks_every_cell():
    # N = 2 has C(d+2, 2) - 2 plane sizes: 1 + 4 + 8 + 13 for d = 1..4.
    # N = 3 has sizes 4..C(d+2, 2)+1 plus the full set C(d+3, 3) whenever it
    # lies above them: 1 + 5 + 9 + 14.
    proc = run_script("run_sweep.py", "--dims", "2", "3", "--d-max", "4")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1] == "total: 55 families"
    assert len(lines) == 9
    assert all(line.endswith(", 0 problems") for line in lines[:-1])


@pytest.mark.parametrize(
    "members",
    [
        [(0, 2, 0), (0, 0, 2)],  # a member short
        [(3, 0, 0), (0, 2, 0), (0, 0, 2)],  # a member of degree 3
        [(1, 1, 0), (0, 2, 0), (0, 0, 2)],  # no pure power of x0
    ],
)
def test_sweep_cell_reports_a_malformed_family(members, monkeypatch):
    # Acceptance tests 3 and 4 rely on sweep_cell for the shape of every
    # family too: here the three quadric pure powers are replaced.
    run_sweep = load_script("run_sweep")
    generate = run_sweep.generate

    def spoiled(N, n, d):
        family, recipe = generate(N, n, d)
        return (MonomialFamily.of(members) if n == 3 else family), recipe

    monkeypatch.setattr(run_sweep, "generate", spoiled)
    assert run_sweep.sweep_cell((2, 2)) == (2, 2, 4, [
        "(N=2, n=3, d=2) [P31]: expected 3 members of degree 2 with every "
        f"pure power, got {MonomialFamily.of(members)}"
    ])


@pytest.mark.parametrize(
    "args, message",
    [
        (["--dims", "2", "1"], "--dims must all be at least 2"),
        (["--d-min", "0"], "--d-min must be at least 1"),
        (["--d-min", "5", "--d-max", "4"], "--d-max must be at least --d-min"),
        (["--jobs", "0"], "--jobs must be at least 1"),
    ],
)
def test_sweep_script_rejects_bad_flags_before_any_cell(args, message, capsys):
    # No construction covers N < 2 or d < 1, an empty degree range sweeps
    # nothing and no worker count below one runs anything; each is refused
    # before the first cell runs.
    assert load_script("run_sweep").main(args) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_sweep_script_reports_an_unsupported_range_without_a_traceback():
    # N = 2000 in degree 1 asks for 2,001 members in 2,001 variables, past
    # the member-cell limit of the constructions.
    proc = run_script("run_sweep.py", "--dims", "2000", "--d-min", "1", "--d-max", "1")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: family too large: 2001 members x 2001 variables exceeds the "
        "limit of 1000000 member cells\n"
    )


def test_oracle_fuzz_script_agrees():
    # The one tool that runs every family through the closed-cell scan too.
    proc = run_script("run_oracle_fuzz.py", "--samples", "200", "--seed", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "seed: 1"
    assert lines[-1] == "all verdicts agree; all witnesses re-validate"


@pytest.mark.parametrize(
    "args, message",
    [
        (["--samples", "-3"], "--samples must be at least 1"),
        (["--samples", "0"], "--samples must be at least 1"),
        (["--max-dim", "0"], "--max-dim must be at least 1"),
        (["--max-degree", "0"], "--max-degree must be at least 1"),
        (["--max-size", "1"], "--max-size must be between 2 and 24"),
        (["--max-size", "25"], "--max-size must be between 2 and 24"),
    ],
)
def test_oracle_fuzz_script_rejects_bad_flags_before_any_sample(
    args, message, capsys
):
    # No family has fewer than two variables, degree 0 or one member, the
    # oracle refuses more than 24 members, and no samples checks nothing.
    assert load_script("run_oracle_fuzz").main(args) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_oracle_fuzz_script_draws_from_a_small_space(capsys):
    # Two variables in degree 1 give only x0 and x1: a mixed draw of up to
    # twelve members must stop at two.  Run in process, through main(argv).
    argv = ["--samples", "20", "--seed", "1", "--max-dim", "1", "--max-degree", "1"]
    assert load_script("run_oracle_fuzz").main(argv) == 0
    assert capsys.readouterr().out.splitlines()[-4:] == [
        "stable: 20",
        "semistable-only: 0",
        "unstable: 0",
        "all verdicts agree; all witnesses re-validate",
    ]


# x0^5, x1^5, x2^5, x0^4 x1: the pair {x0^5, x0^4 x1} has quotient -6,
# above the slope -20/3.
UNSTABLE = MonomialFamily.of([(5, 0, 0), (0, 5, 0), (0, 0, 5), (4, 1, 0)])


def _stable(verdict):
    return StabilityVerdict(Stability.STABLE, verdict.family_slope)


def _quotient_off_by_one(verdict):
    w = verdict.violation
    broken = SubsetWitness(w.indices, w.gcd, w.size, w.quotient + 1, w.family_slope)
    return StabilityVerdict(verdict.status, verdict.family_slope, broken)


@pytest.mark.parametrize(
    "checks, spoil, problem",
    [
        # The candidate-gcd checker calls an unstable family stable.
        (
            ("check_efficient",), _stable,
            "brute:   StabilityVerdict(status=<Stability.UNSTABLE: 'unstable'>",
        ),
        # Every checker agrees on a violation that does not recompute.
        (
            ("check_brute_force", "check_efficient"), _quotient_off_by_one,
            "witness does not re-validate: violation on [0, 1] does not "
            "recompute: gcd x0^4, quotient -6",
        ),
    ],
)
def test_oracle_fuzz_reports_a_disagreement(
    checks, spoil, problem, monkeypatch, capsys
):
    # The fuzz's one per-family check, which acceptance test 1 runs too,
    # passes the real checkers and reports each injected fault: a verdict
    # that differs, or a witness that does not re-validate, in which case
    # main stops with exit code 1 instead of a traceback.
    fuzz = load_script("run_oracle_fuzz")
    verdict, found = fuzz.disagreement(UNSTABLE)
    assert (verdict.status, found) == (Stability.UNSTABLE, None)
    for name in checks:
        check = getattr(fuzz, name)
        monkeypatch.setattr(fuzz, name, lambda fam, check=check: spoil(check(fam)))
    verdict, found = fuzz.disagreement(UNSTABLE)
    assert verdict.status is Stability.UNSTABLE
    assert found.startswith(problem)
    monkeypatch.setattr(fuzz, "random_family", lambda *args: UNSTABLE)
    assert fuzz.main(["--samples", "1", "--seed", "1"]) == 1
    assert capsys.readouterr() == (
        "seed: 1\n", f"MISMATCH at sample 0:\n  {found}\n{UNSTABLE.to_text()}\n"
    )


def test_search_digest_is_unchanged():
    # Every (N <= 4, d <= 5, n) search of at most 2,000 families, whole and
    # cut at budgets 1, T/3 and T - 1 then resumed: the digest of their
    # reports, tokens and progress records as they were when every
    # representative's status came from check_efficient.
    proc = run_script("digest.py", "searches", "--max-families", "2000")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "runs: 533",
        "sha256: 2d74cfd4a321acdbc766fe47b730c18e9c03d674e91237b5182493674eecbea4",
    ]


def test_search_digest_is_unchanged_past_the_grid_limit(monkeypatch, capsys):
    # The same 533 runs with GRID_LIMIT = 0, so that no search shares a mask
    # table and every status comes from the family's own closed-cell scan.
    digest = load_script("digest")
    walks = []
    monkeypatch.setattr(criterion, "GRID_LIMIT", 0)
    for module in (criterion, search):
        monkeypatch.setattr(module, "_lattice_walk", lambda *args: walks.append(args))
    assert digest.main(["searches", "--max-families", "2000"]) == 0
    assert walks == []
    assert capsys.readouterr().out.splitlines() == [
        "runs: 533",
        "sha256: 2d74cfd4a321acdbc766fe47b730c18e9c03d674e91237b5182493674eecbea4",
    ]


def test_plane_digest_is_unchanged():
    # Every plane (n, d) with d <= 12 through generate_P2 and
    # check_efficient: the digest of their family texts and verdict JSON as
    # they were when families sorted by Monomial.canon_key and vectors came
    # from a recursive enumerator.
    proc = run_script("digest.py", "planes", "--max-degree", "12")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "planes: 430",
        "sha256: cf1c22fb7e0164a739adfeb99a51aeb8a4b460bcefba7414509fd8c01edc7bb9",
    ]


def test_digest_runs_every_corpus_when_none_is_named(capsys):
    # Planes and searches run below their defaults, so only the generator
    # pin applies; the three digests print in their fixed order.
    assert load_script("digest").main(["--max-degree", "1", "--max-families", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[::2] == ["planes: 1", "runs: 30", "calls: 5512"]
    assert lines[5] == (
        "sha256: dfcf1104a77820583a52293c545650383544288e1b53de9210f084c91d9283a3"
    )


@pytest.mark.parametrize(
    "args, message",
    [
        (["planes", "--max-degree", "0"], "--max-degree must be at least 1"),
        (["planes", "--max-degree", "-4"], "--max-degree must be at least 1"),
        (["searches", "--max-families", "-1"], "--max-families must be at least 0"),
        (["searches", "--max-degree", "0"], "--max-degree must be at least 1"),
    ],
)
def test_digest_refuses_bounds_that_select_nothing(args, message, capsys):
    # Such a bound hashes no input and would print the empty digest.  It is
    # refused before any digest runs, whether or not its digest is named.
    assert load_script("digest").main(args) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_search_digest_at_zero_families_runs_the_empty_searches(capsys):
    # n <= N leaves no free member to choose, so those searches hold no
    # family and still run.
    assert load_script("digest").main(["searches", "--max-families", "0"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "runs: 30"


def test_timing_driver_alternates_two_checkouts(monkeypatch, tmp_path, capsys):
    # One tiny search, 2 rounds, against a copy of this source tree: the
    # copy runs first in round 1 and second in round 2, and every line
    # carries the SHA-256 of the search's own output.
    driver = load_script("time_inputs")
    shutil.copytree(SCRIPTS.parent / "src" / "syzstab", tmp_path / "src" / "syzstab",
                    ignore=shutil.ignore_patterns("__pycache__"))
    search_226 = ["-m", "syzstab.cli", "search", "2", "2", "6"]
    monkeypatch.setitem(driver.INPUTS, "tiny", search_226)
    roots = []
    run_child = driver.run_child

    def recorded(root, args):
        roots.append(root)
        return run_child(root, args)

    monkeypatch.setattr(driver, "run_child", recorded)
    assert driver.main(["tiny", "--rounds", "2", "--against", str(tmp_path)]) == 0
    assert roots == [tmp_path, driver.ROOT, driver.ROOT, tmp_path]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["search", "2", "2", "6"]) == 0
    sha = hashlib.sha256(out.getvalue().encode()).hexdigest()
    here, against, ratio = capsys.readouterr().out.splitlines()
    assert here.startswith("tiny here: median ") and here.endswith(f", sha256 {sha}")
    assert against.startswith("tiny against: ") and against.endswith(f", sha256 {sha}")
    assert ratio.startswith("tiny against/here: ")


def test_timing_driver_fails_on_different_output_or_a_failed_child(
    monkeypatch, tmp_path, capsys
):
    # Fake children, so that no process starts: one prints its checkout's
    # path, the other fails.  A failed input is reported and the rest run.
    driver = load_script("time_inputs")
    (tmp_path / "src" / "syzstab").mkdir(parents=True)
    args = ["search-2-6-8", "--rounds", "1", "--against", str(tmp_path)]

    def prints_its_root(root, args):
        return 1.0, 0, str(root).encode(), b""

    def fails(root, args):
        return 1.0, 2, b"", b"Traceback\nlast line\n"

    monkeypatch.setattr(driver, "run_child", prints_its_root)
    assert driver.main(args) == 1
    assert capsys.readouterr().err == "error: search-2-6-8 printed different output\n"
    monkeypatch.setattr(driver, "run_child", fails)
    assert driver.main(["search-2-6-8", "sweep-2-40"]) == 1
    assert capsys.readouterr() == ("", (
        f"error: search-2-6-8 exited 2 in {driver.ROOT}: last line\n"
        f"error: sweep-2-40 exited 2 in {driver.ROOT}: last line\n"
    ))


# -- no script input ends in a traceback ---------------------------------


def instant_child(root, args):
    """A child of the timing driver that prints its arguments at once."""
    return 1.0, 0, " ".join(args).encode(), b""


@pytest.fixture(scope="module")
def scripts():
    loaded = {name: load_script(name) for name in SCRIPT_FLAGS}
    # No draw starts a process.
    loaded["time_inputs"].run_child = instant_child
    return loaded


def ints(low, high):
    return st.integers(low, high).map(str)


# Each script's flags: those whose default runs for seconds, always given,
# then those drawn or left at their default.  ``run_sweep --jobs`` stays at
# most 1, since a script loaded in process cannot pickle ``sweep_cell`` for
# a worker.
SCRIPT_FLAGS = {
    "digest": ({"--max-degree": ints(-2, 3), "--max-families": ints(-2, 30)}, {}),
    "run_sweep": (
        {
            "--dims": st.lists(ints(0, 4), min_size=1, max_size=2),
            "--d-max": ints(-1, 3),
        },
        {"--d-min": ints(-1, 3), "--jobs": ints(-1, 1)},
    ),
    "time_inputs": (
        {"--rounds": ints(-1, 3)},
        {"--against": st.sampled_from([str(SCRIPTS.parent), str(SCRIPTS)])},
    ),
    "run_oracle_fuzz": (
        {"--samples": ints(-1, 4), "--seed": ints(0, 3)},
        {
            "--max-dim": ints(0, 3),
            "--max-degree": ints(-1, 5),
            "--max-size": st.sampled_from(["1", "2", "5", "8", "25"]),
        },
    ),
}


# The digests named: one or both of the bounded two, never none, which
# would hash the 5,512 generator calls too.
SCRIPT_NAMES = {
    "digest": st.lists(st.sampled_from(["planes", "searches"]), min_size=1, max_size=2),
    "time_inputs": st.lists(
        st.sampled_from(["search-2-6-8", "sweep-2-40", "no-such-input"]), max_size=2
    ),
}


@st.composite
def script_inputs(draw):
    """``(script name, argv)`` with small valid and invalid numbers."""
    name = draw(st.sampled_from(sorted(SCRIPT_FLAGS)))
    given_flags, drawn_flags = SCRIPT_FLAGS[name]
    argv = draw(SCRIPT_NAMES.get(name, st.just([])))
    for flag, values in given_flags.items():
        value = draw(values)
        argv += [flag, *value] if isinstance(value, list) else [flag, value]
    for flag, values in drawn_flags.items():
        if draw(st.booleans()):
            argv += [flag, draw(values)]
    return name, argv


@given(script_inputs())
@settings(max_examples=100, deadline=None)
def test_no_script_input_ends_in_a_traceback(scripts, drawn):
    name, argv = drawn
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = scripts[name].main(argv)
    assert rc in (0, 1)
    if rc == 1:
        assert "error:" in err.getvalue()
        assert "Traceback" not in err.getvalue()
