import contextlib
import functools
import io
import json
import resource
import subprocess
import sys
import time
from importlib import import_module
from unittest.mock import patch

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import syzstab
from syzstab import cli, search
from syzstab.families import generate_P2
from syzstab.monomial import MonomialFamily
from syzstab.search import exhaustive_search

from conftest import CHILD_ENV

STABLE_TEXT = "vars=3\n5 0 0\n0 5 0\n0 0 5\n2 2 1\n"
UNSTABLE_TEXT = "vars=3\n5 0 0\n0 5 0\n0 0 5\n4 1 0\n"
SEMISTABLE_TEXT = "vars=3\n2 0 0\n0 2 0\n0 0 2\n1 1 0\n1 0 1\n"


def write(tmp_path, text):
    path = tmp_path / "family.txt"
    path.write_text(text)
    return str(path)


def test_check_stable_exit_zero(tmp_path, capsys):
    rc = cli.main(["check", write(tmp_path, STABLE_TEXT)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "status: stable" in out
    assert "slope: -20/3" in out


def test_check_unstable_exit_three(tmp_path, capsys):
    rc = cli.main(["check", write(tmp_path, UNSTABLE_TEXT)])
    assert rc == 3
    out = capsys.readouterr().out
    assert "status: unstable" in out
    assert "violation: indices [0, 1] = {x0^5, x0^4 x1}; gcd x0^4; "
    assert "quotient -6 > slope -20/3" in out


def test_check_semistable_exit_two(tmp_path, capsys):
    rc = cli.main(["check", write(tmp_path, SEMISTABLE_TEXT)])
    assert rc == 2
    out = capsys.readouterr().out
    assert "status: semistable-only" in out
    assert "equality:" in out


def test_check_inline_and_brute(capsys):
    rc = cli.main(["check", "--inline", "x0^2; x1^2; x2^2; x0 x1", "--brute"])
    assert rc == 0
    assert "status: stable" in capsys.readouterr().out


def test_check_mixed_flag(capsys):
    # check_efficient picks its scan from the family alone; there is no flag
    # to force one.
    rc = cli.main(["check", "--inline", "x0^2, x1^3, x0 x1^2", "--mixed"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: syzstab ")
    assert captured.err.endswith("error: unrecognized arguments: --mixed\n")


def test_check_stdin(monkeypatch, capsys):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO(STABLE_TEXT))
    assert cli.main(["check", "-"]) == 0


def test_check_json_envelope(tmp_path, capsys):
    rc = cli.main(["check", write(tmp_path, UNSTABLE_TEXT), "--json"])
    assert rc == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema_version"] == 1
    assert payload["status"] == "unstable"
    assert payload["violation"]["quotient"] == [-6, 1]


def test_check_non_m_primary_warning(capsys):
    # The x2 forces three variables, so the missing x1 power matters.
    rc = cli.main(["check", "--inline", "x0^2, x2^2, x0 x2"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "not m-primary" in captured.err


def test_check_degree_over_cap_exits_one(capsys):
    assert cli.main(["check", "--inline", "x0^2000000, x1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 1:")
    assert "exceeds the limit" in err


LONG = "9" * 5000


@pytest.mark.parametrize(
    "members, line",
    [
        ((f"x0^{LONG}", "x1"), 1),  # exponent
        (("1 0", f"0 {LONG}"), 2),  # bare-vector entry
        ((f"vars={LONG}", "x0", "x1"), 1),  # vars= value
        (("x0", f"x{LONG}"), 2),  # variable index
    ],
)
def test_overlong_numbers_exit_one(tmp_path, capsys, members, line):
    # int() refuses more than 4,300 digits; that ended in a traceback.
    path = write(tmp_path, "\n".join(members) + "\n")
    for args in (["check", "--inline", ", ".join(members)], ["check", path]):
        assert cli.main(args) == 1
        assert capsys.readouterr().err == (
            f"error: line {line}: cannot read number of 5000 digits\n"
        )


def test_check_errors_exit_one(tmp_path, capsys):
    assert cli.main(["check", str(tmp_path / "missing.txt")]) == 1
    assert "error:" in capsys.readouterr().err
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    assert cli.main(["check", str(empty)]) == 1
    # Members sharing a factor do not define a bundle.
    assert cli.main(["check", "--inline", "x0^2 x1, x0 x1^2"]) == 1


def test_undecodable_input_exits_one(tmp_path, capsys):
    path = tmp_path / "family.txt"
    path.write_bytes(b"\xff\xfe")
    for command in ("check", "render"):
        assert cli.main([command, str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot read {path}: ")
    # A strict stdin decoder fails on the read itself.
    proc = subprocess.run(
        [sys.executable, "-m", "syzstab.cli", "check", "-"],
        input=b"\xff\xfe",
        capture_output=True,
        timeout=60,
        env={**CHILD_ENV, "PYTHONIOENCODING": "utf-8:strict"},
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith(b"error: cannot read -: ")


def test_usage_errors_exit_one(capsys):
    assert cli.main(["check"]) == 1
    assert cli.main(["no-such-command"]) == 1
    assert cli.main(["moduli", "2", "4"]) == 1


def test_generate_text_output(capsys):
    rc = cli.main(["generate", "2", "4", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("vars=3\n")
    assert MonomialFamily.from_text(out).n == 4


def test_generate_check_and_render(capsys):
    rc = cli.main(["generate", "2", "19", "20", "--check", "--render"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "status: stable" in out
    assert out.count("*") == 19


def test_generate_json(capsys):
    rc = cli.main(["generate", "2", "66", "12", "--json", "--check", "--render"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema_version"] == 1
    assert payload["recipe"]["source"] == "P34-case1"
    assert payload["verdict"]["status"] == "stable"
    assert len(payload["triangle"]) == 13


def test_generate_unsupported_exit_one(capsys):
    assert cli.main(["generate", "1", "3", "5"]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    # A degree no monomial may have is refused before any member is built.
    for N in ("2", "3"):
        assert cli.main(["generate", N, "5", "2000000"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: degree must be between 1 and 1000000")


def test_generate_check_round_trip(tmp_path, capsys):
    cli.main(["generate", "2", "10", "8"])
    text = capsys.readouterr().out
    path = tmp_path / "generated.txt"
    path.write_text(text)
    assert cli.main(["check", str(path)]) == 0


def test_moduli_text(capsys):
    rc = cli.main(["moduli", "2", "4", "3"])
    assert rc == 0
    assert capsys.readouterr().out == (
        "N: 2\nn: 4\nd: 3\nrank: 3\nc1: -12\nslope: -4\nh0: 0\nh1: 1\n"
        "h2: 4\nh3: 0\nh1_twist: 6\next1: 28\ncomponent_dim: 28\n"
    )


def test_moduli_json(capsys):
    rc = cli.main(["moduli", "4", "6", "2", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["component_dim"] == 54
    assert payload["schema_version"] == 1


def test_moduli_excluded_exit_one(capsys):
    assert cli.main(["moduli", "3", "5", "2"]) == 1
    assert cli.main(["moduli", "2", "5", "2"]) == 1


@pytest.mark.parametrize(
    "args",
    [
        ("100000", "100001", "100000"),
        ("100000", "100001", "100000", "--json"),
        ("2", "4", "1" + "0" * 2200),
        ("1000000", "1000001", "1000000"),
    ],
)
def test_moduli_too_long_to_print_exits_one(args):
    # The first three printed a ValueError traceback; the last first spent
    # about 40 s in comb.
    start = time.perf_counter()
    proc = run_cli_limited(["moduli", *args])
    assert time.perf_counter() - start < 2
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: C(N+d, d) has more than 4300 digits, too many to print\n"
    )


def test_search_emits_jsonl(capsys):
    rc = cli.main(["search", "1", "9", "3"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    records = [json.loads(line) for line in lines]
    assert all(r["schema_version"] == 1 for r in records)
    assert [r["event"] for r in records[:-1]] == ["partition"] * 8
    final = records[-1]
    assert final["event"] == "result"
    assert final["best_status"] == "none-semistable"
    assert final["families_examined"] == 8
    assert final["exhausted"] is True


def test_search_budget_and_resume_flags(capsys):
    rc = cli.main(["search", "2", "3", "6", "--budget", "17"])
    assert rc == 0
    first = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert first["exhausted"] is False
    rc = cli.main(
        ["search", "2", "3", "6", "--resume", first["resume_token"]]
    )
    assert rc == 0
    final = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert final["exhausted"] is True
    assert final["families_examined"] == 35


def test_search_malformed_resume_token_exits_one(capsys):
    state = json.loads(exhaustive_search(2, 3, 6, budget=17).resume_token)
    edits = [
        {"best_status": "bogus"},
        {"offset": -5},
        {"partition": 10**6},
        {"best_family": None},
    ]
    tokens = [json.dumps({**state, **edit}) for edit in edits]
    for token in tokens + ['{"schema_version": 1}']:
        assert cli.main(["search", "2", "3", "6", "--resume", token]) == 1
        assert capsys.readouterr().err.startswith("error: ")
    # python -O strips assert statements; token validation must not use them.
    del state["N"]
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "syzstab.cli", "search", "2", "3", "6",
         "--resume", json.dumps(state)],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")


def run_cli_limited(args, limit_mb=512):
    """Run ``syzstab ARGS`` in a child process with a 30 s timeout and an
    address-space limit, so that an input that hangs or exhausts memory
    fails the test instead of the machine."""
    limit = limit_mb * 2**20
    return subprocess.run(
        [sys.executable, "-m", "syzstab.cli", *args],
        capture_output=True,
        text=True,
        timeout=30,
        env=CHILD_ENV,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )


def run_search_limited(triple, limit_mb=512):
    """``search N d n --budget 1`` through ``run_cli_limited``."""
    return run_cli_limited(["search", *triple, "--budget", "1"], limit_mb)


@pytest.mark.parametrize("triple", [("40", "2", "42"), ("2", "2000000", "5")])
def test_search_beyond_caps_exits_one(triple):
    # Without the caps, the first family waits on a list of all C(N+d, N)
    # monomials or on a walk through up to (N+1)! permutations.
    proc = run_search_limited(triple)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: search supports ")


@pytest.mark.parametrize("triple", [("9", "2", "10"), ("9", "2", "11")])
def test_search_at_largest_n_stays_bounded(triple):
    # N = 9 has 10! variable permutations.  The orbit filter keeps a bounded
    # number of them and stops at the first that rejects a family, so one
    # budgeted family at N = 9 needs neither the whole list nor its memory.
    proc = run_search_limited(triple)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["event"] == "result"
    assert result["families_examined"] == 1


@pytest.mark.parametrize(
    "triple, limit_mb",
    [(("2", "300", "5"), 256), (("2", "1000", "7"), 512), (("2", "1000", "7"), 160)],
)
def test_search_with_many_free_monomials_stays_bounded(triple, limit_mb):
    # 45,448 and 501,498 free monomials.  The orbit filter maps them to
    # indices and builds 1 << index only for kept rows, bounded in bits, and
    # for the chosen cells; an F-bit integer per free monomial would take
    # about F^2 / 16 bytes, 129 MB and 15 GB.  The partition plan computes
    # each partition's family count as it walks; (2, 1000, 7) then needs
    # about 126 MB of address space, and a list of all F counts about 193 MB.
    proc = run_search_limited(triple, limit_mb)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["event"] == "result"
    assert result["families_examined"] == 1


def test_oversized_families_exit_one(tmp_path):
    # Each would build members of 10^8 variables or 2,002 members of 2,001.
    wide = tmp_path / "wide.txt"
    wide.write_text("vars=100000000\nx0\nx1\n")
    for args in (
        ["check", "--inline", "x99999999"],
        ["check", str(wide)],
        ["generate", "2000", "2002", "2"],
    ):
        proc = run_cli_limited(args)
        assert proc.returncode == 1, args
        assert proc.stderr.startswith("error: family too large: "), proc.stderr
        assert "member cells" in proc.stderr


def test_deep_induction_is_one_pass():
    # 988 induction steps: one loop and one validation of the whole family,
    # not a recursion that validates every level.
    proc = run_cli_limited(["generate", "990", "992", "2", "--json"])
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["recipe"]["source"] == "Induction"
    assert payload["recipe"]["params"] == {"base_N": 989, "base_n": 991}
    assert len(payload["family"]["members"]) == 992


# Runs ``syzstab ARGS`` in a fresh interpreter, when given any, and reports
# on its last stderr line which of numpy, the process pool, dataclasses,
# inspect and the package's modules were loaded.  Stdin holds a plane
# family, so ``check -`` runs the lattice scan.
LOADED_PROBE = """
import sys
from syzstab import cli
rc = cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
heavy = ("numpy", "concurrent.futures.process", "dataclasses", "inspect")
own = sorted(m for m in sys.modules if m.startswith("syzstab."))
print("loaded:", *(m for m in heavy if m in sys.modules), *own, file=sys.stderr)
sys.exit(rc)
"""


PLANE_TEXT = generate_P2(30, 8)[0].to_text()


@functools.cache
def run_fresh(*args):
    """The finished process and the modules it loaded.  The tests below
    share one run of each command."""
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_PROBE, *args],
        input=PLANE_TEXT,
        capture_output=True,
        text=True,
        timeout=60,
        env=CHILD_ENV,
    )
    loaded = proc.stderr.splitlines()[-1].split()
    assert loaded[0] == "loaded:", proc.stderr
    return proc, set(loaded[1:])


BASE = {"syzstab.cli", "syzstab.errors"}

#: Exit code of each probed check that does not exit 0: 3 for an unstable
#: family, 2 for a merely semistable one.
NONZERO_EXIT = {
    ("check", "--brute", "--inline", "x0^5, x1^5, x2^5, x0^4 x1"): 3,
    ("check", "--inline", "x0^2, x1^3, x0 x1^2"): 2,
    ("check", "--json", "--inline", "x0^5, x1^5, x2^5, x0^4 x1"): 3,
}


@pytest.mark.parametrize(
    "args, modules",
    [
        ((), set()),
        (("moduli", "2", "4", "3"), {"moduli", "_value"}),
        (("moduli", "2", "4", "3", "--json"), {"moduli", "_value"}),
        (("render", "-"), {"monomial", "_value"}),
        (("generate", "2", "10", "4"), {"families", "monomial", "_value"}),
        (("generate", "2", "10", "4", "--check"), {"families", "monomial", "criterion", "_value"}),
        (("check", "--json", "-"), {"criterion", "monomial", "_value"}),
        (("check", "--brute", "--inline", "x0^5, x1^5, x2^5, x0^4 x1"), {"criterion", "monomial", "_value"}),
        (("search", "2", "2", "5"), {"search", "criterion", "monomial", "_value"}),
        (("generate", "2", "10", "4", "--json"), {"families", "monomial", "_value"}),
        (("generate", "2", "10", "4", "--check", "--json"), {"families", "monomial", "criterion", "_value"}),
        (("check", "--inline", "x0^2, x1^3, x0 x1^2"), {"criterion", "monomial", "_value"}),
        (("check", "--json", "--inline", "x0^5, x1^5, x2^5, x0^4 x1"), {"criterion", "monomial", "_value"}),
    ],
)
def test_each_subcommand_loads_only_its_modules(args, modules):
    # Exactly its package modules, and none of the heavy ones the probe
    # names: no numpy, which the package never imports; no process pool,
    # since each search here is serial; and no dataclasses or the inspect
    # module it imports, since the result types build their constructors
    # without them.
    proc, loaded = run_fresh(*args)
    assert proc.returncode == NONZERO_EXIT.get(args, 0), proc.stderr
    assert loaded == BASE | {f"syzstab.{m}" for m in modules}


def test_import_loads_no_submodule():
    probe = (
        "import sys, syzstab\n"
        "print(*(m for m in sys.modules if m.startswith('syzstab.')))\n"
        "from syzstab import criterion\n"  # falls back to the submodule
        "print(criterion.__name__)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        timeout=60, env=CHILD_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\nsyzstab.criterion\n"


def test_public_names_resolve_to_their_home_modules():
    names = [name for name in syzstab.__all__ if name != "__version__"]
    # Each name is listed once, under one module.
    assert len(set(names)) == sum(map(len, syzstab._EXPORTS.values()))
    for name in names:
        value = getattr(syzstab, name)
        # The table names the module that defines each name, not one that
        # merely imports it.
        assert value.__module__ == f"syzstab.{syzstab._HOME[name]}"
        assert value is getattr(import_module(value.__module__), name)
    assert set(syzstab.__all__) <= set(dir(syzstab))
    star: dict = {}
    exec("from syzstab import *", star)
    assert {k for k in star if k != "__builtins__"} == set(syzstab.__all__)
    assert star["check_efficient"] is syzstab.check_efficient
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        syzstab.no_such_name


def test_search_limit_copies_match_the_search():
    # The parser shows these without importing the search.
    assert cli.DEFAULT_BUDGET == search.DEFAULT_BUDGET
    assert cli.MAX_SEARCH_N == search.MAX_SEARCH_N
    assert cli.MAX_SEARCH_MONOMIALS == search.MAX_SEARCH_MONOMIALS


def test_serial_search_does_not_load_the_pool():
    proc, loaded = run_fresh("search", "2", "2", "5")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["best_status"] == "semistable-only"
    assert "concurrent.futures.process" not in loaded


def test_plane_check_keeps_its_json_without_numpy():
    proc, loaded = run_fresh(
        "check", "--json", "--inline", "x0^5, x1^5, x2^5, x0^4 x1"
    )
    assert proc.returncode == 3
    assert "numpy" not in loaded
    # Output recorded when the lattice scan ran on numpy.
    assert proc.stdout == (
        '{"schema_version": 1, "status": "unstable", "family_slope": [-20, 3], '
        '"criterion_value_only": false, "violation": {"indices": [0, 1], '
        '"gcd": [4, 0, 0], "gcd_degree": 4, "size": 2, "quotient": [-6, 1], '
        '"family_slope": [-20, 3]}}\n'
    )


def test_huge_exponents_stay_cheap():
    # Mixed degrees near MAX_DEGREE take the closed-cell scan, which steps
    # through each variable's distinct exponents whatever their size.
    inline = ["--inline", "x0^1000000, x1^1000000, x0^999999 x1, x0^500000 x1^499999"]
    fast, brute = (
        subprocess.run(
            [sys.executable, "-m", "syzstab.cli", "check", *flags, "--json", *inline],
            capture_output=True,
            text=True,
            timeout=20,
            env=CHILD_ENV,
        )
        for flags in ([], ["--brute"])
    )
    assert fast.returncode == brute.returncode == 3, fast.stderr + brute.stderr
    assert fast.stdout == brute.stdout
    assert json.loads(fast.stdout)["violation"]["gcd"] == [999999, 0]


def test_search_jobs_env(monkeypatch, capsys):
    # --jobs is the only worker setting; the environment sets none.
    assert cli.main(["search", "2", "2", "5"]) == 0
    plain = capsys.readouterr()
    monkeypatch.setenv("SYZSTAB_JOBS", "many")
    assert cli.main(["search", "2", "2", "5"]) == 0
    assert capsys.readouterr() == plain
    assert json.loads(plain.out.splitlines()[-1])["best_status"] == "semistable-only"


def test_render_draws_literal_rows(tmp_path, capsys):
    fam, _ = generate_P2(9, 4)
    path = tmp_path / "fam.txt"
    path.write_text(fam.to_text())
    rc = cli.main(["render", str(path)])
    assert rc == 0
    assert capsys.readouterr().out == (
        "    *\n"
        "   * o\n"
        "  * o *\n"
        " o o o o\n"
        "* * * * *\n"
    )


@pytest.mark.parametrize("source", ["render", "generate"])
def test_render_refuses_triangles_over_the_cell_cap(tmp_path, source):
    # 450,045,001 glyphs, which ran out of memory under the limit; refused
    # before any row is built.
    path = write(tmp_path, "x0^30000\nx1^30000\nx2^30000\n")
    args = ["render", path] if source == "render" else ["generate", "2", "3", "30000", "--render"]
    proc = run_cli_limited(args)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: triangle of degree 30000 has 450045001 cells, more than the "
        "limit of 1000000\n"
    )


def test_render_cell_cap_boundary(capsys):
    # d = 1,412 has 998,991 cells and d = 1,413 has 1,000,405.
    assert cli.main(["generate", "2", "3", "1412", "--render"]) == 0
    assert capsys.readouterr().out.count("\n") == 4 + 1413
    assert cli.main(["generate", "2", "3", "1413", "--render"]) == 1
    assert "1000405 cells" in capsys.readouterr().err


def test_render_rejects_other_dimensions(tmp_path, capsys):
    path = tmp_path / "fam4.txt"
    path.write_text("vars=4\n2 0 0 0\n0 2 0 0\n0 0 2 0\n0 0 0 2\n")
    assert cli.main(["render", str(path)]) == 1


def test_render_rejects_mixed_degrees(tmp_path, capsys):
    path = write(tmp_path, "x0^2\nx1\nx2^2\n")
    assert cli.main(["render", path]) == 1
    assert capsys.readouterr() == (
        "",
        "error: triangle rendering needs all members of one degree, got "
        "degrees [1, 2]\n",
    )


def test_render_json(tmp_path, capsys):
    path = tmp_path / "fam.txt"
    path.write_text(SEMISTABLE_TEXT)
    rc = cli.main(["render", str(path), "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["d"] == 2
    assert payload["member_count"] == 5
    # Apex is x2^2; the one missing quadric x1 x2 shows as 'o'.
    assert payload["triangle"] == ["  *", " * o", "* * *"]


# -- no input ends in a traceback ----------------------------------------

# Member lines, valid and broken: compact and vector forms, headers,
# comments, bad tokens, an exponent past MAX_DEGREE, a variable index past
# the member-cell limit and numbers ``int`` cannot read.
FAMILY_LINES = [
    "x0^2", "x1^3", "x2", "x0 x1", "x0 x0", "2 0 1", "0 3 0", "1 1 1", "3 0",
    "1", "vars=3", "vars=1", "vars=x", "# note", "", "x0^", "x-1", "y2",
    "2 0 -1", "x0^2.5", "x3^1000001", "x0^999999 x1", "x10000000", "9" * 30,
    "\u00b2",
]
JUNK = ["x", "1.5", "", "-0", "9" * 20]
RESUME_TOKEN = exhaustive_search(2, 3, 6, budget=17).resume_token

family_texts = st.one_of(
    st.sampled_from([STABLE_TEXT, UNSTABLE_TEXT, SEMISTABLE_TEXT]),
    st.lists(
        st.tuples(*[st.sampled_from("0123")] * 3).map(" ".join), min_size=2,
        max_size=8, unique=True,
    ).map("\n".join),
    st.lists(st.sampled_from(FAMILY_LINES), max_size=8).map("\n".join),
)
resume_tokens = st.one_of(
    st.just(RESUME_TOKEN),
    st.text(max_size=20),
    st.builds(
        lambda key, value: json.dumps({**json.loads(RESUME_TOKEN), key: value}),
        st.sampled_from(sorted(json.loads(RESUME_TOKEN))),
        st.one_of(st.none(), st.integers(-3, 40), st.text(max_size=5)),
    ),
)


def numbers(low, high):
    """Argument tokens: the integers ``low..high``, now and then junk."""
    return st.sampled_from([str(i) for i in range(low, high + 1)] * 3 + JUNK)


@st.composite
def cli_inputs(draw):
    """``(argv, family text)``: an argument list for one subcommand, and
    the text its family path or stdin holds.  Searches are small or cut by
    a budget, and ``--jobs`` runs on the ``serial_pool`` fixture."""
    text = draw(family_texts)
    command = draw(st.sampled_from(
        ["check", "check", "generate", "moduli", "render", "search", "bogus"]
    ))
    flags = {
        "check": ["--brute", "--json"],
        "generate": ["--render", "--check", "--json"],
        "moduli": ["--json"],
        "render": ["--json"],
    }.get(command)
    argv = [command]
    if flags:
        argv += draw(st.lists(st.sampled_from(flags * 3 + ["--bogus"]), max_size=3))
    if command in ("check", "render"):
        sources = ["path", "-"] * 3 + ["no-such-file", "none"]
        source = draw(st.sampled_from(sources + ["inline"] * 3))
        if source == "inline" and command == "check":
            argv += ["--inline", text.replace("\n", ", ")]
        elif source != "none":
            argv.append(source)
    elif command in ("generate", "moduli"):
        count = draw(st.sampled_from([3, 3, 3, 3, 2, 4]))
        argv += draw(st.lists(numbers(0, 8), min_size=count, max_size=count))
    elif command == "search":
        argv += draw(st.one_of(
            st.just(["2", "3", "6"]),
            st.tuples(numbers(0, 2), numbers(0, 4), numbers(0, 10)).map(list),
        ))
        if draw(st.booleans()):
            argv += ["--budget", draw(numbers(-1, 300))]
        if draw(st.booleans()):
            argv += ["--jobs", draw(numbers(0, 4))]
        if draw(st.booleans()):
            argv += ["--resume", draw(resume_tokens)]
    return argv, text


@pytest.fixture(scope="module")
def family_path(tmp_path_factory):
    return tmp_path_factory.mktemp("cli") / "family.txt"


@given(cli_inputs())
# Inputs that once ended in a traceback: a degree past MAX_DEGREE, families
# past the member-cell limit, an induction past the recursion limit, and
# digits ``int`` cannot read.
@example((["generate", "2", "5", "2000000"], ""))
@example((["check", "--inline", "x99999999"], ""))
@example((["check", "path"], "vars=100000000\nx0"))
@example((["generate", "2000", "2002", "2"], ""))
@example((["check", "-"], "\u00b2 1"))
@example((["check", "--inline", "9" * 5000], ""))
@example((["search", "2", "3", "6", "--jobs", "4"], ""))
@settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_no_cli_input_ends_in_a_traceback(family_path, serial_pool, drawn):
    # An exception other than the package's errors would escape main() and
    # fail the draw; an error must be reported on stderr.  The fake pool
    # stays in place for every draw.
    argv, text = drawn
    family_path.write_text(text, encoding="utf-8")
    argv = [str(family_path) if arg == "path" else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with patch("sys.stdin", io.StringIO(text)), contextlib.redirect_stderr(err):
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
    assert rc in (0, 1, 2, 3)
    if rc == 1:
        assert "error:" in err.getvalue()
        assert "Traceback" not in err.getvalue()
        assert out.getvalue() == ""


def test_installed_script_smoke(tmp_path):
    path = tmp_path / "family.txt"
    path.write_text(UNSTABLE_TEXT)
    proc = subprocess.run(
        ["syzstab", "check", str(path)], capture_output=True, text=True
    )
    assert proc.returncode == 3
    assert "status: unstable" in proc.stdout

    proc = subprocess.run(
        ["syzstab", "moduli", "2", "4", "3"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "component_dim: 28" in proc.stdout
