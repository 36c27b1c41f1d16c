"""Command-line interface: check families from files, emit the library's
constructed families, print moduli invariants, run searches, and draw
ASCII triangle diagrams of plane families.

Exit codes of ``check`` are the machine contract: 0 = stable,
2 = semistable only, 3 = unstable, 1 = input or usage error.  All JSON
output carries an explicit ``schema_version``.
"""

from __future__ import annotations

import argparse
import sys

from .errors import (
    CapacityError,
    Error,
    FamilyFormatError,
    InvalidFamilyError,
    MismatchedVariablesError,
)

# Each subcommand imports the modules it runs when it runs, so that a
# process loads only those.  The names below are for annotations only.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .criterion import StabilityVerdict
    from .monomial import MonomialFamily

SCHEMA_VERSION = 1

MEMBER_GLYPH = "*"
EMPTY_GLYPH = "o"

# Keyed by ``Stability`` value, so that building it needs no checker.
_EXIT_BY_STATUS = {"stable": 0, "semistable-only": 2, "unstable": 3}

# The search's limits, shown by ``search --help``.  Copied from
# ``syzstab.search`` so that building the parser does not import the
# search; a test ties each copy to its definition.
DEFAULT_BUDGET = 10**7
MAX_SEARCH_N = 9
MAX_SEARCH_MONOMIALS = 10**6


# -- triangle rendering -------------------------------------------------

def render_triangle(family: MonomialFamily) -> tuple[str, ...]:
    """Draw a family of equal-degree monomials in three variables.

    Row l (l = 0 is the apex) shows the monomials X0^a X1^(l-a) X2^(d-l)
    with a descending left to right, so the bottom row runs X0^d ... X1^d
    and the apex is X2^d.  Members are drawn as '*', the rest as 'o'.
    Triangles of more than ``MAX_FAMILY_CELLS`` cells are refused.
    """
    from .monomial import MAX_FAMILY_CELLS

    if family.var_count != 3:
        raise MismatchedVariablesError(
            f"triangle rendering needs exactly 3 variables, family has "
            f"{family.var_count}"
        )
    degrees = set(family.degrees)
    if len(degrees) != 1:
        raise InvalidFamilyError(
            "triangle rendering needs all members of one degree, got degrees "
            f"{sorted(degrees)}"
        )
    d = degrees.pop()
    cells = (d + 1) * (d + 2) // 2
    if cells > MAX_FAMILY_CELLS:
        raise CapacityError(
            f"triangle of degree {d} has {cells} cells, more than the limit "
            f"of {MAX_FAMILY_CELLS}"
        )
    members = {m.exponents for m in family.members}
    rows = []
    for l in range(d + 1):
        glyphs = [
            MEMBER_GLYPH if (a, l - a, d - l) in members else EMPTY_GLYPH
            for a in range(l, -1, -1)
        ]
        rows.append(" " * (d - l) + " ".join(glyphs))
    return tuple(rows)


# -- shared helpers -----------------------------------------------------

def _load_family(path: str | None, inline: str | None) -> MonomialFamily:
    from .monomial import MonomialFamily

    if inline is not None:
        parts = [p.strip() for p in inline.replace(";", ",").split(",") if p.strip()]
        return MonomialFamily.from_text("\n".join(parts))
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise FamilyFormatError(f"cannot read {path}: {exc}") from exc
    return MonomialFamily.from_text(text)


def _print_verdict(family: MonomialFamily, verdict: StabilityVerdict) -> None:
    print(f"status: {verdict.status.value}")
    print(f"slope: {verdict.family_slope}")
    for witness, label, relation in (
        (verdict.violation, "violation", ">"),
        (verdict.equality_witness, "equality", "="),
    ):
        if witness is not None:
            monomials = ", ".join(str(family.members[i]) for i in witness.indices)
            print(
                f"{label}: indices {list(witness.indices)} = {{{monomials}}}; "
                f"gcd {witness.gcd}; quotient {witness.quotient} {relation} "
                f"slope {witness.family_slope}"
            )


def _emit_json(payload: dict) -> None:
    """Print one JSON line and flush it, so that a search's progress
    records stream as its partitions finish."""
    import json

    print(json.dumps({"schema_version": SCHEMA_VERSION, **payload}), flush=True)


# -- subcommands --------------------------------------------------------

def cmd_check(args: argparse.Namespace) -> int:
    from .criterion import check_brute_force, check_efficient

    family = _load_family(args.path, args.inline)
    verdict = check_brute_force(family) if args.brute else check_efficient(family)
    if verdict.criterion_value_only:
        print(
            "warning: family is not m-primary; reporting the slope criterion "
            "value only, with no bundle interpretation",
            file=sys.stderr,
        )
    if args.json:
        _emit_json(verdict.to_json_dict())
    else:
        _print_verdict(family, verdict)
    return _EXIT_BY_STATUS[verdict.status.value]


def cmd_generate(args: argparse.Namespace) -> int:
    from .families import generate

    family, recipe = generate(args.N, args.n, args.d)
    verdict = None
    if args.check:
        from .criterion import check_efficient

        verdict = check_efficient(family)
    triangle = render_triangle(family) if args.render else None
    if args.json:
        payload = {"family": family.to_json_dict(), "recipe": recipe.to_json_dict()}
        if verdict is not None:
            payload["verdict"] = verdict.to_json_dict()
        if triangle is not None:
            payload["triangle"] = list(triangle)
        _emit_json(payload)
        return 0
    sys.stdout.write(family.to_text())
    if verdict is not None:
        _print_verdict(family, verdict)
    if triangle is not None:
        sys.stdout.write("\n".join(triangle) + "\n")
    return 0


def cmd_moduli(args: argparse.Namespace) -> int:
    from .moduli import cohomology_table

    report = cohomology_table(args.N, args.n, args.d)
    if args.json:
        _emit_json(report.to_json_dict())
        return 0
    for name, value in zip(report._FIELDS, report._values()):
        print(f"{name}: {value}")
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    from .search import exhaustive_search

    report = exhaustive_search(
        args.N,
        args.d,
        args.n,
        budget=args.budget,
        progress=_emit_json,
        resume_token=args.resume,
        jobs=args.jobs,
    )
    _emit_json({"event": "result", **report.to_json_dict()})
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    family = _load_family(args.path, None)
    triangle = render_triangle(family)
    if args.json:
        _emit_json(
            {
                "d": family.degrees[0],
                "member_count": family.n,
                "triangle": list(triangle),
            }
        )
        return 0
    sys.stdout.write("\n".join(triangle) + "\n")
    return 0


# -- parser -------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with code 1.

    The default argparse exit code 2 is taken: for ``check`` it means a
    merely semistable family.
    """

    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> _Parser:
    parser = _Parser(
        prog="syzstab",
        description=(
            "Stability checker and constructor for syzygy bundles of "
            "m-primary monomial ideals."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_check = sub.add_parser(
        "check",
        help="decide (semi)stability of a family read from a file or '-'",
    )
    src = p_check.add_mutually_exclusive_group(required=True)
    src.add_argument("path", nargs="?", help="family file, or '-' for stdin")
    src.add_argument(
        "--inline",
        metavar="MEMBERS",
        help="comma-separated members, e.g. 'x0^5, x1^5, x2^5, x0^4 x1'",
    )
    p_check.add_argument(
        "--brute", action="store_true", help="use the exponential subset scan"
    )
    p_check.add_argument("--json", action="store_true", help="machine output")
    p_check.set_defaults(func=cmd_check)

    p_gen = sub.add_parser(
        "generate", help="construct a (semi)stable family for (N, n, d)"
    )
    p_gen.add_argument("N", type=int, help="projective dimension (N+1 variables)")
    p_gen.add_argument("n", type=int, help="number of monomials")
    p_gen.add_argument("d", type=int, help="common degree")
    p_gen.add_argument(
        "--render",
        action="store_true",
        help="append the triangle diagram (3 variables only)",
    )
    p_gen.add_argument(
        "--check", action="store_true", help="append the checker's verdict"
    )
    p_gen.add_argument("--json", action="store_true", help="machine output")
    p_gen.set_defaults(func=cmd_generate)

    p_mod = sub.add_parser(
        "moduli", help="cohomology and moduli component dimension for (N, n, d)"
    )
    p_mod.add_argument("N", type=int, help="projective dimension")
    p_mod.add_argument("n", type=int, help="number of forms")
    p_mod.add_argument("d", type=int, help="common degree")
    p_mod.add_argument("--json", action="store_true", help="machine output")
    p_mod.set_defaults(func=cmd_moduli)

    p_search = sub.add_parser(
        "search",
        help="exhaust m-primary families for (N, d, n), up to symmetry",
        description=(
            "Exhaust m-primary families for (N, d, n), up to symmetry. "
            f"Supports N <= {MAX_SEARCH_N} and at most "
            f"{MAX_SEARCH_MONOMIALS:,} monomials of degree d in N+1 variables."
        ),
    )
    p_search.add_argument("N", type=int, help="projective dimension")
    p_search.add_argument("d", type=int, help="common degree")
    p_search.add_argument("n", type=int, help="number of monomials")
    p_search.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_BUDGET,
        help="max families to enumerate (default %(default)s)",
    )
    p_search.add_argument(
        "--jobs",
        type=int,
        default=None,
        help=(
            "parallel partitions, capped at the partitions to scan and the "
            "CPU count (default: serial)"
        ),
    )
    p_search.add_argument(
        "--resume",
        metavar="TOKEN",
        default=None,
        help="resume token from an earlier budget-truncated run",
    )
    p_search.set_defaults(func=cmd_search)

    p_render = sub.add_parser(
        "render", help="draw the triangle diagram of a plane family"
    )
    p_render.add_argument("path", help="family file, or '-' for stdin")
    p_render.add_argument("--json", action="store_true", help="machine output")
    p_render.set_defaults(func=cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits on usage errors and --help; keep main() returning.
        return int(exc.code or 0)
    try:
        return args.func(args)
    except Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
