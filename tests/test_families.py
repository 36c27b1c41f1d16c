import ast
from math import comb
from pathlib import Path

import pytest

import syzstab
from syzstab import families
from syzstab.cli import render_triangle
from syzstab.criterion import Stability, check_brute_force, check_efficient
from syzstab.errors import InvalidFamilyError, UnsupportedRangeError
from syzstab.families import (
    FamilyRecipe,
    _validated,
    generate,
    generate_P2,
    generate_P31,
    generate_P32,
    generate_P33,
    generate_P34,
    generate_full_set,
    generate_pure_powers,
)
from syzstab.monomial import MAX_FAMILY_CELLS

from conftest import load_script


def members_of(fam):
    return sorted(m.exponents for m in fam.members)


def assert_well_formed(fam, recipe, N, n, d):
    assert (recipe.N, recipe.n, recipe.d) == (N, n, d)
    assert fam.n == n
    assert fam.var_count == N + 1
    assert fam.degrees == (d,) * n
    assert fam.is_m_primary()


# --- small catalog -------------------------------------------------------


def test_catalog_four_quintics():
    fam, recipe = generate_P31(4, 5)
    assert recipe.source == "P31"
    assert members_of(fam) == [(0, 0, 5), (0, 5, 0), (2, 2, 1), (5, 0, 0)]


def test_catalog_five_cubics():
    fam, _ = generate_P31(5, 3)
    assert members_of(fam) == [
        (0, 0, 3), (0, 1, 2), (0, 3, 0), (1, 1, 1), (3, 0, 0),
    ]


@pytest.mark.parametrize(
    "n,d,expected",
    [
        (
            9, 8,
            [(0, 0, 8), (0, 3, 5), (0, 6, 2), (0, 8, 0), (2, 0, 6),
             (3, 3, 2), (5, 0, 3), (6, 2, 0), (8, 0, 0)],
        ),
        (
            10, 9,
            [(0, 0, 9), (0, 3, 6), (0, 6, 3), (0, 9, 0), (3, 0, 6),
             (3, 3, 3), (3, 6, 0), (6, 0, 3), (6, 3, 0), (9, 0, 0)],
        ),
        (
            11, 12,
            [(0, 0, 12), (0, 6, 6), (0, 9, 3), (0, 12, 0), (3, 0, 9),
             (3, 9, 0), (6, 0, 6), (6, 6, 0), (9, 0, 3), (9, 3, 0),
             (12, 0, 0)],
        ),
        (
            12, 11,
            [(0, 0, 11), (0, 3, 8), (0, 8, 3), (0, 11, 0), (2, 5, 4),
             (3, 0, 8), (3, 8, 0), (4, 4, 3), (5, 2, 4), (8, 0, 3),
             (8, 3, 0), (11, 0, 0)],
        ),
    ],
)
def test_catalog_tuned_entries(n, d, expected):
    # The catalog's hand-placed families.  At (10, 9), (11, 12) and
    # (12, 11) the generic level-cut layout is only semistable.  At (9, 8)
    # it is stable as well: it has x0^3 x1^5 where the tuned family has
    # x0^3 x1^3 x2^2, so that entry fixes an output, not a stability gap.
    fam, recipe = generate_P31(n, d)
    assert recipe.params.get("tuned")
    assert members_of(fam) == expected
    assert check_brute_force(fam).status is Stability.STABLE


def test_catalog_range_errors():
    with pytest.raises(UnsupportedRangeError):
        generate_P31(2, 5)
    with pytest.raises(UnsupportedRangeError):
        generate_P31(19, 30)
    with pytest.raises(UnsupportedRangeError):
        generate_P31(9, 6)  # needs d >= n - 2


def test_catalog_full_supported_grid():
    for n in range(3, 19):
        for d in range(max(1, n - 2), n + 6):
            fam, recipe = generate_P31(n, d)
            assert_well_formed(fam, recipe, 2, n, d)
            assert check_efficient(fam).status is Stability.STABLE


# --- level-cut families above the catalog --------------------------------


def test_level_cut_parameters():
    _, r17 = generate_P32(19, 17)
    assert r17.params == {
        "j": 3, "r": 4, "m": 4, "t": 1, "e": 2, "levels": (5, 9, 13),
    }
    _, r18 = generate_P32(20, 18)
    assert r18.params == {
        "j": 3, "r": 5, "m": 4, "t": 2, "e": 2, "levels": (5, 10, 14),
    }


def test_level_cut_members_nineteen_of_degree_twenty():
    fam, recipe = generate_P32(19, 20)
    assert recipe.params["levels"] == (5, 10, 15)
    assert members_of(fam) == [
        (0, 0, 20), (0, 5, 15), (0, 10, 10), (0, 15, 5), (0, 18, 2),
        (0, 20, 0), (3, 0, 17), (5, 0, 15), (5, 5, 10), (5, 10, 5),
        (5, 15, 0), (10, 0, 10), (10, 5, 5), (10, 10, 0), (13, 7, 0),
        (15, 0, 5), (15, 5, 0), (18, 2, 0), (20, 0, 0),
    ]
    assert check_efficient(fam).status is Stability.STABLE


def test_level_cut_range_errors():
    with pytest.raises(UnsupportedRangeError):
        generate_P32(18, 20)  # small sizes belong to the catalog
    with pytest.raises(UnsupportedRangeError):
        generate_P32(25, 21)  # needs n <= d + 2


def test_level_cut_sweep():
    for d in range(17, 26):
        for n in range(19, d + 3):
            fam, recipe = generate_P32(n, d)
            assert_well_formed(fam, recipe, 2, n, d)
            assert check_efficient(fam).status is Stability.STABLE


# --- edge-strip families (d + 2 < n <= 3d) -------------------------------


def test_edge_strip_six_cubics():
    fam, recipe = generate_P33(6, 3)
    assert recipe.params == {"i": 1}
    assert members_of(fam) == [
        (0, 0, 3), (0, 3, 0), (1, 0, 2), (1, 2, 0), (2, 1, 0), (3, 0, 0),
    ]


def test_edge_strip_seven_cubics_is_tuned():
    # At n = 2 d + 1 the straight strip would put a third multiple on a
    # pure (d-1)-th power; this size gets a rotationally symmetric set.
    fam, recipe = generate_P33(7, 3)
    assert recipe.params == {"i": 2, "tuned": True}
    assert members_of(fam) == [
        (0, 0, 3), (0, 2, 1), (0, 3, 0), (1, 0, 2), (1, 1, 1),
        (2, 1, 0), (3, 0, 0),
    ]
    assert check_brute_force(fam).status is Stability.STABLE


def test_edge_strip_nine_quartics_is_tuned():
    fam, recipe = generate_P33(9, 4)
    assert recipe.params == {"i": 3, "tuned": True}
    assert members_of(fam) == [
        (0, 0, 4), (0, 2, 2), (0, 4, 0), (1, 0, 3), (1, 3, 0),
        (2, 0, 2), (2, 2, 0), (3, 1, 0), (4, 0, 0),
    ]
    assert check_brute_force(fam).status is Stability.STABLE


def test_edge_strip_ten_quartics():
    fam, recipe = generate_P33(10, 4)
    assert recipe.params == {"i": 4}
    assert members_of(fam) == [
        (0, 0, 4), (0, 3, 1), (0, 4, 0), (1, 0, 3), (1, 3, 0),
        (2, 0, 2), (2, 2, 0), (3, 0, 1), (3, 1, 0), (4, 0, 0),
    ]


def test_edge_strip_five_quadrics_semistable():
    # The one size/degree pair with no stable family at all.
    fam, recipe = generate_P33(5, 2)
    assert recipe.params == {"tuned": True}
    assert members_of(fam) == [
        (0, 0, 2), (0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0),
    ]
    assert check_brute_force(fam).status is Stability.SEMISTABLE_ONLY


def test_edge_strip_sweep():
    for d in range(2, 11):
        for n in range(d + 3, 3 * d + 1):
            fam, recipe = generate_P33(n, d)
            assert_well_formed(fam, recipe, 2, n, d)
            expected = (
                Stability.SEMISTABLE_ONLY if (n, d) == (5, 2)
                else Stability.STABLE
            )
            assert check_efficient(fam).status is expected, (n, d)


# --- dense families (n > 3d) ---------------------------------------------

TRIANGLE_66 = [
    "*",
    "* *",
    "* * *",
    "* * * *",
    "* * o * *",
    "* * o o * *",
    "* * o o o * *",
    "* * o o o o * *",
    "* * o o o o o * *",
    "* * o o o o o o * *",
    "* * * * * o o o o * *",
    "* * * * * * * * * * * *",
    "* * * * * * * * * * * * *",
]

TRIANGLE_73 = [
    "*",
    "* *",
    "* * *",
    "* * * *",
    "* * * * *",
    "* * * o * *",
    "* * * o o * *",
    "* * o o o o * *",
    "* * o o o o o * *",
    "* * o o o o o o * *",
    "* * * * * * * * * * *",
    "* * * * * * * * * * * *",
    "* * * * * * * * * * * * *",
]

TRIANGLE_78 = [
    "*",
    "* *",
    "* * *",
    "* * * *",
    "* * * * *",
    "* * * * * *",
    "* * * o * * *",
    "* * * o o o * *",
    "* * * o o o o * *",
    "* * * o o o o o * *",
    "* * * * * * * * * * *",
    "* * * * * * * * * * * *",
    "* * * * * * * * * * * * *",
]


@pytest.mark.parametrize(
    "n,source,i,rows",
    [
        (66, "P34-case1", 3, TRIANGLE_66),
        (73, "P34-case2", 3, TRIANGLE_73),
        (78, "P34-case3", 2, TRIANGLE_78),
    ],
)
def test_dense_degree_twelve_triangles(n, source, i, rows):
    fam, recipe = generate_P34(n, 12)
    assert recipe.source == source
    assert recipe.params == {"j": 2, "i": i}
    assert [line.split() for line in render_triangle(fam)] == [
        row.split() for row in rows
    ]
    assert check_efficient(fam).status is Stability.STABLE


def test_dense_range_errors():
    with pytest.raises(UnsupportedRangeError):
        generate_P34(12, 4)  # that size still fits the edge strip
    with pytest.raises(UnsupportedRangeError):
        generate_P34(comb(6, 2) + 1, 4)  # beyond the full monomial set


def test_dense_sweep():
    for d in range(4, 9):
        top = comb(d + 2, 2)
        for n in range(3 * d + 1, top + 1):
            fam, recipe = generate_P34(n, d)
            assert_well_formed(fam, recipe, 2, n, d)
            assert check_efficient(fam).status is Stability.STABLE, (n, d)


# --- extreme sizes -------------------------------------------------------


def test_pure_powers():
    fam, recipe = generate_pure_powers(4, 6)
    assert recipe.source == "PurePowers"
    assert_well_formed(fam, recipe, 4, 5, 6)
    assert fam.to_json_dict()["members"] == [
        [6 if i == j else 0 for i in range(5)] for j in range(5)
    ]


def test_full_set():
    fam, recipe = generate_full_set(2, 3)
    assert recipe.source == "FullSet"
    assert_well_formed(fam, recipe, 2, 10, 3)


def test_post_validation_raises_without_asserts():
    # Explicit checks, so that python -O still validates every family.
    cubics = [(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)]
    family, recipe = _validated(cubics, 2, 4, 3, "Cubics")
    assert family.n == 4
    assert recipe == FamilyRecipe(2, 4, 3, "Cubics", {})
    with pytest.raises(InvalidFamilyError, match="pure power"):
        _validated([(3, 0, 0), (0, 3, 0), (1, 1, 1)], 2, 3, 3, "Cubics")
    with pytest.raises(InvalidFamilyError, match="members"):
        _validated(cubics, 2, 5, 3, "Cubics")
    with pytest.raises(InvalidFamilyError, match="degree"):
        _validated(cubics + [(2, 0, 0)], 2, 5, 3, "Cubics")


def test_generators_give_their_pinned_outputs():
    # One SHA-256 over scripts/digest.py's 5,512 generator calls, in order:
    # each call's family and recipe as JSON, or its error's type and text.
    digest = load_script("digest")
    assert digest.digest_of(digest.generators()) == (
        5512, "dfcf1104a77820583a52293c545650383544288e1b53de9210f084c91d9283a3"
    )


def test_corner_fill_without_a_threshold_raises(monkeypatch):
    # With every threshold interval empty, no j matches n; that must be a
    # family error, not an IndexError or a stripped assert.
    monkeypatch.setattr(families, "_comb2", lambda x: 0)
    with pytest.raises(InvalidFamilyError, match="not unique"):
        generate_P34(28, 9)


def _package_lines(match) -> dict[str, list[int]]:
    """Lines of the AST nodes in the package's sources that ``match``, by
    file name."""
    sources = sorted(Path(syzstab.__file__).parent.rglob("*.py"))
    assert sources
    found = {}
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if match(node)]
        if lines:
            found[path.name] = lines
    return found


def test_package_has_no_assert_statements():
    # python -O strips asserts, so no check in the package may be one.
    assert _package_lines(lambda node: isinstance(node, ast.Assert)) == {}


def test_package_reads_no_environment_variables():
    # Every setting is a flag or an argument: no os.environ or os.getenv.
    names = {"environ", "environb", "getenv", "getenvb"}

    def reads_environment(node):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            return any(alias.name in names for alias in node.names)
        return isinstance(node, ast.Attribute) and node.attr in names

    assert _package_lines(reads_environment) == {}


def test_package_imports_no_numpy():
    # Both candidate scans run on Python ints; only bench/ uses numpy.
    def imports_numpy(node):
        if isinstance(node, ast.Import):
            return any(alias.name.split(".")[0] == "numpy" for alias in node.names)
        if isinstance(node, ast.ImportFrom):
            return (node.module or "").split(".")[0] == "numpy"
        return False

    assert _package_lines(imports_numpy) == {}


def test_package_imports_no_dataclasses():
    # The result types are plain value classes: dataclasses imports
    # inspect, which a CLI process would pay for at every start.
    def imports_dataclasses(node):
        if isinstance(node, ast.Import):
            return any(alias.name == "dataclasses" for alias in node.names)
        if isinstance(node, ast.ImportFrom):
            return node.module == "dataclasses"
        return False

    assert _package_lines(imports_dataclasses) == {}


# --- dispatchers ---------------------------------------------------------


def test_plane_dispatcher_boundaries():
    assert generate_P2(18, 16)[1].source == "P31"
    assert generate_P2(19, 20)[1].source == "P32"
    assert generate_P2(19, 9)[1].source == "P33"
    assert generate_P2(28, 9)[1].source.startswith("P34")
    assert generate_P2(comb(9 + 2, 2), 9)[1].source == "FullSet"
    with pytest.raises(UnsupportedRangeError):
        generate_P2(2, 5)
    with pytest.raises(UnsupportedRangeError):
        generate_P2(comb(11, 2) + 1, 9)


def test_general_dispatcher_plane():
    fam, recipe = generate(2, 7, 3)
    assert recipe.N == 2
    assert fam.var_count == 3


def test_general_dispatcher_special_quadrics():
    # Five quadrics in the plane are only semistable, but one dimension up
    # a genuinely stable set of five exists.
    fam, recipe = generate(3, 5, 2)
    assert recipe.source == "Special352"
    assert members_of(fam) == [
        (0, 0, 0, 2), (0, 0, 2, 0), (0, 2, 0, 0), (1, 1, 0, 0), (2, 0, 0, 0),
    ]
    assert check_brute_force(fam).status is Stability.STABLE


def test_general_dispatcher_induction():
    fam, recipe = generate(4, 9, 3)
    assert recipe.source == "Induction"
    assert recipe.params == {"base_N": 3, "base_n": 8}
    assert_well_formed(fam, recipe, 4, 9, 3)
    # The lifted family is the lower-dimensional one under x4 = 0, plus
    # the missing pure power.
    base, _ = generate(3, 8, 3)
    lifted = sorted(m.exponents + (0,) for m in base.members)
    assert sorted(members_of(fam)) == sorted(lifted + [(0, 0, 0, 0, 3)])


def test_induction_over_several_levels():
    # (5, 7, 2) lifts the special quadrics (3, 5, 2) by two variables, and
    # (4, 8, 2) lifts the full set of plane quadrics by two.
    fam, recipe = generate(5, 7, 2)
    assert recipe.to_json_dict() == {
        "N": 5, "n": 7, "d": 2, "source": "Induction",
        "params": {"base_N": 4, "base_n": 6},
    }
    assert_well_formed(fam, recipe, 5, 7, 2)
    base, _ = generate(3, 5, 2)
    lifted = [m.exponents + (0, 0) for m in base.members]
    powers = [(0, 0, 0, 0, 2, 0), (0, 0, 0, 0, 0, 2)]
    assert members_of(fam) == sorted(lifted + powers)
    fam, recipe = generate(4, 8, 2)
    assert recipe.params == {"base_N": 3, "base_n": 7}
    base, _ = generate_full_set(2, 2)
    lifted = [m.exponents + (0, 0) for m in base.members]
    assert members_of(fam) == sorted(lifted + [(0, 0, 0, 2, 0), (0, 0, 0, 0, 2)])


def test_member_cell_cap():
    # Refused before any member is built; the message names the cap.
    with pytest.raises(UnsupportedRangeError, match="member cells"):
        generate(2000, 2002, 2)
    with pytest.raises(UnsupportedRangeError, match="member cells"):
        generate_P2(MAX_FAMILY_CELLS // 3 + 1, 2000)
    fam, recipe = generate(400, 402, 2)
    assert_well_formed(fam, recipe, 400, 402, 2)


def test_general_dispatcher_extremes():
    assert generate(3, 4, 5)[1].source == "PurePowers"
    assert generate(3, comb(5, 3), 2)[1].source == "FullSet"


def test_general_dispatcher_gap():
    # Between the inductive range and the full set nothing is offered.
    with pytest.raises(UnsupportedRangeError):
        generate(3, 8, 2)
    with pytest.raises(UnsupportedRangeError):
        generate(1, 3, 5)


def test_general_dispatcher_sweep():
    for N in (3, 4):
        for d in (2, 3):
            top = comb(d + 2, 2) + N - 2
            for n in range(N + 1, top + 1):
                fam, recipe = generate(N, n, d)
                assert_well_formed(fam, recipe, N, n, d)
                assert check_efficient(fam).status is Stability.STABLE, (N, n, d)
