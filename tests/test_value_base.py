"""What the result types get from their base, ``syzstab._value.Value``:
constructors built from ``_FIELDS`` and ``_DEFAULTS``, and the default
``to_json_dict``."""

import inspect
import json
from fractions import Fraction

import pytest

from syzstab._value import Value, json_form
from syzstab.criterion import StabilityVerdict, SubsetWitness
from syzstab.families import FamilyRecipe
from syzstab.moduli import ModuliReport, cohomology_table
from syzstab.monomial import Monomial, MonomialFamily
from syzstab.search import SearchReport, exhaustive_search

REQUIRED = inspect.Parameter.empty

# Each constructor's parameters as (name, default), as they were when every
# result type wrote its own __init__.
SIGNATURES = {
    Monomial: [("exponents", REQUIRED)],
    MonomialFamily: [("var_count", REQUIRED), ("members", REQUIRED)],
    SubsetWitness: [
        ("indices", REQUIRED), ("gcd", REQUIRED), ("size", REQUIRED),
        ("quotient", REQUIRED), ("family_slope", REQUIRED),
    ],
    StabilityVerdict: [
        ("status", REQUIRED), ("family_slope", REQUIRED), ("violation", None),
        ("equality_witness", None), ("criterion_value_only", False),
    ],
    ModuliReport: [
        (name, REQUIRED)
        for name in ("N", "n", "d", "rank", "c1", "slope", "h0", "h1", "h2",
                     "h3", "h1_twist", "ext1", "component_dim")
    ],
    FamilyRecipe: [
        ("N", REQUIRED), ("n", REQUIRED), ("d", REQUIRED), ("source", REQUIRED),
        ("params", None),
    ],
    SearchReport: [
        (name, REQUIRED)
        for name in ("N", "n", "d", "families_examined", "orbits_examined",
                     "best_status", "best_family", "exhausted")
    ] + [("resume_token", None)],
}


@pytest.mark.parametrize("cls", SIGNATURES, ids=lambda cls: cls.__name__)
def test_constructor_signatures_are_unchanged(cls):
    params = inspect.signature(cls).parameters.values()
    assert [(p.name, p.default) for p in params] == SIGNATURES[cls]
    assert {p.kind for p in params} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}
    assert cls.__init__.__qualname__ == f"{cls.__name__}.__init__"


def test_only_validating_constructors_are_written_out():
    # A built constructor is compiled from a string.
    written = {
        cls for cls in SIGNATURES if cls.__init__.__code__.co_filename != "<string>"
    }
    assert written == {Monomial, MonomialFamily, FamilyRecipe}


def test_defaults_must_name_the_last_fields():
    with pytest.raises(TypeError, match="_DEFAULTS must name the last fields"):
        type("Broken", (Value,), {
            "_FIELDS": ("a", "b"), "__slots__": ("a", "b"), "_DEFAULTS": {"a": 0},
        })


def test_default_json_follows_the_fields():
    assert Monomial((1, 2)).to_json_dict() == {"exponents": [1, 2]}
    recipe = FamilyRecipe(2, 10, 4, "P31", {"k": 1, "j": (1, 2)})
    assert json.dumps(recipe.to_json_dict()) == (
        '{"N": 2, "n": 10, "d": 4, "source": "P31", "params": {"j": [1, 2], "k": 1}}'
    )
    report = cohomology_table(2, 4, 3)
    assert list(report.to_json_dict()) == list(ModuliReport._FIELDS)
    assert report.to_json_dict()["slope"] == [-4, 1]
    search = exhaustive_search(2, 2, 5)
    payload = search.to_json_dict()
    assert list(payload) == list(SearchReport._FIELDS)
    assert payload["best_family"] == search.best_family.to_json_dict()
    assert payload["best_status"] == "semistable-only"
    assert payload["resume_token"] is None


def test_json_form_of_each_field_type():
    assert json_form(None) is None
    assert json_form(True) is True
    assert json_form("x") == "x"
    assert json_form(Fraction(-20, 3)) == [-20, 3]
    assert json_form((0, 1)) == [0, 1]
    assert json_form({"b": 1, "a": 2}) == {"a": 2, "b": 1}
    family = MonomialFamily.of([(1, 0), (0, 1)])
    assert json_form(family) == {"vars": 2, "members": [[1, 0], [0, 1]]}
