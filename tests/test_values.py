"""Value semantics of the package's seven result types: construction,
equality, hashing, repr, immutability and pickling."""

import copy
import pickle
from fractions import Fraction

import pytest

from syzstab.criterion import Stability, StabilityVerdict, SubsetWitness
from syzstab.families import FamilyRecipe
from syzstab.moduli import ModuliReport, cohomology_table
from syzstab.monomial import Monomial, MonomialFamily
from syzstab.search import SearchReport

LINE = MonomialFamily(2, (Monomial((1, 0)), Monomial((0, 1))))
WITNESS = SubsetWitness((0, 1), Monomial((0, 0)), 2, Fraction(-2), Fraction(-3, 2))

# (class, field names, arguments of every field, how many are required,
#  arguments of an unequal instance, repr of the first)
CASES = [
    (
        Monomial,
        ("exponents",),
        ((1, 2),),
        1,
        ((2, 1),),
        "Monomial(exponents=(1, 2))",
    ),
    (
        MonomialFamily,
        ("var_count", "members"),
        (2, (Monomial((1, 0)), Monomial((0, 1)))),
        2,
        (2, (Monomial((2, 0)), Monomial((0, 1)))),
        "MonomialFamily(var_count=2, members=(Monomial(exponents=(1, 0)), "
        "Monomial(exponents=(0, 1))))",
    ),
    (
        SubsetWitness,
        ("indices", "gcd", "size", "quotient", "family_slope"),
        ((0, 1), Monomial((0, 0)), 2, Fraction(-2), Fraction(-3, 2)),
        5,
        ((0, 1), Monomial((0, 0)), 2, Fraction(-3, 2), Fraction(-3, 2)),
        "SubsetWitness(indices=(0, 1), gcd=Monomial(exponents=(0, 0)), size=2, "
        "quotient=Fraction(-2, 1), family_slope=Fraction(-3, 2))",
    ),
    (
        StabilityVerdict,
        ("status", "family_slope", "violation", "equality_witness",
         "criterion_value_only"),
        (Stability.UNSTABLE, Fraction(-3, 2), WITNESS, None, True),
        2,
        (Stability.UNSTABLE, Fraction(-3, 2), WITNESS, None, False),
        "StabilityVerdict(status=<Stability.UNSTABLE: 'unstable'>, "
        "family_slope=Fraction(-3, 2), violation=SubsetWitness(indices=(0, 1), "
        "gcd=Monomial(exponents=(0, 0)), size=2, quotient=Fraction(-2, 1), "
        "family_slope=Fraction(-3, 2)), equality_witness=None, "
        "criterion_value_only=True)",
    ),
    (
        ModuliReport,
        ("N", "n", "d", "rank", "c1", "slope", "h0", "h1", "h2", "h3",
         "h1_twist", "ext1", "component_dim"),
        (2, 4, 3, 3, -12, Fraction(-4), 0, 1, 4, 0, 6, 28, 28),
        13,
        (2, 4, 3, 3, -12, Fraction(-4), 0, 1, 4, 0, 6, 28, 27),
        "ModuliReport(N=2, n=4, d=3, rank=3, c1=-12, slope=Fraction(-4, 1), "
        "h0=0, h1=1, h2=4, h3=0, h1_twist=6, ext1=28, component_dim=28)",
    ),
    (
        FamilyRecipe,
        ("N", "n", "d", "source", "params"),
        (2, 10, 4, "P31", {"k": 1}),
        4,
        (2, 10, 4, "P31", {"k": 2}),
        "FamilyRecipe(N=2, n=10, d=4, source='P31', params={'k': 1})",
    ),
    (
        SearchReport,
        ("N", "n", "d", "families_examined", "orbits_examined", "best_status",
         "best_family", "exhausted", "resume_token"),
        (1, 2, 1, 1, 1, "stable", LINE, False, "token"),
        8,
        (1, 2, 1, 1, 1, "stable", LINE, True, "token"),
        "SearchReport(N=1, n=2, d=1, families_examined=1, orbits_examined=1, "
        "best_status='stable', best_family=MonomialFamily(var_count=2, "
        "members=(Monomial(exponents=(1, 0)), Monomial(exponents=(0, 1)))), "
        "exhausted=False, resume_token='token')",
    ),
]
DEFAULTS = {
    StabilityVerdict: (None, None, False),
    FamilyRecipe: ({},),
    SearchReport: (None,),
}
IDS = [case[0].__name__ for case in CASES]


def fields_of(value, names):
    return tuple(getattr(value, name) for name in names)


@pytest.mark.parametrize("cls, names, args, required, other, text", CASES, ids=IDS)
def test_positional_and_keyword_construction(cls, names, args, required, other, text):
    value = cls(*args)
    assert fields_of(value, names) == args
    assert cls(**dict(zip(names, args))) == value
    assert cls.__match_args__ == names
    shortest = cls(*args[:required])
    assert fields_of(shortest, names) == args[:required] + DEFAULTS.get(cls, ())
    mixed = cls(*args[: required - 1], **{names[required - 1]: args[required - 1]})
    assert mixed == shortest
    with pytest.raises(TypeError):
        cls(*args[: required - 1])
    with pytest.raises(TypeError):
        cls(*args, None)
    with pytest.raises(TypeError):
        cls(*args[:required], unknown=None)


@pytest.mark.parametrize("cls, names, args, required, other, text", CASES, ids=IDS)
def test_equality_and_hash(cls, names, args, required, other, text):
    value = cls(*args)
    assert value == cls(*args) and not value != cls(*args)
    assert value != cls(*other) and not value == cls(*other)
    assert value != args and value.__eq__(args) is NotImplemented
    for other_cls, _, other_args, *_ in CASES:
        if other_cls is not cls:
            assert value != other_cls(*other_args)
            assert value.__eq__(other_cls(*other_args)) is NotImplemented
    if cls is FamilyRecipe:
        # A dict field is unhashable, and so is the recipe holding it.
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(args) == hash(cls(*args))
        assert {value, cls(*args)} == {value}


@pytest.mark.parametrize("cls, names, args, required, other, text", CASES, ids=IDS)
def test_repr(cls, names, args, required, other, text):
    assert repr(cls(*args)) == text


@pytest.mark.parametrize("cls, names, args, required, other, text", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, names, args, required, other, text):
    value = cls(*args)
    for name, new in zip(names, other):
        with pytest.raises(AttributeError):
            setattr(value, name, new)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.unknown = None
    assert fields_of(value, names) == args


@pytest.mark.parametrize("cls, names, args, required, other, text", CASES, ids=IDS)
def test_pickle_and_copy_round_trips(cls, names, args, required, other, text):
    value = cls(*args)
    copies = [copy.copy(value), copy.deepcopy(value)]
    copies += [
        pickle.loads(pickle.dumps(value, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    for again in copies:
        assert type(again) is cls
        assert again == value
        assert repr(again) == text
    assert copies[1] is not value


def test_family_recipe_params_are_not_shared():
    first, second = FamilyRecipe(2, 10, 4, "P31"), FamilyRecipe(2, 10, 4, "P31")
    assert first.params == second.params == {}
    assert first.params is not second.params
    first.params["k"] = 1
    assert second.params == {}


def test_reports_equal_their_direct_construction():
    assert cohomology_table(2, 4, 3) == ModuliReport(*CASES[4][2])
    family = MonomialFamily(2, (Monomial((0, 1)), Monomial((1, 0))))
    assert family == LINE and family.members == LINE.members
    assert family.degrees == (1, 1)
    assert pickle.loads(pickle.dumps(family)).degrees == (1, 1)
