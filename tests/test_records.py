"""The package's records against ``dataclasses``.

``lattice.record`` and ``lattice.replace`` stand in for
``dataclasses.dataclass`` and ``dataclasses.replace``, which the package
does not import.  Each record class is compared here with a twin made
by ``dataclasses.make_dataclass`` from the field list pinned below, so
the reference shares no code with the helper.  The field order is pinned
because call sites construct records positionally.
"""

import dataclasses
import sys
from functools import cached_property

import pytest
from hypothesis import given, settings, strategies as st

from rootfold import action, cli, folding, lattice, rootdatum, twist
from rootfold.lattice import record, replace
from rootfold.rootdatum import RootDatum


@record
class One:
    """A record of one field: its key is still a tuple."""

    only: object


# class -> (field names in order, defaults of the trailing fields)
RECORDS = {
    lattice.LatticeQuotient: (
        ("free_rank", "projection", "section", "torsion_invariants"), {}),
    rootdatum.DatumAutomorphism: (("on_characters",), {}),
    rootdatum.RootDatum: (("rank", "roots", "coroots", "pairing"),
                          {"pairing": None}),
    rootdatum.BasedRootDatum: (("datum", "base"), {}),
    action.FiniteGroup: (("labels", "table", "identity"), {}),
    action.DatumAction: (("group", "root_perms", "blocks", "target"), {}),
    action.Coinvariants: (("action", "projection", "section", "fixed_basis",
                           "pairing", "torsion"), {}),
    folding.RestrictedDatum: (("datum", "base", "source", "coinvariants",
                               "fibers", "provenance", "induced"), {}),
    folding.WeylDescent: (("fold", "restricted_weyl", "fixed_subgroup", "down"),
                          {}),
    twist.StarCocycle: (("star_action", "value_perms"), {}),
    twist.CohomologyClassSet: (("module_group", "cobounding_group", "cocycles",
                                "classes", "representatives"), {}),
    twist.H1Report: (("module_classes", "image_partition"), {}),
    twist.TwistedDatum: (("based", "galois", "gamma", "cocycle"), {}),
    cli.DatumDocument: (("datum", "based", "actions", "roles", "flags", "source"),
                        {"source": "<string>"}),
    One: (("only",), {}),
}
CLASSES = list(RECORDS)
IDS = [cls.__name__ for cls in CLASSES]


def twin(cls):
    names, defaults = RECORDS[cls]
    spec = [(name, object, dataclasses.field(default=defaults[name]))
            if name in defaults else (name, object) for name in names]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)


TWINS = {cls: twin(cls) for cls in CLASSES}

# few distinct values, so that equal field tuples are drawn often
VALUE = st.one_of(st.sampled_from([0, 1, -1, None, "a", (), (1, 2), ((0, 1), (1, 0))]),
                  st.integers(), st.tuples(st.integers(-2, 2), st.integers(-2, 2)))


def values_of(cls, instance):
    return tuple(getattr(instance, name) for name in RECORDS[cls][0])


def test_every_record_class_of_the_package_is_pinned():
    modules = [sys.modules[f"rootfold.{m}"]
               for m in ("lattice", "rootdatum", "action", "folding", "twist", "cli")]
    found = {c for m in modules for c in vars(m).values()
             if isinstance(c, type) and c.__module__ == m.__name__ and "_fields" in vars(c)}
    assert found == set(CLASSES) - {One}


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_field_order_is_pinned(cls):
    names = RECORDS[cls][0]
    assert cls._fields == names
    assert tuple(f.name for f in dataclasses.fields(TWINS[cls])) == names
    for name in names:
        assert name in cls.__annotations__


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_construction_matches_the_dataclass(cls, data):
    names, defaults = RECORDS[cls]
    Twin = TWINS[cls]
    values = data.draw(st.tuples(*[VALUE] * len(names)))
    by_name = dict(zip(names, values))
    for rec, ref in [(cls(*values), Twin(*values)),
                     (cls(**by_name), Twin(**by_name))]:
        assert values_of(cls, rec) == values_of(cls, ref) == values
        assert repr(rec) == repr(ref)
    required = {k: v for k, v in by_name.items() if k not in defaults}
    assert values_of(cls, cls(**required)) == values_of(cls, Twin(**required))
    # a positional prefix with the rest by keyword
    cut = data.draw(st.integers(0, len(names)))
    rest = dict(zip(names[cut:], values[cut:]))
    assert values_of(cls, cls(*values[:cut], **rest)) == values
    # what both refuse
    for args, kwargs in [(values + (0,), {}),
                         (values, {names[0]: 0}),
                         ((), {}),
                         (values, {"no_such_field": 0})]:
        with pytest.raises(TypeError):
            Twin(*args, **kwargs)
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_equality_and_hash_match_the_dataclass(cls, data):
    names = RECORDS[cls][0]
    Twin = TWINS[cls]
    a = data.draw(st.tuples(*[VALUE] * len(names)))
    b = data.draw(st.tuples(*[st.one_of(st.just(x), VALUE) for x in a]))
    assert (cls(*a) == cls(*b)) is (Twin(*a) == Twin(*b)) is (a == b)
    assert (cls(*a) != cls(*b)) is (Twin(*a) != Twin(*b))
    assert cls(*a) == cls(*a)
    assert hash(cls(*a)) == hash(cls(*a)) == hash(Twin(*a))
    # never equal to an instance of another class, even with equal fields
    rec, ref = cls(*a), Twin(*a)
    assert rec.__eq__(ref) is NotImplemented and ref.__eq__(rec) is NotImplemented
    assert rec != ref and not rec == ref
    assert rec != a and rec != One(a)


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_replace_matches_the_dataclass(cls, data):
    names = RECORDS[cls][0]
    Twin = TWINS[cls]
    values = data.draw(st.tuples(*[VALUE] * len(names)))
    changes = data.draw(st.dictionaries(st.sampled_from(names), VALUE))
    got = replace(cls(*values), **changes)
    assert type(got) is cls
    assert values_of(cls, got) == values_of(cls, dataclasses.replace(Twin(*values), **changes))
    with pytest.raises(TypeError):
        dataclasses.replace(Twin(*values), no_such_field=0)
    with pytest.raises(TypeError):
        replace(cls(*values), no_such_field=0)


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_assignment_and_deletion_match_the_dataclass(cls, data):
    names = RECORDS[cls][0]
    values = data.draw(st.tuples(*[VALUE] * len(names)))
    name = data.draw(st.sampled_from(names + ("not_a_field",)))
    for obj in (cls(*values), TWINS[cls](*values)):
        with pytest.raises(AttributeError):
            setattr(obj, name, 0)
        with pytest.raises(AttributeError):
            delattr(obj, names[0])
        assert values_of(cls, obj) == values


def test_cached_properties_and_instance_dictionary_writes_survive_freezing():
    @record
    class Counted:
        x: int
        y: int = 2

        @cached_property
        def total(self):
            return self.x + self.y

    c = Counted(1)
    assert c.total == 3 and vars(c)["total"] == 3
    vars(c)["extra"] = 4
    assert c.extra == 4
    assert c == Counted(1, 2) and hash(c) == hash((1, 2))
    d = RootDatum(1, ((2,), (-2,)), ((1,), (-1,)))
    assert d.root_index == {(2,): 0, (-2,): 1} and "root_index" in vars(d)
    with pytest.raises(AttributeError):
        d.root_index = {}
