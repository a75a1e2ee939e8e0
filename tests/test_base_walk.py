"""The walked positive system and the conjugation-closed reflection
cache, each against the computation it replaces: the exact solve over
``root_coordinates`` and the direct reflection check read off the
pairing.  A tuple the walk does not certify is refused."""

import re
from itertools import combinations

import pytest

import rootfold.rootdatum as rootdatum_module
from rootfold.action import FiniteGroup, make_action
from rootfold.errors import InvalidActionError
from rootfold.rootdatum import (
    BasedRootDatum,
    RootDatum,
    _walk_base,
    canonical_base,
    from_cartan_type,
    reflection,
    reflection_permutation,
    root_permutation,
    verify_base,
    weyl_group,
)
from rootfold.twist import star_action

from test_rootdatum import A1_PLUS_TORUS, OFF_ROOTS, folded_bc2_with_pairing, padded

TYPES = [f"{t}:{tag}" for t in ("A2", "B2", "G2", "A3", "B3", "C3", "D4")
         for tag in ("sc", "ad")] + ["BC2", "BC3", "A1:sc x B2:sc", "A1:ad x B2:ad"]


def fresh(datum):
    """The same datum with empty caches."""
    return RootDatum(datum.rank, datum.roots, datum.coroots, datum.pairing)


def outcome(compute):
    """The result of ``compute()``, or the type and message it raises."""
    try:
        return compute()
    except Exception as e:   # every refusal counts, whatever its type
        return type(e), str(e)


def datum_by_name(name):
    if name == "skewed BC2":
        return folded_bc2_with_pairing()
    return from_cartan_type(name).datum


def solved_positive_system(based):
    """The roots with nonnegative coordinates over the tuple, solved
    over ``root_coordinates``: the reference the walk's answer is
    compared with."""
    out = set()
    for i, sol in enumerate(based.root_coordinates):
        if sol is None:
            raise InvalidActionError("base does not span the roots")
        if all(x >= 0 for x in sol[0]):
            out.add(i)
    return frozenset(out)


def refusal(base):
    return InvalidActionError, f"roots {base} do not form a base"


@pytest.mark.parametrize("name", TYPES + ["skewed BC2"])
def test_walked_positive_systems_match_the_solve_on_every_index_subset(name):
    datum = fresh(datum_by_name(name))
    certified = 0
    for base in combinations(range(len(datum.roots)), len(canonical_base(datum))):
        based = BasedRootDatum(datum, base)
        expected = outcome(lambda: solved_positive_system(based))
        walked = _walk_base(based)
        assert outcome(lambda: based.positive_system) == (
            refusal(base) if walked is None else expected)
        assert walked is None or walked == expected
        if verify_base(based) == []:
            assert walked == expected
            certified += 1
    # a base per positive system, |W| of them
    assert certified == len(weyl_group(datum))


def test_acute_root_pairs_are_refused_by_the_positive_system_and_the_star_action():
    # a pair of roots of A2 at 60 degrees is no base: the roots with
    # nonnegative coordinates over it, such as {4, 5}, form no positive
    # system
    datum = from_cartan_type("A2:sc").datum
    minus = make_action(datum, [(((-1, 0), (0, -1)), 1)], group=FiniteGroup.cyclic(2))
    acute = [(i, j) for i, j in combinations(range(len(datum.roots)), 2)
             if datum.pair(datum.roots[i], datum.coroots[j]) == 1]
    assert len(acute) == 6
    for pair in acute:
        message = f"^{re.escape(refusal(pair)[1])}$"
        with pytest.raises(InvalidActionError, match=message):
            BasedRootDatum(datum, pair).positive_system
        with pytest.raises(InvalidActionError, match=message):
            star_action(minus, pair)


def zero_root_datum():
    """A2 in the first two coordinates of Z^3 plus two more "roots", the
    zero vector (coroot e3) and e3 (coroot 2 e3): no root datum, but the
    reflections of a1, a2 and 0 permute the roots and coroots, that of 0
    trivially."""
    a2 = from_cartan_type("A2:sc").datum
    return RootDatum(3, tuple(r + (0,) for r in a2.roots) + ((0, 0, 0), (0, 0, 1)),
                     tuple(c + (0,) for c in a2.coroots) + ((0, 0, 1), (0, 0, 2)))


def test_a_base_with_a_repeated_or_dependent_root_is_refused():
    b2 = from_cartan_type("B2:sc").datum
    half = len(b2.roots) // 2
    cases = [(b2, base) for base in [(0, 0), (0, 0, 1), tuple(range(half)),
                                     tuple(range(len(b2.roots)))]]
    # a1, a2 and the zero vector walk to half the roots with nonnegative
    # coordinates; only the singular Cartan matrix refuses the walk
    zero = zero_root_datum()
    zero_base = from_cartan_type("A2:sc").base + (zero.index_of((0, 0, 0)),)
    assert all(reflection_permutation(zero, i) is not None for i in zero_base)
    cases.append((zero, zero_base))
    for datum, base in cases:
        based = BasedRootDatum(datum, base)
        assert _walk_base(based) is None
        assert outcome(lambda: based.positive_system) == refusal(base)


REFLECTION_DATA = {
    "B3": lambda: from_cartan_type("B3:sc").datum,
    "G2": lambda: from_cartan_type("G2:ad").datum,
    "BC3": lambda: from_cartan_type("BC3").datum,
    "D4": lambda: from_cartan_type("D4:sc").datum,
    "A1 x B2": lambda: from_cartan_type("A1:sc x B2:ad").datum,
    "skewed BC2": folded_bc2_with_pairing,
    "A1+torus": lambda: A1_PLUS_TORUS,
    "off roots + A2": lambda: padded([OFF_ROOTS, from_cartan_type("A2:sc").datum], 4),
}


@pytest.mark.parametrize("name", sorted(REFLECTION_DATA))
def test_reflections_reached_by_conjugation_are_the_direct_ones(name, monkeypatch):
    datum = fresh(REFLECTION_DATA[name]())
    first = max(set(range(len(datum.roots))) - set(canonical_base(datum)))
    direct = []
    compute = rootdatum_module._reflection_permutation
    monkeypatch.setattr(rootdatum_module, "_reflection_permutation",
                        lambda d, k: direct.append(k) or compute(d, k))
    reflection_permutation(datum, first)   # a root that is not simple first
    got = [reflection_permutation(datum, k) for k in range(len(datum.roots))]
    assert got == [root_permutation(datum, reflection(datum, k))
                   for k in range(len(datum.roots))]
    assert direct[0] == first and len(direct) == len(set(direct))
    if len(datum.roots) > 4:
        assert len(direct) < len(datum.roots)
