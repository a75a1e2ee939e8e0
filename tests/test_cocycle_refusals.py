"""The refusals of ``StarCocycle.build`` and ``z1_enumerate``, against
brute-force references that compare matrices over every pair of group
elements (the engine compares root permutations).

Each case is a small Weyl module with Z/2, Z/3, Z/4 or S3 acting on the
based datum through diagram automorphisms, which stabilize the base, so
the action is its own star action.  The references hold root
permutations as plain tuples; engine permutations are compared after
``tuple``."""

from functools import lru_cache
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from rootfold.action import FiniteGroup, make_action
from rootfold.lattice import identity_matrix, mat_mul, unimodular_inverse
from rootfold.rootdatum import (
    WeylGroup,
    _automorphisms_from_permutations,
    closure,
    from_cartan_type,
    weyl_group,
)
from rootfold.selftest import node_permutation_matrix
from rootfold.twist import StarCocycle, z1_enumerate


def symmetric_group_3():
    labels = tuple(permutations(range(3)))
    table = tuple(
        tuple(labels.index(tuple(p[q[i]] for i in range(3))) for q in labels)
        for p in labels)
    return FiniteGroup.from_table(labels, table)


def right_multiplication(q):
    """p -> p o q on plain tuples."""
    return lambda p: tuple(p[i] for i in q)


def coordinate_permutation(p):
    """The matrix sending e_i to e_p(i)."""
    return tuple(tuple(int(r == p[c]) for c in range(len(p))) for r in range(len(p)))


SWAP = ((0, 1), (1, 0))
S3 = symmetric_group_3()

# name: (type, group, {generator label: matrix}); every matrix is a
# diagram automorphism of the type's base
CASES = {
    "Z/2 on A2": ("A2:sc", FiniteGroup.cyclic(2), {1: SWAP}),
    "Z/2 trivially on A2": ("A2:sc", FiniteGroup.cyclic(2), {1: identity_matrix(2)}),
    "Z/2 on A1 x A1": ("A1:sc x A1:sc", FiniteGroup.cyclic(2), {1: SWAP}),
    "Z/3 on D4": ("D4:sc", FiniteGroup.cyclic(3),
                  {1: node_permutation_matrix({0: 2, 1: 1, 2: 3, 3: 0}, 4)}),
    "Z/3 on A1^3": ("A1:sc x A1:sc x A1:sc", FiniteGroup.cyclic(3),
                    {1: coordinate_permutation((1, 2, 0))}),
    "Z/4 on A2": ("A2:sc", FiniteGroup.cyclic(4), {1: SWAP}),
    "Z/4 on A1 x A1": ("A1:sc x A1:sc", FiniteGroup.cyclic(4), {1: SWAP}),
    "S3 on A1^3": ("A1:sc x A1:sc x A1:sc", S3,
                   {p: coordinate_permutation(p) for p in ((1, 0, 2), (0, 2, 1))}),
}


@lru_cache(maxsize=None)
def case(name):
    """(group, datum, star action, W, {tuple permutation: element} on W,
    Z1)."""
    spec, group, gens = CASES[name]
    based = from_cartan_type(spec)
    star = make_action(based, list((m, label) for label, m in gens.items()),
                       group=group)
    weyl = weyl_group(based.datum)
    aut_of = dict(zip(map(tuple, weyl.perms),
                      _automorphisms_from_permutations(based.datum, weyl.perms)))
    cocycles = z1_enumerate(group, star, weyl)
    return group, based.datum, star, weyl, aut_of, cocycles


def reference_law_failure(group, values, star):
    """The message for the first failure of c(e) = 1, then of
    c(st) = c(s) s* c(t) s*^-1 over every pair (s, t) in element order,
    all on character matrices; None if the table is a cocycle."""
    rank = len(values[0])
    if values[group.identity] != identity_matrix(rank):
        return "cocycle must send the identity to the identity"
    for s in group.elements():
        twist = star[s].on_characters
        untwist = unimodular_inverse(twist)
        for t in group.elements():
            rhs = mat_mul(mat_mul(values[s], twist), mat_mul(values[t], untwist))
            if values[group.mul(s, t)] != rhs:
                return (f"twisted cocycle law fails at "
                        f"({group.labels[s]!r}, {group.labels[t]!r})")
    return None


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_star_cocycle_build_refuses_exactly_the_tables_that_fail(data):
    name = data.draw(st.sampled_from(sorted(CASES)), label="case")
    group, datum, star, weyl, aut_of, cocycles = case(name)
    ident = tuple(range(len(datum.roots)))
    # a cocycle or the constant identity, with some values then redrawn,
    # so that both outcomes are common
    if data.draw(st.booleans(), label="from a cocycle"):
        perms = list(map(tuple, data.draw(st.sampled_from(cocycles),
                                          label="cocycle").value_perms))
    else:
        perms = [ident] * len(group)
    for x in data.draw(st.lists(st.integers(0, len(group) - 1), max_size=3),
                       label="redrawn elements"):
        perms[x] = tuple(data.draw(st.sampled_from(weyl.perms), label="value"))
    auts = [aut_of[p] for p in perms]
    expected = reference_law_failure(group, [a.on_characters for a in auts],
                                     star.images)
    if expected is None:
        cocycle = StarCocycle.build(star, perms)
        assert tuple(map(tuple, cocycle.value_perms)) == tuple(perms)
        assert cocycle in cocycles
        return
    with pytest.raises(ValueError) as err:
        StarCocycle.build(star, perms)
    assert str(err.value) == expected


def star_closed(star, module_matrices):
    """Whether s* w s*^-1 is in the module for every star image s* and
    every module element w, on character matrices."""
    for s in star.images:
        untwist = unimodular_inverse(s.on_characters)
        for w in module_matrices:
            if mat_mul(mat_mul(s.on_characters, w), untwist) not in module_matrices:
                return False
    return True


def check_module(name, generators):
    """z1_enumerate on the subgroup of W that ``generators`` generate
    refuses it exactly when the reference finds it not star-closed, and
    otherwise returns the cocycles of the full Z1 that lie in it.
    Returns whether the module was closed."""
    group, datum, star, weyl, aut_of, cocycles = case(name)
    ident = tuple(range(len(datum.roots)))
    perms = closure([ident], [right_multiplication(tuple(g)) for g in generators])
    module = WeylGroup(datum, perms)
    closed = star_closed(star, {aut_of[p].on_characters for p in perms})
    if not closed:
        with pytest.raises(ValueError, match="^module is not closed under the star twist$"):
            z1_enumerate(group, star, module)
        return False
    found = z1_enumerate(group, star, module)
    inside = set(perms)
    assert [c.value_perms for c in found] == [
        c.value_perms for c in cocycles if inside.issuperset(map(tuple, c.value_perms))]
    return True


@pytest.mark.parametrize("name", sorted(CASES))
def test_z1_enumerate_refuses_exactly_the_cyclic_modules_the_twist_leaves(name):
    weyl = case(name)[3]
    outcomes = {check_module(name, [w]) for w in weyl.perms}
    # the identity generates a closed module; a star image that moves a
    # simple root a sends s_a out of the cyclic module {1, s_a}
    nontrivial = any(not s.is_identity() for s in case(name)[2].images)
    assert outcomes == ({True, False} if nontrivial else {True})


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_z1_enumerate_refuses_exactly_the_modules_the_twist_leaves(data):
    name = data.draw(st.sampled_from(sorted(CASES)), label="case")
    weyl = case(name)[3]
    generators = data.draw(st.lists(st.sampled_from(weyl.perms), max_size=2),
                           label="module generators")
    check_module(name, generators)
