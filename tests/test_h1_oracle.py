"""H1 class counts against closed forms, classes of partial cocycle
lists against the matrix reference, and Z1 against the assignment
closure ``z1_enumerate`` ran before it walked one spanning tree.

For the trivial Z/2 Galois action the star action is trivial, a cocycle
is a Weyl element w with w^2 = 1, and cobounding by k is conjugation
w -> k^-1 w k.  So the module class count is the number of conjugacy
classes of W whose elements square to 1, the identity included (Carter,
Conjugacy classes in the Weyl group, Compositio Math. 25, 1972).  The
expected counts below come from formulas and share no code with the
engine:

* A_n, W = S_{n+1}: an involution is a product of r <= (n+1)/2 disjoint
  transpositions, one class per r.
* B_n and C_n, signed permutations: a class is fixed by the number r of
  transpositions and the number of sign changes among the n - 2r fixed
  points.
* D_n: the same pairs with an even number of sign changes; for n even,
  the class with every point paired (r = n/2) splits in two.
* G2, the dihedral group of order 12: 1, -1 and two classes of
  reflections.
* E6: 5, from Carter's classification.

For the quasi-split 2E6 form the Galois element acts on W as conjugation
by w0, so c(s) = w is a cocycle when (w w0)^2 = 1, and w -> w w0 maps
the twisted classes onto the classes above: 5 again.
"""

import random
from itertools import product

import pytest

from rootfold.action import FiniteGroup, fixed_weyl, make_action
from rootfold.errors import EnumerationOverflow, InvalidActionError
from rootfold.lattice import identity_matrix
from rootfold.rootdatum import closure, from_cartan_type, root_permutation, weyl_group
from rootfold.twist import (
    equivariant_automorphism_group,
    h1_classes,
    h1_with_image,
    star_action,
    z1_enumerate,
)

from test_h1_reference import H1_CASES, classes_of, flip, neg, reference_h1_classes
from test_rootdatum import weyl_elements


def count_a(n):
    return (n + 1) // 2 + 1


def count_bc(n):
    return sum(n - 2 * r + 1 for r in range(n // 2 + 1))


def count_d(n):
    return sum((n - 2 * r) // 2 + 1 for r in range(n // 2 + 1)) + (n % 2 == 0)


ORACLE = (
    [(f"A{n}:sc", count_a(n), False) for n in range(1, 6)]
    + [(f"B{n}:sc", count_bc(n), True) for n in range(2, 6)]
    + [("C3:sc", count_bc(3), True)]
    + [(f"D{n}:sc", count_d(n), False) for n in (4, 5)]
    + [("G2:sc", 4, True)]
)


def z2(datum, matrix):
    return make_action(datum, [(matrix, 1)], group=FiniteGroup.cyclic(2))


@pytest.mark.parametrize("spec, expected, image_too", ORACLE,
                         ids=[o[0] for o in ORACLE])
def test_trivial_action_counts_involution_classes(spec, expected, image_too):
    based = from_cartan_type(spec)
    n = based.datum.rank
    module, image = h1_with_image(based, z2(based.datum, identity_matrix(n))).counts
    assert module == expected
    if image_too:
        # no diagram automorphism: every automorphism is a Weyl element
        assert image == module


E6_FLIP = {0: 5, 1: 1, 2: 4, 3: 3, 4: 2, 5: 0}


@pytest.mark.slow
@pytest.mark.parametrize("galois", ["trivial", "quasi-split"])
def test_e6_has_five_classes(galois):
    based = from_cartan_type("E6:sc")
    if galois == "trivial":
        matrix = identity_matrix(6)
    else:
        matrix = tuple(tuple(int(E6_FLIP[j] == i) for j in range(6)) for i in range(6))
    report = h1_with_image(based, z2(based.datum, matrix))
    assert len(report.module_classes.cocycles) == 892
    assert report.counts == (5, 5)


def case_groups(case):
    _, spec, galois_matrix, gamma_matrix = case
    based = from_cartan_type(spec)
    datum = based.datum
    gamma = None
    if gamma_matrix is not None:
        gamma = make_action(based, [(gamma_matrix, "s")])
        module = fixed_weyl(gamma)
    else:
        module = weyl_group(datum, base=based.base)
    star_act, _ = star_action(z2(datum, galois_matrix(datum.rank)), based.base)
    cocycles = z1_enumerate(star_act.group, star_act, module)
    return cocycles, module, equivariant_automorphism_group(based, commuting_with=gamma)


@pytest.mark.parametrize("case", H1_CASES, ids=[c[0] for c in H1_CASES])
def test_classes_of_sublists_match_reference(case):
    # an orbit may pass through cocycles left out of the list; the
    # listed ones must still be partitioned as by the full group
    cocycles, module, auts = case_groups(case)
    rng = random.Random(case[0])
    for _ in range(4):
        sub = [c for c in cocycles if rng.random() < 0.5]
        rng.shuffle(sub)
        for group in (module, auts):
            assert classes_of(h1_classes(sub, group)) == reference_h1_classes(
                sub, weyl_elements(group))


def test_automorphism_group_refuses_an_unbased_action():
    based = from_cartan_type("A2:sc")
    with pytest.raises(InvalidActionError):
        equivariant_automorphism_group(based, commuting_with=z2(based.datum, flip(2)))


def reference_z1(galois, star, module):
    """The value permutations of every cocycle, sorted, as
    ``z1_enumerate`` found them before it walked one spanning tree: each
    assignment s -> a_s of module elements to the generators is closed
    from (1, e) under (v, g) -> (v . g*(a_s), g s), and kept when the
    closure is the graph of a map into the module.  Permutations are
    plain tuples here."""
    datum = module.datum
    ident = tuple(range(len(datum.roots)))
    star_perms = [tuple(root_permutation(datum, s)) for s in star]

    def compose(p, q):
        return tuple(p[i] for i in q)

    def twist(g, a):
        q = star_perms[g]
        inverse = tuple(sorted(range(len(q)), key=q.__getitem__))
        return compose(compose(q, a), inverse)

    module_perms = [tuple(p) for p in module.perms]
    members = set(module_perms)
    found = []
    for assignment in product(module_perms, repeat=len(galois.generating_set)):
        steps = [lambda pair, s=s, a=a: (galois.mul(pair[0], s),
                                         compose(pair[1], twist(pair[0], a)))
                 for s, a in zip(galois.generating_set, assignment)]
        try:
            values = dict(closure([(galois.identity, ident)], steps, len(galois)))
        except EnumerationOverflow:
            continue
        if members.issuperset(values.values()):
            found.append(tuple(values[g] for g in galois.elements()))
    return sorted(found)


@pytest.mark.parametrize("case", H1_CASES, ids=[c[0] for c in H1_CASES])
def test_z1_matches_the_assignment_closure(case):
    cocycles, module, _ = case_groups(case)
    star = cocycles[0].star_action.images
    galois = cocycles[0].star_action.group
    assert sorted(tuple(map(tuple, c.value_perms)) for c in cocycles) == reference_z1(
        galois, star, module)


# Z/2 x Z/2, generated by (1, 0) and (0, 1): the type and the matrices
# of the two generators
KLEIN_CASES = [
    ("A1xA1 swap and trivial", "A1:sc x A1:sc", flip, identity_matrix),
    ("A2 flip and -1", "A2:sc", flip, neg),
    ("A3 flip and -1", "A3:sc", flip, neg),
    ("B2 trivial and -1", "B2:sc", identity_matrix, neg),
]


@pytest.mark.parametrize("case", KLEIN_CASES, ids=[c[0] for c in KLEIN_CASES])
def test_z1_matches_the_assignment_closure_on_a_noncyclic_group(case):
    _, spec, first, second = case
    based = from_cartan_type(spec)
    datum = based.datum
    n = datum.rank
    klein = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))
    galois = make_action(datum, [(first(n), (1, 0)), (second(n), (0, 1))], group=klein)
    assert len(klein.generating_set) == 2
    star_act, _ = star_action(galois, based.base)
    module = weyl_group(datum, base=based.base)
    cocycles = z1_enumerate(klein, star_act, module)
    assert cocycles
    assert sorted(tuple(map(tuple, c.value_perms)) for c in cocycles) == reference_z1(
        klein, star_act.images, module)
