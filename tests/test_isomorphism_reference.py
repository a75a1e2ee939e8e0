"""The isomorphism search and the equivariant automorphism group against
the matrix computations they replaced.

``reference_isomorphic`` tries every base of the second datum, one per
positive system in the order of the sorted index lists, and every
Cartan-preserving matching of the canonical base of the first datum
with it, in lexicographic order; it returns the first candidate that is
integral with determinant +-1, commutes with every paired group image as
a matrix, maps roots to roots and coroots to the matching coroots.
``reference_automorphism_group`` multiplies every Weyl element by every
base-preserving automorphism as matrices and keeps the products whose
character matrices commute with every group image.
``full_permutation_isomorphic`` is the search as it ran before it
tested equivariance on one base: the same candidates in the same order,
each checked on every root.
"""

from itertools import permutations

import pytest

from rootfold.action import FiniteGroup, fixed_weyl, make_action
from rootfold.lattice import (
    adjugate_and_det,
    det,
    exact_quotient,
    identity_matrix,
    mat_mul,
    mat_vec,
    transpose,
)
from rootfold.rootdatum import (
    BasedRootDatum,
    DatumAutomorphism,
    WeylGroup,
    as_permutation,
    base_of,
    canonical_base,
    contragredient,
    from_cartan_type,
    held_base,
    positive_systems,
    root_permutation,
    weyl_group,
)
from rootfold.selftest import node_permutation_matrix
from rootfold.twist import (
    _find_diagram_maps,
    _search_order,
    equivariant_automorphism_group,
    equivariant_isomorphic,
    h1_with_image,
    star_action,
    twist_datum,
    z1_enumerate,
)

from test_h1_reference import H1_CASES, flip, neg
from test_rootdatum import weyl_elements
from test_rootdatum import skew_realization


def _pairing(datum):
    return None if datum.has_standard_pairing else datum.pairing_matrix


def _cartan(datum, base):
    return tuple(tuple(datum.pair(datum.roots[i], datum.coroots[j]) for j in base)
                 for i in base)


def _base_maps(datum1, base1, datum2, base2):
    """Character matrices carrying base1 onto base2 node by node, for
    every Cartan-preserving matching, integral with determinant +-1."""
    k = len(base1)
    c1, c2 = _cartan(datum1, base1), _cartan(datum2, base2)
    adj, d0 = adjugate_and_det(transpose(tuple(datum1.roots[i] for i in base1)))
    for perm in permutations(range(k)):
        if any(c2[perm[i]][perm[j]] != c1[i][j] for i in range(k) for j in range(k)):
            continue
        target = transpose(tuple(datum2.roots[base2[perm[j]]] for j in range(k)))
        m = exact_quotient(mat_mul(target, adj), d0)
        if m is not None and abs(det(m)) == 1:
            yield m


def reference_isomorphic(datum1, actions1, datum2, actions2):
    if datum1.rank != datum2.rank or len(datum1.roots) != len(datum2.roots):
        return None
    base1 = canonical_base(datum1)
    p1, p2 = _pairing(datum1), _pairing(datum2)
    for system in positive_systems(datum2):
        base2 = base_of(datum2, system)
        if len(base2) != len(base1):
            continue
        for m in _base_maps(datum1, base1, datum2, base2):
            if any(mat_mul(m, a1.images[g].on_characters)
                   != mat_mul(a2.images[g].on_characters, m)
                   for a1, a2 in zip(actions1, actions2) for g in a1.group.elements()):
                continue
            images = [datum2.root_index.get(mat_vec(m, r)) for r in datum1.roots]
            if None in images:
                continue
            mc = contragredient(m, p1, p2)
            if all(mat_vec(mc, datum1.coroots[i]) == datum2.coroots[j]
                   for i, j in enumerate(images)):
                return DatumAutomorphism(m, mc)
    return None


def reference_automorphism_group(based, commuting_with=None):
    datum = based.datum
    diagram = []
    for m in _base_maps(datum, based.base, datum, based.base):
        aut = DatumAutomorphism.from_matrix(m, _pairing(datum))
        if root_permutation(datum, aut) is not None:
            diagram.append(aut)
    gammas = [] if commuting_with is None else [
        a.on_characters for a in commuting_with.images]
    out = {}
    for w in weyl_elements(weyl_group(datum, base=based.base)):
        for d in diagram:
            cand = w * d
            m = cand.on_characters
            if all(mat_mul(g, m) == mat_mul(m, g) for g in gammas):
                out[m] = cand
    return tuple(sorted(out.values(), key=lambda a: a.on_characters))


def full_permutation_isomorphic(datum1, actions1, datum2, actions2):
    """The search in ``_search_order``, testing equivariance on every
    root, over the candidates w o m for w in W(datum2) and m a diagram
    map from the canonical base of datum1 onto that of datum2, listed
    by ``_find_diagram_maps`` and sorted by node matching; permutations
    are plain tuples here, and the map found is solved from its images
    of the canonical base."""
    if datum1.rank != datum2.rank or len(datum1.roots) != len(datum2.roots):
        return None
    base1 = canonical_base(datum1)
    maps = [m for _, m in sorted(_find_diagram_maps(
        BasedRootDatum(datum1, base1), BasedRootDatum(datum2, canonical_base(datum2))))]
    if not maps:
        return None

    def compose(p, q):
        return tuple(p[i] for i in q)

    pairs = [(tuple(a1.root_perms[g]), tuple(a2.root_perms[g]))
             for a1, a2 in zip(actions1, actions2) for g in a1.group.generating_set]
    adj, d0 = adjugate_and_det(transpose(tuple(datum1.roots[i] for i in base1)))
    candidates = [as_permutation(compose(w, m)) for m in maps for w in weyl_group(datum2).perms]
    for f, on_base in _search_order(datum1, candidates):
        cand = tuple(f)
        assert tuple(on_base) == compose(cand, base1)
        if all(compose(cand, p1) == compose(p2, cand) for p1, p2 in pairs):
            target = transpose(tuple(datum2.roots[cand[i]] for i in base1))
            m = exact_quotient(mat_mul(target, adj), d0)
            return DatumAutomorphism(m, contragredient(m, _pairing(datum1),
                                                       _pairing(datum2)))
    return None


def key(aut):
    return None if aut is None else (aut.on_characters, aut.on_cocharacters)


def z2(datum, matrix):
    return make_action(datum, [(matrix, 1)], group=FiniteGroup.cyclic(2))


def assert_isomorphic_matches(datum1, actions1, datum2, actions2):
    got = key(equivariant_isomorphic(datum1, actions1, datum2, actions2))
    assert got == key(reference_isomorphic(datum1, actions1, datum2, actions2))
    assert got == key(full_permutation_isomorphic(datum1, actions1, datum2, actions2))
    return got


def assert_group_matches(based, commuting_with=None):
    got = equivariant_automorphism_group(based, commuting_with=commuting_with)
    reference = reference_automorphism_group(based, commuting_with)
    # the order is known before the closure, which then runs lazily
    assert "perms" not in vars(got)
    assert len(got) == len(reference)
    assert [key(a) for a in weyl_elements(got)] == [key(a) for a in reference]
    assert len(got.perms) == len(got)
    return got


@pytest.mark.parametrize("spec, matrix", [("A2:sc", None), ("A3:sc", flip),
                                          ("D4:sc", None)])
def test_a_wrong_stored_order_fails_the_lazy_closure(spec, matrix):
    based = from_cartan_type(spec)
    gamma = None if matrix is None else make_action(based, [(matrix(based.datum.rank), "s")])
    auts = equivariant_automorphism_group(based, commuting_with=gamma)
    for order in (len(auts) - 1, len(auts) + 1, 2 * len(auts)):
        wrong = WeylGroup(based.datum, None, auts.generators, order=order)
        assert len(wrong) == order
        with pytest.raises(AssertionError,
                           match=f"^the generators do not close to {order} elements$"):
            wrong.perms
    assert len(WeylGroup(based.datum, None, auts.generators, order=len(auts)).perms) == len(auts)


def twisted_actions(based, galois, gamma):
    """The Galois actions of every twist in Z1, each with gamma appended
    when there is one."""
    star, _ = star_action(galois, based.base)
    module = (fixed_weyl(gamma) if gamma is not None
              else weyl_group(based.datum, base=based.base))
    extra = [gamma] if gamma is not None else []
    return [[twist_datum(based, star, c, gamma_action=gamma).galois] + extra
            for c in z1_enumerate(galois.group, star, module)]


@pytest.mark.parametrize("case", H1_CASES, ids=[c[0] for c in H1_CASES])
def test_twist_pairs_match_reference(case):
    _, spec, galois_matrix, gamma_matrix = case
    based = from_cartan_type(spec)
    datum = based.datum
    galois = z2(datum, galois_matrix(datum.rank))
    gamma = None if gamma_matrix is None else make_action(based, [(gamma_matrix, "s")])
    assert_group_matches(based, gamma)
    twists = twisted_actions(based, galois, gamma)
    # every pair, or every twist against the first three past ten twists
    for i, t1 in enumerate(twists):
        for j, t2 in enumerate(twists):
            if len(twists) <= 10 or min(i, j) < 3:
                found = assert_isomorphic_matches(datum, t1, datum, t2)
                assert i != j or found is not None


def build_case(case):
    _, spec, galois_matrix, gamma_matrix = case
    based = from_cartan_type(spec)
    galois = z2(based.datum, galois_matrix(based.datum.rank))
    gamma = None if gamma_matrix is None else make_action(based, [(gamma_matrix, "s")])
    return based, galois, gamma


def class_pairs(case):
    """(value permutations of c1, of c2, same image class?) for every
    within-class pair and every ordered pair of distinct class
    representatives, read off a report on data built apart."""
    based, galois, gamma = build_case(case)
    classes = [[c.value_perms for c in cls]
               for cls in h1_with_image(based, galois, gamma).image_classes.classes]
    reps = [cls[0] for cls in classes]
    return ([(cls[0], c, True) for cls in classes for c in cls[1:]]
            + [(r1, r2, False) for r1 in reps for r2 in reps if r1 != r2])


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("case", H1_CASES, ids=[c[0] for c in H1_CASES])
def test_class_pairs_match_reference_with_or_without_kept_diagram_maps(case, warm):
    # cold: no automorphism group was made, so the search lists the maps
    # of the held base, or with gamma on both sides those of gamma's base
    # that commute with gamma; warm: it reuses those the group left for
    # the document base, the held one, which differs from the canonical
    # one on B2, G2, A3, B3, C3 and A4
    pairs = class_pairs(case)
    based, galois, gamma = build_case(case)
    datum = based.datum
    if warm:
        equivariant_automorphism_group(based, commuting_with=gamma)
    held = dict(datum._diagram_maps)
    assert len(held) == warm
    star, _ = star_action(galois, based.base)
    module = (fixed_weyl(gamma) if gamma is not None
              else weyl_group(datum, base=based.base))
    extra = [gamma] if gamma is not None else []
    twists = {c.value_perms: [twist_datum(based, star, c, gamma_action=gamma).galois] + extra
              for c in z1_enumerate(galois.group, star, module)}
    found = [equivariant_isomorphic(datum, twists[c1], datum, twists[c2])
             for c1, c2, _ in pairs]
    # the search listed diagram maps only when the datum held none, and
    # only for pairs whose cycle types do not refuse them at once
    searched = any(all(a1.cycle_types == a2.cycle_types
                       for a1, a2 in zip(twists[c1], twists[c2])) for c1, c2, _ in pairs)
    if warm:
        assert datum._diagram_maps.keys() == held.keys()
    elif gamma is None:
        assert set(datum._diagram_maps) == ({(held_base(datum),)} if searched else set())
    else:
        assert set(datum._diagram_maps) == {(gamma.target.base, gamma.generator_perms)}
    for (c1, c2, same), iso in zip(pairs, found):
        assert key(iso) == assert_isomorphic_matches(datum, twists[c1], datum, twists[c2])
        assert (iso is not None) == same


CROSS = [("A2:sc", "A2:ad"), ("B2:sc", "C2:sc"), ("B3:sc", "C3:sc"),
         ("A1:sc x A1:sc", "B2:sc")]


@pytest.mark.parametrize("specs", CROSS, ids=" / ".join)
def test_cross_realizations_match_reference(specs):
    d1, d2 = (from_cartan_type(s).datum for s in specs)
    n = d1.rank
    for matrix in (identity_matrix(n), neg(n)):
        assert_isomorphic_matches(d1, [z2(d1, matrix)], d2, [z2(d2, matrix)])
        assert_isomorphic_matches(d2, [z2(d2, matrix)], d1, [z2(d1, matrix)])


@pytest.mark.parametrize("spec", ["A2:sc", "B2:sc", "BC2"])
def test_skewed_pairing_matches_reference(spec):
    based = from_cartan_type(spec)
    d = based.datum
    u, v = ((1, 1), (0, 1)), ((1, 0), (2, 1))
    skew = skew_realization(d, u, v)
    skew_based = BasedRootDatum(skew, canonical_base(skew))
    assert_group_matches(skew_based)
    for matrix in (identity_matrix(2), neg(2)):
        # +-1 commute with u, so they act the same way on both
        a, b = z2(d, matrix), z2(skew, matrix)
        assert assert_isomorphic_matches(d, [a], skew, [b]) is not None
        assert_isomorphic_matches(skew, [b], d, [a])


def test_d4_triality_with_gamma_matches_reference():
    based = from_cartan_type("D4:sc")
    triality = node_permutation_matrix({0: 2, 1: 1, 2: 3, 3: 0}, 4)
    gamma = make_action(based, [(triality, "t")])
    assert len(assert_group_matches(based)) == 192 * 6
    assert len(assert_group_matches(based, gamma)) == 12 * 3
    twists = twisted_actions(based, z2(based.datum, neg(4)), gamma)
    # a second build is a distinct datum, carried onto the first by its
    # first diagram map, with gamma shared after the transport
    other = from_cartan_type("D4:sc")
    assert other.datum is not based.datum
    moved = twisted_actions(other, z2(other.datum, neg(4)),
                            make_action(other, [(triality, "t")]))
    for t, u in zip(twists, moved, strict=True):
        found = assert_isomorphic_matches(based.datum, twists[0], based.datum, t)
        assert key(equivariant_isomorphic(based.datum, twists[0], other.datum, u)) == found


def cycle(n):
    """The matrix moving coordinate i to i + 1 mod n."""
    return tuple(tuple(int(i == (j + 1) % n) for j in range(n)) for i in range(n))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_a1_powers_under_a_cycle_match_reference(k):
    # Aut^Gamma is +-1 times the powers of the cycle; every search pairs
    # gamma on both sides, so it ranks Aut^Gamma alone
    based = from_cartan_type(" x ".join(["A1:sc"] * k))
    gamma = make_action(based, [(cycle(k), "g")])
    assert len(assert_group_matches(based, gamma)) == 2 * k
    datum = based.datum
    # Z/2 by 1, by -1 and, for even k, by the half turn and its negative
    matrices = [identity_matrix(k), neg(k)]
    if k % 2 == 0:
        half = cycle(k)
        for _ in range(k // 2 - 1):
            half = mat_mul(half, cycle(k))
        matrices += [half, mat_mul(neg(k), half)]
    twists = [t for m in matrices for t in twisted_actions(based, z2(datum, m), gamma)]
    assert len(twists) > len(matrices)
    # the same twists on a second build, a distinct datum
    other = from_cartan_type(" x ".join(["A1:sc"] * k))
    gamma2 = make_action(other, [(cycle(k), "g")])
    moved = [t for m in matrices for t in twisted_actions(other, z2(other.datum, m), gamma2)]
    for t1 in twists:
        for t2, u2 in zip(twists, moved, strict=True):
            found = assert_isomorphic_matches(datum, t1, datum, t2)
            assert key(equivariant_isomorphic(datum, t1, other.datum, u2)) == found
