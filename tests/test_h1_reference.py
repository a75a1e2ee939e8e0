"""H1 on root permutations against the matrix computation it replaced.

``reference_cobound`` and ``reference_h1_classes`` are the earlier
matrix versions of ``cobound`` and ``h1_classes``: every coboundary is
formed from character matrices and classes are read off matrix keys.
The changes are that the inverses of kappa and of the star images are
computed once instead of once per coboundary, and that each class is
the orbit of one member under the whole group rather than the merge of
every member with each of its coboundaries (the same classes, as the
cobounding group is a group).
"""

import pytest
from hypothesis import given, settings, strategies as st

from rootfold.action import FiniteGroup, fixed_weyl, make_action
from rootfold.lattice import identity_matrix, mat_mul, mat_vec, transpose
from rootfold.rootdatum import (
    BasedRootDatum,
    DatumAutomorphism,
    RootDatum,
    from_cartan_type,
    reflection,
    root_permutation,
    weyl_group,
)
from rootfold.twist import (
    cobound,
    equivariant_automorphism_group,
    h1_classes,
    h1_with_image,
    star_action,
    twist_datum,
    z1_enumerate,
)

from test_rootdatum import weyl_elements


def flip(n):
    return tuple(tuple(int(j == n - 1 - i) for j in range(n)) for i in range(n))


def neg(n):
    return tuple(tuple(-int(i == j) for j in range(n)) for i in range(n))


def reference_cobound(cocycle, kappa, kinv, star_inverses):
    """Character matrices of s -> kappa^-1 . c(s) . s* kappa s*^-1."""
    out = []
    for s in cocycle.star_action.group.elements():
        twisted = mat_mul(cocycle.star_action.images[s].on_characters,
                          mat_mul(kappa.on_characters, star_inverses[s]))
        out.append(mat_mul(kinv, mat_mul(cocycle.values[s].on_characters,
                                         twisted)))
    return tuple(out)


def reference_h1_classes(cocycles, cobounding_group):
    """Classes as sorted tuples of sort keys, read off matrix keys: the
    class of a cocycle c not yet placed is every listed c.kappa, for
    kappa over the whole cobounding group K, as K is a group and the
    class is the orbit of c under it."""
    cocycles = tuple(cocycles)
    index = {c.sort_key(): i for i, c in enumerate(cocycles)}
    kinvs = [kappa.inverse().on_characters for kappa in cobounding_group]
    inverses = {}
    placed = set()
    groups = []
    for c in cocycles:
        if c.sort_key() in placed:
            continue
        star = c.star_action.images
        if star not in inverses:
            inverses[star] = [s.inverse().on_characters for s in star]
        orbit = {reference_cobound(c, kappa, kinv, inverses[star])
                 for kappa, kinv in zip(cobounding_group, kinvs)}
        members = sorted(k for k in orbit if k in index)
        placed.update(members)
        groups.append(tuple(members))
    return sorted(groups)


def classes_of(class_set):
    return sorted(tuple(c.sort_key() for c in cls) for cls in class_set.classes)


def reference_z1(galois, star, module_elements):
    """Z/2 = {0, 1} only: c(1) = w with w . s*(w) = 1, by matrices."""
    s = star[1]
    s_inv = s.inverse().on_characters
    one = identity_matrix(len(s_inv))
    out = []
    for w in module_elements:
        m = w.on_characters
        if mat_mul(m, mat_mul(s.on_characters, mat_mul(m, s_inv))) == one:
            out.append((one, m))
    return sorted(out)


# the benchmark's H1 cases: type, Galois generator, folding generator
H1_CASES = [
    ("A1 trivial", "A1:sc", identity_matrix, None),
    ("A2 trivial", "A2:sc", identity_matrix, None),
    ("B2 trivial", "B2:sc", identity_matrix, None),
    ("G2 trivial", "G2:sc", identity_matrix, None),
    ("A3 trivial", "A3:sc", identity_matrix, None),
    ("B3 trivial", "B3:sc", identity_matrix, None),
    ("C3 trivial", "C3:sc", identity_matrix, None),
    ("A1xA1 trivial", "A1:sc x A1:sc", identity_matrix, None),
    ("A2 flip", "A2:sc", flip, None),
    ("A3 flip", "A3:sc", flip, None),
    ("A1xA1 swap", "A1:sc x A1:sc", flip, None),
    ("A3 gamma", "A3:sc", neg, flip(3)),
    ("A4 gamma", "A4:sc", neg, flip(4)),
]


@pytest.mark.parametrize("case", H1_CASES, ids=[c[0] for c in H1_CASES])
def test_h1_classes_match_matrix_reference(case):
    _, spec, galois_matrix, gamma_matrix = case
    based = from_cartan_type(spec)
    datum = based.datum
    galois = make_action(datum, [(galois_matrix(datum.rank), 1)],
                         group=FiniteGroup.cyclic(2))
    gamma = None
    if gamma_matrix is not None:
        gamma = make_action(based, [(gamma_matrix, "s")])
        module = fixed_weyl(gamma)
    else:
        module = weyl_group(datum, base=based.base)
    star_act, _ = star_action(galois, based.base)
    cocycles = z1_enumerate(galois.group, star_act, module)
    assert [c.sort_key() for c in cocycles] == reference_z1(
        galois.group, star_act.images, weyl_elements(module))
    auts = equivariant_automorphism_group(based, commuting_with=gamma)
    for group in (module, auts):
        assert classes_of(h1_classes(cocycles, group)) == reference_h1_classes(
            cocycles, weyl_elements(group))
    report = h1_with_image(based, galois, gamma_action=gamma)
    assert classes_of(report.module_classes) == reference_h1_classes(
        cocycles, weyl_elements(module))
    assert classes_of(report.image_classes) == reference_h1_classes(
        cocycles, weyl_elements(auts))


@pytest.mark.parametrize("case", H1_CASES, ids=[c[0] for c in H1_CASES])
def test_transport_permutations_are_root_permutations(case):
    # star_action composes each transport's permutation from the simple
    # reflections along its word; it must be the transport's own.  The
    # actions twisted by every cocycle give transports over all of them.
    _, spec, galois_matrix, _ = case
    based = from_cartan_type(spec)
    datum = based.datum
    galois = make_action(datum, [(galois_matrix(datum.rank), 1)],
                         group=FiniteGroup.cyclic(2))
    star_act, _ = star_action(galois, based.base)
    actions = [galois, make_action(datum, [(neg(datum.rank), 1)],
                                   group=FiniteGroup.cyclic(2))]
    module = weyl_group(datum, base=based.base)
    actions += [twist_datum(based, star_act, c).galois
                for c in z1_enumerate(galois.group, star_act, module)]
    for act in actions:
        _, cocycle = star_action(act, based.base)
        assert cocycle.value_perms == tuple(
            root_permutation(datum, c) for c in cocycle.values)


def closure(generators):
    """The finite group of datum automorphisms the generators make."""
    n = len(generators[0].on_characters)
    seen = {identity_matrix(n): DatumAutomorphism.identity(n)}
    frontier = list(seen.values())
    while frontier:
        nxt = []
        for a in frontier:
            for g in generators:
                c = a * g
                if c.on_characters not in seen:
                    seen[c.on_characters] = c
                    nxt.append(c)
        frontier = nxt
    return tuple(seen[k] for k in sorted(seen))


def block(head, torus):
    """The block-diagonal matrix head + torus."""
    k, t = len(head), len(torus)
    return tuple(tuple(r) + (0,) * t for r in head) + tuple(
        (0,) * k + tuple(r) for r in torus)


def torus_case(factors, torus_rank, galois_matrix):
    """``factors`` copies of A1 (roots 2e_i, coroots e_i) plus a torus
    of the given rank, and the Z/2 Galois action by ``galois_matrix``."""
    n = factors + torus_rank
    e = identity_matrix(n)
    pairs = sorted((tuple(x * 2 * sign for x in e[i]), tuple(x * sign for x in e[i]))
                   for i in range(factors) for sign in (1, -1))
    datum = RootDatum(n, tuple(r for r, _ in pairs), tuple(c for _, c in pairs))
    based = BasedRootDatum(datum, tuple(datum.index_of(tuple(2 * x for x in e[i]))
                                        for i in range(factors)))
    galois = make_action(datum, [(galois_matrix, 1)], group=FiniteGroup.cyclic(2))
    return based, galois


SWAP = ((0, 1), (1, 0))
ONE2 = ((1, 0), (0, 1))

# name: (A1 factors, torus rank, Galois generator, classes in the module)
TORUS_CASES = {
    # the Galois action inverts the root and the torus; -1 on the torus
    # is not a Weyl element
    "A1 + rank-1 torus": (1, 1, block(((-1,),), ((-1,),)), 2),
    # the Galois action swaps the torus coordinates
    "A1xA1 + rank-2 torus, swap": (2, 2, block(ONE2, SWAP), 4),
}


@pytest.mark.parametrize("name", sorted(TORUS_CASES))
def test_h1_classes_match_reference_on_tori(name):
    factors, rank, galois_matrix, module_count = TORUS_CASES[name]
    based, galois = torus_case(factors, rank, galois_matrix)
    datum = based.datum
    module = weyl_group(datum)
    star_act, cocycle = star_action(galois, based.base)
    assert not star_act.images[1].is_identity()
    cocycles = z1_enumerate(galois.group, star_act, module)
    assert [c.sort_key() for c in cocycles] == reference_z1(
        galois.group, star_act.images, weyl_elements(module))
    got = classes_of(h1_classes(cocycles, module))
    assert got == reference_h1_classes(cocycles, weyl_elements(module))
    assert len(got) == module_count
    # cobound by the root permutation of a Weyl element agrees with the
    # matrix formula
    star_inverses = [s.inverse().on_characters for s in cocycle.star_action.images]
    for c in cocycles:
        for perm, kappa in weyl_by_permutation(based).items():
            expected = reference_cobound(c, kappa, kappa.inverse().on_characters,
                                         star_inverses)
            assert cobound(c, perm).sort_key() == expected


def test_values_induce_their_value_perms():
    # the values are built from the value permutations: in one pass for
    # the cocycles z1_enumerate returns, one cocycle at a time for the
    # coboundaries
    cocycles = []
    for _, spec, galois_matrix, gamma_matrix in H1_CASES:
        based = from_cartan_type(spec)
        galois = make_action(based.datum, [(galois_matrix(based.datum.rank), 1)],
                             group=FiniteGroup.cyclic(2))
        module = (weyl_group(based.datum, base=based.base) if gamma_matrix is None
                  else fixed_weyl(make_action(based, [(gamma_matrix, "s")])))
        star_act, _ = star_action(galois, based.base)
        cocycles += z1_enumerate(galois.group, star_act, module)
    for name in sorted(TORUS_CASES):
        based, galois = torus_case(*TORUS_CASES[name][:3])
        star_act, _ = star_action(galois, based.base)
        weyl = weyl_group(based.datum)
        for c in z1_enumerate(galois.group, star_act, weyl):
            cocycles += [cobound(c, kappa) for kappa in weyl.perms]
    assert len(cocycles) > 102
    for c in cocycles:
        datum = c.star_action.datum
        assert len(c.values) == len(c.value_perms)
        for v, p in zip(c.values, c.value_perms):
            assert root_permutation(datum, v) == p


# ---------------------------------------------------------------------------
# class counts do not depend on the basis of the character lattice


def change_of_basis(ops, n):
    """g and g^-1 in GL_n(Z) from elementary operations (i, j, sign):
    add sign times row j to row i."""
    g = [list(r) for r in identity_matrix(n)]
    ginv = [list(r) for r in identity_matrix(n)]
    for i, j, sign in ops:
        i, j = i % n, j % n
        if i == j:
            continue
        g[i] = [a + sign * b for a, b in zip(g[i], g[j])]
        # the inverse operation applied on the right
        for row in ginv:
            row[j] -= sign * row[i]
    return tuple(map(tuple, g)), tuple(map(tuple, ginv))


def conjugate(g, m, ginv):
    return mat_mul(g, mat_mul(m, ginv))


BASIS_CASES = [
    ("A1:sc", identity_matrix, None),
    ("A2:sc", identity_matrix, None),
    ("A2:sc", flip, None),
    ("B2:sc", identity_matrix, None),
    ("A1:sc x A1:sc", flip, None),
    ("A2:sc", neg, flip(2)),
]


def h1_counts(based, galois_matrix, gamma_matrix):
    datum = based.datum
    galois = make_action(datum, [(galois_matrix, 1)], group=FiniteGroup.cyclic(2))
    gamma = None
    if gamma_matrix is not None:
        gamma = make_action(based, [(gamma_matrix, "s")])
    report = h1_with_image(based, galois, gamma_action=gamma)
    return len(report.module_classes.cocycles), report.counts


@settings(max_examples=30, deadline=None)
@given(case=st.sampled_from(BASIS_CASES),
       ops=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                              st.sampled_from((1, -1))), max_size=5))
def test_h1_counts_invariant_under_change_of_basis(case, ops):
    spec, galois_of_rank, gamma_matrix = case
    based = from_cartan_type(spec)
    datum = based.datum
    n = datum.rank
    g, ginv = change_of_basis(ops, n)
    assert mat_mul(g, ginv) == identity_matrix(n)
    ginv_t = transpose(ginv)
    moved = RootDatum(n, tuple(mat_vec(g, r) for r in datum.roots),
                      tuple(mat_vec(ginv_t, c) for c in datum.coroots))
    moved_based = BasedRootDatum(moved, based.base)
    galois_matrix = galois_of_rank(n)
    expected = h1_counts(based, galois_matrix, gamma_matrix)
    got = h1_counts(moved_based, conjugate(g, galois_matrix, ginv),
                    None if gamma_matrix is None
                    else conjugate(g, gamma_matrix, ginv))
    assert got == expected


# ---------------------------------------------------------------------------
# star and twisted images, built on first read, against matrix products


def product(x, y):
    """x . y by character matrices."""
    return DatumAutomorphism(mat_mul(x.on_characters, y.on_characters))


def weyl_by_permutation(based):
    """Every Weyl element, closed from the simple reflections by matrix
    products, keyed by its root permutation."""
    datum = based.datum
    return {root_permutation(datum, w): w
            for w in closure([reflection(datum, i) for i in based.base])}


def assert_lazy_images(action, expected, unread=True):
    """``action`` holds no images until they are read (when ``unread``);
    then they are ``expected`` and induce ``action.root_perms``."""
    assert ("images" not in vars(action)) == unread
    assert action.images == tuple(expected)
    for image, perm in zip(action.images, action.root_perms):
        assert root_permutation(action.datum, image) == perm


def assert_star_and_twists(based, galois, star_act, cocycles, value_matrices):
    """The star images of ``galois`` are c(s)^-1 . pi(s), and the images
    of each twist of the cocycles are v(s) . c(s)^-1 . pi(s), where c is
    the transport cocycle and v(s) = value_matrices(cocycle)[s].  The
    twists are made before the star images are read, and again after."""
    weyl = weyl_by_permutation(based)
    _, transport = star_action(galois, based.base)
    stars = [product(weyl[p].inverse(), g)
             for p, g in zip(transport.value_perms, galois.images)]
    for read_star in (False, True):
        if read_star:
            # on a torus, the matrix coboundaries of the caller have read
            # the star images
            assert_lazy_images(star_act, stars, based.datum.is_semisimple)
        for c in cocycles:
            twisted = twist_datum(based, star_act, c).galois
            assert_lazy_images(twisted, map(product, value_matrices(c), stars))


@pytest.mark.parametrize("case", H1_CASES, ids=[c[0] for c in H1_CASES])
def test_lazy_images_match_matrix_products(case):
    _, spec, galois_matrix, gamma_matrix = case
    based = from_cartan_type(spec)
    datum = based.datum
    galois = make_action(datum, [(galois_matrix(datum.rank), 1)],
                         group=FiniteGroup.cyclic(2))
    module = (weyl_group(datum, base=based.base) if gamma_matrix is None
              else fixed_weyl(make_action(based, [(gamma_matrix, "s")])))
    star_act, _ = star_action(galois, based.base)
    cocycles = z1_enumerate(galois.group, star_act, module)
    weyl = weyl_by_permutation(based)
    assert_star_and_twists(based, galois, star_act, cocycles,
                           lambda c: [weyl[p] for p in c.value_perms])


@pytest.mark.parametrize("name", sorted(TORUS_CASES))
def test_lazy_images_match_matrix_products_on_tori(name):
    # the coboundaries by every Weyl element, with their values from the
    # matrix formula
    based, galois = torus_case(*TORUS_CASES[name][:3])
    weyl = weyl_by_permutation(based)
    star_act, _ = star_action(galois, based.base)
    star_inverses = [s.inverse().on_characters
                     for s in star_action(galois, based.base)[0].images]
    values = {}
    for c in z1_enumerate(galois.group, star_act, weyl_group(based.datum)):
        for perm, kappa in weyl.items():
            moved = cobound(c, perm)
            values[moved.value_perms] = moved, [
                DatumAutomorphism(m) for m in reference_cobound(
                    c, kappa, kappa.inverse().on_characters, star_inverses)]
    assert len(values) >= 2
    matrices = {c.value_perms: m for c, m in values.values()}
    assert_star_and_twists(based, galois, star_act, [c for c, _ in values.values()],
                           lambda c: matrices[c.value_perms])


# ---------------------------------------------------------------------------
# image classes joined from the module classes


def fold_gamma_cases():
    """The Gamma of every ``FOLD_TABLE`` fold, with the Galois group Z/2
    acting trivially and by -1."""
    from rootfold.selftest import FOLD_TABLE
    return [(f"{name}, Galois {label}", spec, galois, builder())
            for name, spec, builder, *_ in FOLD_TABLE
            for label, galois in (("trivial", identity_matrix), ("-1", neg))]


FOLD_GAMMA_CASES = fold_gamma_cases()


@pytest.mark.parametrize("case", H1_CASES + FOLD_GAMMA_CASES,
                         ids=[c[0] for c in H1_CASES + FOLD_GAMMA_CASES])
def test_image_classes_join_to_the_closed_and_the_matrix_partition(case):
    # the report joins its module classes under D^Gamma; closing all of
    # Z1 under Aut^Gamma, by permutations and by matrices, must agree
    _, spec, galois_matrix, gamma_matrix = case
    based = from_cartan_type(spec)
    datum = based.datum
    galois = make_action(datum, [(galois_matrix(datum.rank), 1)],
                         group=FiniteGroup.cyclic(2))
    gamma = None if gamma_matrix is None else make_action(based, [(gamma_matrix, "s")])
    report = h1_with_image(based, galois, gamma_action=gamma)
    cocycles = report.module_classes.cocycles
    auts = equivariant_automorphism_group(based, commuting_with=gamma)
    closed = h1_classes(cocycles, auts)
    image = report.image_classes
    assert image.classes == closed.classes
    assert image.representatives == closed.representatives
    assert image.cocycles == cocycles
    assert classes_of(image) == reference_h1_classes(cocycles, weyl_elements(auts))
