"""H1 on root permutations against the matrix computation it replaced.

``reference_cobound`` and ``reference_h1_classes`` are the earlier
matrix versions of ``cobound`` and ``h1_classes``: every coboundary is
formed from character matrices and classes are merged by matrix keys.
The only change is that the inverses of kappa and of the star images
are computed once instead of once per coboundary.
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


def flip(n):
    return tuple(tuple(int(j == n - 1 - i) for j in range(n)) for i in range(n))


def neg(n):
    return tuple(tuple(-int(i == j) for j in range(n)) for i in range(n))


def reference_cobound(cocycle, kappa, kinv, star_inverses):
    """Character matrices of s -> kappa^-1 . c(s) . s* kappa s*^-1."""
    out = []
    for s in cocycle.galois.elements():
        twisted = mat_mul(cocycle.star[s].on_characters,
                          mat_mul(kappa.on_characters, star_inverses[s]))
        out.append(mat_mul(kinv, mat_mul(cocycle.values[s].on_characters,
                                         twisted)))
    return tuple(out)


def reference_h1_classes(cocycles, cobounding_group):
    """Classes as sorted tuples of sort keys, merged by matrix keys."""
    cocycles = tuple(cocycles)
    index = {c.sort_key(): i for i, c in enumerate(cocycles)}
    parent = list(range(len(cocycles)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    kinvs = [kappa.inverse().on_characters for kappa in cobounding_group]
    inverses = {}
    for i, c in enumerate(cocycles):
        if c.star not in inverses:
            inverses[c.star] = [s.inverse().on_characters for s in c.star]
        for kappa, kinv in zip(cobounding_group, kinvs):
            j = index.get(reference_cobound(c, kappa, kinv, inverses[c.star]))
            if j is not None:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups = {}
    for i in range(len(cocycles)):
        groups.setdefault(find(i), []).append(cocycles[i].sort_key())
    return sorted(tuple(sorted(g)) for g in groups.values())


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
    cocycles = z1_enumerate(galois.group, star_act.images, module)
    assert [c.sort_key() for c in cocycles] == reference_z1(
        galois.group, star_act.images, module.elements)
    auts = equivariant_automorphism_group(based, commuting_with=gamma)
    for group in (module, module.elements, auts):
        assert classes_of(h1_classes(cocycles, group)) == reference_h1_classes(
            cocycles, tuple(group))
    report = h1_with_image(based, galois, gamma_action=gamma)
    assert classes_of(report.module_classes) == reference_h1_classes(
        cocycles, module.elements)
    assert classes_of(report.image_classes) == reference_h1_classes(
        cocycles, auts)


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
                for c in z1_enumerate(galois.group, star_act.images, module)]
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


def torus_case(factors, torus_rank, galois_matrix, kappa_matrices):
    """``factors`` copies of A1 (roots 2e_i, coroots e_i) plus a torus
    of the given rank, the Z/2 Galois action by ``galois_matrix``, and
    the cobounding group generated by the reflections and
    ``kappa_matrices``."""
    n = factors + torus_rank
    e = identity_matrix(n)
    pairs = sorted((tuple(x * 2 * sign for x in e[i]), tuple(x * sign for x in e[i]))
                   for i in range(factors) for sign in (1, -1))
    datum = RootDatum(n, tuple(r for r, _ in pairs), tuple(c for _, c in pairs))
    based = BasedRootDatum(datum, tuple(datum.index_of(tuple(2 * x for x in e[i]))
                                        for i in range(factors)))
    galois = make_action(datum, [(galois_matrix, 1)], group=FiniteGroup.cyclic(2))
    gens = [reflection(datum, i) for i in based.base] + [
        DatumAutomorphism.from_matrix(m) for m in kappa_matrices]
    return based, galois, closure(gens)


ROT = ((0, -1), (1, 0))
SWAP = ((0, 1), (1, 0))
ONE2 = ((1, 0), (0, 1))

# name: (A1 factors, torus rank, Galois generator, extra cobounding
# generators, |cobounding group|, classes in the module, classes under
# the cobounding group)
TORUS_CASES = {
    # the Galois action inverts the root and the torus; -1 on the torus
    # is not a Weyl element
    "A1 + rank-1 torus": (1, 1, block(((-1,),), ((-1,),)),
                          [block(((1,),), ((-1,),))], 4, 2, 2),
    # the Galois action swaps the torus coordinates.  Swapping the two
    # A1 factors is not a Weyl element and merges the two reflections;
    # the rotation does not commute with the Galois action on the
    # torus, so it is skipped
    "A1xA1 + rank-2 torus, swap": (2, 2, block(ONE2, SWAP),
                                   [block(SWAP, ONE2), block(ONE2, ROT)],
                                   32, 4, 3),
    # swapping the factors together with the rotation never commutes
    # with the Galois action on the torus: its coboundaries leave W, and
    # comparing root permutations alone would merge the two reflections
    "A1xA1 + rank-2 torus, swap and rotate": (2, 2, block(ONE2, SWAP),
                                              [block(SWAP, ROT)], 16, 4, 4),
}


@pytest.mark.parametrize("name", sorted(TORUS_CASES))
def test_h1_classes_match_reference_on_tori(name):
    factors, rank, galois_matrix, kappas, order, module_count, count = (
        TORUS_CASES[name])
    based, galois, group = torus_case(factors, rank, galois_matrix, kappas)
    assert len(group) == order
    datum = based.datum
    module = weyl_group(datum)
    star_act, cocycle = star_action(galois, based.base)
    assert not star_act.images[1].is_identity()
    cocycles = z1_enumerate(galois.group, star_act.images, module)
    assert [c.sort_key() for c in cocycles] == reference_z1(
        galois.group, star_act.images, module.elements)
    for g, expected in ((module, module_count), (group, count)):
        got = classes_of(h1_classes(cocycles, g))
        assert got == reference_h1_classes(cocycles, tuple(g))
        assert len(got) == expected
    # cobound agrees with the matrix formula wherever it is defined
    weyl_matrices = {w.on_characters for w in module}
    star_inverses = [s.inverse().on_characters for s in cocycle.star]
    for c in cocycles:
        for kappa in group:
            expected = reference_cobound(c, kappa, kappa.inverse().on_characters,
                                         star_inverses)
            try:
                got = cobound(c, kappa).sort_key()
            except ValueError:
                # kappa^-1 s*(kappa) moves the torus, so the coboundary
                # is not W-valued
                assert not all(m in weyl_matrices for m in expected)
                continue
            assert got == expected


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
