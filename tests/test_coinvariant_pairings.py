"""The fixed cocharacter lattice that ``coinvariants`` reads off the
projection, under random unimodular changes of basis A and random
unimodular pairings P: each ``FOLD_TABLE`` datum and its generator are
moved by A, the coroots are moved so that every root still pairs with
every coroot as before, and the fixed basis is compared with the
saturated kernel of the stacked g' - 1 (the computation the projection
replaced), which is kept here as the reference.  The character side is
checked against every image too: the projection is invariant, the
section is its right inverse, and its kernel is the saturation of the
relations (1 - g)e_k over every image."""

from functools import cache

from hypothesis import given, settings
from hypothesis import strategies as st

from rootfold.action import coinvariants, make_action
from rootfold.folding import restrict
from rootfold.lattice import (
    det,
    identity_matrix,
    integer_kernel,
    mat_mul,
    mat_vec,
    transpose,
    unimodular_inverse,
)
from rootfold.rootdatum import (
    BasedRootDatum,
    RootDatum,
    classify,
    contragredient,
    from_cartan_type,
    verify_axioms,
)
from rootfold.selftest import FOLD_TABLE


def unimodular(data, n, label):
    """A random n x n integer matrix of determinant +-1: the identity
    under row additions, a row permutation and sign changes."""
    m = [list(row) for row in identity_matrix(n)]
    steps = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-2, 2))
    for i, j, c in data.draw(st.lists(steps, max_size=2 * n), label=f"{label} additions"):
        if i != j:
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    order = data.draw(st.permutations(range(n)), label=f"{label} row order")
    signs = data.draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n),
                      label=f"{label} signs")
    return tuple(tuple(s * x for x in m[i]) for i, s in zip(order, signs))


def moved(based, generator, a, p):
    """The based datum and generator carried by the change of basis a
    of the characters, under the pairing p: roots a r, coroots
    p^-1 a^-T c, so that (a r)^T p (p^-1 a^-T c) = r^T c, and the
    generator a g a^-1."""
    a_inv = unimodular_inverse(a)
    cochars = mat_mul(unimodular_inverse(p), transpose(a_inv))
    datum = based.datum
    moved_datum = RootDatum(datum.rank,
                            tuple(mat_vec(a, r) for r in datum.roots),
                            tuple(mat_vec(cochars, c) for c in datum.coroots),
                            p)
    return (BasedRootDatum(moved_datum, based.base),
            mat_mul(mat_mul(a, generator), a_inv))


def cocharacter_matrices(action):
    """The contragredient g' of every image g, under the datum's pairing."""
    p = action.datum.pairing_matrix
    return [contragredient(aut.on_characters, p, p) for aut in action.images]


def kernel_of_the_stacked_differences(action):
    """The saturated kernel of the g' - 1 stacked over every image g."""
    n = action.datum.rank
    stacked = [tuple(row[j] - int(i == j) for j in range(n))
               for cochars in cocharacter_matrices(action) for i, row in enumerate(cochars)]
    return integer_kernel(tuple(stacked), cols=n)


def saturated_relations(action):
    """The saturation of the relations (1 - g)e_k over every image g, as
    the kernel of their annihilator."""
    n = action.datum.rank
    relations = [tuple(int(i == k) - row[k] for i, row in enumerate(aut.on_characters))
                 for aut in action.images for k in range(n)]
    return integer_kernel(integer_kernel(tuple(relations), cols=n), cols=n)


@cache
def unmoved_fold(index):
    _, spec, builder, *_ = FOLD_TABLE[index]
    fold = restrict(make_action(from_cartan_type(spec), [(builder(), "g")]))
    return classify(fold.datum), len(fold.datum.roots)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data())
def test_the_fixed_basis_is_the_kernel_of_the_stacked_differences(data):
    index = data.draw(st.integers(0, len(FOLD_TABLE) - 1), label="fold")
    _, spec, builder, *_ = FOLD_TABLE[index]
    based = from_cartan_type(spec)
    n = based.datum.rank
    a, p = unimodular(data, n, "change of basis"), unimodular(data, n, "pairing")
    target, generator = moved(based, builder(), a, p)
    assert verify_axioms(target.datum) == []
    action = make_action(target, [(generator, "g")])
    cv = coinvariants(action)

    # the character side, which quotient_lattice's two checks prove
    for aut in action.images:
        assert mat_mul(cv.projection, aut.on_characters) == cv.projection
    if cv.free_rank:
        assert mat_mul(cv.projection, cv.section) == identity_matrix(cv.free_rank)
    assert integer_kernel(cv.projection, cols=n) == saturated_relations(action)

    assert cv.fixed_basis == kernel_of_the_stacked_differences(action)
    for cochars in cocharacter_matrices(action):
        for v in cv.fixed_basis:
            assert mat_vec(cochars, v) == v
    assert abs(det(cv.pairing)) == 1
    # <section e_p, fixed_q> through the pairing, as it was computed
    # before the proof
    assert cv.pairing == mat_mul(transpose(cv.section),
                                 mat_mul(p, transpose(cv.fixed_basis)))

    fold = restrict(action)
    assert (classify(fold.datum), len(fold.datum.roots)) == unmoved_fold(index)
