"""Every reader that checks a matrix walks it from a base
(``rootdatum._walk_automorphism``): generator checks on based and
unbased targets (``action._require_automorphism``), ``base_transport``,
the induced-value check of ``StarCocycle.build`` (``_is_induced``) and
the diagram maps.  Each is compared here with what it replaced: the
direct check of every root and coroot, ``root_permutation``, and for
the diagram maps ``reference_diagram_maps``, which images every root by
the solved matrix and every coroot by its contragredient.

The automorphisms drawn are w.d and -w.d, for w a word in the simple
reflections and d a diagram map, on sc, ad and BC types, on products,
and on skewed-pairing realizations of them (``skew_realization``).  -1
is an automorphism of every root datum, as c_{-a} = -c_a."""

from functools import cache
from operator import itemgetter

from hypothesis import given, settings, strategies as st

from rootfold.action import _require_automorphism
from rootfold.errors import InvalidActionError
from rootfold.lattice import (
    adjugate_and_det,
    det,
    exact_quotient,
    identity_matrix,
    mat_mul,
    mat_vec,
    transpose,
    unimodular_inverse,
)
from rootfold.rootdatum import (
    BasedRootDatum,
    DatumAutomorphism,
    RootDatum,
    _automorphisms_from_permutations,
    as_permutation,
    cartan_matchings,
    contragredient,
    from_cartan_type,
    reflection,
    root_permutation,
)
from rootfold.twist import _find_diagram_maps, _is_induced, _transport, base_transport

from test_base_walk import outcome
from test_coinvariant_pairings import unimodular
from test_rootdatum import skew_realization

SPECS = ["A1:sc", "A3:ad", "B3:sc", "C3:ad", "D4:sc", "D4:ad", "G2:sc", "F4:sc",
         "BC1", "BC2", "BC3", "A1:sc x B2:ad x BC2", "A1:sc x A1:sc x A1:sc",
         "BC1 x A2:sc"]
REFUSAL = "g: matrix does not permute the roots compatibly with coroots"


def pairing_of(datum):
    return None if datum.has_standard_pairing else datum.pairing_matrix


def reference_diagram_maps(based1, based2):
    """(matching, isomorphism, root map) per diagram map, as they were
    listed before the walk: per Cartan matching, the matrix solved on
    the base, the index of the image of every root, and the
    contragredient checked on every coroot; in the order of the
    matchings."""
    d1, d2 = based1.datum, based2.datum
    adj, d0 = adjugate_and_det(transpose(based1.simple_roots))
    found = []
    for perm in cartan_matchings(based1.cartan_matrix(), based2.cartan_matrix()):
        target = transpose(tuple(based2.simple_roots[j] for j in perm))
        m = exact_quotient(mat_mul(target, adj), d0)
        if m is None or abs(det(m)) != 1:
            continue
        images = [d2.root_index.get(mat_vec(m, r)) for r in d1.roots]
        if None in images:
            continue
        mc = contragredient(m, pairing_of(d1), pairing_of(d2))
        if all(mat_vec(mc, c) == d2.coroots[j] for c, j in zip(d1.coroots, images)):
            found.append((perm, DatumAutomorphism(m, mc), as_permutation(images)))
    return sorted(found, key=itemgetter(0))


def moved(datum, u, v):
    """``datum`` with its characters changed by u and its cocharacters
    by v: roots u r, coroots v c and the pairing u^-T P v^-1, so that
    every root pairs with every coroot as before."""
    pairing = mat_mul(mat_mul(transpose(unimodular_inverse(u)), datum.pairing_matrix),
                      unimodular_inverse(v))
    return RootDatum(datum.rank, tuple(mat_vec(u, r) for r in datum.roots),
                     tuple(mat_vec(v, c) for c in datum.coroots), pairing)


@cache
def plain(spec):
    return from_cartan_type(spec)


def draw_case(data):
    """A based datum, possibly skewed, and a drawn automorphism of it."""
    based = plain(data.draw(st.sampled_from(SPECS), label="type"))
    n = based.datum.rank
    if data.draw(st.booleans(), label="skewed"):
        u, v = unimodular(data, n, "characters"), unimodular(data, n, "cocharacters")
        based = BasedRootDatum(skew_realization(based.datum, u, v), based.base)
    datum = based.datum
    aut = DatumAutomorphism.identity(n)
    for j in data.draw(st.lists(st.sampled_from(based.base), max_size=2 * n), label="word"):
        aut = aut * reflection(datum, j)
    aut = aut * data.draw(st.sampled_from(reference_diagram_maps(based, based)),
                          label="diagram map")[1]
    if data.draw(st.booleans(), label="negated"):
        minus = tuple(tuple(-x for x in row) for row in identity_matrix(n))
        aut = aut * DatumAutomorphism(minus, minus)
    return based, aut


@settings(max_examples=80, derandomize=True, deadline=None)
@given(data=st.data())
def test_walked_permutations_are_the_direct_ones(data):
    based, aut = draw_case(data)
    datum = based.datum
    direct = root_permutation(datum, aut)
    assert direct is not None
    matrix = aut.on_characters
    # a copy holds no walk, and is walked from its canonical base
    fresh = RootDatum(datum.rank, datum.roots, datum.coroots, datum.pairing)
    for target in (based, fresh):
        assert _require_automorphism(target, matrix, "g")[0] == direct
        assert _is_induced(target, direct)
    based.positive_system   # now the datum holds a walk from the base
    assert _require_automorphism(datum, matrix, "g")[0] == direct
    # base_transport as it was: the transport of the direct permutation
    assert base_transport(based, aut) == _automorphisms_from_permutations(
        datum, [_transport(based, direct)])[0]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data())
def test_diagram_maps_are_the_listing_they_replace(data):
    # onto the image of the base under a drawn automorphism, in a
    # realization changed on both lattices
    based, aut = draw_case(data)
    datum = based.datum
    u, v = unimodular(data, datum.rank, "u"), unimodular(data, datum.rank, "v")
    image = root_permutation(datum, aut)
    target = BasedRootDatum(moved(datum, u, v), tuple(image[i] for i in based.base))
    reference = reference_diagram_maps(based, target)
    assert reference
    assert sorted(_find_diagram_maps(based, target)) == [
        (perm, images) for perm, _, images in reference]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data())
def test_a_perturbed_matrix_is_refused_on_both_paths(data):
    # the automorphism times a transvection I + c e_ij: unimodular and of
    # infinite order, so never an automorphism of a semisimple datum
    based, aut = draw_case(data)
    datum = based.datum
    n = datum.rank
    if n == 1:
        return
    i, j = data.draw(st.permutations(range(n)), label="entry")[:2]
    c = data.draw(st.sampled_from((-2, -1, 1, 2)), label="c")
    transvection = tuple(tuple(int(r == s) + c * int((r, s) == (i, j)) for s in range(n))
                         for r in range(n))
    matrix = mat_mul(aut.on_characters, transvection)
    assert root_permutation(datum, DatumAutomorphism.from_matrix(
        matrix, pairing_of(datum))) is None
    fresh = RootDatum(datum.rank, datum.roots, datum.coroots, datum.pairing)
    for target in (based, fresh, datum):
        assert outcome(lambda: _require_automorphism(target, matrix, "g")) == (
            InvalidActionError, REFUSAL)
