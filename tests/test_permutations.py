"""The root-permutation helpers of ``rootdatum`` against plain tuples,
on both sides of the 256-point threshold between bytes and tuples; a
fold past it (E8 x E8, 480 roots); and two properties of the whole
pipeline: folding a product folds each factor, and twisting by a
cocycle then transporting the base recovers the cocycle."""

from collections import Counter
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from rootfold.action import FiniteGroup, fixed_weyl, make_action
from rootfold.errors import EnumerationOverflow
from rootfold.folding import restrict, weyl_descent_iso
from rootfold.rootdatum import (
    WeylGroup,
    _invert_permutation,
    as_permutation,
    classify,
    compose,
    cycle_type,
    from_cartan_type,
    identity_permutation,
    permutation_getter,
    weyl_group,
)
from rootfold.selftest import FOLD_TABLE
from rootfold.twist import star_action, twist_datum, z1_enumerate

from test_h1_reference import H1_CASES

SIZES = (1, 2, 255, 256, 257)


def reference_compose(p, q):
    return tuple(p[i] for i in q)


def reference_inverse(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


@st.composite
def permutation_lists(draw, count):
    n = draw(st.sampled_from(SIZES), label="points")
    return n, [tuple(draw(st.permutations(range(n)))) for _ in range(count)]


@settings(max_examples=30, deadline=None)
@given(drawn=permutation_lists(2))
def test_compose_getter_and_inverse_match_tuples(drawn):
    n, (p, q) = drawn
    bp, bq = as_permutation(p), as_permutation(q)
    assert isinstance(bp, bytes) == (n <= 256)
    assert tuple(compose(bp, bq)) == reference_compose(p, q)
    assert tuple(permutation_getter(bq)(bp)) == reference_compose(p, q)
    assert tuple(_invert_permutation(bp)) == reference_inverse(p)
    ident = identity_permutation(n)
    assert tuple(ident) == tuple(range(n))
    assert compose(bp, ident) == compose(ident, bp) == bp
    assert compose(bp, _invert_permutation(bp)) == ident


def reference_cycle_type(p):
    """The length of the orbit of each point, once per orbit, sorted."""
    lengths = []
    for i in range(len(p)):
        orbit, j = [i], p[i]
        while j != i:
            orbit.append(j)
            j = p[j]
        if i == min(orbit):
            lengths.append(len(orbit))
    return tuple(sorted(lengths))


@settings(max_examples=30, deadline=None)
@given(drawn=permutation_lists(2))
def test_cycle_type_matches_tuples_and_is_kept_by_conjugation(drawn):
    n, (p, q) = drawn
    bp, bq = as_permutation(p), as_permutation(q)
    expected = reference_cycle_type(p)
    assert sum(expected) == n
    # the engine representation and plain tuples of every size alike
    assert cycle_type(bp) == cycle_type(p) == expected
    conjugate = compose(compose(bq, bp), _invert_permutation(bq))
    assert cycle_type(conjugate) == cycle_type(tuple(conjugate)) == expected


def test_cycle_type_of_small_permutations():
    assert cycle_type(as_permutation((1, 2, 0, 4, 3, 5))) == (1, 2, 3)
    assert cycle_type((1, 2, 0, 4, 3, 5)) == (1, 2, 3)
    assert cycle_type(identity_permutation(300)) == (1,) * 300
    assert cycle_type(b"") == cycle_type(()) == ()


@settings(max_examples=25, deadline=None)
@given(drawn=permutation_lists(1), data=st.data())
def test_reading_a_few_indices(drawn, data):
    n, (p,) = drawn
    indices = data.draw(st.lists(st.integers(0, n - 1), max_size=5), label="indices")
    read = as_permutation(indices, n)
    assert tuple(permutation_getter(read)(as_permutation(p))) == reference_compose(p, indices)
    assert tuple(compose(as_permutation(p), read)) == reference_compose(p, indices)


@settings(max_examples=25, deadline=None)
@given(drawn=permutation_lists(1))
def test_as_permutation_round_trips(drawn):
    _, (p,) = drawn
    converted = as_permutation(p)
    assert tuple(converted) == p
    assert as_permutation(converted) is converted
    assert as_permutation(list(p)) == converted
    assert as_permutation(converted, len(p)) is converted


@settings(max_examples=20, deadline=None)
@given(drawn=permutation_lists(4))
def test_sorted_order_is_the_tuple_order(drawn):
    _, perms = drawn
    assert [tuple(p) for p in sorted(map(as_permutation, perms))] == sorted(perms)


def test_a_weyl_group_built_from_tuples_holds_the_engine_representation():
    datum = from_cartan_type("B3:sc").datum
    w = weyl_group(datum)
    given_as_tuples = WeylGroup(datum, [tuple(p) for p in w.perms],
                                [tuple(g) for g in w.generators])
    assert given_as_tuples.perms == w.perms
    assert given_as_tuples.generators == w.generators


@pytest.fixture(scope="module")
def e8_swap():
    based = from_cartan_type("E8:sc x E8:sc")
    swap = tuple(tuple(int(j == (i + 8) % 16) for j in range(16)) for i in range(16))
    return make_action(based, [(swap, 1)], group=FiniteGroup.cyclic(2))


def test_the_e8_pair_swap_folds_to_e8_on_tuple_permutations(e8_swap):
    perm = e8_swap.root_perms[1]
    assert len(perm) == 480 and not isinstance(perm, bytes)
    assert tuple(_invert_permutation(perm)) == reference_inverse(tuple(perm))
    fold = restrict(e8_swap)
    assert classify(fold.datum) == [("E8", 1)]
    assert len(fold.datum.roots) == 240
    # W^Gamma is W(E8), far past the bound of the descent table
    with pytest.raises(EnumerationOverflow, match="^reflection group exceeds 3840 elements$"):
        weyl_descent_iso(fold)


# ---------------------------------------------------------------------------
# fold(A x B) = fold(A) x fold(B)

SMALL_FOLDS = [case for case in FOLD_TABLE if case[0] != "D5 flip"]


def block_diagonal(a, b):
    n, m = len(a), len(b)
    return tuple(tuple(a[i]) + (0,) * m for i in range(n)) + tuple(
        (0,) * n + tuple(b[i]) for i in range(m))


def folded(spec, matrix):
    action = make_action(from_cartan_type(spec), [(matrix, "g")])
    return restrict(action), len(fixed_weyl(action))


@settings(max_examples=12, deadline=None)
@given(pair=st.tuples(st.sampled_from(SMALL_FOLDS), st.sampled_from(SMALL_FOLDS)))
def test_folding_a_product_folds_each_factor(pair):
    (_, spec_a, build_a, *_), (_, spec_b, build_b, *_) = pair
    fold_a, order_a = folded(spec_a, build_a())
    fold_b, order_b = folded(spec_b, build_b())
    fold_ab, order_ab = folded(f"{spec_a} x {spec_b}",
                               block_diagonal(build_a(), build_b()))
    labels = Counter(dict(classify(fold_a.datum))) + Counter(dict(classify(fold_b.datum)))
    assert classify(fold_ab.datum) == sorted(labels.items())
    assert len(fold_ab.datum.roots) == len(fold_a.datum.roots) + len(fold_b.datum.roots)
    assert order_ab == prod((order_a, order_b))
    assert weyl_descent_iso(fold_ab).order == order_ab


# ---------------------------------------------------------------------------
# twisting then transporting recovers the cocycle


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_twist_then_transport_recovers_the_cocycle(data):
    _, spec, galois_matrix, gamma_matrix = data.draw(st.sampled_from(H1_CASES),
                                                     label="case")
    based = from_cartan_type(spec)
    datum = based.datum
    gamma = None if gamma_matrix is None else make_action(based, [(gamma_matrix, "s")])
    galois = make_action(datum, [(galois_matrix(datum.rank), 1)],
                         group=FiniteGroup.cyclic(2))
    module = (fixed_weyl(gamma) if gamma is not None
              else weyl_group(datum, base=based.base))
    star, _ = star_action(galois, based.base)
    cocycles = z1_enumerate(star.group, star, module)
    cocycle = data.draw(st.sampled_from(cocycles), label="cocycle")
    twisted = twist_datum(based, star, cocycle, gamma_action=gamma)
    _, back = star_action(twisted.galois, based.base)
    assert tuple(map(tuple, back.value_perms)) == tuple(map(tuple, cocycle.value_perms))
    assert back.sort_key() == cocycle.sort_key()
