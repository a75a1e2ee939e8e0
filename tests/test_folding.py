import pytest
from hypothesis import given, settings, strategies as st

from rootfold.action import FiniteGroup, fixed_weyl, make_action
from rootfold.errors import EnumerationOverflow, InvalidActionError
from rootfold.folding import (
    fiber,
    invariant_positive_systems,
    positive_system_transfer,
    reduced_subdatum,
    restrict,
    weyl_descent_iso,
)
from rootfold.lattice import det
from rootfold.rootdatum import (
    _automorphisms_from_permutations,
    as_permutation,
    classify,
    from_cartan_type,
    identity_permutation,
    is_reduced,
    positive_systems,
    verify_axioms,
    weyl_group,
)
from rootfold.selftest import FOLD_TABLE


def flip_matrix(n):
    return tuple(tuple(int(j == n - 1 - i) for j in range(n)) for i in range(n))


def fold_flip(spec, n):
    b = from_cartan_type(spec)
    return restrict(make_action(b, [(flip_matrix(n), "s")]))


@pytest.fixture(scope="module")
def a2_fold():
    return fold_flip("A2:sc", 2)


@pytest.fixture(scope="module")
def a3_fold():
    return fold_flip("A3:sc", 3)


def test_a2_fold_is_bc1(a2_fold):
    d = a2_fold.datum
    # hand computation: quotient (a,b) -> a+b sends the six roots onto
    # {-2,-1,1,2}; the short coroot picks up the doubling coefficient
    assert d.rank == 1
    assert d.roots == ((-2,), (-1,), (1,), (2,))
    pairs = dict(zip(d.roots, d.coroots))
    assert pairs[(1,)] == (2,)
    assert pairs[(2,)] == (1,)
    assert pairs[(-1,)] == (-2,)
    assert classify(d) == [("BC1", 1)]
    assert not is_reduced(d)
    assert verify_axioms(d) == []


def test_a2_fold_provenance(a2_fold):
    d = a2_fold.datum
    source = a2_fold.source.datum
    short = d.index_of((1,))
    rep, xi, ratio = a2_fold.provenance[short]
    # non-orthogonal orbit {a1, a2} merges to the highest root, ratio 2
    assert ratio == 2
    assert [source.roots[k] for k in xi] == [(1, 1)]
    long_ = d.index_of((2,))
    rep, xi, ratio = a2_fold.provenance[long_]
    assert ratio == 1
    assert [source.roots[k] for k in xi] == [(1, 1)]


def test_a2_fold_fibers(a2_fold):
    source = a2_fold.source.datum
    d = a2_fold.datum
    fib_short = fiber(a2_fold, (1,))
    assert {source.roots[i] for i in fib_short} == {(2, -1), (-1, 2)}
    fib_long = fiber(a2_fold, (2,))
    assert {source.roots[i] for i in fib_long} == {(1, 1)}


def test_a3_fold_shape(a3_fold):
    d = a3_fold.datum
    assert d.rank == 2
    assert len(d.roots) == 8
    assert classify(d) == [("B2", 1)]
    assert is_reduced(d)
    assert verify_axioms(d) == []
    assert abs(det(d.pairing_matrix)) == 1


def test_a3_fold_cartan_asymmetry(a3_fold):
    # <restricted a2, (restricted a1)^vee> = -2: the fixed simple root
    # restricts long
    d = a3_fold.datum
    cv = a3_fold.coinvariants
    source = a3_fold.source.datum
    r1 = d.index_of(cv.project((2, -1, 0)))
    r2 = d.index_of(cv.project((-1, 2, -1)))
    assert d.pair(d.roots[r2], d.coroots[r1]) == -2
    assert d.pair(d.roots[r1], d.coroots[r2]) == -1


def test_a3_fold_fibers(a3_fold):
    source = a3_fold.source.datum
    cv = a3_fold.coinvariants
    img = cv.project((2, -1, 0))
    fib = fiber(a3_fold, img)
    assert {source.roots[i] for i in fib} == {(2, -1, 0), (0, -1, 2)}
    img2 = cv.project((-1, 2, -1))
    assert {source.roots[i] for i in fiber(a3_fold, img2)} == {(-1, 2, -1)}


def test_trivial_fold_is_identity():
    b = from_cartan_type("A2:sc")
    act = make_action(b, [], group=FiniteGroup.trivial())
    fold = restrict(act)
    assert fold.datum.roots == b.datum.roots
    assert fold.datum.coroots == b.datum.coroots
    assert fold.coinvariants.projection == ((1, 0), (0, 1))


def test_a1xa1_swap_folds_to_a1():
    b = from_cartan_type("A1:sc x A1:sc")
    act = make_action(b, [(flip_matrix(2), "s")])
    fold = restrict(act)
    d = fold.datum
    assert d.roots == ((-2,), (2,))
    assert d.coroots == ((-1,), (1,))
    assert classify(d) == [("A1", 1)]


def test_restrict_requires_based_action():
    d = from_cartan_type("A2:sc").datum
    act = make_action(d, [(flip_matrix(2), "s")])
    with pytest.raises(InvalidActionError):
        restrict(act)


def test_restrict_rejects_noncommuting():
    b = from_cartan_type("A2:sc")
    act = make_action(b, [(flip_matrix(2), "s")])
    w = make_action(b.datum, [(((1, 1), (0, -1)), "r")])  # a simple reflection
    with pytest.raises(InvalidActionError):
        restrict(act, [w])


def test_commuting_action_descends():
    b = from_cartan_type("A2:sc")
    act = make_action(b, [(flip_matrix(2), "s")])
    neg = make_action(
        b.datum, [(tuple(tuple(-int(i == j) for j in range(2)) for i in range(2)), "m")])
    fold = restrict(act, [neg])
    assert len(fold.induced) == 1
    ind = fold.induced[0]
    nontriv = next(a for a in ind.images if not a.is_identity())
    assert nontriv.on_characters == ((-1,),)


def test_pairing_two_for_all_restricted_roots(a2_fold, a3_fold):
    for fold in (a2_fold, a3_fold):
        d = fold.datum
        for i in range(len(d.roots)):
            assert d.pair(d.roots[i], d.coroots[i]) == 2


# ---------------------------------------------------------------------------
# reduced subdatum


def test_reduced_subdatum_bc1(a2_fold):
    sub = reduced_subdatum(a2_fold, char_is_two=False)
    assert set(sub.roots) == {(1,), (-1,)}
    assert set(sub.coroots) == {(2,), (-2,)}
    sub2 = reduced_subdatum(a2_fold, char_is_two=True)
    assert set(sub2.roots) == {(2,), (-2,)}
    assert set(sub2.coroots) == {(1,), (-1,)}


def test_reduced_subdatum_noop_when_reduced(a3_fold):
    for flag in (False, True):
        sub = reduced_subdatum(a3_fold, char_is_two=flag)
        assert sub.roots == a3_fold.datum.roots


# ---------------------------------------------------------------------------
# Weyl descent


def test_weyl_descent_a2(a2_fold):
    iso = weyl_descent_iso(a2_fold)
    assert iso.order == 2
    d = a2_fold.datum
    source = a2_fold.source.datum
    # the nontrivial restricted element lifts to the reflection in (1,1)
    from rootfold.rootdatum import reflection
    lift, = (p for p, q in iso.down.items() if q != identity_permutation(len(q)))
    assert _automorphisms_from_permutations(source, [lift])[0].on_characters == \
        reflection(source, source.index_of((1, 1))).on_characters


def test_weyl_descent_a3(a3_fold):
    iso = weyl_descent_iso(a3_fold)
    assert iso.order == 8
    assert len(iso.fixed_subgroup) == 8
    assert len(weyl_group(a3_fold.datum)) == 8


def test_weyl_descent_trivial():
    b = from_cartan_type("A2:sc")
    act = make_action(b, [], group=FiniteGroup.trivial())
    fold = restrict(act)
    iso = weyl_descent_iso(fold)
    assert iso.order == len(iso.down) == 6
    fixed = list(iso.down)
    lifts = _automorphisms_from_permutations(fold.source.datum, fixed)
    images = _automorphisms_from_permutations(fold.datum, [iso.down[p] for p in fixed])
    for w, image in zip(lifts, images):
        assert image.on_characters == w.on_characters


# ---------------------------------------------------------------------------
# positive system transfer


def test_positive_transfer_a2(a2_fold):
    inv = invariant_positive_systems(a2_fold)
    down = positive_systems(a2_fold.datum)
    assert len(inv) == 2
    assert len(down) == 2
    for s in inv:
        image = positive_system_transfer(a2_fold, s, "down")
        assert image in down
        assert positive_system_transfer(a2_fold, image, "up") == s
    for s in down:
        pulled = positive_system_transfer(a2_fold, s, "up")
        assert positive_system_transfer(a2_fold, pulled, "down") == s


def test_positive_transfer_a3_counts(a3_fold):
    inv = invariant_positive_systems(a3_fold)
    down = positive_systems(a3_fold.datum)
    assert len(inv) == len(down) == 8
    assert len(fixed_weyl(a3_fold.source)) == 8


def test_positive_transfer_rejects_noninvariant(a3_fold):
    source = a3_fold.source.datum
    systems = positive_systems(source)
    bad = next(s for s in systems
               if not all(frozenset(p[i] for i in s) == s
                          for p in a3_fold.source.root_perms))
    with pytest.raises(ValueError, match="not invariant under the action"):
        positive_system_transfer(a3_fold, bad, "down")


def test_positive_transfer_trivial():
    b = from_cartan_type("A1:sc")
    act = make_action(b, [], group=FiniteGroup.trivial())
    fold = restrict(act)
    for s in positive_systems(b.datum):
        assert positive_system_transfer(fold, s, "down") == s


def node_perm_matrix(mapping, n):
    return tuple(tuple(int(mapping[j] == i) for j in range(n)) for i in range(n))


def test_d4_single_flip_folds_to_b3():
    # swapping just the two branch nodes of the rank-4 star diagram
    b = from_cartan_type("D4:sc")
    act = make_action(b, [(node_perm_matrix({0: 0, 1: 1, 2: 3, 3: 2}, 4), "s")])
    fold = restrict(act)
    assert classify(fold.datum) == [("B3", 1)]
    assert len(fold.datum.roots) == 18
    assert is_reduced(fold.datum)
    iso = weyl_descent_iso(fold)
    assert iso.order == 48


def test_a6_flip_folds_to_bc3():
    # the next even member of the A family: also non-reduced
    b = from_cartan_type("A6:sc")
    act = make_action(b, [(flip_matrix(6), "s")])
    fold = restrict(act)
    assert classify(fold.datum) == [("BC3", 1)]
    assert not is_reduced(fold.datum)
    assert len(fold.datum.roots) == 24
    iso = weyl_descent_iso(fold)
    assert iso.order == 48


def test_fold_of_skewed_source_with_explicit_pairing():
    # writing the source in independently skewed bases forces a
    # non-identity source pairing; the fold must be unaffected up to
    # isomorphism
    from rootfold.lattice import mat_mul, mat_vec, transpose, unimodular_inverse
    from rootfold.rootdatum import BasedRootDatum, RootDatum

    u = ((1, 1, 0), (0, 1, 0), (0, 1, 1))
    v = ((1, 0, 0), (1, 1, 0), (0, 0, 1))
    b = from_cartan_type("A3:sc")
    d = b.datum
    pairing = mat_mul(transpose(unimodular_inverse(u)), unimodular_inverse(v))
    skew = RootDatum(
        3,
        tuple(mat_vec(u, r) for r in d.roots),
        tuple(mat_vec(v, c) for c in d.coroots),
        pairing,
    )
    assert not skew.has_standard_pairing
    assert verify_axioms(skew) == []
    base = tuple(sorted(skew.index_of(mat_vec(u, d.roots[i])) for i in b.base))
    skew_based = BasedRootDatum(skew, base)
    gen = mat_mul(u, mat_mul(flip_matrix(3), unimodular_inverse(u)))
    fold = restrict(make_action(skew_based, [(gen, "s")]))
    assert classify(fold.datum) == [("B2", 1)]
    assert len(fold.datum.roots) == 8
    iso = weyl_descent_iso(fold)
    assert iso.order == 8


def test_iterated_fold():
    # fold D4 by one branch swap (rank 3 downstairs), then fold the
    # result by its induced trivial action: restricting along a trivial
    # group is the identity even on a folded datum
    from rootfold.rootdatum import BasedRootDatum

    b = from_cartan_type("D4:sc")
    act = make_action(b, [(node_perm_matrix({0: 0, 1: 1, 2: 3, 3: 2}, 4), "s")])
    fold = restrict(act)
    again = restrict(make_action(fold.based, [], group=FiniteGroup.trivial()))
    assert classify(again.datum) == classify(fold.datum)
    assert len(again.datum.roots) == len(fold.datum.roots)


# ---------------------------------------------------------------------------
# folds whose source Weyl group is never listed


def closed_form_weyl_order(label):
    """|W| of an irreducible type from its label, by the classical
    formulas; shares no code with the engine."""
    from math import factorial

    letter, n = label.rstrip("0123456789"), int(label.lstrip("ABCDEFG"))
    if letter == "A":
        return factorial(n + 1)
    if letter in ("B", "C", "BC"):
        return 2 ** n * factorial(n)
    if letter == "D":
        return 2 ** (n - 1) * factorial(n)
    return {"G2": 12, "F4": 1152}[label]


# name: (type, generator matrices, expected label); A7 and A8 have
# |W| = 40320 and 362880, D6 has 23040: only the fixed subgroup is listed
UNLISTED_FOLDS = {
    "A7 flip": ("A7:sc", [flip_matrix(7)], "C4"),
    "A8 flip": ("A8:sc", [flip_matrix(8)], "BC4"),
    "D6 flip": ("D6:sc", [node_perm_matrix({0: 0, 1: 1, 2: 2, 3: 3, 4: 5, 5: 4}, 6)],
                "B5"),
    "D4 S3": ("D4:sc", [node_perm_matrix({0: 2, 1: 1, 2: 3, 3: 0}, 4),
                        node_perm_matrix({0: 0, 1: 1, 2: 3, 3: 2}, 4)], "G2"),
}


@pytest.mark.parametrize("name", sorted(UNLISTED_FOLDS))
def test_fold_checked_against_closed_form_fixed_order(name):
    spec, matrices, label = UNLISTED_FOLDS[name]
    act = make_action(from_cartan_type(spec), [(m, f"g{i}") for i, m in enumerate(matrices)])
    fold = restrict(act)
    assert classify(fold.datum) == [(label, 1)]
    iso = weyl_descent_iso(fold)
    order = closed_form_weyl_order(label)
    assert iso.order == len(iso.fixed_subgroup) == order
    assert len(fixed_weyl(act)) == order
    if name == "D4 S3":
        assert len(act.group) == 6


def orbit_cases():
    """Every fold of the library's table and of UNLISTED_FOLDS, a trivial
    action and an unbased one."""
    from rootfold.selftest import FOLD_TABLE

    cases = {name: make_action(from_cartan_type(spec), [(builder(), "g")])
             for name, spec, builder, *_ in FOLD_TABLE}
    for name, (spec, matrices, _) in UNLISTED_FOLDS.items():
        cases[name] = make_action(from_cartan_type(spec),
                                  [(m, f"g{i}") for i, m in enumerate(matrices)])
    cases["trivial"] = make_action(from_cartan_type("B3:sc"), [],
                                   group=FiniteGroup.trivial())
    cases["unbased A3 flip"] = make_action(from_cartan_type("A3:sc").datum,
                                           [(flip_matrix(3), "s")])
    return cases


@pytest.mark.parametrize("name", sorted(orbit_cases()))
def test_orbits_match_the_closure_under_every_image(name):
    from rootfold.rootdatum import closure

    act = orbit_cases()[name]
    steps = [p.__getitem__ for p in act.root_perms]
    assert act.orbits == tuple(tuple(sorted(closure([i], steps)))
                               for i in range(len(act.datum.roots)))


def test_restrict_refuses_an_orbit_split_in_two(monkeypatch):
    act = make_action(from_cartan_type("A3:sc"), [(flip_matrix(3), "s")])
    orb = next(o for o in act.orbits if len(o) == 2)
    split = tuple(((i,) if i in orb else o) for i, o in enumerate(act.orbits))
    monkeypatch.setitem(vars(act), "orbits", split)
    with pytest.raises(AssertionError, match=r"^fiber over .* is not a single orbit"):
        restrict(act)


def test_check_fold_closes_the_fixed_subgroup_once(monkeypatch):
    # counted in every module that closes: the restricted Weyl group is
    # not closed again, as the images of the fixed subgroup list it
    import rootfold.action as action_module
    import rootfold.folding as folding_module
    import rootfold.rootdatum as rootdatum_module
    from rootfold.rootdatum import closure
    from rootfold.selftest import FOLD_TABLE, check_fold

    closures = []

    def counted(seeds, maps, bound=None, what="closure"):
        closures.append(what)
        return closure(seeds, maps, bound, what)

    for module in (action_module, folding_module, rootdatum_module):
        monkeypatch.setattr(module, "closure", counted)
    for case in FOLD_TABLE:
        del closures[:]
        assert check_fold(*case)[0] == []
        assert closures.count("reflection group") == 1, case[0]


# fixed subgroups past the descent table cap: W(B6) has 46080 elements,
# W(B7) 645120
@pytest.mark.parametrize("spec,matrix", [
    ("D7:sc", node_perm_matrix({0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 5: 6, 6: 5}, 7)),
    ("D8:sc", node_perm_matrix({0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 5: 5, 6: 7, 7: 6}, 8)),
])
def test_fold_past_table_bound_overflows(spec, matrix):
    from rootfold.folding import TABLE_BOUND

    fold = restrict(make_action(from_cartan_type(spec), [(matrix, "s")]))
    with pytest.raises(EnumerationOverflow, match=f"exceeds {TABLE_BOUND} elements$"):
        weyl_descent_iso(fold)


# ---------------------------------------------------------------------------
# the descent map on permutations and the column table check


@pytest.mark.parametrize("table_row", FOLD_TABLE, ids=lambda row: row[0])
def test_descent_matrices_match_induced_maps(table_row):
    # the matrix of down[p] on the restricted datum is the map p induces
    # on the quotient, and down is one to one onto the restricted group
    from rootfold.folding import induced_fixed_map

    _, spec, builder = table_row[:3]
    fold = restrict(make_action(from_cartan_type(spec), [(builder(), "g")]))
    iso = weyl_descent_iso(fold)
    fixed = iso.fixed_subgroup.perms
    sources = _automorphisms_from_permutations(fold.source.datum, fixed)
    targets = _automorphisms_from_permutations(fold.datum, [iso.down[p] for p in fixed])
    for w, target in zip(sources, targets):
        assert target.on_characters == induced_fixed_map(fold, w)
    assert set(iso.down) == set(fixed)
    assert sorted(iso.down.values()) == sorted(iso.restricted_weyl.perms)
    assert len(set(iso.down.values())) == iso.order


def naive_multiplicative(perms, images):
    """phi(p q) = phi(p) phi(q) on every pair, on plain tuples."""
    perms = [tuple(p) for p in perms]
    images = [tuple(q) for q in images]
    index = {p: i for i, p in enumerate(perms)}
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            pq = tuple(p[k] for k in q)
            lhs = images[index[pq]]
            rhs = tuple(images[i][k] for k in images[j])
            if lhs != rhs:
                return False
    return True


@pytest.mark.parametrize("spec,n", [("A2:sc", 2), ("A3:sc", 3), ("A4:sc", 4),
                                    ("A5:sc", 5)])
def test_column_check_agrees_with_naive_double_loop(spec, n):
    import itertools

    from rootfold.folding import _check_multiplicative

    iso = weyl_descent_iso(fold_flip(spec, n))
    group = iso.fixed_subgroup
    images = [iso.down[p] for p in group.perms]
    assert naive_multiplicative(group.perms, images)
    _check_multiplicative(group.perms, group.generators, images)
    # every swap of two non-identity images: both verdicts agree, and a
    # refusal names the failed property
    n = len(images)
    pairs = list(itertools.combinations(range(1, n), 2))[:60]
    for i, j in pairs:
        swapped = list(images)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        expected = naive_multiplicative(group.perms, swapped)
        try:
            _check_multiplicative(group.perms, group.generators, swapped)
            got = True
        except AssertionError as err:
            assert str(err) == "descent is not multiplicative"
            got = False
        assert got == expected, (i, j)


def test_column_check_refuses_swapped_images():
    from rootfold.folding import _check_multiplicative

    iso = weyl_descent_iso(fold_flip("A3:sc", 3))
    group = iso.fixed_subgroup
    images = [iso.down[p] for p in group.perms]
    images[1], images[2] = images[2], images[1]
    with pytest.raises(AssertionError, match="^descent is not multiplicative$"):
        _check_multiplicative(group.perms, group.generators, images)


def breadth_first_tree_images(group, generator_images, identity):
    """The map that sends each element x . h, at its first appearance in
    the breadth-first order, to image(x) . image(h): multiplicative on
    the edges of the breadth-first tree, whatever the generator images.
    Everything is a plain tuple."""
    perms = [tuple(p) for p in group.perms]
    index = {p: i for i, p in enumerate(perms)}
    images = [identity] + [None] * (len(perms) - 1)
    for x, p in enumerate(perms):
        for h, g in zip(map(tuple, group.generators), generator_images):
            y = index[tuple(p[k] for k in h)]
            if images[y] is None:
                images[y] = tuple(images[x][k] for k in g)
    return images


def test_column_check_sees_products_off_the_breadth_first_tree():
    # (Z/2)^3 = W(A1 x A1 x A1) onto Z/8, generators to c, c^2, c^4 for an
    # 8-cycle c: a bijection, multiplicative on every edge of the
    # breadth-first tree, but s^2 = 1 goes to c^2 != 1
    from rootfold.folding import _check_multiplicative

    group = weyl_group(from_cartan_type("A1:sc x A1:sc x A1:sc").datum)
    c = (1, 2, 3, 4, 5, 6, 7, 0)
    powers = [tuple(range(8))]
    for _ in range(7):
        powers.append(tuple(powers[-1][k] for k in c))
    images = breadth_first_tree_images(group, [powers[1], powers[2], powers[4]],
                                       powers[0])
    assert sorted(images) == sorted(powers)
    assert not naive_multiplicative(group.perms, images)
    images = [as_permutation(q) for q in images]
    with pytest.raises(AssertionError, match="^descent is not multiplicative$"):
        _check_multiplicative(group.perms, group.generators, images)
    # the same group onto itself through the identity map passes
    _check_multiplicative(group.perms, group.generators, list(group.perms))


# ---------------------------------------------------------------------------
# invariant positive systems as one W^Gamma-orbit, and the transfers


def reference_invariant_positive_systems(fold):
    """Every positive system of the source (the W-translates of the
    canonical one) tested for invariance: the filter that the W^Gamma
    orbit replaced, kept as the reference."""
    from rootfold.folding import is_invariant_system

    return tuple(s for s in positive_systems(fold.source.datum)
                 if is_invariant_system(fold, s))


def selftest_fold(name):
    from rootfold.selftest import FOLD_TABLE, SLOW_FOLD

    if name == "A6 flip":
        return fold_flip("A6:sc", 6)
    if name == "D6 flip":
        spec, (matrix,), _ = UNLISTED_FOLDS[name]
        return restrict(make_action(from_cartan_type(spec), [(matrix, "g")]))
    _, spec, builder, *_ = next(case for case in FOLD_TABLE + [SLOW_FOLD] if case[0] == name)
    return restrict(make_action(from_cartan_type(spec), [(builder(), "g")]))


SELFTEST_FOLDS = ["A2 flip", "A3 flip", "A4 flip", "A5 flip", "D4 triality", "D5 flip",
                  "A1xA1 swap", "A6 flip"]


@pytest.mark.parametrize("name", SELFTEST_FOLDS)
def test_invariant_positive_systems_match_the_filter_over_w(name):
    fold = selftest_fold(name)
    systems = invariant_positive_systems(fold)
    assert systems == reference_invariant_positive_systems(fold)
    assert len(systems) == len(fixed_weyl(fold.source))


@pytest.mark.parametrize("name", SELFTEST_FOLDS)
def test_fiber_index_is_the_projection(name):
    fold = selftest_fold(name)
    cv, source = fold.coinvariants, fold.source.datum
    assert fold.fiber_index == tuple(fold.datum.index_of(cv.project(r))
                                     for r in source.roots)


def test_invariant_positive_systems_overflow_on_the_fixed_subgroup(monkeypatch):
    import rootfold.action as action_module

    fold = selftest_fold("A5 flip")   # |W^Gamma| = 48, |W| = 720
    monkeypatch.setattr(action_module, "WEYL_BOUND", 48)
    assert len(invariant_positive_systems(fold)) == 48
    monkeypatch.setattr(action_module, "WEYL_BOUND", 47)
    with pytest.raises(EnumerationOverflow, match="^reflection group exceeds 47 elements$"):
        invariant_positive_systems(fold)


def test_positive_transfer_rejects_non_systems(a3_fold):
    source, restricted = a3_fold.source.datum, a3_fold.datum
    inv = invariant_positive_systems(a3_fold)[0]
    # an invariant set that is not a positive system: a fiber swapped
    # for the fiber of the negated restricted root
    fib = a3_fold.fibers[a3_fold.fiber_index[min(inv)]]
    swapped = (inv - set(fib)) | {source.negation[i] for i in fib}
    for bad in (swapped, inv - {min(inv)}, frozenset(range(len(source.roots)))):
        with pytest.raises(ValueError, match="not a positive system of the source"):
            positive_system_transfer(a3_fold, bad, "down")
    down = positive_systems(restricted)[0]
    for bad in ((down - {min(down)}) | {restricted.negation[min(down)]}, down - {min(down)}):
        with pytest.raises(ValueError, match="not a positive system of the restricted"):
            positive_system_transfer(a3_fold, bad, "up")
    with pytest.raises(ValueError, match="unknown direction"):
        positive_system_transfer(a3_fold, inv, "sideways")


# ---------------------------------------------------------------------------
# the descent from one closure: generator maps, kept images, lift checks


def descent_images(name):
    """The fixed subgroup of a table fold and the images of its
    elements, in closure order."""
    iso = weyl_descent_iso(selftest_fold(name))
    group = iso.fixed_subgroup
    return group, [iso.down[p] for p in group.perms]


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["A3 flip", "A4 flip", "A5 flip", "D4 triality"]),
       data=st.data())
def test_generator_map_check_agrees_with_naive_double_loop_on_shuffles(name, data):
    # a shuffle of the non-identity images is almost never multiplicative;
    # a conjugation of every image is, and shuffles them too
    from rootfold.folding import _check_multiplicative
    from rootfold.rootdatum import _invert_permutation, compose

    group, images = descent_images(name)
    order = data.draw(st.permutations(range(1, len(images))))
    shuffled = [images[0]] + [images[i] for i in order]
    if data.draw(st.booleans()):
        g = shuffled[data.draw(st.integers(0, len(images) - 1))]
        shuffled = [compose(g, compose(q, _invert_permutation(g))) for q in images]
    expected = naive_multiplicative(group.perms, shuffled)
    try:
        _check_multiplicative(group.perms, group.generators, shuffled)
        got = True
    except AssertionError as err:
        assert str(err) == "descent is not multiplicative"
        got = False
    assert got == expected


def test_check_refuses_images_outside_the_group_or_repeated():
    from rootfold.folding import _check_multiplicative

    group, images = descent_images("A5 flip")
    n = len(images[0])
    outside = as_permutation([1, 0] + list(range(2, n)))
    assert outside not in images
    for k in (1, 5, len(images) - 1):
        tampered = list(images)
        tampered[k] = outside
        with pytest.raises(AssertionError, match="^descent is not multiplicative$"):
            _check_multiplicative(group.perms, group.generators, tampered)
    repeated = list(images)
    repeated[2] = repeated[1]
    with pytest.raises(AssertionError, match="^fixed subgroup does not act faithfully$"):
        _check_multiplicative(group.perms, group.generators, repeated)
    # with no generator, only the identity's image is left to check
    with pytest.raises(AssertionError, match="^descent is not multiplicative$"):
        _check_multiplicative(group.perms[:1], [], [outside])


def test_check_takes_the_identity_and_repeated_generators():
    from rootfold.folding import _check_multiplicative

    group, images = descent_images("D4 triality")
    ident = group.perms[0]
    gens = [ident, *group.generators, group.generators[0]]
    right = _check_multiplicative(group.perms, gens, images)
    assert right[0] == list(range(len(images)))
    assert right[-1] == right[1]
    swapped = list(images)
    swapped[1], swapped[2] = swapped[2], swapped[1]
    assert not naive_multiplicative(group.perms, swapped)
    with pytest.raises(AssertionError, match="^descent is not multiplicative$"):
        _check_multiplicative(group.perms, gens, swapped)


DESCENT_FOLDS = SELFTEST_FOLDS + ["E6 flip", "D6 flip"]


@pytest.mark.parametrize("name", DESCENT_FOLDS)
def test_restricted_weyl_group_is_the_closure_it_replaces(name):
    from rootfold.rootdatum import RootDatum, reflection_permutation

    fold = selftest_fold(name)
    d = fold.datum
    iso = weyl_descent_iso(fold)
    seeded = weyl_group(d, base=fold.base)
    assert seeded.perms is iso.restricted_weyl.perms
    fresh = weyl_group(RootDatum(d.rank, d.roots, d.coroots, d.pairing), base=fold.base)
    assert seeded.perms == fresh.perms
    assert all(type(p) is type(q) for p, q in zip(seeded.perms, fresh.perms))
    assert iso.restricted_weyl.generators == tuple(
        reflection_permutation(d, b) for b in fold.base)


def test_lift_checks_build_no_reflection_of_the_source(monkeypatch):
    # both sides of s_b . proj = proj . lift are rank-one updates of
    # proj: no reflection matrix is built, of the source or of the
    # restricted datum
    import rootfold.folding as folding_module
    import rootfold.rootdatum as rootdatum_module

    def never(*args):
        raise AssertionError("a reflection matrix was built")

    assert not hasattr(folding_module, "reflection")
    monkeypatch.setattr(rootdatum_module, "reflection", never)
    for name in DESCENT_FOLDS:
        weyl_descent_iso(selftest_fold(name))


def test_lift_checks_refuse_a_tampered_lift_or_projection(monkeypatch):
    # the A5 flip: the middle base root is its own orbit, and its two
    # neighbours form an orthogonal orbit
    from rootfold.lattice import replace

    from rootfold.rootdatum import compose, identity_permutation, reflection_permutation

    fold = fold_flip("A5:sc", 5)
    weyl_descent_iso(fold)   # the action keeps W^Gamma, closed from the real lifts
    act, source = fold.source, fold.source.datum
    lifts = dict(act.base_lifts)
    (one, (xi1, lift1)), = [(o, v) for o, v in lifts.items() if len(v[0]) == 1]
    k = xi1[0]
    two, j = next((o, j) for o, (xi, _) in lifts.items() for j in xi
                  if source.pair(source.roots[k], source.coroots[j]))
    # two non-orthogonal roots: their reflections do not commute
    pair = (j, k)
    product = compose(reflection_permutation(source, j), reflection_permutation(source, k))
    monkeypatch.setitem(vars(act), "base_lifts", {**lifts, two: (pair, product)})
    with pytest.raises(AssertionError, match="^orthogonal orbit reflections do not commute$"):
        weyl_descent_iso(fold)
    # a root and its negative: one reflection twice, which commutes with
    # itself, but the two roots are not orthogonal
    ident = identity_permutation(len(source.roots))
    monkeypatch.setitem(vars(act), "base_lifts",
                        {**lifts, two: ((j, source.negation[j]), ident)})
    with pytest.raises(AssertionError, match="^orthogonal orbit reflections do not commute$"):
        weyl_descent_iso(fold)
    # the lift times the flip: it descends to the same reflection, but it
    # is not the product of the reflections over its orthogonal orbit
    xi, lift = lifts[two]
    flipped = compose(lift, act.generator_perms[0])
    monkeypatch.setitem(vars(act), "base_lifts", {**lifts, two: (xi, flipped)})
    with pytest.raises(AssertionError, match="^orthogonal orbit reflections do not commute$"):
        weyl_descent_iso(fold)
    # the lift of one orbit given for another
    monkeypatch.setitem(vars(act), "base_lifts", {**lifts, two: (xi1, lift1)})
    with pytest.raises(AssertionError, match="^descent does not send the lift to the reflection$"):
        weyl_descent_iso(fold)
    monkeypatch.setitem(vars(act), "base_lifts", lifts)
    cv = fold.coinvariants
    skewed = (tuple(x + (i == 0) for i, x in enumerate(cv.projection[0])),) + cv.projection[1:]
    bad = replace(fold, coinvariants=replace(cv, projection=skewed))
    with pytest.raises(AssertionError, match="^embedding relation fails on the lattice$"):
        weyl_descent_iso(bad)
    weyl_descent_iso(fold)


def test_an_orthogonal_cycle_of_forty_lines_folds():
    # A1^40 under a 40-cycle: one orthogonal orbit of 40 roots, one lift
    # of 40 commuting reflections, W^Gamma of order 2
    from rootfold.selftest import node_permutation_matrix

    n = 40
    based = from_cartan_type(" x ".join(["A1:sc"] * n))
    cycle = node_permutation_matrix({i: (i + 1) % n for i in range(n)}, n)
    fold = restrict(make_action(based, [(cycle, "c")]))
    assert classify(fold.datum) == [("A1", 1)]
    iso = weyl_descent_iso(fold)
    assert iso.order == len(iso.fixed_subgroup) == 2
    (xi, _), = fold.source.base_lifts.values()
    assert len(xi) == n
