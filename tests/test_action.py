import pytest

from rootfold.action import (
    DatumAction,
    FiniteGroup,
    actions_commute,
    coinvariants,
    fixed_weyl,
    make_action,
    orbit,
    orthogonal_orbit,
)
from rootfold.errors import InvalidActionError
from rootfold.lattice import identity_matrix, mat_mul
from rootfold.rootdatum import from_cartan_type, weyl_group

from test_rootdatum import weyl_elements


def flip_matrix(n):
    """Coordinate reversal, the diagram flip on sc weight coordinates."""
    return tuple(tuple(int(j == n - 1 - i) for j in range(n)) for i in range(n))


def a2_flip():
    b = from_cartan_type("A2:sc")
    return make_action(b, [(flip_matrix(2), "s")])


def a3_flip():
    b = from_cartan_type("A3:sc")
    return make_action(b, [(flip_matrix(3), "s")])


def trivial_action(based):
    return make_action(based, [], group=FiniteGroup.trivial())


# ---------------------------------------------------------------------------
# FiniteGroup


def test_finite_group_cyclic():
    g = FiniteGroup.cyclic(4)
    assert len(g) == 4
    assert g.identity == 0
    assert g.mul(1, 3) == 0
    assert g.generating_set == (1,)


def test_finite_group_rejects_bad_table():
    with pytest.raises(ValueError):
        FiniteGroup.from_table(("e", "a"), ((0, 1), (1, 1)))
    with pytest.raises(ValueError):
        # Z/4 table corrupted at one entry: breaks associativity
        t = [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 0], [3, 0, 1, 2]]
        FiniteGroup.from_table((0, 1, 2, 3), t)


def test_direct_product():
    g = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))
    assert len(g) == 4
    assert all(g.mul(x, x) == g.identity for x in g.elements())


# ---------------------------------------------------------------------------
# make_action


def test_a2_flip_is_valid_z2_action():
    act = a2_flip()
    assert len(act.group) == 2
    assert act.is_based
    s = next(a for a in act.images if not a.is_identity())
    assert s.apply((2, -1)) == (-1, 2)  # swaps the simple roots


def test_non_permuting_generator_rejected():
    b = from_cartan_type("A2:sc")
    with pytest.raises(InvalidActionError):
        make_action(b, [(((1, 0), (0, 2)), "s")])


def test_non_unimodular_generator_rejected():
    b = from_cartan_type("A2:sc")
    with pytest.raises(InvalidActionError):
        make_action(b, [(((2, 0), (0, 2)), "s")])


def test_trivial_group_action():
    b = from_cartan_type("A2:sc")
    act = trivial_action(b)
    assert act.is_trivial()


def test_base_stabilization_enforced():
    b = from_cartan_type("A2:sc")
    neg = tuple(tuple(-int(i == j) for j in range(2)) for i in range(2))
    with pytest.raises(InvalidActionError):
        make_action(b, [(neg, "s")])
    # the same matrix is fine on the unbased datum
    act = make_action(b.datum, [(neg, "s")])
    assert len(act.group) == 2


def test_explicit_group_homomorphism_check():
    b = from_cartan_type("A2:sc")
    g = FiniteGroup.cyclic(2)
    act = make_action(b, [(flip_matrix(2), 1)], group=g)
    assert act.images[0].is_identity()
    # a non-faithful extension over Z/4 is legitimate
    act4 = make_action(b, [(flip_matrix(2), 1)], group=FiniteGroup.cyclic(4))
    assert act4.images[2].is_identity()
    with pytest.raises(InvalidActionError):
        # inconsistent: 1+1 = 2 would force flip^2 = flip
        make_action(b, [(flip_matrix(2), 1), (flip_matrix(2), 2)],
                    group=FiniteGroup.cyclic(4))


def test_closure_builds_group_table():
    b = from_cartan_type("A2:sc").datum
    neg = tuple(tuple(-int(i == j) for j in range(2)) for i in range(2))
    act = make_action(b, [(neg, "m")])
    assert len(act.group) == 2


def assert_matrix_product_table(act):
    """The closed group lists the identity first and distinct images,
    and its table is the table of every matrix product."""
    mats = [a.on_characters for a in act.images]
    assert act.group.identity == 0 and mats[0] == identity_matrix(act.datum.rank)
    assert len(set(mats)) == len(mats)
    index = {m: i for i, m in enumerate(mats)}
    assert act.group.table == tuple(tuple(index[mat_mul(x, y)] for y in mats)
                                    for x in mats)


@pytest.mark.parametrize("spec, order", [("A2:sc", 6), ("B3:sc", 48), ("B4:sc", 384)])
def test_closed_group_table_is_the_full_product_table(spec, order):
    # the table is built from the generator columns by index maps; it
    # must be the table of every matrix product
    from rootfold.rootdatum import reflection

    b = from_cartan_type(spec)
    act = make_action(b.datum, [(reflection(b.datum, i).on_characters, i)
                                for i in b.base])
    assert len(act.group) == order
    assert_matrix_product_table(act)


def test_closing_builds_no_image_beyond_the_generators():
    # A1^40 under a 40-cycle, folded, and B4 under its four simple
    # reflections: neither make_action nor restrict reads every image
    from rootfold.folding import restrict
    from rootfold.rootdatum import reflection
    from rootfold.selftest import node_permutation_matrix

    n = 40
    based = from_cartan_type(" x ".join(["A1:sc"] * n))
    cycle = node_permutation_matrix({i: (i + 1) % n for i in range(n)}, n)
    cyclic = make_action(based, [(cycle, "c")])
    restrict(cyclic)
    b4 = from_cartan_type("B4:sc")
    reflections = make_action(b4.datum, [(reflection(b4.datum, i).on_characters, i)
                                         for i in b4.base])
    assert (len(cyclic.group), len(reflections.group)) == (n, 384)
    assert "images" not in vars(cyclic) and "images" not in vars(reflections)


# ---------------------------------------------------------------------------
# orbits


def test_orbit_a2_flip():
    act = a2_flip()
    d = act.datum
    a1, a2 = d.index_of((2, -1)), d.index_of((-1, 2))
    assert orbit(act, a1) == tuple(sorted((a1, a2)))


def test_orbit_fixed_root_a3():
    act = a3_flip()
    d = act.datum
    a2 = d.index_of((-1, 2, -1))
    assert orbit(act, a2) == (a2,)


def test_orbit_trivial_action():
    b = from_cartan_type("A2:sc")
    act = trivial_action(b)
    for i in range(len(b.datum.roots)):
        assert orbit(act, i) == (i,)


def test_orthogonal_orbit_a2_flip_merges_pair():
    # <alpha1, alpha2^vee> = -1, so the orbit is non-orthogonal and the
    # attached set is the singleton {alpha1 + alpha2}
    act = a2_flip()
    d = act.datum
    a1 = d.index_of((2, -1))
    assert d.pair((2, -1), d.coroots[d.index_of((-1, 2))]) == -1
    assert orthogonal_orbit(act, a1) == (d.index_of((1, 1)),)


def test_orthogonal_orbit_a3_flip_keeps_pair():
    act = a3_flip()
    d = act.datum
    a1 = d.index_of((2, -1, 0))
    a3 = d.index_of((0, -1, 2))
    assert d.pair(d.roots[a1], d.coroots[a3]) == 0
    assert orthogonal_orbit(act, a1) == tuple(sorted((a1, a3)))


def test_orthogonal_orbit_singleton():
    act = a3_flip()
    d = act.datum
    a2 = d.index_of((-1, 2, -1))
    assert orthogonal_orbit(act, a2) == (a2,)


def test_orthogonal_orbit_requires_base():
    d = from_cartan_type("A2:sc").datum
    act = make_action(d, [(flip_matrix(2), "s")])
    with pytest.raises(InvalidActionError):
        orthogonal_orbit(act, 0)


def test_orthogonal_orbit_flags_malformed_upstream_action():
    # bypass validation to fake a "based" action that does not stabilize
    # the base: the pair-sum machinery must refuse it, signalling that
    # the precondition was violated upstream
    b = from_cartan_type("A2:sc")
    d = b.datum
    from rootfold.rootdatum import identity_permutation, reflection_permutation

    s1 = reflection_permutation(d, d.index_of((2, -1)))
    fake = DatumAction(
        group=FiniteGroup.cyclic(2),
        root_perms=(identity_permutation(len(d.roots)), s1),
        blocks=((), ()),
        target=b,
    )
    a2 = d.index_of((-1, 2))
    with pytest.raises(InvalidActionError):
        # orbit of the second simple root under s1 is {a2, a1+a2}, whose
        # sum 2*a1... is not handled by any orthogonal-orbit rule
        orthogonal_orbit(fake, a2)


def test_orthogonal_orbit_is_orthogonal_and_stable():
    # whatever the input orbit looked like, the attached set must be
    # pairwise orthogonal and stable under the action
    from rootfold.selftest import node_permutation_matrix

    tri = node_permutation_matrix({0: 2, 1: 1, 2: 3, 3: 0}, 4)
    actions = [
        a2_flip(),
        a3_flip(),
        make_action(from_cartan_type("D4:sc"), [(tri, "t")]),
        make_action(from_cartan_type("A4:sc"), [(flip_matrix(4), "s")]),
    ]
    for act in actions:
        d = act.datum
        for i in range(len(d.roots)):
            xi = orthogonal_orbit(act, i)
            for a in xi:
                for b in xi:
                    if a != b:
                        assert d.pair(d.roots[a], d.coroots[b]) == 0
            for p in act.root_perms:
                assert frozenset(p[k] for k in xi) == frozenset(xi)


def test_orbit_coroot_sum_dichotomy():
    # sum over the orbit of <beta, theta^vee> is 2 for orthogonal orbits
    # and 1 for non-orthogonal ones
    for act in [a2_flip(), a3_flip()]:
        d = act.datum
        for i in range(len(d.roots)):
            orb = orbit(act, i)
            total = sum(d.pair(d.roots[i], d.coroots[t]) for t in orb)
            orthogonal = all(
                d.pair(d.roots[a], d.coroots[b]) == 0
                for a in orb for b in orb if a != b)
            assert total == (2 if orthogonal else 1)
            xi = orthogonal_orbit(act, i)
            assert len(orb) % len(xi) == 0
            assert len(orb) // len(xi) in (1, 2)


# ---------------------------------------------------------------------------
# coinvariants


def test_coinvariants_a2_flip():
    cv = coinvariants(a2_flip())
    assert cv.free_rank == 1
    assert cv.projection == ((1, 1),)  # (a, b) -> a + b
    assert cv.fixed_basis == ((1, 1),)
    assert cv.pairing == ((1,),)
    assert cv.torsion == ()


def test_coinvariants_trivial():
    b = from_cartan_type("A2:sc")
    cv = coinvariants(trivial_action(b))
    assert cv.projection == identity_matrix(2)
    assert cv.pairing == identity_matrix(2)


def test_coinvariants_a3_flip():
    cv = coinvariants(a3_flip())
    assert cv.free_rank == 2
    assert set(cv.fixed_basis) == {(1, 0, 1), (0, 1, 0)}
    from rootfold.lattice import det
    assert abs(det(cv.pairing)) == 1


def d4_triality():
    from rootfold.selftest import node_permutation_matrix

    return make_action(from_cartan_type("D4:sc"),
                       [(node_permutation_matrix({0: 2, 1: 1, 2: 3, 3: 0}, 4), "t")])


def tampered(monkeypatch, action, name, change):
    """The AssertionError text of ``coinvariants(action)`` with the result
    of ``lattice.<name>`` passed through ``change``, or None."""
    import rootfold.lattice as lattice_module

    original = getattr(lattice_module, name)
    with monkeypatch.context() as patch:
        patch.setattr(lattice_module, name, lambda *args: change(original(*args)))
        try:
            coinvariants(action)
        except AssertionError as e:
            return str(e)
    return None


def add_first_row_to_the_projection(snf):
    """U with row 0, which does not annihilate the relations, added to
    row r, the first row of the projection: still unimodular."""
    u, d, v = snf
    r = sum(1 for i in range(min(len(d), len(d[0]))) if d[i][i])
    u = list(u)
    u[r] = tuple(a + b for a, b in zip(u[r], u[0]))
    return tuple(u), d, v


@pytest.mark.parametrize("make", [a2_flip, a3_flip, d4_triality])
def test_coinvariant_checks_refuse_tampered_maps(monkeypatch, make):
    # coinvariants checks nothing itself: its proof rests on the two
    # checks of quotient_lattice, which must refuse maps that break them
    act = make()
    assert tampered(monkeypatch, act, "smith_normal_form", lambda snf: snf) is None
    assert (tampered(monkeypatch, act, "smith_normal_form", add_first_row_to_the_projection)
            == "projection does not annihilate a relation")
    # both inverses doubled: the section is 4 times a right inverse
    doubled = lambda m: tuple(tuple(2 * x for x in row) for row in m)  # noqa: E731
    assert (tampered(monkeypatch, act, "unimodular_inverse", doubled)
            == "section is not a right inverse of the projection")


# ---------------------------------------------------------------------------
# fixed Weyl subgroup


def test_fixed_weyl_a2_flip():
    act = a2_flip()
    fw = fixed_weyl(act)
    assert len(fw) == 2
    d = act.datum
    nontrivial = next(w for w in weyl_elements(fw) if not w.is_identity())
    # the order-2 fixed element is the reflection in the merged root
    from rootfold.rootdatum import reflection
    assert nontrivial.on_characters == reflection(d, d.index_of((1, 1))).on_characters


def test_fixed_weyl_a3_flip():
    assert len(fixed_weyl(a3_flip())) == 8


def test_fixed_weyl_trivial_action():
    b = from_cartan_type("A2:sc")
    act = trivial_action(b)
    assert len(fixed_weyl(act)) == len(weyl_group(b.datum))


def test_fixed_weyl_acts_faithfully_on_quotient():
    # distinct fixed elements induce distinct maps on the coinvariants
    for act in [a2_flip(), a3_flip()]:
        cv = coinvariants(act)
        fw = fixed_weyl(act)
        induced = set()
        for w in weyl_elements(fw):
            m = mat_mul(cv.projection, mat_mul(w.on_characters, cv.section))
            # well-defined: the composite must kill every relation
            for aut in act.images:
                diff = mat_mul(cv.projection, w.on_characters)
                assert mat_mul(diff, aut.on_characters) == diff
            induced.add(m)
        assert len(induced) == len(fw)


def matrix_commutation_filter(action, weyl):
    """The Weyl elements whose character matrices commute with every
    generator image: the filter fixed_weyl ran before it worked on root
    permutations, kept as the reference."""
    gens = [action.images[g] for g in action.group.generating_set]
    gens = [g.on_characters for g in gens if not g.is_identity()]
    return [w for w in weyl
            if all(mat_mul(g, w.on_characters) == mat_mul(w.on_characters, g)
                   for g in gens)]


def reference_filter_cases():
    """Every case of the library's folding table, D4 along S3, and a
    based A1 plus a rank-1 torus."""
    from rootfold.rootdatum import BasedRootDatum, RootDatum
    from rootfold.selftest import FOLD_TABLE, node_permutation_matrix

    cases = {}
    for name, spec, builder, *_ in FOLD_TABLE:
        cases[name] = make_action(from_cartan_type(spec), [(builder(), "g")])
    d4 = from_cartan_type("D4:sc")
    triality = node_permutation_matrix({0: 2, 1: 1, 2: 3, 3: 0}, 4)
    swap = node_permutation_matrix({0: 0, 1: 1, 2: 3, 3: 2}, 4)
    cases["D4 S3"] = make_action(d4, [(triality, "t"), (swap, "s")])
    cases["trivial"] = trivial_action(from_cartan_type("B2:sc"))
    torus = RootDatum(2, ((2, 0), (-2, 0)), ((1, 0), (-1, 0)))
    invert = ((1, 0), (0, -1))
    based = BasedRootDatum(torus, (torus.index_of((2, 0)),))
    cases["A1+torus based"] = make_action(based, [(invert, "t")])
    return cases


@pytest.mark.parametrize("name", sorted(reference_filter_cases()))
def test_fixed_weyl_matches_matrix_commutation_filter(name):
    act = reference_filter_cases()[name]
    w = weyl_group(act.datum, base=act.target.base)
    expected = matrix_commutation_filter(act, weyl_elements(w))
    got = fixed_weyl(act)
    # the closure of the lifts, one per orbit of the base
    assert got.generators == tuple(lift for _, lift in act.base_lifts.values())
    assert len(got.generators) == len({orbit(act, k) for k in act.target.base})
    assert weyl_elements(got) == list(expected)


def test_fixed_weyl_refuses_an_unbased_action():
    from rootfold.rootdatum import RootDatum

    torus = RootDatum(2, ((2, 0), (-2, 0)), ((1, 0), (-1, 0)))
    for target in (torus, from_cartan_type("A3:sc").datum):
        act = make_action(target, [(identity_matrix(2 if target is torus else 3), "e")])
        with pytest.raises(InvalidActionError,
                           match="^the fixed Weyl subgroup requires a based action$"):
            fixed_weyl(act)


def test_fixed_weyl_bound_applies_to_the_fixed_subgroup():
    from rootfold.errors import EnumerationOverflow

    # |W(A3)| = 24, |W^G| = 8
    with pytest.raises(EnumerationOverflow,
                       match="^reflection group exceeds 7 elements$"):
        fixed_weyl(a3_flip(), bound=7)
    assert len(fixed_weyl(a3_flip(), bound=8)) == 8


def test_fixed_weyl_keeps_its_closure_and_a_smaller_bound_still_overflows():
    from rootfold.errors import EnumerationOverflow

    act = a3_flip()
    kept = fixed_weyl(act, bound=8)
    assert len(kept) == 8
    assert fixed_weyl(act) is kept
    with pytest.raises(EnumerationOverflow,
                       match="^reflection group exceeds 7 elements$"):
        fixed_weyl(act, bound=7)
    assert fixed_weyl(act, bound=8) is kept


def test_base_lifts_refuse_a_lift_that_does_not_commute(monkeypatch):
    # with a single reflection standing in for the orthogonal orbit of
    # the flipped pair {a1, a3}, the lift s_a1 does not commute with the
    # flip; fixed_weyl reads the checked lifts and raises too
    import rootfold.action as action_module
    from rootfold.twist import equivariant_automorphism_group

    monkeypatch.setattr(action_module, "orthogonal_orbit", lambda act, k: (k,))
    for read in (lambda a: a.base_lifts, fixed_weyl,
                 lambda a: equivariant_automorphism_group(a.target, commuting_with=a)):
        with pytest.raises(AssertionError,
                           match="^lifted reflection does not commute with the action$"):
            read(a3_flip())


def test_make_action_keeps_the_root_permutations_it_checked():
    # the permutations of the non-generator images are composed, not
    # mapped, in both the closure and the explicit-group mode
    from rootfold.rootdatum import root_permutation
    from rootfold.selftest import node_permutation_matrix

    d4 = from_cartan_type("D4:sc").datum
    triality = node_permutation_matrix({0: 2, 1: 1, 2: 3, 3: 0}, 4)
    for act in (a3_flip(), make_action(d4, [(triality, "t")]),
                make_action(d4, [(triality, 1)], group=FiniteGroup.cyclic(6))):
        assert "root_perms" in vars(act)
        assert act.root_perms == tuple(root_permutation(act.datum, a) for a in act.images)


def test_actions_commute():
    act = a2_flip()
    b = from_cartan_type("A2:sc")
    triv = trivial_action(b)
    assert actions_commute(act, act)
    d = act.datum
    neg = make_action(d, [(tuple(tuple(-int(i == j) for j in range(2))
                                 for i in range(2)), "m")])
    assert actions_commute(act, neg)


def a1_plus_rank2_torus():
    """A1 plus a rank-2 torus.  The annihilator of the coroots is
    spanned by e2 and e3, and an automorphism acts there through GL2(Z),
    where two of them need not commute."""
    from rootfold.rootdatum import RootDatum
    return RootDatum(3, ((2, 0, 0), (-2, 0, 0)), ((1, 0, 0), (-1, 0, 0)))


def torus_block(head, block):
    """The automorphism head on e1 and the 2 x 2 ``block`` on e2, e3."""
    return ((head, 0, 0), (0,) + block[0], (0,) + block[1])


TORUS_BLOCKS = {"one": ((1, 0), (0, 1)), "minus": ((-1, 0), (0, -1)),
                "swap": ((0, 1), (1, 0)), "sign": ((-1, 0), (0, 1))}


def a1_plus_rank1_torus():
    from rootfold.rootdatum import RootDatum
    return RootDatum(2, ((2, 0), (-2, 0)), ((1, 0), (-1, 0)))


@pytest.mark.parametrize("make, generators", [
    (a1_plus_rank1_torus, [((-1, 0), (0, 1)), ((1, 0), (0, -1))]),
    (a1_plus_rank1_torus, [((-1, 0), (0, -1))]),
    (a1_plus_rank2_torus,
     [torus_block(1, TORUS_BLOCKS["swap"]), torus_block(-1, TORUS_BLOCKS["sign"])]),
])
def test_closure_multiplies_blocks_on_a_torus_factor(make, generators):
    # the closure forms block products: each block is the image's
    # matrix on the annihilator of the coroots, and the table is the
    # table of the matrix products
    from rootfold.rootdatum import _annihilator_block

    datum = make()
    act = make_action(datum, [(g, k) for k, g in enumerate(generators)])
    assert act.blocks == tuple(_annihilator_block(datum, a.on_characters) for a in act.images)
    assert any(b != identity_matrix(len(b)) for b in act.blocks)
    assert_matrix_product_table(act)


def test_actions_commute_reads_the_coroot_annihilator():
    datum = a1_plus_rank2_torus()
    actions = [make_action(datum, [(torus_block(head, block), "g")])
               for head in (1, -1) for block in TORUS_BLOCKS.values()]
    outcomes = set()
    for a in actions:
        for b in actions:
            expected = all(mat_mul(x.on_characters, y.on_characters)
                           == mat_mul(y.on_characters, x.on_characters)
                           for x in a.images for y in b.images)
            assert actions_commute(a, b) == expected
            outcomes.add(expected)
    assert outcomes == {True, False}
    # the same permutation of the roots, different on the annihilator
    swap, sign = (make_action(datum, [(torus_block(1, TORUS_BLOCKS[k]), k)])
                  for k in ("swap", "sign"))
    assert swap.root_perms == sign.root_perms
    assert not actions_commute(swap, sign)


def test_restrict_refuses_actions_that_differ_only_on_the_annihilator():
    from rootfold.folding import restrict
    from rootfold.rootdatum import BasedRootDatum

    datum = a1_plus_rank2_torus()
    based = BasedRootDatum(datum, (datum.index_of((2, 0, 0)),))
    action = make_action(based, [(torus_block(1, TORUS_BLOCKS["swap"]), "t")])
    sign = make_action(datum, [(torus_block(1, TORUS_BLOCKS["sign"]), "u")])
    with pytest.raises(InvalidActionError,
                       match="^a commuting action fails to commute elementwise$"):
        restrict(action, commuting_actions=[sign])
    minus = make_action(datum, [(torus_block(1, TORUS_BLOCKS["minus"]), "u")])
    fold = restrict(action, commuting_actions=[minus])
    assert len(fold.induced) == 1
