import pytest

from rootfold.action import FiniteGroup, fixed_weyl, make_action
from rootfold.errors import InvalidActionError, UnsupportedDatumError
from rootfold.lattice import identity_matrix, mat_mul
from rootfold.rootdatum import (
    DatumAutomorphism,
    from_cartan_type,
    reflection,
    root_permutation,
    weyl_group,
)
from rootfold.twist import (
    base_transport,
    cobound,
    equivariant_automorphism_group,
    equivariant_isomorphic,
    h1_classes,
    h1_with_image,
    star_action,
    twist_datum,
    z1_enumerate,
)


def neg_matrix(n):
    return tuple(tuple(-int(i == j) for j in range(n)) for i in range(n))


def flip_matrix(n):
    return tuple(tuple(int(j == n - 1 - i) for j in range(n)) for i in range(n))


def trivial_z2_action(datum):
    return make_action(datum, [(identity_matrix(datum.rank), 1)],
                       group=FiniteGroup.cyclic(2))


# ---------------------------------------------------------------------------
# base transport


def test_base_transport_identity():
    b = from_cartan_type("A2:sc")
    w = base_transport(b, DatumAutomorphism.identity(2))
    assert w.is_identity()


def test_base_transport_minus_identity_is_longest():
    b = from_cartan_type("A2:sc")
    d = b.datum
    aut = DatumAutomorphism.from_matrix(neg_matrix(2))
    w = base_transport(b, aut)
    # oracle: scan the whole Weyl group for elements carrying the base
    base_img = {tuple(aut.apply(d.roots[i])) for i in b.base}
    matches = [v for v in weyl_group(d)
               if {tuple(v.apply(d.roots[i])) for i in b.base} == base_img]
    assert len(matches) == 1
    assert w.on_characters == matches[0].on_characters
    # the longest element of this rank-2 system is the reflection in the
    # highest root
    assert w.on_characters == reflection(d, d.index_of((1, 1))).on_characters


def test_base_transport_of_weyl_element_is_itself():
    b = from_cartan_type("A2:sc")
    d = b.datum
    s1 = reflection(d, d.index_of((2, -1)))
    w = base_transport(b, s1)
    assert w.on_characters == s1.on_characters
    residual = w.inverse() * s1
    assert residual.is_identity()


def test_base_transport_brute_force_agreement():
    # every Weyl element times every diagram symmetry, on two data
    for spec in ["A2:sc", "B2:sc"]:
        b = from_cartan_type(spec)
        d = b.datum
        flip = flip_matrix(2) if spec == "A2:sc" else identity_matrix(2)
        for v in weyl_group(d):
            for extra in (identity_matrix(2), flip):
                aut = DatumAutomorphism.from_matrix(
                    mat_mul(v.on_characters, extra))
                w = base_transport(b, aut)
                img = {tuple(aut.apply(d.roots[i])) for i in b.base}
                got = {tuple(w.apply(d.roots[i])) for i in b.base}
                assert got == img


def test_base_transport_non_reduced_exhaustive():
    # the descent walk must handle divisible roots: exhaust the BC2
    # Weyl group, where transport recovers every element on the nose
    b = from_cartan_type("BC2")
    d = b.datum
    for v in weyl_group(d):
        w = base_transport(b, v)
        assert w.on_characters == v.on_characters


def test_base_transport_inverse_is_the_reversed_word():
    from rootfold.twist import _transport, _word_product

    for spec in ["A3:sc", "BC2", "G2:sc"]:
        b = from_cartan_type(spec)
        for v in weyl_group(b.datum):
            word, w, w_perm = _transport(b, v, root_permutation(b.datum, v))
            assert w == _word_product(b.datum, word) == base_transport(b, v)
            assert w_perm == root_permutation(b.datum, w)
            w_inv = _word_product(b.datum, word[::-1])
            assert (w_inv.on_characters, w_inv.on_cocharacters) == (
                w.inverse().on_characters, w.inverse().on_cocharacters)


# ---------------------------------------------------------------------------
# star action


def test_star_action_minus_identity_a2():
    b = from_cartan_type("A2:sc")
    act = make_action(b.datum, [(neg_matrix(2), 1)], group=FiniteGroup.cyclic(2))
    star_act, cocycle = star_action(act, b.base)
    nontriv = star_act.images[1]
    assert nontriv.on_characters == flip_matrix(2)
    w0 = reflection(b.datum, b.datum.index_of((1, 1)))
    assert cocycle.values[1].on_characters == w0.on_characters
    # law at (s, s): c(s^2) = id = c(s) . s*(c(s))
    prod = cocycle.values[1] * cocycle.twist(1, cocycle.values[1])
    assert prod.is_identity()


def test_star_action_base_stabilizing_gives_trivial_cocycle():
    b = from_cartan_type("A2:sc")
    act = make_action(b, [(flip_matrix(2), "s")])
    star_act, cocycle = star_action(act, b.base)
    for s in act.group.elements():
        assert cocycle.values[s].is_identity()
        assert star_act.images[s].on_characters == act.images[s].on_characters


def test_star_action_cyclic_four_law():
    # an order-4 Weyl element of A3 (a Coxeter element); transport must
    # recover each power and the twisted law must hold on all pairs,
    # which StarCocycle.build checks on construction
    b = from_cartan_type("A3:sc")
    d = b.datum
    s = [reflection(d, i) for i in b.base]
    cox = s[0] * s[1] * s[2]
    m = cox.on_characters
    p = m
    order = 1
    while p != identity_matrix(3):
        p = mat_mul(p, m)
        order += 1
    assert order == 4
    act = make_action(d, [(m, 1)], group=FiniteGroup.cyclic(4))
    star_act, cocycle = star_action(act, b.base)
    for k in act.group.elements():
        assert star_act.images[k].is_identity()
        assert cocycle.values[k].on_characters == act.images[k].on_characters


def test_star_action_invariant_under_weyl_conjugation():
    # conjugating an action by a Weyl element leaves the star part alone
    b = from_cartan_type("A2:sc")
    d = b.datum
    base_act = make_action(d, [(flip_matrix(2), 1)], group=FiniteGroup.cyclic(2))
    _, c0 = star_action(base_act, b.base)
    star0 = star_action(base_act, b.base)[0]
    for w in weyl_group(d):
        conj = mat_mul(w.on_characters,
                       mat_mul(flip_matrix(2), w.inverse().on_characters))
        act = make_action(d, [(conj, 1)], group=FiniteGroup.cyclic(2))
        star_act, _ = star_action(act, b.base)
        assert star_act.images[1].on_characters == star0.images[1].on_characters


# ---------------------------------------------------------------------------
# equivariant automorphism groups


def test_aut_group_a1():
    b = from_cartan_type("A1:sc")
    auts = equivariant_automorphism_group(b)
    assert len(auts) == 2


def test_aut_group_a2_trivial():
    b = from_cartan_type("A2:sc")
    auts = equivariant_automorphism_group(b)
    assert len(auts) == 12


def test_aut_group_a2_flip_centralizer():
    b = from_cartan_type("A2:sc")
    gamma = make_action(b, [(flip_matrix(2), "s")])
    auts = equivariant_automorphism_group(b, commuting_with=gamma)
    assert len(auts) == 4


def test_aut_group_rejects_torus_factor():
    from rootfold.rootdatum import BasedRootDatum, RootDatum

    d = RootDatum(2, ((2, 0), (-2, 0)), ((1, 0), (-1, 0)))
    with pytest.raises(UnsupportedDatumError):
        equivariant_automorphism_group(BasedRootDatum(d, (0,)))


# ---------------------------------------------------------------------------
# Z1 enumeration


def test_z1_trivial_group():
    b = from_cartan_type("A1:sc")
    g = FiniteGroup.trivial()
    act = make_action(b.datum, [], group=g)
    star_act, _ = star_action(act, b.base)
    module = weyl_group(b.datum)
    cocycles = z1_enumerate(g, star_act.images, module)
    assert len(cocycles) == 1


def test_z1_a1_z2_trivial():
    b = from_cartan_type("A1:sc")
    act = trivial_z2_action(b.datum)
    star_act, _ = star_action(act, b.base)
    module = weyl_group(b.datum)
    cocycles = z1_enumerate(act.group, star_act.images, module)
    assert len(cocycles) == 2


def test_z1_square_condition_a2():
    # trivial Z/2 action on A2: cocycles are the order <= 2 elements
    b = from_cartan_type("A2:sc")
    act = trivial_z2_action(b.datum)
    star_act, _ = star_action(act, b.base)
    module = weyl_group(b.datum)
    cocycles = z1_enumerate(act.group, star_act.images, module)
    assert len(cocycles) == 4  # identity and the three reflections
    for c in cocycles:
        v = c.values[1]
        assert (v * v).is_identity()


def test_z1_with_gamma_module():
    # folding group = flip, Galois acts by -identity; module is the
    # fixed Weyl subgroup {1, reflection in the merged root}
    b = from_cartan_type("A2:sc")
    gamma = make_action(b, [(flip_matrix(2), "s")])
    galois = make_action(b.datum, [(neg_matrix(2), 1)], group=FiniteGroup.cyclic(2))
    star_act, _ = star_action(galois, b.base)
    module = fixed_weyl(gamma)
    assert len(module) == 2
    cocycles = z1_enumerate(galois.group, star_act.images, module)
    assert len(cocycles) == 2


# ---------------------------------------------------------------------------
# H1 classes


def test_h1_a1_two_classes():
    b = from_cartan_type("A1:sc")
    act = trivial_z2_action(b.datum)
    star_act, _ = star_action(act, b.base)
    module = weyl_group(b.datum)
    cocycles = z1_enumerate(act.group, star_act.images, module)
    classes = h1_classes(cocycles, module, module_group=module)
    assert classes.class_count == 2


def test_h1_trivial_galois_one_class():
    b = from_cartan_type("A2:sc")
    g = FiniteGroup.trivial()
    act = make_action(b.datum, [], group=g)
    star_act, _ = star_action(act, b.base)
    module = weyl_group(b.datum)
    cocycles = z1_enumerate(g, star_act.images, module)
    classes = h1_classes(cocycles, module)
    assert classes.class_count == 1


def test_h1_a2_reflections_form_one_class():
    b = from_cartan_type("A2:sc")
    act = trivial_z2_action(b.datum)
    star_act, _ = star_action(act, b.base)
    module = weyl_group(b.datum)
    cocycles = z1_enumerate(act.group, star_act.images, module)
    classes = h1_classes(cocycles, module)
    assert classes.class_count == 2
    sizes = sorted(len(c) for c in classes.classes)
    assert sizes == [1, 3]


def test_h1_with_image_counts():
    for spec, expected in [("A1:sc", (2, 2)), ("A2:sc", (2, 2))]:
        b = from_cartan_type(spec)
        act = trivial_z2_action(b.datum)
        report = h1_with_image(b, act)
        assert report.counts == expected


def test_h1_with_image_trivial_galois():
    b = from_cartan_type("A2:sc")
    act = make_action(b.datum, [], group=FiniteGroup.trivial())
    report = h1_with_image(b, act)
    assert report.counts == (1, 1)


def test_h1_with_image_gamma_module():
    # folding group = flip; Galois = Z/2 by -identity; the module is the
    # two-element fixed Weyl subgroup and both cocycles survive
    b = from_cartan_type("A2:sc")
    gamma = make_action(b, [(flip_matrix(2), "s")])
    galois = make_action(b.datum, [(neg_matrix(2), 1)],
                         group=FiniteGroup.cyclic(2))
    report = h1_with_image(b, galois, gamma_action=gamma)
    assert len(report.module_classes.cocycles) == 2
    assert len(report.module_classes.module_group) == 2


# ---------------------------------------------------------------------------
# twisting


def test_twist_by_trivial_cocycle():
    b = from_cartan_type("A1:sc")
    act = trivial_z2_action(b.datum)
    star_act, cocycle = star_action(act, b.base)
    twisted = twist_datum(b, star_act, cocycle)
    for s in act.group.elements():
        assert twisted.galois.images[s].on_characters == star_act.images[s].on_characters


def test_twist_a1_by_reflection_gives_minus_identity():
    b = from_cartan_type("A1:sc")
    act = trivial_z2_action(b.datum)
    star_act, _ = star_action(act, b.base)
    module = weyl_group(b.datum)
    cocycles = z1_enumerate(act.group, star_act.images, module)
    nontriv = next(c for c in cocycles if not c.values[1].is_identity())
    twisted = twist_datum(b, star_act, nontriv)
    assert twisted.galois.images[1].on_characters == ((-1,),)


def test_twist_roundtrip_recovers_cocycle():
    b = from_cartan_type("A2:sc")
    act = trivial_z2_action(b.datum)
    star_act, _ = star_action(act, b.base)
    module = weyl_group(b.datum)
    cocycles = z1_enumerate(act.group, star_act.images, module)
    for c in cocycles:
        twisted = twist_datum(b, star_act, c)
        _, back = star_action(twisted.galois, b.base)
        assert back.sort_key() == c.sort_key()


def test_twist_rejects_non_fixed_values():
    b = from_cartan_type("A2:sc")
    gamma = make_action(b, [(flip_matrix(2), "s")])
    galois = trivial_z2_action(b.datum)
    star_act, _ = star_action(galois, b.base)
    module = weyl_group(b.datum)
    cocycles = z1_enumerate(galois.group, star_act.images, module)
    d = b.datum
    s1 = reflection(d, d.index_of((2, -1)))
    bad = next(c for c in cocycles
               if c.values[1].on_characters == s1.on_characters)
    with pytest.raises(InvalidActionError):
        twist_datum(b, star_act, bad, gamma_action=gamma)


# ---------------------------------------------------------------------------
# equivariant isomorphism


def test_isomorphic_to_itself():
    b = from_cartan_type("A2:sc")
    act = trivial_z2_action(b.datum)
    iso = equivariant_isomorphic(b.datum, [act], b.datum, [act])
    assert iso is not None


def test_split_vs_nonsplit_a1_not_isomorphic():
    b = from_cartan_type("A1:sc")
    triv = trivial_z2_action(b.datum)
    nonsplit = make_action(b.datum, [(neg_matrix(1), 1)], group=FiniteGroup.cyclic(2))
    assert equivariant_isomorphic(b.datum, [triv], b.datum, [nonsplit]) is None


def test_cohomologous_twists_are_isomorphic():
    b = from_cartan_type("A2:sc")
    act = trivial_z2_action(b.datum)
    star_act, _ = star_action(act, b.base)
    module = weyl_group(b.datum)
    cocycles = z1_enumerate(act.group, star_act.images, module)
    classes = h1_classes(cocycles, module)
    big = next(cls for cls in classes.classes if len(cls) == 3)
    t1 = twist_datum(b, star_act, big[0])
    t2 = twist_datum(b, star_act, big[1])
    iso = equivariant_isomorphic(b.datum, [t1.galois], b.datum, [t2.galois])
    assert iso is not None


def test_distinct_classes_not_isomorphic():
    b = from_cartan_type("A2:sc")
    act = trivial_z2_action(b.datum)
    report = h1_with_image(b, act)
    reps = report.image_classes.representatives
    star_act, _ = star_action(act, b.base)
    twists = [twist_datum(b, star_act, c) for c in reps]
    for i in range(len(twists)):
        for j in range(i + 1, len(twists)):
            assert equivariant_isomorphic(
                b.datum, [twists[i].galois], b.datum, [twists[j].galois]) is None


def test_twist_suite_with_nontrivial_folding_group():
    # folding group = flip, Galois = Z/2 by -identity: two cocycles in
    # the fixed Weyl module, in distinct classes even under the full
    # equivariant automorphism group (it is abelian here), so the two
    # twists must be non-isomorphic as data with both actions
    b = from_cartan_type("A2:sc")
    gamma = make_action(b, [(flip_matrix(2), "s")])
    galois = make_action(b.datum, [(neg_matrix(2), 1)],
                         group=FiniteGroup.cyclic(2))
    report = h1_with_image(b, galois, gamma_action=gamma)
    assert len(report.module_classes.cocycles) == 2
    assert report.counts == (2, 2)
    star_act, _ = star_action(galois, b.base)
    twists = [twist_datum(b, star_act, c, gamma_action=gamma)
              for c in report.module_classes.cocycles]
    for t in twists:
        # the twisted action commutes with the folding group
        from rootfold.action import actions_commute
        assert actions_commute(t.galois, gamma)
        # and transport recovers its cocycle
        _, back = star_action(t.galois, b.base)
        assert back.sort_key() == t.cocycle.sort_key()
    iso = equivariant_isomorphic(
        b.datum, [twists[0].galois, gamma],
        b.datum, [twists[1].galois, gamma])
    assert iso is None
    for t in twists:
        self_iso = equivariant_isomorphic(
            b.datum, [t.galois, gamma], b.datum, [t.galois, gamma])
        assert self_iso is not None


def test_cobound_is_group_action():
    b = from_cartan_type("A2:sc")
    act = trivial_z2_action(b.datum)
    star_act, _ = star_action(act, b.base)
    module = weyl_group(b.datum)
    cocycles = z1_enumerate(act.group, star_act.images, module)
    c = cocycles[1]
    for k1 in module.elements[:3]:
        for k2 in module.elements[:3]:
            lhs = cobound(cobound(c, k1), k2)
            rhs = cobound(c, k1 * k2)
            assert lhs.sort_key() == rhs.sort_key()
