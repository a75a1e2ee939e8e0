import pytest

from rootfold.action import FiniteGroup, actions_commute, fixed_weyl, make_action
from rootfold.errors import InvalidActionError, UnsupportedDatumError
from rootfold.lattice import identity_matrix, mat_mul, replace
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

from test_rootdatum import weyl_elements


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
    aut = DatumAutomorphism(neg_matrix(2))
    w = base_transport(b, aut)
    # oracle: scan the whole Weyl group for elements carrying the base
    base_img = {tuple(aut.apply(d.roots[i])) for i in b.base}
    matches = [v for v in weyl_elements(weyl_group(d))
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
        for v in weyl_elements(weyl_group(d)):
            for extra in (identity_matrix(2), flip):
                aut = DatumAutomorphism(mat_mul(v.on_characters, extra))
                w = base_transport(b, aut)
                img = {tuple(aut.apply(d.roots[i])) for i in b.base}
                got = {tuple(w.apply(d.roots[i])) for i in b.base}
                assert got == img


def test_base_transport_non_reduced_exhaustive():
    # the descent walk must handle divisible roots: exhaust the BC2
    # Weyl group, where transport recovers every element on the nose
    b = from_cartan_type("BC2")
    d = b.datum
    for v in weyl_elements(weyl_group(d)):
        w = base_transport(b, v)
        assert w.on_characters == v.on_characters


def test_transport_permutation_and_star_images_match_matrices():
    from rootfold.twist import _transport

    for spec in ["A3:sc", "BC2", "G2:sc"]:
        b = from_cartan_type(spec)
        d = b.datum
        auts = weyl_elements(equivariant_automorphism_group(b))
        for v in auts:
            w = base_transport(b, v)
            assert _transport(b, root_permutation(d, v)) == root_permutation(d, w)
        # the closure of all of them: every automorphism gets a star image
        act = make_action(d, [(a.on_characters, i) for i, a in enumerate(auts)])
        star_act, _ = star_action(act, b.base)
        for aut, star in zip(act.images, star_act.images):
            assert star == base_transport(b, aut).inverse() * aut


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
    # law at (s, s): c(s^2) = id = c(s) . s*(c(s)), s*(v) = s* v s*^-1
    prod = cocycle.values[1] * (nontriv * cocycle.values[1] * nontriv.inverse())
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
    for w in weyl_elements(weyl_group(d)):
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


def test_aut_group_reads_the_lifts_and_closes_the_fixed_subgroup_once(monkeypatch):
    import rootfold.action as action_module
    from rootfold.rootdatum import closure

    # A3 flip: |W^Gamma| = 8, and the flip itself commutes with Gamma
    b = from_cartan_type("A3:sc")
    gamma = make_action(b, [(flip_matrix(3), "s")])
    closures = []

    def counted(seeds, maps, bound=None, what="closure"):
        closures.append(what)
        return closure(seeds, maps, bound, what)

    monkeypatch.setattr(action_module, "closure", counted)
    auts = equivariant_automorphism_group(b, commuting_with=gamma)
    assert len(auts) == 16 and closures.count("reflection group") == 1
    assert auts.generators[:2] == tuple(lift for _, lift in gamma.base_lifts.values())
    galois = make_action(b.datum, [(neg_matrix(3), 1)], group=FiniteGroup.cyclic(2))
    h1_with_image(b, galois, gamma_action=gamma)
    assert closures.count("reflection group") == 1   # W^Gamma, closed once


def test_aut_group_overflow_with_a_commuting_action(monkeypatch):
    import rootfold.twist as twist_module
    from rootfold.errors import EnumerationOverflow

    b = from_cartan_type("A3:sc")
    gamma = make_action(b, [(flip_matrix(3), "s")])
    monkeypatch.setattr(twist_module, "WEYL_BOUND", 16)
    assert len(equivariant_automorphism_group(b, commuting_with=gamma)) == 16
    for bound in (7, 15):
        monkeypatch.setattr(twist_module, "WEYL_BOUND", bound)
        with pytest.raises(EnumerationOverflow,
                           match=f"^automorphism group exceeds {bound} elements$"):
            equivariant_automorphism_group(b, commuting_with=gamma)


def test_diagram_maps_of_one_datum_are_cached_per_base():
    from rootfold.rootdatum import BasedRootDatum, RootDatum, canonical_base
    from rootfold.twist import _diagram_maps

    for spec in ("A2:sc", "D4:sc", "A1:sc x A1:sc", "B3:sc"):
        d = from_cartan_type(spec).datum
        other_base = tuple(sorted(d.negation[i] for i in canonical_base(d)))
        for base in (canonical_base(d), other_base):
            maps = _diagram_maps(BasedRootDatum(d, base))
            assert _diagram_maps(BasedRootDatum(d, base)) is maps
            assert d._diagram_maps[(base,)] is maps
            copy = RootDatum(d.rank, d.roots, d.coroots, d.pairing)
            fresh = _diagram_maps(BasedRootDatum(copy, base))
            assert maps == fresh and len(maps) >= 1
        assert len(d._diagram_maps) == 2


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
    cocycles = z1_enumerate(g, star_act, module)
    assert len(cocycles) == 1


def test_z1_a1_z2_trivial():
    b = from_cartan_type("A1:sc")
    act = trivial_z2_action(b.datum)
    star_act, _ = star_action(act, b.base)
    module = weyl_group(b.datum)
    cocycles = z1_enumerate(act.group, star_act, module)
    assert len(cocycles) == 2


def test_z1_square_condition_a2():
    # trivial Z/2 action on A2: cocycles are the order <= 2 elements
    b = from_cartan_type("A2:sc")
    act = trivial_z2_action(b.datum)
    star_act, _ = star_action(act, b.base)
    module = weyl_group(b.datum)
    cocycles = z1_enumerate(act.group, star_act, module)
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
    cocycles = z1_enumerate(galois.group, star_act, module)
    assert len(cocycles) == 2


def test_z1_enumerate_refuses_a_star_action_of_another_group():
    b = from_cartan_type("A1:sc")
    star_act, _ = star_action(trivial_z2_action(b.datum), b.base)
    with pytest.raises(ValueError, match="^the star action is not an action of the group$"):
        z1_enumerate(FiniteGroup.cyclic(2), star_act, weyl_group(b.datum))


def test_a_replaced_value_list_rebuilds_its_values():
    b = from_cartan_type("A2:sc")
    star_act, _ = star_action(trivial_z2_action(b.datum), b.base)
    cocycles = z1_enumerate(star_act.group, star_act, weyl_group(b.datum))
    first, last = cocycles[0], cocycles[-1]
    assert first.values != last.values
    moved = replace(first, value_perms=last.value_perms)
    assert moved == last
    assert moved.values == last.values


# ---------------------------------------------------------------------------
# H1 classes


def test_h1_a1_two_classes():
    b = from_cartan_type("A1:sc")
    act = trivial_z2_action(b.datum)
    star_act, _ = star_action(act, b.base)
    module = weyl_group(b.datum)
    cocycles = z1_enumerate(act.group, star_act, module)
    classes = h1_classes(cocycles, module, module_group=module)
    assert classes.class_count == 2


def test_h1_trivial_galois_one_class():
    b = from_cartan_type("A2:sc")
    g = FiniteGroup.trivial()
    act = make_action(b.datum, [], group=g)
    star_act, _ = star_action(act, b.base)
    module = weyl_group(b.datum)
    cocycles = z1_enumerate(g, star_act, module)
    classes = h1_classes(cocycles, module)
    assert classes.class_count == 1


def test_h1_a2_reflections_form_one_class():
    b = from_cartan_type("A2:sc")
    act = trivial_z2_action(b.datum)
    star_act, _ = star_action(act, b.base)
    module = weyl_group(b.datum)
    cocycles = z1_enumerate(act.group, star_act, module)
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
    cocycles = z1_enumerate(act.group, star_act, module)
    nontriv = next(c for c in cocycles if not c.values[1].is_identity())
    twisted = twist_datum(b, star_act, nontriv)
    assert twisted.galois.images[1].on_characters == ((-1,),)


def test_twist_roundtrip_recovers_cocycle():
    b = from_cartan_type("A2:sc")
    act = trivial_z2_action(b.datum)
    star_act, _ = star_action(act, b.base)
    module = weyl_group(b.datum)
    cocycles = z1_enumerate(act.group, star_act, module)
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
    cocycles = z1_enumerate(galois.group, star_act, module)
    d = b.datum
    s1 = reflection(d, d.index_of((2, -1)))
    bad = next(c for c in cocycles
               if c.values[1].on_characters == s1.on_characters)
    with pytest.raises(InvalidActionError):
        twist_datum(b, star_act, bad, gamma_action=gamma)


def test_twist_datum_refuses_a_cocycle_its_transport_does_not_recover():
    # D4 with Z/3 acting by triality, and the trivial cocycle cobounded
    # by the diagram transposition kappa of nodes 2 and 3: the values
    # kappa^-1 s*(kappa) are diagram maps outside W, which the base
    # transport of the twisted action cannot give back
    from rootfold.selftest import node_permutation_matrix

    b = from_cartan_type("D4:sc")
    triality = node_permutation_matrix({0: 2, 1: 1, 2: 3, 3: 0}, 4)
    act = make_action(b, [(triality, 1)], group=FiniteGroup.cyclic(3))
    star_act, trivial = star_action(act, b.base)
    assert all(v.is_identity() for v in trivial.values)
    kappa = DatumAutomorphism(node_permutation_matrix({0: 0, 1: 1, 2: 3, 3: 2}, 4))
    moved = cobound(trivial, root_permutation(b.datum, kappa))
    weyl = set(weyl_group(b.datum).perms)
    assert not all(p in weyl for p in moved.value_perms)
    with pytest.raises(AssertionError,
                       match="^base transport does not recover the cocycle$"):
        twist_datum(b, star_act, moved)


def a3_with_gamma():
    """A3 with Z/2 acting by -1 and the folding action of the flip."""
    b = from_cartan_type("A3:sc")
    galois = make_action(b.datum, [(neg_matrix(3), 1)], group=FiniteGroup.cyclic(2))
    return b, galois, make_action(b, [(flip_matrix(3), "s")])


def test_twist_datum_leaves_star_and_twisted_images_unbuilt():
    # on semisimple data the commutation tests read root permutations
    # only, so neither the star images nor the twisted ones are built
    b, galois, gamma = a3_with_gamma()
    star_act, _ = star_action(galois, b.base)
    cocycles = z1_enumerate(galois.group, star_act, fixed_weyl(gamma))
    h1_classes(cocycles, equivariant_automorphism_group(b, commuting_with=gamma))
    twisted = [twist_datum(b, star_act, c, gamma_action=gamma).galois for c in cocycles]
    assert len(twisted) > 1
    assert all("images" not in vars(a) for a in [star_act] + twisted)
    assert all(actions_commute(a, gamma) for a in twisted)
    assert all("images" not in vars(a) for a in [star_act] + twisted)


def test_h1_twists_and_isomorphisms_multiply_no_automorphisms(monkeypatch):
    # an isomorphism found is built from its root map alone
    b, galois, gamma = a3_with_gamma()
    calls = []
    times = DatumAutomorphism.__mul__

    def counted(x, y):
        calls.append(1)
        return times(x, y)

    monkeypatch.setattr(DatumAutomorphism, "__mul__", counted)
    report = h1_with_image(b, galois, gamma_action=gamma)
    star_act, _ = star_action(galois, b.base)
    twisted = {c.value_perms: twist_datum(b, star_act, c, gamma_action=gamma).galois
               for c in report.module_classes.cocycles}
    found = [equivariant_isomorphic(b.datum, [twisted[c.value_perms], gamma],
                                    b.datum, [twisted[d.value_perms], gamma])
             for cls in report.image_classes.classes for c in cls for d in cls]
    assert all(found) and len(found) > len(report.image_classes.classes)
    assert calls == []


def torus_galois(sign):
    """Z/2 acting on A1 plus a rank-1 torus (``TORUS``) by
    diag(1, sign), with the base of the A1 factor."""
    from rootfold.rootdatum import BasedRootDatum

    from test_closure import TORUS

    action = make_action(TORUS, [(((1, 0), (0, sign)), 1)], group=FiniteGroup.cyclic(2))
    return BasedRootDatum(TORUS, (0,)), action


def test_twist_datum_refuses_a_star_action_that_differs_on_the_torus_only():
    # the trivial Galois action and the one that is -1 on the torus have
    # star actions that permute the roots alike, with other blocks
    b, one = torus_galois(1)
    trivial = star_action(one, b.base)
    minus = star_action(torus_galois(-1)[1], b.base)
    assert trivial[0].root_perms == minus[0].root_perms
    assert trivial[0].blocks == (((1,),),) * 2
    assert minus[0].blocks == (((1,),), ((-1,),))
    message = "^cocycle was built against a different star action$"
    for (star, _), (_, cocycle) in ((trivial, minus), (minus, trivial)):
        with pytest.raises(InvalidActionError, match=message):
            twist_datum(b, star, cocycle)
    # an equal star action made again from an equal Galois action is
    # accepted, and compared without building either one's images
    for sign, (star, cocycle) in ((1, trivial), (-1, minus)):
        again = star_action(torus_galois(sign)[1], b.base)[0]
        assert again is not star
        twisted = twist_datum(b, again, cocycle)
        assert "images" not in vars(star) and "images" not in vars(again)
        assert twisted.galois.images == star.images


def test_torus_factor_star_images_stay_unbuilt():
    # cobounding by the Weyl group reads the root permutations of the
    # star action, and the commutation test its blocks, not its images
    b, galois = torus_galois(-1)
    star, cocycle = star_action(galois, b.base)
    weyl = weyl_group(b.datum)
    assert [cobound(cocycle, k).value_perms for k in weyl.perms] == [cocycle.value_perms] * 2
    assert h1_classes([cocycle], weyl).class_count == 1
    assert actions_commute(star, galois) and actions_commute(galois, star)
    assert "images" not in vars(star)


def test_h1_with_image_on_a_torus_factor_refuses_only_the_image_classes():
    from rootfold.rootdatum import BasedRootDatum, RootDatum

    d = RootDatum(2, ((2, 0), (-2, 0)), ((1, 0), (-1, 0)))
    galois = make_action(d, [(((1, 0), (0, -1)), 1)], group=FiniteGroup.cyclic(2))
    report = h1_with_image(BasedRootDatum(d, (0,)), galois)
    assert "image_classes" not in vars(report)
    assert (len(report.module_classes.cocycles), report.module_classes.class_count) == (2, 2)
    for _ in range(2):
        with pytest.raises(UnsupportedDatumError):
            report.image_classes


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
    cocycles = z1_enumerate(act.group, star_act, module)
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
    cocycles = z1_enumerate(act.group, star_act, module)
    c = cocycles[1]
    kappas = weyl_elements(module)[:3]

    def perm(k):
        return root_permutation(b.datum, k)

    for k1 in kappas:
        for k2 in kappas:
            lhs = cobound(cobound(c, perm(k1)), perm(k2))
            rhs = cobound(c, perm(k1 * k2))
            assert lhs.sort_key() == rhs.sort_key()


@pytest.mark.parametrize("spec, i, j", [
    ("A2:sc", 0, 1), ("A1:sc x A1:sc", 0, 1),   # integral and unimodular, but
    # the matrix read off the independent roots moves the others otherwise
    ("B2:sc", 0, 1),                            # no integral matrix
    ("G2:sc", 0, 10),                           # an integral, singular matrix
])
def test_star_cocycle_build_refuses_a_value_no_automorphism_induces(spec, i, j):
    # a transposition of two roots is an involution, so under trivial Z/2
    # the twisted law holds; no datum automorphism induces it
    from rootfold.rootdatum import identity_permutation
    from rootfold.twist import StarCocycle

    based = from_cartan_type(spec)
    n = len(based.datum.roots)
    star, _ = star_action(trivial_z2_action(based.datum), based.base)
    swap = list(range(n))
    swap[i], swap[j] = j, i
    with pytest.raises(ValueError, match="^cocycle value at 1 is not induced by a "
                                         "datum automorphism$"):
        StarCocycle.build(star, [identity_permutation(n), swap])


def test_twist_datum_refuses_values_that_do_not_commute_with_gamma():
    # A cocycle value commutes with gamma exactly when it does on the
    # roots and on the annihilator of the coroots.  On A2 a simple
    # reflection fails on the roots against the flip.  On A1 plus a
    # rank-2 torus the swap and the negation of the torus coordinates
    # move no root; a value is read off its root permutation as fixing
    # the annihilator, so both are the identity there and commute with
    # a sign change.
    from rootfold.rootdatum import BasedRootDatum, identity_permutation
    from rootfold.twist import StarCocycle

    from test_action import TORUS_BLOCKS, a1_plus_rank2_torus, torus_block

    def cocycle_with_value(based, value):
        datum = based.datum
        star, _ = star_action(trivial_z2_action(datum), based.base)
        perms = [identity_permutation(len(datum.roots)), root_permutation(datum, value)]
        return star, StarCocycle.build(star, perms)

    message = "^cocycle values are not fixed by the action$"
    a2 = from_cartan_type("A2:sc")
    star, cocycle = cocycle_with_value(a2, reflection(a2.datum, a2.base[0]))
    with pytest.raises(InvalidActionError, match=message):
        twist_datum(a2, star, cocycle, gamma_action=make_action(a2, [(flip_matrix(2), "s")]))

    datum = a1_plus_rank2_torus()
    based = BasedRootDatum(datum, (datum.index_of((2, 0, 0)),))
    gamma = make_action(based, [(torus_block(1, TORUS_BLOCKS["sign"]), "g")])
    for block in ("swap", "minus"):
        value = DatumAutomorphism(torus_block(1, TORUS_BLOCKS[block]))
        star, cocycle = cocycle_with_value(based, value)
        assert cocycle.value_perms[1] == identity_permutation(2)
        assert cocycle.values[1].is_identity()
        twisted = twist_datum(based, star, cocycle, gamma_action=gamma)
        assert twisted.galois.images == star.images
