"""Twists, star actions and isomorphism searches reuse what they hold.

``reference_isomorphic`` is the isomorphism search loop as it was before
its order was cached: it closes W of the second datum afresh, sorts it
by translated positive system and ranks the diagram maps under each
Weyl element by base images.  The cases are the thirteen H1 cases of the
benchmark's ``h1`` workload, rebuilt here: trivial Z/2 on A1, A2, B2,
G2, A3, B3, C3 and A1xA1, the flips of A2, A3 and A1xA1, and Z/2 by -1
on the flip-fixed modules of A3 and A4.
"""

import gc
import weakref

import pytest

import rootfold.action as action_module
import rootfold.rootdatum as rootdatum_module
import rootfold.twist as twist_module
from rootfold.action import FiniteGroup, make_action
from rootfold.errors import InvalidActionError
from rootfold.lattice import (
    adjugate_and_det,
    exact_quotient,
    exact_solver,
    identity_matrix,
    mat_mul,
    mat_vec,
    replace,
    transpose,
)
from rootfold.rootdatum import (
    BasedRootDatum,
    DatumAutomorphism,
    RootDatum,
    _automorphisms_from_permutations,
    as_permutation,
    canonical_base,
    closure,
    contragredient,
    cycle_type,
    from_cartan_type,
    identity_permutation,
    positive_system,
    reflection_permutation,
    root_permutation,
    weyl_group,
)
from rootfold.twist import (
    _find_diagram_maps,
    _pairing,
    equivariant_isomorphic,
    h1_with_image,
    star_action,
    twist_datum,
    z1_enumerate,
)

from test_h1_reference import flip, neg

CASES = [
    (f"{spec} trivial", spec, identity_matrix, None)
    for spec in ("A1:sc", "A2:sc", "B2:sc", "G2:sc", "A3:sc", "B3:sc", "C3:sc",
                 "A1:sc x A1:sc")
] + [
    ("A2 flip", "A2:sc", flip, None),
    ("A3 flip", "A3:sc", flip, None),
    ("A1xA1 swap", "A1:sc x A1:sc", flip, None),
    ("A3 gamma", "A3:sc", neg, flip(3)),
    ("A4 gamma", "A4:sc", neg, flip(4)),
]
IDS = [c[0] for c in CASES]


def build(case):
    _, spec, galois_matrix, gamma_matrix = case
    based = from_cartan_type(spec)
    galois = make_action(based.datum, [(galois_matrix(based.datum.rank), 1)],
                         group=FiniteGroup.cyclic(2))
    gamma = None if gamma_matrix is None else make_action(based, [(gamma_matrix, "s")])
    return based, galois, gamma


def twists(based, galois, gamma):
    """The H1 report and the twist of every cocycle, by sort key."""
    report = h1_with_image(based, galois, gamma_action=gamma)
    star, _ = star_action(galois, based.base)
    twisted = {c.sort_key(): twist_datum(based, star, c, gamma_action=gamma)
               for c in report.module_classes.cocycles}
    return report, twisted


def pairs(report):
    """(c1, c2, same class?) for every within-class pair and every
    ordered pair of distinct class representatives."""
    out = [(cls[0], c, True) for cls in report.image_classes.classes for c in cls[1:]]
    reps = report.image_classes.representatives
    out += [(r1, r2, False) for r1 in reps for r2 in reps if r1 is not r2]
    return out


def compose(p, q):
    """p o q on plain tuples."""
    return tuple(p[i] for i in q)


def reference_isomorphic(datum1, actions1, datum2, actions2):
    """The search over every w o m, on plain tuple permutations."""
    if datum1.rank != datum2.rank or len(datum1.roots) != len(datum2.roots):
        return None
    base1 = canonical_base(datum1)
    maps = [m for _, m in sorted(_find_diagram_maps(
        BasedRootDatum(datum1, base1), BasedRootDatum(datum2, canonical_base(datum2))))]
    if not maps:
        return None
    pairs = [(tuple(a1.root_perms[g]), tuple(a2.root_perms[g]))
             for a1, a2 in zip(actions1, actions2) for g in a1.group.generating_set]
    positive = sorted(positive_system(datum2))
    gens = [lambda p, s=tuple(reflection_permutation(datum2, i)): compose(p, s)
            for i in canonical_base(datum2)]
    weyl = closure([tuple(range(len(datum2.roots)))], gens)
    for w in sorted(weyl, key=lambda w: sorted(compose(w, positive))):
        cands = [(compose(w, tuple(images)), images) for images in maps]
        for cand, images in sorted(cands, key=lambda e: compose(e[0], base1)):
            if all(compose(cand, p1) == compose(p2, cand) for p1, p2 in pairs):
                return (_automorphisms_from_permutations(datum2, [w])[0]
                        * diagram_isomorphism(datum1, datum2, base1, images))
    return None


def diagram_isomorphism(datum1, datum2, base1, images):
    """The lattice isomorphism with the root map ``images``: its
    character matrix solved on ``base1``, and the contragredient."""
    adj, d = adjugate_and_det(transpose(tuple(datum1.roots[i] for i in base1)))
    m = exact_quotient(mat_mul(transpose(tuple(datum2.roots[images[i]] for i in base1)), adj),
                       d)
    return DatumAutomorphism(m, contragredient(m, _pairing(datum1), _pairing(datum2)))


def key(aut):
    return None if aut is None else (aut.on_characters, aut.on_cocharacters)


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_isomorphism_search_matches_the_uncached_loop(case):
    based, galois, gamma = build(case)
    report, twisted = twists(based, galois, gamma)
    extra = [gamma] if gamma is not None else []
    datum = based.datum
    for c1, c2, same in pairs(report):
        a1 = [twisted[c1.sort_key()].galois] + extra
        a2 = [twisted[c2.sort_key()].galois] + extra
        got = key(equivariant_isomorphic(datum, a1, datum, a2))
        assert got == key(reference_isomorphic(datum, a1, datum, a2))
        assert (got is not None) == same


def change_of_basis(datum, g, ginv):
    """The datum with roots through g and coroots through g^-T, in the
    same order."""
    ginv_t = transpose(ginv)
    return RootDatum(datum.rank, tuple(mat_vec(g, r) for r in datum.roots),
                     tuple(mat_vec(ginv_t, c) for c in datum.coroots))


@pytest.mark.parametrize("case", [CASES[2], CASES[8]], ids=[IDS[2], IDS[8]])
def test_isomorphism_search_across_a_change_of_basis_matches(case):
    based, galois, gamma = build(case)
    _, twisted = twists(based, galois, gamma)
    datum = based.datum
    n = datum.rank
    g = tuple(tuple(int(i == j) + int((i, j) == (0, 1)) for j in range(n))
              for i in range(n))
    ginv = tuple(tuple(int(i == j) - int((i, j) == (0, 1)) for j in range(n))
                 for i in range(n))
    other = change_of_basis(datum, g, ginv)
    assert other is not datum
    moved = [make_action(other, [(mat_mul(g, mat_mul(t.galois.images[1].on_characters,
                                                     ginv)), 1)],
                         group=FiniteGroup.cyclic(2))
             for t in twisted.values()]
    found = 0
    for t in twisted.values():
        for m in moved:
            got = key(equivariant_isomorphic(datum, [t.galois], other, [m]))
            assert got == key(reference_isomorphic(datum, [t.galois], other, [m]))
            found += got is not None
    assert found >= len(moved)


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_star_and_twisted_actions_keep_their_root_permutations(case):
    based, galois, gamma = build(case)
    datum = based.datum
    star, cocycle = star_action(galois, based.base)
    assert star.root_perms == tuple(root_permutation(datum, a) for a in star.images)
    assert cocycle.star_action.root_perms == star.root_perms
    module = (action_module.fixed_weyl(gamma) if gamma is not None
              else weyl_group(datum, base=based.base))
    for c in z1_enumerate(galois.group, star, module):
        twisted = twist_datum(based, star, c, gamma_action=gamma).galois
        assert twisted.root_perms == tuple(root_permutation(datum, a)
                                           for a in twisted.images)


def test_a_tampered_value_list_is_refused():
    # A2 with trivial Galois: (1, r) for a rotation r of order 3 is no
    # cocycle, since r^2 != 1.  The values are read off the value
    # permutations, so they cannot be replaced on their own
    based, galois, _ = build(CASES[1])
    datum = based.datum
    star, _ = star_action(galois, based.base)
    cocycle = z1_enumerate(galois.group, star, weyl_group(datum))[0]
    s1, s2 = (reflection_permutation(datum, i) for i in based.base)
    rotation = as_permutation(compose(tuple(s2), tuple(s1)))
    ident = identity_permutation(len(datum.roots))
    values = _automorphisms_from_permutations(datum, [ident, rotation])
    with pytest.raises(TypeError):
        replace(cocycle, values=tuple(values))
    bad = replace(cocycle, value_perms=(ident, rotation))
    with pytest.raises(InvalidActionError,
                       match=r"^images are not a homomorphism at \(1, 1\)$"):
        twist_datum(based, star, bad)


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_h1_twists_and_searches_close_w_once_per_datum(case, monkeypatch):
    closures = {"rootdatum": [], "action": []}

    def counting(where):
        def counted(seeds, maps, bound=None, what="closure"):
            closures[where].append(what)
            return closure(seeds, maps, bound, what)
        return counted

    monkeypatch.setattr(rootdatum_module, "closure", counting("rootdatum"))
    monkeypatch.setattr(action_module, "closure", counting("action"))
    based, galois, gamma = build(case)
    report, twisted = twists(based, galois, gamma)
    extra = [gamma] if gamma is not None else []
    datum = based.datum
    for c1, c2, _ in pairs(report):
        equivariant_isomorphic(datum, [twisted[c1.sort_key()].galois] + extra,
                               datum, [twisted[c2.sort_key()].galois] + extra)
    # W in rootdatum for trivial gamma; with gamma, W^Gamma on the action
    # and no W: the image classes and every search work in Aut^Gamma
    assert closures["rootdatum"].count("reflection group") == (gamma is None)
    assert closures["action"].count("reflection group") == (gamma is not None)

    kept = weyl_group(datum).perms
    assert weyl_group(datum).perms is kept
    assert closures["rootdatum"].count("reflection group") == 1


def test_different_cycle_types_are_refused_before_any_search(monkeypatch):
    # Z/2 by 1 and by -1 on A2: the identity and a product of three
    # transpositions of the six roots
    closures = []

    def counted(seeds, maps, bound=None, what="closure"):
        closures.append(what)
        return closure(seeds, maps, bound, what)

    def never(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr(rootdatum_module, "closure", counted)
    monkeypatch.setattr(action_module, "closure", counted)
    for name in ("canonical_base", "held_base", "_find_diagram_maps", "_diagram_maps",
                 "weyl_group", "_search_order"):
        monkeypatch.setattr(twist_module, name, never)
    datum = from_cartan_type("A2:sc").datum
    one, minus = (make_action(datum, [(m, 1)], group=FiniteGroup.cyclic(2))
                  for m in (identity_matrix(2), neg(2)))
    closures.clear()
    assert equivariant_isomorphic(datum, [one], datum, [minus]) is None
    assert equivariant_isomorphic(datum, [minus], datum, [one]) is None
    assert closures == []


def test_cross_class_pairs_refused_by_cycle_type_or_searched_to_none():
    # per pass of the thirteen cases: 66 pairs of distinct image
    # classes, 60 told apart by the cycle type of a generator; the other
    # 6 are searched, and have no isomorphism either
    refused = searched = 0
    for case in CASES:
        based, galois, gamma = build(case)
        report, twisted = twists(based, galois, gamma)
        extra = [gamma] if gamma is not None else []
        datum = based.datum
        reps = report.image_classes.representatives
        for i, c1 in enumerate(reps):
            for c2 in reps[i + 1:]:
                a1 = [twisted[c1.sort_key()].galois] + extra
                a2 = [twisted[c2.sort_key()].galois] + extra
                assert equivariant_isomorphic(datum, a1, datum, a2) is None
                if any(cycle_type(x.root_perms[g]) != cycle_type(y.root_perms[g])
                       for x, y in zip(a1, a2) for g in x.group.generating_set):
                    refused += 1
                else:
                    searched += 1
                    assert reference_isomorphic(datum, a1, datum, a2) is None
    assert (refused, searched) == (60, 6)


def test_the_kept_closures_form_no_reference_cycle():
    # the caches live on the datum, and the star action and its cocycle
    # on the Galois action; a cycle back to either would keep it alive
    # until a full garbage collection
    def run(case):
        based, galois, gamma = build(case)
        report, twisted = twists(based, galois, gamma)
        for c1, c2, _ in pairs(report):
            equivariant_isomorphic(based.datum, [twisted[c1.sort_key()].galois],
                                   based.datum, [twisted[c2.sort_key()].galois])
        kept = galois._star_actions[based.base]
        assert star_action(galois, based.base) is kept
        return [weakref.ref(x) for x in (based.datum, galois) + kept]

    gc.disable()
    try:
        refs = [ref for case in CASES for ref in run(case)]
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()


def test_an_h1_pass_lists_diagram_maps_once_per_datum(monkeypatch):
    # the automorphism group lists the maps of its action's base, and
    # every isomorphism search of the pass reuses them
    listed = []
    find = twist_module._find_diagram_maps

    def counted(based1, based2, commuting=()):
        listed.append(based1.datum)
        return find(based1, based2, commuting)

    monkeypatch.setattr(twist_module, "_find_diagram_maps", counted)
    for case in CASES:
        h1_pass(case)
    assert len(listed) == len({id(d) for d in listed}) == len(CASES)


def test_an_h1_pass_computes_cycle_types_once_per_action_and_generator(monkeypatch):
    # the cycle-type refusal reads the types kept on each action, so a
    # twisted action paired many times has its types computed once
    calls = []
    real = action_module.cycle_type
    monkeypatch.setattr(action_module, "cycle_type",
                        lambda p: calls.append(p) or real(p))
    searched = {}
    search = equivariant_isomorphic

    def recorded(datum1, actions1, datum2, actions2):
        for a in list(actions1) + list(actions2):
            searched[id(a)] = a
        return search(datum1, actions1, datum2, actions2)

    monkeypatch.setitem(globals(), "equivariant_isomorphic", recorded)
    for case in CASES:
        calls.clear()
        searched.clear()
        h1_pass(case)
        gens = sum(len(a.group.generating_set) for a in searched.values())
        assert 0 < len(calls) <= gens


def uncached_positive_system(based):
    """``BasedRootDatum.positive_system`` solved afresh on every call,
    as it was before it was kept on the datum."""
    out = set()
    for i, sol in enumerate(based.root_coordinates):
        if sol is None:
            raise InvalidActionError("base does not span the roots")
        if all(x >= 0 for x in sol[0]):
            out.add(i)
    return frozenset(out)


def h1_pass(case):
    """One operation of the ``h1`` workload: the report, the twists and
    every isomorphism search, summarized for comparison."""
    based, galois, gamma = build(case)
    report, twisted = twists(based, galois, gamma)
    extra = [gamma] if gamma is not None else []
    datum = based.datum
    found = [key(equivariant_isomorphic(
        datum, [twisted[c1.sort_key()].galois] + extra,
        datum, [twisted[c2.sort_key()].galois] + extra))
        for c1, c2, _ in pairs(report)]
    return (report.counts,
            [c.sort_key() for c in report.module_classes.cocycles],
            [c.sort_key() for c in report.image_classes.representatives],
            {k: [key(a) for a in t.galois.images] for k, t in sorted(twisted.items())},
            found)


def test_an_h1_pass_walks_no_positive_system_and_solves_none(monkeypatch):
    # star_action builds a new BasedRootDatum on every call; the positive
    # system of its base is kept on the datum, where the construction
    # left the one its closure met, so no base of the pass is walked and
    # nothing is solved
    solves, walks = [], []
    walk = rootdatum_module._walk_base

    def counted(m):
        solves.append(m)
        return exact_solver(m)

    def walked(based):
        walks.append((based.datum, based.base))   # alive, so no id is reused
        return walk(based)

    monkeypatch.setattr(rootdatum_module, "exact_solver", counted)
    monkeypatch.setattr(rootdatum_module, "_walk_base", walked)
    for case in CASES:
        h1_pass(case)
    assert solves == []
    assert walks == []


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_kept_positive_systems_leave_reports_and_twists_unchanged(case, monkeypatch):
    kept = h1_pass(case)
    monkeypatch.setattr(BasedRootDatum, "positive_system",
                        property(uncached_positive_system))
    assert h1_pass(case) == kept
