"""Objects a fold reads off what was already built, each against the
computation it replaces: the simple reflections handed over by
``from_cartan_type`` against the direct check read off the pairing,
``verify_base`` on a walked base against the solve alone, ``classify``
on the Dynkin diagram against the components of the root pairing and
on a held base against the canonical one, the generator images
``make_action`` holds as its checked matrices against those solved for
from the pairs, and the restricted reflections ``restrict`` hands over
from the lifts against the direct check."""

from itertools import combinations
from pathlib import Path

import pytest

import rootfold.rootdatum as rootdatum_module
from rootfold.action import FiniteGroup, make_action
from rootfold.cli import parse_datum
from rootfold.folding import reduced_subdatum, restrict
from rootfold.lattice import span_rank
from rootfold.rootdatum import (
    BasedRootDatum,
    DatumAutomorphism,
    RootDatum,
    _closure_from_simples,
    _component_label,
    _reflection_permutation,
    canonical_base,
    classify,
    from_cartan_type,
    held_base,
    verify_base,
)
from rootfold.selftest import FOLD_TABLE, SLOW_FOLD, node_permutation_matrix

from test_base_walk import (
    TYPES,
    datum_by_name,
    fresh,
    outcome,
    solved_positive_system,
    zero_root_datum,
)
from test_rootdatum import skew_realization

GOLDEN = Path(__file__).resolve().parent.parent / "golden"

SIMPLE_TYPES = [f"{letter}{rank}:{tag}"
                for letter, ranks in [("A", range(1, 9)), ("B", range(2, 9)),
                                      ("C", range(2, 9)), ("D", range(3, 9)),
                                      ("E", (6, 7, 8)), ("F", (4,)), ("G", (2,))]
                for rank in ranks for tag in ("sc", "ad")]
BC_TYPES = [f"BC{rank}" for rank in range(1, 9)]
PRODUCTS = ["A1:sc x B2:ad x BC2", "G2:sc x A2:ad x D4:sc", "BC1 x C3:sc x A1:ad",
            "A1:sc x A1:sc x A1:sc", "BC2 x BC1 x B3:ad"]


# ---------------------------------------------------------------------------
# simple reflections from construction


@pytest.mark.parametrize("spec", SIMPLE_TYPES + BC_TYPES + PRODUCTS)
def test_handed_reflections_and_their_closed_cache_are_the_direct_ones(spec, monkeypatch):
    direct = []
    monkeypatch.setattr(rootdatum_module, "_reflection_permutation",
                        lambda d, k: direct.append(k) or _reflection_permutation(d, k))
    based = from_cartan_type(spec)
    datum = based.datum
    assert direct == []   # nothing read off the pairing
    cache = datum._reflection_perms
    assert set(based.base) <= set(cache)
    # closed under conjugation: every root that is not twice a root is a
    # Weyl image of a simple root
    roots = set(datum.roots)
    assert set(cache) == {i for i, r in enumerate(datum.roots)
                          if not (all(x % 2 == 0 for x in r)
                                  and tuple(x // 2 for x in r) in roots)}
    for k, perm in cache.items():
        assert perm == _reflection_permutation(datum, k)


@pytest.mark.parametrize("spec", SIMPLE_TYPES + BC_TYPES + PRODUCTS)
def test_handed_positive_system_is_the_solved_one(spec, monkeypatch):
    walks = []
    monkeypatch.setattr(rootdatum_module, "_walk_base", lambda b: walks.append(b))
    based = from_cartan_type(spec)
    datum = based.datum
    assert datum._based_positive_systems == {based.base: solved_positive_system(based)}
    assert based.positive_system is datum._based_positive_systems[based.base]
    assert walks == []


def test_an_unbased_action_on_a_fresh_datum_needs_no_canonical_base():
    # the E8 x E8 factor swap is walked from the construction base
    based = from_cartan_type("E8:sc x E8:sc")
    swap = tuple(tuple(int(j == (i + 8) % 16) for j in range(16)) for i in range(16))
    action = make_action(based.datum, [(swap, 1)], group=FiniteGroup.cyclic(2))
    assert "_canonical_system" not in vars(based.datum)
    assert tuple(action.root_perms[1]) == tuple(
        based.datum.index_of(tuple(r[8:] + r[:8])) for r in based.datum.roots)


def test_construction_refuses_a_coroot_the_simple_reflections_do_not_carry():
    e1, e2 = (1, 0), (0, 1)
    # s_1(e_1) = -e_1, whose recorded coroot (0, -2) is not s_1(2 e_1)
    with pytest.raises(AssertionError, match="does not map the coroots"):
        _closure_from_simples([e1, e2], [(2, 0), (0, 2)], seeds=[((-1, 0), (0, -2))])
    # s_1 fixes the root -e_2 but moves its recorded coroot (1, -2)
    with pytest.raises(AssertionError, match="does not map the coroots"):
        _closure_from_simples([e1, e2], [(2, 0), (0, 2)], seeds=[((0, -1), (1, -2))])
    datum, base, perms = _closure_from_simples([e1, e2], [(2, 0), (0, 2)])
    assert [tuple(p) for p in perms] == [tuple(_reflection_permutation(datum, k))
                                         for k in base]


# ---------------------------------------------------------------------------
# verify_base reads the walk


def solved_base_problems(based):
    """The problem list of ``verify_base`` from the solve alone."""
    datum = based.datum
    simples = [datum.roots[i] for i in based.base]
    if span_rank(simples) != len(simples):
        return ["base roots are not linearly independent"]
    problems = []
    for i, sol in enumerate(based.root_coordinates):
        if sol is None or any(x % sol[1] for x in sol[0]):
            problems.append(f"root {i} is not an integer combination of the base")
            continue
        signs = [x for x in sol[0] if x != 0]
        if signs and not (all(x > 0 for x in signs) or all(x < 0 for x in signs)):
            problems.append(f"root {i} has mixed signs over the base")
    root_set = set(datum.roots)
    for i in based.base:
        r = datum.roots[i]
        for m in range(2, 5):
            if all(x % m == 0 for x in r) and tuple(x // m for x in r) in root_set:
                problems.append(f"base root {i} is {m} times another root")
    return problems


@pytest.mark.parametrize("name", TYPES + ["skewed BC2"])
def test_verify_base_matches_the_solve_on_every_index_subset(name):
    datum = fresh(datum_by_name(name))
    kept = datum._based_positive_systems
    certified = 0
    for base in combinations(range(len(datum.roots)), len(canonical_base(datum))):
        based = BasedRootDatum(datum, base)
        got = verify_base(based)
        assert got == solved_base_problems(BasedRootDatum(datum, base))
        if base in kept:   # walked: the kept system is the solve's
            assert kept[base] == solved_positive_system(based)
            certified += 1
        assert (got == []) <= (base in kept)
    assert certified > 0


def test_verify_base_on_repeated_dependent_and_zero_root_tuples_matches_the_solve():
    b2 = fresh(from_cartan_type("B2:sc").datum)
    cases = [(b2, base) for base in [(0, 0), (0, 0, 1), (0,), tuple(range(4)),
                                     tuple(range(len(b2.roots)))]]
    zero = zero_root_datum()
    cases.append((zero, from_cartan_type("A2:sc").base + (zero.index_of((0, 0, 0)),)))
    for datum, base in cases:
        assert outcome(lambda: verify_base(BasedRootDatum(datum, base))) == outcome(
            lambda: solved_base_problems(BasedRootDatum(datum, base)))


# ---------------------------------------------------------------------------
# classify reads the Dynkin diagram


def root_components(datum):
    """The root indices of each irreducible component: the classes of
    the roots under "pairs to nonzero", closed transitively."""
    n = len(datum.roots)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n):
        for j in range(i + 1, n):
            if datum.pair(datum.roots[i], datum.coroots[j]) != 0:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values(), key=lambda g: datum.roots[g[0]])


def classify_by_root_components(datum):
    """``classify`` over the components of the root pairing, with a
    component non-reduced when any of its roots has its double among
    them: the reference."""
    if not datum.roots:
        return []
    base = canonical_base(datum)
    counted = {}
    for comp in root_components(datum):
        comp_base = [i for i in base if i in set(comp)]
        matrix = tuple(tuple(datum.pair(datum.roots[i], datum.coroots[j]) for j in comp_base)
                       for i in comp_base)
        root_set = {datum.roots[i] for i in comp}
        reduced = not any(tuple(2 * x for x in r) in root_set for r in root_set)
        label = _component_label(matrix, reduced)
        counted[label] = counted.get(label, 0) + 1
    return sorted(counted.items())


def folds():
    for _, spec, builder, *_ in FOLD_TABLE + [SLOW_FOLD]:
        yield restrict(make_action(from_cartan_type(spec), [(builder(), "g")]))


def classified_data():
    data = [(spec, from_cartan_type(spec).datum) for spec in SIMPLE_TYPES + BC_TYPES + PRODUCTS]
    for fold in folds():
        name = f"fold to {len(fold.datum.roots)} roots"
        data.append((name, fold.datum))
        for char_is_two in (False, True):
            data.append((f"{name}, reduced, char 2 {char_is_two}",
                         reduced_subdatum(fold, char_is_two)))
    for path in sorted(GOLDEN.glob("*.datum")):
        data.append((path.name, parse_datum(path.read_text(), source=path.name).datum))
    return data


def test_classify_on_the_dynkin_diagram_matches_the_root_pairing_components():
    data = classified_data()
    assert len(data) > 100
    for name, datum in data:
        assert classify(datum) == classify_by_root_components(datum), name


def assert_held_and_canonical_labels_agree(datum, held):
    """``classify`` on a copy of ``datum`` holding the base ``held``
    reads that base and leaves the canonical system uncomputed, and
    gives the labels of a copy holding no base, which reads the
    canonical base."""
    plain = RootDatum(datum.rank, datum.roots, datum.coroots, datum.pairing)
    moved = RootDatum(datum.rank, datum.roots, datum.coroots, datum.pairing)
    assert verify_base(BasedRootDatum(moved, held)) == []
    assert held_base(moved) == held
    labels = classify(moved)
    assert "_canonical_system" not in vars(moved)
    assert held != canonical_base(plain)
    assert labels == classify(plain) == classify(datum)


def test_classify_gives_the_labels_of_the_canonical_base_on_any_held_base():
    # on each fold, its base and the negated canonical base; on each
    # golden document under a change of basis, the stated base
    # carried along and the negated canonical base
    checked = 0
    for fold in folds():
        negated = tuple(sorted(fold.datum.negation[i] for i in canonical_base(fold.datum)))
        assert held_base(fold.datum) == fold.base
        for held in {fold.base, negated} - {canonical_base(fold.datum)}:
            assert_held_and_canonical_labels_agree(fold.datum, held)
            checked += 1
    for path in sorted(GOLDEN.glob("*.datum")):
        doc = parse_datum(path.read_text(), source=path.name)
        n = doc.datum.rank
        u = tuple(tuple(int(i == j) + int((i, j) == (0, n - 1)) for j in range(n))
                  for i in range(n)) if n > 1 else ((-1,),)
        datum = skew_realization(doc.datum, u, u)
        negated = tuple(sorted(datum.negation[i] for i in canonical_base(datum)))
        for held in {tuple(sorted(doc.based.base)), negated} - {canonical_base(datum)}:
            assert_held_and_canonical_labels_agree(datum, held)
            checked += 1
    assert checked >= 2 * len(FOLD_TABLE)


# ---------------------------------------------------------------------------
# generator images held as the checked matrices


def test_generator_images_are_held_as_the_checked_matrices():
    based = from_cartan_type("D4:sc")
    datum = based.datum
    reflections = [(rootdatum_module.reflection(datum, i).on_characters, i) for i in based.base]
    triality = node_permutation_matrix({0: 2, 1: 1, 2: 3, 3: 0}, 4)
    quarter = ((0, -1), (1, 0))
    a1_torus = RootDatum(2, ((2, 0), (-2, 0)), ((1, 0), (-1, 0)))
    # -1 on the torus factor: a block that is not the identity
    torus_flip = ((1, 0), (0, -1))
    cases = [(make_action(datum, reflections), reflections),
             (make_action(datum, reflections + reflections[:1]), reflections),   # a repeat
             (make_action(based, [(triality, "t")]), [(triality, "t")]),
             (make_action(datum, [(triality, 1)], group=FiniteGroup.cyclic(3)),
              [(triality, 1)]),
             (make_action(from_cartan_type("A1:sc x A1:sc").datum, [(quarter, 1)],
                          group=FiniteGroup.cyclic(4)), [(quarter, 1)]),
             (make_action(a1_torus, [(torus_flip, "f")]), [(torus_flip, "f")]),
             (make_action(a1_torus, [(torus_flip, 1)], group=FiniteGroup.cyclic(2)),
              [(torus_flip, 1)])]
    for action, given in cases:
        # held by make_action, and the matrices the pairs solve to
        assert "generator_images" in vars(action)
        gens = action.group.generating_set
        solved = rootdatum_module._automorphisms_from_permutations(
            action.datum, [action.root_perms[g] for g in gens],
            [action.blocks[g] for g in gens])
        assert action.generator_images == tuple(solved)
        # every element of these generating sets is a given generator's
        assert set(action.generator_images) <= {DatumAutomorphism(m) for m, _ in given}
    assert cases[-1][0].generator_images[0].on_characters == torus_flip
    assert cases[-1][0].blocks[1] == ((-1,),)


def test_a_generating_element_no_generator_names_is_solved_for():
    # Z/4 labeled at 3: the greedy generating set is {1}, the cube of
    # the given generator, which only its pair describes
    datum = from_cartan_type("A1:sc x A1:sc").datum
    quarter = ((0, -1), (1, 0))
    action = make_action(datum, [(quarter, 3)], group=FiniteGroup.cyclic(4))
    assert action.group.generating_set == (1,)
    assert "generator_images" not in vars(action)
    assert action.generator_images[0].on_characters == ((0, 1), (-1, 0))


# ---------------------------------------------------------------------------
# restricted reflections handed over from the lifts


def _skewed_fold_action(spec, builder):
    """The action of ``builder()`` on ``spec`` written in skewed bases of
    both lattices, with an explicit pairing; the datum is verified, so
    its reflections are cached before any fold."""
    from rootfold.lattice import identity_matrix, mat_mul, unimodular_inverse

    based = from_cartan_type(spec)
    n = based.datum.rank
    u = tuple(tuple(x + int((i, j) == (0, n - 1)) for j, x in enumerate(row))
              for i, row in enumerate(identity_matrix(n)))
    v = tuple(tuple(x + int((i, j) == (n - 1, 0)) for j, x in enumerate(row))
              for i, row in enumerate(identity_matrix(n)))
    skew = skew_realization(based.datum, u, v)
    assert not skew.has_standard_pairing and rootdatum_module.verify_axioms(skew) == []
    gen = mat_mul(u, mat_mul(builder(), unimodular_inverse(u)))
    return make_action(BasedRootDatum(skew, based.base), [(gen, "g")]), ()


def _golden_fold_with_galois(name):
    """A golden fold document with a Galois block added, acting by its
    gamma matrix, which commutes with itself."""
    import json

    obj = json.loads((GOLDEN / name).read_text())
    gamma = obj["actions"]["gamma"]
    obj["actions"]["galois"] = dict(gamma, role="galois")
    doc = parse_datum(json.dumps(obj))
    return doc.actions["gamma"], [doc.actions["galois"]]


def _case_fold_action(case):
    _, spec, builder, *_ = case
    return make_action(from_cartan_type(spec), [(builder(), "g")]), ()


D6_FLIP = (None, "D6:sc", lambda: node_permutation_matrix(
    {0: 0, 1: 1, 2: 2, 3: 3, 4: 5, 5: 4}, 6))
GAMMA_GOLDEN = ["A1xA1-swap.datum", "A2-flip.datum", "A3-flip.datum", "D4-triality.datum"]
HANDED_FOLDS = {
    **{case[0]: lambda case=case: _case_fold_action(case) for case in FOLD_TABLE + [SLOW_FOLD]},
    "D6 flip": lambda: _case_fold_action(D6_FLIP),
    **{f"{name} with galois": lambda name=name: _golden_fold_with_galois(name)
       for name in GAMMA_GOLDEN},
    **{f"skewed {case[0]}": lambda case=case: _skewed_fold_action(*case[1:3])
       for case in FOLD_TABLE if case[0] in ("A3 flip", "A4 flip", "D4 triality")},
}


@pytest.mark.parametrize("name", sorted(HANDED_FOLDS))
def test_restricted_reflections_handed_over_are_the_direct_ones(name, monkeypatch):
    action, commuting = HANDED_FOLDS[name]()
    direct = []
    monkeypatch.setattr(rootdatum_module, "_reflection_permutation",
                        lambda d, k: direct.append(k) or _reflection_permutation(d, k))
    fold = restrict(action, commuting)
    assert direct == []   # nothing read off the pairing
    datum = fold.datum
    copy = RootDatum(datum.rank, datum.roots, datum.coroots, datum.pairing)
    cache = datum._reflection_perms
    assert sorted(cache) == list(range(len(datum.roots)))
    assert all(cache[k] == _reflection_permutation(copy, k) for k in cache)
    assert len(fold.induced) == len(commuting)


def test_restrict_hands_over_the_doubled_base_roots():
    # the A4 flip folds to BC2: the double of a base root is a root, and
    # no Weyl image of a base root
    fold = restrict(HANDED_FOLDS["A4 flip"]()[0])
    datum = fold.datum
    doubles = [rootdatum_module._double(datum, b) for b in fold.base]
    (b, double), = [(b, k) for b, k in zip(fold.base, doubles) if k is not None]
    assert datum._reflection_perms[double] == datum._reflection_perms[b]
    assert datum._conjugating_reflections == [datum._reflection_perms[i] for i in fold.base]


def test_a_lift_tampered_before_restrict_is_refused_by_the_descent_checks():
    # restrict trusts the lifts it hands over; weyl_descent_iso's checks
    # of each lift against the source reflections and the lattice stay
    from rootfold.folding import weyl_descent_iso
    from rootfold.rootdatum import compose, identity_permutation

    messages = set()
    for spec, builder in [("A3:sc", FOLD_TABLE[1][2]), ("A4:sc", FOLD_TABLE[2][2]),
                          ("A5:sc", FOLD_TABLE[3][2])]:
        healthy = make_action(from_cartan_type(spec), [(builder(), "g")])
        lifts = healthy.base_lifts
        one, two = list(lifts)[:2]
        (xi, lift), n = lifts[one], len(healthy.datum.roots)
        for tampered in ({**lifts, one: lifts[two], two: lifts[one]},
                         {**lifts, one: (xi, compose(lift, healthy.generator_perms[0]))},
                         {**lifts, one: (xi, identity_permutation(n))}):
            action = make_action(from_cartan_type(spec), [(builder(), "g")])
            vars(action)["base_lifts"] = tampered
            fold = restrict(action)
            with pytest.raises(AssertionError) as err:
                weyl_descent_iso(fold)
            messages.add(str(err.value))
    assert messages == {"embedding relation fails on the lattice",
                        "orthogonal orbit reflections do not commute"}


def test_the_descent_keeps_its_table_check(monkeypatch):
    import rootfold.folding as folding_module

    checks = []
    real = folding_module._check_multiplicative
    monkeypatch.setattr(folding_module, "_check_multiplicative",
                        lambda *a: checks.append(len(a[0])) or real(*a))
    for case in FOLD_TABLE:
        folding_module.weyl_descent_iso(restrict(_case_fold_action(case)[0]))
    assert len(checks) == len(FOLD_TABLE) and all(checks)
