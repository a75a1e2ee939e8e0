"""The shared breadth-first closure and the homomorphism extension that
``make_action`` runs through it, against a brute-force oracle; and the
checks that look at generator images only, against references that
look at every image."""

from functools import lru_cache
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from rootfold.action import (
    DatumAction,
    FiniteGroup,
    actions_commute,
    coinvariants,
    make_action,
)
from rootfold.errors import EnumerationOverflow, InvalidActionError
from rootfold.folding import restrict
from rootfold.lattice import (
    identity_matrix,
    integer_kernel,
    mat_mul,
    mat_vec,
    quotient_lattice,
    vec_sub,
)
from rootfold.rootdatum import (
    BasedRootDatum,
    DatumAutomorphism,
    RootDatum,
    _annihilator_block,
    _automorphisms_from_permutations,
    closure,
    compose,
    from_cartan_type,
    identity_permutation,
    root_permutation,
    weyl_group,
)
from rootfold.twist import equivariant_automorphism_group

from test_rootdatum import weyl_elements

# ---------------------------------------------------------------------------
# closure


def test_closure_is_breadth_first():
    # words in a, b of length at most 2, one layer per length
    grow = [lambda w, c=c: w + c if len(w) < 2 else w for c in "ab"]
    assert closure([""], grow) == ["", "a", "b", "aa", "ab", "ba", "bb"]


def test_closure_drops_repeated_seeds_and_keeps_their_order():
    assert closure([3, 1, 3], []) == [3, 1]
    assert closure([2, 0, 2], [lambda x: (x + 2) % 4]) == [2, 0]
    assert closure([5, 0], [lambda x: (x + 5) % 10, lambda x: (x + 2) % 10]) == [
        5, 0, 7, 2, 9, 4, 1, 6, 3, 8]


def test_closure_bound_is_checked_after_each_layer():
    calls = []

    def step(k):
        def f(x):
            calls.append(x)
            return x + k
        return f

    # layer 1 brings the count to 4 > 2; all three maps run before the raise
    with pytest.raises(EnumerationOverflow) as err:
        closure([0], [step(1), step(2), step(3)], bound=2, what="walk")
    assert str(err.value) == "walk exceeds 2 elements"
    assert len(calls) == 3


def test_closure_bound_is_exceeded_not_reached():
    cycle = [lambda x: (x + 1) % 10]
    assert len(closure([0], cycle, bound=10)) == 10
    with pytest.raises(EnumerationOverflow, match="^closure exceeds 9 elements$"):
        closure([0], cycle, bound=9)


def test_weyl_group_overflow_message(monkeypatch):
    import rootfold.rootdatum as rootdatum_module

    monkeypatch.setattr(rootdatum_module, "WEYL_BOUND", 23)
    with pytest.raises(EnumerationOverflow,
                       match="^reflection group exceeds 23 elements$"):
        weyl_group(from_cartan_type("A3:sc").datum)
    monkeypatch.setattr(rootdatum_module, "WEYL_BOUND", 24)
    assert len(weyl_group(from_cartan_type("A3:sc").datum)) == 24


def test_generator_closure_overflow_message(monkeypatch):
    import rootfold.action as action_module

    d = from_cartan_type("A2:sc").datum
    rot = ((0, 1), (-1, -1))  # order 3, a product of two simple reflections
    monkeypatch.setattr(action_module, "CLOSURE_BOUND", 2)
    with pytest.raises(EnumerationOverflow,
                       match="^generator closure exceeds 2 elements$"):
        make_action(d, [(rot, "r")])
    monkeypatch.setattr(action_module, "CLOSURE_BOUND", 3)
    assert len(make_action(d, [(rot, "r")]).group) == 3


# ---------------------------------------------------------------------------
# explicit-group make_action against a brute-force homomorphism search


def symmetric_group_3():
    labels = tuple(permutations(range(3)))
    table = tuple(
        tuple(labels.index(tuple(p[q[i]] for i in range(3))) for q in labels)
        for p in labels)
    return FiniteGroup.from_table(labels, table)


GROUPS = {
    "cyclic:4": FiniteGroup.cyclic(4),
    "Z/2xZ/2": FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2)),
    "S3": symmetric_group_3(),
}

# every automorphism of each datum: W(A2) x Z/2 (12) and the dihedral
# group of order 8 on A1 x A1
DATA = {spec: (from_cartan_type(spec).datum,
               [a.on_characters for a in
                weyl_elements(equivariant_automorphism_group(from_cartan_type(spec)))])
        for spec in ("A2:sc", "A1:sc x A1:sc")}


def generated_subgroup(group, elements):
    """Products of the elements until nothing new appears."""
    sub = {group.identity}
    while True:
        bigger = sub | {group.mul(x, g) for x in sub for g in elements}
        if bigger == sub:
            return sub
        sub = bigger


def homomorphisms(group, sub, assigned, matrices):
    """Every map phi on ``sub`` with phi(x) phi(y) = phi(xy) and
    phi = assigned where given, by exhaustive backtracking."""
    order = sorted(sub, key=lambda x: (x not in assigned, x))
    ident = identity_matrix(len(matrices[0]))
    phi = {}

    def consistent():
        return all(mat_mul(phi[u], phi[v]) == phi[group.mul(u, v)]
                   for u in phi for v in phi if group.mul(u, v) in phi)

    def search(k):
        if k == len(order):
            yield dict(phi)
            return
        x = order[k]
        if x in assigned:
            choices = [assigned[x]]
        elif x == group.identity:
            choices = [ident]
        else:
            choices = matrices
        for m in choices:
            phi[x] = m
            if consistent():
                yield from search(k + 1)
            del phi[x]

    return search(0)


@lru_cache(maxsize=None)
def all_homomorphisms(group_name, spec):
    group = GROUPS[group_name]
    return list(homomorphisms(group, set(group.elements()), {}, DATA[spec][1]))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_explicit_group_assignment_matches_brute_force(data):
    name = data.draw(st.sampled_from(sorted(GROUPS)), label="group")
    spec = data.draw(st.sampled_from(sorted(DATA)), label="datum")
    group = GROUPS[name]
    datum, matrices = DATA[spec]
    labeled = data.draw(st.lists(st.integers(0, len(group) - 1), max_size=3,
                                 unique=True), label="labeled elements")
    # half the time the values come from a homomorphism, so that
    # consistent assignments are common
    if data.draw(st.booleans(), label="from a homomorphism"):
        hom = data.draw(st.sampled_from(all_homomorphisms(name, spec)), label="hom")
        assigned = {x: hom[x] for x in labeled}
    else:
        assigned = {x: data.draw(st.sampled_from(matrices), label="value")
                    for x in labeled}
    generators = [(m, group.labels[x]) for x, m in assigned.items()]

    sub = generated_subgroup(group, assigned)
    phi = next(homomorphisms(group, sub, assigned, matrices), None)
    if phi is None:
        expected = "generator assignment is inconsistent with the group table"
    elif len(sub) != len(group):
        expected = "the labeled generators do not generate the group"
    else:
        action = make_action(datum, generators, group=group)
        assert [a.on_characters for a in action.images] == [
            phi[x] for x in group.elements()]
        return
    with pytest.raises(InvalidActionError) as err:
        make_action(datum, generators, group=group)
    assert str(err.value) == expected


def homomorphism_failure(group, images):
    """The first pair (a, b) with images[a] images[b] != images[ab], by
    checking all |G|^2 pairs, or None."""
    for a in group.elements():
        for b in group.elements():
            if mat_mul(images[a], images[b]) != images[group.mul(a, b)]:
                return a, b
    return None


def pair_of(datum, aut):
    """The root permutation and the annihilator block of ``aut``."""
    return root_permutation(datum, aut), _annihilator_block(datum, aut.on_characters)


def pairs_of(datum, auts):
    """The root permutations and the annihilator blocks of ``auts``, as
    two tuples."""
    return tuple(zip(*(pair_of(datum, a) for a in auts)))


def matrix_verdict(group, images, target):
    """The refusal the matrix law gives to the character matrices
    ``images``, or None: the identity, then
    images[a] images[g] == images[a g] for every a and every g in
    ``group.generating_set``, in that order, then the base under the
    images of ``group.generating_set``."""
    if images[group.identity] != identity_matrix(len(images[0])):
        return "identity element must act trivially"
    for a in group.elements():
        for g in group.generating_set:
            if mat_mul(images[a], images[g]) != images[group.mul(a, g)]:
                return (f"images are not a homomorphism at "
                        f"({group.labels[a]!r}, {group.labels[g]!r})")
    if isinstance(target, BasedRootDatum):
        simple = set(target.simple_roots)
        for g in group.generating_set:
            if {mat_vec(images[g], r) for r in simple} != simple:
                return f"element {group.labels[g]!r} does not stabilize the base"
    return None


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_build_accepts_exactly_the_homomorphisms(data):
    name = data.draw(st.sampled_from(sorted(GROUPS)), label="group")
    spec = data.draw(st.sampled_from(sorted(LEFT_DATA)), label="datum")
    group = GROUPS[name]
    datum, matrices = LEFT_DATA[spec]
    # a homomorphism, with some images then redrawn at random, so that
    # both outcomes are common; on the torus datum some images differ
    # from the law on the annihilator block only
    hom = data.draw(st.sampled_from(left_homomorphisms(name, spec)), label="hom")
    images = [hom[x] for x in group.elements()]
    for x in data.draw(st.lists(st.integers(0, len(group) - 1), max_size=3),
                       label="redrawn elements"):
        images[x] = data.draw(st.sampled_from(matrices), label="value")
    perms, blocks = pairs_of(datum, [DatumAutomorphism.from_matrix(m) for m in images])
    failure = homomorphism_failure(group, images)
    if failure is None:
        action = DatumAction.build(group, perms, blocks, datum)
        assert "images" not in vars(action)
        assert [a.on_characters for a in action.images] == images
        return
    with pytest.raises(InvalidActionError) as err:
        DatumAction.build(group, perms, blocks, datum)
    message = str(err.value)
    assert message == matrix_verdict(group, images, datum)
    if images[group.identity] != identity_matrix(datum.rank):
        assert message == "identity element must act trivially"
        return
    # the message names a pair at which the law fails
    pairs = [(a, b) for a in group.elements() for b in group.elements()
             if message == (f"images are not a homomorphism at "
                            f"({group.labels[a]!r}, {group.labels[b]!r})")]
    assert len(pairs) == 1
    (a, b), = pairs
    assert mat_mul(images[a], images[b]) != images[group.mul(a, b)]


# A1 plus a rank-1 torus, whose automorphisms are the four diag(+-1, +-1)
TORUS = RootDatum(2, ((2, 0), (-2, 0)), ((1, 0), (-1, 0)))
LEFT_DATA = dict(DATA, torus=(TORUS, [((a, 0), (0, d)) for a in (1, -1) for d in (1, -1)]))
LEFT_BASED = {spec: from_cartan_type(spec) for spec in DATA}
LEFT_BASED["torus"] = BasedRootDatum(TORUS, (0,))


@lru_cache(maxsize=None)
def left_homomorphisms(group_name, spec):
    group = GROUPS[group_name]
    return list(homomorphisms(group, set(group.elements()), {}, LEFT_DATA[spec][1]))


def outcome(build):
    """What ``build()`` returns, or the message of its InvalidActionError."""
    try:
        return build()
    except InvalidActionError as err:
        return str(err)


def left_multiplied(action, factors, target):
    """s -> factors[s] . action(s) on ``target``, for factors that fix
    the annihilator of the coroots pointwise, as ``twist.star_action``
    and ``twist.twist_datum`` build it: the composed permutations and
    the blocks of ``action``."""
    return DatumAction.build(
        action.group, [compose(root_permutation(action.datum, f), p)
                       for f, p in zip(factors, action.root_perms)],
        action.blocks, target)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_left_products_get_the_verdicts_of_the_matrix_law(data):
    # f_s . a_s for an action a and W-valued factors f_s: at first
    # w a_s w^-1 a_s^-1 for a drawn w, which makes a homomorphism, with
    # some factors then redrawn at random.  The source is built from
    # matrices, or itself a left product, and the target based or not.
    name = data.draw(st.sampled_from(sorted(GROUPS)), label="group")
    spec = data.draw(st.sampled_from(sorted(LEFT_DATA)), label="datum")
    group = GROUPS[name]
    datum = LEFT_DATA[spec][0]
    hom = data.draw(st.sampled_from(left_homomorphisms(name, spec)), label="hom")
    weyl = weyl_group(datum)
    by_perm = dict(zip(weyl.perms, _automorphisms_from_permutations(datum, weyl.perms)))
    perms = sorted(by_perm)

    def conjugating(images):
        w = by_perm[data.draw(st.sampled_from(perms), label="w")]
        return [w * a * w.inverse() * a.inverse() for a in images]

    images = [DatumAutomorphism.from_matrix(hom[x]) for x in group.elements()]
    source = DatumAction.build(group, *pairs_of(datum, images), datum)
    if data.draw(st.booleans(), label="lazy source"):
        inner = conjugating(images)
        source = left_multiplied(source, inner, datum)
        images = [f * a for f, a in zip(inner, images)]
    factors = conjugating(images)
    for x in data.draw(st.lists(st.integers(0, len(group) - 1), max_size=3),
                       label="redrawn elements"):
        factors[x] = by_perm[data.draw(st.sampled_from(perms), label="value")]
    target = LEFT_BASED[spec] if data.draw(st.booleans(), label="based") else datum
    auts = [f * a for f, a in zip(factors, images)]
    expected = matrix_verdict(group, [a.on_characters for a in auts], target)
    got = outcome(lambda: left_multiplied(source, factors, target))
    if expected is not None:
        assert got == expected
    else:
        assert "images" not in vars(got)
        assert (got.root_perms, got.blocks) == pairs_of(datum, auts)
        assert got.images == tuple(auts)
    # the matrix law over all |G|^2 pairs refuses exactly the same maps
    law = homomorphism_failure(group, [a.on_characters for a in auts])
    assert (law is None) == (not isinstance(got, str) or "stabilize" in got)


@lru_cache(maxsize=None)
def automorphisms(spec):
    """A datum and every automorphism of it."""
    if spec == "D4:sc":
        based = from_cartan_type(spec)
        return based.datum, tuple(weyl_elements(equivariant_automorphism_group(based)))
    datum, matrices = LEFT_DATA[spec]
    return datum, tuple(DatumAutomorphism.from_matrix(m) for m in matrices)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_pairs_multiply_and_compare_as_the_matrices_do(data):
    # an automorphism as its root permutation and its block on the
    # annihilator of the coroots, on A2, A1xA1, A1 plus a rank-1 torus
    # and D4 (1152 automorphisms)
    spec = data.draw(st.sampled_from(sorted(LEFT_DATA) + ["D4:sc"]), label="datum")
    datum, auts = automorphisms(spec)
    x = data.draw(st.sampled_from(auts), label="x")
    y = data.draw(st.sampled_from(auts), label="y")
    xy = x * y
    (p, b), (q, c) = pair_of(datum, x), pair_of(datum, y)
    assert (compose(p, q), mat_mul(b, c)) == pair_of(datum, xy)
    one = (identity_permutation(len(datum.roots)),
           identity_matrix(len(datum.coroot_annihilator)))
    assert ((p, b) == one) == x.is_identity()
    # equal pairs exactly for equal matrices: against the reversed
    # product, equal when x and y commute, or the product formed again
    z = data.draw(st.sampled_from([y * x, DatumAutomorphism.from_matrix(xy.on_characters)]),
                  label="z")
    assert (pair_of(datum, z) == pair_of(datum, xy)) == (z == xy)
    # the images built on read from the pairs are the matrix products;
    # ``images`` reads no group, so the record is built unchecked
    lazy = DatumAction(FiniteGroup.cyclic(3), (p, q, compose(p, q)),
                       (b, c, mat_mul(b, c)), datum)
    assert lazy.images == (x, y, xy)

def test_labels_that_do_not_generate_are_rejected():
    d = from_cartan_type("A2:sc").datum
    flip = ((0, 1), (1, 0))
    with pytest.raises(InvalidActionError,
                       match="^the labeled generators do not generate the group$"):
        make_action(d, [(flip, 2)], group=FiniteGroup.cyclic(4))
    with pytest.raises(InvalidActionError, match="do not generate"):
        make_action(d, [], group=FiniteGroup.cyclic(2))


# ---------------------------------------------------------------------------
# checks made on generator images, against references over every image


def every_action(spec, target):
    """The action of every homomorphism from every group of GROUPS into
    the automorphisms of DATA[spec], each built from the images of its
    group's generating set."""
    out = []
    for name, group in sorted(GROUPS.items()):
        for hom in all_homomorphisms(name, spec):
            gens = [(hom[x], group.labels[x]) for x in group.generating_set]
            out.append(make_action(target, gens, group=group))
    return out


def commute_on_every_pair(a, b):
    return all(mat_mul(x.on_characters, y.on_characters)
               == mat_mul(y.on_characters, x.on_characters)
               for x in a.images for y in b.images)


@pytest.mark.parametrize("spec", sorted(DATA))
def test_actions_commute_agrees_with_every_pair_of_images(spec):
    actions = every_action(spec, from_cartan_type(spec).datum)
    outcomes = set()
    for a in actions:
        for b in actions:
            expected = commute_on_every_pair(a, b)
            assert actions_commute(a, b) == expected
            outcomes.add(expected)
    assert outcomes == {True, False}


@pytest.mark.parametrize("spec", sorted(DATA))
def test_coinvariants_hold_against_every_image(spec):
    datum = from_cartan_type(spec).datum
    n = datum.rank
    basis = identity_matrix(n)
    for action in every_action(spec, datum):
        cv = coinvariants(action)
        relations = [vec_sub(e, a.apply(e)) for a in action.images for e in basis]
        for r in relations:
            assert not any(cv.project(r))
        for a in action.images:
            for v in cv.fixed_basis:
                assert a.apply_cochar(v) == v
        stacked = [tuple(a.on_cocharacters[i][j] - int(i == j) for j in range(n))
                   for a in action.images for i in range(n)]
        assert cv.fixed_basis == integer_kernel(stacked)
        quotient = quotient_lattice(n, relations)
        assert (cv.projection, cv.torsion) == (quotient.projection,
                                               quotient.torsion_invariants)


@pytest.mark.parametrize("spec", sorted(DATA))
def test_restrict_descends_every_image_of_a_commuting_action(spec):
    based = from_cartan_type(spec)
    flip = ((0, 1), (1, 0))
    outcomes = set()
    for gamma in (make_action(based, [(flip, "g")]),
                  make_action(based, [], group=FiniteGroup.trivial())):
        for other in every_action(spec, based.datum):
            outcomes.add(commute_on_every_pair(gamma, other))
            if not commute_on_every_pair(gamma, other):
                with pytest.raises(InvalidActionError, match="fails to commute"):
                    restrict(gamma, (other,))
                continue
            fold = restrict(gamma, (other,))
            cv = fold.coinvariants
            induced, = fold.induced
            assert induced.group is other.group
            for a, m in zip(other.images, induced.images):
                quotient_map = mat_mul(cv.projection, mat_mul(a.on_characters, cv.section))
                assert m.on_characters == quotient_map
                assert mat_mul(quotient_map, cv.projection) == mat_mul(
                    cv.projection, a.on_characters)
    assert outcomes == {True, False}


@pytest.mark.parametrize("spec", sorted(DATA))
def test_the_base_check_names_the_least_element_that_moves_the_base(spec):
    based = from_cartan_type(spec)
    simple = {based.datum.roots[k] for k in based.base}
    outcomes = set()
    for name, group in sorted(GROUPS.items()):
        for hom in all_homomorphisms(name, spec):
            gens = [(hom[x], group.labels[x]) for x in group.generating_set]
            moving = [x for x in group.elements()
                      if {mat_vec(hom[x], r) for r in simple} != simple]
            outcomes.add(not moving)
            if not moving:
                make_action(based, gens, group=group)
                continue
            with pytest.raises(InvalidActionError) as err:
                make_action(based, gens, group=group)
            label = group.labels[moving[0]]
            assert str(err.value) == f"element {label!r} does not stabilize the base"
    assert outcomes == {True, False}


def test_make_action_maps_the_roots_by_the_generators_only(monkeypatch):
    # E8 x E8 with the factor swap over Z/64: one generator, so one
    # root permutation walked from the base; the other 63 images have
    # theirs composed
    import rootfold.action as action_module

    calls = []
    walk = action_module._walk_automorphism
    monkeypatch.setattr(action_module, "_walk_automorphism",
                        lambda *args: calls.append("walked") or walk(*args))
    based = from_cartan_type("E8:sc x E8:sc")
    swap = tuple(tuple(int(j == (i + 8) % 16) for j in range(16)) for i in range(16))
    action = make_action(based, [(swap, 1)], group=FiniteGroup.cyclic(64))
    assert calls == ["walked"]
    perm_of = {a: root_permutation(based.datum, a) for a in set(action.images)}
    assert len(perm_of) == 2
    assert action.root_perms == tuple(perm_of[a] for a in action.images)
