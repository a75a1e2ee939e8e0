from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from rootfold.errors import EnumerationOverflow, UnknownTypeError
from rootfold.lattice import integer_kernel, mat_vec
from rootfold.rootdatum import (
    BasedRootDatum,
    RootDatum,
    _automorphisms_from_permutations,
    base_of,
    canonical_base,
    classify,
    contragredient,
    from_cartan_type,
    is_positive_system,
    is_reduced,
    positive_systems,
    reflection,
    root_permutation,
    verify_axioms,
    verify_base,
    weyl_group,
)
from rootfold.selftest import FOLD_TABLE


def test_a1_sc_realization():
    b = from_cartan_type("A1:sc")
    d = b.datum
    assert set(d.roots) == {(2,), (-2,)}
    assert set(d.coroots) == {(1,), (-1,)}
    assert verify_axioms(d) == []
    assert verify_base(b) == []


def test_a1_ad_realization():
    d = from_cartan_type("A1:ad").datum
    assert set(d.roots) == {(1,), (-1,)}
    assert set(d.coroots) == {(2,), (-2,)}
    assert verify_axioms(d) == []


def test_a2_sc_realization():
    b = from_cartan_type("A2:sc")
    d = b.datum
    assert len(d.roots) == 6
    assert {(2, -1), (-1, 2), (1, 1)} <= set(d.roots)
    assert set(b.simple_coroots) == {(1, 0), (0, 1)}
    assert verify_axioms(d) == []
    assert verify_base(b) == []


def test_verify_axioms_rejects_bad_pairing():
    d = RootDatum(1, ((2,), (-2,)), ((2,), (-2,)))
    problems = verify_axioms(d)
    assert any("expected 2" in p for p in problems)


def test_verify_axioms_rejects_missing_negative():
    d = RootDatum(1, ((2,),), ((1,),))
    problems = verify_axioms(d)
    assert any("negation" in p for p in problems)


def test_reflection_a1():
    d = from_cartan_type("A1:sc").datum
    i = d.index_of((2,))
    w = reflection(d, i)
    assert w.apply((1,)) == (-1,)


def test_reflection_a2_formula_oracle():
    # oracle: apply x - <x, coroot> root directly, independent of the
    # matrix construction inside reflection()
    d = from_cartan_type("A2:sc").datum
    i = d.index_of((2, -1))
    w = reflection(d, i)
    for x in [(1, 0), (0, 1), (3, -2), (1, 1)]:
        n = d.pair(x, d.coroots[i])
        expect = tuple(a - n * b for a, b in zip(x, d.roots[i]))
        assert w.apply(x) == expect
    assert w.apply((1, 0)) == (-1, 1)
    assert w.apply((0, 1)) == (0, 1)


def test_reflection_is_involution():
    for spec in ["A2:sc", "B2:sc", "G2:ad", "BC2"]:
        d = from_cartan_type(spec).datum
        for i in range(len(d.roots)):
            w = reflection(d, i)
            assert (w * w).is_identity()


def test_reflection_fixes_pairing_hyperplane():
    d = from_cartan_type("A2:sc").datum
    for i in range(len(d.roots)):
        cov_row = (mat_vec(d.pairing_matrix, d.coroots[i]),)
        w = reflection(d, i)
        for v in integer_kernel(cov_row):
            assert w.apply(v) == v
        assert w.apply(d.roots[i]) == tuple(-x for x in d.roots[i])


WEYL_TABLE = [
    ("A1:sc", 2, 2),
    ("A2:sc", 6, 6),
    ("A3:sc", 12, 24),
    ("A4:sc", 20, 120),
    ("B2:sc", 8, 8),
    ("B3:sc", 18, 48),
    ("C3:sc", 18, 48),
    ("D4:sc", 24, 192),
    ("G2:sc", 12, 12),
    ("BC1", 4, 2),
    ("BC2", 12, 8),
]


@pytest.mark.parametrize("spec,nroots,order", WEYL_TABLE)
def test_weyl_orders_by_enumeration(spec, nroots, order):
    b = from_cartan_type(spec)
    d = b.datum
    assert verify_axioms(d) == []
    assert len(d.roots) == nroots
    assert len(weyl_group(d)) == order
    assert len(weyl_group(d, base=b.base)) == order


def test_weyl_a_series_matches_factorials():
    for n in range(1, 5):
        d = from_cartan_type(f"A{n}:sc").datum
        assert len(d.roots) == n * (n + 1)
        assert len(weyl_group(d)) == factorial(n + 1)


def weyl_elements(group):
    """The matrices of the elements of a ``WeylGroup``, sorted by
    character matrix, the order the tests compare with references in."""
    return sorted(_automorphisms_from_permutations(group.datum, group.perms),
                  key=lambda a: a.on_characters)


def test_weyl_group_closure_properties():
    d = from_cartan_type("A2:sc").datum
    w = weyl_elements(weyl_group(d))
    mats = {a.on_characters for a in w}
    for a in w:
        assert a.inverse().on_characters in mats
        for b in w:
            assert (a * b).on_characters in mats
        assert root_permutation(d, a) is not None


def test_weyl_enumeration_overflow(monkeypatch):
    import rootfold.rootdatum as rootdatum_module

    d = from_cartan_type("A3:sc").datum
    monkeypatch.setattr(rootdatum_module, "WEYL_BOUND", 5)
    with pytest.raises(EnumerationOverflow):
        weyl_group(d)


def test_from_cartan_type_unknown():
    for bad in ["Z2", "A0", "E9", "BC0", "F5", "A2:xx", "A9"]:
        with pytest.raises(UnknownTypeError):
            from_cartan_type(bad)


def test_product_datum():
    b = from_cartan_type("A1:sc x A1:sc")
    d = b.datum
    assert d.rank == 2
    assert set(d.roots) == {(2, 0), (-2, 0), (0, 2), (0, -2)}
    assert verify_axioms(d) == []
    assert classify(d) == [("A1", 2)]
    assert len(weyl_group(d)) == 4


def hand_enumerated_bc(rank):
    """BC_n listed by hand: (±e_i, ±2e_i), (±2e_i, ±e_i) and
    (±e_i ± e_j, same) for i < j, sorted, with the base e_i - e_{i+1},
    e_n.  The realization before it was closed from the simple pairs,
    kept as the reference."""
    e = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    pairs = []
    for i in range(rank):
        pairs.append((e[i], tuple(2 * x for x in e[i])))
        pairs.append((tuple(2 * x for x in e[i]), e[i]))
        for j in range(i + 1, rank):
            pairs.append((tuple(a + b for a, b in zip(e[i], e[j])),) * 2)
            pairs.append((tuple(a - b for a, b in zip(e[i], e[j])),) * 2)
    pairs += [(tuple(-x for x in r), tuple(-x for x in c)) for r, c in pairs]
    pairs.sort()
    datum = RootDatum(rank, tuple(r for r, _ in pairs), tuple(c for _, c in pairs))
    simples = [tuple(a - b for a, b in zip(e[i], e[i + 1])) for i in range(rank - 1)]
    return datum, tuple(sorted(datum.index_of(s) for s in simples + [e[-1]]))


@pytest.mark.parametrize("rank", range(1, 9))
def test_bc_closed_from_simples_matches_the_hand_enumeration(rank):
    b = from_cartan_type(f"BC{rank}")
    datum, base = hand_enumerated_bc(rank)
    assert b.datum == datum
    assert (b.datum.roots, b.datum.coroots, b.datum.pairing) == (
        datum.roots, datum.coroots, datum.pairing)
    assert b.base == base


CLASSIFY_ROUNDTRIP = [
    "A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4",
    "D4", "D5", "G2", "F4", "BC1", "BC2", "BC3",
]


@pytest.mark.parametrize("name", CLASSIFY_ROUNDTRIP)
def test_classify_roundtrip(name):
    tag = "" if name.startswith("BC") else ":sc"
    d = from_cartan_type(name + tag).datum
    assert classify(d) == [(name, 1)]


def test_classify_ad_realization_matches():
    assert classify(from_cartan_type("A3:ad").datum) == [("A3", 1)]
    assert classify(from_cartan_type("B3:ad").datum) == [("B3", 1)]


def test_classify_b2_c2_identified():
    # B2 and C2 are the same root system up to relabeling; the rank-2
    # member of the B/C family is reported as B2
    assert classify(from_cartan_type("C2:sc").datum) == [("B2", 1)]


def test_positive_systems_a1():
    d = from_cartan_type("A1:sc").datum
    assert len(positive_systems(d)) == 2


def test_positive_systems_a2():
    d = from_cartan_type("A2:sc").datum
    systems = positive_systems(d)
    assert len(systems) == 6
    for s in systems:
        assert is_positive_system(d, s)


def test_base_of_a2():
    d = from_cartan_type("A2:sc").datum
    pos = frozenset(d.index_of(v) for v in [(2, -1), (-1, 2), (1, 1)])
    assert is_positive_system(d, pos)
    base = base_of(d, pos)
    assert {d.roots[i] for i in base} == {(2, -1), (-1, 2)}


def test_positive_system_count_equals_weyl_order():
    for spec in ["A1:sc", "A2:sc", "A3:sc", "B2:sc", "B3:ad", "G2:sc",
                 "A1:sc x A1:sc", "BC2"]:
        b = from_cartan_type(spec)
        assert len(positive_systems(b.datum)) == len(weyl_group(b.datum))


def test_is_reduced():
    assert is_reduced(from_cartan_type("A2:sc").datum)
    assert not is_reduced(from_cartan_type("BC1").datum)


def test_bc1_realization():
    b = from_cartan_type("BC1")
    d = b.datum
    assert list(zip(d.roots, d.coroots)) == sorted(
        zip(d.roots, d.coroots))
    pairs = dict(zip(d.roots, d.coroots))
    assert pairs[(1,)] == (2,)
    assert pairs[(2,)] == (1,)
    assert verify_axioms(d) == []
    assert b.simple_roots == ((1,),)
    assert verify_base(b) == []


def test_canonical_base_is_valid():
    # the canonical base need not equal the constructed one, but it
    # must be a valid base of the same datum, of the same size
    for spec in ["A2:sc", "B3:sc", "D4:sc", "BC2"]:
        b = from_cartan_type(spec)
        cb = canonical_base(b.datum)
        assert len(cb) == len(b.base)
        assert verify_base(BasedRootDatum(b.datum, cb)) == []


def test_root_coordinates_take_one_gram_adjugate_per_base(monkeypatch):
    from rootfold import lattice

    calls = []
    kernel = lattice.adjugate_and_det

    def counted(m):
        calls.append(len(m))
        return kernel(m)

    monkeypatch.setattr(lattice, "adjugate_and_det", counted)
    b = from_cartan_type("E8:sc")
    assert verify_base(b) == []   # walked and certified: no solve
    assert len(b.positive_system) == 120
    assert calls == []
    coordinates = b.root_coordinates
    assert calls == [8]
    for (x, d), r in zip(coordinates, b.datum.roots):
        assert all(c % d == 0 for c in x)
        assert tuple(sum(c // d * s[k] for c, s in zip(x, b.simple_roots))
                     for k in range(8)) == r


def test_verify_base_rejects_bad_base():
    b = from_cartan_type("A2:sc")
    d = b.datum
    bad = BasedRootDatum(d, (d.index_of((2, -1)), d.index_of((1, 1))))
    assert verify_base(bad) != []


def skew_realization(datum, u, v):
    """The same datum written in independently changed bases on the two
    lattices, which forces an explicit nontrivial pairing matrix."""
    from rootfold.lattice import mat_mul, mat_vec, transpose, unimodular_inverse

    pairing = mat_mul(transpose(unimodular_inverse(u)), unimodular_inverse(v))
    return RootDatum(
        datum.rank,
        tuple(mat_vec(u, r) for r in datum.roots),
        tuple(mat_vec(v, c) for c in datum.coroots),
        pairing,
    )


def test_explicit_pairing_realizations():
    u = ((1, 1), (0, 1))
    v = ((1, 0), (2, 1))
    for spec in ["A2:sc", "B2:sc", "BC2"]:
        d = from_cartan_type(spec).datum
        skew = skew_realization(d, u, v)
        assert skew.pairing_matrix != ((1, 0), (0, 1))
        assert verify_axioms(skew) == []
        assert classify(skew) == classify(d)
        assert len(weyl_group(skew)) == len(weyl_group(d))
        assert len(positive_systems(skew)) == len(positive_systems(d))


def test_explicit_pairing_isomorphism_search():
    # the isomorphism search must bridge a standard realization and a
    # skewed one with a genuinely different pairing matrix
    from rootfold.action import FiniteGroup, make_action
    from rootfold.twist import equivariant_isomorphic

    d = from_cartan_type("A2:sc").datum
    skew = skew_realization(d, ((1, 1), (0, 1)), ((1, 0), (2, 1)))
    a1 = make_action(d, [], group=FiniteGroup.trivial())
    a2 = make_action(skew, [], group=FiniteGroup.trivial())
    iso = equivariant_isomorphic(d, [a1], skew, [a2])
    assert iso is not None
    # the map must carry roots to roots with matching coroots
    cochars = contragredient(iso.on_characters, None, skew.pairing_matrix)
    for i in range(len(d.roots)):
        j = skew.index_of(mat_vec(iso.on_characters, d.roots[i]))
        assert mat_vec(cochars, d.coroots[i]) == skew.coroots[j]


def test_weyl_group_with_torus_factor():
    # rank 2 datum whose roots span only a line: W fixes the torus direction
    d = RootDatum(2, ((2, 0), (-2, 0)), ((1, 0), (-1, 0)))
    assert not d.is_semisimple
    assert verify_axioms(d) == []
    w = weyl_group(d)
    assert len(w) == 2
    nontriv = next(a for a in _automorphisms_from_permutations(d, w.perms)
                   if not a.is_identity())
    assert nontriv.apply((0, 1)) == (0, 1)  # torus direction fixed
    assert len(positive_systems(d)) == 2


# ---------------------------------------------------------------------------
# Weyl elements as root permutations


def reference_weyl_matrices(datum):
    """Every Weyl element as (character matrix, cocharacter matrix), by
    closing the reflection matrices of both lattices under products: the
    matrix enumeration that root permutations replaced, kept as the
    reference for the character matrices built on demand and their
    contragredients.  The reflection in the root a with coroot c is
    x -> x - <x, c> a on characters and the mirror formula
    y -> y - <a, y> c on cocharacters."""
    from rootfold.lattice import identity_matrix, mat_mul, transpose

    def reflection_matrix(u, v):
        # I - u v^T
        return tuple(tuple(int(i == j) - a * b for j, b in enumerate(v))
                     for i, a in enumerate(u))

    p = datum.pairing_matrix
    gens = [(reflection_matrix(a, mat_vec(p, c)), reflection_matrix(c, mat_vec(transpose(p), a)))
            for a, c in zip(datum.roots, datum.coroots)]
    ident = identity_matrix(datum.rank)
    seen = {ident: ident}
    frontier = [(ident, ident)]
    while frontier:
        nxt = []
        for w, w_co in frontier:
            for g, g_co in gens:
                c = mat_mul(g, w)
                if c not in seen:
                    seen[c] = mat_mul(g_co, w_co)
                    nxt.append((c, seen[c]))
        frontier = nxt
    return sorted(seen.items())


def pairing_of(datum):
    return None if datum.has_standard_pairing else datum.pairing_matrix


def folded_bc2_with_pairing():
    """The BC2 datum folded out of A4 by its diagram flip, rewritten in
    skewed bases so that it carries an explicit pairing matrix."""
    from rootfold.action import make_action
    from rootfold.folding import restrict
    from rootfold.selftest import flip_matrix

    fold = restrict(make_action(from_cartan_type("A4:sc"), [(flip_matrix(4), "s")]))
    assert classify(fold.datum) == [("BC2", 1)]
    skew = skew_realization(fold.datum, ((1, 1), (0, 1)), ((1, 0), (2, 1)))
    assert skew.pairing_matrix != ((1, 0), (0, 1))
    return skew


A1_PLUS_TORUS = RootDatum(2, ((2, 0), (-2, 0)), ((1, 0), (-1, 0)))


@pytest.mark.parametrize("name", ["A3:sc", "B3:sc", "G2:sc", "A1+torus", "folded BC2"])
def test_weyl_permutations_and_matrices_match_reference(name):
    if name == "A1+torus":
        d = A1_PLUS_TORUS
    elif name == "folded BC2":
        d = folded_bc2_with_pairing()
    else:
        d = from_cartan_type(name).datum
    w = weyl_group(d)
    auts = _automorphisms_from_permutations(d, w.perms)
    for aut, perm in zip(auts, w.perms):
        assert root_permutation(d, aut) == perm
    p = pairing_of(d)
    assert sorted((a.on_characters, contragredient(a.on_characters, p, p))
                  for a in auts) == reference_weyl_matrices(d)


@pytest.mark.parametrize("table_row", FOLD_TABLE, ids=lambda row: row[0])
def test_no_weyl_group_layer_builds_a_matrix(monkeypatch, table_row):
    # the Weyl groups, the descent, the positive systems and Aut^Gamma
    # run on root permutations: once the fold is built, every binding of
    # the function that turns permutations into matrices raises
    import sys

    from rootfold.action import fixed_weyl, make_action
    from rootfold.folding import invariant_positive_systems, restrict, weyl_descent_iso
    from rootfold.twist import equivariant_automorphism_group

    def refuse(*args, **kwargs):
        raise AssertionError("a matrix was built from root permutations")

    _, spec, builder = table_row[:3]
    based = from_cartan_type(spec)
    action = make_action(based, [(builder(), "g")])
    fold = restrict(action)   # the lattice maps of the fold need matrices
    for module in [m for name, m in sys.modules.items() if name.startswith("rootfold")]:
        if hasattr(module, "_automorphisms_from_permutations"):
            monkeypatch.setattr(module, "_automorphisms_from_permutations", refuse)
    assert len(weyl_group(based.datum, base=based.base)) > 0
    assert len(fixed_weyl(action).perms) == len(weyl_descent_iso(fold).down)
    assert len(positive_systems(fold.datum)) == len(invariant_positive_systems(fold))
    assert len(equivariant_automorphism_group(based, commuting_with=action).perms) > 0


def test_permutation_not_induced_by_an_automorphism_raises():
    # the transposition of one root with its negative is not a Weyl
    # element of A2; the divisibility check must raise (also under -O)
    from rootfold.rootdatum import _automorphisms_from_permutations

    d = from_cartan_type("A2:sc").datum
    bad = list(range(len(d.roots)))
    i, j = 0, d.index_of(tuple(-x for x in d.roots[0]))
    bad[i], bad[j] = j, i
    with pytest.raises(AssertionError, match="not induced"):
        _automorphisms_from_permutations(d, [tuple(bad)])


def test_verify_axioms_accepts_e7():
    # |W(E7)| = 2 903 040 exceeds WEYL_BOUND; no closure is needed to
    # know the reflection group is finite
    d = from_cartan_type("E7:sc").datum
    assert len(d.roots) == 126
    assert verify_axioms(d) == []


def test_contragredient_with_separate_pairings():
    from rootfold.lattice import mat_mul, transpose

    m = ((2, 1), (1, 1))
    p1 = ((1, 1), (0, 1))
    p2 = ((1, 0), (2, 1))
    for src, dst in [(None, None), (p1, None), (None, p2), (p1, p2), (p1, p1)]:
        mc = contragredient(m, src, dst)
        lhs = mat_mul(transpose(m), mat_mul(dst or ((1, 0), (0, 1)), mc))
        assert lhs == (src or ((1, 0), (0, 1)))


@pytest.mark.parametrize("name", ["A3:sc", "B3:sc", "G2:sc", "A1+torus", "folded BC2"])
def test_reflection_permutation_matches_reflection_matrix(name):
    from rootfold.rootdatum import reflection_permutation

    if name == "A1+torus":
        d = A1_PLUS_TORUS
    elif name == "folded BC2":
        d = folded_bc2_with_pairing()
    else:
        d = from_cartan_type(name).datum
    for k in range(len(d.roots)):
        expected = root_permutation(d, reflection(d, k))
        assert expected is not None
        assert reflection_permutation(d, k) == expected
        assert reflection_permutation(d, k) is reflection_permutation(d, k)


def test_reflection_permutation_refuses_what_root_permutation_refuses():
    from rootfold.rootdatum import reflection_permutation

    # s_0 sends the root (1, 1) to (-1, 1), not a root
    off_roots = RootDatum(2, ((2, 0), (-2, 0), (1, 1), (-1, -1)),
                          ((1, 0), (-1, 0), (1, 1), (-1, -1)))
    # s_0 fixes the root (0, 2) but sends its coroot (1, 1) to (-1, 1)
    off_coroots = RootDatum(2, ((2, 0), (-2, 0), (0, 2), (0, -2)),
                            ((1, 0), (-1, 0), (1, 1), (-1, -1)))
    for d in (off_roots, off_coroots):
        assert root_permutation(d, reflection(d, 0)) is None
        assert reflection_permutation(d, 0) is None
        assert ("reflection in root 0 does not permute roots and coroots compatibly"
                in verify_axioms(d))


# ---------------------------------------------------------------------------
# positive systems on root indices, against the vector-sum definition


def reference_is_positive_system(datum, system):
    """S and -S partition the roots and S is closed under addition,
    tested with |S|^2 vector sums: the definition that the root-addition
    table replaced, kept as the reference."""
    from rootfold.lattice import vec_add, vec_neg

    system = frozenset(system)
    neg = frozenset(datum.index_of(vec_neg(datum.roots[i])) for i in system)
    if system & neg or len(system) + len(neg) != len(datum.roots):
        return False
    for i in system:
        for j in system:
            k = datum.root_index.get(vec_add(datum.roots[i], datum.roots[j]))
            if k is not None and k not in system:
                return False
    return True


POSITIVE_SYSTEM_SPECS = ["A1:sc", "A2:sc", "A3:sc", "A4:sc", "A5:sc", "B3:sc", "C3:sc",
                         "D4:sc", "G2:sc"]


@pytest.mark.parametrize("spec", POSITIVE_SYSTEM_SPECS)
def test_is_positive_system_accepts_every_positive_system(spec):
    d = from_cartan_type(spec).datum
    systems = positive_systems(d)
    assert len(systems) == len(weyl_group(d))
    for s in systems:
        assert is_positive_system(d, s)
        assert reference_is_positive_system(d, s)


@pytest.mark.parametrize("spec", ["A3:sc", "B3:sc", "G2:sc", "BC2"])
def test_is_positive_system_on_one_root_changes(spec):
    # swapping one root of a positive system for its negative keeps the
    # partition and breaks closure unless the root is simple
    d = from_cartan_type(spec).datum
    for s in positive_systems(d)[:6]:
        for i in s:
            changed = (s - {i}) | {d.negation[i]}
            assert is_positive_system(d, changed) == reference_is_positive_system(d, changed)
        assert not is_positive_system(d, s - {min(s)})


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_is_positive_system_matches_reference_on_random_subsets(data):
    d = from_cartan_type(data.draw(st.sampled_from(
        ["A2:sc", "A3:sc", "B2:sc", "G2:sc", "BC2", "A1:sc x A1:sc"]))).datum
    n = len(d.roots)
    if data.draw(st.booleans()):
        # one sign per pair {a, -a}: passes the partition test
        system = {i if data.draw(st.booleans()) else d.negation[i]
                  for i in range(n) if i < d.negation[i]}
    else:
        system = data.draw(st.sets(st.integers(0, n - 1)))
    assert is_positive_system(d, system) == reference_is_positive_system(d, system)


@pytest.mark.parametrize("spec", ["A3:sc", "BC2", "G2:sc"])
def test_root_sums_and_negation_tables(spec):
    d = from_cartan_type(spec).datum
    for i, r in enumerate(d.roots):
        assert d.roots[d.negation[i]] == tuple(-x for x in r)
        expected = [(j, d.index_of(tuple(x + y for x, y in zip(r, s))))
                    for j, s in enumerate(d.roots)
                    if tuple(x + y for x, y in zip(r, s)) in d.root_index]
        assert list(d.root_sums[i]) == expected


# ---------------------------------------------------------------------------
# verify_axioms fills the reflection cache by conjugation


def datum_by_name(name):
    if name == "A1+torus":
        return A1_PLUS_TORUS
    if name == "folded BC2":
        return folded_bc2_with_pairing()
    return from_cartan_type(name).datum


@pytest.mark.parametrize("name", ["A1:sc", "A2:sc", "A3:sc", "A4:sc", "A5:sc", "D4:sc",
                                  "E6:sc", "E8:sc", "folded BC2", "A1+torus"])
def test_verify_axioms_caches_every_reflection_permutation(name):
    d = datum_by_name(name)
    d = RootDatum(d.rank, d.roots, d.coroots, d.pairing)   # empty caches
    assert verify_axioms(d) == []
    cache = d._reflection_perms
    assert sorted(cache) == list(range(len(d.roots)))
    for k, perm in cache.items():
        assert perm == root_permutation(d, reflection(d, k))


def test_verify_axioms_reads_few_reflections_off_the_pairing(monkeypatch):
    import rootfold.rootdatum as rd

    calls = []
    direct = rd._reflection_permutation
    monkeypatch.setattr(rd, "_reflection_permutation",
                        lambda d, k: calls.append(k) or direct(d, k))
    d = from_cartan_type("E8:sc").datum
    assert verify_axioms(d) == []
    assert len(calls) <= 2 * d.rank < len(d.roots) == 240


def reference_reflection_problems(d):
    return [f"reflection in root {i} does not permute roots and coroots compatibly"
            for i in range(len(d.roots)) if root_permutation(d, reflection(d, i)) is None]


def padded(data, rank):
    """The direct sum of data on consecutive coordinates of Z^rank."""
    roots, coroots, offset = [], [], 0
    for d in data:
        def pad(v, off=offset, n=d.rank):
            return (0,) * off + tuple(v) + (0,) * (rank - off - n)
        roots += [pad(r) for r in d.roots]
        coroots += [pad(c) for c in d.coroots]
        offset += d.rank
    return RootDatum(rank, tuple(roots), tuple(coroots))


# s_0 sends the root (1, 1) to (-1, 1), not a root; all four reflections fail
OFF_ROOTS = RootDatum(2, ((2, 0), (-2, 0), (1, 1), (-1, -1)),
                      ((1, 0), (-1, 0), (1, 1), (-1, -1)))
# s_0 fixes the root (0, 2) but sends its coroot (1, 1) to (-1, 1)
OFF_COROOTS = RootDatum(2, ((2, 0), (-2, 0), (0, 2), (0, -2)),
                        ((1, 0), (-1, 0), (1, 1), (-1, -1)))


@pytest.mark.parametrize("parts", [
    ("off roots", "A2:sc"), ("A2:sc", "off coroots"), ("B2:sc", "off roots", "A1:sc"),
    ("off coroots", "A1:sc", "off roots"), ("G2:sc", "off coroots", "A2:sc")])
def test_verify_axioms_problem_list_matches_a_direct_check_per_root(parts):
    from rootfold.rootdatum import reflection_permutation

    data = [{"off roots": OFF_ROOTS, "off coroots": OFF_COROOTS}.get(p)
            or from_cartan_type(p).datum for p in parts]
    rank = sum(d.rank for d in data)
    d = padded(data, rank)
    expected = reference_reflection_problems(d)
    assert 2 <= len(expected) < len(d.roots)
    assert verify_axioms(d) == expected
    assert verify_axioms(d) == expected   # again, from the filled cache
    # the same list when some reflections were already read off the pairing
    fresh = padded(data, rank)
    for k in range(0, len(fresh.roots), 3):
        reflection_permutation(fresh, k)
    assert verify_axioms(fresh) == expected
    for k, perm in fresh._reflection_perms.items():
        assert perm == root_permutation(fresh, reflection(fresh, k))
