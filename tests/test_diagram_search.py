"""The Dynkin-diagram search and its bound, each against what it
replaces: ``cartan_matchings`` against the scan of every node
permutation, on shuffled Cartan matrices of every type up to rank 6 and
on irreducible types of rank 10 to 16, also cut to the matchings that
commute with diagram automorphisms; the isomorphism search, which
refuses a search whose candidates pass ``WEYL_BOUND`` before it lists
them all, in the words ``equivariant_automorphism_group`` uses; Aut^Gamma
of A1^8 under an 8-cycle, listed and searched without the 8! maps of its
diagram; and ``isoclass`` of two A1^7 documents under a 7-cycle, which
ranks Aut^Gamma of one datum once the second is carried onto the first."""

import json
import random
import time
from itertools import permutations

import pytest

import rootfold.rootdatum as rootdatum_module
import rootfold.twist as twist_module
from rootfold.action import FiniteGroup, make_action
from rootfold.cli import document_object, emit_document
from rootfold.errors import EnumerationOverflow
from rootfold.lattice import identity_matrix, mat_mul, mat_vec
from rootfold.rootdatum import (
    BasedRootDatum,
    _automorphisms_from_permutations,
    _closure_from_simples,
    canonical_base,
    cartan_matchings,
    cartan_matrix,
    classify,
    from_cartan_type,
    identity_permutation,
    positive_system,
)
from rootfold.twist import _diagram_maps, equivariant_automorphism_group, equivariant_isomorphic

from test_cli import run_cli
from test_isomorphism_reference import cycle


def scanned_matchings(c1, c2):
    """Every node permutation p with c2[p[i]][p[j]] == c1[i][j], in
    lexicographic order: the scan ``cartan_matchings`` replaces."""
    k = len(c1)
    if len(c2) != k:
        return
    for p in permutations(range(k)):
        if all(c2[p[i]][p[j]] == c1[i][j] for i in range(k) for j in range(k)):
            yield p


def block_diagonal(*blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(b)] = row
        at += len(b)
    return tuple(map(tuple, out))


IRREDUCIBLE = [(letter, rank)
               for letter, ranks in [("A", range(1, 7)), ("B", range(2, 7)),
                                     ("C", range(3, 7)), ("D", range(4, 7)),
                                     ("E", (6,)), ("F", (4,)), ("G", (2,))]
               for rank in ranks]


def cartan_types():
    """Cartan matrices of rank at most 6 by rank: every irreducible type
    and some products, among them components of one type."""
    by_rank = {}
    for letter, rank in IRREDUCIBLE:
        by_rank.setdefault(rank, []).append(cartan_matrix(letter, rank))
    for factors in [("A1", "A1"), ("A1", "A1", "A1"), ("A2", "A1"), ("B2", "A1"),
                    ("A2", "A2"), ("G2", "A1", "A1"), ("A3", "A1", "A1"),
                    ("B3", "B3"), ("D4", "A1", "A1"), ("A1",) * 5]:
        m = block_diagonal(*(cartan_matrix(f[0], int(f[1:])) for f in factors))
        by_rank.setdefault(len(m), []).append(m)
    return by_rank


def shuffled(m, rng):
    order = list(range(len(m)))
    rng.shuffle(order)
    return tuple(tuple(m[i][j] for j in order) for i in order)


def test_matchings_are_the_scanned_ones_on_shuffled_pairs_up_to_rank_6():
    rng = random.Random(2727)
    pairs = found = 0
    for rank, types in sorted(cartan_types().items()):
        for m1 in types:
            for m2 in types:
                c1, c2 = shuffled(m1, rng), shuffled(m2, rng)
                got = list(cartan_matchings(c1, c2))
                assert len(set(got)) == len(got)
                assert sorted(got) == list(scanned_matchings(c1, c2))
                pairs += 1
                found += bool(got)
    assert pairs > 99 and 0 < found < pairs


def test_commuting_matchings_are_the_scanned_ones_that_commute():
    # each diagram automorphism g of a shuffled diagram, alone and with
    # the next one: the search cut where p o g = g o p first fails keeps
    # exactly the scanned matchings that commute with them
    rng = random.Random(3333)
    checked = 0
    for rank, types in sorted(cartan_types().items()):
        for m in types:
            c = shuffled(m, rng)
            autos = list(scanned_matchings(c, c))
            for g, h in zip(autos, autos[1:] + autos[:1]):
                for gammas in ([g], [g, h]):
                    got = list(cartan_matchings(c, c, gammas))
                    assert len(set(got)) == len(got)
                    assert sorted(got) == [
                        p for p in autos
                        if all(tuple(p[x[i]] for i in range(rank))
                               == tuple(x[p[i]] for i in range(rank)) for x in gammas)]
                    checked += 1
    assert checked > 200


def test_matrices_of_different_sizes_have_no_matchings():
    assert list(cartan_matchings(cartan_matrix("A", 2), cartan_matrix("A", 3))) == []


def hand_built(letter, rank):
    """The datum of type letter+rank, closed from its Cartan matrix:
    ``from_cartan_type`` stops at rank 8."""
    datum, base, _ = _closure_from_simples(cartan_matrix(letter, rank),
                                           identity_matrix(rank))
    return datum


@pytest.mark.parametrize("rank", range(10, 17))
def test_classify_of_d10_to_d16_is_quick(rank):
    datum = hand_built("D", rank)
    start = time.perf_counter()
    assert classify(datum) == [(f"D{rank}", 1)]
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("letter", ["A", "D"])
def test_diagram_maps_of_rank_16_are_quick(letter):
    datum = hand_built(letter, 16)
    based = BasedRootDatum(datum, canonical_base(datum))
    start = time.perf_counter()
    maps = _diagram_maps(based)
    assert time.perf_counter() - start < 1
    # the identity and the diagram flip
    assert len(maps) == 2
    assert maps[0] == identity_permutation(len(datum.roots)) != maps[1]


# ---------------------------------------------------------------------------
# the bound on the isomorphism search


def a1_power_document(tmp_path, k):
    based = from_cartan_type(" x ".join(["A1:sc"] * k))
    path = tmp_path / f"A1^{k}.datum"
    path.write_text(emit_document(document_object(based.datum, based.base)))
    return str(path)


def test_isoclass_refuses_a1_to_the_8_in_one_error_line(tmp_path):
    # 2^8 Weyl elements times 8! diagram maps: over 10^7 candidates
    path = a1_power_document(tmp_path, 8)
    start = time.perf_counter()
    code, out = run_cli("isoclass", path, path)
    assert (code, out) == (1, "error: automorphism group exceeds 1000000 elements\n")
    assert time.perf_counter() - start < 5


def test_isoclass_still_answers_a1_to_the_7(tmp_path):
    # 2^7 * 7! = 645 120 candidates, under the bound
    path = a1_power_document(tmp_path, 7)
    code, out = run_cli("isoclass", path, path)
    assert code == 0 and out.startswith("isomorphic: yes\n")


def test_isoclass_of_a1_to_the_7_under_a_7_cycle_ranks_aut_gamma(tmp_path):
    # the two documents parse to two data; the first diagram map carries
    # the second onto the first, gamma is shared after that, and the 14
    # elements of Aut^Gamma are ranked instead of the 645 120 of W.D
    n = 7
    based = from_cartan_type(" x ".join(["A1:sc"] * n))
    gamma = {"role": "gamma", "group": f"cyclic:{n}",
             "generators": [{"element": 1, "matrix": [list(r) for r in cycle(n)]}]}
    path = tmp_path / "A1^7-cycle.datum"
    path.write_text(emit_document(document_object(based.datum, based.base,
                                                  actions={"gamma": gamma})))
    action = make_action(based, [(cycle(n), 1)], group=FiniteGroup.cyclic(n))
    found = equivariant_isomorphic(based.datum, [action], based.datum, [action])
    start = time.perf_counter()
    code, out = run_cli("isoclass", str(path), str(path))
    assert time.perf_counter() - start < 1
    assert (code, out) == (0, f"isomorphic: yes\ncharacter map: "
                              f"{json.dumps([list(r) for r in found.on_characters])}\n")


@pytest.mark.parametrize("cross", [False, True], ids=["one datum", "two data"])
def test_a_search_past_the_bound_names_the_automorphism_group(cross, monkeypatch):
    # A3: 24 Weyl elements; the closure refuses under a bound of 10, and
    # the search and the group say so in the same words
    based = from_cartan_type("A3:sc")
    datum = based.datum
    other = from_cartan_type("A3:sc").datum if cross else datum
    monkeypatch.setattr(rootdatum_module, "WEYL_BOUND", 10)
    monkeypatch.setattr(twist_module, "WEYL_BOUND", 10)
    refusal = "^automorphism group exceeds 10 elements$"
    with pytest.raises(EnumerationOverflow, match=refusal):
        equivariant_isomorphic(datum, [], other, [])
    with pytest.raises(EnumerationOverflow, match=refusal):
        equivariant_automorphism_group(based)


def counted_listing(monkeypatch):
    listed = []
    find = twist_module._find_diagram_maps

    def counted(based1, based2, commuting=()):
        for found in find(based1, based2, commuting):
            listed.append(found)
            yield found
    monkeypatch.setattr(twist_module, "_find_diagram_maps", counted)
    return listed


def test_a_search_over_the_bound_stops_listing_and_caches_nothing(monkeypatch):
    # A1^3: 8 Weyl elements and 6 diagram maps; under a bound of 20 the
    # third map listed passes it
    listed = counted_listing(monkeypatch)
    monkeypatch.setattr(twist_module, "WEYL_BOUND", 20)
    based = from_cartan_type("A1:sc x A1:sc x A1:sc")
    datum = based.datum
    with pytest.raises(EnumerationOverflow, match="^automorphism group exceeds 20 elements$"):
        equivariant_isomorphic(datum, [], datum, [])
    assert len(listed) == 3 and not datum._diagram_maps
    listed.clear()
    with pytest.raises(EnumerationOverflow, match="^automorphism group exceeds 20 elements$"):
        equivariant_automorphism_group(based)
    assert len(listed) == 3 and not datum._diagram_maps
    # at 48, the order of the group, every map is listed and kept
    monkeypatch.setattr(twist_module, "WEYL_BOUND", 48)
    listed.clear()
    assert len(equivariant_automorphism_group(based)) == 48
    assert len(listed) == 6
    assert list(datum._diagram_maps.values()) == [_diagram_maps(based)]
    assert equivariant_isomorphic(datum, [], datum, []) is not None
    assert len(listed) == 6


def test_kept_maps_over_the_bound_are_refused_too(monkeypatch):
    # maps listed with no bound, then searched under one
    based = from_cartan_type("A1:sc x A1:sc x A1:sc")
    datum = based.datum
    assert len(_diagram_maps(based)) == 6
    monkeypatch.setattr(twist_module, "WEYL_BOUND", 47)
    with pytest.raises(EnumerationOverflow, match="^automorphism group exceeds 47 elements$"):
        equivariant_isomorphic(datum, [], datum, [])


def test_a_pair_with_no_diagram_map_closes_no_weyl_group(monkeypatch):
    # D4 simply connected against adjoint: the diagrams match, the
    # lattices do not, and the answer needs no Weyl group
    monkeypatch.setattr(twist_module, "weyl_group", None)
    sc, ad = (from_cartan_type(f"D4:{tag}").datum for tag in ("sc", "ad"))
    assert equivariant_isomorphic(sc, [], ad, []) is None


# ---------------------------------------------------------------------------
# D^Gamma without D


def test_a1_to_the_8_under_an_8_cycle_lists_8_maps_and_answers_shared_searches():
    # Aut^Gamma is +-1 times the 8 powers of the cycle C: 16 elements,
    # with 8 diagram maps, which the matching search meets without
    # listing the 8! maps of the diagram; with gamma on both sides an
    # isomorphism search ranks these 16, where the 2^8 * 8! candidates of
    # W.D pass the bound
    n = 8
    c = cycle(n)
    powers = [identity_matrix(n)]
    for _ in range(n - 1):
        powers.append(mat_mul(c, powers[-1]))
    minus = tuple(tuple(-x for x in row) for row in identity_matrix(n))
    group = powers + [mat_mul(minus, p) for p in powers]
    based = from_cartan_type(" x ".join(["A1:sc"] * n))
    datum = based.datum
    gamma = make_action(based, [(c, "g")])
    start = time.perf_counter()
    auts = equivariant_automorphism_group(based, commuting_with=gamma)
    assert time.perf_counter() - start < 1
    assert len(auts) == 16
    assert len(datum._diagram_maps[(based.base, gamma.generator_perms)]) == 8
    assert {a.on_characters for a in _automorphisms_from_permutations(datum, auts.perms)} == \
        set(group)

    # Z/2 by the half turn C^4 on both sides: the least key over the 16,
    # all of which commute with C^4; against -C^4: none, as every element
    # of the group commutes with C^4
    half, other = (make_action(datum, [(m, 1)], group=FiniteGroup.cyclic(2))
                   for m in (powers[4], group[12]))
    positive, base = sorted(positive_system(datum)), canonical_base(datum)

    def key(m):
        f = [datum.index_of(mat_vec(m, r)) for r in datum.roots]
        return sorted(f[i] for i in positive), [f[i] for i in base]

    start = time.perf_counter()
    found = equivariant_isomorphic(datum, [gamma, half], datum, [gamma, half])
    assert found.on_characters == min(group, key=key)
    assert equivariant_isomorphic(datum, [half, gamma], datum, [other, gamma]) is None
    assert time.perf_counter() - start < 1
