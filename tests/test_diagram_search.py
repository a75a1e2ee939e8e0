"""The Dynkin-diagram search and its bound, each against what it
replaces: ``cartan_matchings`` against the scan of every node
permutation, on shuffled Cartan matrices of every type up to rank 6 and
on irreducible types of rank 10 to 16; and the isomorphism search,
which refuses a search whose candidates pass ``WEYL_BOUND`` before it
lists them all."""

import random
import time
from itertools import permutations

import pytest

import rootfold.twist as twist_module
from rootfold.cli import document_object, emit_document
from rootfold.errors import EnumerationOverflow
from rootfold.lattice import identity_matrix
from rootfold.rootdatum import (
    BasedRootDatum,
    _closure_from_simples,
    canonical_base,
    cartan_matchings,
    cartan_matrix,
    classify,
    from_cartan_type,
    identity_permutation,
)
from rootfold.twist import _diagram_maps, equivariant_automorphism_group, equivariant_isomorphic

from test_cli import run_cli


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
    maps = _diagram_maps(based, based)
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


def counted_listing(monkeypatch):
    listed = []
    find = twist_module._find_diagram_maps

    def counted(based1, based2):
        for found in find(based1, based2):
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
    assert list(datum._diagram_maps.values()) == [_diagram_maps(based, based)]
    assert equivariant_isomorphic(datum, [], datum, []) is not None
    assert len(listed) == 6


def test_kept_maps_over_the_bound_are_refused_too(monkeypatch):
    # maps listed with no bound, then searched under one
    based = from_cartan_type("A1:sc x A1:sc x A1:sc")
    datum = based.datum
    assert len(_diagram_maps(based, based)) == 6
    monkeypatch.setattr(twist_module, "WEYL_BOUND", 47)
    with pytest.raises(EnumerationOverflow, match="^automorphism group exceeds 47 elements$"):
        equivariant_isomorphic(datum, [], datum, [])


def test_a_pair_with_no_diagram_map_closes_no_weyl_group(monkeypatch):
    # D4 simply connected against adjoint: the diagrams match, the
    # lattices do not, and the answer needs no Weyl group
    monkeypatch.setattr(twist_module, "weyl_group", None)
    sc, ad = (from_cartan_type(f"D4:{tag}").datum for tag in ("sc", "ad"))
    assert equivariant_isomorphic(sc, [], ad, []) is None

