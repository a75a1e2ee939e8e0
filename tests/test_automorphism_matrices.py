"""A datum automorphism is its character matrix.

A ``DatumAutomorphism`` holds its matrix M on the characters only.  The
map on the cocharacters is the ``contragredient`` P'^-1 M^-T P, which
the perfect pairing forces, and no command builds it.  Every matrix the
engine returns is checked here against that formula: it sends each root
to a root and each coroot to the coroot of the image root, and its root
map is the permutation the engine keeps with it.  That is all the stored
cocharacter matrix used to say.  Covered: action images and generator
images, star images, cocycle values, ``base_transport``, twisted images,
``equivariant_isomorphic`` maps between two data under standard and
skewed pairings, and ``reflection`` of every root.

Then no command builds a cocharacter matrix: with ``contragredient``
made to raise, every request recorded in ``cli_stdout.json`` gives its
recorded exit code and stdout, and ``selftest.run`` passes."""

import io
import json
from functools import cache
from pathlib import Path

import pytest

from rootfold import action, cli, folding, lattice, rootdatum, selftest, twist
from rootfold.action import FiniteGroup, fixed_weyl, make_action
from rootfold.cli import parse_datum
from rootfold.folding import restrict
from rootfold.lattice import det, identity_matrix, mat_mul, mat_vec, unimodular_inverse
from rootfold.rootdatum import (
    BasedRootDatum,
    RootDatum,
    _automorphisms_from_permutations,
    compose,
    contragredient,
    from_cartan_type,
    reflection,
    reflection_permutation,
    weyl_group,
)
from rootfold.selftest import FOLD_TABLE
from rootfold.twist import (
    _transport,
    base_transport,
    equivariant_isomorphic,
    star_action,
    twist_datum,
    z1_enumerate,
)

from test_cli_snapshot import SNAPSHOT, documents, requests, run
from test_h1_reference import H1_CASES, neg
from test_rootdatum import folded_bc2_with_pairing, skew_realization

GOLDEN = Path(__file__).resolve().parent.parent / "golden"
SPECS = ["A1:sc", "A2:sc", "A2:ad", "B2:sc", "C2:sc", "G2:sc", "A3:sc", "B3:sc",
         "C3:ad", "D4:sc", "BC1", "BC2", "BC3", "A1:sc x BC2"]


def pairing_of(datum):
    return None if datum.has_standard_pairing else datum.pairing_matrix


def root_map(aut, datum, target=None):
    """The root index map of the lattice map ``aut`` from ``datum`` to
    ``target`` (by default ``datum``), or None unless it is unimodular,
    sends every root to a root of ``target`` and every coroot, through
    its ``contragredient``, to the coroot of the image root."""
    target = datum if target is None else target
    matrix = aut.on_characters
    if abs(det(matrix)) != 1:
        return None
    images = tuple(target.root_index.get(aut.apply(r)) for r in datum.roots)
    cochars = contragredient(matrix, pairing_of(datum), pairing_of(target))
    if None in images or any(mat_vec(cochars, c) != target.coroots[j]
                             for c, j in zip(datum.coroots, images)):
        return None
    return images


def shear(n, i, j, c):
    """The identity plus c in entry (i, j); -1 when n = 1."""
    if n == 1:
        return ((-1,),)
    return tuple(tuple(int(r == s) + c * int((r, s) == (i, j)) for s in range(n))
                 for r in range(n))


def skewed(based, second=False):
    """``based`` rewritten in sheared bases of both lattices, which gives
    it an explicit pairing matrix, and the change u of the characters
    (``second`` picks another pair of shears)."""
    n = based.datum.rank
    u = shear(n, n - 1, 0, -1) if second else shear(n, 0, n - 1, 1)
    v = shear(n, 0, n - 1, 3) if second else shear(n, n - 1, 0, 2)
    return BasedRootDatum(skew_realization(based.datum, u, v), based.base), u


def conjugated(u, matrix):
    return mat_mul(mat_mul(u, matrix), unimodular_inverse(u))


def z2(target, matrix):
    return make_action(target, [(matrix, 1)], group=FiniteGroup.cyclic(2))


def assert_images_are_automorphisms(act):
    datum = act.datum
    for image, perm in zip(act.images, act.root_perms, strict=True):
        assert root_map(image, datum) == tuple(perm)
    gens = act.group.generating_set
    for image, g in zip(act.generator_images, gens, strict=True):
        assert root_map(image, datum) == tuple(act.root_perms[g])


def assert_star_is_automorphisms(based, act):
    """The images of ``act``, its star images and transport cocycle
    values, and ``base_transport`` of each image; returns the star
    action."""
    datum = based.datum
    assert_images_are_automorphisms(act)
    star, transport = star_action(act, based.base)
    assert_images_are_automorphisms(star)
    for value, perm in zip(transport.values, transport.value_perms, strict=True):
        assert root_map(value, datum) == tuple(perm)
    weyl = set(weyl_group(datum, base=based.base).perms)
    for image, perm in zip(act.images, act.root_perms):
        w = base_transport(based, image)
        assert root_map(w, datum) == tuple(_transport(based, perm))
        assert _transport(based, perm) in weyl
    return star


def assert_equivariant_isomorphism(datum1, actions1, datum2, actions2):
    """The map ``equivariant_isomorphic`` returns, if any, is a lattice
    isomorphism of the data whose root map intertwines the actions."""
    found = equivariant_isomorphic(datum1, actions1, datum2, actions2)
    if found is None:
        return None
    f = root_map(found, datum1, datum2)
    assert f is not None
    for a1, a2 in zip(actions1, actions2):
        for p1, p2 in zip(a1.root_perms, a2.root_perms):
            assert tuple(f[i] for i in p1) == tuple(p2[i] for i in f)
    return f


@cache
def golden_documents():
    return [parse_datum(p.read_text(), source=p.name) for p in sorted(GOLDEN.glob("*.datum"))]


def based_actions():
    """(name, based datum, action): each golden document's actions on
    its base, and each ``FOLD_TABLE`` generator on its type and on a
    skewed realization of it."""
    for doc in golden_documents():
        for label, act in sorted(doc.actions.items()):
            yield f"{doc.source} {label}", doc.based, act
    for name, spec, builder, *_ in FOLD_TABLE:
        based = from_cartan_type(spec)
        yield name, based, make_action(based, [(builder(), "g")])
        skew, u = skewed(based)
        yield f"{name} skewed", skew, make_action(skew, [(conjugated(u, builder()), "g")])


@pytest.mark.parametrize("name, based, act", list(based_actions()),
                         ids=lambda x: x if isinstance(x, str) else "")
def test_action_star_and_transport_matrices_are_automorphisms(name, based, act):
    assert_star_is_automorphisms(based, act)


def h1_cases():
    for name, spec, galois_matrix, gamma_matrix in H1_CASES:
        based = from_cartan_type(spec)
        n = based.datum.rank
        yield name, based, galois_matrix(n), gamma_matrix
        skew, u = skewed(based)
        yield (f"{name} skewed", skew, conjugated(u, galois_matrix(n)),
               None if gamma_matrix is None else conjugated(u, gamma_matrix))


@pytest.mark.parametrize("name, based, galois_matrix, gamma_matrix", list(h1_cases()),
                         ids=lambda x: x if isinstance(x, str) else "")
def test_cocycle_twist_and_isomorphism_matrices_are_automorphisms(
        name, based, galois_matrix, gamma_matrix):
    datum = based.datum
    galois = z2(datum, galois_matrix)
    gamma = None if gamma_matrix is None else make_action(based, [(gamma_matrix, "s")])
    star = assert_star_is_automorphisms(based, galois)
    module = fixed_weyl(gamma) if gamma is not None else weyl_group(datum, base=based.base)
    extra = [gamma] if gamma is not None else []
    twists = []
    for cocycle in z1_enumerate(galois.group, star, module):
        for value, perm in zip(cocycle.values, cocycle.value_perms, strict=True):
            assert root_map(value, datum) == tuple(perm)
        twisted = twist_datum(based, star, cocycle, gamma_action=gamma).galois
        assert_images_are_automorphisms(twisted)
        twists.append([twisted] + extra)
    found = [assert_equivariant_isomorphism(datum, twists[0], datum, t) for t in twists]
    assert found[0] is not None


def skewed_pairs():
    """(name, datum1, datum2, isomorphic?): a type against skewed
    realizations of it, each way and between two skews, and
    realizations of isomorphic and of distinct types."""
    for spec in ["A1:sc", "A2:sc", "B2:sc", "G2:sc", "BC2", "A3:sc", "C3:sc"]:
        based = from_cartan_type(spec)
        one, two = skewed(based)[0].datum, skewed(based, second=True)[0].datum
        yield f"{spec} to skewed", based.datum, one, True
        yield f"{spec} skewed to plain", one, based.datum, True
        yield f"{spec} skewed twice", one, two, True
    for specs, isomorphic in [(("A2:sc", "A2:ad"), False), (("B2:sc", "C2:sc"), True),
                              (("B3:sc", "C3:sc"), False), (("A1:sc x A1:sc", "B2:sc"), False)]:
        d1, d2 = (from_cartan_type(s).datum for s in specs)
        yield " / ".join(specs), d1, d2, isomorphic
        yield (" / ".join(specs) + " skewed", skewed(from_cartan_type(specs[0]))[0].datum, d2,
               isomorphic)


@pytest.mark.parametrize("name, datum1, datum2, isomorphic", list(skewed_pairs()),
                         ids=lambda x: x if isinstance(x, str) else "")
def test_isomorphisms_between_two_data_are_lattice_isomorphisms(
        name, datum1, datum2, isomorphic):
    n = datum1.rank
    found = [assert_equivariant_isomorphism(datum1, [z2(datum1, m)], datum2, [z2(datum2, m)])
             for m in (identity_matrix(n), neg(n))]
    assert (found[0] is not None) == isomorphic


def reflected_data():
    for spec in SPECS:
        based = from_cartan_type(spec)
        yield spec, based.datum
        yield f"{spec} skewed", skewed(based)[0].datum
    for name, spec, builder, *_ in FOLD_TABLE:
        yield f"{name} fold", restrict(make_action(from_cartan_type(spec),
                                                   [(builder(), "g")])).datum
    yield "folded BC2", folded_bc2_with_pairing()
    yield "A1 plus a torus", RootDatum(2, ((-1, 0), (1, 0)), ((-1, -1), (1, 1)),
                                       ((1, 1), (0, 1)))
    for doc in golden_documents():
        yield doc.source, doc.datum


@pytest.mark.parametrize("name, datum", list(reflected_data()),
                         ids=lambda x: x if isinstance(x, str) else "")
def test_the_reflection_of_every_root_is_an_automorphism(name, datum):
    for k in range(len(datum.roots)):
        assert root_map(reflection(datum, k), datum) == tuple(
            reflection_permutation(datum, k)), k


def test_one_matrix_is_solved_per_distinct_pair(monkeypatch):
    # the inverse of a listed element is not solved: a rotation of
    # order 3 in W(A2), listed twice, costs one solve
    calls = []
    solve = rootdatum._matrix_on_roots
    monkeypatch.setattr(rootdatum, "_matrix_on_roots",
                        lambda *args: calls.append(args) or solve(*args))
    based = from_cartan_type("A2:sc")
    datum = based.datum
    s, t = (reflection_permutation(datum, i) for i in based.base)
    rotation = compose(s, t)
    auts = _automorphisms_from_permutations(datum, [rotation, rotation])
    assert len(calls) == 1 and auts[0] == auts[1]
    assert auts[0].on_characters == mat_mul(*(reflection(datum, i).on_characters
                                              for i in based.base))
    # on A1 plus a rank-1 torus, the pair is the permutation and the block
    torus = RootDatum(2, ((2, 0), (-2, 0)), ((1, 0), (-1, 0)))
    ident = weyl_group(torus).perms[0]
    del calls[:]
    auts = _automorphisms_from_permutations(torus, [ident] * 3, [((1,),), ((-1,),), ((1,),)])
    assert len(calls) == 2
    assert [a.on_characters for a in auts] == [((1, 0), (0, 1)), ((1, 0), (0, -1)),
                                               ((1, 0), (0, 1))]


def test_no_command_builds_a_cocharacter_matrix(monkeypatch, tmp_path):
    def never(*args):
        raise AssertionError("a cocharacter matrix was built")

    # no other module binds the name, so every call goes through the patch
    assert not any(hasattr(m, "contragredient") for m in (action, cli, folding, lattice,
                                                            selftest, twist))
    monkeypatch.setattr(rootdatum, "contragredient", never)
    docs = documents()
    for name, text in docs.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    recorded = json.loads(SNAPSHOT.read_text())
    for argv in requests(docs):
        assert run(argv) == recorded[" ".join(argv)], argv
    out = io.StringIO()
    assert selftest.run(out) == 0, out.getvalue()
