"""What a fold now reads off its simple roots, each against the
computation it replaces: the datum of ``from_cartan_type``, closed over
the positive roots only, against the closure over every root; its
handed ``is_semisimple`` and independent roots against the Gram
determinant and the Hermite pivots; the generator permutations
``make_action`` walks from the base against ``root_permutation``; and
the positive-system verdicts kept per datum against the check itself."""

import random
import re
from itertools import product
from pathlib import Path

import pytest

import rootfold.action as action_module
import rootfold.rootdatum as rootdatum_module
from rootfold.action import _require_automorphism, make_action
from rootfold.cli import parse_datum
from rootfold.errors import InvalidActionError, UnknownTypeError
from rootfold.folding import restrict
from rootfold.lattice import det, dot, identity_matrix, mat_mul, transpose
from rootfold.rootdatum import (
    BasedRootDatum,
    DatumAutomorphism,
    RootDatum,
    _automorphisms_from_permutations,
    _closure_from_simples,
    _conjugate_reflections,
    _is_positive_system,
    _matrix_on_roots,
    _parse_factor,
    _realize_factor,
    _walk_automorphism,
    as_permutation,
    closure,
    from_cartan_type,
    is_positive_system,
    positive_systems,
    reflection,
    root_permutation,
    weyl_group,
)
from rootfold.selftest import FOLD_TABLE, SLOW_FOLD, check_fold

from test_base_walk import fresh, outcome
from test_closure import DATA, GROUPS, all_homomorphisms
from test_construction_reuse import BC_TYPES, PRODUCTS, SIMPLE_TYPES

GOLDEN = Path(__file__).resolve().parent.parent / "golden"


# ---------------------------------------------------------------------------
# the closure over every root, as construction ran before it closed the
# positive half only


def reference_closure(simples, cosimples, seeds=()):
    coroot = dict(zip(simples, cosimples))
    coroot.update(seeds)
    images = []

    def reflection_in(alpha, acov):
        image = {}
        images.append(image)

        def step(beta):
            n, cov = dot(beta, acov), coroot[beta]
            m = dot(alpha, cov)
            img = tuple(b - n * a for b, a in zip(beta, alpha)) if n else beta
            img_cov = tuple(c - m * a for c, a in zip(cov, acov)) if m else cov
            if coroot.setdefault(img, img_cov) != img_cov:
                raise AssertionError("a simple reflection does not map the coroots with the roots")
            image[beta] = img
            return img
        return step

    steps = [reflection_in(a, c) for a, c in zip(simples, cosimples)]
    roots = sorted(closure(list(coroot), steps))
    datum = RootDatum(len(simples), tuple(roots), tuple(coroot[r] for r in roots))
    index = datum.root_index
    return (datum, tuple(index[s] for s in simples),
            [[index[image[r]] for r in roots] for image in images])


def reference_from_cartan_type(spec):
    """Each factor closed over every root, padded into the product, the
    pairs sorted and every root looked up again."""
    factors = [_parse_factor(tok, spec) for tok in spec.split("x")]
    data = [reference_closure(*_realize_factor(*factor)) for factor in factors]
    total = sum(d.rank for d, _, _ in data)
    offset = 0
    parts = []
    for factor, _, _ in data:
        pad = lambda v, off=offset, n=factor.rank: (
            (0,) * off + tuple(v) + (0,) * (total - off - n))
        parts.append([(pad(r), pad(cv)) for r, cv in zip(factor.roots, factor.coroots)])
        offset += factor.rank
    pairs = sorted(pair for part in parts for pair in part)
    datum = RootDatum(total, tuple(r for r, _ in pairs), tuple(cv for _, cv in pairs))
    base = []
    for part, (_, simples, perms) in zip(parts, data):
        where = [datum.index_of(r) for r, _ in part]
        for i, perm in zip(simples, perms):
            moved = list(range(len(pairs)))
            for w, j in zip(where, perm):
                moved[w] = where[j]
            base.append(where[i])
            datum._reflection_perms[where[i]] = as_permutation(moved)
            _conjugate_reflections(datum, where[i])
    return BasedRootDatum(datum, tuple(sorted(base)))


# ---------------------------------------------------------------------------
# construction


@pytest.mark.parametrize("spec", SIMPLE_TYPES + BC_TYPES + PRODUCTS)
def test_the_positive_closure_builds_the_datum_of_the_full_closure(spec):
    based, expected = from_cartan_type(spec), reference_from_cartan_type(spec)
    datum = based.datum
    assert datum.roots == expected.datum.roots
    assert datum.coroots == expected.datum.coroots
    assert based.base == expected.base
    assert datum._reflection_perms == expected.datum._reflection_perms


@pytest.mark.parametrize("spec", SIMPLE_TYPES + BC_TYPES + PRODUCTS)
def test_handed_semisimplicity_and_independent_roots_match_the_solves(spec):
    based = from_cartan_type(spec)
    datum = based.datum
    # handed over, so neither the Gram determinant nor the Hermite form ran
    assert vars(datum)["is_semisimple"] is True
    assert vars(datum)["_independent_roots"] == based.base
    assert det(mat_mul(transpose(datum.roots), datum.roots)) != 0
    solved = fresh(datum)
    assert solved.is_semisimple
    for j in based.base:
        s = datum._reflection_perms[j]
        matrices = [_matrix_on_roots(d, [d.roots[s[i]] for i in d._root_basis[0]], ())
                    for d in (datum, solved)]
        assert matrices[0] == matrices[1] == reflection(datum, j).on_characters


def test_the_positive_closure_refuses_what_the_full_closure_refuses():
    e1, e2 = (1, 0), (0, 1)
    # <a_1, c_1> = 1: s_1(c_1) = 0 is not -c_1, so s_1(a_1) is not -a_1
    # (the full closure made the zero vector a root)
    with pytest.raises(AssertionError, match="does not map the coroots"):
        _closure_from_simples([e1, e2], [(1, 0), (0, 2)])
    # A2 sc with the positive root a_1 + a_2 seeded with a wrong coroot
    simples, cosimples, _ = _realize_factor("A", 2, "sc")
    for closing in (_closure_from_simples, reference_closure):
        with pytest.raises(AssertionError, match="does not map the coroots"):
            closing(simples, cosimples, seeds=[((1, 1), (1, 0))])
    # a consistent seed -e_1: the positive closure meets its own negative
    with pytest.raises(AssertionError, match="meet their negatives"):
        _closure_from_simples([e1, e2], [(2, 0), (0, 2)], seeds=[((-1, 0), (-2, 0))])


def test_a_spec_with_empty_tokens_is_refused_by_name():
    for spec in ("x", "A2:sc x", "A2 xx A1"):
        with pytest.raises(UnknownTypeError) as err:
            from_cartan_type(spec)
        assert str(err.value) == f"bad type token '' in {spec!r}"
    # an "x" inside a tag separates nothing
    with pytest.raises(UnknownTypeError) as err:
        from_cartan_type("A1:xx")
    assert str(err.value) == "unknown isogeny tag 'xx' (expected sc or ad)"
    with pytest.raises(UnknownTypeError) as err:
        from_cartan_type("A1 x Q3")
    assert str(err.value) == "bad type token 'Q3' in 'A1 x Q3'"
    assert from_cartan_type("E6:sc xA1") == from_cartan_type("E6:sc x A1:sc")
    assert len(from_cartan_type("A1:").datum.roots) == 2


@pytest.mark.parametrize("spec", ["A+2", "A 2", "A\uff12", "A\u0662", "BC+1", "A-1", "B1_0"],
                         ids=["sign", "space", "fullwidth-digit", "arabic-indic-digit",
                              "bc-sign", "minus", "underscore"])
def test_a_rank_other_than_ascii_digits_is_a_bad_token(spec):
    # ``int`` reads each of these as a rank
    with pytest.raises(UnknownTypeError) as err:
        from_cartan_type(spec)
    assert str(err.value) == f"bad type token {spec!r} in {spec!r}"


# ---------------------------------------------------------------------------
# generator permutations walked from the base


def walked_and_direct(based, matrix):
    aut = DatumAutomorphism(matrix)
    return _walk_automorphism(based, matrix), root_permutation(based.datum, aut)


@pytest.mark.parametrize("case", FOLD_TABLE + [SLOW_FOLD], ids=lambda c: c[0])
def test_walked_generator_permutations_are_the_direct_ones_on_the_folds(case):
    _, spec, builder, *_ = case
    walked, direct = walked_and_direct(from_cartan_type(spec), builder())
    assert walked is not None and walked == direct


@pytest.mark.parametrize("spec", sorted(DATA))
def test_walked_permutations_match_on_every_homomorphism_image(spec):
    # every image of every homomorphism from ``GROUPS``, and the other
    # automorphisms of the datum
    based = from_cartan_type(spec)
    images = {m for name in GROUPS for hom in all_homomorphisms(name, spec)
              for m in hom.values()}
    assert len(images) > 1 and images <= set(DATA[spec][1])
    for matrix in DATA[spec][1]:
        walked, direct = walked_and_direct(based, matrix)
        assert walked is not None and walked == direct


def test_walked_permutations_match_on_the_golden_documents():
    checked = 0
    for path in sorted(GOLDEN.glob("*.datum")):
        doc = parse_datum(path.read_text(), source=path.name)
        for action in doc.actions.values():
            for aut in action.images:
                walked = _walk_automorphism(doc.based, aut.on_characters)
                assert walked == root_permutation(doc.datum, aut), path.name
                assert walked in action.root_perms
                checked += 1
    assert checked > 10


def skewed_a1_plus_torus():
    """A1 and a torus under the pairing P = ((1, 1), (0, 1)): the root
    (1, 0) with the coroot (1, 1), as (1, 0) P (1, 1)^T = 2."""
    return RootDatum(2, ((-1, 0), (1, 0)), ((-1, -1), (1, 1)), ((1, 1), (0, 1)))


def refusal_cases():
    a2 = from_cartan_type("A2:sc")
    # the A3 flip with its first entry whose change by one keeps it
    # unimodular changed
    flip = FOLD_TABLE[1][2]()
    for i, j in product(range(3), repeat=2):
        perturbed = [list(row) for row in flip]
        perturbed[i][j] += 1
        if abs(det(perturbed)) == 1:
            break
    yield "perturbed entry", from_cartan_type("A3:sc"), perturbed
    # the simple root (2, -1) goes to (1, -1), not a root of A2
    yield "simple root to a non-root", a2, ((1, 1), (0, 1))
    # fixes the root (1, 0), but its contragredient under P moves the
    # coroot (1, 1) to (3, -1)
    yield "coroot mismatch", BasedRootDatum(skewed_a1_plus_torus(), (1,)), ((1, 1), (0, 1))


@pytest.mark.parametrize("name, based, matrix", list(refusal_cases()),
                         ids=lambda x: x if isinstance(x, str) else "")
def test_walked_refusals_give_the_direct_message(name, based, matrix):
    matrix = tuple(map(tuple, matrix))
    walked = outcome(lambda: _require_automorphism(based, matrix, "generator 'g'"))
    direct = outcome(lambda: _require_automorphism(based.datum, matrix, "generator 'g'"))
    assert walked == direct
    assert walked[1] == "generator 'g': matrix does not permute the roots compatibly with coroots"
    assert _walk_automorphism(based, matrix) is None


def test_a_skewed_pairing_walks_the_automorphisms_it_has():
    datum = skewed_a1_plus_torus()
    based = BasedRootDatum(datum, (1,))
    minus = tuple(tuple(-x for x in row) for row in identity_matrix(2))
    for matrix in (identity_matrix(2), minus, reflection(datum, 1).on_characters):
        walked, direct = walked_and_direct(based, matrix)
        assert walked is not None and walked == direct


@pytest.mark.parametrize("case", FOLD_TABLE + [SLOW_FOLD], ids=lambda c: c[0])
def test_a_generator_is_checked_with_no_contragredient(case, monkeypatch):
    # the walk checks M' c_m = c_k as M^T P c_k = P c_m, on a based
    # target from its base and on an unbased one from its canonical base
    _, spec, builder, *_ = case
    based = from_cartan_type(spec)

    def never(*args):
        raise AssertionError("a contragredient was built")

    monkeypatch.setattr(rootdatum_module, "contragredient", never)
    solves = []
    real_solve = rootdatum_module._matrix_on_roots
    monkeypatch.setattr(rootdatum_module, "_matrix_on_roots",
                        lambda *args: solves.append(args) or real_solve(*args))
    for target in (based, based.datum):
        action = make_action(target, [(builder(), "g")])
        assert solves == []
        # held as the checked matrix, which is the one its pair solves to
        assert "generator_images" in vars(action)
        gens = action.group.generating_set
        assert action.generator_images == tuple(_automorphisms_from_permutations(
            based.datum, [action.root_perms[g] for g in gens],
            [action.blocks[g] for g in gens]))
        assert action.generator_images[0].on_characters == builder()
        del solves[:]


def test_a_walk_that_misses_roots_refuses_the_base():
    # a base of the A1 factor only: the roots of the second factor are
    # not reached, whatever the matrix
    whole = from_cartan_type("A1:sc x A1:sc")
    partial = BasedRootDatum(whole.datum, whole.base[:1])
    message = f"^{re.escape(f'roots {partial.base} do not form a base')}$"
    for matrix in (((0, 1), (1, 0)), identity_matrix(2)):
        with pytest.raises(InvalidActionError, match=message):
            _walk_automorphism(partial, matrix)
        with pytest.raises(InvalidActionError, match=message):
            _require_automorphism(partial, matrix, "g")


@pytest.mark.parametrize("spec", ["BC2", "BC3", "A1:sc x BC2"])
def test_based_weyl_elements_of_bc_data_are_walked_with_no_direct_check(spec):
    # the walk is seeded with the doubles 2 a_j, which no simple
    # reflection reaches from a simple root
    based = from_cartan_type(spec)
    datum = based.datum
    assert not hasattr(action_module, "root_permutation")
    for w in _automorphisms_from_permutations(datum, weyl_group(datum).perms):
        got = _require_automorphism(based, w.on_characters, "w")[0]
        assert got == root_permutation(datum, w)


# ---------------------------------------------------------------------------
# positive-system verdicts kept per datum


def fold_data():
    for _, spec, builder, *_ in FOLD_TABLE:
        based = from_cartan_type(spec)
        yield based.datum
        yield restrict(make_action(based, [(builder(), "g")])).datum


def test_kept_verdicts_are_the_direct_ones():
    rng = random.Random(27)
    for datum in fold_data():
        systems = positive_systems(datum)
        everything = frozenset(range(len(datum.roots)))
        sets = list(systems) + [everything - s for s in systems]
        for _ in range(40):
            half = frozenset(rng.sample(range(len(datum.roots)), len(datum.roots) // 2))
            sets += [half, everything - half]
        uncached = fresh(datum)
        for s in sets + sets:   # the second round reads the kept verdicts
            assert is_positive_system(datum, s) == _is_positive_system(uncached, s)
        assert all(is_positive_system(datum, s) for s in systems)
        assert set(datum._positive_system_verdicts) == set(sets)


def test_one_fold_check_runs_each_positive_system_check_once(monkeypatch):
    calls = []
    real = rootdatum_module._is_positive_system
    monkeypatch.setattr(rootdatum_module, "_is_positive_system",
                        lambda d, s: calls.append((d, s)) or real(d, s))
    for case in FOLD_TABLE:
        del calls[:]
        assert check_fold(*case)[0] == []
        keys = [(id(d), s) for d, s in calls]
        assert len(keys) == len(set(keys))
        assert (len(calls) > 0) == case[-1]
