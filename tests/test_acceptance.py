"""End-to-end acceptance suite.

Each criterion is exercised at its stated tolerance (everything here is
exact integer arithmetic, tolerance zero) and reports one line on pass.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import io
import time

import pytest

from rootfold.action import FiniteGroup, fixed_weyl, make_action, orbit, orthogonal_orbit
from rootfold.folding import (
    induced_fixed_map,
    invariant_positive_systems,
    positive_system_transfer,
    restrict,
    weyl_descent_iso,
)
from rootfold.lattice import det, identity_matrix, mat_mul, mat_vec
from rootfold.rootdatum import (
    classify,
    from_cartan_type,
    is_reduced,
    positive_systems,
    reflection,
    verify_axioms,
    weyl_group,
)
from rootfold import selftest as selftest_mod
from rootfold.selftest import flip_matrix, node_permutation_matrix
from rootfold.twist import (
    equivariant_isomorphic,
    h1_with_image,
    star_action,
    twist_datum,
)

from test_rootdatum import weyl_elements

FOLD_CASES = [
    # name, spec, order, matrix, expected label, expected |roots|, reduced
    ("A2 flip", "A2:sc", 2, lambda: flip_matrix(2), "BC1", 4, False),
    ("A3 flip", "A3:sc", 2, lambda: flip_matrix(3), "B2", 8, True),
    ("A4 flip", "A4:sc", 2, lambda: flip_matrix(4), "BC2", 12, False),
    ("A5 flip", "A5:sc", 2, lambda: flip_matrix(5), "C3", 18, True),
    ("D4 triality", "D4:sc", 3,
     lambda: node_permutation_matrix({0: 2, 1: 1, 2: 3, 3: 0}, 4), "G2", 12, True),
    ("D5 flip", "D5:sc", 2,
     lambda: node_permutation_matrix({0: 0, 1: 1, 2: 2, 3: 4, 4: 3}, 5),
     "B4", 32, True),
    ("A1xA1 swap", "A1:sc x A1:sc", 2, lambda: flip_matrix(2), "A1", 2, True),
]

E6_CASE = ("E6 flip", "E6:sc", 2,
           lambda: node_permutation_matrix(
               {0: 5, 1: 1, 2: 4, 3: 3, 4: 2, 5: 0}, 6), "F4", 48, True)

SMALL_RANK_CASES = {"A2 flip", "A3 flip", "A4 flip", "D4 triality", "A1xA1 swap"}


def build_fold(case):
    name, spec, order, matrix, label, count, reduced = case
    based = from_cartan_type(spec)
    action = make_action(based, [(matrix(), 1)], group=FiniteGroup.cyclic(order))
    return restrict(action)


@pytest.fixture(scope="module")
def folds():
    out = {}
    for case in FOLD_CASES:
        start = time.time()
        fold = build_fold(case)
        out[case[0]] = (case, fold, time.time() - start)
    return out


def check_fold_classification(case, fold):
    name, spec, order, matrix, label, count, reduced = case
    assert classify(fold.datum) == [(label, 1)], name
    assert len(fold.datum.roots) == count, name
    assert is_reduced(fold.datum) == reduced, name


def check_fold_axioms(name, fold):
    d = fold.datum
    assert verify_axioms(d) == [], name
    assert abs(det(d.pairing_matrix)) == 1, name
    for i in range(len(d.roots)):
        assert d.pair(d.roots[i], d.coroots[i]) == 2, name
    # coroot formula independent of the orbit representative, rederived
    # here from scratch for every fiber member
    source = fold.source.datum
    cv = fold.coinvariants
    fixed_cols = cv.fixed_matrix()
    for idx, fib in enumerate(fold.fibers):
        seen = set()
        for member in fib:
            xi = orthogonal_orbit(fold.source, member)
            ratio = len(orbit(fold.source, member)) // len(xi)
            assert ratio in (1, 2), name
            total = [0] * source.rank
            for k in xi:
                total = [a + b for a, b in zip(total, source.coroots[k])]
            vec = tuple(ratio * x for x in total)
            assert mat_vec(fixed_cols, d.coroots[idx]) == vec, name
            seen.add(vec)
        assert len(seen) == 1, name


def check_fold_fibers_and_faithfulness(name, fold):
    for idx, fib in enumerate(fold.fibers):
        assert orbit(fold.source, fib[0]) == fib, name
    fw = fixed_weyl(fold.source)
    induced = {induced_fixed_map(fold, w) for w in weyl_elements(fw)}
    assert len(induced) == len(fw), name


def test_criterion_1_and_2_folding_table(folds):
    t0 = time.time()
    nonreduced = set()
    for name, (case, fold, build_seconds) in folds.items():
        start = time.time()
        check_fold_classification(case, fold)
        elapsed = build_seconds + (time.time() - start)
        assert elapsed < 10, f"{name} exceeded the 10 s budget"
        if not is_reduced(fold.datum):
            nonreduced.add(name)
    # criterion 2: non-reduced exactly in the A_{2n} cases
    assert nonreduced == {"A2 flip", "A4 flip"}
    print(f"PASS criterion 1+2: folding table classified exactly, "
          f"non-reduced = A2/A4 only ({time.time() - t0:.1f}s)")


def test_criterion_3_fold_axioms(folds):
    for name, (case, fold, _) in folds.items():
        check_fold_axioms(name, fold)
    print("PASS criterion 3: restricted axioms, unimodular pairings, "
          "representative-independent coroots")


def test_criterion_4_weyl_descent(folds):
    for name, (case, fold, _) in folds.items():
        iso = weyl_descent_iso(fold)
        assert iso.order == len(iso.fixed_subgroup), name
    print("PASS criterion 4: descent isomorphisms verified on full "
          "multiplication tables")


def test_criterion_5_positive_system_bijection(folds):
    for name, (case, fold, _) in folds.items():
        if name not in SMALL_RANK_CASES:
            continue
        upstairs = invariant_positive_systems(fold)
        downstairs = positive_systems(fold.datum)
        w_bar = weyl_group(fold.datum, base=fold.base)
        assert len(upstairs) == len(downstairs) == len(w_bar), name
        for s in upstairs:
            down = positive_system_transfer(fold, s, "down")
            assert positive_system_transfer(fold, down, "up") == s, name
        for s in downstairs:
            up = positive_system_transfer(fold, s, "up")
            assert positive_system_transfer(fold, up, "down") == s, name
    print("PASS criterion 5: invariant positive systems biject with "
          "restricted ones, transfers mutually inverse")


def test_criterion_6_fibers_and_faithfulness(folds):
    for name, (case, fold, _) in folds.items():
        check_fold_fibers_and_faithfulness(name, fold)
    print("PASS criterion 6: fibers are single orbits, fixed subgroup "
          "acts faithfully")


@pytest.mark.slow
def test_criteria_1_3_4_6_e6_fold():
    t0 = time.time()
    fold = build_fold(E6_CASE)
    check_fold_classification(E6_CASE, fold)
    check_fold_axioms("E6 flip", fold)
    check_fold_fibers_and_faithfulness("E6 flip", fold)
    iso = weyl_descent_iso(fold)
    assert iso.order == 1152
    elapsed = time.time() - t0
    assert elapsed < 600, "E6 fold exceeded the 10 minute budget"
    print(f"PASS criterion 1/3/4/6 (slow): E6 fold -> F4, 48 roots, descent "
          f"order 1152 ({elapsed:.0f}s)")


def _cocycle_suite():
    """Actions of orders 2, 3, 4 on A1, A2, A3, D4 for the transport
    calculus, flagged with whether they stabilize the base."""
    suite = []

    def neg(n):
        return tuple(tuple(-int(i == j) for j in range(n)) for i in range(n))

    a1 = from_cartan_type("A1:sc")
    suite.append(("A1 order 2", a1, 2, neg(1), False))
    a2 = from_cartan_type("A2:sc")
    suite.append(("A2 order 2", a2, 2, neg(2), False))
    suite.append(("A2 flip", a2, 2, flip_matrix(2), True))
    a3 = from_cartan_type("A3:sc")
    suite.append(("A3 flip", a3, 2, flip_matrix(3), True))
    cox = reflection(a3.datum, a3.base[0])
    for i in a3.base[1:]:
        cox = cox * reflection(a3.datum, i)
    suite.append(("A3 order 4", a3, 4, cox.on_characters, False))
    d4 = from_cartan_type("D4:sc")
    tri = node_permutation_matrix({0: 2, 1: 1, 2: 3, 3: 0}, 4)
    suite.append(("D4 triality", d4, 3, tri, True))
    s2 = reflection(d4.datum, d4.base[1])
    conj = mat_mul(s2.on_characters, mat_mul(tri, s2.inverse().on_characters))
    suite.append(("D4 conjugated triality", d4, 3, conj, False))
    w4 = next(w for w in weyl_elements(weyl_group(d4.datum))
              if _order_of(w.on_characters) == 4)
    suite.append(("D4 order 4", d4, 4, w4.on_characters, False))
    return suite


def _order_of(m):
    n = len(m)
    ident = identity_matrix(n)
    p = m
    k = 1
    while p != ident:
        p = mat_mul(p, m)
        k += 1
        if k > 64:
            return k
    return k


def test_criterion_7_cocycle_calculus():
    for name, based, order, matrix, stabilizes in _cocycle_suite():
        act = make_action(based.datum, [(matrix, 1)],
                          group=FiniteGroup.cyclic(order))
        star_act, cocycle = star_action(act, based.base)
        # the twisted law on every pair, checked against a direct
        # recomputation (StarCocycle.build already enforces it; re-derive
        # here independently)
        g = act.group
        for s in g.elements():
            for t in g.elements():
                lhs = cocycle.values[g.mul(s, t)].on_characters
                tw = star_act.images[s] * cocycle.values[t] * star_act.images[s].inverse()
                rhs = (cocycle.values[s] * tw).on_characters
                assert lhs == rhs, name
        if stabilizes:
            assert all(v.is_identity() for v in cocycle.values), name
        else:
            assert any(not v.is_identity() for v in cocycle.values), name
        # the star action must stabilize the base pointwise as a set
        base_set = {based.datum.roots[i] for i in based.base}
        for s in g.elements():
            img = {tuple(star_act.images[s].apply(r)) for r in base_set}
            assert img == base_set, name
    print("PASS criterion 7: transport cocycles satisfy the twisted law "
          "on all pairs for orders 2, 3, 4 on A1, A2, A3, D4")


def test_criterion_8_h1_suite():
    for spec in ["A1:sc", "A2:sc"]:
        t0 = time.time()
        based = from_cartan_type(spec)
        datum = based.datum
        galois = make_action(datum, [(identity_matrix(datum.rank), 1)],
                             group=FiniteGroup.cyclic(2))
        report = h1_with_image(based, galois)
        assert report.counts == (2, 2), spec
        star_act, _ = star_action(galois, based.base)
        class_of = {}
        for k, cls in enumerate(report.image_classes.classes):
            for c in cls:
                class_of[c.sort_key()] = k
        cocycles = report.module_classes.cocycles
        twists = {}
        for c in cocycles:
            tw = twist_datum(based, star_act, c)
            _, back = star_action(tw.galois, based.base)
            assert class_of[back.sort_key()] == class_of[c.sort_key()], spec
            twists[c.sort_key()] = tw
        for i, c1 in enumerate(cocycles):
            for c2 in cocycles[i + 1:]:
                iso = equivariant_isomorphic(
                    datum, [twists[c1.sort_key()].galois],
                    datum, [twists[c2.sort_key()].galois])
                same = class_of[c1.sort_key()] == class_of[c2.sort_key()]
                assert (iso is not None) == same, spec
        assert time.time() - t0 < 5, f"{spec} H1 suite exceeded 5 s"
    print("PASS criterion 8: H1 counts, twist roundtrips, and the "
          "class/isomorphism dictionary, exhaustive on A1 and A2")


def test_criterion_9_selftest_determinism():
    out1, out2 = io.StringIO(), io.StringIO()
    code1 = selftest_mod.run(out1)
    code2 = selftest_mod.run(out2)
    assert code1 == code2 == 0
    assert out1.getvalue() == out2.getvalue()
    print("PASS criterion 9: consecutive selftest reports byte-identical")
