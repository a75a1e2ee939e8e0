import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rootfold.lattice import (
    adjugate_and_det,
    det,
    exact_quotient,
    hermite_row_form,
    identity_matrix,
    integer_kernel,
    mat_mul,
    mat_vec,
    quotient_lattice,
    smith_normal_form,
    solve_exact,
    span_rank,
    transpose,
    unimodular_inverse,
)


def is_diagonal_chain(d):
    rows = len(d)
    cols = len(d[0]) if rows else 0
    diag = [d[i][i] for i in range(min(rows, cols))]
    for i in range(rows):
        for j in range(cols):
            if i != j and d[i][j] != 0:
                return False
    if any(x < 0 for x in diag):
        return False
    nonzero = [x for x in diag if x]
    if diag[:len(nonzero)] != nonzero:
        return False
    for a, b in zip(nonzero, nonzero[1:]):
        if b % a != 0:
            return False
    return True


def check_snf(m):
    u, d, v = smith_normal_form(m)
    assert mat_mul(mat_mul(u, m), v) == d
    assert det(u) in (1, -1)
    assert det(v) in (1, -1)
    assert is_diagonal_chain(d)
    return d


def test_snf_diag_2_3():
    d = check_snf(((2, 0), (0, 3)))
    assert d == ((1, 0), (0, 6))


def test_snf_zero_matrix():
    m = ((0, 0), (0, 0))
    u, d, v = smith_normal_form(m)
    assert d == m
    assert u == identity_matrix(2)
    assert v == identity_matrix(2)


def test_snf_single_row():
    d = check_snf(((1, -1),))
    assert d == ((1, 0),)


def test_snf_random_small():
    rng = random.Random(20240511)
    for _ in range(300):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = tuple(tuple(rng.randint(-3, 3) for _ in range(cols)) for _ in range(rows))
        check_snf(m)


def small_vectors(dim, bound=3):
    vals = range(-bound, bound + 1)
    vecs = [()]
    for _ in range(dim):
        vecs = [v + (x,) for v in vecs for x in vals]
    return vecs


def in_integer_span(basis, v):
    if not basis:
        return not any(v)
    # a kernel basis is independent, so solve_exact must not raise here
    sol = solve_exact(transpose(basis), v)
    return sol is not None and all(x % sol[1] == 0 for x in sol[0])


def test_kernel_identity():
    assert integer_kernel(identity_matrix(3)) == ()


def test_kernel_rank_one_relation():
    assert integer_kernel(((1, -1),)) == ((1, 1),)


def test_kernel_coordinate_swap():
    # oracle: exhaustively collect small fixed vectors of the 1<->3 swap
    p = ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    m = tuple(tuple(p[i][j] - int(i == j) for j in range(3)) for i in range(3))
    basis = integer_kernel(m)
    assert basis == ((1, 0, 1), (0, 1, 0))
    fixed = [v for v in small_vectors(3) if mat_vec(p, v) == v]
    for v in fixed:
        assert in_integer_span(basis, v)


def test_kernel_properties_random():
    rng = random.Random(77)
    for _ in range(200):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = tuple(tuple(rng.randint(-3, 3) for _ in range(cols)) for _ in range(rows))
        basis = integer_kernel(m)
        for b in basis:
            assert not any(mat_vec(m, b))
        if cols <= 3:
            for v in small_vectors(cols):
                if not any(mat_vec(m, v)):
                    assert in_integer_span(basis, v)


def smith_kernel(m):
    """The kernel as ``integer_kernel`` read it before: the last columns
    of the right transform of the Smith form, past its rank, put in
    Hermite form."""
    _, d, v = smith_normal_form(m)
    rank = sum(1 for i in range(min(len(m), len(m[0]))) if d[i][i])
    basis = transpose(v)[rank:]
    if not basis:
        return ()
    h, _ = hermite_row_form(basis)
    return tuple(row for row in h if any(row))


def test_kernel_is_the_smith_form_kernel():
    # rows that are integer combinations of a few others, so that the
    # kernel is larger than cols - rows
    rng = random.Random(3000)
    for _ in range(600):
        cols = rng.randint(1, 6)
        free = [tuple(rng.randint(-4, 4) for _ in range(cols))
                for _ in range(rng.randint(1, 3))]
        combos = [[rng.randint(-2, 2) for _ in free] for _ in range(rng.randint(0, 3))]
        rows = free + [tuple(sum(c * x for c, x in zip(cs, column)) for column in zip(*free))
                       for cs in combos]
        rng.shuffle(rows)
        m = tuple(rows)
        assert integer_kernel(m) == smith_kernel(m), m


def check_quotient(rank, relations):
    q = quotient_lattice(rank, relations)
    for r in relations:
        assert not any(q.project(r))
    if q.free_rank:
        assert mat_mul(q.projection, q.section) == identity_matrix(q.free_rank)
    return q


def test_quotient_antidiagonal_relation():
    q = check_quotient(2, [(1, -1)])
    assert q.free_rank == 1
    assert q.torsion_invariants == ()
    # the projection must send (a, b) to a+b up to sign/basis choice;
    # canonical Hermite form pins it to exactly that
    assert q.projection == ((1, 1),)


def test_quotient_no_relations():
    q = check_quotient(2, [])
    assert q.free_rank == 2
    assert q.projection == identity_matrix(2)


def test_quotient_torsion():
    q = check_quotient(2, [(2, 0)])
    assert q.free_rank == 1
    assert q.torsion_invariants == (2,)
    assert q.projection == ((0, 1),)


def test_quotient_full_rank_relations():
    q = check_quotient(2, [(1, 0), (0, 1)])
    assert q.free_rank == 0
    assert q.torsion_invariants == ()


def test_quotient_random_properties():
    rng = random.Random(13)
    for _ in range(200):
        rank = rng.randint(1, 4)
        nrel = rng.randint(0, 4)
        rels = [tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(nrel)]
        check_quotient(rank, rels)


def test_hermite_row_form_canonical():
    m = ((4, 6), (2, 2))
    h, t = hermite_row_form(m)
    assert mat_mul(t, m) == h
    assert det(t) in (1, -1)
    assert h == ((2, 0), (0, 2))


def test_unimodular_inverse():
    m = ((2, 1), (1, 1))
    inv = unimodular_inverse(m)
    assert mat_mul(m, inv) == identity_matrix(2)


def test_span_rank():
    assert span_rank([(1, 0), (0, 1)]) == 2
    assert span_rank([(2, 4), (1, 2)]) == 1
    assert span_rank([]) == 0


def test_kernel_canonical_across_presentations():
    # the same subspace presented through different unimodular stackings
    # must yield the identical canonical basis
    rng = random.Random(99)
    for _ in range(100):
        cols = rng.randint(2, 4)
        rows = rng.randint(1, 3)
        m = tuple(tuple(rng.randint(-3, 3) for _ in range(cols)) for _ in range(rows))
        base = integer_kernel(m)
        # stack a redundant integer combination of the rows
        if rows >= 2:
            extra = tuple(a + b for a, b in zip(m[0], m[1]))
        else:
            extra = tuple(2 * a for a in m[0])
        assert integer_kernel(m + (extra,)) == base
        # permute the rows
        assert integer_kernel(tuple(reversed(m))) == base


def test_quotient_canonical_across_presentations():
    rng = random.Random(4242)
    for _ in range(100):
        rank = rng.randint(2, 4)
        nrel = rng.randint(1, 3)
        rels = [tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(nrel)]
        q1 = quotient_lattice(rank, rels)
        doubled = rels + [tuple(a + b for a, b in zip(rels[0], rels[-1]))]
        q2 = quotient_lattice(rank, doubled)
        assert q1.projection == q2.projection
        assert q1.free_rank == q2.free_rank
        q3 = quotient_lattice(rank, list(reversed(rels)))
        assert q3.projection == q1.projection


def test_snf_large_entries():
    rng = random.Random(314)
    for _ in range(50):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = tuple(tuple(rng.randint(-10 ** 6, 10 ** 6) for _ in range(cols))
                  for _ in range(rows))
        check_snf(m)


# ---------------------------------------------------------------------------
# the Bareiss kernel against the Fraction elimination it replaced


def reference_solve(a, b):
    """Fraction Gauss-Jordan elimination, the rational algorithm the
    kernel replaced: the solution x of a @ x = b as Fractions when a has
    full column rank, None if the system is inconsistent, ValueError if
    the rank is short."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    aug = [[Fraction(a[i][j]) for j in range(cols)] + [Fraction(b[i])] for i in range(rows)]
    pr = 0
    pivots = []
    for c in range(cols):
        piv = next((i for i in range(pr, rows) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[pr], aug[piv] = aug[piv], aug[pr]
        p = aug[pr][c]
        aug[pr] = [x / p for x in aug[pr]]
        for i in range(rows):
            if i != pr and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[pr])]
        pivots.append(c)
        pr += 1
    if len(pivots) < cols:
        raise ValueError("matrix does not have full column rank")
    for i in range(pr, rows):
        if aug[i][cols] != 0:
            return None
    x = [Fraction(0)] * cols
    for i, c in enumerate(pivots):
        x[c] = aug[i][cols]
    return tuple(x)


def reference_inverse(m):
    """m^-1 as Fractions, one reference solve per column of the identity."""
    return transpose(tuple(reference_solve(m, e) for e in identity_matrix(len(m))))


def matrices(rows, cols, bound=4):
    row = st.tuples(*[st.integers(-bound, bound)] * cols)
    return st.tuples(*[row] * rows)


square = st.integers(1, 8).flatmap(lambda n: matrices(n, n))


def unimodular(data, n):
    """A random product of elementary integer row operations."""
    m = [list(r) for r in identity_matrix(n)]
    for _ in range(data.draw(st.integers(0, 3 * n), label="steps")):
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        if i == j:
            m[i] = [-x for x in m[i]]
        else:
            c = data.draw(st.integers(-3, 3))
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    return tuple(tuple(r) for r in m)


@settings(max_examples=150, deadline=None)
@given(m=square)
def test_adjugate_and_det_against_reference(m):
    n = len(m)
    d = det(m)
    if d == 0:
        with pytest.raises(ValueError):
            adjugate_and_det(m)
        return
    adj, d_adj = adjugate_and_det(m)
    assert d_adj == d
    scalar = tuple(tuple(d * x for x in row) for row in identity_matrix(n))
    assert mat_mul(m, adj) == mat_mul(adj, m) == scalar
    assert all(isinstance(x, int) for row in adj for x in row)
    assert adj == tuple(tuple(d * x for x in row) for row in reference_inverse(m))


def test_adjugate_and_det_edge_shapes():
    assert adjugate_and_det(()) == ((), 1)
    assert adjugate_and_det(((0, 1), (1, 0))) == (((0, -1), (-1, 0)), -1)
    with pytest.raises(ValueError):
        adjugate_and_det(((1, 2),))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_adjugate_and_det_refuses_singular(data):
    n = data.draw(st.integers(1, 8), label="n")
    m = list(data.draw(matrices(n, n), label="m"))
    coeffs = data.draw(st.tuples(*[st.integers(-2, 2)] * (n - 1)), label="coeffs")
    # the last row becomes a combination of the others
    m[-1] = tuple(sum(c * row[j] for c, row in zip(coeffs, m)) for j in range(n))
    with pytest.raises(ValueError):
        adjugate_and_det(tuple(m))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_unimodular_inverse_round_trip_and_refusal(data):
    n = data.draw(st.integers(1, 8), label="n")
    u = unimodular(data, n)
    inv = unimodular_inverse(u)
    assert mat_mul(u, inv) == mat_mul(inv, u) == identity_matrix(n)
    doubled = (tuple(2 * x for x in u[0]),) + u[1:]
    assert det(doubled) in (2, -2)
    with pytest.raises(ValueError):
        unimodular_inverse(doubled)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_solve_exact_against_reference(data):
    cols = data.draw(st.integers(1, 6), label="cols")
    rows = data.draw(st.integers(cols, 8), label="rows")
    a = data.draw(matrices(rows, cols, bound=3), label="a")
    if data.draw(st.booleans(), label="consistent"):
        y = data.draw(st.tuples(*[st.integers(-3, 3)] * cols), label="y")
        b = mat_vec(a, y)
    else:
        b = data.draw(st.tuples(*[st.integers(-3, 3)] * rows), label="b")
    try:
        expected = reference_solve(a, b)
    except ValueError:
        with pytest.raises(ValueError):
            solve_exact(a, b)
        return
    got = solve_exact(a, b)
    if expected is None:
        assert got is None
        return
    x, d = got
    assert d > 0
    assert mat_vec(a, x) == tuple(d * v for v in b)
    assert tuple(Fraction(v, d) for v in x) == expected


def test_solve_exact_inconsistent_tall_system():
    a = ((1, 0), (0, 1), (1, 1))
    assert solve_exact(a, (1, 2, 4)) is None
    x, d = solve_exact(a, (1, 2, 3))
    assert tuple(Fraction(v, d) for v in x) == (1, 2)
    with pytest.raises(ValueError):
        solve_exact(((1, 2), (2, 4), (3, 6)), (1, 2, 3))


@settings(max_examples=100, deadline=None)
@given(m=matrices(3, 3, bound=20), d=st.integers(-6, 6).filter(bool))
def test_exact_quotient(m, d):
    q = exact_quotient(m, d)
    if any(x % d for row in m for x in row):
        assert q is None
    else:
        assert tuple(tuple(d * x for x in row) for row in q) == m


def test_exact_quotient_refuses_one_entry():
    assert exact_quotient(((2, 4), (6, 8)), 2) == ((1, 2), (3, 4))
    assert exact_quotient(((2, 4), (6, 7)), 2) is None


# ---------------------------------------------------------------------------
# the map-based kernels against the generator-expression definitions


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_kernels_match_the_generator_definitions(data):
    from rootfold.lattice import dot, vec_add, vec_neg, vec_sub

    rows = data.draw(st.integers(0, 4))
    inner = data.draw(st.integers(0, 4))
    cols = data.draw(st.integers(1, 4))
    entry = st.integers(-10 ** 20, 10 ** 20) | st.fractions(max_denominator=12)
    a = tuple(tuple(data.draw(entry) for _ in range(inner)) for _ in range(rows))
    b = tuple(tuple(data.draw(entry) for _ in range(cols)) for _ in range(inner))
    u = tuple(data.draw(entry) for _ in range(inner))
    v = tuple(data.draw(entry) for _ in range(inner))
    bt = tuple(zip(*b))
    assert mat_mul(a, b) == tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)
    assert mat_vec(a, u) == tuple(sum(x * y for x, y in zip(row, u)) for row in a)
    assert dot(u, v) == sum(x * y for x, y in zip(u, v))
    assert vec_add(u, v) == tuple(x + y for x, y in zip(u, v))
    assert vec_sub(u, v) == tuple(x - y for x, y in zip(u, v))
    assert vec_neg(u) == tuple(-x for x in u)
    ints = tuple(int(x) for x in u)
    assert all(type(x) is int for x in mat_vec(((1,) * inner,) * 2, ints) + vec_neg(ints))
