"""Exact integer linear algebra on small dense matrices.

Conventions used throughout the package:

* a vector is a tuple of Python ints,
* a matrix is a tuple of row tuples (so it is hashable and usable as a
  dict key),
* matrices act on column vectors, ``mat_vec(M, v) = M @ v``,
* no floating point and no rational arithmetic: every inverse and
  every solve goes through ``adjugate_and_det``, one fraction-free
  (Bareiss) elimination whose divisions are all exact, and returns an
  integer matrix or vector together with its denominator.

``Fraction`` is left in two places only: the public
``Coinvariants.average``, which really divides by the group order (its
checks run on the integer multiple, see ``action._check_coinvariants``),
and ``mat_inverse_fractions``, a view of the kernel kept for the
benchmark tracer only.  Both import ``fractions`` at that point of use
(``action.coinvariants`` and ``mat_inverse_fractions``), so importing
the package, and the commands that never build a Fraction, do not load
it or the ``decimal`` module it pulls in.

The products and vector operations below run through ``map`` over the
``operator`` functions, so the inner loops stay in C.

Ranks in scope are small (at most 16, the cap ``cli.MAX_RANK`` puts on
a document), so everything is dense and the normal-form algorithms
favor clarity and determinism over asymptotics.

``integer_kernel`` has one user left, ``RootDatum.coroot_annihilator``:
``action.coinvariants`` reads the fixed cocharacter lattice off the
Hermite-form projection of ``quotient_lattice`` (the proof is in its
docstring), where it used to take the kernel of the stacked g' - 1.
The kernel is read off one Hermite form, so ``smith_normal_form``
serves ``quotient_lattice`` only, which needs the torsion invariants.

The package's records (``RootDatum``, ``DatumAction``, ...) are plain
classes under the ``record`` decorator below, which compiles no code;
``replace`` copies one with some fields changed.  The standard
``@dataclass`` compiles six methods per frozen class, and its module
imports ``inspect``, ``ast`` and ``dis``: together about 20 ms of every
CLI request's start-up on CPython 3.11.
"""

from __future__ import annotations

from operator import add, attrgetter, mul, neg, sub


def record(cls):
    """Class decorator making ``cls`` a frozen record of the fields
    annotated in its body, in order; a class attribute of a field's name
    is its default.

    Installs ``__init__`` (positional or keyword arguments), a
    ``__repr__`` listing the fields, ``__eq__`` comparing the field
    tuples of two instances of the same class (``NotImplemented``
    otherwise) and ``__hash__`` of the field tuple, and refuses to assign
    or delete attributes.  ``cached_property`` and
    ``vars(obj)[name] = value`` write the instance dictionary directly,
    so they still work.
    """
    names = tuple(cls.__annotations__)
    n = len(names)
    defaults = {name: vars(cls)[name] for name in names if name in vars(cls)}
    get = attrgetter(*names)
    key = get if n > 1 else lambda obj: (get(obj),)
    setfield = object.__setattr__

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            rest = []
            for name in names[len(args):]:
                if name in kwargs:
                    rest.append(kwargs.pop(name))
                elif name in defaults:
                    rest.append(defaults[name])
                else:
                    raise TypeError(f"{cls.__name__}() missing field {name!r}")
            if kwargs or len(args) > n:
                raise TypeError(f"{cls.__name__}() takes the fields {names}")
            args += tuple(rest)
        # object.__setattr__, as the generated dataclass __init__ does,
        # keeps the attributes in CPython's inline values: filling
        # self.__dict__ instead made every later attribute read about
        # twice as slow (20 -> 40 ns on CPython 3.11)
        for name, value in zip(names, args):
            setfield(self, name, value)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def refuse(self, name, value=None):
        raise AttributeError(f"cannot set or delete {name!r} of a frozen {cls.__name__}")

    cls._fields = names
    cls.__init__, cls.__repr__ = __init__, __repr__
    cls.__eq__, cls.__hash__ = __eq__, __hash__
    cls.__setattr__ = cls.__delattr__ = refuse
    return cls


def replace(obj, **changes):
    """A new record of the class of ``obj`` with the same fields, except
    those named in ``changes``; TypeError for a name that is no field."""
    cls = type(obj)
    return cls(**({name: getattr(obj, name) for name in cls._fields} | changes))


def identity_matrix(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def transpose(m):
    return tuple(tuple(r) for r in zip(*m))


def mat_mul(a, b):
    bt = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


def mat_vec(m, v):
    return tuple(sum(map(mul, row, v)) for row in m)


def vec_add(u, v):
    return tuple(map(add, u, v))


def vec_sub(u, v):
    return tuple(map(sub, u, v))


def vec_neg(v):
    return tuple(map(neg, v))


def vec_scale(c, v):
    return tuple(c * x for x in v)


def dot(u, v):
    return sum(map(mul, u, v))


def det(m):
    """Determinant by fraction-free (Bareiss) elimination."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def adjugate_and_det(m):
    """(adj, d) with m @ adj = adj @ m = d * identity and d = det(m), by
    one fraction-free Gauss-Jordan pass (Bareiss) over [m | I]; raises
    ValueError if m is singular.

    Step k pivots on row k and replaces every other row i by
    (p_k * row_i - a_ik * row_k) / p_(k-1), p_k the current pivot.  Each
    entry is then a minor of [m | I] (Sylvester's identity), so every
    division is exact and the left block stays diagonal with all
    entries p_k.  The rows end as [D * I | T] with T m = D I, where D is
    the determinant of the row-swapped m: T is D m^-1, so
    adj = sign * T and d = sign * D for the parity ``sign`` of the
    swaps."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    sign = 1
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            raise ValueError("matrix is singular")
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        row_k = a[k]
        p = row_k[k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], row_k)]
        prev = p
    return tuple(tuple(sign * x for x in row[n:]) for row in a), sign * prev


def exact_quotient(m, d):
    """The integer matrix m / d, or None if d does not divide every entry."""
    if any(x % d for row in m for x in row):
        return None
    return tuple(tuple(x // d for x in row) for row in m)


def unimodular_inverse(m):
    """Integer inverse of a matrix with determinant +-1, which is +-adj;
    raises ValueError for any other matrix."""
    adj, d = adjugate_and_det(m)
    if abs(d) != 1:
        raise ValueError("matrix is not unimodular")
    return exact_quotient(adj, d)


def mat_inverse_fractions(m):
    """m^-1 as a matrix of Fractions, read off ``adjugate_and_det``.
    Nothing in the package calls it: it is kept only because the
    benchmark tracer wraps this name, and goes with the benchmark
    refresh listed in ROADMAP.md."""
    from fractions import Fraction

    adj, d = adjugate_and_det(m)
    return tuple(tuple(Fraction(x, d) for x in row) for row in adj)


def smith_normal_form(m):
    """(U, D, V) with U @ m @ V = D, U and V unimodular, D diagonal with
    d1 | d2 | ... >= 0.

    Pivoting scans for the entry of least absolute value, first by row
    then by column, so the output is deterministic.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a = [list(r) for r in m]
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_row(src, dst, q):
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, q):
        for r in a:
            r[dst] += q * r[src]
        for r in v:
            r[dst] += q * r[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    def clear_from(t):
        while True:
            best = None
            for i in range(t, rows):
                for j in range(t, cols):
                    x = abs(a[i][j])
                    if x and (best is None or x < best[0]):
                        best = (x, i, j)
            if best is None:
                return False
            _, pi, pj = best
            if pi != t:
                swap_rows(t, pi)
            if pj != t:
                swap_cols(t, pj)
            dirty = False
            for i in range(rows):
                if i != t and a[i][t]:
                    add_row(t, i, -(a[i][t] // a[t][t]))
                    if a[i][t]:
                        dirty = True
            if dirty:
                continue
            for j in range(cols):
                if j != t and a[t][j]:
                    add_col(t, j, -(a[t][j] // a[t][t]))
                    if a[t][j]:
                        dirty = True
            if dirty:
                continue
            if a[t][t] < 0:
                negate_row(t)
            return True

    limit = min(rows, cols)
    rank = 0
    for t in range(limit):
        if not clear_from(t):
            break
        rank += 1

    # enforce the divisibility chain d1 | d2 | ...
    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            x, y = a[i][i], a[i + 1][i + 1]
            if y % x != 0:
                add_row(i + 1, i, 1)
                for t in range(i, rank):
                    clear_from(t)
                changed = True
                break

    d = tuple(tuple(a[i][j] if i == j else 0 for j in range(cols)) for i in range(rows))
    return (tuple(tuple(r) for r in u), d, tuple(tuple(r) for r in v))


def hermite_row_form(m):
    """(H, T) with H = T @ m, T unimodular, H the canonical row Hermite
    form: pivots positive, entries above a pivot reduced into [0, pivot),
    zero rows last."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a = [list(r) for r in m]
    t = [[int(i == j) for j in range(rows)] for i in range(rows)]

    def add_row(src, dst, q):
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
        t[dst] = [x + q * y for x, y in zip(t[dst], t[src])]

    pr = 0
    for c in range(cols):
        while True:
            best = None
            for i in range(pr, rows):
                x = abs(a[i][c])
                if x and (best is None or x < best[0]):
                    best = (x, i)
            if best is None:
                break
            _, pi = best
            if pi != pr:
                a[pr], a[pi] = a[pi], a[pr]
                t[pr], t[pi] = t[pi], t[pr]
            done = True
            for i in range(pr + 1, rows):
                if a[i][c]:
                    add_row(pr, i, -(a[i][c] // a[pr][c]))
                    if a[i][c]:
                        done = False
            if done:
                break
        if best is None:
            continue
        if a[pr][c] < 0:
            a[pr] = [-x for x in a[pr]]
            t[pr] = [-x for x in t[pr]]
        for i in range(pr):
            q = a[i][c] // a[pr][c]
            if q:
                add_row(pr, i, -q)
        pr += 1
        if pr == rows:
            break
    return (tuple(tuple(r) for r in a), tuple(tuple(r) for r in t))


def span_rank(vectors):
    """Rank over Q of a list of integer vectors."""
    if not vectors:
        return 0
    h, _ = hermite_row_form(tuple(vectors))
    return sum(1 for row in h if any(row))


def integer_kernel(m, cols=None):
    """Canonical basis of the saturated lattice {v : m @ v = 0}: the
    Hermite form of the rows of T whose row of H is zero, for the one
    Hermite form H = T m^T.

    Those rows t_i satisfy t_i m^T = 0 and are independent, T being
    unimodular.  They span the kernel over Z: a kernel vector v is
    u^T T for an integer u, and 0 = v^T m^T = u^T H gives u_i = 0 on
    the nonzero rows of H, which are independent.  The Hermite form of
    a lattice is unique, so the basis is canonical.

    ``cols`` must be given when m has no rows.
    """
    if not m:
        if cols is None:
            raise ValueError("kernel of an empty matrix needs an explicit column count")
        return tuple(identity_matrix(cols))
    h, t = hermite_row_form(transpose(m))
    basis = [row for pivots, row in zip(h, t) if not any(pivots)]
    if not basis:
        return ()
    return hermite_row_form(basis)[0]


@record
class LatticeQuotient:
    """Free quotient of Z^n by the span of some relation vectors.

    ``projection`` (free_rank x n) realizes the quotient map
    with torsion discarded; ``section`` is an integer right inverse,
    projection @ section = identity. ``torsion_invariants`` lists the
    invariant factors > 1 of the torsion subgroup.
    """

    free_rank: int
    projection: tuple
    section: tuple
    torsion_invariants: tuple

    def project(self, v):
        return mat_vec(self.projection, v)


def quotient_lattice(rank, relations):
    relations = tuple(tuple(r) for r in relations)
    for r in relations:
        if len(r) != rank:
            raise ValueError("relation vector has wrong length")
    if not relations:
        ident = identity_matrix(rank)
        return LatticeQuotient(rank, ident, ident, ())
    rel_cols = transpose(relations)
    u, d, _ = smith_normal_form(rel_cols)
    diag = [d[i][i] for i in range(min(rank, len(relations)))]
    r = sum(1 for x in diag if x != 0)
    torsion = tuple(x for x in diag if x > 1)
    u_inv = unimodular_inverse(u)
    projection = u[r:]
    section = tuple(row[r:] for row in u_inv)
    free_rank = rank - r
    if free_rank:
        # canonicalize so the output does not depend on SNF internals
        h, t = hermite_row_form(projection)
        projection = h
        section = mat_mul(section, unimodular_inverse(t))
    else:
        projection = ()
        section = tuple(() for _ in range(rank))
    for rel in relations:
        if any(mat_vec(projection, rel)):
            raise AssertionError("projection does not annihilate a relation")
    if free_rank and mat_mul(projection, section) != identity_matrix(free_rank):
        raise AssertionError("section is not a right inverse of the projection")
    return LatticeQuotient(free_rank, projection, section, torsion)


def exact_solver(a):
    """The map b -> ``solve_exact(a, b)``, with the one elimination it
    needs done once for every right-hand side; ValueError here if a
    lacks full column rank.

    Any solution also solves the normal equations (a^T a) x = a^T b, and
    a^T a is square and nonsingular exactly when a has full column
    rank, so its adjugate gives the only candidate, checked against a.
    d = det(a^T a) is a Gram determinant, positive when nonzero."""
    at = transpose(a)
    adj, d = adjugate_and_det(mat_mul(at, a))

    def solve(b):
        x = mat_vec(adj, mat_vec(at, b))
        if mat_vec(a, x) != vec_scale(d, b):
            return None
        return x, d
    return solve


def solve_exact(a, b):
    """(x, d) with a @ x = d * b and d > 0, when a has full column rank;
    None if the system is inconsistent, ValueError if the rank is short
    (see ``exact_solver``)."""
    return exact_solver(a)(b)
