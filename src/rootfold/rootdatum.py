"""Root data over Z^n, their automorphisms, and Weyl machinery.

A root datum here is a quadruple (characters, roots, cocharacters,
coroots) with both lattices realized concretely as Z^rank.  The pairing
is the standard dot product by default; a folded datum instead carries
an explicit unimodular pairing matrix P, with <x, y> = x^T P y.

Roots and coroots are parallel tuples: position i pairs root i with
coroot i.  Root systems may be non-reduced (BC types are first class).
All sets are returned in a canonical order (lexicographic on vectors or
on flattened matrices) so every operation is deterministic.
"""

from __future__ import annotations

import re
from functools import cached_property
from operator import itemgetter, mul

from .errors import EnumerationOverflow, InvalidActionError, UnknownTypeError
from .lattice import (
    adjugate_and_det,
    det,
    dot,
    exact_quotient,
    exact_solver,
    hermite_row_form,
    identity_matrix,
    integer_kernel,
    mat_mul,
    mat_vec,
    record,
    span_rank,
    transpose,
    unimodular_inverse,
    vec_add,
    vec_neg,
    vec_sub,
)

WEYL_BOUND = 10 ** 6


def contragredient(matrix, pairing=None, target_pairing=None):
    """The induced map on the cocharacter side: the unique A' with
    <A x, A' y>' = <x, y>, where <,> is the source pairing ``pairing``
    and <,>' the target pairing ``target_pairing`` (None stands for the
    standard dot product).  That is A' = P'^-1 A^-T P; for the standard
    pairing on both sides it is the inverse transpose.  The engine
    builds none: the tests and ``root_permutation`` ask for it."""
    out = transpose(unimodular_inverse(matrix))
    if pairing is not None:
        out = mat_mul(out, pairing)
    if target_pairing is not None:
        out = mat_mul(unimodular_inverse(target_pairing), out)
    return out


@record
class DatumAutomorphism:
    """A datum automorphism, as its unimodular matrix M on the character
    lattice.

    M determines the map on the cocharacters.  An automorphism of the
    datum is a pair (M, M') with <M x, M' y> = <x, y> for all x and y,
    that is x^T M^T P M' y = x^T P y, so M^T P M' = P and, P being
    invertible, M' = P^-1 M^-T P, the ``contragredient``.  So an
    automorphism is one to one with its M, and products and inverses
    are those of the matrices M.  M' is never built: every lattice
    check reads M alone (``_walk_automorphism``)."""

    on_characters: tuple

    @classmethod
    def identity(cls, rank):
        return cls(identity_matrix(rank))

    def __mul__(self, other):
        return DatumAutomorphism(mat_mul(self.on_characters, other.on_characters))

    def inverse(self):
        return DatumAutomorphism(unimodular_inverse(self.on_characters))

    def apply(self, v):
        return mat_vec(self.on_characters, v)

    def is_identity(self):
        n = len(self.on_characters)
        return self.on_characters == identity_matrix(n)


@record
class RootDatum:
    """Roots and coroots in Z^rank, as two tuples of integer vectors of
    the same length, coroot i dual to root i.  ``pairing`` is the matrix
    P of the perfect pairing <x, lam> = x^T P lam of the character and
    cocharacter lattices; None means the standard pairing, P = I.  The
    axioms are checked by ``verify_axioms``, not here."""

    rank: int
    roots: tuple
    coroots: tuple
    pairing: tuple = None

    @cached_property
    def pairing_matrix(self):
        return self.pairing if self.pairing is not None else identity_matrix(self.rank)

    @cached_property
    def has_standard_pairing(self):
        return self.pairing is None or self.pairing == identity_matrix(self.rank)

    def pair(self, x, lam):
        if self.has_standard_pairing:
            return dot(x, lam)
        return dot(x, mat_vec(self.pairing_matrix, lam))

    @cached_property
    def root_index(self):
        return {r: i for i, r in enumerate(self.roots)}

    def index_of(self, root):
        return self.root_index[tuple(root)]

    @cached_property
    def is_semisimple(self):
        """Whether the roots span the characters over Q: exactly when
        their Gram matrix R^T R is invertible, R having the roots as
        rows, as R^T R v = 0 gives |R v|^2 = 0.  ``from_cartan_type``
        hands over True."""
        return bool(self.roots) and det(mat_mul(transpose(self.roots), self.roots)) != 0

    @cached_property
    def coroot_annihilator(self):
        """A basis of the characters pairing to zero with every coroot;
        empty on semisimple data.  Every Weyl element fixes it
        pointwise, and the characters are the direct sum of its span and
        the span of the roots (see ``verify_axioms``)."""
        if self.is_semisimple:
            return ()
        return integer_kernel(tuple(_paired(self, c) for c in self.coroots), cols=self.rank)

    @cached_property
    def _independent_roots(self):
        """Indices of a basis of the span of the roots, each root taken
        in order when it is independent of those before it; handed over
        by ``from_cartan_type`` as the base.

        They are the pivot columns of one row Hermite form of the matrix
        with the roots as columns: row operations keep every linear
        relation among the columns, and in an echelon form a column is
        independent of those before it exactly when it holds a pivot."""
        h, _ = hermite_row_form(transpose(self.roots))
        return tuple(next(c for c, x in enumerate(row) if x) for row in h if any(row))

    @cached_property
    def _root_basis(self):
        """(chosen, fixed, adj, d): the ``_independent_roots``; a basis of
        the annihilator of the coroots; and the adjugate and determinant
        of the matrix [r_i | z_j] with those columns, read by
        ``_matrix_on_roots``."""
        chosen = self._independent_roots
        fixed = list(self.coroot_annihilator)
        basis = [self.roots[i] for i in chosen] + fixed
        return (chosen, fixed) + adjugate_and_det(transpose(tuple(basis)))

    @cached_property
    def _canonical_system(self):
        # (positive system, base) read by ``positive_system`` and
        # ``canonical_base``
        v = _generic_functional(self)
        system = frozenset(i for i, r in enumerate(self.roots) if self.pair(r, v) > 0)
        return system, base_of(self, system)

    @cached_property
    def negation(self):
        """Per root index, the index of the negated root (KeyError when
        the root set is not symmetric)."""
        return tuple(self.root_index[vec_neg(r)] for r in self.roots)

    @cached_property
    def root_sums(self):
        """Per root index i, the pairs (j, k) with a_i + a_j = a_k, in
        the order of j: the root-addition table on indices, |R|^2 sums
        built once per datum."""
        index = self.root_index
        out = []
        for r in self.roots:
            pairs = []
            for j, s in enumerate(self.roots):
                k = index.get(vec_add(r, s))
                if k is not None:
                    pairs.append((j, k))
            out.append(tuple(pairs))
        return tuple(out)

    @cached_property
    def _reflection_perms(self):
        # filled by ``reflection_permutation``, one entry per root index
        return {}

    @cached_property
    def _conjugating_reflections(self):
        # the reflection permutations ``reflection_permutation`` read off
        # the pairing and closes its cache under, in the order computed
        return []

    @cached_property
    def _positive_system_verdicts(self):
        # filled by ``is_positive_system``, keyed by the frozenset
        return {}

    @cached_property
    def _weyl_groups(self):
        # the Weyl group as root permutations, keyed by the base it was
        # closed from: filled by ``weyl_group``, and on a restricted datum
        # by ``folding.weyl_descent_iso`` with the same closure
        return {}

    @cached_property
    def _based_positive_systems(self):
        # filled by ``BasedRootDatum.positive_system`` and ``verify_base``,
        # keyed by the base, so every ``BasedRootDatum`` on one base shares
        # one walk
        return {}

    @cached_property
    def _diagram_maps(self):
        # filled by ``twist._diagram_maps``, keyed by the base, and by the
        # commuting permutations when they cut the list
        return {}

    @cached_property
    def _search_orders(self):
        # filled by ``twist.equivariant_isomorphic`` with the ranked
        # candidate isomorphisms of this datum onto itself, keyed by the
        # generator permutations of the action whose automorphisms they
        # are, or () for all of them
        return {}


@record
class BasedRootDatum:
    """A root datum with a base: ``base`` holds the indices of the simple
    roots in ``datum.roots``.  That they form a base is checked by
    ``verify_base``, not here."""

    datum: RootDatum
    base: tuple

    @property
    def simple_roots(self):
        return tuple(self.datum.roots[i] for i in self.base)

    @property
    def simple_coroots(self):
        return tuple(self.datum.coroots[i] for i in self.base)

    @cached_property
    def root_coordinates(self):
        """Per root, (x, d) with sum_j x_j simple_j = d * root and d > 0,
        or None when the root is outside the rational span of the base.
        One adjugate of the Gram matrix of the base serves every root
        (``exact_solver``); ValueError when the simple roots are
        dependent."""
        solve = exact_solver(transpose(self.simple_roots))
        return tuple(solve(r) for r in self.datum.roots)

    @property
    def positive_system(self):
        """Indices of the roots that are nonnegative over the base: the
        walk of ``_walk_base``, kept on the datum per base
        (``star_action`` builds a new ``BasedRootDatum`` on every call),
        where ``verify_base`` keeps the walk it certifies too.  A tuple
        the walk does not certify is refused with InvalidActionError
        naming it.  No base is refused: the walk certifies every base of
        a root datum (see there), and ``verify_base`` refuses every tuple
        it does not certify."""
        kept = self.datum._based_positive_systems
        system = kept.get(self.base)
        if system is None:
            system = _walk_base(self)
            if system is None:
                raise InvalidActionError(f"roots {self.base} do not form a base")
            kept[self.base] = system
        return system

    def cartan_matrix(self):
        d = self.datum
        return tuple(
            tuple(d.pair(d.roots[i], d.coroots[j]) for j in self.base)
            for i in self.base
        )


def _walk_base(based):
    """The positive system of the base, walked with the simple
    reflections, or None when the walk is not certified.

    The walk is breadth-first from the simple roots a_j and each 2 a_j
    that is a root.  From a walked root a it steps to s_j(a) along the
    cached ``reflection_permutation`` of each simple root, except from
    a_j and 2 a_j: for a base, s_j permutes the positive roots that are
    not multiples of a_j (Bourbaki, Lie VI 1.6, Cor. 1 of Prop. 17), so
    the walk reaches exactly the positive roots.  Each walked root
    carries integer coordinates x with a = sum_m x_m a_m, exact by
    induction: x(s_j a) = x(a) - <a, c_j> e_j, where
    <a, c_j> = sum_m x_m <a_m, c_j> is read off the Cartan matrix.

    The certificate, checked on any index tuple: the Cartan matrix
    C[m][j] = <a_m, c_j> of the simple roots is nonsingular, every
    walked root has nonnegative coordinates, and the walk holds half
    the roots.  It forces the solve's answer.  A relation
    sum_m y_m a_m = 0 gives y C = 0, so the simple roots are
    independent.  Each s_j moves a root, as otherwise <x, c_j> a_j = 0
    for every root x and row or column j of C is 0; so <a_j, c_j> = 2
    and s_j(a) = -a for a = a_j, 2 a_j (see ``reflection_permutation``).
    A walked root is w(a) for such a seed a and a product w of simple
    reflections, linear maps permuting the roots, so its negative
    w(s_j(a)) is a root too; and none is the negative of another, as
    the walked roots have nonnegative coordinates over independent
    roots.  So the roots are the walked ones and their negatives,
    integer combinations of the base: the solve neither raises nor
    refuses.  A walked root has the unique coordinates x >= 0 and is
    kept; its negative has -x, nonpositive and nonzero, and is not.
    Nothing is assumed of the datum's axioms, so the walk gives the
    solve's answer on any datum; for a genuine base the Cartan matrix
    is nonsingular and the walk is certified."""
    datum, base = based.datum, based.base
    cartan = based.cartan_matrix()
    if det(cartan) == 0:   # so the simple roots are also distinct
        return None
    coords, steps = {}, []
    for j, b in enumerate(base):
        s = reflection_permutation(datum, b)
        if s is None:
            return None
        unit = tuple(int(m == j) for m in range(len(base)))
        coords[b] = unit
        skip = {b}
        double = _double(datum, b)
        if double is not None:
            coords[double] = tuple(2 * x for x in unit)
            skip.add(double)
        steps.append((j, s, skip, tuple(row[j] for row in cartan)))
    walked = list(coords)
    for i in walked:
        x = coords[i]
        for j, s, skip, column in steps:
            k = s[i]
            if k in coords or i in skip:
                continue
            y = list(x)
            y[j] -= sum(map(mul, x, column))
            if y[j] < 0 or 2 * len(walked) >= len(datum.roots):
                return None
            coords[k] = tuple(y)
            walked.append(k)
    return frozenset(walked) if 2 * len(walked) == len(datum.roots) else None


class WeylGroup:
    """A finite group of datum automorphisms, stored as root permutations.

    The Weyl group of a root datum acts faithfully on its roots
    (``verify_axioms`` proves it), so the permutation of the root
    indices names an element; ``perms`` lists them in closure order.
    ``generators`` holds the permutations the group was closed from, when
    it was built as a closure.  The group may be any group of
    automorphisms, such as the one
    ``twist.equivariant_automorphism_group`` returns: permutations name
    Weyl elements on any datum, and every automorphism on semisimple
    data, where the roots span the characters over Q.

    The order can be known before the closure: built with ``perms=None``
    and an ``order``, the group holds its generators only, ``len`` gives
    the stored order, and ``perms`` closes the generators on first use
    and raises AssertionError unless the closure has exactly that many
    elements.  Permutations given as tuples are converted on entry
    (``as_permutation``)."""

    def __init__(self, datum, perms, generators=(), order=None):
        self.datum = datum
        self.generators = tuple(map(as_permutation, generators))
        if perms is not None:
            perms = tuple(perms)
            # a caller passes one representation: tuples are converted
            if perms and as_permutation(perms[0]) is not perms[0]:
                perms = tuple(map(as_permutation, perms))
            vars(self)["perms"] = perms
        self.order = len(self.perms) if order is None else order

    @cached_property
    def perms(self):
        ident = identity_permutation(len(self.datum.roots))
        perms = tuple(closure([ident], [permutation_getter(g) for g in self.generators]))
        if len(perms) != self.order:
            raise AssertionError(f"the generators do not close to {self.order} elements")
        return perms

    def __len__(self):
        return self.order


def reflection(datum, root_index):
    """The reflection s through the indexed root a, with coroot c, as a
    datum automorphism: x -> x - <x, c> a on characters, the matrix
    I - a (P c)^T.  On cocharacters it is y -> y - <a, y> c (see
    ``reflection_permutation``), the contragredient, which is not
    built."""
    beta = datum.roots[root_index]
    p_cov = _paired(datum, datum.coroots[root_index])
    return DatumAutomorphism(tuple(tuple(int(i == j) - b * p for j, p in enumerate(p_cov))
                                   for i, b in enumerate(beta)))


def root_permutation(datum, aut):
    """aut as a permutation of root indices; None if it does not permute
    the roots compatibly with coroots, the coroots read through the
    ``contragredient``.  The engine walks its matrices from a base
    instead (``_walk_automorphism``); this direct check of every root
    and coroot is kept as the reference the tests compare the walk
    with, and the benchmark tracer counts its calls by name."""
    matrix = aut.on_characters
    perm = [datum.root_index.get(aut.apply(r)) for r in datum.roots]
    if None in perm or len(set(perm)) != len(perm) or abs(det(matrix)) != 1:
        return None
    pairing = None if datum.has_standard_pairing else datum.pairing_matrix
    cochars = contragredient(matrix, pairing, pairing)
    if any(mat_vec(cochars, c) != datum.coroots[j] for c, j in zip(datum.coroots, perm)):
        return None
    return as_permutation(perm)


def _walk_automorphism(source, matrix, target=None):
    """The root permutation p of the lattice map with the unimodular
    character matrix ``matrix`` (M) from the datum of ``source`` to
    ``target`` (by default that datum, for an automorphism), walked from
    a base, or None when M does not send each root onto a root of
    ``target`` and its coroot onto the image root's coroot;
    InvalidActionError naming the base when the walk misses a root.

    A ``BasedRootDatum`` is walked from its base, a ``RootDatum`` from
    ``held_base``: p does not depend on the base, only the cost does.

    Write (a_m, c_m) for the root pairs of the source, with the pairing
    <x, y>1 = x^T P1 y, and (b_k, d_k) for those of the target, with
    <,>2 and P2.  The walk is seeded with the simple roots a_j and each
    2 a_j that is a root.  Each seed pair must go to a pair of the
    target: M a_m = b_k, and M^T P2 d_k = P1 c_m, that is
    <M x, d_k>2 = <x, c_m>1 for every x (for an automorphism,
    M' c_m = c_k for the contragredient M' = P^-1 M^-T P, which is not
    built).  The cached reflections s_j of each simple a_j, and t_k of
    its image b_k, must pass.  Then M s_j = t_k M on characters:
    M s_j(x) = M x - <x, c_j>1 b_k = M x - <M x, d_k>2 b_k = t_k(M x).
    So if M sends the pair of root m to that of root p(m), it sends the
    pair of s_j(m) to that of t_k(p(m)): M a_{s_j m} = t_k(M a_m), and
    as c_{s_j m} = c_m - <a_j, c_m>1 c_j and
    <a_j, c_m>1 = <M a_j, d_{p(m)}>2 = <b_k, d_{p(m)}>2,
    <x, c_{s_j m}>1 = <M x, d_{p(m)} - <b_k, d_{p(m)}>2 d_k>2, the pairing
    with the coroot of t_k(p(m)).  The walk sets p(s_j[m]) = t_k[p(m)],
    breadth-first from the seeds, and each p(m) it sets is the index
    ``root_permutation`` finds for m.  p is one to one with M, as the
    roots are distinct (a passing reflection is one to one on root
    indices).

    The roots walked depend on the base alone, not on M, and from a
    base the walk reaches every root.  The roots that are not twice a
    root form a reduced system with the same base and Weyl group, in
    which every root is w(a_j) for a product w of simple reflections
    (Bourbaki, Lie VI 1.5, Th. 2 and Prop. 15); a root twice a root a
    is then w(2 a_j) for a = w(a_j).  So a walk that misses a root was
    not seeded from a base."""
    if isinstance(source, BasedRootDatum):
        datum, base = source.datum, source.base
    else:
        datum, base = source, held_base(source)
    target = datum if target is None else target
    back = transpose(matrix)
    perm = [None] * len(datum.roots)
    doubles = [_double(datum, j) for j in base]
    walked = [*base, *(m for m in doubles if m is not None)]   # the seeds
    for m in walked:
        k = target.root_index.get(mat_vec(matrix, datum.roots[m]))
        if k is None or mat_vec(back, _paired(target, target.coroots[k])) != _paired(
                datum, datum.coroots[m]):
            return None
        perm[m] = k
    steps = [(reflection_permutation(datum, j), reflection_permutation(target, perm[j]))
             for j in base]
    if any(None in step for step in steps):
        return None
    for m in walked:   # the list grows as roots are walked
        for s, t in steps:
            if perm[s[m]] is None:
                perm[s[m]] = t[perm[m]]
                walked.append(s[m])
    if None in perm:
        raise InvalidActionError(f"roots {base} do not form a base")
    return as_permutation(perm)


def _paired(datum, c):
    """P c for the pairing matrix P of ``datum``: <x, c> = x^T P c."""
    return c if datum.has_standard_pairing else mat_vec(datum.pairing_matrix, c)


def _double(datum, i):
    """The index of the root 2 a_i, or None when it is not a root."""
    return datum.root_index.get(tuple(2 * x for x in datum.roots[i]))


def reflection_permutation(datum, k):
    """The root permutation of the reflection in root k, or None if it
    does not permute the roots compatibly with the coroots: the contract
    of ``root_permutation(datum, reflection(datum, k))``.  s_k sends
    root a_i to a_i - <a_i, c_k> a_k and coroot c_i to
    c_i - <a_k, c_i> c_k.  Cached on the datum instance;
    ``from_cartan_type`` hands over the simple reflections it checked.

    A root not in the cache is read off the pairing without building a
    matrix, and the cache is then closed by conjugation under the
    reflections s_j so read that passed (``_conjugate_reflections``):
    each root a_m = s_j(a_i) reached from a cached root a_i enters with
    the composite of the permutations of s_j, s_i, s_j.  That is its
    reflection.  A passing s_j that moves a root has <a_j, c_j> = 2: it
    permutes the finite root set, so s_j^n(a_j) = (1 - <a_j, c_j>)^n a_j
    is a root for every n, and the factor is 1 or -1 (0 would send a_j
    and the root 0 both to 0); with <a_j, c_j> = 0 each root x has
    s_j^n(x) = x - n <x, c_j> a_j, so s_j moves none and reaches no
    new root.  Otherwise s_j(a_i) = a_m and s_j(c_i) = c_m for one m,
    and s_j is an involution preserving the pairing, so
    s_j s_i s_j (x) = x - <s_j x, c_i> s_j(a_i) = x - <x, c_m> a_m, and
    the same on cocharacters.  So s_m passes too, with the composite
    permutation, and a root whose reflection fails is never reached: a
    cached entry is the direct computation's, on any datum.  A second
    base then costs two composes per reflection, or nothing."""
    cache = datum._reflection_perms
    if k not in cache:
        cache[k] = _reflection_permutation(datum, k)
        if cache[k] is not None:
            _conjugate_reflections(datum, k)
    return cache[k]


def _reflection_permutation(datum, k):
    alpha, cov = datum.roots[k], datum.coroots[k]
    if datum.has_standard_pairing:
        p_cov, p_alpha = cov, alpha
    else:
        p_cov = mat_vec(datum.pairing_matrix, cov)
        p_alpha = mat_vec(transpose(datum.pairing_matrix), alpha)
    perm = []
    for i, (r, c) in enumerate(zip(datum.roots, datum.coroots)):
        n = dot(r, p_cov)
        j = datum.root_index.get(tuple(x - n * a for x, a in zip(r, alpha))) if n else i
        if j is None:
            return None
        m = dot(p_alpha, c)
        if (tuple(x - m * a for x, a in zip(c, cov)) if m else c) != datum.coroots[j]:
            return None
        perm.append(j)
    if len(set(perm)) != len(perm):
        return None
    return as_permutation(perm)


# Root permutations.  A permutation of n points is the sequence of the
# images of 0, ..., n - 1: ``bytes`` when n <= 256, so that composing
# is one ``bytes.translate`` and hashing reads a flat buffer, and a
# tuple of ints above (E8 x E8 has 480 roots).  Only the helpers below
# look at the representation.  Bytes and tuples of the same entries sort
# alike, but the hash of bytes depends on PYTHONHASHSEED: a set of
# permutations must never be iterated into an output or an order.

_BYTE_POINTS = 256
_IDENTITY_BYTES = bytes(range(_BYTE_POINTS))


def identity_permutation(n):
    """The identity permutation of n points."""
    return _IDENTITY_BYTES[:n] if n <= _BYTE_POINTS else tuple(range(n))


def as_permutation(seq, n=None):
    """``seq``, a sequence of indices of n points (by default
    n = len(seq)), in the representation of the permutations of n
    points; a permutation already in it comes back unchanged."""
    if type(seq) is bytes:
        return seq
    return bytes(seq) if (len(seq) if n is None else n) <= _BYTE_POINTS else tuple(seq)


def compose(p, q):
    """p o q (first q, then p): the entries of p at the indices q, for
    p and q in one representation.  On bytes it is one translate, with p
    padded to a full table (q reads none of the padding)."""
    if type(q) is bytes:
        return q.translate(p.ljust(_BYTE_POINTS))
    return itemgetter(*q)(p) if len(q) > 1 else tuple(p[i] for i in q)


def permutation_getter(q):
    """The map p -> p o q of ``compose``, for a q that is used many
    times.  ``q`` may also be a shorter sequence of indices, in the
    representation of p (``as_permutation(indices, len(p))``): the map
    then reads the entries of p at those indices."""
    if type(q) is bytes:
        return lambda p: q.translate(p.ljust(_BYTE_POINTS))
    if len(q) > 1:
        return itemgetter(*q)
    return lambda p: tuple(p[i] for i in q)


def _invert_permutation(p):
    if type(p) is bytes:
        # the table sends p[i] to i; past n it is the identity
        return bytes.maketrans(p, _IDENTITY_BYTES[:len(p)])[:len(p)]
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


def cycle_type(p):
    """The sorted tuple of the cycle lengths of p, in either
    representation (indexing bytes gives ints).  Conjugate permutations
    have the same cycle type: f p f^-1 maps f(i) to f(p(i))."""
    seen = bytearray(len(p))
    lengths = []
    for i in range(len(p)):
        j, length = i, 0
        while not seen[j]:
            seen[j] = 1
            j = p[j]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths))


def closure(seeds, maps, bound=None, what="closure"):
    """Every element reachable from ``seeds`` under ``maps``, in
    breadth-first order, seeds first and without repeats.  After each
    layer, raises EnumerationOverflow once more than ``bound`` elements
    are known (None: no bound)."""
    found = list(dict.fromkeys(seeds))
    seen = set(found)
    frontier = found
    while frontier:
        nxt = []
        for x in frontier:
            for f in maps:
                y = f(x)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        found.extend(nxt)
        if bound is not None and len(found) > bound:
            raise EnumerationOverflow(f"{what} exceeds {bound} elements")
        frontier = nxt
    return found


def is_reduced(datum):
    return all(_double(datum, i) is None for i in range(len(datum.roots)))


def _automorphisms_from_permutations(datum, perms, blocks=None):
    """The datum automorphisms with the given root permutations and
    blocks on the basis ``coroot_annihilator`` (see
    ``action.DatumAction``); by default every block is the identity, as
    for every Weyl element.  Each pair must be induced by an
    automorphism.

    With r_i independent roots and z_j that basis, [r_i | z_j] is
    invertible (see ``verify_axioms``), so the character matrix is
    [w r_i | B z_j] [r_i | z_j]^-1, computed once per distinct pair with
    the adjugate kept on the datum (``RootDatum._root_basis``) and one
    exact division (``_matrix_on_roots``)."""
    if blocks is None:
        blocks = [identity_matrix(len(datum.coroot_annihilator))] * len(perms)
    chosen = datum._root_basis[0]
    mats = {}
    for p, b in dict.fromkeys(zip(perms, blocks)):
        mats[p, b] = _matrix_on_roots(datum, [datum.roots[p[i]] for i in chosen], b)
        if mats[p, b] is None:
            raise AssertionError(
                "root permutation is not induced by a lattice automorphism")
    return [DatumAutomorphism(mats[pair]) for pair in zip(perms, blocks)]


def _matrix_on_roots(source, images, block):
    """The character matrix of the linear map on the characters of
    ``source`` sending the k-th independent root r_i that
    ``RootDatum._root_basis`` chooses to ``images[k]``, and each vector
    z_j of the basis of the annihilator of the coroots (none on
    semisimple data) to sum_i block[i][j] z_i:
    [images | B z_j] [r_i | z_j]^-1, with the adjugate kept there and
    one exact division; None when that matrix is not integral."""
    _, fixed, adj, d = source._root_basis
    if fixed:
        images = [*images, *mat_mul(transpose(block), fixed)]
    return exact_quotient(mat_mul(transpose(tuple(images)), adj), d)


def _annihilator_block(datum, matrix):
    """The matrix of the automorphism with character matrix ``matrix``
    on the basis z_j of ``datum.coroot_annihilator``: column j holds the
    coordinates of its image of z_j, read off with the adjugate of
    ``RootDatum._root_basis`` (an automorphism maps the annihilator onto
    itself, see ``action.DatumAction``).  () on semisimple data, where
    ``_root_basis`` is not read."""
    if not datum.coroot_annihilator:
        return ()
    chosen, fixed, adj, d = datum._root_basis
    coords = exact_quotient(mat_mul(adj, mat_mul(matrix, transpose(fixed))), d)
    return coords[len(chosen):]


def weyl_group(datum, base=None):
    """Breadth-first closure of the simple reflection permutations of
    ``base`` (by default the canonical base), which generate W; no
    matrix is built until the caller asks for one.  Raises
    EnumerationOverflow beyond ``WEYL_BOUND`` elements.

    The closed permutations are kept on the datum, keyed by base, and
    used again.  With no base given, permutations kept under another
    base are used when they hold the simple reflections of the canonical
    base: they form a group generated by reflections, which lies in W
    and contains a generating set of W, so it is W.
    Only permutations are kept, not the ``WeylGroup``, which refers back
    to the datum: a reference cycle would keep every datum and its
    caches alive until a full garbage collection."""
    kept = datum._weyl_groups
    key = tuple(canonical_base(datum) if base is None else base)
    gens = [reflection_permutation(datum, i) for i in key]
    if None in gens:
        raise AssertionError("reflection does not permute the roots")
    perms = kept.get(key)
    if perms is None and base is None:
        perms = next((p for p in kept.values() if set(gens) <= set(p)), None)
    if perms is None:
        perms = tuple(closure([identity_permutation(len(datum.roots))],
                              [permutation_getter(p) for p in gens], WEYL_BOUND,
                              "reflection group"))
    kept[key] = perms
    return WeylGroup(datum, perms, gens)


# ---------------------------------------------------------------------------
# axioms


def verify_axioms(datum):
    """Check every root-datum axiom; returns a list of violation
    messages, empty when the datum is valid.  Nothing is raised.

    The Weyl group W needs no closure to be known finite.  The checks
    below make each reflection s_a permute the finite root set R, and
    its contragredient permute the coroots R' in step.  W then acts
    faithfully on R, so it embeds in the symmetric group of R.

    Proof of faithfulness, over Q.  The form (x, y) = sum over c in R'
    of <x, c><y, c> is W-invariant and positive semidefinite, and its
    radical is the annihilator A of R'.  On the hyperplane <x, a'> = 0
    the reflection s_a is the identity, so there (x, a) = (s_a x, s_a a)
    = -(x, a) = 0.  As (a, a) >= <a, a'>^2 = 4, the two functionals agree
    up to scale: <x, a'> = 2 (x, a) / (a, a) for every x.  So the linear
    map x -> (x, .), whose kernel is A, sends each root to a multiple of
    its coroot and span R onto span R', giving
    dim span R' = dim span R - dim (span R meet A).  The same argument on
    the cocharacter side gives
    dim span R = dim span R' - dim (span R' meet A'), A' the annihilator
    of R.  Adding the two, span R meets A only in 0 and both spans have
    dimension rank - dim A: the characters are the direct sum of span R
    and A.  A Weyl element fixing every root is the identity on span R,
    and on A because every reflection fixes A pointwise; so it is the
    identity.

    The reflection check runs through ``reflection_permutation``, which
    reads a few roots off the pairing, or on a datum built by
    ``from_cartan_type`` takes the simple reflections checked there, and
    reaches the others by conjugation; the problem list is that of the
    direct check on every root (see there)."""
    problems = []
    roots, coroots = datum.roots, datum.coroots
    if len(roots) != len(coroots):
        return [f"root/coroot lists differ in length ({len(roots)} vs {len(coroots)})"]
    zero = tuple(0 for _ in range(datum.rank))
    if any(len(r) != datum.rank for r in roots + coroots):
        return ["root or coroot of wrong dimension"]
    if len(set(roots)) != len(roots) or zero in roots:
        problems.append("roots are not distinct and nonzero")
    if len(set(coroots)) != len(coroots) or zero in coroots:
        problems.append("coroots are not distinct and nonzero")
    if problems:
        return problems
    if abs(det(datum.pairing_matrix)) != 1:
        problems.append("pairing matrix is not unimodular")
    for i in range(len(roots)):
        v = datum.pair(roots[i], coroots[i])
        if v != 2:
            problems.append(f"<root {i}, coroot {i}> = {v}, expected 2")
    if set(vec_neg(r) for r in roots) != set(roots):
        problems.append("root set is not symmetric under negation")
    if set(vec_neg(c) for c in coroots) != set(coroots):
        problems.append("coroot set is not symmetric under negation")
    if problems:
        return problems
    for i in range(len(roots)):
        if reflection_permutation(datum, i) is None:
            problems.append(
                f"reflection in root {i} does not permute roots and coroots compatibly")
    return problems


def _conjugate_reflections(datum, k):
    """Add the reflection s_k, just read off the pairing or handed over
    by construction, to ``datum._conjugating_reflections``, and enter the
    permutation of s_m = s_j s_i s_j for each root a_m = s_j(a_i)
    reached from the cached roots a_i by those reflections s_j (see
    ``reflection_permutation``).

    The cache was closed under them before, so only the pairs that are
    new need a look: root k under every reflection, every cached root
    under s_k, and every root reached under every reflection.  Each
    (root, reflection) pair is looked at once over all calls, |R| times
    the number of reflections added."""
    cache, checked = datum._reflection_perms, datum._conjugating_reflections
    checked.append(cache[k])
    frontier = [(i, checked[-1:]) for i, p in cache.items() if p is not None and i != k]
    frontier.append((k, checked))
    while frontier:
        reached = []
        for i, maps in frontier:
            s_i = cache[i]
            for s_j in maps:
                m = s_j[i]
                if m not in cache:
                    cache[m] = compose(s_j, compose(s_i, s_j))
                    reached.append((m, checked))
        frontier = reached


def verify_base(based):
    """Check the base axioms; returns a list of violations.

    A tuple the walk certifies (``_walk_base``) needs no solve: the
    certificate proves that the simple roots are independent, that
    every root is an integer combination of them, and that no root has
    mixed signs over them (see there).  Its walked positive system is
    kept on the datum for ``BasedRootDatum.positive_system``.  Any other
    tuple is solved over ``root_coordinates``, with the problem list of
    the solve."""
    datum = based.datum
    base = based.base
    problems = []
    walked = _walk_base(based)
    if walked is not None:
        datum._based_positive_systems[base] = walked
    else:
        simples = [datum.roots[i] for i in base]
        if span_rank(simples) != len(simples):
            problems.append("base roots are not linearly independent")
            return problems
        # the simples are independent, so the solve cannot raise
        for i, sol in enumerate(based.root_coordinates):
            if sol is None or any(x % sol[1] for x in sol[0]):
                problems.append(f"root {i} is not an integer combination of the base")
                continue
            signs = [x for x in sol[0] if x != 0]
            if signs and not (all(x > 0 for x in signs) or all(x < 0 for x in signs)):
                problems.append(f"root {i} has mixed signs over the base")
    root_set = set(datum.roots)
    for i in base:
        r = datum.roots[i]
        for m in range(2, 5):
            if all(x % m == 0 for x in r) and tuple(x // m for x in r) in root_set:
                problems.append(f"base root {i} is {m} times another root")
    return problems


# ---------------------------------------------------------------------------
# positive systems


def _generic_functional(datum):
    """A cocharacter-side integer vector pairing nonzero against every
    root, found by a deterministic escalation of base powers."""
    if not datum.roots:
        return tuple(0 for _ in range(datum.rank))
    b = 1
    while True:
        v = tuple(b ** i for i in range(datum.rank))
        if all(datum.pair(r, v) != 0 for r in datum.roots):
            return v
        b += 1


def positive_system(datum):
    """The canonical positive system: roots positive against the first
    generic functional.  Cached on the datum."""
    return datum._canonical_system[0]


def positive_systems(datum):
    """All positive systems, as Weyl translates of the canonical one."""
    w = weyl_group(datum)
    translate = permutation_getter(as_permutation(sorted(positive_system(datum)),
                                                  len(datum.roots)))
    systems = {frozenset(translate(p)) for p in w.perms}
    return tuple(sorted(systems, key=sorted))


def base_of(datum, system):
    """Indecomposable elements of a positive system."""
    sums = {vec_add(datum.roots[j], datum.roots[k]) for j in system for k in system}
    return tuple(i for i in sorted(system) if datum.roots[i] not in sums)


def canonical_base(datum):
    """The base of the canonical positive system.  Cached on the datum."""
    return datum._canonical_system[1]


def held_base(datum):
    """The first base the datum holds a walk for
    (``RootDatum._based_positive_systems``), else ``canonical_base``: the
    base to walk from when any base will do, as the canonical base of a
    fresh datum costs |P|^2 root sums."""
    base = next(iter(datum._based_positive_systems), None)
    return canonical_base(datum) if base is None else base


def is_positive_system(datum, system):
    """Partition plus closure characterization, exact at desk scale:
    S and -S partition the roots and S is closed under root addition.
    Both run on root indices, through ``RootDatum.negation`` and the
    root-addition table ``RootDatum.root_sums``.  The verdict is kept
    on the datum per set, so a set is checked once."""
    system = frozenset(system)
    kept = datum._positive_system_verdicts
    verdict = kept.get(system)
    if verdict is None:
        verdict = kept[system] = _is_positive_system(datum, system)
    return verdict


def _is_positive_system(datum, system):
    negation = datum.negation
    neg = frozenset(negation[i] for i in system)
    if system & neg:
        return False
    if len(system) + len(neg) != len(datum.roots):
        return False
    sums = datum.root_sums
    return all(k in system for i in system for j, k in sums[i] if j in system)


# ---------------------------------------------------------------------------
# construction from Cartan types


# The finite Cartan types (Bourbaki, Lie VI, Plates I-IX), in the letter
# order ``classify`` tries them: per letter, its least rank and its
# greatest (None: any), the node that branches off the chain of the
# others with the node it joins, and the one bond that is not single,
# as (i, j, m) with C[i][j] = -m.  Node i is Bourbaki's alpha_{i+1}, and
# a negative node counts from the end.  BC_n is the non-reduced type;
# its base has the Cartan matrix of B_n, one node for BC_1.
FINITE_TYPES = {
    "A": (1, None, None, None),
    "B": (2, None, None, (-2, -1, 2)),
    "C": (2, None, None, (-1, -2, 2)),
    "D": (3, None, (-1, -3), None),
    "E": (6, 8, (1, 3), None),
    "F": (4, 4, None, (1, 2, 2)),
    "G": (2, 2, None, (1, 0, 3)),
    "BC": (1, None, None, (-2, -1, 2)),
}


def _is_finite_type(letter, rank):
    least, most, *_ = FINITE_TYPES[letter]
    return least <= rank and (most is None or rank <= most)


def cartan_matrix(letter, rank):
    """The Cartan matrix C[i][j] = <a_i, c_j> of a finite type, read
    off ``FINITE_TYPES``: a chain of single bonds, a branch for D and
    E, and the double or triple bond of B, C, F, G and BC."""
    if letter not in FINITE_TYPES:
        raise UnknownTypeError(f"unknown type letter {letter!r}")
    if not _is_finite_type(letter, rank):
        raise UnknownTypeError(f"{letter}{rank} is not supported")
    *_, branch, bond = FINITE_TYPES[letter]
    c = [[2 * int(i == j) for j in range(rank)] for i in range(rank)]
    chain = list(range(rank))
    if branch:
        leaf, stem = (node % rank for node in branch)
        chain.remove(leaf)
        c[leaf][stem] = c[stem][leaf] = -1
    for i, j in zip(chain, chain[1:]):
        c[i][j] = c[j][i] = -1
    if bond and rank > 1:   # BC_1 has no bond
        i, j, m = bond
        c[i][j] = -m
    return tuple(map(tuple, c))


def _closure_from_simples(simples, cosimples, seeds=()):
    """The datum of all (root, coroot) pairs generated from the simple
    ones and the further positive pairs ``seeds`` by the simple
    reflections, via the standard pairing of the realization; its base
    at the simple roots; and the root permutation of each simple
    reflection, in the order of the simples.

    Only the positive roots are closed.  Each root b met, a simple
    root, a seed or an image, is stepped once through every simple
    reflection s_j, to s_j(b) = b - <b, c_j> a_j, and the image is
    recorded.  The step also maps the coroot c of b to
    s_j(c) = c - <a_j, c> c_j: that is the coroot of the image when the
    image is new, and otherwise it is compared with the coroot recorded
    for it, raising AssertionError on a mismatch.  From b = a_j and
    b = 2 a_j (when it is a seed) s_j steps to -b without computing
    it, and s_j(c) = -c is checked instead: for b = a_j that is
    <a_j, c_j> = 2, so s_j(b) = b - <b, c_j> a_j = -b for both.  For a
    base, s_j permutes the positive roots other than the multiples of
    a_j (Bourbaki, Lie VI 1.6, Cor. 1 of Prop. 17), and the steps reach
    every positive root, by induction on the height: one that is not
    a_j or 2 a_j pairs positively with some c_j (a W-invariant form has
    (b, b) > 0, and b is a nonnegative combination of the a_j), and is
    then s_j of a positive root of smaller height.  A closure that
    meets the negative of a root it holds raises AssertionError.

    A step is skipped, as the identity, when no coordinate is nonzero
    in both (b, c) and (a_j, c_j): then <b, c_j> = <a_j, c> = 0 under
    the dot product.  The coordinates kept for an image are those of
    its preimage and of (a_j, c_j), a superset of its nonzero ones.  So
    a simple reflection of one factor of a product, realized on its own
    coordinates, never steps the roots of another.

    The negative roots are the -b, with coroots -c.  They are not
    stepped: s_j is linear, so s_j(-b) = -s_j(b) with coroot -s_j(c),
    the recorded pair of the negative of the image.  So each
    permutation, read off the positive steps alone, satisfies the
    contract of ``_reflection_permutation`` on every root and coroot;
    it is one to one, as s_j is an involution.

    The closed roots are the positive system of the base, and are handed
    to the datum as the walk of its base (``_based_positive_systems``,
    keyed by the sorted base), so that no ``_walk_base`` and no
    ``canonical_base`` runs for it.  They are that system when the seeds
    are positive: a step from b != a_j, 2 a_j stays positive (the
    corollary above), so every closed root is positive, and every
    positive root is reached.  With the closed roots and their
    negatives being all the roots, the closed ones are exactly the
    positive ones."""
    coroot = dict(zip(simples, cosimples))
    coroot.update(seeds)
    pairs = list(coroot.items())
    position = {r: p for p, r in enumerate(coroot)}
    support = lambda *vs: {i for v in vs for i, x in enumerate(v) if x}
    touched = [support(r, c) for r, c in pairs]   # per pair, its nonzero coordinates or more
    steps = [(a, c, support(a, c), {position[a], position.get(tuple(2 * x for x in a))}, {})
             for a, c in zip(simples, cosimples)]
    for p, (beta, cov) in enumerate(pairs):   # the list grows as images are met
        for alpha, acov, moved, skip, image in steps:
            if moved.isdisjoint(touched[p]):
                continue   # s_j fixes b and c: they pair to 0 with a_j and c_j
            n, m = dot(beta, acov), dot(alpha, cov)
            img_cov = tuple(c - m * a for c, a in zip(cov, acov)) if m else cov
            if p in skip:
                q, known = ~p, vec_neg(cov)   # s_j(b) = -b, the pair at ~p below
            else:
                img = tuple(b - n * a for b, a in zip(beta, alpha)) if n else beta
                q = position.setdefault(img, len(pairs))
                if q == len(pairs):
                    pairs.append((img, img_cov))
                    touched.append(touched[p] | moved)
                known = pairs[q][1]
            if known != img_cov:
                raise AssertionError("a simple reflection does not map the coroots with the roots")
            image[p] = q
    # the negative of pair p sits at index ~p = -1 - p of ``signed``, and
    # s_j sends it to the negative of the image q of p, at ~q
    count = len(pairs)
    signed = pairs + [(vec_neg(r), vec_neg(c)) for r, c in reversed(pairs)]
    order = sorted(range(2 * count), key=signed.__getitem__)
    datum = RootDatum(len(simples), *zip(*map(signed.__getitem__, order)))
    if len(datum.root_index) != 2 * count:
        raise AssertionError("the positive roots meet their negatives")
    where = _invert_permutation(as_permutation(order))   # read at ~p too
    base = tuple(where[position[a]] for a in simples)
    datum._based_positive_systems[tuple(sorted(base))] = frozenset(where[:count])
    perms = []
    for *_, image in steps:
        half = [image.get(p, p) for p in range(count)]
        signed_image = half + [~q for q in reversed(half)]
        perms.append(as_permutation([where[signed_image[k]] for k in order]))
    return datum, base, perms


def _realize_factor(letter, rank, tag):
    """The simple roots, simple coroots and seeds of one factor.  A
    reduced type has no seeds, and the simple pairs of its sc or ad
    realization.  BC_n lies on the standard basis: the simple pairs
    (e_i - e_{i+1}, same) and (e_n, 2e_n), and the seed (2e_n, e_n), so
    that the closure reaches the roots 2e_i."""
    c = cartan_matrix(letter, rank)   # refuses a rank the type lacks
    if letter == "BC":
        e = identity_matrix(rank)
        double = tuple(2 * x for x in e[-1])
        simples = [vec_sub(e[i], e[i + 1]) for i in range(rank - 1)]
        return simples + [e[-1]], simples + [double], [(double, e[-1])]
    if tag == "sc":
        return c, identity_matrix(rank), ()
    if tag == "ad":
        return identity_matrix(rank), transpose(c), ()
    raise UnknownTypeError(f"unknown isogeny tag {tag!r} (expected sc or ad)")


def _parse_factor(token, spec):
    """(letter, rank, tag) of one factor of a type string, the tag "sc"
    when none is given; a BC factor takes none."""
    token = token.strip()
    name, colon, tag = token.partition(":")
    name = name.strip()
    letter = "BC" if name.startswith("BC") else name[:1]
    if letter == "BC" and colon:
        raise UnknownTypeError(f"BC types take no isogeny tag ({token!r})")
    # ``int`` would also take signs, spaces, underscores and non-ASCII
    # digits
    digits = name[len(letter):]
    if letter not in FINITE_TYPES or not (digits.isascii() and digits.isdigit()):
        raise UnknownTypeError(f"bad type token {token!r} in {spec!r}")
    rank = int(digits)
    if rank > 8:
        raise UnknownTypeError(f"rank {rank} exceeds the supported bound of 8")
    return letter, rank, (tag or "sc").strip()


def from_cartan_type(spec):
    """Build a based root datum from a type string such as "A2:sc",
    "D4:sc", "BC2", or a product "A1:sc x A1:sc".  The sc realization
    puts the roots in fundamental-weight coordinates with the simple
    coroots as standard basis vectors; ad is the dual convention.  The
    factors sit side by side, each on its own coordinates, and one
    ``_closure_from_simples`` builds the datum from all their simple
    pairs and seeds.

    The permutation of each simple reflection, checked there on every
    root and coroot, is handed to the datum's reflection cache, which is
    closed by conjugation (``_conjugate_reflections``) as
    ``reflection_permutation`` closes it.

    Two facts of the construction are handed over as well.  The datum
    is semisimple (``is_semisimple``, else read off the Gram
    determinant): its rank-many simple roots a_i are independent, as
    their Cartan matrix C[i][j] = <a_i, c_j> is nonsingular (block
    diagonal over the factors, each block that of a finite type, or of
    B_n for BC_n), and a relation sum_i y_i a_i = 0 gives y C = 0.  So
    they are also the independent roots ``RootDatum._root_basis`` solves
    against, in place of the pivots of a Hermite form
    (``_independent_roots``); its adjugate is still computed on first
    read.  The positive system of the base is the one the closure met
    (see ``_closure_from_simples``: the seeds, 2 e_n of BC_n, are
    positive), so an unbased ``make_action`` walks its generators from
    this base and never pays ``canonical_base``'s |P|^2 root sums.

    The string is split into factors at each "x" that starts a word or
    that a capital letter follows, past spaces: every type name starts
    with a capital, and an isogeny tag is lower case and follows its
    colon, so "A2:xx" and "A2:sx" are one factor with the tag "xx" or
    "sx", while "E6:sc xA1" and "A2:sc x" are two factors."""
    realized = [_realize_factor(*_parse_factor(t, spec))
                for t in re.split(r"(?:^|(?<=\s))x|x(?=\s*[A-Z])", spec)]
    total = sum(len(factor[0]) for factor in realized)
    simples, cosimples, seeds, offset = [], [], [], 0
    for s, c, extra in realized:
        pad = lambda v, off=offset, n=len(s): (0,) * off + tuple(v) + (0,) * (total - off - n)
        simples += map(pad, s)
        cosimples += map(pad, c)
        seeds += [(pad(r), pad(cv)) for r, cv in extra]
        offset += len(s)
    datum, base, perms = _closure_from_simples(simples, cosimples, seeds)
    for i, perm in zip(base, perms):
        datum._reflection_perms[i] = perm
        _conjugate_reflections(datum, i)
    base = tuple(sorted(base))
    vars(datum).update(is_semisimple=True, _independent_roots=base)
    return BasedRootDatum(datum, base)


# ---------------------------------------------------------------------------
# classification


def cartan_matchings(c1, c2, commuting=()):
    """The node permutations p with c2[p[i]][p[j]] == c1[i][j] for all
    i, j, and p o g = g o p for every node permutation g in
    ``commuting``, each once, lazily, in the order of the search below
    rather than lexicographically (``twist._diagram_maps`` sorts the
    maps it lists); none when the sizes differ.

    The nodes of c1 are assigned in breadth-first order over its
    diagram (i joined to j when c1[i][j] != 0), each component from its
    least node, and a node gets only an unused node of c2 whose entries
    against itself and every node assigned before it match.  A node met
    from an assigned neighbour j can go only to a neighbour of p[j], as
    c2[p[j]][t] must be c1[j][i] != 0.

    How it scales: on a connected diagram of k nodes the first node has
    at most k images and every later one only the unused neighbours of
    one image that match all the entries so far, so the search meets
    few dead ends.  Shuffled A16, B16, C16 and D16 match in about 1 ms
    each, where the scan of all k! permutations this replaces made
    ``classify`` of D10 take 16 s (CPython 3.11, shared 2-vCPU host).
    A diagram with m isomorphic components has at least m! matchings,
    which are yielded one at a time.

    With ``commuting`` (node permutations of one diagram, c1 = c2), a
    node i that gets t is also refused where p o g = g o p first fails:
    for each g, when p[g[i]] is assigned and is not g[t], or
    p[g^-1[i]] is assigned and is not g^-1[t].  Each pair
    (j, g[j]) is so compared once both ends are assigned, so a full
    matching that passes commutes with every g, and a matching that
    commutes passes every partial check.  A1^8 under an 8-cycle then
    meets 8 matchings, not 8!."""
    k = len(c1)
    if len(c2) != k:
        return
    components, parent = _dynkin_components(c1)
    order = [i for component in components for i in component]
    p = [None] * k
    used = [False] * k
    pairs = [(g, _invert_permutation(g)) for g in commuting]

    def assign(depth):
        if depth == k:
            yield tuple(p)
            return
        i = order[depth]
        up = parent[i]
        for t in range(k):
            if used[t] or (up is not None and not c2[p[up]][t]) or c2[t][t] != c1[i][i]:
                continue
            if all(c2[t][p[j]] == c1[i][j] and c2[p[j]][t] == c1[j][i]
                   for j in order[:depth]):
                p[i] = t
                if all(p[g[i]] in (None, g[t]) and p[h[i]] in (None, h[t]) for g, h in pairs):
                    used[t] = True
                    yield from assign(depth + 1)
                    used[t] = False
                p[i] = None
    yield from assign(0)


def _dynkin_components(cartan):
    """The components of the diagram of ``cartan`` (i joined to j when
    cartan[i][j] != 0), each a list in breadth-first order from its
    least node, and per node the node it was met from (None for those
    least nodes)."""
    components, parent = [], {}
    for start in range(len(cartan)):
        if start not in parent:
            parent[start] = None
            component = [start]
            for m in component:   # the list grows as nodes are met
                for j, x in enumerate(cartan[m]):
                    if x and j not in parent:
                        parent[j] = m
                        component.append(j)
            components.append(component)
    return components, parent


def _component_label(matrix, reduced):
    """The label of the first type in ``FINITE_TYPES`` of the rank of
    ``matrix`` whose Cartan matrix it matches, BC when not ``reduced``
    and a reduced type when it is.  The letter order labels D3 as A3
    and C2 as B2."""
    k = len(matrix)
    for letter in FINITE_TYPES:
        if (letter == "BC") == reduced or not _is_finite_type(letter, k):
            continue
        if next(cartan_matchings(matrix, cartan_matrix(letter, k)), None) is not None:
            return f"{letter}{k}"
    return f"unknown:{list(map(list, matrix))}"


def classify(datum):
    """Irreducible components of the root system, identified by
    Cartan-matrix matching; non-reduced components get BC labels.
    Returns a sorted list of (label, multiplicity).  The datum must
    pass ``verify_axioms``.

    The components are read off the Dynkin diagram of ``held_base``:
    the roots of a component are the Weyl images of its simple roots,
    and two simple roots are joined when they pair to nonzero.  A
    component is non-reduced exactly when one of its simple roots has
    its double among the roots.  An irreducible non-reduced system is
    BC_n, and each of its bases is w(B) for the standard base B, which
    holds e_n with 2 e_n a root, and a Weyl element w (Bourbaki, Lie VI
    1.5-1.6 and 4.14); so it holds w(e_n), with w(2 e_n) a root.  Any
    base serves: two bases differ by a Weyl element w, which keeps the
    pairings <a_i, c_j> of the simple roots (it preserves the pairing
    and carries each coroot with its root) and sends doubles to doubles,
    so every base gives the same labels, and a held base saves computing
    the canonical one (a generic functional and |P|^2 root sums).

    How it scales: past the base, each component is matched
    against the few types of its rank, and ``cartan_matchings`` stops
    at the first matching, found without a scan of the k! node
    permutations; ``classify`` of a D16 datum takes about 0.1 s."""
    if not datum.roots:
        return []
    base = held_base(datum)
    cartan = BasedRootDatum(datum, base).cartan_matrix()
    labels = []
    for component in _dynkin_components(cartan)[0]:
        nodes = sorted(component)
        matrix = tuple(tuple(cartan[m][j] for j in nodes) for m in nodes)
        reduced = all(_double(datum, base[m]) is None for m in nodes)
        labels.append(_component_label(matrix, reduced))
    counted = {}
    for lab in labels:
        counted[lab] = counted.get(lab, 0) + 1
    return sorted(counted.items())
