"""Finite groups acting on root data by automorphisms.

The abstract group and its matrix image are kept separate so that
non-faithful actions work (a Galois quotient may act trivially).  A
based action must stabilize the base setwise; that is exactly the
precondition for the orbit machinery used by folding.
"""

from __future__ import annotations

from functools import cached_property

from .errors import EnumerationOverflow, InvalidActionError
from .lattice import (
    det,
    hermite_row_form,
    identity_matrix,
    mat_mul,
    mat_vec,
    quotient_lattice,
    record,
    transpose,
    unimodular_inverse,
    vec_sub,
)
from .rootdatum import (
    WEYL_BOUND,
    BasedRootDatum,
    WeylGroup,
    _annihilator_block,
    _automorphisms_from_permutations,
    _matrix_on_roots,
    _walk_automorphism,
    closure,
    compose,
    cycle_type,
    identity_permutation,
    permutation_getter,
    reflection_permutation,
)

CLOSURE_BOUND = 10 ** 4


@record
class FiniteGroup:
    """A finite group as labels plus a multiplication table on indices,
    with the index of its identity.  Built as given, with no check:
    ``from_table`` is the constructor that checks a table from outside,
    and ``trivial``, ``cyclic``, ``direct_product`` and ``make_action``'s
    closure build tables that are groups by construction."""

    labels: tuple
    table: tuple
    identity: int

    def __len__(self):
        return len(self.labels)

    def elements(self):
        return range(len(self.labels))

    def mul(self, a, b):
        return self.table[a][b]

    def index_of(self, label):
        return self.labels.index(label)

    @cached_property
    def generating_set(self):
        """A small deterministic generating set (greedy closure): the
        least element not yet reached is added, and the identity closed
        again under right multiplication by the picks' columns, until
        every element is reached."""
        n = len(self.labels)
        gens, steps = [], []
        reached = {self.identity}
        while len(reached) < n:
            g = next(x for x in range(n) if x not in reached)
            gens.append(g)
            steps.append(tuple(row[g] for row in self.table).__getitem__)
            reached = set(closure([self.identity], steps))
        return tuple(gens)

    @classmethod
    def from_table(cls, labels, table, identity_label=None):
        """The group of a table from outside, after checking that it is
        one; raises ValueError naming the first failure, in this order:
        duplicate labels, shape, entry range, identity, the declared
        identity (``identity_label``), inverses, associativity.

        Associativity is checked as (a b) c = a (b c) for every a, b and
        every c in ``generating_set`` (S), |S| n^2 lookups for n^3.  That
        is enough: let C be the set of c for which the law holds for all
        a, b, so S lies in C.  The identity e is in C, as it is a
        two-sided identity; and if c is in C and g in S, so is c g, since
        (a b)(c g) = ((a b) c) g = (a (b c)) g = a ((b c) g) = a (b (c g)).
        ``generating_set`` closes e under right multiplication by S until
        every element is reached, so C is the whole table."""
        labels = tuple(labels)
        table = tuple(tuple(row) for row in table)
        n = len(labels)
        if len(set(labels)) != n:
            raise ValueError("duplicate element labels")
        if len(table) != n or any(len(r) != n for r in table):
            raise ValueError("multiplication table has wrong shape")
        if any(x < 0 or x >= n for row in table for x in row):
            raise ValueError("multiplication table entry out of range")
        ident = next((e for e in range(n)
                      if all(table[e][x] == x == table[x][e] for x in range(n))), None)
        if ident is None:
            raise ValueError("no identity element")
        if identity_label is not None and labels[ident] != identity_label:
            raise ValueError("declared identity does not act as identity")
        for x in range(n):
            if not any(table[x][y] == ident == table[y][x] for y in range(n)):
                raise ValueError(f"element {labels[x]!r} has no inverse")
        group = cls(labels, table, ident)
        if any(table[table[a][b]][c] != table[a][table[b][c]]
               for a in range(n) for b in range(n) for c in group.generating_set):
            raise ValueError("multiplication table not associative")
        return group

    @classmethod
    def trivial(cls):
        """The group of one element e, with e e = e."""
        return cls(("e",), ((0,),), 0)

    @classmethod
    def cyclic(cls, n):
        """Z/n: i j = i + j mod n, the identity 0."""
        return cls(tuple(range(n)),
                   tuple(tuple((i + j) % n for j in range(n)) for i in range(n)), 0)

    @classmethod
    def direct_product(cls, g, h):
        """G x H on the pairs (a, b), at index a |H| + b, multiplied
        componentwise: a group with the identity (e_G, e_H)."""
        nh = len(h)
        labels = tuple((a, b) for a in g.labels for b in h.labels)
        table = tuple(tuple(g.mul(a, c) * nh + h.mul(b, d)
                            for c in g.elements() for d in h.elements())
                      for a in g.elements() for b in h.elements())
        return cls(labels, table, g.identity * nh + h.identity)


def _require_automorphism(target, matrix, context):
    """The pair (root permutation, block on the annihilator of the
    coroots) of the datum automorphism with character matrix ``matrix``
    (see ``DatumAction``), or InvalidActionError.  The permutation is
    walked from a base with the matrix alone, and no contragredient is
    built (``_walk_automorphism``): from the base of a based target,
    which is refused when it is not a base, and on an unbased target
    from a base its datum already holds a walk for, or its canonical
    base.  A document's stated base is held, and its canonical base
    computed, by the time its actions are parsed."""
    datum = target.datum if isinstance(target, BasedRootDatum) else target
    if len(matrix) != datum.rank or any(len(r) != datum.rank for r in matrix):
        raise InvalidActionError(f"{context}: matrix has wrong shape")
    if abs(det(matrix)) != 1:
        raise InvalidActionError(f"{context}: matrix is not unimodular")
    perm = _walk_automorphism(target, matrix)
    if perm is None:
        raise InvalidActionError(
            f"{context}: matrix does not permute the roots compatibly with coroots")
    return perm, _annihilator_block(datum, matrix)


@record
class DatumAction:
    """A homomorphism from a finite abstract group into the automorphisms
    of a (possibly based) root datum, held per group element as the
    root permutation of its image and the image's block on the
    annihilator A of the coroots.  ``build`` is the constructor that
    checks; ``make_action`` builds one from matrices.

    Why the pair (p, B) is the automorphism.  An automorphism x maps A
    onto itself: it permutes the coroots, and <x z, x' c> = <z, c> for
    its contragredient x'.  The characters over Q are span(roots) + A
    (``verify_axioms`` proves it), so x is the linear map sending root
    i to root p(i) and z_j to sum_i B[i][j] z_i, for the saturated basis
    z_j of A that ``datum.coroot_annihilator`` holds: column j of B is
    the coordinates of x(z_j), an integer vector as the basis is
    saturated (``rootdatum._annihilator_block``).  So x -> (p, B) is
    one to one, and a homomorphism: x y sends root i to root
    p_x(p_y(i)), and has the block B_x B_y on A.  Products, the identity
    (the identity permutation and block) and equality are therefore
    read on pairs, exactly.  On semisimple data A = 0 and every block
    is the 0 x 0 matrix (); the matrices (``images``) are built from
    the pairs on first read only.

    Every pair held must come from an automorphism; no pair is checked
    for it.  ``make_action`` checks its generator matrices and forms
    products of their pairs.  ``twist.star_action`` and
    ``twist.twist_datum`` left-multiply a checked action by factors f_s
    that fix A pointwise (inverse base transports, cocycle values: Weyl
    elements, or coboundaries ``twist._cobounders`` keeps): f_s . a_s is
    an automorphism with permutation q_s o p_s and the block of a_s."""

    group: FiniteGroup
    root_perms: tuple   # the root permutation of each element's image
    blocks: tuple       # the image's matrix on ``datum.coroot_annihilator``
    target: object  # RootDatum | BasedRootDatum

    @classmethod
    def build(cls, group, root_perms, blocks, target):
        """The action with these fields, after checking on the pairs
        (see the class docstring) that it is a homomorphism and, on a
        based target, that every image stabilizes the base.  Raises
        InvalidActionError naming the first failure.

        The homomorphism law is checked as phi(a g) = phi(a) phi(g) for
        every a and every g in ``group.generating_set``
        (``_check_homomorphism``).  With phi(e) = 1, induction on the
        length of b = g_1 ... g_k gives
        phi(a b) = phi(a b') phi(g_k) = phi(a) phi(b') phi(g_k)
        = phi(a) phi(b) for b' = g_1 ... g_{k-1}.  On pairs this is the
        matrix law, pair by pair, so the same pair is named.

        So every image is a product of the images of
        ``group.generating_set``, and stabilizes the base when they do.
        The greedy ``generating_set`` is increasing and holds the least
        element that fails, if one does, as the elements below it
        generate a subgroup without it; so the error names the element
        a check of every image would name."""
        action = cls(group, tuple(root_perms), tuple(blocks), target)
        _check_homomorphism(group, action.root_perms, action.blocks)
        if action.is_based:
            base = set(target.base)
            for i in group.generating_set:
                if {action.root_perms[i][k] for k in base} != base:
                    raise InvalidActionError(
                        f"element {group.labels[i]!r} does not stabilize the base")
        return action

    @property
    def datum(self):
        return self.target.datum if isinstance(self.target, BasedRootDatum) else self.target

    @property
    def is_based(self):
        return isinstance(self.target, BasedRootDatum)

    @cached_property
    def images(self):
        """The DatumAutomorphism of each element, built from its pair
        on first read (``_automorphisms_from_permutations``)."""
        return tuple(_automorphisms_from_permutations(self.datum, self.root_perms,
                                                      self.blocks))

    @cached_property
    def generator_images(self):
        """The images of ``group.generating_set``, built from their pairs
        (``_automorphisms_from_permutations``).  Every image is a product
        of them, so a matrix commutes with, or a vector is fixed by, every
        image exactly when it is for these."""
        gens = self.group.generating_set
        return tuple(_automorphisms_from_permutations(
            self.datum, [self.root_perms[g] for g in gens], [self.blocks[g] for g in gens]))

    @cached_property
    def generator_perms(self):
        """The distinct root permutations of the images of
        ``group.generating_set`` other than the identity, sorted.  A
        permutation commutes with, or a set is stable under, every
        image exactly when it is for these."""
        ident = identity_permutation(len(self.datum.roots))
        return tuple(sorted({self.root_perms[g] for g in self.group.generating_set}
                            - {ident}))

    @cached_property
    def generator_blocks(self):
        """The distinct blocks of the images of ``group.generating_set``
        other than the identity, sorted, as ``generator_perms``; none on
        semisimple data."""
        ident = identity_matrix(len(self.datum.coroot_annihilator))
        return tuple(sorted({self.blocks[g] for g in self.group.generating_set} - {ident}))

    @cached_property
    def cycle_types(self):
        """The cycle type of the root permutation of the image of each
        element of ``group.generating_set``, in its order (``cycle_type``;
        read by ``twist.equivariant_isomorphic``)."""
        return tuple(cycle_type(self.root_perms[g]) for g in self.group.generating_set)

    @cached_property
    def orbits(self):
        """Per root index, its orbit under the group, sorted: one
        closure per orbit under ``generator_perms``, which reaches the
        whole orbit since the group is finite and they generate it."""
        steps = [p.__getitem__ for p in self.generator_perms]
        out = [None] * len(self.datum.roots)
        for i in range(len(out)):
            if out[i] is None:
                orb = tuple(sorted(closure([i], steps)))
                for k in orb:
                    out[k] = orb
        return tuple(out)

    @cached_property
    def base_lifts(self):
        """{orbit: (orthogonal orbit, lift)} for each orbit of the group
        on the base of a based action, where the lift is the root
        permutation of the product of the reflections over the
        orthogonal orbit (pairwise orthogonal roots, so the factors
        commute).  These lifts generate the fixed Weyl subgroup (see
        ``fixed_weyl``); each is checked to commute with the image of
        every generator of the group, which raises AssertionError."""
        datum = self.datum
        ident = identity_permutation(len(datum.roots))
        lifts = {}
        for k in self.target.base:
            orb = orbit(self, k)
            if orb in lifts:
                continue
            xi = orthogonal_orbit(self, k)
            lift = ident
            for j in xi:
                s = reflection_permutation(datum, j)
                if s is None:
                    raise AssertionError("reflection does not permute the roots")
                lift = compose(lift, s)
            for p in self.generator_perms:
                if compose(lift, p) != compose(p, lift):
                    raise AssertionError(
                        "lifted reflection does not commute with the action")
            lifts[orb] = (xi, lift)
        return lifts

    @cached_property
    def _star_actions(self):
        # filled by ``twist.star_action``: (star action, cocycle) keyed by
        # the base; neither refers back to this action
        return {}

    def is_trivial(self):
        return not self.generator_perms and not self.generator_blocks


def _check_homomorphism(group, perms, blocks):
    """Raise InvalidActionError unless the pair (perms[e], blocks[e]) is
    the identity and the pair of a times that of g is the pair of a g,
    for every a and every g in ``group.generating_set``, naming the
    first failing pair.  Blocks are multiplied only when they are not
    0 x 0: on semisimple data a pair costs one ``compose``."""
    one = blocks[group.identity]
    if perms[group.identity] != identity_permutation(len(perms[0])) or (
            one != identity_matrix(len(one))):
        raise InvalidActionError("identity element must act trivially")
    for a in group.elements():
        for b in group.generating_set:
            ab = group.mul(a, b)
            if compose(perms[a], perms[b]) != perms[ab] or (
                    one and mat_mul(blocks[a], blocks[b]) != blocks[ab]):
                raise InvalidActionError(
                    f"images are not a homomorphism at "
                    f"({group.labels[a]!r}, {group.labels[b]!r})")


def make_action(target, generators, group="closure"):
    """Build a DatumAction from generator matrices.

    ``generators`` is a list of (matrix, label) pairs.  With
    group="closure" the generators are closed into a finite group
    (bound ``CLOSURE_BOUND``) and the abstract group is read off from
    it.  With an explicit FiniteGroup G, each label must name a group
    element, no element twice, the labeled elements must generate, and
    the assignment must extend to a homomorphism.

    Each generator matrix is checked once by ``_require_automorphism``
    (walked from a base with the matrix alone) and kept as its pair
    (p, B): its root permutation and its block on the annihilator of
    the coroots.  Every other image is a product of
    generators, closed as pairs under (p, B) . (q, C) = (p o q, B C)
    (see ``DatumAction``); blocks are multiplied only on data with a
    torus factor.  ``DatumAction.build`` then checks the homomorphism
    law and the base on the pairs.  The checked generator matrices are
    not kept: the action's ``generator_images`` are read off the pairs,
    and are the same matrices, as the automorphism with a given pair is
    unique (see ``DatumAction``).

    The closed group lists its elements in breadth-first closure order,
    the identity first, at index 0; its table is the multiplication of
    these pairs, so it is a group by construction and is not checked.
    Its ``generating_set`` holds only elements of the generators: the
    greedy set picks the least element not yet reached; while one is
    not reached, a generator is not, as the generators generate; and
    the generators' elements are the least after the identity.
    Only its generator rows are pair products: the row of a lists the
    index of a . x for every x, and the row of a generator g is read off
    the left products (p_g o p_x, B_g B_x).  As (a . g) . x = a . (g . x),
    the row of a . g is the row of a read at the row of g, one index map;
    closing the identity row under these maps gives every row, as the
    generators generate.  The closure runs on indices: the row of a
    holds a . g at x = g, so the row of a . g is built once, when that
    index is first met, and every element is met before it is read, as
    the elements are in breadth-first order under the same products.

    The explicit case closes (e, I) and the assigned pairs (g, A_g)
    under (x, A) -> (x g, A A_g), giving the subgroup H of G x Aut they
    generate.  The assignment extends to a homomorphism on the subgroup
    S the labels generate exactly when H is the graph of a map: such a
    graph is a subgroup holding the assigned pairs, so it contains H
    and, as H maps onto S, equals it.  So more than |G| pairs, or two
    over one x, mean the assignment is inconsistent; fewer than |G| mean
    the labels do not generate G.
    """
    datum = target.datum if isinstance(target, BasedRootDatum) else target
    if group != "closure":
        assigned = []
        for _, label in generators:
            try:
                idx = group.index_of(label)
            except ValueError:
                raise InvalidActionError(f"generator label {label!r} is not a group element")
            if idx in assigned:
                raise InvalidActionError(f"group element {label!r} has two generators")
            assigned.append(idx)
    gens = [_require_automorphism(target, tuple(tuple(int(x) for x in row) for row in mat),
                                  f"generator {label!r}")
            for mat, label in generators]

    def times(perm, block):
        right = permutation_getter(perm)
        if block:
            return lambda pair: (right(pair[0]), mat_mul(pair[1], block))
        return lambda pair: (right(pair[0]), ())

    steps = [times(*g) for g in gens]
    ident = (identity_permutation(len(datum.roots)),
             identity_matrix(len(datum.coroot_annihilator)))
    if group == "closure":
        pairs = closure([ident], steps, CLOSURE_BOUND, "generator closure")
        index = {pair: i for i, pair in enumerate(pairs)}
        gen_rows = [tuple(index[compose(p, q), mat_mul(b, c) if b else ()] for q, c in pairs)
                    for p, b in gens]
        table = [tuple(range(len(pairs)))] + [None] * (len(pairs) - 1)
        right = [(index[g], permutation_getter(row)) for g, row in zip(gens, gen_rows)]
        for row in table:
            for i, times_g in right:
                if table[row[i]] is None:
                    table[row[i]] = times_g(row)
        group = FiniteGroup(tuple(range(len(pairs))), tuple(table), 0)
    else:
        try:
            graph = closure(
                [(group.identity, ident), *zip(assigned, gens)],
                [lambda xp, g=g, step=step: (group.mul(xp[0], g), step(xp[1]))
                 for g, step in zip(assigned, steps)],
                len(group))
        except EnumerationOverflow:
            graph = None
        images = dict(graph or ())
        if graph is None or len(images) != len(graph):
            raise InvalidActionError(
                "generator assignment is inconsistent with the group table")
        if len(images) != len(group):
            raise InvalidActionError("the labeled generators do not generate the group")
        pairs = [images[i] for i in group.elements()]
    return DatumAction.build(group, *zip(*pairs), target)


def orbit(action, root_index):
    """The orbit of a root index, canonically ordered."""
    return action.orbits[root_index]


def orthogonal_orbit(action, root_index):
    """The orthogonal orbit attached to a root: the orbit itself when its
    members pairwise pair to zero, else the set of sums of the unique
    non-orthogonal partner pairs.  Requires a based action; a failure of
    the uniqueness or root-sum property means the base precondition was
    violated upstream."""
    if not action.is_based:
        raise InvalidActionError("orthogonal orbits require a based action")
    datum = action.datum
    orb = orbit(action, root_index)
    pairs_nonzero = {
        (i, j)
        for i in orb for j in orb
        if i != j and datum.pair(datum.roots[i], datum.coroots[j]) != 0
    }
    if not pairs_nonzero:
        return orb
    sums = set()
    for theta in orb:
        partners = [j for j in orb if (theta, j) in pairs_nonzero]
        if len(partners) != 1:
            raise InvalidActionError(
                f"root {theta} has {len(partners)} non-orthogonal partners in its orbit")
        total = tuple(a + b for a, b in zip(datum.roots[theta], datum.roots[partners[0]]))
        k = datum.root_index.get(total)
        if k is None:
            raise InvalidActionError(
                f"sum of the non-orthogonal pair at root {theta} is not a root")
        if k in orb:
            raise InvalidActionError(
                f"sum of the non-orthogonal pair at root {theta} lies in the orbit")
        sums.add(k)
    return tuple(sorted(sums))


@record
class Coinvariants:
    """The maps around the coinvariant quotient of the character lattice
    and the fixed sublattice of the cocharacter lattice.

    projection : free coinvariant quotient map (free_rank x n)
    section    : integer right inverse of projection
    average    : rational embedding of the quotient into the character
                 space, landing in the fixed subspace (n x free_rank)
    fixed_basis: basis of the fixed cocharacter lattice (tuple of vectors)
    pairing    : restricted pairing matrix, unimodular (free_rank square)
    torsion    : invariant factors > 1 of the coinvariant torsion
    """

    action: DatumAction
    projection: tuple
    section: tuple
    average: tuple
    fixed_basis: tuple
    pairing: tuple
    torsion: tuple

    @property
    def free_rank(self):
        return len(self.projection)

    def project(self, v):
        return mat_vec(self.projection, v)

    def fixed_matrix(self):
        """Fixed cocharacter basis vectors as columns (n x free_rank)."""
        return transpose(self.fixed_basis)


def coinvariants(action):
    """Compute the coinvariant quotient, the fixed cocharacter lattice,
    and the restricted pairing, checking the identities of the character
    side (``_check_coinvariants``); those of the cocharacter side are
    proved below.

    The relations (1 - g)v are taken from the generator images g only.
    They span the same relation lattice R as every image's, since every
    image is a word in them and (1 - x.g)v = (1 - x)v + (1 - g)v -
    (1 - x)(1 - g)v.  ``quotient_lattice`` returns the projection in
    Hermite form and checks projection . r = 0 for each relation r and
    projection . section = I.  So its kernel K holds R, and K is
    saturated, as the projection is onto Z^f; it has the rank of R, so
    it is the saturation of R.

    Why the fixed cocharacters are read off the projection.  For the
    contragredient g' of g, <g x, g' y> = <x, y>, so
    <(1 - g)x, y> = <g x, g' y - y>; g is onto and the pairing perfect,
    so g' y = y exactly when <(1 - g)x, y> = 0 for every x.  So y is
    fixed by every image exactly when it vanishes on R, that is on K (a
    multiple of each vector of K lies in R).  The functionals
    x -> <x, y> = x^T P y vanishing on K are those that factor through
    the projection, Z^n / K being Z^f through it: P y = projection^T z
    for an integer z.  So the fixed lattice is P^-1 projection^T Z^f,
    with the rows of projection . P^-T as a basis, and ``fixed_basis``
    is its Hermite form H = T . projection . P^-T: for P = I the
    projection itself, with T = I.  The Hermite form of a lattice is
    unique, so this is the basis that the saturated kernel of the
    stacked g' - 1 has, which the tests keep as their reference.

    The restricted pairing <section e_p, fixed_q> is
    (section^T P H^T)[p][q] = (section^T projection^T T^T)[p][q] = T[q][p],
    as projection . section = I: the transpose of the Hermite transform,
    unimodular.  The same two identities of ``quotient_lattice`` give
    the rest: a relation r pairs to zero with every fixed cocharacter,
    as r^T P H^T = (projection . r)^T T^T = 0, and the projection is the
    transpose of the inclusion, (section . projection)^T P H^T =
    projection^T (projection . section)^T T^T = P H^T."""
    datum = action.datum
    n = datum.rank
    relations = []
    for aut in action.generator_images:
        # (1 - g)e_k is column k of 1 - g
        for e, column in zip(identity_matrix(n), transpose(aut.on_characters)):
            r = vec_sub(e, column)
            if any(r):
                relations.append(r)
    quotient = quotient_lattice(n, tuple(relations))
    if datum.has_standard_pairing:
        fixed_basis, transform = quotient.projection, identity_matrix(quotient.free_rank)
    else:
        fixed_basis, transform = hermite_row_form(mat_mul(
            quotient.projection, transpose(unimodular_inverse(datum.pairing_matrix))))

    from fractions import Fraction  # only here, off the start-up path

    size = len(action.group)
    group_sum = _group_sum(action)
    average = tuple(tuple(Fraction(x, size) for x in row)
                    for row in mat_mul(group_sum, quotient.section))
    cv = Coinvariants(
        action=action,
        projection=quotient.projection,
        section=quotient.section,
        average=average,
        fixed_basis=fixed_basis,
        pairing=transpose(transform),
        torsion=quotient.torsion_invariants,
    )
    _check_coinvariants(cv, group_sum)
    return cv


def _group_sum(action):
    """The sum S of the character matrices of the action, |G| times
    their mean, read off the pairs with one exact solve.

    S is linear, so it sends root r_i to sum_g r_{p_g(i)} and z_j to
    sum_i (sum_g B_g)[i][j] z_i, for (p_g, B_g) the pair of g (see
    ``DatumAction``).  These determine S on the basis [r_i | z_j] of
    ``RootDatum._root_basis``, which ``_matrix_on_roots`` solves
    against.  Its division by the determinant is exact, as S, a sum of
    integer matrices, is integral."""
    datum = action.datum
    roots, perms = datum.roots, action.root_perms
    images = [tuple(map(sum, zip(*(roots[p[i]] for p in perms))))
              for i in datum._root_basis[0]]
    block = tuple(tuple(map(sum, zip(*rows))) for rows in zip(*action.blocks))
    return _matrix_on_roots(datum, images, block)


def _check_coinvariants(cv, group_sum):
    """Raise AssertionError unless the maps of ``cv`` on the character
    side satisfy their identities, with ``group_sum`` the sum of the
    character matrices of the action, as ``coinvariants`` computed it
    (``_group_sum``): the projection is invariant, the averaged
    embedding is fixed and independent of the preimage, and the section
    is a right inverse.  The cocharacter side (the fixed basis is fixed,
    the pairing is perfect, relations pair to zero with the fixed
    cocharacters, the projection is the transpose of the inclusion)
    follows from ``quotient_lattice``'s own checks, as ``coinvariants``
    proves, and is not checked again.

    Invariance is checked on the generator images A only, which
    suffices since every image is a product of them: P A = P and A S = S
    for each of them give the same for their products.

    The identities on ``cv.average`` are checked on S = |G| average, an
    integer matrix for the average ``coinvariants`` builds: A S = S for
    every image A, and S . projection = sum over the group of the A.
    Scaling by |G| != 0 makes them equivalent to the identities
    A average = average and average . projection = the group mean, for
    any ``average`` whatever; an entry of S that is not integral stays a
    Fraction."""
    action = cv.action
    f = cv.free_rank
    size = len(action.group)
    scaled = tuple(tuple(y if y.denominator != 1 else int(y)
                         for y in (size * x for x in row))
                   for row in cv.average)
    for aut in action.generator_images:
        # projection factors through the group: P(gamma x) = P(x)
        if mat_mul(cv.projection, aut.on_characters) != cv.projection:
            raise AssertionError("projection is not invariant under the action")
        # the averaged embedding lands in the fixed subspace
        if mat_mul(aut.on_characters, scaled) != scaled:
            raise AssertionError("averaged embedding is not fixed by the action")
    if f:
        if mat_mul(cv.projection, cv.section) != identity_matrix(f):
            raise AssertionError("section is not a right inverse")
        # preimage independence: the averaged embedding composed with the
        # projection is the plain group average
        if mat_mul(scaled, cv.projection) != group_sum:
            raise AssertionError("embedding depends on the choice of preimage")


def fixed_weyl(action, *, bound=None):
    """The subgroup of Weyl elements commuting with every group image,
    W^G, of a based action; InvalidActionError for an unbased one.
    Raises EnumerationOverflow beyond ``bound`` elements, by default
    ``WEYL_BOUND``.

    A group image g is a datum automorphism, so g s_a g^-1 = s_{g(a)}
    and g normalizes W; g w g^-1 and w are then both Weyl elements, with
    permutations p o w o p^-1 and w for p the permutation of g, and W
    acts faithfully on the roots, so g w g^-1 = w exactly when
    p o w = w o p.  Commuting with the images of the group generators is
    commuting with every image.

    The subgroup is the breadth-first closure of the lifts in
    ``action.base_lifts``, one per orbit O of the group on the base, and
    no other Weyl element is listed.  ``base_lifts`` checks that each
    lift commutes with every generator image.  Why they generate
    (Steinberg, Endomorphisms of linear algebraic groups, 1968): the
    group permutes the base, hence the positive roots.  The lift of O is
    the longest element w_O of the parabolic subgroup W_O: the product
    of the reflections in O when O is orthogonal, and otherwise, O being
    a union of A2 pairs {a, b}, the product of the s_{a+b}.  Let w != 1
    be fixed, and a simple with w(a) < 0.  For g in the group,
    w(g a) = g w(a) < 0, so w makes every root of the orbit O of a
    negative, hence every positive root of W_O.  So w w_O is fixed and
    shorter than w by the length of w_O, and induction on the length
    writes w as a product of lifts.

    The action keeps the subgroup it closes and returns it again while
    it fits ``bound``.  The closure does not depend on the bound it
    completes under, and a smaller bound closes again, so that it raises
    as before: ``folding.weyl_descent_iso`` closes under
    ``folding.TABLE_BOUND``, every other caller under ``WEYL_BOUND``.
    Matrices are built only when a caller asks for them."""
    if not action.is_based:
        raise InvalidActionError("the fixed Weyl subgroup requires a based action")
    bound = bound or WEYL_BOUND
    kept = vars(action).get("_fixed_weyl")
    if kept is not None and len(kept) <= bound:
        return kept
    lifts = [lift for _, lift in action.base_lifts.values()]
    perms = closure([identity_permutation(len(action.datum.roots))],
                    [permutation_getter(lift) for lift in lifts],
                    bound, "reflection group")
    kept = vars(action)["_fixed_weyl"] = WeylGroup(action.datum, perms, lifts)
    return kept


def actions_commute(a, b):
    """Elementwise commutation of two actions on the same datum, tested
    on their generators: what commutes with y and y' commutes with
    y y'.  Two automorphisms commute exactly when their root
    permutations and their blocks do (see ``DatumAction``), so no image
    is read."""
    if a.datum is not b.datum and a.datum != b.datum:
        return False
    return (all(compose(p, q) == compose(q, p)
                for p in a.generator_perms for q in b.generator_perms)
            and _blocks_commute(a.generator_blocks, b.generator_blocks))


def _blocks_commute(xs, ys):
    """Whether x y = y x for every matrix x in xs and y in ys."""
    return all(mat_mul(x, y) == mat_mul(y, x) for x in xs for y in ys)
