"""Folding: the restricted root datum of a based group action.

Restriction sends the roots through the coinvariant quotient of the
character lattice and manufactures coroots inside the fixed cocharacter
lattice: for a restricted root with source fiber F (always a single
orbit), pick any representative, take its orthogonal orbit, sum those
coroots, and scale by |orbit| / |orthogonal orbit| (always 1 or 2).
The result is a root datum over the quotient with an explicit pairing,
possibly non-reduced even when the source is reduced.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .action import (
    Coinvariants,
    DatumAction,
    actions_commute,
    coinvariants,
    fixed_weyl,
    orbit,
    orthogonal_orbit,
)
from .errors import InvalidActionError
from .lattice import (
    identity_matrix,
    mat_mul,
    mat_vec,
    transpose,
    unimodular_inverse,
    vec_add,
)
from .rootdatum import (
    WEYL_BOUND,
    BasedRootDatum,
    DatumAutomorphism,
    RootDatum,
    is_positive_system,
    is_reduced,
    permutation_getter,
    reflection,
    reflection_permutation,
    verify_axioms,
    verify_base,
    weyl_group,
)

# Largest fixed subgroup whose descent table is checked: W(B5), from the
# D6 flip, the largest fold in the tests (3840^2 compositions, about 1 s).
TABLE_BOUND = 3840


@dataclass(frozen=True)
class RestrictedDatum:
    """Output of restriction.

    datum        : the restricted root datum with its explicit pairing
    base         : indices of the images of the source base
    source       : the acting group on the source datum
    coinvariants : the quotient/fixed-lattice maps
    fibers       : per restricted root, the source root indices mapping
                   onto it (a single source orbit)
    provenance   : per restricted root, (representative, orthogonal
                   orbit, coefficient) used to build its coroot
    induced      : actions induced on the restricted datum by the
                   commuting actions passed to restrict()
    """

    datum: RootDatum
    base: tuple
    source: DatumAction
    coinvariants: Coinvariants
    fibers: tuple
    provenance: tuple
    induced: tuple

    @property
    def based(self):
        return BasedRootDatum(self.datum, self.base)

    def fiber(self, restricted_index):
        return self.fibers[restricted_index]

    @cached_property
    def source_base(self):
        return self.source.target.base


def restrict(action, commuting_actions=()):
    """Fold a based action into its restricted root datum.  Every listed
    commuting action descends to the quotient and is returned as an
    induced action on the restricted datum."""
    if not action.is_based:
        raise InvalidActionError("restriction requires a based action")
    source = action.datum
    for other in commuting_actions:
        if not actions_commute(action, other):
            raise InvalidActionError(
                "a commuting action fails to commute elementwise")
    cv = coinvariants(action)
    f = cv.free_rank

    by_image = {}
    for i, r in enumerate(source.roots):
        by_image.setdefault(cv.project(r), []).append(i)
    restricted_roots = tuple(sorted(by_image))

    fixed_cols = cv.fixed_matrix()
    pairing_inv = unimodular_inverse(cv.pairing)
    sect_t = transpose(cv.section)
    if not source.has_standard_pairing:
        sect_t = mat_mul(sect_t, source.pairing_matrix)

    def cochar_coordinates(v):
        # solve fixed_cols @ c = v through the unimodular restricted pairing
        c = mat_vec(pairing_inv, mat_vec(sect_t, v))
        if mat_vec(fixed_cols, c) != tuple(v):
            raise AssertionError("coroot does not lie in the fixed cocharacter lattice")
        return c

    coroots = []
    fibers = []
    provenance = []
    for rbar in restricted_roots:
        fib = tuple(sorted(by_image[rbar]))
        orb = orbit(action, fib[0])
        if orb != fib:
            raise AssertionError(
                f"fiber over {rbar} is not a single orbit: {fib} vs {orb}")
        rep = fib[0]
        expected = None
        for member in fib:
            xi = orthogonal_orbit(action, member)
            ratio = len(orbit(action, member)) // len(xi)
            if ratio not in (1, 2) or len(orb) % len(xi) != 0:
                raise AssertionError("orbit size ratio must be 1 or 2")
            total = tuple(0 for _ in range(source.rank))
            for k in xi:
                total = vec_add(total, source.coroots[k])
            coords = cochar_coordinates(tuple(ratio * x for x in total))
            if expected is None:
                expected = coords
                rep_xi, rep_ratio = xi, ratio
            elif coords != expected:
                raise AssertionError(
                    f"coroot of {rbar} depends on the orbit representative")
        coroots.append(expected)
        fibers.append(fib)
        provenance.append((rep, rep_xi, rep_ratio))

    pairing = None if cv.pairing == identity_matrix(f) else cv.pairing
    restricted = RootDatum(f, restricted_roots, tuple(coroots), pairing)

    problems = verify_axioms(restricted)
    if problems:
        raise AssertionError(f"restricted datum fails axioms: {problems}")

    base_images = sorted({cv.project(source.roots[i])
                          for i in action.target.base})
    base = tuple(restricted.index_of(v) for v in base_images)
    based = BasedRootDatum(restricted, base)
    base_problems = verify_base(based)
    if base_problems:
        raise AssertionError(f"restricted base is invalid: {base_problems}")

    induced = tuple(
        _descend_action(other, cv, restricted) for other in commuting_actions)

    return RestrictedDatum(
        datum=restricted,
        base=base,
        source=action,
        coinvariants=cv,
        fibers=tuple(fibers),
        provenance=tuple(provenance),
        induced=induced,
    )


def _descend_action(other, cv, restricted):
    """Push a commuting action down to the restricted datum."""
    images = []
    for aut in other.images:
        m = mat_mul(cv.projection, mat_mul(aut.on_characters, cv.section))
        if mat_mul(m, cv.projection) != mat_mul(cv.projection, aut.on_characters):
            raise InvalidActionError(
                "commuting action does not descend to the quotient")
        images.append(m)
    return DatumAction.build(
        other.group,
        [DatumAutomorphism.from_matrix(
            m, None if restricted.has_standard_pairing else restricted.pairing_matrix)
         for m in images],
        restricted,
    )


def induced_fixed_map(fold, aut):
    """The matrix induced on the quotient by a source automorphism whose
    induced map is well defined (e.g. a fixed Weyl element)."""
    cv = fold.coinvariants
    m = mat_mul(cv.projection, mat_mul(aut.on_characters, cv.section))
    if mat_mul(m, cv.projection) != mat_mul(cv.projection, aut.on_characters):
        raise AssertionError("automorphism does not descend to the quotient")
    return m


def reduced_subdatum(fold, char_is_two):
    """The preferred maximal reduced subdatum: keep the nondivisible
    restricted roots in characteristic != 2 and the nonmultipliable ones
    in characteristic 2, carrying coroots along positionally."""
    datum = fold.datum if isinstance(fold, RestrictedDatum) else fold
    root_set = set(datum.roots)
    keep = []
    for i, r in enumerate(datum.roots):
        if char_is_two:
            ok = tuple(2 * x for x in r) not in root_set
        else:
            ok = not (all(x % 2 == 0 for x in r)
                      and tuple(x // 2 for x in r) in root_set)
        if ok:
            keep.append(i)
    sub = RootDatum(
        datum.rank,
        tuple(datum.roots[i] for i in keep),
        tuple(datum.coroots[i] for i in keep),
        datum.pairing,
    )
    problems = verify_axioms(sub)
    if problems:
        raise AssertionError(f"reduced subdatum fails axioms: {problems}")
    if not is_reduced(sub):
        raise AssertionError("reduced subdatum is not reduced")
    return sub


def fiber(fold, restricted_root):
    """Source roots restricting to the given root (vector or index)."""
    if isinstance(restricted_root, int):
        idx = restricted_root
    else:
        idx = fold.datum.index_of(tuple(restricted_root))
    fib = fold.fibers[idx]
    orb = orbit(fold.source, fib[0])
    if orb != fib:
        raise AssertionError("fiber is not a single orbit")
    return fib


@dataclass(frozen=True)
class WeylDescent:
    """The isomorphism between the restricted Weyl group and the fixed
    subgroup of the source Weyl group.

    down          : root permutation of each fixed element -> that of
                    its image in the restricted Weyl group
    to_fixed      : restricted element matrix -> fixed element
    to_restricted : fixed element matrix -> restricted element
    The two matrix maps are built on first access."""

    fold: RestrictedDatum
    restricted_weyl: object
    fixed_subgroup: object
    down: dict

    @property
    def order(self):
        return len(self.restricted_weyl)

    @cached_property
    def to_restricted(self):
        bar = dict(zip(self.restricted_weyl.sorted_perms, self.restricted_weyl))
        return {w.on_characters: bar[self.down[p]]
                for w, p in zip(self.fixed_subgroup, self.fixed_subgroup.sorted_perms)}

    @cached_property
    def to_fixed(self):
        return {self.to_restricted[w.on_characters].on_characters: w
                for w in self.fixed_subgroup}


def weyl_descent_iso(fold, bound=WEYL_BOUND):
    """Build and fully verify the descent isomorphism W^G -> W-bar.

    W^G comes from ``fixed_weyl`` as the closure of the lifts, one per
    orbit of the base (the product of the reflections over its
    orthogonal orbit), hence one per restricted base root.  A fixed element with root permutation p goes to
    the restricted Weyl element w-bar with permutation down(p), which
    sends restricted root b to the fiber holding p(rep_b), rep_b a
    source root over b.  Checked: down(p) lies in W-bar and down is a
    bijection; for each restricted base root b, the lift l over b has
    factors that commute (its matrix in both orders), down(l) is the
    reflection s_b, and s_b . proj = proj . l on the lattice; and down
    is multiplicative on the full multiplication table
    (``_check_multiplicative``).  Matrices are built for the lifts only.

    The matrix m_w = proj . w . section of each fixed w is w-bar, with
    no matrix built.  w commutes with the group, so it preserves the
    relations x - g x and the saturation of their span, the kernel of
    proj; hence proj . w = m_w . proj, and w -> m_w is a homomorphism
    (m_vw proj = proj v w = m_v proj w = m_v m_w proj, proj onto).
    w -> w-bar is a homomorphism by the table check.  On a lift l both
    give s_b: m_l = s_b . proj . section = s_b by the lattice check, and
    l-bar = s_b by the permutation check, W-bar acting faithfully on its
    roots.  The lifts generate W^G, so m_w = w-bar for every w.

    The table check costs |W^G|^2 compositions, so both groups are
    closed under ``min(bound, TABLE_BOUND)``: a larger fixed subgroup
    raises EnumerationOverflow while it is being closed."""
    source_action = fold.source
    source = source_action.datum
    cv = fold.coinvariants
    restricted = fold.datum

    bound = min(bound, TABLE_BOUND)
    w_fixed = fixed_weyl(source_action, bound=bound)
    w_bar = weyl_group(restricted, base=fold.base, bound=bound)
    if len(w_fixed) != len(w_bar):
        raise AssertionError(
            f"|restricted Weyl| = {len(w_bar)} != |fixed subgroup| = {len(w_fixed)}")

    fiber_of = [None] * len(source.roots)
    for b, fib in enumerate(fold.fibers):
        for i in fib:
            fiber_of[i] = b
    reps = permutation_getter([fib[0] for fib in fold.fibers])

    def descend(p):
        return permutation_getter(reps(p))(fiber_of)

    images = [descend(p) for p in w_fixed.perms]
    if not set(w_bar.perms).issuperset(images):
        raise AssertionError("induced map is not a restricted Weyl element")
    if len(set(images)) != len(images):
        raise AssertionError("fixed subgroup does not act faithfully")

    # generator formula: the reflection in a restricted base root lifts
    # to the commuting product over the orthogonal orbit
    for b in fold.base:
        xi, lift_perm = source_action.base_lifts[fold.fibers[b]]
        lift = DatumAutomorphism.identity(source.rank)
        for k in xi:
            lift = lift * reflection(source, k)
        # commuting factors: order must not matter
        rev = DatumAutomorphism.identity(source.rank)
        for k in reversed(xi):
            rev = rev * reflection(source, k)
        if lift.on_characters != rev.on_characters:
            raise AssertionError("orthogonal orbit reflections do not commute")
        if descend(lift_perm) != reflection_permutation(restricted, b):
            raise AssertionError("descent does not send the lift to the reflection")
        # defining relation on the lattice: wbar . projection = projection . lift
        wbar = reflection(restricted, b)
        if mat_mul(wbar.on_characters, cv.projection) != mat_mul(
                cv.projection, lift.on_characters):
            raise AssertionError("embedding relation fails on the lattice")

    _check_multiplicative(w_fixed.perms, w_fixed.generators, images)
    return WeylDescent(fold, w_bar, w_fixed, dict(zip(w_fixed.perms, images)))


def _check_multiplicative(perms, generators, images):
    """Raise AssertionError unless x -> images[x] is multiplicative on
    every one of the n^2 products, n = len(perms).

    ``perms`` lists a group of root permutations in the breadth-first
    order ``closure`` gives from the identity under right multiplication
    by ``generators``; ``images`` lists root permutations, one per
    element, forming a group G-bar in which each element occurs once.
    The identity must go to the identity (phi(e) = phi(e)^2 for a
    multiplicative phi), so the identity columns agree.

    The table is walked column by column in the same breadth-first
    order.  The column of y holds the index of x . y for every x.  With
    right_h the index map of right multiplication by h, the column of
    y = x . h is right_h read at the column of x: one itemgetter call.
    The column of phi(y) in the table of G-bar, numbered through
    ``images``, is built the same way from phi(x) and phi(h); its entry
    at the identity is then the index of phi(x) phi(h), so equal
    columns confirm phi(y) = phi(x) phi(h), both columns are real table
    columns by induction, and their equality is
    phi(p_i p_y) = phi(p_i) phi(p_y) for every i.  Only the columns of
    two breadth-first layers are held at a time."""
    if images[0] != tuple(range(len(images[0]))):
        raise AssertionError("descent is not multiplicative")
    n = len(perms)
    index = {p: i for i, p in enumerate(perms)}
    index_bar = {q: i for i, q in enumerate(images)}
    right = [tuple(map(index.__getitem__, map(permutation_getter(h), perms)))
             for h in generators]
    right_bar = [tuple(map(index_bar.__getitem__,
                           map(permutation_getter(images[index[h]]), images)))
                 for h in generators]
    ident = tuple(range(n))
    columns = {0: (ident, ident)}
    fresh = 1   # columns are built for the indices below, in order
    for x in range(n):
        if x >= fresh:
            raise AssertionError(
                "elements are not in the breadth-first order of the generators")
        col, col_bar = columns.pop(x)
        if col != col_bar:
            raise AssertionError("descent is not multiplicative")
        for h, h_bar in zip(right, right_bar):
            if h[x] == fresh:
                columns[fresh] = (permutation_getter(col)(h),
                                  permutation_getter(col_bar)(h_bar))
                fresh += 1


def is_invariant_system(fold, system):
    return all(frozenset(p[i] for i in system) == frozenset(system)
               for p in fold.source.root_perms)


def positive_system_transfer(fold, system, direction):
    """Carry a positive system across the restriction.

    direction="down": a group-invariant positive system of the source
    maps to its image set of restricted roots.  direction="up": a
    positive system of the restricted datum pulls back to the union of
    its fibers.  Both directions validate their input and the two maps
    are mutually inverse.
    """
    source = fold.source.datum
    restricted = fold.datum
    system = frozenset(system)
    if direction == "down":
        if not is_positive_system(source, system):
            raise ValueError("input is not a positive system of the source")
        if not is_invariant_system(fold, system):
            raise ValueError("input positive system is not invariant under the action")
        image = frozenset(
            restricted.index_of(fold.coinvariants.project(source.roots[i]))
            for i in system)
        if not is_positive_system(restricted, image):
            raise AssertionError("image is not a positive system downstairs")
        return image
    if direction == "up":
        if not is_positive_system(restricted, system):
            raise ValueError("input is not a positive system of the restricted datum")
        pulled = frozenset(i for r in system for i in fold.fibers[r])
        if not is_positive_system(source, pulled):
            raise AssertionError("preimage is not a positive system upstairs")
        if not is_invariant_system(fold, pulled):
            raise AssertionError("preimage is not invariant")
        return pulled
    raise ValueError(f"unknown direction {direction!r}")


def invariant_positive_systems(fold, bound=WEYL_BOUND):
    """All positive systems of the source invariant under the action."""
    from .rootdatum import positive_systems

    source = fold.source.datum
    return tuple(
        s for s in positive_systems(source, bound=bound)
        if is_invariant_system(fold, s))
