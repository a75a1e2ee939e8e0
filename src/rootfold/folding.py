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
    intify_matrix,
    mat_mul,
    mat_vec,
    mat_inverse_fractions,
    transpose,
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
    verify_axioms,
    verify_base,
    weyl_group,
)


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
    pairing_inv = mat_inverse_fractions(cv.pairing)
    sect_t = transpose(cv.section)
    if not source.has_standard_pairing:
        sect_t = mat_mul(sect_t, source.pairing_matrix)

    def cochar_coordinates(v):
        # solve fixed_cols @ c = v through the unimodular restricted pairing
        c = intify_matrix((mat_vec(pairing_inv, mat_vec(sect_t, v)),))[0]
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
    subgroup of the source Weyl group."""

    fold: RestrictedDatum
    restricted_weyl: object
    fixed_subgroup: object
    to_fixed: dict        # restricted element matrix -> fixed element
    to_restricted: dict   # fixed element matrix -> restricted element

    @property
    def order(self):
        return len(self.restricted_weyl)


def weyl_descent_iso(fold, bound=WEYL_BOUND):
    """Build and fully verify the descent isomorphism: the reflection in
    a restricted root corresponds to the product of reflections over the
    orthogonal orbit of any source representative; multiplicativity is
    checked on the full multiplication table."""
    source_action = fold.source
    source = source_action.datum
    cv = fold.coinvariants
    restricted = fold.datum

    w_fixed = fixed_weyl(source_action, bound=bound)
    w_bar = weyl_group(restricted, base=fold.base, bound=bound)
    if len(w_fixed) != len(w_bar):
        raise AssertionError(
            f"|restricted Weyl| = {len(w_bar)} != |fixed subgroup| = {len(w_fixed)}")

    # the induced map on the quotient, per fixed element; ``down`` maps
    # the root permutation of each fixed element to that of its image
    to_restricted = {}
    down = {}
    seen = set()
    for w, p in zip(w_fixed, w_fixed.sorted_perms):
        m = induced_fixed_map(fold, w)
        if m in seen:
            raise AssertionError("fixed subgroup does not act faithfully")
        seen.add(m)
        target = w_bar.element_with_matrix(m)
        if target is None:
            raise AssertionError("induced map is not a restricted Weyl element")
        to_restricted[w.on_characters] = target
        down[p] = w_bar.sorted_perms[w_bar.index(target)]
    if len(seen) != len(w_bar):
        raise AssertionError("induced maps do not exhaust the restricted Weyl group")
    to_fixed = {}
    for w in w_fixed:
        to_fixed[to_restricted[w.on_characters].on_characters] = w

    # generator formula: the reflection in a restricted base root lifts
    # to the commuting product over the orthogonal orbit
    for b in fold.base:
        rep = fold.fibers[b][0]
        xi = orthogonal_orbit(source_action, rep)
        lift = DatumAutomorphism.identity(source.rank)
        for k in xi:
            lift = lift * reflection(source, k)
        # commuting factors: order must not matter
        rev = DatumAutomorphism.identity(source.rank)
        for k in reversed(xi):
            rev = rev * reflection(source, k)
        if lift.on_characters != rev.on_characters:
            raise AssertionError("orthogonal orbit reflections do not commute")
        if lift.on_characters not in to_restricted:
            raise AssertionError("lifted reflection is not a fixed Weyl element")
        wbar = reflection(restricted, b)
        if to_restricted[lift.on_characters].on_characters != wbar.on_characters:
            raise AssertionError("descent does not send the lift to the reflection")
        # defining relation on the lattice: wbar . projection = projection . lift
        if mat_mul(wbar.on_characters, cv.projection) != mat_mul(
                cv.projection, lift.on_characters):
            raise AssertionError("embedding relation fails on the lattice")

    # multiplicativity on the full table, compared on root permutations:
    # both Weyl groups act faithfully on their roots, so equal
    # permutations are equal elements
    for q, dq in down.items():
        right, right_down = permutation_getter(q), permutation_getter(dq)
        for p, dp in down.items():
            if down.get(right(p)) != right_down(dp):
                raise AssertionError("descent is not multiplicative")

    return WeylDescent(fold, w_bar, w_fixed, to_fixed, to_restricted)


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
