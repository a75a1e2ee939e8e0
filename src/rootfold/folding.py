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

from functools import cached_property, reduce

from .action import (
    Coinvariants,
    DatumAction,
    actions_commute,
    coinvariants,
    fixed_weyl,
    make_action,
    orbit,
    orthogonal_orbit,
)
from .errors import InvalidActionError
from .lattice import (
    dot,
    identity_matrix,
    mat_mul,
    mat_vec,
    record,
    replace,
    transpose,
    unimodular_inverse,
    vec_add,
)
from .rootdatum import (
    BasedRootDatum,
    RootDatum,
    _conjugate_reflections,
    _double,
    as_permutation,
    closure,
    compose,
    identity_permutation,
    is_positive_system,
    is_reduced,
    permutation_getter,
    reflection_permutation,
    verify_axioms,
    verify_base,
    weyl_group,
)

# Largest fixed subgroup whose descent table is checked: W(B5), from the
# D6 flip, the largest fold in the tests (3840 x 5 generator-map entries
# on each side: about 0.03 s after the 0.01 s closure, CPython 3.11 on a
# shared 2-vCPU host).
TABLE_BOUND = 3840


@record
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

    @cached_property
    def fiber_index(self):
        """Per source root index, the index of the restricted root it
        projects to: the fibers read backwards.  ``restrict`` groups the
        roots by projection and lists the restricted roots in fiber
        order, so this is ``index_of(project(root))`` for every root."""
        return _fiber_index(self.fibers, len(self.source.datum.roots))


def _fiber_index(fibers, n):
    # per source root index, the index of the fiber holding it
    out = [None] * n
    for b, fib in enumerate(fibers):
        for i in fib:
            out[i] = b
    return tuple(out)


def restrict(action, commuting_actions=()):
    """Fold a based action into its restricted root datum.  Every listed
    commuting action descends to the quotient and is returned as an
    induced action on the restricted datum.

    One representative of each orbit (``action.orbits``) is projected:
    ``coinvariants`` checks proj . A = proj for every image A, and A
    sends root i to root p(i) for its permutation p, so every member
    of an orbit has the same image.  A fiber is therefore a union of
    orbits, and two orbits over one restricted root raise
    AssertionError.  The coroot of a fiber is built once, from its
    smallest member: ``orthogonal_orbit(action, i)`` reads nothing of i
    but its orbit, so every member gives the same orthogonal orbit,
    ratio and coroot, and which one represents the fiber cannot
    matter.  The restricted datum is handed its reflections before
    ``verify_axioms`` runs, read off the lifts of the base
    (``_hand_over_reflections``), so none is read off the pairing."""
    if not action.is_based:
        raise InvalidActionError("restriction requires a based action")
    source = action.datum
    for other in commuting_actions:
        if not actions_commute(action, other):
            raise InvalidActionError(
                "a commuting action fails to commute elementwise")
    cv = coinvariants(action)
    f = cv.free_rank

    image = {orb: cv.project(source.roots[orb[0]])
             for orb in dict.fromkeys(action.orbits)}
    by_image = {}
    for orb, rbar in image.items():
        by_image.setdefault(rbar, []).append(orb)
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
        orb, *others = by_image[rbar]
        if others:
            raise AssertionError(
                f"fiber over {rbar} is not a single orbit: {by_image[rbar]}")
        rep = orb[0]
        xi = orthogonal_orbit(action, rep)
        ratio = len(orb) // len(xi)
        if ratio not in (1, 2) or len(orb) % len(xi) != 0:
            raise AssertionError("orbit size ratio must be 1 or 2")
        total = tuple(0 for _ in range(source.rank))
        for k in xi:
            total = vec_add(total, source.coroots[k])
        coroots.append(cochar_coordinates(tuple(ratio * x for x in total)))
        fibers.append(orb)
        provenance.append((rep, xi, ratio))

    pairing = None if cv.pairing == identity_matrix(f) else cv.pairing
    restricted = RootDatum(f, restricted_roots, tuple(coroots), pairing)
    base_images = sorted({image[action.orbits[i]] for i in action.target.base})
    base = tuple(restricted.index_of(v) for v in base_images)
    _hand_over_reflections(action, restricted, base, fibers)

    problems = verify_axioms(restricted)
    if problems:
        raise AssertionError(f"restricted datum fails axioms: {problems}")

    based = BasedRootDatum(restricted, base)
    base_problems = verify_base(based)
    if base_problems:
        raise AssertionError(f"restricted base is invalid: {base_problems}")

    fold = RestrictedDatum(
        datum=restricted,
        base=base,
        source=action,
        coinvariants=cv,
        fibers=tuple(fibers),
        provenance=tuple(provenance),
        induced=(),
    )
    return replace(fold, induced=tuple(
        _descend_action(other, fold) for other in commuting_actions))


def _hand_over_reflections(action, restricted, base, fibers):
    """Enter the reflection s_b of each restricted base root b in the
    reflection cache of ``restricted``, as the permutation
    d(l) = fiber_index o l o reps of the lift l of its fiber
    (``DatumAction.base_lifts``, ``_descent``), and s_{2b} with it when
    2 r_b is a root with coroot c_b / 2; then close the cache by
    conjugation (``_conjugate_reflections``), as ``from_cartan_type``
    does.

    Why d(l) is the permutation ``_reflection_permutation`` reads for
    s_b, on roots and on coroots.  Write pi for the projection and iota
    for the inclusion of the fixed cocharacters, so that
    <pi x, y>-bar = <x, iota y> (``coinvariants``); r_b and c_b for the
    root and coroot of b; xi for the orthogonal orbit of the fiber F of
    b, and r = |F| / |xi|.  Then l = prod_{k in xi} s_k with commuting
    factors, l(x) = x - sum_k <x, c_k> a_k, and iota c_b = r sum_k c_k.
    When r = 1, xi = F and pi a_k = r_b for every k; when r = 2, each a_k
    is the sum of two roots of F (``orthogonal_orbit``), and
    pi a_k = 2 r_b.  Either way
    pi l(x) = pi x - <x, iota c_b> r_b = pi x - <pi x, c_b>-bar r_b
    = s_b(pi x).  So s_b sends the restricted root r_e = pi a_i to
    pi a_{l(i)}, the root of the fiber holding l(rep_e): that is d(l).
    On cocharacters l is y -> y - sum_k <a_k, y> c_k.  A fixed y has
    <g a, y> = <a, y> for every image g, so <a_k, iota y> = r <r_b, y>-bar
    for either ratio, and l(iota y) = iota(y - <r_b, y>-bar c_b)
    = iota(s_b y).  And l, a Weyl element commuting with the group
    (``base_lifts`` checks both), sends each root a_i and coroot c_i to
    a_{l(i)} and c_{l(i)}, each orbit onto an orbit, and, keeping
    pairings and root sums, its orthogonal orbit onto that of the image
    with the same ratio.  So l maps iota of the coroot of r_e, built in
    ``restrict`` from its orthogonal orbit, to iota of the coroot of the
    image root; as it is iota(s_b c_e), that coroot is s_b(c_e), iota
    being one to one.  d(l) is one to one, as s_b is an involution.

    With c_{2b} = c_b / 2, s_{2b} is the same map as s_b on both lattices.
    The base reflections generate the Weyl group, and every root is a
    Weyl image of a base root or of the double of one (Bourbaki, Lie VI
    1.5 and 1.7), so the conjugation reaches every root and
    ``verify_axioms`` reads no reflection off the pairing; each cached
    entry is the direct computation's (see ``reflection_permutation``)."""
    descend = _descent(fibers, len(action.datum.roots))
    cache = restricted._reflection_perms
    for b in base:
        cache[b] = descend(action.base_lifts[fibers[b]][1])
        double = _double(restricted, b)
        if double is not None and tuple(
                2 * x for x in restricted.coroots[double]) == restricted.coroots[b]:
            cache[double] = cache[b]
    # every entry is in before the first closing step, which then looks
    # at each of them under each base reflection
    for b in base:
        _conjugate_reflections(restricted, b)


def _descent(fibers, n):
    """The map p -> fiber_index o p o reps from permutations of the n
    source roots to permutations of the restricted roots: restricted
    root b goes to the fiber holding p(rep_b), rep_b the first root of
    fiber b.  Both index maps are in the representation of the source
    permutations."""
    reps = as_permutation([fib[0] for fib in fibers], n)
    fiber_index = as_permutation(_fiber_index(fibers, n), n)
    return lambda p: as_permutation(compose(fiber_index, compose(p, reps)))


def _descend_action(other, fold):
    """Push a commuting action down to the restricted datum, through
    the induced maps (``induced_fixed_map``) of its generator images.
    The others descend with them: m_x . proj = proj . A_x and
    m_y . proj = proj . A_y give m_x m_y . proj = proj . A_x A_y.

    Every image A descends, so no refusal is needed here: ``restrict``
    has checked that A commutes with every image g of the folded
    action, so A maps each relation (1 - g)v to (1 - g)Av, another
    relation, and maps the relation lattice, and its saturation, the
    kernel of proj, into themselves.  So proj . A vanishes on the
    kernel of proj and factors through it; as proj is onto, it is
    m . proj for m = proj . A . section.  ``induced_fixed_map`` keeps
    the check m . proj = proj . A as an AssertionError."""
    gens = [(induced_fixed_map(fold, aut), other.group.labels[g])
            for g, aut in zip(other.group.generating_set, other.generator_images)]
    return make_action(fold.datum, gens, group=other.group)


def induced_fixed_map(fold, aut):
    """The matrix m = proj . A . section induced on the quotient by a
    source automorphism A whose induced map is well defined (e.g. a
    fixed Weyl element, or an image of a commuting action); raises
    AssertionError unless m . proj = proj . A."""
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
            ok = _double(datum, i) is None
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


@record
class WeylDescent:
    """The isomorphism between the restricted Weyl group and the fixed
    subgroup of the source Weyl group.

    ``down`` sends the root permutation of each fixed element to that
    of its image in the restricted Weyl group."""

    fold: RestrictedDatum
    restricted_weyl: object
    fixed_subgroup: object
    down: dict

    @property
    def order(self):
        return len(self.restricted_weyl)


def weyl_descent_iso(fold):
    """Build and fully verify the descent isomorphism W^G -> W-bar.

    W^G comes from ``fixed_weyl`` as the closure of the lifts, one per
    orbit of the base (the product of the reflections over its
    orthogonal orbit), hence one per restricted base root.  A fixed
    element with root permutation p goes to the restricted Weyl element
    w-bar with permutation down(p), which sends restricted root b to
    the fiber holding p(rep_b), rep_b a source root over b.

    Checked for each restricted base root b, with lift l over the
    orthogonal orbit xi: l is also the product of the cached reflection
    permutations of xi in reverse order, and the roots of xi are
    pairwise orthogonal, <a_j, c_k> = 0 for j != k, so the reflections
    commute and l is their product (W acts faithfully on the roots);
    down(l) is the reflection s_b, which ``restrict`` handed over as
    down of the lift it read, so this refuses a lift changed since; and
    s_b . proj = proj . l on the lattice.  The first and last refuse a
    wrong lift that ``restrict`` was handed, as the hand-over trusts
    the lifts (``_hand_over_reflections``).  The factors of l are
    I - a_k (P c_k)^T, P the pairing matrix, and orthogonality kills
    every cross term of their product, so
    proj . l = proj - sum_k (proj a_k)(P c_k)^T is formed by rank-one
    updates, with no matrix of the source built.  The other side is
    formed as one such update from the restricted data alone:
    s_b = I - r_b (P-bar c_b)^T for the restricted root r_b, its coroot
    c_b and the restricted pairing P-bar, so
    s_b . proj = proj - r_b ((P-bar c_b)^T proj).  Then down is checked
    to be injective and multiplicative on the full multiplication table
    (``_check_multiplicative``).

    W-bar is not closed.  down is an injective homomorphism sending each
    lift l_b to s_b, and the lifts generate W^G, so the images are the
    group the s_b generate, which is W-bar, each element once.  down
    also turns right multiplication by l_b into right multiplication by
    s_b, so the images listed in the breadth-first order of the
    generator maps of the lifts, taken in ``fold.base`` order, are the
    closure ``weyl_group(restricted, base=fold.base)`` would list.  They
    are kept on the restricted datum, where ``weyl_group`` finds them
    and closes nothing, here and in every later call.

    The matrix m_w = proj . w . section of each fixed w is w-bar, with
    no matrix built.  w commutes with the group, so it preserves the
    relations x - g x and the saturation of their span, the kernel of
    proj; hence proj . w = m_w . proj, and w -> m_w is a homomorphism
    (m_vw proj = proj v w = m_v proj w = m_v m_w proj, proj onto).
    w -> w-bar is a homomorphism by the table check.  On a lift l both
    give s_b: m_l = s_b . proj . section = s_b by the lattice check, and
    l-bar = s_b by the permutation check, W-bar acting faithfully on its
    roots.  The lifts generate W^G, so m_w = w-bar for every w.

    The fixed subgroup is closed under ``TABLE_BOUND``: a larger one
    raises EnumerationOverflow while it is being closed."""
    source_action = fold.source
    source = source_action.datum
    restricted = fold.datum
    proj = fold.coinvariants.projection
    w_fixed = fixed_weyl(source_action, bound=TABLE_BOUND)

    n = len(source.roots)
    descend = _descent(fold.fibers, n)
    lifts = []
    for b in fold.base:
        xi, lift = source_action.base_lifts[fold.fibers[b]]
        reverse = reduce(compose, [reflection_permutation(source, k) for k in reversed(xi)],
                         identity_permutation(n))
        paired = {k: mat_vec(source.pairing_matrix, source.coroots[k]) for k in xi}
        if reverse != lift or any(dot(source.roots[j], paired[k])
                                  for j in xi for k in xi if j != k):
            raise AssertionError("orthogonal orbit reflections do not commute")
        if descend(lift) != reflection_permutation(restricted, b):
            raise AssertionError("descent does not send the lift to the reflection")
        # defining relation on the lattice: s_b . projection = projection . lift
        lifted = proj
        for k in xi:
            lifted = _minus_outer(lifted, mat_vec(proj, source.roots[k]), paired[k])
        across = mat_vec(transpose(proj), mat_vec(restricted.pairing_matrix,
                                                  restricted.coroots[b]))
        if _minus_outer(proj, restricted.roots[b], across) != lifted:
            raise AssertionError("embedding relation fails on the lattice")
        lifts.append(lift)

    images = [descend(p) for p in w_fixed.perms]
    right = _check_multiplicative(w_fixed.perms, lifts, images)
    # kept where weyl_group finds it, so that it closes nothing
    restricted._weyl_groups[tuple(fold.base)] = tuple(
        images[i] for i in closure([0], [r.__getitem__ for r in right]))
    w_bar = weyl_group(restricted, base=fold.base)
    return WeylDescent(fold, w_bar, w_fixed, dict(zip(w_fixed.perms, images)))


def _minus_outer(m, u, v):
    """m - u v^T, for a matrix m and vectors u and v."""
    return tuple(tuple(x - a * c for x, c in zip(row, v)) for row, a in zip(m, u))


def _check_multiplicative(perms, generators, images):
    """Raise AssertionError unless x -> images[x] is an injective
    homomorphism, and return the generator maps: per generator h, the
    list right_h with right_h[x] the index of perms[x] . h.

    ``perms`` lists a group of root permutations generated by
    ``generators``, the identity first, as a ``closure`` of the
    generators from the identity does; ``images`` lists root
    permutations, one per element.  Two equal images raise "fixed
    subgroup does not act faithfully"; every other failure raises
    "descent is not multiplicative".

    The full n^2 table, n = len(perms), is verified through n lookups
    per generator.  Write phi(x) for images[x], and right-bar_h for the
    map sending x to the index of phi(x) . phi(h) in ``images`` (none
    when that product is not listed).  Checked: phi(e) = e, and
    right_h = right-bar_h for every generator h, which is
    phi(x . h) = phi(x) . phi(h) for every x.  Then phi is
    multiplicative.  The set of y with phi(x . y) = phi(x) . phi(y) for
    every x holds e, and with y it holds y . h:
    phi(x y h) = phi(x y) phi(h) = phi(x) phi(y) phi(h) = phi(x) phi(y h).
    Every element is a product of generators, so the set is the group.
    In the terms of the table: the column of y, the index of x . y for
    every x, gives the column of y . h by reading right_h at each entry,
    and the column of phi(y) gives that of phi(y) phi(h) through
    right-bar_h; from the identity columns, equal generator maps make
    every column equal, the products on the edges off a breadth-first
    tree included."""
    if images[0] != identity_permutation(len(images[0])):
        raise AssertionError("descent is not multiplicative")
    index = {p: i for i, p in enumerate(perms)}
    index_bar = {q: i for i, q in enumerate(images)}
    if len(index_bar) != len(images):
        raise AssertionError("fixed subgroup does not act faithfully")
    right = []
    for h in generators:
        right_h = list(map(index.__getitem__, map(permutation_getter(h), perms)))
        after = permutation_getter(images[index[h]])
        if list(map(index_bar.get, map(after, images))) != right_h:
            raise AssertionError("descent is not multiplicative")
        right.append(right_h)
    return right


def is_invariant_system(fold, system):
    return all(frozenset(p[i] for i in system) == frozenset(system)
               for p in fold.source.generator_perms)


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
        image = frozenset(map(fold.fiber_index.__getitem__, system))
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


def invariant_positive_systems(fold):
    """All positive systems of the source invariant under the action,
    sorted as ``positive_systems`` sorts them: the translates w(P) of
    the positive system P of the action's base by the elements w of
    W^Gamma (``fixed_weyl``).  W is not listed.

    Why these are all, each once.  Gamma stabilizes the base, so
    g(P) = P for g in Gamma, and g w(P) = (g w g^-1) g(P) = w(P) for w in
    W^Gamma: every translate is invariant.  Conversely, W acts simply
    transitively on the positive systems (Bourbaki, Lie groups and Lie
    algebras, VI 1.5), so an invariant Q is w(P) for exactly one w in W.
    For g in Gamma, g w g^-1 is a Weyl element (g s_a g^-1 = s_{g(a)})
    with g w g^-1 (P) = g w(P) = g(Q) = Q, hence g w g^-1 = w, and w is
    in W^Gamma (Steinberg, Endomorphisms of linear algebraic groups,
    1968).  Distinct w give distinct w(P), by the same simple
    transitivity."""
    source = fold.source.datum
    translate = permutation_getter(as_permutation(
        sorted(fold.source.target.positive_system), len(source.roots)))
    systems = {frozenset(translate(p))
               for p in fixed_weyl(fold.source).perms}
    return tuple(sorted(systems, key=sorted))
