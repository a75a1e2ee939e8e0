"""Star actions, their Weyl cocycles, and nonabelian H1 at datum level.

Any automorphism of the underlying datum carries a based datum to
another base; correcting by the unique Weyl element transporting the
distinguished base back (base_transport) yields the star action.  The
transport values form a twisted cocycle: c(st) = c(s) . s*(c(t)),
where s* conjugates by the star action.

Cocycle enumeration, cobounding classes, the image invariant under the
full equivariant automorphism group, and the inverse construction
(twisting the Galois action of a datum by a cocycle) all live here;
everything is exhaustive and deterministic at desk scale.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product
from operator import itemgetter

from .action import (
    DatumAction,
    actions_commute,
    fixed_weyl,
)
from .errors import EnumerationOverflow, InvalidActionError, UnsupportedDatumError
from .lattice import (
    adjugate_and_det,
    det,
    exact_quotient,
    identity_matrix,
    mat_mul,
    record,
    transpose,
)
from .rootdatum import (
    WEYL_BOUND,
    BasedRootDatum,
    DatumAutomorphism,
    WeylGroup,
    _automorphisms_from_permutations,
    _invert_permutation,
    _matrix_on_roots,
    _walk_automorphism,
    as_permutation,
    canonical_base,
    cartan_matchings,
    closure,
    compose,
    held_base,
    identity_permutation,
    permutation_getter,
    positive_system,
    reflection_permutation,
    weyl_group,
)

Z1_BOUND = 10 ** 6


def base_transport(based, aut):
    """The unique Weyl element w with aut(base) = w(base).  The root
    permutation of aut is walked from the base with its character matrix
    (``_walk_automorphism``)."""
    perm = _transport(based, _walk_automorphism(based, aut.on_characters))
    return _automorphisms_from_permutations(based.datum, [perm])[0]


def _transport(based, perm):
    """The root permutation of the unique Weyl element w with
    aut(base) = w(base), where ``perm`` is the root permutation of aut.
    w is found by walking the image positive system back with simple
    reflections s_1, ..., s_k; then w = s_1 ... s_k, and its permutation
    is the composite of theirs.  W acts faithfully on the roots, so the
    permutation names w."""
    datum = based.datum
    if perm is None:
        raise InvalidActionError("map does not permute the roots")
    pos = based.positive_system
    simple_perm = {d: reflection_permutation(datum, d) for d in based.base}
    neg_of = datum.negation

    current = frozenset(map(perm.__getitem__, pos))
    w_perm = identity_permutation(len(datum.roots))
    guard = len(datum.roots) + 1
    while current != pos:
        step = next((d for d in based.base if neg_of[d] in current), None)
        if step is None:
            raise InvalidActionError("image of the base is not a base of the roots")
        current = frozenset(map(simple_perm[step].__getitem__, current))
        w_perm = compose(w_perm, simple_perm[step])
        guard -= 1
        if guard < 0:
            raise InvalidActionError("base transport did not terminate")
    if {w_perm[i] for i in based.base} != {perm[i] for i in based.base}:
        raise AssertionError("transport element does not carry the base correctly")
    return w_perm


def _conjugation(q):
    """p -> q o p o q^-1 on root permutations.  When q is the
    permutation of a datum automorphism g and p that of a Weyl element
    w, the result is the permutation of g w g^-1, again a Weyl element
    (g s_a g^-1 = s_{g(a)})."""
    after = permutation_getter(_invert_permutation(q))
    return lambda p: after(compose(q, p))


def _check_twisted_law(galois, value_perms, star_perms):
    """Raise ValueError unless c(st) = c(s) . s*(c(t)) on every pair,
    compared on root permutations (see ``StarCocycle``)."""
    for s in galois.elements():
        twist = _conjugation(star_perms[s])
        after_s = value_perms[s]
        for t in galois.elements():
            rhs = compose(after_s, twist(value_perms[t]))
            if value_perms[galois.mul(s, t)] != rhs:
                raise ValueError(
                    f"twisted cocycle law fails at "
                    f"({galois.labels[s]!r}, {galois.labels[t]!r})")


@record
class StarCocycle:
    """Weyl-valued map on a finite group satisfying the twisted law
    c(st) = c(s) . s*(c(t)) relative to a base-preserving star action,
    where s*(w) = s* w s*^-1.

    The record is the based star action (``star_action``, which holds
    the group, the datum, the images s* and their ``root_perms``) and
    the root permutation of each value; the values themselves are read
    off the permutations (``values``).  The law is checked on root
    permutations, which is exact: s*(w) is a Weyl element whose
    permutation is q o p o q^-1 for q, p the permutations of s* and w,
    and W acts faithfully on the roots (see ``verify_axioms``)."""

    star_action: DatumAction  # the based star action
    value_perms: tuple        # root permutation of c(s) per element index

    @classmethod
    def build(cls, star_action, value_perms):
        """Validate and construct from the star action and the root
        permutations of the values (tuples are converted, see
        ``as_permutation``): the twisted law (``_lawful``), then each
        distinct value permutation is refused unless a datum automorphism
        fixing the annihilator A of the coroots pointwise induces it.

        That check is exact.  Such an automorphism sends the independent
        roots r_i of ``RootDatum._root_basis`` to r_{p(i)} and fixes
        the basis z_j of A, so it is the matrix ``_matrix_on_roots``
        reads off p with the identity block; conversely that matrix is
        one exactly when it is integral and unimodular and its root
        permutation, walked from the base of the star action
        (``_walk_automorphism``), is p.

        ``star_action``, ``z1_enumerate`` and ``cobound`` build through
        ``_lawful`` alone: their values are induced by construction.  A
        base transport is a product of simple reflections; a value of
        ``z1_enumerate`` a product of module elements, Weyl elements, and
        their star twists, again Weyl elements; and a coboundary
        k^-1 c(s) s*(k) a product of automorphisms that fixes A
        pointwise (see ``_cobound_steps``)."""
        cocycle = cls._lawful(star_action, value_perms)
        group = star_action.group
        seen = set()
        for s, p in enumerate(cocycle.value_perms):
            if p not in seen and not _is_induced(star_action.target, p):
                raise ValueError(f"cocycle value at {group.labels[s]!r} is not "
                                 f"induced by a datum automorphism")
            seen.add(p)
        return cocycle

    @classmethod
    def _lawful(cls, star_action, value_perms):
        # ``build`` without the check that the values are induced
        value_perms = tuple(map(as_permutation, value_perms))
        group = star_action.group
        if value_perms[group.identity] != identity_permutation(len(star_action.datum.roots)):
            raise ValueError("cocycle must send the identity to the identity")
        _check_twisted_law(group, value_perms, star_action.root_perms)
        return cls(star_action, value_perms)

    @cached_property
    def values(self):
        """The DatumAutomorphism c(s) per element index, built from
        ``value_perms`` (see ``_automorphisms_from_permutations``).

        That is exact.  Every value that ``star_action``,
        ``z1_enumerate`` and ``cobound`` make fixes the annihilator A of
        the coroots pointwise, and ``build`` checks it of every other
        value.  So its block is the identity, and the pair names it (see
        ``action.DatumAction``)."""
        return tuple(_automorphisms_from_permutations(self.star_action.datum,
                                                      self.value_perms))

    def sort_key(self):
        return tuple(v.on_characters for v in self.values)


def _is_induced(target, perm):
    """Whether some automorphism of the datum of ``target`` that fixes
    the annihilator of the coroots pointwise has the root permutation
    ``perm`` (see ``StarCocycle.build``)."""
    datum = target.datum if isinstance(target, BasedRootDatum) else target
    m = _matrix_on_roots(datum, [datum.roots[perm[i]] for i in datum._root_basis[0]],
                         identity_matrix(len(datum.coroot_annihilator)))
    return m is not None and abs(det(m)) == 1 and _walk_automorphism(target, m) == perm


def star_action(action, base):
    """Split an action on a datum into its base-preserving part and the
    Weyl transport cocycle.  A base-stabilizing action comes back
    unchanged with the trivial cocycle.

    The star image c(s)^-1 . pi(s) has the root permutation of c(s)^-1,
    the inverse of the transport's, composed with that of pi(s), and the
    block of pi(s), as c(s) is a Weyl element (see
    ``action.DatumAction``); ``DatumAction.build`` checks them.  No
    matrix is built here: the star images are built when a caller reads
    them, and the cocycle holds the transports as permutations.

    The pair is kept on ``action``, keyed by the base, and a later call
    with that base returns the same objects, so that ``twist_datum``
    given this star action and a cocycle from it compares nothing.  The
    pair refers to the group, the datum and the action's blocks, never
    to ``action`` itself, so keeping it makes no reference cycle."""
    key = tuple(base)
    kept = action._star_actions
    if key not in kept:
        based = BasedRootDatum(action.datum, key)
        transport_perms = [_transport(based, perm) for perm in action.root_perms]
        star_act = DatumAction.build(
            action.group, [compose(_invert_permutation(t), p)
                           for t, p in zip(transport_perms, action.root_perms)],
            action.blocks, based)
        kept[key] = (star_act, StarCocycle._lawful(star_act, transport_perms))
    return kept[key]


def equivariant_automorphism_group(based, commuting_with=None):
    """All datum automorphisms commuting with the given action, as a
    ``WeylGroup`` that holds its generators and its order and closes
    only when a caller reads its ``perms``.  The generators are those of
    W^Gamma (``DatumAction.base_lifts``, which generate W^Gamma, see
    ``fixed_weyl``; with no action, the simple reflections of the base)
    followed by the diagram maps of the action's base that commute with
    the action (see ``_diagram_maps``), D^Gamma.  W^Gamma is the group
    ``fixed_weyl`` (or ``weyl_group``) keeps for that action (or datum),
    so no closure runs when it is already known.  Raises
    EnumerationOverflow when the order passes ``WEYL_BOUND``.  Requires a
    semisimple datum and, when given, a based action.

    Why they generate: let f commute with Gamma and let B be the base
    Gamma stabilizes.  Then f(B) is a Gamma-stable base, since
    g f(B) = f(g B) = f(B), and it is w(B) for exactly one Weyl element
    w, W acting simply transitively on the bases.  For g in Gamma,
    g w g^-1 is a Weyl element with g w g^-1 (B) = g f(B) = f(B), so
    g w g^-1 = w: w is in W^Gamma.  So f = w.d with d = w^-1 f a
    diagram map of B that commutes with Gamma.  D^Gamma is listed
    without D: the node matchings are cut where they fail to commute
    with Gamma on the base (``cartan_matchings``), which decides it, as
    d o g and g o d are lattice maps that agree on all roots once they
    agree on the base (see ``_diagram_maps``).

    Why the order is |W^Gamma| |D^Gamma|: the product map
    (w, d) -> w.d is onto, and one to one because w.d = w'.d' makes
    w'^-1 w = d' d^-1 a Weyl element fixing B, the identity by simple
    transitivity.  W^Gamma is normal (f w f^-1 is a Weyl element that
    commutes with Gamma), so Aut^Gamma is the semidirect product."""
    weyl, diagram = _automorphism_factors(based, commuting_with)
    return WeylGroup(based.datum, None, weyl.generators + diagram,
                     order=len(weyl) * len(diagram))


def _automorphism_factors(based, commuting_with=None):
    """(W^Gamma, D^Gamma) of ``equivariant_automorphism_group``: the
    fixed Weyl group as a ``WeylGroup``, and the diagram maps of the
    action's base that commute with the action, as root permutations.
    Refuses as that function does."""
    datum = based.datum
    if not datum.is_semisimple:
        raise UnsupportedDatumError(
            "automorphism groups are only computed for semisimple data")
    if commuting_with is not None and not commuting_with.is_based:
        raise InvalidActionError("the commuting action must stabilize a base")
    b = based if commuting_with is None else commuting_with.target
    gammas = () if commuting_with is None else commuting_with.generator_perms
    try:
        weyl = (weyl_group(datum, base=based.base) if commuting_with is None
                else fixed_weyl(commuting_with))
    except EnumerationOverflow:   # then the group, which holds it, passes the bound too
        raise EnumerationOverflow(f"automorphism group exceeds {WEYL_BOUND} elements") from None
    diagram = _diagram_maps(b, len(weyl), gammas)
    _refuse_group_order(len(weyl) * len(diagram))
    return weyl, diagram


def _refuse_group_order(order):
    """EnumerationOverflow when an automorphism group of ``order``
    elements passes ``WEYL_BOUND``."""
    if order > WEYL_BOUND:
        raise EnumerationOverflow(f"automorphism group exceeds {WEYL_BOUND} elements")


def _diagram_maps(based, weyl_order=None, commuting=()):
    """The root permutation of every automorphism of the datum that
    carries the base onto itself with Cartan entries preserved, is
    integral with determinant +-1, maps the roots onto the roots and
    each coroot onto the coroot of the image root
    (``_find_diagram_maps``), in the lexicographic order of their node
    matchings; the datum must be semisimple.  The root permutation names
    the automorphism, as the roots span the characters over Q, and no
    caller reads the matrices.

    With ``commuting``, root permutations of automorphisms that
    stabilize the base, only the maps d with d o g = g o d for each g
    are listed (D^Gamma), and D is not: their node matchings are the
    ones that commute with the node permutations of the g
    (``cartan_matchings``), and that decides it, as d o g and g o d are
    lattice maps that agree on all roots once they agree on the base.

    With ``weyl_order``, the order of the Weyl part W of the group W.D
    the maps D make (W with no action, W^Gamma with one), the listing
    stops with EnumerationOverflow once that order times the maps listed
    passes ``WEYL_BOUND``: A1^8, with 256 Weyl elements and 8! = 40320
    maps, is refused after 3 907 of them.

    The list is cached on the datum, keyed by the base, and by
    ``commuting`` too when it is given, so a reader of the full list
    never meets a filtered one; a listing that stops is not cached."""
    kept = based.datum._diagram_maps
    key = (based.base,) + ((commuting,) if commuting else ())
    if key not in kept:
        found = []
        for matched in _find_diagram_maps(based, based, commuting):
            found.append(matched)
            if weyl_order is not None:
                _refuse_group_order(weyl_order * len(found))
        kept[key] = tuple(m for _, m in sorted(found, key=itemgetter(0)))
    return kept[key]


def _find_diagram_maps(based1, based2, commuting=()):
    """(node matching, root map) for each lattice isomorphism of the
    characters from the datum of based1 to that of based2 that carries
    the base of based1 onto the base of based2 with Cartan entries
    preserved, is integral with determinant +-1, maps the roots onto
    the roots and each coroot onto the coroot of the image root (both
    data semisimple with equally many roots), lazily, in the order
    ``cartan_matchings`` meets the matchings, cut to those commuting
    with the node permutations of the root permutations ``commuting``
    on the base of based1.  ``_diagram_maps`` sorts those of one base
    onto itself; ``equivariant_isomorphic`` takes the first one between
    two data.  The matrix m
    sending the base of based1 onto the matched simple roots of based2
    is solved once per matching, and the rest is walked from the base
    (``_walk_automorphism``), which checks the coroots of the base and
    reaches every root."""
    node = {r: k for k, r in enumerate(based1.base)}
    nodes = [tuple(node[g[r]] for r in based1.base) for g in commuting]
    adj, d0 = adjugate_and_det(transpose(based1.simple_roots))
    for perm in cartan_matchings(based1.cartan_matrix(), based2.cartan_matrix(), nodes):
        target = transpose(tuple(based2.simple_roots[j] for j in perm))
        m = exact_quotient(mat_mul(target, adj), d0)
        if m is not None and abs(det(m)) == 1:
            images = _walk_automorphism(based1, m, based2.datum)
            if images is not None:
                yield perm, images


def z1_enumerate(galois, star, module):
    """All twisted cocycles on the group valued in the module.

    ``star`` is the based star action of ``galois`` (ValueError for an
    action of another group); its ``root_perms`` give the twists.
    ``module`` is a WeylGroup (a subgroup of W) closed under the star
    twist.  Cocycles are determined by generator values; every
    assignment of module elements to the generators is tried, which is
    exhaustive and deterministic, and EnumerationOverflow is raised
    first when there are more than ``Z1_BOUND``.

    A cocycle c with c(s) = a_s on the generators s satisfies
    c(g s) = c(g) . g*(a_s) for every g and s.  One breadth-first
    spanning tree of the Cayley graph of the group (vertices the
    elements, an edge g -> g s per generator s) fixes c along its edges
    from c(1) = 1, and the assignment is kept exactly when the other
    edges agree.  That suffices: then the pairs (c(g), g) are closed
    under right multiplication by the pairs (a_s, s) of W x| Gal, with
    (v, g)(w, h) = (v . g*(w), gh), so they contain the subgroup H those
    pairs generate.  H maps onto Gal, so it has at least |Gal| elements,
    as many as the pairs: H is the graph of c, a homomorphic section,
    and c is a cocycle.  For Z/n this is the norm equation
    w . s*(w) ... (s^(n-1))*(w) = 1 on w = c(s).  The values are
    products of module elements and their star twists, so they lie in
    the module.  ``StarCocycle._lawful`` checks the law again on every
    cocycle returned.

    Everything runs on the stored root permutations of the module,
    exactly: the values are Weyl elements, so each is determined by its
    permutation (W acts faithfully on the roots, see ``verify_axioms``),
    and s*(w) = s* w s*^-1 has the permutation q o p o q^-1.  The twist
    by each star image other than the identity is tabled once over the
    module.  The module is closed under it when it maps the generators of
    the module into the module (all of ``perms`` when there are none):
    the twist is an automorphism of the symmetric group of the roots, so
    the image of the module is the group generated by the images of its
    generators.  The matrices of the distinct values of all the cocycles
    returned are built in one pass and seed their ``values``."""
    if star.group is not galois:
        raise ValueError("the star action is not an action of the group")
    datum = star.datum
    star_perms = star.root_perms
    ident = identity_permutation(len(datum.roots))
    tables = {}
    for q in sorted(set(star_perms) - {ident}):
        table = tables[q] = dict(zip(module.perms, map(_conjugation(q), module.perms)))
        if not all(table[p] in table for p in module.generators or module.perms):
            raise ValueError("module is not closed under the star twist")
    gens = galois.generating_set
    if gens and len(module) ** len(gens) > Z1_BOUND:
        raise EnumerationOverflow(
            f"{len(module)}^{len(gens)} generator assignments exceed {Z1_BOUND}")

    # (g, k, g s_k, table of g*) per edge of the Cayley graph, in
    # breadth-first order: the first edge into each element is its tree
    # edge
    edges = [(g, k, galois.mul(g, s), tables.get(star_perms[g]))
             for g in closure([galois.identity],
                              [lambda x, s=s: galois.mul(x, s) for s in gens])
             for k, s in enumerate(gens)]
    found = []
    for assignment in product(module.perms, repeat=len(gens)):
        values = [None] * len(galois)
        values[galois.identity] = ident
        for g, k, h, table in edges:
            t = assignment[k] if table is None else table[assignment[k]]
            v = t if values[g] is ident else compose(values[g], t)
            if values[h] is None:
                values[h] = v
            elif values[h] != v:
                break
        else:
            found.append(tuple(values))
    distinct = sorted({p for perms in found for p in perms})
    auts = dict(zip(distinct, _automorphisms_from_permutations(datum, distinct)))
    cocycles = []
    for perms in found:
        cocycle = StarCocycle._lawful(star, perms)
        # seed the cached property with the matrices already built
        vars(cocycle)["values"] = tuple(auts[p] for p in perms)
        cocycles.append(cocycle)
    cocycles.sort(key=StarCocycle.sort_key)
    return tuple(cocycles)


@record
class CohomologyClassSet:
    """Cocycles partitioned by the cobounding relation
    c ~ (s -> k^-1 . c(s) . s(k)) with k in the cobounding group."""

    module_group: object      # WeylGroup, or None when not given
    cobounding_group: WeylGroup
    cocycles: tuple
    classes: tuple          # tuple of tuples of StarCocycle
    representatives: tuple  # canonically least member per class

    @property
    def class_count(self):
        return len(self.classes)


def _cobound_steps(star, kappas):
    """One map per root permutation k in ``kappas``, sending the value
    permutations of a cocycle c against the star action ``star`` to
    those of s -> k^-1 . c(s) . s*(k).  Each k names a Weyl element on
    any datum, or any automorphism on semisimple data, as in a
    ``WeylGroup``.  Either way the values fix the annihilator A of the
    coroots pointwise, so their root permutations name them (see
    ``action.DatumAction``): a Weyl element fixes A, and on semisimple
    data A = 0.

    The maps need no twisted-law check: if c is a cocycle, so is c.k,
    as (c.k)(s) . s*((c.k)(t))
    = k^-1 c(s) s*(k) . s*(k)^-1 s*(c(t)) s*(t*(k))
    = k^-1 c(st) (st)*(k)."""
    conjugations = [_conjugation(q) for q in star.root_perms]

    def step(k):
        kinv = _invert_permutation(k)
        after = [permutation_getter(conj(k)) for conj in conjugations]
        return lambda perms: tuple(right(compose(kinv, v))
                                   for v, right in zip(perms, after))
    return [step(k) for k in kappas]


def cobound(cocycle, kappa):
    """The cocycle s -> kappa^-1 . c(s) . s*(kappa), computed on root
    permutations from the root permutation ``kappa`` of a Weyl element,
    or of any automorphism on semisimple data (see ``_cobound_steps``)."""
    step, = _cobound_steps(cocycle.star_action, [as_permutation(kappa)])
    return StarCocycle._lawful(cocycle.star_action, step(cocycle.value_perms))


def h1_classes(cocycles, cobounding_group, module_group=None):
    """Partition the cocycle list by cobounding.

    A class is an orbit of the finite cobounding group K, so the class
    of c is the ``closure`` of its value permutations under one map per
    generator of the ``WeylGroup`` K: its ``generators``, or all of its
    ``perms`` when it has none (``_cobound_steps``; Serre, Galois
    Cohomology, I 5.1).
    An orbit may pass through cocycles that are not in the list; only
    listed ones are reported, which is the partition of the list by
    c ~ c.k for k in K, K being a group.  Tuples of value permutations
    name cocycles exactly (see ``_cobound_steps``).  No matrix is built
    here: the step lists are kept per star action object, which all the
    cocycles of one ``z1_enumerate`` share."""
    cocycles = tuple(cocycles)
    kappas = cobounding_group.generators or cobounding_group.perms
    positions = {}
    for i, c in enumerate(cocycles):
        positions.setdefault(c.value_perms, []).append(i)
    steps = {}
    classes = []
    for c in cocycles:
        if c.value_perms not in positions:
            continue
        maps = steps.get(id(c.star_action))
        if maps is None:
            maps = steps[id(c.star_action)] = _cobound_steps(c.star_action, kappas)
        orbit = closure([c.value_perms], maps)
        classes.append([cocycles[i] for i in sorted(i for p in orbit
                                                      for i in positions.pop(p, ()))])
    return _class_set(module_group, cobounding_group, cocycles, classes)


def _class_set(module_group, cobounding_group, cocycles, parts):
    """The ``CohomologyClassSet`` of the lists of cocycles ``parts``:
    each class sorted by ``StarCocycle.sort_key``, and the classes by
    their least members, which are the representatives."""
    classes = sorted((tuple(sorted(part, key=StarCocycle.sort_key)) for part in parts),
                     key=lambda cls: cls[0].sort_key())
    return CohomologyClassSet(
        module_group=module_group,
        cobounding_group=cobounding_group,
        cocycles=cocycles,
        classes=tuple(classes),
        representatives=tuple(cls[0] for cls in classes),
    )


@record
class H1Report:
    """Z1 of a Galois quotient in the fixed Weyl subgroup, cobounded two
    ways: inside the module itself, and inside the full equivariant
    automorphism group (the image invariant).  ``image_partition`` is
    the pending second partition, called when ``image_classes`` is
    first read, which raises its errors there and keeps its result."""

    module_classes: CohomologyClassSet
    image_partition: object   # () -> CohomologyClassSet

    @cached_property
    def image_classes(self):
        return self.image_partition()

    @property
    def counts(self):
        return (self.module_classes.class_count, self.image_classes.class_count)


def h1_with_image(based, galois_action, gamma_action=None):
    """Enumerate Z1(Galois, fixed Weyl subgroup) for the star action of
    the Galois action, and partition it by cobounding both in the module
    and in the equivariant automorphism group.

    The second partition is made when the report's ``image_classes`` is
    first read: it needs the automorphism group, which
    ``equivariant_automorphism_group`` computes for semisimple data only,
    and the module classes do not.  It joins the module classes under
    D^Gamma (``_join_classes``) rather than closing Z1 again."""
    if gamma_action is not None:
        if not actions_commute(galois_action, gamma_action):
            raise InvalidActionError("Galois and folding actions must commute")
        if not gamma_action.is_based:
            raise InvalidActionError("the folding action must stabilize the base")
        if tuple(sorted(gamma_action.target.base)) != tuple(sorted(based.base)):
            raise InvalidActionError(
                "the folding action stabilizes a different base")
    star_act, _ = star_action(galois_action, based.base)
    if gamma_action is not None:
        module = fixed_weyl(gamma_action)
    else:
        module = weyl_group(based.datum, base=based.base)
    cocycles = z1_enumerate(galois_action.group, star_act, module)
    module_classes = h1_classes(cocycles, module, module_group=module)

    def image_classes():
        auts = equivariant_automorphism_group(based, commuting_with=gamma_action)
        # its generators are those of the module, W^Gamma, then D^Gamma
        diagram = auts.generators[len(module.generators):]
        return _join_classes(module_classes, auts, _cobound_steps(star_act, diagram))
    return H1Report(module_classes, image_classes)


def _join_classes(module_classes, auts, steps):
    """The partition of Z1(Gal, W^Gamma) by Aut^Gamma = W^Gamma x| D^Gamma
    (``auts``), read off its W^Gamma classes ``module_classes``: a
    union-find over the class indices joins class i with the class of
    c_i . d, for c_i the first member of class i and each d of D^Gamma
    whose cobound ``steps`` gives a listed cocycle; one cobound per class
    and map.

    Why this is the partition.  Let L be the listed cocycles, all of
    Z1(Gal, W^Gamma), and write k in Aut^Gamma as k = w d, w in W^Gamma,
    d in D^Gamma.  c.w is in L for c in L (the star images commute with
    Gamma, so they normalize W^Gamma), and c.k = (c.w).d.  For d in
    D^Gamma, (c.d)(s) = (d^-1 c(s) d) . u_s with u_s = d^-1 s*(d):
    the first factor is in W^Gamma, as d normalizes W and commutes with
    Gamma, and u_s stabilizes the base, as d and s* do.  So c.d is
    W-valued exactly when every u_s = 1, the only Weyl element that
    stabilizes the base, whatever c is: the d with c.d in L form one
    subgroup D* of D^Gamma, for every c at once.  Hence the orbit of c
    meets L in the union over d in D* of (c.W^Gamma).d, which is the
    class of c.d, as (c.w).d = (c.d).(d^-1 w d) and d^-1 W^Gamma d =
    W^Gamma (normality; see ``equivariant_automorphism_group``).  So the
    classes of c.d for d in D* are those joined to the class of c, by
    one representative, since any other member c.w gives the same
    classes, and D* is a group, so the joins are already transitive.  A
    d outside D* gives value permutations outside L, which are not
    found: tuples of value permutations name the cocycles on
    semisimple data (see ``_cobound_steps``)."""
    classes = module_classes.classes
    where = {c.value_perms: i for i, members in enumerate(classes) for c in members}
    parent = list(range(len(classes)))

    def find(i):
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    for i, members in enumerate(classes):
        for step in steps:
            j = where.get(step(members[0].value_perms))
            if j is not None:
                parent[find(i)] = find(j)
    joined = {}
    for i, members in enumerate(classes):
        joined.setdefault(find(i), []).extend(members)
    return _class_set(module_classes.module_group, auts, module_classes.cocycles,
                      joined.values())


@record
class TwistedDatum:
    """A based datum with its Galois action replaced by the cocycle
    twist s . x = c(s)(star_s(x))."""

    based: BasedRootDatum
    galois: DatumAction
    gamma: DatumAction
    cocycle: StarCocycle

    @property
    def datum(self):
        return self.based.datum


def twist_datum(based, galois_star, cocycle, gamma_action=None):
    """Twist the base-preserving Galois action by a cocycle valued in
    the fixed Weyl subgroup, returning the datum with its new commuting
    actions.  The base transport of the new action recovers the cocycle
    on the nose.

    The image c(s) . s* has the composed root permutation and the block
    of s*, as every value fixes the annihilator A of the coroots
    pointwise (``StarCocycle.values``); ``DatumAction.build`` checks
    them, and the images are built when a caller reads them.  Every
    check below reads pairs of root permutations and blocks, which name
    the automorphisms (see ``action.DatumAction``).

    ``galois_star`` must be the star action the cocycle was built
    against: equal root permutations and equal blocks.

    The cocycle values are checked to commute with the generator images
    of ``gamma_action``, and so with their products, every image, by
    comparing the value permutations with ``generator_perms``.  Their
    blocks, the identity, commute with every block.

    The transport is walked back for the generators g of the group
    only.  As s* stabilizes the base B, twisted(s)(B) = c(s)(B) for
    every s.  The transport of twisted(g) is the Weyl element w with
    w(B) = c(g)(B); it has the permutation of c(g) exactly when
    c(g) = w is in W (both fix A, and W acts simply transitively on the
    bases).  The twisted action is a homomorphism
    (``DatumAction.build``), so c(gt) = c(g) . g*(c(t)), and
    g* normalizes W: by induction on word length every value is in W
    once the generator values are, and then the transport of
    twisted(s) is c(s) for every s."""
    datum = based.datum
    if not galois_star.is_based:
        raise InvalidActionError("the Galois star action must stabilize the base")
    star = cocycle.star_action
    if galois_star is not star and ((galois_star.root_perms, galois_star.blocks)
                                    != (star.root_perms, star.blocks)):
        raise InvalidActionError("cocycle was built against a different star action")
    if gamma_action is not None and not all(
            compose(v, g) == compose(g, v)
            for v in cocycle.value_perms for g in gamma_action.generator_perms):
        raise InvalidActionError("cocycle values are not fixed by the action")
    twisted = DatumAction.build(
        galois_star.group, list(map(compose, cocycle.value_perms, galois_star.root_perms)),
        galois_star.blocks, datum)
    if gamma_action is not None and not actions_commute(twisted, gamma_action):
        raise AssertionError("twisted action fails to commute with the folding action")
    for s in galois_star.group.generating_set:
        if _transport(based, twisted.root_perms[s]) != cocycle.value_perms[s]:
            raise AssertionError("base transport does not recover the cocycle")
    return TwistedDatum(based, twisted, gamma_action, cocycle)


def equivariant_isomorphic(datum1, actions1, datum2, actions2):
    """Search for a lattice isomorphism datum1 -> datum2 commuting with
    the paired actions; the first one found, or None.

    The candidates are the maps F = m0 o a for the automorphisms a of
    datum1.  m0 is the identity when both sides are one datum, and
    otherwise the first diagram map ``_find_diagram_maps`` meets from
    the held base b1 of datum1 onto the held base b2 of datum2
    (``held_base``); with no such map None is returned before any Weyl
    group is closed.  Each isomorphism F is one candidate, once:
    a = m0^-1 o F is an automorphism of datum1, and a -> m0 o a is one
    to one.  And if some F exists, so does m0: F carries b1 onto a base
    of datum2, which is w(b2) for exactly one Weyl element w of datum2,
    as W(datum2) acts simply transitively on the bases (Bourbaki, Lie
    groups and Lie algebras, VI 1.5), so w^-1 o F carries b1 onto b2
    with the Cartan entries kept.  The lattice checks (integral,
    determinant +-1, roots onto roots, coroots onto the matching
    coroots) run on the diagram maps alone: m0 o a passes them because
    m0 does and a is an automorphism.

    F is equivariant, F o pi1(g) = pi2(g) o F, exactly when
    a o pi1(g) = pi2'(g) o a for the action pi2' = m0^-1 o pi2 o m0 of
    the second group, carried onto datum1.  When some nontrivial paired
    action pi1 is based on datum1 and equals pi2' (compared on the root
    permutations of the generators, which decide, as both are actions
    of one group), every equivariant F has its a in the group
    A = W^Gamma x| D^Gamma of the automorphisms commuting with pi1
    (``_automorphism_factors``), and only A is ranked; W is not closed.
    An ``h1`` pass pairs one Gamma on both sides of one datum, and
    ``isoclass`` two documents that carry it.  Otherwise A is all of
    Aut(datum1) = W x| D(b1).

    The candidates are tried in the order of a key on F alone,
    (sorted F(P), F(base1)), for P and base1 the canonical positive
    system and base of datum1 (``_search_order``).  F(base1) names F, as
    the base spans the characters over Q, so the order is total, the
    same whichever m0 and base list the candidates, and ranking A gives
    the least key over the equivariant F, which all lie in A: every map
    returned is the one the search over all of Aut gives.  Written
    F = w o m, with w in W(datum2) and m a diagram map from base1 onto
    the canonical base base2 of datum2, m(P) = P2, the canonical positive
    system of datum2, as P and P2 are the roots that are nonnegative
    combinations of base1 and base2; so F(P) = w(P2), and the order is W
    by its image of P2 in the order of the sorted index lists, then the
    maps under each w by the images of base1.  When both sides are one
    datum the ranked list is kept on it, under the generator
    permutations of the action whose A it is, or () for all of Aut.

    Equivariance, F o pi1(g) = pi2(g) o F for the root maps of the
    generators g of each paired group, is checked on base1 only, which
    is exact because both data are semisimple: both sides are lattice
    maps datum1 -> datum2, and the base spans the characters over Q, so
    two of them that agree on the base are equal.  The isomorphism
    returned is built from the root map of F alone (``_isomorphism``).

    Before any base, diagram map or Weyl group is looked at, a pair is
    refused when some paired generator g has root permutations pi1(g)
    and pi2(g) of different cycle types (``DatumAction.cycle_types``,
    kept on each action).  That changes
    no answer: an equivariant f induces a bijection F of the roots with
    F o pi1(g) o F^-1 = pi2(g), and conjugate permutations have the same
    cycle type.  So every refused pair has no isomorphism.

    The candidates are as many as the elements of A, and a search with
    more than ``WEYL_BOUND`` raises EnumerationOverflow ("automorphism
    group exceeds ... elements"), as ``equivariant_automorphism_group``
    does for the same group; the listing of D stops as soon as the bound
    is passed (``_diagram_maps``)."""
    for d in (datum1, datum2):
        if not d.is_semisimple:
            raise UnsupportedDatumError(
                "isomorphism search requires semisimple data")
    if len(actions1) != len(actions2):
        raise ValueError("action lists must pair up")
    for a1, a2 in zip(actions1, actions2):
        if a1.group != a2.group:
            raise ValueError("paired actions must share the abstract group")
    if datum1.rank != datum2.rank or len(datum1.roots) != len(datum2.roots):
        return None
    if any(a1.cycle_types != a2.cycle_types for a1, a2 in zip(actions1, actions2)):
        return None
    pairs = [(a1.root_perms[g], a2.root_perms[g])
             for a1, a2 in zip(actions1, actions2) for g in a1.group.generating_set]

    if datum1 is datum2:
        m0 = identity_permutation(len(datum1.roots))
    else:
        m0 = next((m for _, m in _find_diagram_maps(
            *(BasedRootDatum(d, held_base(d)) for d in (datum1, datum2)))), None)
        if m0 is None:
            return None
    # pi1 = m0^-1 o pi2 o m0, compared as m0 o pi1(g) = pi2(g) o m0
    shared = next((a1 for a1, a2 in zip(actions1, actions2)
                   if a1.is_based and a1.datum is datum1 and a1.generator_perms
                   and all(compose(m0, a1.root_perms[g]) == compose(a2.root_perms[g], m0)
                           for g in a1.group.generating_set)), None)
    key = shared.generator_perms if shared is not None else ()
    orders = datum1._search_orders if datum1 is datum2 else {}
    if key not in orders:
        based = shared.target if shared is not None else BasedRootDatum(datum1, held_base(datum1))
        weyl, maps = _automorphism_factors(based, shared)
        moved = [compose(m0, w) for w in weyl.perms]   # m0 o w, once per w
        orders[key] = _search_order(datum1, (compose(mw, d) for d in maps for mw in moved))
    # per pair: F -> (F o pi1(g))(base1), and pi2(g) to read at F(base1)
    base1 = canonical_base(datum1)
    n = len(datum2.roots)
    checks = [(permutation_getter(as_permutation([p1[i] for i in base1], n)), p2)
              for p1, p2 in pairs]
    for f, on_base in orders[key]:
        if all(before(f) == compose(p2, on_base) for before, p2 in checks):
            return _isomorphism(datum1, datum2, f)
    return None


def _search_order(datum1, candidates):
    """The root index maps F of ``candidates`` (maps datum1 -> datum2)
    in the search order of ``equivariant_isomorphic``, as (F, images
    F(base1) of the canonical base of ``datum1``), sorted by
    (sorted F(P), F(base1)) with P the canonical positive system of
    ``datum1``."""
    n = len(datum1.roots)
    on_positive = permutation_getter(as_permutation(sorted(positive_system(datum1)), n))
    on_base = permutation_getter(as_permutation(canonical_base(datum1), n))
    ranked = sorted((sorted(on_positive(f)), on_base(f), f) for f in candidates)
    return tuple((f, image) for _, image, f in ranked)


def _isomorphism(datum1, datum2, f):
    """The lattice isomorphism of semisimple data datum1 -> datum2 that
    sends root i to root f[i], as its character matrix, read off the
    roots (``_matrix_on_roots``)."""
    return DatumAutomorphism(
        _matrix_on_roots(datum1, [datum2.roots[f[i]] for i in datum1._root_basis[0]], ()))
