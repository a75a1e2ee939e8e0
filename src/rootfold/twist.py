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

from dataclasses import dataclass
from itertools import permutations, product

from .action import DatumAction, FiniteGroup, actions_commute, fixed_weyl
from .errors import EnumerationOverflow, InvalidActionError, UnsupportedDatumError
from .lattice import (
    adjugate_and_det,
    det,
    exact_quotient,
    mat_mul,
    mat_vec,
    transpose,
)
from .rootdatum import (
    WEYL_BOUND,
    BasedRootDatum,
    DatumAutomorphism,
    RootDatum,
    WeylGroup,
    _automorphisms_from_permutations,
    _invert_permutation,
    canonical_base,
    closure,
    contragredient,
    permutation_getter,
    reflection,
    reflection_permutation,
    root_permutation,
    system_bases,
    weyl_group,
)

Z1_BOUND = 10 ** 6


def base_transport(based, aut):
    """The unique Weyl element w with aut(base) = w(base)."""
    return _transport(based, aut, root_permutation(based.datum, aut))[1]


def _transport(based, aut, perm):
    """(word, w, w's root permutation) for the unique Weyl element w with
    aut(base) = w(base), where ``perm`` is the root permutation of aut.
    w is found by walking the image positive system back with simple
    reflections: w = s_1 ... s_k for the base indices in ``word``, in
    order, and its permutation is the composite of theirs.  Simple
    reflections are involutions, so the reversed word multiplies out to
    w^-1."""
    datum = based.datum
    if perm is None:
        raise InvalidActionError("map does not permute the roots")
    pos = based.positive_system
    target = frozenset(perm[i] for i in pos)
    simple_perm = {d: reflection_permutation(datum, d) for d in based.base}
    neg_of = {d: datum.index_of(tuple(-x for x in datum.roots[d])) for d in based.base}

    current = target
    word = []
    guard = len(datum.roots) + 1
    while current != pos:
        step = next((d for d in based.base if neg_of[d] in current), None)
        if step is None:
            raise InvalidActionError("image of the base is not a base of the roots")
        current = frozenset(simple_perm[step][i] for i in current)
        word.append(step)
        guard -= 1
        if guard < 0:
            raise InvalidActionError("base transport did not terminate")
    w = _word_product(datum, word)
    if {tuple(w.apply(datum.roots[i])) for i in based.base} != {
            tuple(aut.apply(datum.roots[i])) for i in based.base}:
        raise AssertionError("transport element does not carry the base correctly")
    w_perm = tuple(range(len(datum.roots)))
    for d in word:
        w_perm = permutation_getter(simple_perm[d])(w_perm)
    return word, w, w_perm


def _word_product(datum, word):
    """The product of the reflections in the indexed roots, in order."""
    refl = {d: reflection(datum, d) for d in set(word)}
    w = DatumAutomorphism.identity(datum.rank)
    for d in word:
        w = w * refl[d]
    return w


def _conjugation(q):
    """p -> q o p o q^-1 on root permutations.  When q is the
    permutation of a datum automorphism g and p that of a Weyl element
    w, the result is the permutation of g w g^-1, again a Weyl element
    (g s_a g^-1 = s_{g(a)})."""
    after = permutation_getter(_invert_permutation(q))
    return lambda p: after(permutation_getter(p)(q))


def _check_twisted_law(galois, value_perms, star_perms):
    """Raise ValueError unless c(st) = c(s) . s*(c(t)) on every pair,
    compared on root permutations (see ``StarCocycle``)."""
    for s in galois.elements():
        twist = _conjugation(star_perms[s])
        after_s = value_perms[s]
        for t in galois.elements():
            rhs = permutation_getter(twist(value_perms[t]))(after_s)
            if value_perms[galois.mul(s, t)] != rhs:
                raise ValueError(
                    f"twisted cocycle law fails at "
                    f"({galois.labels[s]!r}, {galois.labels[t]!r})")


@dataclass(frozen=True)
class StarCocycle:
    """Weyl-valued map on a finite group satisfying the twisted law
    c(st) = c(s) . s*(c(t)) relative to a base-preserving star action,
    where s*(w) = s* w s*^-1.

    The law is checked on root permutations, which is exact: the
    values are Weyl elements, and W acts faithfully on the roots (see
    ``verify_axioms``); s*(w) is a Weyl element whose permutation is
    q o p o q^-1 for q, p the permutations of s* and w.  (``cobound``
    by a kappa outside W can give values outside W; they still fix the
    annihilator of the coroots pointwise, which is all the argument
    needs, see ``_cobounders``.)  The permutations of the values and of
    the star images are kept next to the matrices."""

    galois: FiniteGroup
    datum: RootDatum     # the datum values and star images act on
    values: tuple        # DatumAutomorphism per element index
    star: tuple          # DatumAutomorphism per element index
    value_perms: tuple   # root permutation of each value
    star_perms: tuple    # root permutation of each star image

    @classmethod
    def build(cls, galois, datum, values, star, value_perms, star_perms):
        """Validate and construct from the automorphisms and their root
        permutations."""
        value_perms = tuple(value_perms)
        if value_perms[galois.identity] != tuple(range(len(datum.roots))):
            raise ValueError("cocycle must send the identity to the identity")
        _check_twisted_law(galois, value_perms, star_perms)
        return cls(galois, datum, tuple(values), tuple(star), value_perms,
                   tuple(star_perms))

    def twist(self, element, aut):
        s = self.star[element]
        return s * aut * s.inverse()

    def sort_key(self):
        return tuple(v.on_characters for v in self.values)

    def value_matrices(self):
        return tuple(v.on_characters for v in self.values)


def _permutation(datum, aut):
    perm = root_permutation(datum, aut)
    if perm is None:
        raise ValueError("map does not permute the roots")
    return perm


def _cocycles_from_permutations(galois, datum, star, star_perms, found):
    """StarCocycles for the value permutations in ``found``, with the
    matrices of all their values built in one pass."""
    distinct = sorted({p for perms in found for p in perms})
    auts = dict(zip(distinct, _automorphisms_from_permutations(datum, distinct)))
    return [StarCocycle.build(galois, datum, [auts[p] for p in perms], star,
                              perms, star_perms)
            for perms in found]


def star_action(action, base):
    """Split an action on a datum into its base-preserving part and the
    Weyl transport cocycle.  A base-stabilizing action comes back
    unchanged with the trivial cocycle."""
    datum = action.datum
    based = BasedRootDatum(datum, tuple(base))
    transports = []
    transport_perms = []
    stars = []
    for aut, perm in zip(action.images, action.root_perms):
        word, c, c_perm = _transport(based, aut, perm)
        transports.append(c)
        transport_perms.append(c_perm)
        stars.append(_word_product(datum, word[::-1]) * aut)
    star_act = DatumAction.build(action.group, stars, based)
    cocycle = StarCocycle.build(
        action.group, datum, transports, stars, transport_perms,
        star_act.root_perms)
    return star_act, cocycle


def equivariant_automorphism_group(based, commuting_with=None, bound=WEYL_BOUND):
    """All datum automorphisms commuting with the given action, computed
    as Weyl elements times Cartan-preserving base permutations that are
    integral on both lattices.  Requires a semisimple datum."""
    datum = based.datum
    if not datum.is_semisimple:
        raise UnsupportedDatumError(
            "automorphism groups are only computed for semisimple data")
    w = weyl_group(datum, base=based.base, bound=bound)
    diagram = _base_preserving_automorphisms(based)
    gamma_images = []
    if commuting_with is not None:
        gamma_images = [a for a in commuting_with.images if not a.is_identity()]
    out = {}
    for wa in w:
        for d in diagram:
            cand = wa * d
            m = cand.on_characters
            if m in out:
                continue
            if all(mat_mul(g.on_characters, m) == mat_mul(m, g.on_characters)
                   for g in gamma_images):
                out[m] = cand
    return tuple(sorted(out.values(), key=lambda a: a.sort_key()))


def _base_preserving_automorphisms(based):
    """Automorphisms permuting the base itself (the diagram symmetries
    that are integral on the realization)."""
    datum = based.datum
    k = len(based.base)
    cartan = based.cartan_matrix()
    cols = transpose(based.simple_roots)
    adj, d0 = adjugate_and_det(cols)
    out = []
    for perm in permutations(range(k)):
        if any(cartan[perm[i]][perm[j]] != cartan[i][j]
               for i in range(k) for j in range(k)):
            continue
        target = transpose(tuple(based.simple_roots[perm[j]] for j in range(k)))
        m = exact_quotient(mat_mul(target, adj), d0)
        if m is None or abs(det(m)) != 1:
            continue
        aut = DatumAutomorphism.from_matrix(
            m, None if datum.has_standard_pairing else datum.pairing_matrix)
        if root_permutation(datum, aut) is None:
            continue
        out.append(aut)
    return out


def z1_enumerate(galois, star, module, bound=Z1_BOUND):
    """All twisted cocycles on the group valued in the module.

    ``star`` maps element index to the star-action automorphism;
    ``module`` is a WeylGroup (a subgroup of W) closed under the star
    twist.  Cocycles are determined by generator values; every
    assignment of module elements to the generators is tried, which is
    exhaustive and deterministic.

    A cocycle is a homomorphic section g -> (c(g), g) of W x| Gal, with
    (v, g)(w, h) = (v . g*(w), gh).  Each assignment s -> a_s is closed
    from (1, e) under (v, g) -> (v . g*(a_s), g s), which gives the
    subgroup H the pairs (a_s, s) generate; the assignment extends to a
    cocycle exactly when H is the graph of a map (see ``make_action``).
    H maps onto Gal, so it is a graph unless the closure passes |Gal|.
    ``StarCocycle.build`` checks the law again on every cocycle returned.

    Everything runs on the stored root permutations of the module,
    exactly: the values are Weyl elements, so each is determined by its
    permutation (W acts faithfully on the roots, see ``verify_axioms``),
    and s*(w) = s* w s*^-1 has the permutation q o p o q^-1.  Matrices
    are built only for the values of the cocycles returned."""
    datum = module.datum
    star = tuple(star)
    star_perms = tuple(_permutation(datum, s) for s in star)
    members = frozenset(module.perms)
    twisted = []
    for q in star_perms:
        conj = _conjugation(q)
        table = {p: conj(p) for p in module.perms}
        if not members.issuperset(table.values()):
            raise ValueError("module is not closed under the star twist")
        twisted.append(table)
    gens = galois.generating_set
    if gens and len(module) ** len(gens) > bound:
        raise EnumerationOverflow(
            f"{len(module)}^{len(gens)} generator assignments exceed {bound}")

    n = len(galois)
    seed = [(galois.identity, tuple(range(len(datum.roots))))]

    def times(s, a):
        return lambda pair: (galois.mul(pair[0], s),
                             permutation_getter(twisted[pair[0]][a])(pair[1]))

    found = []
    for assignment in product(module.perms, repeat=len(gens)):
        steps = [times(s, a) for s, a in zip(gens, assignment)]
        try:
            values = dict(closure(seed, steps, n))
        except EnumerationOverflow:
            continue
        if members.issuperset(values.values()):
            found.append(tuple(values[i] for i in range(n)))
    cocycles = _cocycles_from_permutations(galois, datum, star, star_perms, found)
    cocycles.sort(key=lambda c: c.sort_key())
    return tuple(cocycles)


@dataclass(frozen=True)
class CohomologyClassSet:
    """Cocycles partitioned by the cobounding relation
    c ~ (s -> k^-1 . c(s) . s(k)) with k in the cobounding group."""

    module_group: object      # WeylGroup or tuple of DatumAutomorphism
    cobounding_group: object  # WeylGroup or tuple of DatumAutomorphism
    cocycles: tuple
    classes: tuple          # tuple of tuples of StarCocycle
    representatives: tuple  # canonically least member per class

    @property
    def class_count(self):
        return len(self.classes)


def _cobounders(cocycle, cobounding_group):
    """(permutation of k^-1, getters composing with s*(k) per element s)
    for each k of the cobounding group whose coboundaries can be
    W-valued, in the order of the group.

    For k outside W write k^-1 c(s) s*(k) = (k^-1 c(s) k) (k^-1 s*(k)).
    The first factor is a Weyl element.  If the product is one too, so
    is u = k^-1 s*(k), and u fixes the annihilator A of the coroots
    pointwise.  Conversely, when u fixes A the product fixes A, and an
    automorphism fixing A is determined by its root permutation, the
    characters being span(roots) + A over Q.  As s* maps A onto itself
    (it permutes the coroots), u fixes A exactly when s* k = k s* on a
    basis of A.  So k is kept when that holds for every s (always on
    semisimple data, where A = 0, and for every k in W), and its
    coboundaries are then compared on permutations without loss."""
    datum = cocycle.datum
    if isinstance(cobounding_group, WeylGroup):
        kappas = cobounding_group.perms
    else:
        annihilator = datum.coroot_annihilator
        kappas = [_permutation(datum, k) for k in cobounding_group
                  if all(s.apply(k.apply(z)) == k.apply(s.apply(z))
                         for s in cocycle.star for z in annihilator)]
    conjugations = [_conjugation(q) for q in cocycle.star_perms]
    return [(_invert_permutation(k),
             tuple(permutation_getter(conj(k)) for conj in conjugations))
            for k in kappas]


def _cobound_permutations(cocycle, kinv, after):
    """Value permutations of s -> k^-1 . c(s) . s*(k), checked against
    the twisted law; ``kinv`` and ``after`` come from _cobounders."""
    perms = tuple(right(permutation_getter(v)(kinv))
                  for v, right in zip(cocycle.value_perms, after))
    _check_twisted_law(cocycle.galois, perms, cocycle.star_perms)
    return perms


def cobound(cocycle, kappa):
    """The cocycle s -> kappa^-1 . c(s) . s*(kappa), computed on root
    permutations (see ``_cobounders``).  Raises ValueError when
    kappa^-1 s*(kappa) moves the annihilator of the coroots, so that
    the values are not determined by their permutations."""
    movers = _cobounders(cocycle, (kappa,))
    if not movers:
        raise ValueError("kappa^-1 s*(kappa) moves the annihilator of the coroots")
    perms = _cobound_permutations(cocycle, *movers[0])
    return _cocycles_from_permutations(cocycle.galois, cocycle.datum,
                                       cocycle.star, cocycle.star_perms,
                                       [perms])[0]


def h1_classes(cocycles, cobounding_group, module_group=()):
    """Partition the cocycle list by cobounding, by direct orbit
    enumeration of the kappa action.

    Each kappa becomes a root permutation once, and cobounded cocycles
    are compared by the tuples of their value permutations, which is
    exact (see ``_cobounders``); every cobounded cocycle is checked
    against the twisted law.  No matrix is built here."""
    cocycles = tuple(cocycles)
    if not isinstance(cobounding_group, WeylGroup):
        cobounding_group = tuple(cobounding_group)
    if not isinstance(module_group, WeylGroup):
        module_group = tuple(module_group)
    index = {c.value_perms: i for i, c in enumerate(cocycles)}
    parent = list(range(len(cocycles)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    movers = {}
    for i, c in enumerate(cocycles):
        key = (c.galois, c.star)
        if key not in movers:
            movers[key] = _cobounders(c, cobounding_group)
        for kinv, after in movers[key]:
            j = index.get(_cobound_permutations(c, kinv, after))
            if j is not None:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups = {}
    for i in range(len(cocycles)):
        groups.setdefault(find(i), []).append(i)
    classes = []
    for members in groups.values():
        cls = tuple(sorted((cocycles[i] for i in members), key=lambda c: c.sort_key()))
        classes.append(cls)
    classes.sort(key=lambda cls: cls[0].sort_key())
    return CohomologyClassSet(
        module_group=module_group,
        cobounding_group=cobounding_group,
        cocycles=cocycles,
        classes=tuple(classes),
        representatives=tuple(cls[0] for cls in classes),
    )


@dataclass(frozen=True)
class H1Report:
    """Z1 of a Galois quotient in the fixed Weyl subgroup, cobounded two
    ways: inside the module itself, and inside the full equivariant
    automorphism group (the image invariant)."""

    module_classes: CohomologyClassSet
    image_classes: CohomologyClassSet

    @property
    def counts(self):
        return (self.module_classes.class_count, self.image_classes.class_count)


def h1_with_image(based, galois_action, gamma_action=None, bound=WEYL_BOUND,
                  z1_bound=Z1_BOUND):
    """Enumerate Z1(Galois, fixed Weyl subgroup) for the star action of
    the Galois action, and partition it by cobounding both in the module
    and in the equivariant automorphism group."""
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
        module = fixed_weyl(gamma_action, bound=bound)
    else:
        module = weyl_group(based.datum, base=based.base, bound=bound)
    cocycles = z1_enumerate(galois_action.group, star_act.images, module,
                            bound=z1_bound)
    module_set = h1_classes(cocycles, module, module_group=module)
    auts = equivariant_automorphism_group(based, commuting_with=gamma_action,
                                          bound=bound)
    image_set = h1_classes(cocycles, auts, module_group=module)
    return H1Report(module_set, image_set)


@dataclass(frozen=True)
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
    on the nose."""
    datum = based.datum
    if not galois_star.is_based:
        raise InvalidActionError("the Galois star action must stabilize the base")
    for i, s in enumerate(galois_star.images):
        if s.on_characters != cocycle.star[i].on_characters:
            raise InvalidActionError("cocycle was built against a different star action")
    if gamma_action is not None:
        for v in cocycle.values:
            for g in gamma_action.images:
                if mat_mul(v.on_characters, g.on_characters) != mat_mul(
                        g.on_characters, v.on_characters):
                    raise InvalidActionError("cocycle values are not fixed by the action")
    new_images = [cocycle.values[s] * galois_star.images[s]
                  for s in galois_star.group.elements()]
    twisted = DatumAction.build(galois_star.group, new_images, datum)
    if gamma_action is not None and not actions_commute(twisted, gamma_action):
        raise AssertionError("twisted action fails to commute with the folding action")
    for s in galois_star.group.elements():
        recovered = base_transport(based, twisted.images[s])
        if recovered.on_characters != cocycle.values[s].on_characters:
            raise AssertionError("base transport does not recover the cocycle")
    return TwistedDatum(based, twisted, gamma_action, cocycle)


def equivariant_isomorphic(datum1, actions1, datum2, actions2, bound=WEYL_BOUND):
    """Search for a lattice isomorphism datum1 -> datum2 commuting with
    the paired actions.  Candidates run over every base of datum2 and
    every Cartan-preserving matching with a fixed base of datum1; the
    first candidate that is unimodular, equivariant, maps roots to roots
    and maps coroots to the matching coroots is returned, None if the
    search exhausts.  The checks are conjunctive, so their order does
    not change the answer: the cheap equivariance check, which rejects
    most candidates, runs first, and the contragredient, a matrix
    inverse, is computed only for candidates that pass the first
    three."""
    for d in (datum1, datum2):
        if not d.is_semisimple:
            raise UnsupportedDatumError(
                "isomorphism search requires semisimple data")
    if len(actions1) != len(actions2):
        raise ValueError("action lists must pair up")
    for a1, a2 in zip(actions1, actions2):
        if a1.group.labels != a2.group.labels or a1.group.table != a2.group.table:
            raise ValueError("paired actions must share the abstract group")
    if datum1.rank != datum2.rank or len(datum1.roots) != len(datum2.roots):
        return None

    base1 = canonical_base(datum1)
    k = len(base1)
    c1 = tuple(
        tuple(datum1.pair(datum1.roots[i], datum1.coroots[j]) for j in base1)
        for i in base1
    )
    cols1 = transpose(tuple(datum1.roots[i] for i in base1))
    adj, d0 = adjugate_and_det(cols1)
    p1 = None if datum1.has_standard_pairing else datum1.pairing_matrix
    p2 = None if datum2.has_standard_pairing else datum2.pairing_matrix

    bases = system_bases(datum2, bound=bound)
    for system in sorted(bases, key=sorted):
        base2 = bases[system]
        if len(base2) != k:
            continue
        c2 = tuple(
            tuple(datum2.pair(datum2.roots[i], datum2.coroots[j]) for j in base2)
            for i in base2
        )
        for perm in permutations(range(k)):
            if any(c2[perm[i]][perm[j]] != c1[i][j]
                   for i in range(k) for j in range(k)):
                continue
            target = transpose(tuple(datum2.roots[base2[perm[j]]] for j in range(k)))
            m = exact_quotient(mat_mul(target, adj), d0)
            if m is None or abs(det(m)) != 1:
                continue
            if not _is_equivariant(m, actions1, actions2):
                continue
            images = _root_images(datum1, datum2, m)
            if images is None:
                continue
            mc = contragredient(m, p1, p2)
            if all(mat_vec(mc, datum1.coroots[i]) == datum2.coroots[j]
                   for i, j in enumerate(images)):
                return DatumAutomorphism(m, mc)
    return None


def _root_images(d1, d2, m):
    """Indices in d2 of the images of the roots of d1 under m, or None
    if some image is not a root."""
    images = []
    for r in d1.roots:
        j = d2.root_index.get(mat_vec(m, r))
        if j is None:
            return None
        images.append(j)
    return images


def _is_equivariant(m, actions1, actions2):
    """m a1(g) = a2(g) m for every paired action and every g.  Both
    actions are homomorphisms of the same group, so if the identity
    holds for g and h it holds for gh; checking generators suffices."""
    for a1, a2 in zip(actions1, actions2):
        for g in a1.group.generating_set:
            lhs = mat_mul(m, a1.images[g].on_characters)
            rhs = mat_mul(a2.images[g].on_characters, m)
            if lhs != rhs:
                return False
    return True
