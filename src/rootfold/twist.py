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
    mat_mul,
    transpose,
)
from .rootdatum import (
    WEYL_BOUND,
    BasedRootDatum,
    DatumAutomorphism,
    base_of,
    canonical_base,
    contragredient,
    positive_systems,
    reflection,
    root_permutation,
    weyl_group,
)

Z1_BOUND = 10 ** 6


def _base_positive_system(based):
    """Indices of roots nonnegative over the base."""
    from .lattice import solve_exact

    datum = based.datum
    cols = transpose(based.simple_roots)
    out = set()
    for i, r in enumerate(datum.roots):
        sol = solve_exact(cols, r)
        if sol is None:
            raise InvalidActionError("base does not span the roots")
        if all(x >= 0 for x in sol):
            out.add(i)
    return frozenset(out)


def base_transport(based, aut):
    """The unique Weyl element w with aut(base) = w(base), found by
    walking the image positive system back with simple reflections."""
    datum = based.datum
    perm = root_permutation(datum, aut)
    if perm is None:
        raise InvalidActionError("map does not permute the roots")
    pos = _base_positive_system(based)
    target = frozenset(perm[i] for i in pos)
    simple_refl = {d: reflection(datum, d) for d in based.base}
    simple_perm = {d: root_permutation(datum, simple_refl[d]) for d in based.base}
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
    w = DatumAutomorphism.identity(datum.rank)
    for d in word:
        w = w * simple_refl[d]
    if {tuple(w.apply(datum.roots[i])) for i in based.base} != {
            tuple(aut.apply(datum.roots[i])) for i in based.base}:
        raise AssertionError("transport element does not carry the base correctly")
    return w


@dataclass(frozen=True)
class StarCocycle:
    """Weyl-valued map on a finite group satisfying the twisted law
    relative to a base-preserving star action."""

    galois: FiniteGroup
    values: tuple  # DatumAutomorphism per element index
    star: tuple    # DatumAutomorphism per element index

    @classmethod
    def build(cls, galois, values, star):
        values = tuple(values)
        star = tuple(star)
        if not values[galois.identity].is_identity():
            raise ValueError("cocycle must send the identity to the identity")
        c = cls(galois, values, star)
        for s in galois.elements():
            for t in galois.elements():
                lhs = values[galois.mul(s, t)]
                rhs = values[s] * c.twist(s, values[t])
                if lhs.on_characters != rhs.on_characters:
                    raise ValueError(
                        f"twisted cocycle law fails at "
                        f"({galois.labels[s]!r}, {galois.labels[t]!r})")
        return c

    def twist(self, element, aut):
        s = self.star[element]
        return s * aut * s.inverse()

    def sort_key(self):
        return tuple(v.on_characters for v in self.values)

    def value_matrices(self):
        return tuple(v.on_characters for v in self.values)


def star_action(action, base):
    """Split an action on a datum into its base-preserving part and the
    Weyl transport cocycle.  A base-stabilizing action comes back
    unchanged with the trivial cocycle."""
    datum = action.datum
    based = BasedRootDatum(datum, tuple(base))
    transports = []
    stars = []
    for aut in action.images:
        c = base_transport(based, aut)
        transports.append(c)
        stars.append(c.inverse() * aut)
    star_act = DatumAction.build(action.group, stars, based)
    cocycle = StarCocycle.build(action.group, transports, tuple(stars))
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
        raw = mat_mul(target, adj)
        if any(x % d0 for row in raw for x in row):
            continue
        m = tuple(tuple(x // d0 for x in row) for row in raw)
        if abs(det(m)) != 1:
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
    ``module`` is a list of automorphisms closed under the star twist.
    Cocycles are determined by generator values and extended through the
    twisted law, then checked on every product; exhaustive and
    deterministic."""
    star = tuple(star)
    module = tuple(module)
    module_mats = {a.on_characters for a in module}
    for s in galois.elements():
        for m in module:
            t = star[s] * m * star[s].inverse()
            if t.on_characters not in module_mats:
                raise ValueError("module is not closed under the star twist")
    gens = galois.generating_set
    if gens and len(module) ** len(gens) > bound:
        raise EnumerationOverflow(
            f"{len(module)}^{len(gens)} generator assignments exceed {bound}")

    def twist(s, aut):
        return star[s] * aut * star[s].inverse()

    n = len(galois)
    ident_aut = DatumAutomorphism.identity(len(star[0].on_characters))
    found = []
    for assignment in product(module, repeat=len(gens)):
        values = {galois.identity: ident_aut}
        ok = True
        frontier = [galois.identity]
        while frontier and ok:
            nxt = []
            for g in frontier:
                for gi, s in enumerate(gens):
                    h = galois.mul(g, s)
                    cand = values[g] * twist(g, assignment[gi])
                    if h in values:
                        if values[h].on_characters != cand.on_characters:
                            ok = False
                            break
                    else:
                        if cand.on_characters not in module_mats:
                            ok = False
                            break
                        values[h] = cand
                        nxt.append(h)
                if not ok:
                    break
            frontier = nxt
        if not ok or len(values) != n:
            continue
        vals = tuple(values[i] for i in range(n))
        for s in range(n):
            for t in range(n):
                lhs = vals[galois.mul(s, t)]
                rhs = vals[s] * twist(s, vals[t])
                if lhs.on_characters != rhs.on_characters:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            found.append(StarCocycle.build(galois, vals, star))
    found.sort(key=lambda c: c.sort_key())
    return tuple(found)


@dataclass(frozen=True)
class CohomologyClassSet:
    """Cocycles partitioned by the cobounding relation
    c ~ (s -> k^-1 . c(s) . s(k)) with k in the cobounding group."""

    module_group: tuple
    cobounding_group: tuple
    cocycles: tuple
    classes: tuple          # tuple of tuples of StarCocycle
    representatives: tuple  # canonically least member per class

    @property
    def class_count(self):
        return len(self.classes)


def cobound(cocycle, kappa):
    """The cocycle s -> kappa^-1 . c(s) . s(kappa)."""
    galois = cocycle.galois
    kinv = kappa.inverse()
    values = []
    for s in galois.elements():
        values.append(kinv * cocycle.values[s] * cocycle.twist(s, kappa))
    return StarCocycle.build(galois, values, cocycle.star)


def h1_classes(cocycles, cobounding_group, module_group=()):
    """Partition the cocycle list by cobounding, by direct orbit
    enumeration of the kappa action."""
    cocycles = tuple(cocycles)
    index = {c.sort_key(): i for i, c in enumerate(cocycles)}
    parent = list(range(len(cocycles)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, c in enumerate(cocycles):
        for kappa in cobounding_group:
            moved = cobound(c, kappa)
            j = index.get(moved.sort_key())
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
        module_group=tuple(module_group),
        cobounding_group=tuple(cobounding_group),
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
        module = tuple(fixed_weyl(gamma_action, bound=bound))
    else:
        module = tuple(weyl_group(based.datum, base=based.base, bound=bound))
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
    first candidate that is unimodular, respects coroots, and is
    equivariant is returned, None if the search exhausts."""
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

    for system in positive_systems(datum2, bound=bound):
        base2 = base_of(datum2, system)
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
            raw = mat_mul(target, adj)
            if any(x % d0 for row in raw for x in row):
                continue
            m = tuple(tuple(x // d0 for x in row) for row in raw)
            if abs(det(m)) != 1:
                continue
            mc = contragredient(m, p1, p2)
            if _is_datum_isomorphism(datum1, datum2, m, mc) and _is_equivariant(
                    m, actions1, actions2):
                return DatumAutomorphism(m, mc)
    return None


def _is_datum_isomorphism(d1, d2, m, mc):
    from .lattice import mat_vec

    for i in range(len(d1.roots)):
        img = mat_vec(m, d1.roots[i])
        j = d2.root_index.get(img)
        if j is None:
            return False
        if mat_vec(mc, d1.coroots[i]) != d2.coroots[j]:
            return False
    return True


def _is_equivariant(m, actions1, actions2):
    for a1, a2 in zip(actions1, actions2):
        for g in a1.group.elements():
            lhs = mat_mul(m, a1.images[g].on_characters)
            rhs = mat_mul(a2.images[g].on_characters, m)
            if lhs != rhs:
                return False
    return True
