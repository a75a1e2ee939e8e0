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

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations
from operator import itemgetter

from .errors import EnumerationOverflow, InvalidActionError, UnknownTypeError
from .lattice import (
    adjugate_and_det,
    det,
    dot,
    exact_quotient,
    identity_matrix,
    integer_kernel,
    mat_mul,
    mat_vec,
    solve_exact,
    span_rank,
    transpose,
    unimodular_inverse,
    vec_add,
    vec_neg,
)

WEYL_BOUND = 10 ** 6


def contragredient(matrix, pairing=None, target_pairing=None):
    """The induced map on the cocharacter side: the unique A' with
    <A x, A' y>' = <x, y>, where <,> is the source pairing ``pairing``
    and <,>' the target pairing ``target_pairing`` (None stands for the
    standard dot product).  That is A' = P'^-1 A^-T P; for the standard
    pairing on both sides it is the inverse transpose."""
    out = transpose(unimodular_inverse(matrix))
    if pairing is not None:
        out = mat_mul(out, pairing)
    if target_pairing is not None:
        out = mat_mul(unimodular_inverse(target_pairing), out)
    return out


@dataclass(frozen=True)
class DatumAutomorphism:
    """A unimodular matrix on the character lattice together with its
    contragredient on the cocharacter lattice."""

    on_characters: tuple
    on_cocharacters: tuple

    @classmethod
    def identity(cls, rank):
        ident = identity_matrix(rank)
        return cls(ident, ident)

    @classmethod
    def from_matrix(cls, matrix, pairing=None):
        return cls(matrix, contragredient(matrix, pairing, pairing))

    def __mul__(self, other):
        return DatumAutomorphism(
            mat_mul(self.on_characters, other.on_characters),
            mat_mul(self.on_cocharacters, other.on_cocharacters),
        )

    def inverse(self):
        return DatumAutomorphism(
            unimodular_inverse(self.on_characters),
            unimodular_inverse(self.on_cocharacters),
        )

    def apply(self, v):
        return mat_vec(self.on_characters, v)

    def apply_cochar(self, v):
        return mat_vec(self.on_cocharacters, v)

    def sort_key(self):
        return self.on_characters

    def is_identity(self):
        n = len(self.on_characters)
        return self.on_characters == identity_matrix(n)


@dataclass(frozen=True)
class RootDatum:
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
        return bool(self.roots) and span_rank(self.roots) == self.rank

    @cached_property
    def coroot_annihilator(self):
        """A basis of the characters pairing to zero with every coroot;
        empty on semisimple data.  Every Weyl element fixes it
        pointwise, and the characters are the direct sum of its span and
        the span of the roots (see ``verify_axioms``)."""
        if self.is_semisimple:
            return ()
        rows = tuple(self.coroots if self.has_standard_pairing else
                     (mat_vec(self.pairing_matrix, c) for c in self.coroots))
        return integer_kernel(rows, cols=self.rank)

    def cartan_entry(self, i, j):
        return self.pair(self.roots[i], self.coroots[j])

    @cached_property
    def _reflection_perms(self):
        # filled by ``reflection_permutation``, one entry per root index
        return {}


@dataclass(frozen=True)
class BasedRootDatum:
    datum: RootDatum
    base: tuple

    @property
    def simple_roots(self):
        return tuple(self.datum.roots[i] for i in self.base)

    @property
    def simple_coroots(self):
        return tuple(self.datum.coroots[i] for i in self.base)

    @cached_property
    def positive_system(self):
        """Indices of the roots that are nonnegative over the base."""
        cols = transpose(self.simple_roots)
        out = set()
        for i, r in enumerate(self.datum.roots):
            sol = solve_exact(cols, r)
            if sol is None:
                raise InvalidActionError("base does not span the roots")
            if all(x >= 0 for x in sol[0]):
                out.add(i)
        return frozenset(out)

    def cartan_matrix(self):
        d = self.datum
        return tuple(
            tuple(d.pair(d.roots[i], d.coroots[j]) for j in self.base)
            for i in self.base
        )


class WeylGroup:
    """A finite group of datum automorphisms, stored as root permutations.

    The Weyl group of a root datum acts faithfully on its roots
    (``verify_axioms`` proves it), so the permutation of the root
    indices names an element; ``perms`` lists them in closure order and
    ``len`` is known at once.  ``generators`` holds the permutations the
    group was closed from, when it was built as a closure.  The
    automorphisms themselves, and the canonical order sorting them by
    character matrix, are built on first use of ``elements``, iteration,
    ``index``, ``in`` or ``element_with_matrix``; ``sorted_perms`` lists
    the permutations in that canonical order."""

    def __init__(self, datum, perms, generators=()):
        self.datum = datum
        self.perms = tuple(perms)
        self.order = len(self.perms)
        self.generators = tuple(generators)

    @cached_property
    def _canonical(self):
        auts = _automorphisms_from_permutations(self.datum, self.perms)
        ranked = sorted(zip(auts, self.perms), key=lambda e: e[0].on_characters)
        return tuple(a for a, _ in ranked), tuple(p for _, p in ranked)

    @property
    def elements(self):
        return self._canonical[0]

    @property
    def sorted_perms(self):
        return self._canonical[1]

    @cached_property
    def _position(self):
        return {a.on_characters: i for i, a in enumerate(self.elements)}

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return self.order

    def __contains__(self, aut):
        return aut.on_characters in self._position

    def index(self, aut):
        return self._position[aut.on_characters]

    def element_with_matrix(self, matrix):
        i = self._position.get(matrix)
        return None if i is None else self.elements[i]


def reflection(datum, root_index):
    """The reflection through the indexed root, as a datum automorphism:
    x -> x - <x, coroot> root on characters, and the mirror formula on
    cocharacters."""
    n = datum.rank
    beta = datum.roots[root_index]
    cov = datum.coroots[root_index]
    p_cov = mat_vec(datum.pairing_matrix, cov)
    on_char = tuple(
        tuple(int(i == j) - beta[i] * p_cov[j] for j in range(n)) for i in range(n)
    )
    p_beta = mat_vec(transpose(datum.pairing_matrix), beta)
    on_cochar = tuple(
        tuple(int(i == j) - cov[i] * p_beta[j] for j in range(n)) for i in range(n)
    )
    return DatumAutomorphism(on_char, on_cochar)


def root_permutation(datum, aut):
    """aut as a permutation of root indices; None if it does not permute
    the roots compatibly with coroots."""
    perm = []
    for i in range(len(datum.roots)):
        img = aut.apply(datum.roots[i])
        j = datum.root_index.get(img)
        if j is None:
            return None
        if aut.apply_cochar(datum.coroots[i]) != datum.coroots[j]:
            return None
        perm.append(j)
    if len(set(perm)) != len(perm):
        return None
    return tuple(perm)


def reflection_permutation(datum, k):
    """The root permutation of the reflection in root k, or None if it
    does not permute the roots compatibly with the coroots: the contract
    of ``root_permutation(datum, reflection(datum, k))``, read off the
    pairing without building a matrix.  s_k sends root a_i to
    a_i - <a_i, c_k> a_k and coroot c_i to c_i - <a_k, c_i> c_k.
    Cached on the datum instance."""
    cache = datum._reflection_perms
    if k not in cache:
        cache[k] = _reflection_permutation(datum, k)
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
    return tuple(perm)


def permutation_getter(indices):
    """The map s -> tuple(s[i] for i in indices), run in C by
    ``operator.itemgetter``.  On root permutations, permutation_getter(q)
    sends p to the composite p o q (first q, then p)."""
    if len(indices) > 1:
        return itemgetter(*indices)
    return lambda s: tuple(s[i] for i in indices)


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
    rs = set(datum.roots)
    return not any(tuple(2 * x for x in r) in rs for r in datum.roots)


def _automorphisms_from_permutations(datum, perms):
    """The datum automorphisms inducing the given permutations of the
    roots; each must be induced by an automorphism that fixes the
    annihilator of the coroots pointwise, as every Weyl element does.

    With r_i independent roots and z_j a basis of that annihilator,
    [r_i | z_j] is invertible (see ``verify_axioms``), so the character
    matrix is [w r_i | z_j] [r_i | z_j]^-1, computed with the adjugate
    and one exact division.  The cocharacter matrix is the
    contragredient, read off the matrix of the inverse permutation."""
    n = datum.rank
    chosen = []
    for i, r in enumerate(datum.roots):
        if span_rank([datum.roots[j] for j in chosen] + [r]) > len(chosen):
            chosen.append(i)
        if len(chosen) == n:
            break
    fixed = list(datum.coroot_annihilator) if len(chosen) < n else []
    basis = [datum.roots[i] for i in chosen] + fixed
    adj, d = adjugate_and_det(transpose(tuple(basis)))
    inverse = {p: _invert_permutation(p) for p in perms}
    mats = {}
    for p in set(perms) | set(inverse.values()):
        images = [datum.roots[p[i]] for i in chosen] + fixed
        mats[p] = exact_quotient(mat_mul(transpose(tuple(images)), adj), d)
        if mats[p] is None:
            raise AssertionError(
                "root permutation is not induced by a lattice automorphism")
    if datum.has_standard_pairing:
        pairing = p_inv = None
    else:
        pairing = datum.pairing_matrix
        p_inv = unimodular_inverse(pairing)
    out = []
    for p in perms:
        m_inv_t = transpose(mats[inverse[p]])
        cochar = m_inv_t if pairing is None else mat_mul(p_inv, mat_mul(m_inv_t, pairing))
        out.append(DatumAutomorphism(mats[p], cochar))
    return out


def _invert_permutation(p):
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


def weyl_group(datum, base=None, bound=WEYL_BOUND):
    """Breadth-first closure of the simple reflection permutations of
    ``base`` (by default the canonical base), which generate W; no
    matrix is built until the caller asks for one.  Raises
    EnumerationOverflow beyond ``bound`` elements."""
    if base is None:
        base = canonical_base(datum)
    gens = [reflection_permutation(datum, i) for i in base]
    if None in gens:
        raise AssertionError("reflection does not permute the roots")
    ident = tuple(range(len(datum.roots)))
    perms = closure([ident], [permutation_getter(p) for p in gens], bound,
                    "reflection group")
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
    identity."""
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


def verify_base(based):
    """Check the base axioms; returns a list of violations."""
    datum = based.datum
    base = based.base
    problems = []
    simples = [datum.roots[i] for i in base]
    if span_rank(simples) != len(simples):
        problems.append("base roots are not linearly independent")
        return problems
    cols = transpose(tuple(simples))
    for i, r in enumerate(datum.roots):
        # the simples are independent, so cols has full column rank and
        # solve_exact cannot raise
        sol = solve_exact(cols, r)
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
    generic functional."""
    v = _generic_functional(datum)
    return frozenset(i for i, r in enumerate(datum.roots) if datum.pair(r, v) > 0)


def positive_systems(datum, bound=WEYL_BOUND):
    """All positive systems, as Weyl translates of the canonical one."""
    w = weyl_group(datum, bound=bound)
    translate = permutation_getter(sorted(positive_system(datum)))
    systems = {frozenset(translate(p)) for p in w.perms}
    return tuple(sorted(systems, key=sorted))


def system_bases(datum, bound=WEYL_BOUND):
    """{positive system: its base} for every positive system, as Weyl
    translates of the canonical system and its base.  A Weyl element
    permutes the roots linearly, so it carries the indecomposable
    elements of a positive system P onto those of w(P)."""
    w = weyl_group(datum, bound=bound)
    system = positive_system(datum)
    translate = permutation_getter(sorted(system))
    simple = permutation_getter(base_of(datum, system))
    return {frozenset(translate(p)): tuple(sorted(simple(p))) for p in w.perms}


def base_of(datum, system):
    """Indecomposable elements of a positive system."""
    sums = {vec_add(datum.roots[j], datum.roots[k]) for j in system for k in system}
    return tuple(i for i in sorted(system) if datum.roots[i] not in sums)


def canonical_base(datum):
    return base_of(datum, positive_system(datum))


def is_positive_system(datum, system):
    """Partition plus closure characterization, exact at desk scale:
    S and -S partition the roots and S is closed under root addition."""
    system = frozenset(system)
    neg = frozenset(datum.index_of(vec_neg(datum.roots[i])) for i in system)
    if system & neg:
        return False
    if len(system) + len(neg) != len(datum.roots):
        return False
    for i in system:
        for j in system:
            s = vec_add(datum.roots[i], datum.roots[j])
            k = datum.root_index.get(s)
            if k is not None and k not in system:
                return False
    return True


# ---------------------------------------------------------------------------
# construction from Cartan types


def _chain_cartan(rank):
    c = [[2 * int(i == j) for j in range(rank)] for i in range(rank)]
    for i in range(rank - 1):
        c[i][i + 1] = -1
        c[i + 1][i] = -1
    return c


def cartan_matrix(letter, rank):
    if letter == "A":
        if rank < 1:
            raise UnknownTypeError(f"A{rank} is not supported")
        return tuple(tuple(r) for r in _chain_cartan(rank))
    if letter == "B":
        if rank < 2:
            raise UnknownTypeError(f"B{rank} is not supported")
        c = _chain_cartan(rank)
        c[rank - 2][rank - 1] = -2
        return tuple(tuple(r) for r in c)
    if letter == "C":
        if rank < 2:
            raise UnknownTypeError(f"C{rank} is not supported")
        c = _chain_cartan(rank)
        c[rank - 1][rank - 2] = -2
        return tuple(tuple(r) for r in c)
    if letter == "D":
        if rank < 3:
            raise UnknownTypeError(f"D{rank} is not supported")
        c = [[2 * int(i == j) for j in range(rank)] for i in range(rank)]
        for i in range(rank - 2):
            c[i][i + 1] = -1
            c[i + 1][i] = -1
        c[rank - 3][rank - 1] = -1
        c[rank - 1][rank - 3] = -1
        return tuple(tuple(r) for r in c)
    if letter == "E":
        if rank not in (6, 7, 8):
            raise UnknownTypeError(f"E{rank} is not supported")
        c = [[2 * int(i == j) for j in range(rank)] for i in range(rank)]
        # Bourbaki: chain 1-3-4-5-6(-7-8), node 2 hangs off node 4
        chain = [0, 2, 3, 4, 5, 6, 7][: rank - 1]
        for a, b in zip(chain, chain[1:]):
            c[a][b] = c[b][a] = -1
        c[1][3] = c[3][1] = -1
        return tuple(tuple(r) for r in c)
    if letter == "F":
        if rank != 4:
            raise UnknownTypeError(f"F{rank} is not supported")
        return ((2, -1, 0, 0), (-1, 2, -2, 0), (0, -1, 2, -1), (0, 0, -1, 2))
    if letter == "G":
        if rank != 2:
            raise UnknownTypeError(f"G{rank} is not supported")
        return ((2, -1), (-3, 2))
    raise UnknownTypeError(f"unknown type letter {letter!r}")


def _closure_from_simples(simples, cosimples):
    """All (root, coroot) pairs generated from the simple ones by the
    simple reflections, via the standard pairing of the realization;
    each coroot is computed once, by the step that first reaches its root."""
    coroot = dict(zip(simples, cosimples))

    def reflection_in(alpha, acov):
        def step(beta):
            n = dot(beta, acov)
            if not n:
                return beta
            img = tuple(b - n * a for b, a in zip(beta, alpha))
            if img not in coroot:
                cov = coroot[beta]
                m = dot(alpha, cov)
                coroot[img] = tuple(c - m * a for c, a in zip(cov, acov))
            return img
        return step

    roots = closure(simples, [reflection_in(a, c) for a, c in zip(simples, cosimples)])
    return sorted((r, coroot[r]) for r in roots)


def _realize_classical(letter, rank, tag):
    c = cartan_matrix(letter, rank)
    if tag == "sc":
        simples = tuple(c[i] for i in range(rank))
        cosimples = tuple(identity_matrix(rank)[i] for i in range(rank))
    elif tag == "ad":
        simples = tuple(identity_matrix(rank)[i] for i in range(rank))
        cosimples = tuple(tuple(c[i][j] for i in range(rank)) for j in range(rank))
    else:
        raise UnknownTypeError(f"unknown isogeny tag {tag!r} (expected sc or ad)")
    pairs = _closure_from_simples(simples, cosimples)
    roots = tuple(r for r, _ in pairs)
    coroots = tuple(cv for _, cv in pairs)
    datum = RootDatum(rank, roots, coroots)
    base = tuple(datum.index_of(s) for s in simples)
    return datum, base


def _realize_bc(rank):
    if rank < 1:
        raise UnknownTypeError(f"BC{rank} is not supported")
    e = identity_matrix(rank)
    pairs = []
    for i in range(rank):
        pairs.append((e[i], tuple(2 * x for x in e[i])))
        pairs.append((tuple(2 * x for x in e[i]), e[i]))
        for j in range(i + 1, rank):
            pairs.append((vec_add(e[i], e[j]), vec_add(e[i], e[j])))
            diff = tuple(a - b for a, b in zip(e[i], e[j]))
            pairs.append((diff, diff))
    pairs = pairs + [(vec_neg(r), vec_neg(cv)) for r, cv in pairs]
    pairs.sort()
    roots = tuple(r for r, _ in pairs)
    coroots = tuple(cv for _, cv in pairs)
    datum = RootDatum(rank, roots, coroots)
    simples = [tuple(a - b for a, b in zip(e[i], e[i + 1])) for i in range(rank - 1)]
    simples.append(e[rank - 1])
    base = tuple(datum.index_of(s) for s in simples)
    return datum, base


def _parse_factor(token):
    token = token.strip()
    if ":" in token:
        name, tag = token.split(":", 1)
    else:
        name, tag = token, None
    name = name.strip()
    if name.startswith("BC"):
        if tag is not None:
            raise UnknownTypeError(f"BC types take no isogeny tag ({token!r})")
        try:
            rank = int(name[2:])
        except ValueError:
            raise UnknownTypeError(f"bad type token {token!r}") from None
        if rank > 8:
            raise UnknownTypeError(f"rank {rank} exceeds the supported bound of 8")
        return ("BC", rank, None)
    if not name or name[0] not in "ABCDEFG":
        raise UnknownTypeError(f"bad type token {token!r}")
    try:
        rank = int(name[1:])
    except ValueError:
        raise UnknownTypeError(f"bad type token {token!r}") from None
    if rank > 8:
        raise UnknownTypeError(f"rank {rank} exceeds the supported bound of 8")
    return (name[0], rank, (tag or "sc").strip())


def from_cartan_type(spec):
    """Build a based root datum from a type string such as "A2:sc",
    "D4:sc", "BC2", or a product "A1:sc x A1:sc".  The sc realization
    puts the roots in fundamental-weight coordinates with the simple
    coroots as standard basis vectors; ad is the dual convention."""
    factors = [_parse_factor(tok) for tok in spec.split("x")]
    data = []
    for letter, rank, tag in factors:
        if letter == "BC":
            data.append(_realize_bc(rank))
        else:
            data.append(_realize_classical(letter, rank, tag))
    total = sum(d.rank for d, _ in data)
    offset = 0
    pairs = []
    simples = []
    for datum, base in data:
        pad = lambda v, off=offset, n=datum.rank: (
            (0,) * off + tuple(v) + (0,) * (total - off - n))
        for r, cv in zip(datum.roots, datum.coroots):
            pairs.append((pad(r), pad(cv)))
        simples.extend(pad(datum.roots[i]) for i in base)
        offset += datum.rank
    pairs.sort()
    roots = tuple(r for r, _ in pairs)
    coroots = tuple(cv for _, cv in pairs)
    datum = RootDatum(total, roots, coroots)
    base = tuple(sorted(datum.index_of(s) for s in simples))
    return BasedRootDatum(datum, base)


# ---------------------------------------------------------------------------
# classification


def _components(datum):
    n = len(datum.roots)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n):
        for j in range(i + 1, n):
            if datum.pair(datum.roots[i], datum.coroots[j]) != 0:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values(), key=lambda g: datum.roots[g[0]])


def _permutation_match(candidate, matrix):
    """Is candidate[p(i)][p(j)] == matrix[i][j] for some permutation p?"""
    k = len(matrix)
    if len(candidate) != k:
        return False
    for p in permutations(range(k)):
        if all(candidate[p[i]][p[j]] == matrix[i][j]
               for i in range(k) for j in range(k)):
            return True
    return False


def _component_label(matrix, reduced):
    k = len(matrix)
    if not reduced:
        target = cartan_matrix("A", 1) if k == 1 else cartan_matrix("B", k)
        if _permutation_match(target, matrix):
            return f"BC{k}"
        return f"unknown:{list(map(list, matrix))}"
    candidates = [("A", k)]
    if k >= 2:
        candidates.append(("B", k))
        candidates.append(("C", k))
    if k >= 4:
        candidates.append(("D", k))
    if k in (6, 7, 8):
        candidates.append(("E", k))
    if k == 4:
        candidates.append(("F", k))
    if k == 2:
        candidates.append(("G", k))
    for letter, rank in candidates:
        if _permutation_match(cartan_matrix(letter, rank), matrix):
            return f"{letter}{rank}"
    return f"unknown:{list(map(list, matrix))}"


def classify(datum):
    """Irreducible components of the root system, identified by
    Cartan-matrix matching; non-reduced components get BC labels.
    Returns a sorted list of (label, multiplicity)."""
    if not datum.roots:
        return []
    pos = positive_system(datum)
    base = base_of(datum, pos)
    labels = []
    for comp in _components(datum):
        comp_set = set(comp)
        comp_base = [i for i in base if i in comp_set]
        matrix = tuple(
            tuple(datum.pair(datum.roots[i], datum.coroots[j]) for j in comp_base)
            for i in comp_base
        )
        root_set = {datum.roots[i] for i in comp}
        reduced = not any(
            tuple(2 * x for x in r) in root_set for r in root_set)
        labels.append(_component_label(matrix, reduced))
    counted = {}
    for lab in labels:
        counted[lab] = counted.get(lab, 0) + 1
    return sorted(counted.items())
