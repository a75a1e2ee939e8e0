"""Closed-form expectations for the benchmark's output checks.

Nothing here imports rootfold: every expected value comes from a
formula or a pinned count, so a bug in the engine cannot also hide in
the check that is meant to catch it.

Types are written as (letter, rank) pairs, with "BC" as a letter.
"""

from __future__ import annotations

from math import factorial


def root_count(letter, n):
    """Number of roots of an irreducible (possibly non-reduced) system."""
    if letter == "A":
        return n * (n + 1)
    if letter in ("B", "C"):
        return 2 * n * n
    if letter == "BC":
        return 2 * n * (n + 1)
    if letter == "D":
        return 2 * n * (n - 1)
    if (letter, n) == ("G", 2):
        return 12
    if (letter, n) == ("F", 4):
        return 48
    raise ValueError(f"no root count for {letter}{n}")


def weyl_order(letter, n):
    """|W| of an irreducible type; BC_n shares its Weyl group with B_n."""
    if letter == "A":
        return factorial(n + 1)
    if letter in ("B", "C", "BC"):
        return 2 ** n * factorial(n)
    if letter == "D":
        return 2 ** (n - 1) * factorial(n)
    if (letter, n) == ("G", 2):
        return 12
    if (letter, n) == ("F", 4):
        return 1152
    raise ValueError(f"no Weyl order for {letter}{n}")


def fixed_weyl_order(label):
    """|W^Gamma| for a fold whose restricted system has the given label,
    such as "B4" or "BC3": it equals the Weyl order downstairs."""
    letter = label.rstrip("0123456789")
    return weyl_order(letter, int(label[len(letter):]))


def involution_classes(letter, n):
    """Conjugacy classes of w in W with w^2 = 1, the identity included
    (Carter, Conjugacy classes in the Weyl group, 1972).  For a trivial
    Galois action of Z/2 this is the number of H1 classes in W."""
    if letter == "A":
        return (n + 1) // 2 + 1
    if letter in ("B", "C", "BC"):
        return sum(n - 2 * c + 1 for c in range(n // 2 + 1))
    if (letter, n) == ("G", 2):
        return 4
    raise ValueError(f"no involution class count for {letter}{n}")


def square_roots_of_one(letter, n):
    """Number of w in W with w^2 = 1, the identity included: the size of
    Z1 for a trivial Galois action of Z/2."""
    if letter == "A":
        # involutions in S_{n+1}: a(m) = a(m-1) + (m-1) a(m-2)
        a, b = 1, 1
        for m in range(2, n + 2):
            a, b = b, b + (m - 1) * a
        return b
    if letter in ("B", "C", "BC"):
        # signed permutations: a(m) = 2 a(m-1) + 2 (m-1) a(m-2)
        a, b = 1, 2
        for m in range(2, n + 1):
            a, b = b, 2 * b + 2 * (m - 1) * a
        return b if n >= 1 else 1
    if (letter, n) == ("G", 2):
        # dihedral group of order 12: identity, the central rotation and
        # six reflections
        return 8
    raise ValueError(f"no involution count for {letter}{n}")


def product(values):
    out = 1
    for v in values:
        out *= v
    return out


# ---------------------------------------------------------------------------
# H1 expectations


# Class counts (module, image) pinned from the seed for the twisted
# cases, where no closed form is implemented.
PINNED_H1 = {
    "A2 flip": (2, 2),
    "A3 flip": (3, 3),
    "A1xA1 swap": (1, 1),
    "A3 gamma": (4, 4),
    "A4 gamma": (4, 4),
}


def trivial_h1_module_classes(factors):
    """Module class count of H1(Z/2 trivial, W) for a product of
    irreducible types: products multiply."""
    return product(involution_classes(letter, n) for letter, n in factors)


# ---------------------------------------------------------------------------
# CLI report fields that do not depend on the basis


def labels_line(factors):
    """The classify lines "X x m" for a list of (letter, rank)."""
    counted = {}
    for letter, n in factors:
        label = f"{letter}{n}"
        counted[label] = counted.get(label, 0) + 1
    return [f"{label} x{m}" for label, m in sorted(counted.items())]


def expected(request, facts):
    """(exit code, lines, line-prefix counts) for ``request`` on a valid
    document described by ``facts``.  Only fields that do not depend on
    the basis are named: labels, root counts, Weyl and fixed orders and
    class counts.

    ``facts`` is a dict made by inputs.py from closed forms: "factors",
    "rank", "gamma" (folded label or None), "actions" (name -> (role,
    order)), "galois" ((Z1 size, module classes, image classes) or None)
    and "star" (action name -> is the transport cocycle trivial?).
    """
    cmd = request[0]
    factors = facts["factors"]
    nroots = sum(root_count(l, n) for l, n in factors)
    if cmd == "verify":
        lines = [f"datum: rank {facts['rank']}, {nroots} roots",
                 "axioms: pass"]
        lines += [f"action {name}: valid ({role}, group order {order})"
                  for name, (role, order) in sorted(facts["actions"].items())]
        return 0, lines + ["verdict: pass"], {"action ": len(facts["actions"])}
    if cmd == "classify":
        reduced = "no" if any(l == "BC" for l, _ in factors) else "yes"
        return 0, labels_line(factors) + [f"reduced: {reduced}"], {}
    if cmd == "weyl":
        lines = [f"weyl order: {product(weyl_order(l, n) for l, n in factors)}"]
        if facts["gamma"]:
            lines.append(f"fixed under gamma: {fixed_weyl_order(facts['gamma'])}")
        return 0, lines, {}
    if cmd == "fold":
        label = facts["gamma"]
        letter = label.rstrip("0123456789")
        n = int(label[len(letter):])
        order = fixed_weyl_order(label)
        char_two = "--char-two" in request
        if letter == "BC":
            # nondivisible roots give B_n, nonmultipliable ones C_n; in
            # ranks 1 and 2 both are labelled A1 and B2
            sub = "A1" if n == 1 else ("B2" if n == 2 else
                                       (f"C{n}" if char_two else f"B{n}"))
        else:
            sub = label
        return 0, [
            f"fold along gamma: {label} x1",
            f"restricted roots: {root_count(letter, n)}",
            f"reduced: {'no' if letter == 'BC' else 'yes'}",
            f"weyl order downstairs: {order} (= fixed subgroup upstairs: {order})",
            f"reduced subdatum (char {'2' if char_two else '!=2'}): {sub} x1",
        ], {}
    if cmd == "star":
        name = request[request.index("--action") + 1]
        trivial = "yes" if facts["star"][name] else "no"
        order = facts["actions"][name][1]
        return 0, [f"star action of {name}: base-preserving part computed",
                   f"cocycle trivial: {trivial}"], {"c(": order}
    if cmd == "h1":
        z1, module, image = facts["galois"]
        if "--image" in request:
            return 0, [f"z1 cocycles: {z1}",
                       f"classes in the fixed-weyl module: {module}",
                       f"classes under equivariant automorphisms: {image}"], \
                {"class ": image}
        return 0, [f"z1 cocycles: {z1}", f"classes (weyl-fixed): {module}"], \
            {"class ": module}
    raise ValueError(f"no expectation for {cmd}")
