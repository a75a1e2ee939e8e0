"""Time and peak RSS of two Weyl closures, one descent check and two
action closures, each in a fresh interpreter: ``weyl_group`` of E6
(51 840 elements), ``fixed_weyl`` of the D7 diagram flip (W(B6),
46 080 elements), ``weyl_descent_iso`` of the D6 diagram flip (W(B5),
3840 elements, its closure included), ``make_action`` of the five
simple reflections of D5 (W(D5), 1920 elements), ``restrict`` of
A1^40 under a 40-cycle (``make_action`` included), the check of a
document's explicit group table at the cap of 64 elements
(``FiniteGroup.from_table`` of (Z/2)^6), the positive system of E8's
base (120 roots) on a fresh datum, where the simple reflections are
read off the pairing first, and with them already cached, and the
character matrices of all 1152 elements of W(F4) from their root
permutations, ``from_cartan_type("E8:sc")`` (its 240 roots
counted as the elements), and ``make_action`` of the E6 diagram flip on
its based datum (2 elements), whose permutation is walked from the
base; ``classify`` of D10 and the diagram maps of A10 onto themselves
(``twist._find_diagram_maps``, 2 maps), both on data closed from their
Cartan matrices, as ``from_cartan_type`` stops at rank 8 (the element
count of ``classify`` is its one component), and the isomorphism search
between two separate builds of A1^7, each under a 7-cycle Gamma, which
``isoclass`` of such a document against itself runs (the 7 rows of the
character map found counted as the elements).  The fresh E8 datum is rebuilt as
``RootDatum(rank, roots, coroots)`` from the constructed one, whose
cache ``from_cartan_type`` fills with the simple reflections, so that
probe still measures the direct path.  Informational: it prints and
exits 0.

    PYTHONPATH=src python tools/closure_cost.py
"""

from __future__ import annotations

import subprocess
import sys

SETUP = {
    "weyl_group(E6)": """
from rootfold.rootdatum import from_cartan_type, weyl_group
datum = from_cartan_type("E6:sc").datum
run = lambda: weyl_group(datum)
""",
    "fixed_weyl(D7 flip, bound=10**6)": """
from rootfold.action import fixed_weyl, make_action
from rootfold.rootdatum import from_cartan_type
from rootfold.selftest import node_permutation_matrix
flip = {i: i for i in range(7)}
flip[5], flip[6] = 6, 5
action = make_action(from_cartan_type("D7:sc"), [(node_permutation_matrix(flip, 7), "g")])
run = lambda: fixed_weyl(action, bound=10 ** 6)
""",
    "weyl_descent_iso(D6 flip)": """
from rootfold.action import make_action
from rootfold.folding import restrict, weyl_descent_iso
from rootfold.rootdatum import from_cartan_type
from rootfold.selftest import node_permutation_matrix
flip = {i: i for i in range(6)}
flip[4], flip[5] = 5, 4
fold = restrict(make_action(from_cartan_type("D6:sc"), [(node_permutation_matrix(flip, 6), "g")]))
run = lambda: weyl_descent_iso(fold).fixed_subgroup
""",
    "make_action(D5 simple reflections)": """
from rootfold.action import make_action
from rootfold.rootdatum import from_cartan_type, reflection
based = from_cartan_type("D5:sc")
gens = [(reflection(based.datum, i).on_characters, i) for i in based.base]
run = lambda: make_action(based.datum, gens).group
""",
    "restrict(A1^40, 40-cycle)": """
from rootfold.action import make_action
from rootfold.folding import restrict
from rootfold.rootdatum import from_cartan_type
from rootfold.selftest import node_permutation_matrix
based = from_cartan_type(" x ".join(["A1:sc"] * 40))
cycle = node_permutation_matrix({i: (i + 1) % 40 for i in range(40)}, 40)
run = lambda: restrict(make_action(based, [(cycle, "c")])).source.group
""",
    "FiniteGroup.from_table((Z/2)^6)": """
from functools import reduce
from rootfold.action import FiniteGroup
group = reduce(FiniteGroup.direct_product, [FiniteGroup.cyclic(2)] * 6)
run = lambda: FiniteGroup.from_table(group.labels, group.table)
""",
    "positive_system(E8 base, fresh datum)": """
from rootfold.rootdatum import BasedRootDatum, RootDatum, from_cartan_type
built = from_cartan_type("E8:sc")
datum = RootDatum(built.datum.rank, built.datum.roots, built.datum.coroots)
based = BasedRootDatum(datum, built.base)
run = lambda: based.positive_system
""",
    "positive_system(E8 base, reflections cached)": """
from rootfold.rootdatum import from_cartan_type, reflection_permutation
based = from_cartan_type("E8:sc")
for i in based.base:
    reflection_permutation(based.datum, i)
run = lambda: based.positive_system
""",
    "matrices of W(F4)": """
from rootfold.rootdatum import _automorphisms_from_permutations, from_cartan_type, weyl_group
datum = from_cartan_type("F4:sc").datum
perms = weyl_group(datum).perms
run = lambda: _automorphisms_from_permutations(datum, perms)
""",
    "from_cartan_type(E8)": """
from rootfold.rootdatum import from_cartan_type
run = lambda: from_cartan_type("E8:sc").datum.roots
""",
    "make_action(E6 flip, based)": """
from rootfold.action import make_action
from rootfold.rootdatum import from_cartan_type
from rootfold.selftest import SLOW_FOLD
based = from_cartan_type("E6:sc")
flip = SLOW_FOLD[2]()
run = lambda: make_action(based, [(flip, "g")]).group
""",
    "classify(D10)": """
from rootfold.lattice import identity_matrix
from rootfold.rootdatum import _closure_from_simples, cartan_matrix, classify
datum = _closure_from_simples(cartan_matrix("D", 10), identity_matrix(10))[0]
run = lambda: classify(datum)
""",
    "_find_diagram_maps(A10)": """
from rootfold.lattice import identity_matrix
from rootfold.rootdatum import BasedRootDatum, _closure_from_simples, cartan_matrix
from rootfold.twist import _find_diagram_maps
datum, base, _ = _closure_from_simples(cartan_matrix("A", 10), identity_matrix(10))
based = BasedRootDatum(datum, base)
run = lambda: tuple(_find_diagram_maps(based, based))
""",
    "equivariant_isomorphic(A1^7 twice, 7-cycle)": """
from rootfold.action import make_action
from rootfold.rootdatum import from_cartan_type
from rootfold.selftest import node_permutation_matrix
from rootfold.twist import equivariant_isomorphic
cycle = node_permutation_matrix({i: (i + 1) % 7 for i in range(7)}, 7)
sides = []
for based in (from_cartan_type(" x ".join(["A1:sc"] * 7)) for _ in range(2)):
    sides += [based.datum, [make_action(based, [(cycle, "c")])]]
run = lambda: equivariant_isomorphic(*sides).on_characters
""",
}

MEASURE = """
import resource, time
start = time.perf_counter()
group = run()
seconds = time.perf_counter() - start
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(f"{len(group)} elements, {seconds * 1e3:.2f} ms, peak RSS {peak:.0f} MB")
"""


def main():
    for name, setup in SETUP.items():
        run = subprocess.run([sys.executable, "-c", setup + MEASURE],
                             capture_output=True, text=True)
        result = run.stdout.strip() or run.stderr.strip().splitlines()[-1]
        print(f"{name}: {result}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
