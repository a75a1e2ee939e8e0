"""Seeded inputs for the benchmark workloads.

Everything a workload feeds the program is made here from the seed:
the fold and H1 cases, the order of the operations in every pass, the
documents of the ``cli`` workload with their unimodular changes of
basis, and the hostile mutations of ``golden/A2-flip.datum``.  The same
seed gives the same cases, the same order and byte-identical files.

Expected results live next to each input as "facts" built from closed
forms (see oracle.py); the program's own answers are never used as
expectations.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import oracle


def flip_matrix(n):
    return tuple(tuple(int(j == n - 1 - i) for j in range(n)) for i in range(n))


def node_permutation_matrix(mapping, n):
    return tuple(tuple(int(mapping[j] == i) for j in range(n)) for i in range(n))


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def neg_identity(n):
    return tuple(tuple(-int(i == j) for j in range(n)) for i in range(n))


TRIALITY = {0: 2, 1: 1, 2: 3, 3: 0}
D5_FLIP = {0: 0, 1: 1, 2: 2, 3: 4, 4: 3}


# ---------------------------------------------------------------------------
# fold


# name, type spec, generator matrix, restricted label, restricted root
# count, reduced?, check positive systems?  The first seven are the
# library's folding table; A6 flip -> BC3 is added.
FOLD_CASES = (
    ("A2 flip", "A2:sc", flip_matrix(2), "BC1", 4, False, True),
    ("A3 flip", "A3:sc", flip_matrix(3), "B2", 8, True, True),
    ("A4 flip", "A4:sc", flip_matrix(4), "BC2", 12, False, True),
    ("A5 flip", "A5:sc", flip_matrix(5), "C3", 18, True, False),
    ("D4 triality", "D4:sc", node_permutation_matrix(TRIALITY, 4), "G2", 12,
     True, True),
    ("D5 flip", "D5:sc", node_permutation_matrix(D5_FLIP, 5), "B4", 32, True,
     False),
    ("A1xA1 swap", "A1:sc x A1:sc", flip_matrix(2), "A1", 2, True, True),
    ("A6 flip", "A6:sc", flip_matrix(6), "BC3", 24, False, False),
)


# ---------------------------------------------------------------------------
# h1


# name, type spec, Galois generator builder, gamma generator (or None),
# expected (module, image) class counts and Z1 size (None: not pinned).
def _h1_cases():
    cases = []
    for letter, n, spec in (("A", 1, "A1:sc"), ("A", 2, "A2:sc"),
                            ("B", 2, "B2:sc"), ("G", 2, "G2:sc"),
                            ("A", 3, "A3:sc"), ("B", 3, "B3:sc"),
                            ("C", 3, "C3:sc")):
        count = oracle.involution_classes(letter, n)
        cases.append((f"{letter}{n} trivial", spec, identity, None,
                      (count, None), oracle.square_roots_of_one(letter, n)))
    cases.append(("A1xA1 trivial", "A1:sc x A1:sc", identity, None,
                  (oracle.trivial_h1_module_classes([("A", 1), ("A", 1)]), None),
                  oracle.square_roots_of_one("A", 1) ** 2))
    cases.append(("A2 flip", "A2:sc", flip_matrix, None,
                  oracle.PINNED_H1["A2 flip"], None))
    cases.append(("A3 flip", "A3:sc", flip_matrix, None,
                  oracle.PINNED_H1["A3 flip"], None))
    cases.append(("A1xA1 swap", "A1:sc x A1:sc", flip_matrix, None,
                  oracle.PINNED_H1["A1xA1 swap"], None))
    # the Galois group acts by -1; the module is the gamma-fixed Weyl group
    cases.append(("A3 gamma", "A3:sc", neg_identity, flip_matrix(3),
                  oracle.PINNED_H1["A3 gamma"], None))
    cases.append(("A4 gamma", "A4:sc", neg_identity, flip_matrix(4),
                  oracle.PINNED_H1["A4 gamma"], None))
    return tuple(cases)


H1_CASES = _h1_cases()


def pass_order(rng, items):
    """One pass: every item once, in an order drawn from ``rng``."""
    order = list(items)
    rng.shuffle(order)
    return order


# ---------------------------------------------------------------------------
# cli documents


def _mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def _mat_vec(m, v):
    return [sum(m[i][k] * v[k] for k in range(len(v))) for i in range(len(m))]


def _transpose(m):
    return [list(r) for r in zip(*m)]


def random_unimodular(rng, n):
    """A seeded g in GL_n(Z) with its inverse: a signed permutation times
    n elementary transvections with coefficients +-1, so entries stay
    small and the cost of a request does not swing with the seed."""
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    g = [[signs[i] * int(perm[i] == j) for j in range(n)] for i in range(n)]
    ginv = _transpose(g)
    for _ in range(n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((1, -1))
        e = [[int(a == b) for b in range(n)] for a in range(n)]
        einv = [[int(a == b) for b in range(n)] for a in range(n)]
        e[i][j] = s
        einv[i][j] = -s
        g = _mat_mul(e, g)
        ginv = _mat_mul(ginv, einv)
    return g, ginv


def change_basis(doc, g, ginv):
    """The same datum in new coordinates: roots go through g, coroots
    through g^-T and action matrices A become g A g^-1.  Root order and
    base indices are kept."""
    ginv_t = _transpose(ginv)
    out = dict(doc)
    out["roots"] = [_mat_vec(g, r) for r in doc["roots"]]
    out["coroots"] = [_mat_vec(ginv_t, c) for c in doc["coroots"]]
    if doc.get("actions"):
        actions = {}
        for name, block in doc["actions"].items():
            block = dict(block)
            block["generators"] = [
                {"element": gen["element"],
                 "matrix": _mat_mul(_mat_mul(g, gen["matrix"]), ginv)}
                for gen in block["generators"]]
            actions[name] = block
        out["actions"] = actions
    return out


def emit(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _facts(factors, rank, gamma=None, actions=None, galois=None, star=None):
    return {"factors": factors, "rank": rank, "gamma": gamma,
            "actions": actions or {}, "galois": galois, "star": star or {}}


def _restricted_facts(facts):
    label = facts["gamma"]
    letter = label.rstrip("0123456789")
    n = int(label[len(letter):])
    induced = {name: v for name, v in facts["actions"].items()
               if v[0] == "galois"}
    return _facts([(letter, n)], n, actions=induced)


_A1_TRIVIAL_H1 = (oracle.square_roots_of_one("A", 1),
                  oracle.involution_classes("A", 1),
                  oracle.involution_classes("A", 1))

# Facts about the golden documents, from the types they realize.
GOLDEN = {
    "A1-nonsplit.datum": _facts(
        [("A", 1)], 1, actions={"galois": ("galois", 2)},
        galois=_A1_TRIVIAL_H1, star={"galois": False}),
    "A1-z2.datum": _facts(
        [("A", 1)], 1, actions={"galois": ("galois", 2)},
        galois=_A1_TRIVIAL_H1, star={"galois": True}),
    "A1xA1-swap.datum": _facts(
        [("A", 1), ("A", 1)], 2, gamma="A1", actions={"gamma": ("gamma", 2)},
        star={"gamma": True}),
    "A2-flip.datum": _facts(
        [("A", 2)], 2, gamma="BC1", actions={"gamma": ("gamma", 2)},
        star={"gamma": True}),
    "A2sc.datum": _facts([("A", 2)], 2),
    "A3-flip.datum": _facts(
        [("A", 3)], 3, gamma="B2", actions={"gamma": ("gamma", 2)},
        star={"gamma": True}),
    "D4-triality.datum": _facts(
        [("D", 4)], 4, gamma="G2", actions={"gamma": ("gamma", 3)},
        star={"gamma": True}),
}

# Documents built with the library: name, type spec, (letter, rank),
# gamma generator and folded label, trivial Galois action of Z/2?
# The A3 flip Galois classes are pinned at the seed (the B2 module
# under the automorphisms commuting with the flip); G2 has no diagram
# symmetry, so its image classes are its module classes.
LIBRARY = (
    ("lib-A3-flip-galois", "A3:sc", ("A", 3), flip_matrix(3), "B2",
     (oracle.square_roots_of_one("B", 2), oracle.involution_classes("B", 2),
      oracle.PINNED_H1["A3 gamma"][1])),
    ("lib-A4-flip", "A4:sc", ("A", 4), flip_matrix(4), "BC2", None),
    ("lib-A5-flip", "A5:sc", ("A", 5), flip_matrix(5), "C3", None),
    ("lib-D4-triality", "D4:sc", ("D", 4),
     node_permutation_matrix(TRIALITY, 4), "G2", None),
    ("lib-D5-flip", "D5:sc", ("D", 5), node_permutation_matrix(D5_FLIP, 5),
     "B4", None),
    ("lib-F4", "F4:sc", ("F", 4), None, None, None),
    ("lib-G2-galois", "G2:sc", ("G", 2), None, None,
     (oracle.square_roots_of_one("G", 2), oracle.involution_classes("G", 2),
      oracle.involution_classes("G", 2))),
)

# Documents that also get an isoclass request against a second change
# of basis of themselves.  The searches over every positive system of
# D5 and F4 take seconds each, so those two are left out.
ISOCLASS_DOCS = ("A1xA1-swap.datum", "A2-flip.datum", "A3-flip.datum",
                 "lib-A3-flip-galois.datum", "lib-A4-flip.datum",
                 "lib-G2-galois.datum")


def _cyclic_block(role, order, matrix):
    return {"role": role, "group": f"cyclic:{order}",
            "generators": [{"element": 1, "matrix": [list(r) for r in matrix]}]}


def library_document(rootdatum, spec, gamma, galois):
    """The untransformed document of a library-built datum."""
    based = rootdatum.from_cartan_type(spec)
    d = based.datum
    doc = {"rank": d.rank, "roots": [list(r) for r in d.roots],
           "coroots": [list(c) for c in d.coroots], "base": list(based.base)}
    actions = {}
    if gamma is not None:
        order = 1
        m = gamma
        while m != identity(d.rank):
            m = tuple(map(tuple, _mat_mul(m, gamma)))
            order += 1
        actions["gamma"] = _cyclic_block("gamma", order, gamma)
    if galois:
        actions["galois"] = _cyclic_block("galois", 2, identity(d.rank))
    if actions:
        doc["actions"] = actions
    return doc


# Hostile documents: mutations of golden/A2-flip.datum.  Every one
# should be refused with exit 2 and a single "parse error:" line, except
# the rank-2 torus, which is a valid datum.  Request kinds listed in
# KNOWN_DEFECTS fail at the seed: the first four escape main() as
# tracebacks and the torus is refused.
KNOWN_DEFECTS = ("hostile-actions-list", "hostile-missing-roots",
                 "hostile-string-table", "hostile-list-labels",
                 "torus-rank2")

# pairs of A2 roots at 60 degrees: a Z-basis of the root lattice that is
# not a base, so some root has mixed signs over it
_ACUTE_PAIRS = ([4, 5], [2, 4], [3, 5], [0, 2], [0, 1], [1, 3])


def hostile_documents(rng, text):
    """(kind, file text, expected exit code) for each mutation."""
    obj = json.loads(text)

    def mutated(**changes):
        out = json.loads(text)
        for k, v in changes.items():
            if v is None:
                out.pop(k, None)
            else:
                out[k] = v
        return emit(out)

    gamma = obj["actions"]["gamma"]
    factor = rng.choice((2, 3))
    i, j = rng.choice(((0, 1), (1, 0)))
    bad_matrix = [[0, 1], [1, 0]]
    bad_matrix[i][j] = factor
    k = rng.randrange(len(obj["coroots"]))
    neg_k = obj["roots"].index([-x for x in obj["roots"][k]])
    coroots = [list(c) for c in obj["coroots"]]
    coroots[k] = [2 * x for x in coroots[k]]
    coroots[neg_k] = [2 * x for x in coroots[neg_k]]
    cut = rng.randrange(1, len(text.rstrip()) - 1)
    return [
        ("hostile-bad-json", text[:cut], 2),
        ("hostile-rank-mismatch", mutated(rank=rng.choice((1, 3, 4))), 2),
        ("hostile-non-unimodular", mutated(actions={"gamma": dict(
            gamma, generators=[{"element": 1, "matrix": bad_matrix}])}), 2),
        ("hostile-mixed-sign-base", mutated(base=rng.choice(_ACUTE_PAIRS)), 2),
        ("hostile-coroot-pairing", mutated(coroots=coroots), 2),
        ("hostile-cyclic-zero", mutated(actions={"gamma": dict(
            gamma, group="cyclic:0")}), 2),
        ("hostile-unknown-flag", mutated(flags={rng.choice(
            ("char_is_three", "fast", "strict", "verbose")): True}), 2),
        ("hostile-actions-list", mutated(actions=[rng.randrange(1, 10)]), 2),
        ("hostile-missing-roots", mutated(roots=None), 2),
        ("hostile-string-table", mutated(actions={"gamma": dict(
            gamma, group={"elements": [0, 1],
                          "table": [["e", "s"], ["s", "e"]]})}), 2),
        ("hostile-list-labels", mutated(actions={"gamma": dict(
            gamma, group={"elements": [[0], [1]],
                          "table": [[0, 1], [1, 0]]})}), 2),
        ("torus-rank2", emit({"rank": 2, "roots": [], "coroots": []}), 0),
    ]


class Request:
    """One CLI invocation: argv after ``rootfold``, the request kind,
    the expected exit code and the check applied to stdout."""

    def __init__(self, argv, kind, code, lines=(), counts=None,
                 single_parse_error=False):
        self.argv = list(argv)
        self.kind = kind
        self.code = code
        self.lines = list(lines)
        self.counts = dict(counts or {})
        self.single_parse_error = single_parse_error

    def check(self, code, stdout):
        """None when the outcome is as expected, else a reason."""
        if code != self.code:
            return f"exit {code}, expected {self.code}"
        got = stdout.splitlines()
        if self.single_parse_error:
            if len(got) != 1 or not got[0].startswith("parse error: "):
                return "expected a single 'parse error:' line"
            return None
        missing = [line for line in self.lines if line not in got]
        if missing:
            return f"missing line {missing[0]!r}"
        for prefix, n in self.counts.items():
            have = sum(1 for line in got if line.startswith(prefix))
            if have != n:
                return f"{have} lines start with {prefix!r}, expected {n}"
        return None


def _valid_requests(name, facts):
    """The requests that apply to a valid document, as units: a unit is
    a list of requests that run back to back (emit, then verify)."""
    units = []

    def add(argv, kind, f=facts):
        code, lines, counts = oracle.expected(argv, f)
        return Request(argv, kind, code, lines, counts)

    for cmd in ("verify", "classify", "weyl"):
        units.append([add([cmd, name], cmd)])
    if facts["gamma"]:
        units.append([add(["fold", name], "fold")])
        units.append([add(["fold", name, "--char-two"], "fold-char-two")])
        out = f"restricted-{name}"
        emit_req = add(["fold", name, "--emit-restricted", out],
                       "fold-emit-restricted")
        emit_req.lines.append(f"restricted datum written to {out}")
        units.append([emit_req, add(["verify", out], "verify-restricted",
                                    _restricted_facts(facts))])
    for action in sorted(facts["star"]):
        units.append([add(["star", name, "--action", action], "star")])
    if facts["galois"]:
        units.append([add(["h1", name], "h1")])
        units.append([add(["h1", name, "--image"], "h1-image")])
    return units


def cli_inputs(rootdatum, seed, workdir, golden_dir):
    """Write every document of the cli workload into ``workdir`` and
    return the request units of one pass, in canonical order."""
    rng = random.Random(f"cli-documents-{seed}")
    workdir = Path(workdir)
    docs = {}
    for name in sorted(GOLDEN):
        docs[name] = (json.loads((golden_dir / name).read_text()), GOLDEN[name])
    for name, spec, (letter, n), gamma, label, galois in LIBRARY:
        raw = library_document(rootdatum, spec, gamma, galois is not None)
        g, ginv = random_unimodular(rng, raw["rank"])
        actions = {}
        star = {}
        if gamma is not None:
            order = int(raw["actions"]["gamma"]["group"].split(":")[1])
            actions["gamma"] = ("gamma", order)
            star["gamma"] = True
        if galois is not None:
            actions["galois"] = ("galois", 2)
            star["galois"] = True
        docs[f"{name}.datum"] = (change_basis(raw, g, ginv),
                                 _facts([(letter, n)], raw["rank"], label,
                                        actions, galois, star))
    units = []
    for name, (doc, facts) in docs.items():
        if name.startswith("lib-"):
            (workdir / name).write_text(emit(doc))
        else:
            (workdir / name).write_text((golden_dir / name).read_text())
        units.extend(_valid_requests(name, facts))
        if name in ISOCLASS_DOCS:
            alt = f"alt-{name}"
            g, ginv = random_unimodular(rng, doc["rank"])
            (workdir / alt).write_text(emit(change_basis(doc, g, ginv)))
            units.append([Request(["isoclass", name, alt], "isoclass-yes", 0,
                                  ["isomorphic: yes"],
                                  {"character map: ": 1})])
    units.append([Request(["isoclass", "A1-z2.datum", "A1-nonsplit.datum"],
                          "isoclass-no", 1, ["isomorphic: no"])])
    a2_flip = (golden_dir / "A2-flip.datum").read_text()
    for kind, text, code in hostile_documents(rng, a2_flip):
        path = f"{kind}.datum"
        (workdir / path).write_text(text)
        if code == 0:
            req = Request(["verify", path], kind, 0,
                          ["datum: rank 2, 0 roots", "verdict: pass"])
        else:
            req = Request(["verify", path], kind, code, single_parse_error=True)
        units.append([req])
    return units
