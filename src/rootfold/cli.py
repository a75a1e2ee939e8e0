"""Document format and command-line workflows.

Documents are JSON with explicit integer arrays, row-major matrices,
and named action blocks:

    {
      "rank": 2,
      "roots": [[...], ...],
      "coroots": [[...], ...],
      "pairing": [[...], ...],        # optional, default standard
      "base": [0, 3],                 # optional, indices into roots
      "actions": {
        "gamma":  {"role": "gamma",  "group": "cyclic:2",
                   "generators": [{"element": 1, "matrix": [[...]]}]},
        "galois": {"role": "galois", "group": {"elements": [...],
                   "table": [[...]]}, "generators": [...]}
      },
      "flags": {"char_is_two": false} # optional
    }

JSON ``true`` and ``false`` are refused wherever the format asks for an
integer or an element label: Python reads them as ``bool``, a subclass
of ``int``, with ``True == 1``.

Emission is canonical (sorted keys, two-space indent, trailing newline),
so parse followed by emit is the identity on canonical documents.
"""

from __future__ import annotations

import argparse
import json
import sys

from .action import FiniteGroup, fixed_weyl, make_action
from .errors import (
    EnumerationOverflow,
    InvalidActionError,
    ParseError,
    RootfoldError,
)
from .lattice import det, record
from .rootdatum import (
    BasedRootDatum,
    RootDatum,
    canonical_base,
    classify,
    is_reduced,
    verify_axioms,
    verify_base,
    weyl_group,
)

# ``folding``, ``twist`` and ``selftest`` are imported inside the
# commands that run them, so ``verify``, ``classify`` and ``weyl`` start
# without compiling them.

# Largest group a document may declare, refused before any group table
# is built.  Checking an explicit table costs |G|^2 lookups per element
# of its generating set (``FiniteGroup.from_table``), and checking an
# action |G| permutation products per generator, and as many block
# products on a torus factor.  At this cap (CPython 3.11, one core of a
# shared 2-vCPU host) the table of (Z/2)^6 is checked in 0.002 s and
# that of Z/64 in 0.001 s, and make_action of E8 with -1 takes 0.002 s,
# as over Z/2.
MAX_GROUP_ORDER = 64

# Largest rank and most action blocks a document may declare, refused
# before any matrix product.  A block costs a rank^3 inverse plus a
# rank^2 product per root for each generator, and for each of its |G|
# images a permutation product and, on a torus factor, a product of
# blocks of the torus rank; a document may repeat blocks.  Times
# (CPython 3.11, one core of a shared 2-vCPU host), each block over
# cyclic:64:
#   make_action on a torus, a 64-cycle (rank >= 64) or a 16- or 32-cycle:
#     rank 16: 0.03 s;  rank 32: 0.22 s;  rank 64: 1.5 s
#   parse_datum of E8 x E8 (rank 16, 480 roots), the factor swap:
#     0.11 s for one block, 0.18 s for four
MAX_RANK = 16
MAX_ACTION_BLOCKS = 4


@record
class DatumDocument:
    """A parsed document: the datum, optional base, named actions with
    their role tags, and flags."""

    datum: RootDatum
    based: BasedRootDatum
    actions: dict
    roles: dict
    flags: dict
    source: str = "<string>"

    def action_named(self, name):
        if name not in self.actions:
            raise ParseError(f"no action named {name!r}", context=self.source)
        return self.actions[name]

    def actions_with_role(self, role):
        return {n: a for n, a in self.actions.items() if self.roles[n] == role}


def _expect(cond, message, context):
    if not cond:
        raise ParseError(message, context=context)


def _is_int(x):
    # JSON true and false parse to bool, a subclass of int
    return type(x) is int


def _has_label(labels, label):
    # type-exact: 1 == 1.0 == True, but only the label 1 names element 1
    return any(type(x) is type(label) and x == label for x in labels)


def _int_matrix(obj, context, rows=None, cols=None, allow_empty=False):
    if allow_empty and obj == []:
        return ()
    _expect(isinstance(obj, list) and obj and all(isinstance(r, list) for r in obj),
            "expected a nonempty list of integer rows", context)
    _expect(all(_is_int(x) for r in obj for x in r),
            "matrix entries must be integers", context)
    widths = {len(r) for r in obj}
    _expect(len(widths) == 1, "matrix rows have unequal lengths", context)
    if rows is not None:
        _expect(len(obj) == rows, f"expected {rows} rows", context)
    if cols is not None:
        _expect(widths == {cols}, f"expected {cols} columns", context)
    return tuple(tuple(r) for r in obj)


def _parse_group(obj, context):
    if isinstance(obj, str):
        _expect(obj.startswith("cyclic:"), f"unknown group shorthand {obj!r}", context)
        # ``int`` would also take signs, spaces, underscores and
        # non-ASCII digits
        digits = obj.split(":", 1)[1]
        _expect(digits.isascii() and digits.isdigit(), f"bad cyclic order in {obj!r}",
                context)
        n = int(digits)
        _expect(n >= 1, "cyclic order must be positive", context)
        _expect(n <= MAX_GROUP_ORDER,
                f"group order {n} is above the cap of {MAX_GROUP_ORDER}", context)
        return FiniteGroup.cyclic(n)
    _expect(isinstance(obj, dict), "group must be a shorthand string or an object",
            context)
    _expect("elements" in obj and "table" in obj,
            "explicit groups need 'elements' and 'table'", context)
    labels = obj["elements"]
    _expect(isinstance(labels, list) and labels, "'elements' must be a nonempty list",
            context)
    _expect(not any(isinstance(x, (list, dict, bool)) for x in labels),
            "element labels must not be lists, objects or booleans", context)
    _expect(len(labels) <= MAX_GROUP_ORDER,
            f"group order {len(labels)} is above the cap of {MAX_GROUP_ORDER}",
            context)
    identity = obj.get("identity")
    _expect(identity is None or _has_label(labels, identity),
            f"'identity' {identity!r} is not an element label", context)
    table = obj["table"]
    _expect(isinstance(table, list) and all(isinstance(r, list) for r in table)
            and all(_is_int(x) for r in table for x in r),
            "'table' must be a list of rows of element indices", context)
    try:
        return FiniteGroup.from_table(labels, table, identity)
    except ValueError as e:
        raise ParseError(f"bad group table: {e}", context=context) from None


def parse_datum(text, source="<string>"):
    """Parse and validate a document; every module invariant is checked
    here so downstream commands can trust the objects."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e}", context=source) from None
    _expect(isinstance(obj, dict), "top level must be an object", source)
    for key in obj:
        _expect(key in {"rank", "roots", "coroots", "pairing", "base", "actions",
                        "flags"},
                f"unknown field {key!r}", source)
    _expect(_is_int(obj.get("rank")) and obj["rank"] >= 1,
            "'rank' must be a positive integer", source)
    rank = obj["rank"]
    _expect(rank <= MAX_RANK, f"rank {rank} is above the cap of {MAX_RANK}",
            source)
    blocks = obj.get("actions") or {}
    if isinstance(blocks, dict):
        _expect(len(blocks) <= MAX_ACTION_BLOCKS,
                f"{len(blocks)} action blocks are above the cap of "
                f"{MAX_ACTION_BLOCKS}", source)
    for key in ("roots", "coroots"):
        _expect(key in obj, f"missing field {key!r}", source)
    # an empty list of roots is a torus
    roots = _int_matrix(obj["roots"], f"{source}: roots", cols=rank,
                        allow_empty=True)
    coroots = _int_matrix(obj["coroots"], f"{source}: coroots", cols=rank,
                          allow_empty=True)
    _expect(len(roots) == len(coroots),
            "'roots' and 'coroots' must have the same length", source)
    pairing = None
    if "pairing" in obj:
        pairing = _int_matrix(obj["pairing"], f"{source}: pairing",
                              rows=rank, cols=rank)
    datum = RootDatum(rank, roots, coroots, pairing)
    problems = verify_axioms(datum)
    if problems:
        raise ParseError("; ".join(problems), context=f"{source}: datum")

    base = None
    if "base" in obj:
        raw = obj["base"]
        _expect(isinstance(raw, list) and all(_is_int(i) for i in raw),
                "'base' must be a list of root indices", source)
        _expect(all(0 <= i < len(roots) for i in raw),
                "base index out of range", f"{source}: base")
        base = tuple(sorted(raw))
        based = BasedRootDatum(datum, base)
        base_problems = verify_base(based)
        if base_problems:
            raise ParseError("; ".join(base_problems), context=f"{source}: base")
    else:
        based = BasedRootDatum(datum, canonical_base(datum))

    _expect(isinstance(blocks, dict), "'actions' must be an object", source)
    actions = {}
    roles = {}
    for name, block in sorted(blocks.items()):
        ctx = f"{source}: actions.{name}"
        _expect(isinstance(block, dict), "action block must be an object", ctx)
        role = block.get("role", "gamma")
        _expect(role in ("gamma", "galois"),
                f"role must be 'gamma' or 'galois', got {role!r}", ctx)
        group = _parse_group(block.get("group", "cyclic:1"), f"{ctx}.group")
        gens = block.get("generators", [])
        _expect(isinstance(gens, list), "'generators' must be a list", ctx)
        parsed_gens = []
        for i, g in enumerate(gens):
            gctx = f"{ctx}.generators[{i}]"
            _expect(isinstance(g, dict) and "element" in g and "matrix" in g,
                    "generator needs 'element' and 'matrix'", gctx)
            matrix = _int_matrix(g["matrix"], gctx, rows=rank, cols=rank)
            label = g["element"]
            _expect(_has_label(group.labels, label),
                    f"element {label!r} is not in the group", gctx)
            parsed_gens.append((matrix, label))
        target = based if role == "gamma" else datum
        try:
            actions[name] = make_action(target, parsed_gens, group=group)
        except (InvalidActionError, EnumerationOverflow) as e:
            raise ParseError(str(e), context=ctx) from None
        roles[name] = role

    flags = obj.get("flags") or {}
    _expect(isinstance(flags, dict), "'flags' must be an object", source)
    for k, v in flags.items():
        _expect(k == "char_is_two", f"unknown flag {k!r}", f"{source}: flags")
        _expect(isinstance(v, bool), "'char_is_two' must be a boolean",
                f"{source}: flags")

    return DatumDocument(datum=datum, based=based, actions=actions, roles=roles,
                         flags=flags, source=source)


def document_object(datum, base=None, actions=None, flags=None):
    """Assemble the canonical JSON object for a datum."""
    obj = {
        "rank": datum.rank,
        "roots": [list(r) for r in datum.roots],
        "coroots": [list(c) for c in datum.coroots],
    }
    if datum.pairing is not None:
        obj["pairing"] = [list(r) for r in datum.pairing]
    if base is not None:
        obj["base"] = sorted(base)
    if actions:
        obj["actions"] = actions
    if flags:
        obj["flags"] = flags
    return obj


def emit_document(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def document_of(doc):
    """Rebuild the canonical JSON object of a parsed document."""
    blocks = {name: _action_block(doc.actions[name], doc.roles[name])
              for name in sorted(doc.actions)}
    return document_object(doc.datum, base=doc.based.base,
                           actions=blocks or None, flags=doc.flags or None)


def _action_block(action, role):
    group = action.group
    if group == FiniteGroup.cyclic(len(group)):
        group_obj = f"cyclic:{len(group)}"
    else:
        group_obj = {
            "elements": list(group.labels),
            "table": [list(r) for r in group.table],
            "identity": group.labels[group.identity],
        }
    return {
        "role": role,
        "group": group_obj,
        "generators": [
            {"element": group.labels[g], "matrix": [list(r) for r in aut.on_characters]}
            for g, aut in zip(group.generating_set, action.generator_images)
        ],
    }


# ---------------------------------------------------------------------------
# commands


def _fmt_mat(m):
    return json.dumps([list(r) for r in m])


def cmd_verify(args, out):
    doc = parse_datum(_read(args.file), source=args.file)
    # parse_datum already validated everything; report the findings
    out.write(f"datum: rank {doc.datum.rank}, {len(doc.datum.roots)} roots\n")
    out.write("axioms: pass\n")
    out.write(f"base: {list(doc.based.base)}\n")
    for name in sorted(doc.actions):
        act = doc.actions[name]
        out.write(f"action {name}: valid ({doc.roles[name]}, group order "
                  f"{len(act.group)})\n")
    out.write("verdict: pass\n")
    return 0


def cmd_classify(args, out):
    doc = parse_datum(_read(args.file), source=args.file)
    labels = classify(doc.datum)
    for label, mult in labels:
        out.write(f"{label} x{mult}\n")
    out.write(f"reduced: {_yn(is_reduced(doc.datum))}\n")
    return 0


def cmd_weyl(args, out):
    doc = parse_datum(_read(args.file), source=args.file)
    w = weyl_group(doc.datum)
    out.write(f"weyl order: {len(w)}\n")
    for name, act in sorted(doc.actions_with_role("gamma").items()):
        fw = fixed_weyl(act)
        out.write(f"fixed under {name}: {len(fw)}\n")
    return 0


def cmd_fold(args, out):
    from .folding import reduced_subdatum, restrict, weyl_descent_iso

    doc = parse_datum(_read(args.file), source=args.file)
    gammas = doc.actions_with_role("gamma")
    if not gammas:
        out.write("error: no action with role 'gamma' to fold along\n")
        return 2
    if len(gammas) > 1:
        out.write("error: multiple gamma actions; fold along one at a time\n")
        return 2
    (name, action), = gammas.items()
    commuting = [doc.actions[n] for n in sorted(doc.actions_with_role("galois"))]
    fold = restrict(action, commuting)
    d = fold.datum
    labels = classify(d)
    out.write(f"fold along {name}: {', '.join(f'{l} x{m}' for l, m in labels)}\n")
    out.write(f"restricted roots: {len(d.roots)}\n")
    out.write(f"reduced: {_yn(is_reduced(d))}\n")
    out.write(f"pairing determinant: {det(d.pairing_matrix)}\n")
    torsion = fold.coinvariants.torsion
    out.write(f"coinvariant torsion: {list(torsion) if torsion else 'none'}\n")
    iso = weyl_descent_iso(fold)
    out.write(f"weyl order downstairs: {iso.order} "
              f"(= fixed subgroup upstairs: {len(iso.fixed_subgroup)})\n")
    char_two = bool(args.char_two or doc.flags.get("char_is_two"))
    sub = reduced_subdatum(fold, char_is_two=char_two)
    sub_labels = classify(sub)
    out.write(f"reduced subdatum (char {'2' if char_two else '!=2'}): "
              f"{', '.join(f'{l} x{m}' for l, m in sub_labels)}\n")
    if args.emit_restricted:
        blocks = {}
        galois_names = sorted(doc.actions_with_role("galois"))
        for gname, induced in zip(galois_names, fold.induced):
            blocks[gname] = _action_block(induced, "galois")
        obj = document_object(d, base=fold.base, actions=blocks or None,
                              flags=doc.flags or None)
        try:
            with open(args.emit_restricted, "w", encoding="utf-8") as fh:
                fh.write(emit_document(obj))
        except OSError as e:
            out.write(f"error: cannot write {args.emit_restricted}: "
                      f"{e.strerror or e}\n")
            return 2
        out.write(f"restricted datum written to {args.emit_restricted}\n")
    return 0


def cmd_star(args, out):
    from .twist import star_action

    doc = parse_datum(_read(args.file), source=args.file)
    name = args.action
    if name is None:
        if not doc.actions:
            out.write("error: the document has no actions\n")
            return 2
        if len(doc.actions) != 1:
            out.write("error: several actions; pick one with --action\n")
            return 2
        name = next(iter(doc.actions))
    act = doc.action_named(name)
    star_act, cocycle = star_action(act, doc.based.base)
    trivial = all(v.is_identity() for v in cocycle.values)
    out.write(f"star action of {name}: base-preserving part computed\n")
    for g in act.group.elements():
        out.write(f"c({act.group.labels[g]!r}) = "
                  f"{_fmt_mat(cocycle.values[g].on_characters)}\n")
    out.write(f"cocycle trivial: {_yn(trivial)}\n")
    return 0


def cmd_h1(args, out):
    from .twist import h1_with_image

    doc = parse_datum(_read(args.file), source=args.file)
    galois_actions = doc.actions_with_role("galois")
    if len(galois_actions) != 1:
        out.write("error: exactly one action with role 'galois' is required\n")
        return 2
    (gal_name, galois), = galois_actions.items()
    gammas = doc.actions_with_role("gamma")
    gamma = None
    if gammas:
        if len(gammas) > 1:
            out.write("error: at most one gamma action is supported here\n")
            return 2
        (_, gamma), = gammas.items()
    report = h1_with_image(doc.based, galois, gamma_action=gamma)
    # the image classes are made on first read: read them before any
    # line is written, so that a datum they refuse gets one error line
    chosen = (report.module_classes if args.module == "weyl-fixed" and not args.image
              else report.image_classes)
    out.write(f"z1 cocycles: {len(report.module_classes.cocycles)}\n")
    if args.image:
        out.write(f"classes in the fixed-weyl module: "
                  f"{report.module_classes.class_count}\n")
        out.write(f"classes under equivariant automorphisms: "
                  f"{chosen.class_count}\n")
    else:
        out.write(f"classes ({args.module}): {chosen.class_count}\n")
    for i, rep in enumerate(chosen.representatives):
        vals = ", ".join(
            f"{galois.group.labels[g]!r}: {_fmt_mat(rep.values[g].on_characters)}"
            for g in galois.group.elements())
        out.write(f"class {i}: {vals}\n")
    return 0


def cmd_isoclass(args, out):
    from .twist import equivariant_isomorphic

    doc1 = parse_datum(_read(args.file_a), source=args.file_a)
    doc2 = parse_datum(_read(args.file_b), source=args.file_b)
    names1 = sorted(doc1.actions)
    names2 = sorted(doc2.actions)
    if names1 != names2:
        out.write("error: the documents carry different action names\n")
        return 2
    acts1 = [doc1.actions[n] for n in names1]
    acts2 = [doc2.actions[n] for n in names2]
    for name, a1, a2 in zip(names1, acts1, acts2):
        if a1.group != a2.group:
            out.write(f"error: the actions named {name!r} have different groups\n")
            return 2
    iso = equivariant_isomorphic(doc1.datum, acts1, doc2.datum, acts2)
    if iso is None:
        out.write("isomorphic: no\n")
        return 1
    out.write("isomorphic: yes\n")
    out.write(f"character map: {_fmt_mat(iso.on_characters)}\n")
    return 0


def cmd_selftest(args, out):
    from . import selftest

    return selftest.run(out, slow=args.slow)


def _yn(b):
    return "yes" if b else "no"


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise ParseError(f"cannot read file: {e}", context=path) from None


def build_parser():
    p = argparse.ArgumentParser(
        prog="rootfold",
        description="exact root-datum folding, cocycles, and H1 twisting")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="validate a datum document")
    v.add_argument("file")
    v.set_defaults(func=cmd_verify)

    c = sub.add_parser("classify", help="identify irreducible components")
    c.add_argument("file")
    c.set_defaults(func=cmd_classify)

    w = sub.add_parser("weyl", help="Weyl group orders, fixed subgroups")
    w.add_argument("file")
    w.set_defaults(func=cmd_weyl)

    f = sub.add_parser("fold", help="restrict along the gamma action")
    f.add_argument("file")
    f.add_argument("--char-two", action="store_true",
                   help="pick the characteristic-2 reduced subdatum")
    f.add_argument("--emit-restricted", metavar="FILE",
                   help="write the restricted datum to FILE")
    f.set_defaults(func=cmd_fold)

    s = sub.add_parser("star", help="emit the base-transport cocycle")
    s.add_argument("file")
    s.add_argument("--action", help="action block to transport")
    s.set_defaults(func=cmd_star)

    h = sub.add_parser("h1", help="enumerate cocycles and their classes")
    h.add_argument("file")
    h.add_argument("--module", choices=["weyl-fixed", "aut-gamma"],
                   default="weyl-fixed")
    h.add_argument("--image", action="store_true",
                   help="report both class counts (the image invariant)")
    h.set_defaults(func=cmd_h1)

    i = sub.add_parser("isoclass", help="equivariant isomorphism test")
    i.add_argument("file_a")
    i.add_argument("file_b")
    i.set_defaults(func=cmd_isoclass)

    t = sub.add_parser("selftest", help="run the folding-table and H1 suites")
    t.add_argument("--slow", action="store_true",
                   help="include the large exceptional fold")
    t.set_defaults(func=cmd_selftest)
    return p


def main(argv=None, out=None):
    """Run one command and return its exit status: 0 on success, 1 on a
    failed verification or a library error, 2 on a parse or usage
    error, 3 on an internal error (a ValueError or AssertionError that
    escaped a command, reported as one line instead of a traceback)."""
    out = out or sys.stdout
    if argv is None:
        argv = sys.argv[1:]
    # accept the flag spelling of the selftest entry point
    argv = ["selftest" if a == "--selftest" else a for a in argv]
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, out)
    except ParseError as e:
        out.write(f"parse error: {e}\n")
        return 2
    except RootfoldError as e:
        out.write(f"error: {e}\n")
        return 1
    except (ValueError, AssertionError) as e:
        out.write(f"internal error: {e}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
