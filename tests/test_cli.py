import io
import json
import pathlib
import time
from itertools import permutations

import pytest

from rootfold.cli import (
    document_of,
    emit_document,
    main,
    parse_datum,
)
from rootfold import cli
from rootfold.errors import (
    EnumerationOverflow,
    InvalidActionError,
    ParseError,
    RootfoldError,
    UnknownTypeError,
    UnsupportedDatumError,
)

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "golden"


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def golden(name):
    return str(GOLDEN / name)


# ---------------------------------------------------------------------------
# parsing and emission


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("*.datum")))
def test_golden_roundtrip(name):
    text = (GOLDEN / name).read_text()
    doc = parse_datum(text, source=name)
    assert emit_document(document_of(doc)) == text


def test_parse_rejects_bad_pairing():
    bad = {
        "rank": 1,
        "roots": [[2], [-2]],
        "coroots": [[2], [-2]],
    }
    with pytest.raises(ParseError) as err:
        parse_datum(json.dumps(bad), source="bad.datum")
    assert "expected 2" in str(err.value)
    assert "bad.datum" in str(err.value)


def test_parse_rejects_non_permuting_generator():
    base = json.loads((GOLDEN / "A2sc.datum").read_text())
    base["actions"] = {
        "gamma": {"role": "gamma", "group": "cyclic:2",
                  "generators": [{"element": 1, "matrix": [[1, 0], [0, 2]]}]}
    }
    with pytest.raises(ParseError) as err:
        parse_datum(json.dumps(base))
    assert "actions.gamma" in str(err.value)


def test_parse_rejects_unknown_field():
    with pytest.raises(ParseError):
        parse_datum(json.dumps({"rank": 1, "roots": [[2]], "coroots": [[1]],
                                "extra": 1}))


@pytest.mark.parametrize("text", [
    "{not json",
    "[" * 100_000 + "]" * 100_000,  # nested past the recursion limit
    # an integer literal past Python's int-conversion digit limit
    '{"rank": ' + "1" * 5000 + ', "roots": [], "coroots": []}',
], ids=["syntax", "deep", "digits"])
def test_parse_rejects_invalid_json(text):
    with pytest.raises(ParseError) as err:
        parse_datum(text)
    assert "invalid JSON" in str(err.value)


def test_parse_explicit_group_table():
    obj = json.loads((GOLDEN / "A2-flip.datum").read_text())
    obj["actions"]["gamma"]["group"] = {
        "elements": ["e", "s"],
        "table": [[0, 1], [1, 0]],
        "identity": "e",
    }
    obj["actions"]["gamma"]["generators"][0]["element"] = "s"
    doc = parse_datum(json.dumps(obj))
    assert len(doc.actions["gamma"].group) == 2


# ---------------------------------------------------------------------------
# commands


def test_verify_passes_on_golden():
    code, out = run_cli("verify", golden("A2sc.datum"))
    assert code == 0
    assert "verdict: pass" in out


def test_verify_fails_on_bad_document(tmp_path):
    bad = tmp_path / "bad.datum"
    bad.write_text(json.dumps({
        "rank": 1, "roots": [[2], [-2]], "coroots": [[2], [-2]]}))
    code, out = run_cli("verify", str(bad))
    assert code == 2
    assert "parse error" in out
    assert "expected 2" in out


def test_fold_a2_flip():
    code, out = run_cli("fold", golden("A2-flip.datum"))
    assert code == 0
    assert "BC1 x1" in out
    assert "restricted roots: 4" in out
    assert "reduced: no" in out
    assert "weyl order downstairs: 2 (= fixed subgroup upstairs: 2)" in out


def test_fold_char_two_flag():
    code, out = run_cli("fold", golden("A2-flip.datum"), "--char-two")
    assert code == 0
    assert "reduced subdatum (char 2): A1 x1" in out


def test_fold_emit_restricted(tmp_path):
    target = tmp_path / "restricted.datum"
    code, out = run_cli("fold", golden("A3-flip.datum"),
                        "--emit-restricted", str(target))
    assert code == 0
    text = target.read_text()
    doc = parse_datum(text, source="restricted")
    assert doc.datum.rank == 2
    assert len(doc.datum.roots) == 8
    code2, out2 = run_cli("classify", str(target))
    assert code2 == 0
    assert "B2 x1" in out2


def test_fold_emit_restricted_to_an_unwritable_path(tmp_path):
    target = tmp_path / "no" / "such" / "dir" / "out.datum"
    code, out = run_cli("fold", golden("A3-flip.datum"),
                        "--emit-restricted", str(target))
    assert code == 2
    report, error = out.splitlines()[:-1], out.splitlines()[-1]
    assert report[0] == "fold along gamma: B2 x1"
    assert error == f"error: cannot write {target}: No such file or directory"
    assert not target.exists()


def test_fold_requires_gamma_action():
    code, out = run_cli("fold", golden("A2sc.datum"))
    assert code == 2
    assert "no action with role 'gamma'" in out


def test_classify_command():
    code, out = run_cli("classify", golden("A2sc.datum"))
    assert code == 0
    assert "A2 x1" in out
    assert "reduced: yes" in out


def test_weyl_command():
    code, out = run_cli("weyl", golden("A3-flip.datum"))
    assert code == 0
    assert "weyl order: 24" in out
    assert "fixed under gamma: 8" in out


def test_star_command_weyl_valued_action():
    code, out = run_cli("star", golden("A1-nonsplit.datum"))
    assert code == 0
    assert "c(1) = [[-1]]" in out
    assert "cocycle trivial: no" in out


def test_star_command_trivial_cocycle():
    code, out = run_cli("star", golden("A2-flip.datum"))
    assert code == 0
    assert "cocycle trivial: yes" in out


def test_h1_command():
    code, out = run_cli("h1", golden("A1-z2.datum"))
    assert code == 0
    assert "z1 cocycles: 2" in out
    assert "classes (weyl-fixed): 2" in out


def test_h1_image_flag():
    code, out = run_cli("h1", golden("A1-z2.datum"), "--image")
    assert code == 0
    assert "classes in the fixed-weyl module: 2" in out
    assert "classes under equivariant automorphisms: 2" in out


def test_h1_with_gamma_and_galois_blocks(tmp_path):
    obj = json.loads((GOLDEN / "A2-flip.datum").read_text())
    obj["actions"]["galois"] = {
        "role": "galois", "group": "cyclic:2",
        "generators": [{"element": 1, "matrix": [[-1, 0], [0, -1]]}],
    }
    doc = tmp_path / "combined.datum"
    doc.write_text(json.dumps(obj))
    code, out = run_cli("h1", str(doc), "--module", "aut-gamma")
    assert code == 0
    assert "z1 cocycles: 2" in out
    code2, out2 = run_cli("h1", str(doc), "--module", "weyl-fixed")
    assert code2 == 0
    assert "classes (weyl-fixed): 2" in out2
    # byte determinism across repeated runs
    assert run_cli("h1", str(doc), "--module", "aut-gamma")[1] == out


def test_h1_on_a1_plus_a_torus_reports_the_module_classes(tmp_path):
    # A1 plus a rank-1 torus, Galois acting by diag(1, -1): trivially on
    # the roots and on W, so Z1 is {w in W(A1) : w^2 = 1} and the classes
    # are the involution classes of S_2 with the identity, (n + 1) // 2 + 1
    # for A_n; the image classes need the automorphism group, which is
    # refused on a datum with a torus factor
    n = 1
    path = tmp_path / "a1-torus.datum"
    path.write_text(json.dumps({
        "rank": 2, "roots": [[2, 0], [-2, 0]], "coroots": [[1, 0], [-1, 0]],
        "base": [0],
        "actions": {"galois": {"role": "galois", "group": "cyclic:2",
                               "generators": [{"element": 1,
                                               "matrix": [[1, 0], [0, -1]]}]}}}))
    z1 = sum(1 for w in permutations(range(n + 1))
             if all(w[w[i]] == i for i in range(n + 1)))
    classes = (n + 1) // 2 + 1
    code, out = run_cli("h1", str(path))
    assert code == 0
    assert out.splitlines()[:2] == [f"z1 cocycles: {z1}",
                                    f"classes (weyl-fixed): {classes}"]
    assert len(out.splitlines()) == 2 + classes
    assert run_cli("h1", str(path), "--module", "weyl-fixed") == (code, out)
    for extra in (["--image"], ["--module", "aut-gamma"]):
        assert run_cli("h1", str(path), *extra) == (
            1, "error: automorphism groups are only computed for semisimple data\n")


def test_isoclass_same_document():
    code, out = run_cli("isoclass", golden("A1-z2.datum"), golden("A1-z2.datum"))
    assert code == 0
    assert "isomorphic: yes" in out


def test_isoclass_split_vs_nonsplit():
    code, out = run_cli("isoclass", golden("A1-z2.datum"),
                        golden("A1-nonsplit.datum"))
    assert code == 1
    assert "isomorphic: no" in out


def test_selftest_passes_and_deterministic():
    code1, out1 = run_cli("selftest")
    code2, out2 = run_cli("selftest")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "selftest: all suites passed" in out1


def test_selftest_stdout_unchanged_under_optimize_flag():
    # python -O strips assert statements; every check the selftest
    # relies on must raise for real, so the report cannot change
    import os
    import subprocess
    import sys

    src = str(GOLDEN.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    runs = [subprocess.run([sys.executable, *flags, "-m", "rootfold.cli", "selftest"],
                           env=env, capture_output=True, timeout=300)
            for flags in ([], ["-O"])]
    assert runs[0].returncode == runs[1].returncode == 0
    assert runs[0].stdout == runs[1].stdout
    assert b"selftest: all suites passed" in runs[0].stdout


def test_fold_deterministic():
    _, out1 = run_cli("fold", golden("D4-triality.datum"))
    _, out2 = run_cli("fold", golden("D4-triality.datum"))
    assert out1 == out2
    assert "G2 x1" in out1


def test_missing_file_is_parse_error():
    code, out = run_cli("verify", "no-such-file.datum")
    assert code == 2
    assert "cannot read file" in out


def test_undecodable_file_is_parse_error(tmp_path):
    path = tmp_path / "latin1.datum"
    path.write_bytes(b'{"rank": 1, "roots": [], "coroots": [], "x": "\xe9"}')
    code, out = run_cli("verify", str(path))
    assert code == 2
    assert out.startswith("parse error:") and out.count("\n") == 1
    assert "cannot read file" in out


@pytest.mark.parametrize("command", ["verify", "fold", "h1"])
def test_entries_past_the_cap_are_one_parse_error(tmp_path, command):
    # a pairing value of 8 000 digits is past Python's printing limit
    huge = int("7" * 4000)
    path = tmp_path / "huge.datum"
    path.write_text(json.dumps({"rank": 1, "roots": [[huge], [-huge]],
                                "coroots": [[huge], [-huge]]}))
    code, out = run_cli(command, str(path))
    assert code == 2
    assert out == (f"parse error: {path}: roots: matrix entries must be below 2**63 "
                   "in absolute value\n")


def test_entries_just_below_the_cap_reach_the_axioms():
    top = cli.MAX_ENTRY - 1
    with pytest.raises(ParseError) as err:
        parse_datum(json.dumps({"rank": 1, "roots": [[top], [-top]],
                                "coroots": [[top], [-top]]}))
    assert f"<root 0, coroot 0> = {top * top}, expected 2" in str(err.value)


def test_h1_requires_galois_block():
    code, out = run_cli("h1", golden("A2-flip.datum"))
    assert code == 2
    assert "role 'galois'" in out


def test_star_requires_action_choice_when_ambiguous(tmp_path):
    obj = json.loads((GOLDEN / "A2-flip.datum").read_text())
    obj["actions"]["galois"] = {
        "role": "galois", "group": "cyclic:2",
        "generators": [{"element": 1, "matrix": [[-1, 0], [0, -1]]}],
    }
    doc = tmp_path / "two-actions.datum"
    doc.write_text(json.dumps(obj))
    code, out = run_cli("star", str(doc))
    assert code == 2
    assert "--action" in out
    code2, out2 = run_cli("star", str(doc), "--action", "galois")
    assert code2 == 0
    assert "cocycle trivial: no" in out2


def test_star_on_a_document_without_actions():
    code, out = run_cli("star", golden("A2sc.datum"))
    assert code == 2
    assert out == "error: the document has no actions\n"


def test_isoclass_refuses_same_named_actions_over_different_groups():
    # both documents name their action "gamma", over Z/2 and Z/3
    code, out = run_cli("isoclass", golden("A3-flip.datum"), golden("D4-triality.datum"))
    assert code == 2
    assert out == "error: the actions named 'gamma' have different groups\n"


def test_isoclass_on_a_torus_is_one_error_line(tmp_path):
    path = tmp_path / "torus.datum"
    path.write_text(json.dumps({"rank": 1, "roots": [], "coroots": []}))
    code, out = run_cli("isoclass", str(path), str(path))
    assert code == 1
    assert out == "error: isomorphism search requires semisimple data\n"


@pytest.mark.parametrize("kind", [InvalidActionError, UnknownTypeError,
                                  UnsupportedDatumError, EnumerationOverflow,
                                  RootfoldError])
def test_every_library_error_is_one_error_line(monkeypatch, kind):
    def fail(args, out):
        raise kind("boom")
    monkeypatch.setattr(cli, "cmd_verify", fail)
    code, out = run_cli("verify", golden("A2sc.datum"))
    assert code == 1
    assert out == "error: boom\n"


@pytest.mark.parametrize("kind", [ValueError, AssertionError])
def test_an_escaped_internal_error_is_one_line_with_exit_3(monkeypatch, kind):
    def fail(args, out):
        out.write("partial report\n")
        raise kind("check failed")
    monkeypatch.setattr(cli, "cmd_h1", fail)
    code, out = run_cli("h1", golden("A1-z2.datum"))
    assert code == 3
    assert out == "partial report\ninternal error: check failed\n"


# ---------------------------------------------------------------------------
# malformed documents: one "parse error:" line and exit 2, never a traceback


def _mutated_a2_flip(tmp_path, mutate):
    obj = json.loads((GOLDEN / "A2-flip.datum").read_text())
    mutate(obj)
    path = tmp_path / "mutated.datum"
    path.write_text(json.dumps(obj))
    return str(path)


def _assert_single_parse_error(path, fragment):
    code, out = run_cli("verify", path)
    assert code == 2
    assert len(out.splitlines()) == 1 and out.startswith("parse error: ")
    assert fragment in out


@pytest.mark.parametrize("key", ["actions", "flags"])
@pytest.mark.parametrize("value", [[1], 0, False, "", [], None],
                         ids=["list", "zero", "false", "empty-string", "empty-list", "null"])
def test_actions_given_as_a_list_is_parse_error(tmp_path, key, value):
    # a falsy value is refused too: only an object, or no key, is read
    path = _mutated_a2_flip(tmp_path, lambda o: o.update({key: value}))
    _assert_single_parse_error(path, f"'{key}' must be an object")


def _rename_role(block_name):
    def mutate(o):
        block = o["actions"][block_name]
        block["roles"] = block.pop("role")
    return mutate


def _add_generator_key(o):
    o["actions"]["gamma"]["generators"][0]["label"] = "s"


def _add_group_key(o):
    o["actions"]["gamma"]["group"] = {"elements": [0, 1], "table": [[0, 1], [1, 0]],
                                      "identity": 0, "order": 2}


# a mis-spelled optional key used to fall back to its default: "roles"
# read the Galois block of A1-z2 as a gamma action, and it verified
@pytest.mark.parametrize("name, mutate, where, key", [
    ("A1-z2.datum", _rename_role("galois"), "actions.galois", "roles"),
    ("A2-flip.datum", _rename_role("gamma"), "actions.gamma", "roles"),
    ("A2-flip.datum", _add_generator_key, "actions.gamma.generators[0]", "label"),
    ("A2-flip.datum", _add_group_key, "actions.gamma.group", "order"),
], ids=["galois-role", "gamma-role", "generator", "group"])
@pytest.mark.parametrize("command", ["verify", "fold", "h1"])
def test_an_unknown_key_inside_a_block_is_one_parse_error(tmp_path, name, mutate, where,
                                                           key, command):
    obj = json.loads((GOLDEN / name).read_text())
    mutate(obj)
    path = tmp_path / "mutated.datum"
    path.write_text(json.dumps(obj))
    code, out = run_cli(command, str(path))
    assert code == 2
    assert out == f"parse error: {path}: {where}: unknown field {key!r}\n"


def test_missing_roots_is_parse_error(tmp_path):
    path = _mutated_a2_flip(tmp_path, lambda o: o.pop("roots"))
    _assert_single_parse_error(path, "missing field 'roots'")


def test_string_entries_in_group_table_are_parse_error(tmp_path):
    def mutate(o):
        o["actions"]["gamma"]["group"] = {
            "elements": [0, 1], "table": [["e", "s"], ["s", "e"]]}
    _assert_single_parse_error(_mutated_a2_flip(tmp_path, mutate), "'table'")


def test_list_valued_element_labels_are_parse_error(tmp_path):
    def mutate(o):
        o["actions"]["gamma"]["group"] = {
            "elements": [[0], [1]], "table": [[0, 1], [1, 0]]}
    _assert_single_parse_error(_mutated_a2_flip(tmp_path, mutate),
                               "element labels")


def _set_group(group):
    def mutate(o):
        o["actions"]["gamma"]["group"] = group
    return mutate


def _set_generator_element(label):
    def mutate(o):
        o["actions"]["gamma"]["generators"][0]["element"] = label
    return mutate


# JSON true and false are Python bools, and bool is a subclass of int:
# each of these used to read true as 1 (or false as 0)
@pytest.mark.parametrize("mutate, fragment", [
    (lambda o: o.update(rank=True), "'rank' must be a positive integer"),
    (lambda o: o.update(base=[True, 3]), "'base' must be a list of root indices"),
    (lambda o: o["roots"][0].__setitem__(0, True), "roots: matrix entries"),
    (lambda o: o["coroots"][5].__setitem__(1, False), "coroots: matrix entries"),
    (lambda o: o.update(pairing=[[True, 0], [0, True]]), "pairing: matrix entries"),
    (lambda o: o["actions"]["gamma"]["generators"][0]["matrix"][0].__setitem__(1, True),
     "generators[0]: matrix entries"),
    (_set_generator_element(True), "element True is not in the group"),
    (_set_group({"elements": [0, 1], "table": [[False, 1], [1, 0]]}), "'table'"),
    (_set_group({"elements": [False, True], "table": [[0, 1], [1, 0]]}),
     "element labels must not be lists, objects or booleans"),
    (_set_group({"elements": [0, 1], "table": [[0, 1], [1, 0]], "identity": False}),
     "'identity' False is not an element label"),
    # a float equal to an integer label names no element either
    (_set_generator_element(1.0), "element 1.0 is not in the group"),
    (_set_group({"elements": [0, 1], "table": [[0, 1], [1, 0]], "identity": 0.0}),
     "'identity' 0.0 is not an element label"),
], ids=["rank", "base", "roots", "coroots", "pairing", "generator-matrix",
        "generator-element", "table", "elements", "identity", "float-element",
        "float-identity"])
def test_a_json_boolean_is_not_an_integer(tmp_path, mutate, fragment):
    path = _mutated_a2_flip(tmp_path, mutate)
    _assert_single_parse_error(path, fragment)
    code, out = run_cli("fold", path)
    assert code == 2 and out.startswith("parse error: ") and len(out.splitlines()) == 1


@pytest.mark.parametrize("mutate", [
    _set_generator_element(1),
    _set_group({"elements": [0, 1], "table": [[0, 1], [1, 0]], "identity": 0}),
], ids=["cyclic", "explicit"])
def test_the_integers_the_booleans_stood_for_verify(tmp_path, mutate):
    code, out = run_cli("verify", _mutated_a2_flip(tmp_path, mutate))
    assert code == 0 and out.endswith("verdict: pass\n")


def test_torus_without_roots_verifies(tmp_path):
    path = tmp_path / "torus.datum"
    path.write_text(json.dumps({"rank": 2, "roots": [], "coroots": []}))
    code, out = run_cli("verify", str(path))
    assert code == 0
    assert out.splitlines() == ["datum: rank 2, 0 roots", "axioms: pass",
                                "base: []", "verdict: pass"]
    doc = parse_datum(path.read_text())
    assert parse_datum(emit_document(document_of(doc))).datum == doc.datum


def _cyclic_table(n):
    return {"elements": list(range(n)),
            "table": [[(i + j) % n for j in range(n)] for i in range(n)]}


@pytest.mark.parametrize("group", [
    "cyclic:100000",
    f"cyclic:{cli.MAX_GROUP_ORDER + 2}",
    _cyclic_table(cli.MAX_GROUP_ORDER + 2),
], ids=["cyclic-huge", "cyclic-over-cap", "explicit-over-cap"])
def test_group_order_above_the_cap_is_refused_at_once(tmp_path, group):
    def mutate(o):
        o["actions"]["gamma"]["group"] = group
    path = _mutated_a2_flip(tmp_path, mutate)
    start = time.perf_counter()
    _assert_single_parse_error(path, f"cap of {cli.MAX_GROUP_ORDER}")
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("group", [f"cyclic:{cli.MAX_GROUP_ORDER}",
                                   _cyclic_table(cli.MAX_GROUP_ORDER)],
                         ids=["cyclic", "explicit"])
def test_group_order_at_the_cap_verifies(tmp_path, group):
    def mutate(o):
        o["actions"]["gamma"]["group"] = group
    code, out = run_cli("verify", _mutated_a2_flip(tmp_path, mutate))
    assert code == 0
    assert f"group order {cli.MAX_GROUP_ORDER})" in out


@pytest.mark.parametrize("group", ["cyclic:0_2", "cyclic: 2", "cyclic:+2", "cyclic:\u0662"],
                         ids=["underscore", "space", "sign", "arabic-indic-digit"])
def test_a_cyclic_order_other_than_ascii_digits_is_one_parse_error(tmp_path, group):
    # ``int`` reads each of these as 2
    def mutate(o):
        o["actions"]["gamma"]["group"] = group
    _assert_single_parse_error(_mutated_a2_flip(tmp_path, mutate),
                               f"actions.gamma.group: bad cyclic order in {group!r}")


IDENTITY_AT_1 = {"element": 1, "matrix": [[1, 0], [0, 1]]}
NOT_UNIMODULAR_AT_1 = {"element": 1, "matrix": [[0, 2], [1, 0]]}


@pytest.mark.parametrize("extra, first", [
    (IDENTITY_AT_1, True),
    (IDENTITY_AT_1, False),
    (None, False),
    (NOT_UNIMODULAR_AT_1, True),
], ids=["identity-before", "identity-after", "same-twice", "bad-matrix-before"])
def test_a_repeated_group_element_is_one_parse_error(tmp_path, extra, first):
    # the second generator for element 1 used to overwrite the first,
    # so the verdict and the fold depended on the order of the entries;
    # the repeat is refused before any matrix of the block is checked
    def mutate(o):
        gens = o["actions"]["gamma"]["generators"]
        other = extra or gens[0]
        o["actions"]["gamma"]["generators"] = [other, *gens] if first else [*gens, other]
    path = _mutated_a2_flip(tmp_path, mutate)
    _assert_single_parse_error(path, "actions.gamma: group element 1 has two generators")
    code, out = run_cli("fold", path)
    assert code == 2 and len(out.splitlines()) == 1


def test_generators_beyond_the_group_order_are_refused_at_once(tmp_path):
    def mutate(o):
        o["actions"]["gamma"]["generators"] *= 10 ** 4
    path = _mutated_a2_flip(tmp_path, mutate)
    start = time.perf_counter()
    _assert_single_parse_error(path, "group element 1 has two generators")
    assert time.perf_counter() - start < 1.0


def _cyclic_torus(tmp_path, rank, blocks=1):
    """A torus document with ``blocks`` galois blocks over cyclic:64,
    each generated by a cycle on the first coordinates: a 64-cycle from
    rank 64 on, else the longest cycle whose length divides 64."""
    length = max(n for n in (1, 2, 4, 8, 16, 32, 64) if n <= rank)
    matrix = [[int(i == j) for j in range(rank)] for i in range(rank)]
    for i in range(length):
        matrix[i] = [int(j == (i - 1) % length) for j in range(rank)]
    block = {"role": "galois", "group": f"cyclic:{cli.MAX_GROUP_ORDER}",
             "generators": [{"element": 1, "matrix": matrix}]}
    path = tmp_path / f"torus-{rank}-{blocks}.datum"
    path.write_text(json.dumps({
        "rank": rank, "roots": [], "coroots": [],
        "actions": {f"galois{k}": block for k in range(blocks)}}))
    return str(path)


@pytest.mark.parametrize("rank", [cli.MAX_RANK + 1, 160])
def test_rank_above_the_cap_is_refused_at_once(tmp_path, rank):
    path = _cyclic_torus(tmp_path, rank)
    start = time.perf_counter()
    _assert_single_parse_error(path, f"rank {rank} is above the cap of "
                                     f"{cli.MAX_RANK}")
    assert time.perf_counter() - start < 1.0


def test_rank_at_the_cap_verifies(tmp_path):
    code, out = run_cli("verify", _cyclic_torus(tmp_path, cli.MAX_RANK))
    assert code == 0
    assert out.splitlines()[0] == f"datum: rank {cli.MAX_RANK}, 0 roots"
    assert out.splitlines()[-1] == "verdict: pass"


@pytest.mark.parametrize("blocks", [cli.MAX_ACTION_BLOCKS + 1, 1000])
def test_action_blocks_above_the_cap_are_refused_at_once(tmp_path, blocks):
    path = _cyclic_torus(tmp_path, cli.MAX_RANK, blocks)
    start = time.perf_counter()
    _assert_single_parse_error(path, f"{blocks} action blocks are above the "
                                     f"cap of {cli.MAX_ACTION_BLOCKS}")
    assert time.perf_counter() - start < 1.0


def test_action_blocks_at_the_cap_verify(tmp_path):
    def mutate(o):
        gamma = o["actions"]["gamma"]
        o["actions"] = {f"gamma{k}": gamma for k in range(cli.MAX_ACTION_BLOCKS)}
    code, out = run_cli("verify", _mutated_a2_flip(tmp_path, mutate))
    assert code == 0
    assert sum(line.startswith("action gamma") for line in out.splitlines()) \
        == cli.MAX_ACTION_BLOCKS


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("*.datum")))
def test_golden_documents_are_under_the_caps(name):
    obj = json.loads((GOLDEN / name).read_text())
    assert obj["rank"] <= cli.MAX_RANK
    assert len(obj.get("actions", {})) <= cli.MAX_ACTION_BLOCKS


def test_empty_base_of_a_nonempty_root_system_is_parse_error(tmp_path):
    def mutate(o):
        o["base"] = []
        o.pop("actions")
    _assert_single_parse_error(_mutated_a2_flip(tmp_path, mutate),
                               "root 0 is not an integer combination of the base")
