import io
import json
import pathlib
import time

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


def test_parse_rejects_invalid_json():
    with pytest.raises(ParseError):
        parse_datum("{not json")


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


def test_actions_given_as_a_list_is_parse_error(tmp_path):
    path = _mutated_a2_flip(tmp_path, lambda o: o.update(actions=[1]))
    _assert_single_parse_error(path, "'actions' must be an object")


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


def test_empty_base_of_a_nonempty_root_system_is_parse_error(tmp_path):
    def mutate(o):
        o["base"] = []
        o.pop("actions")
    _assert_single_parse_error(_mutated_a2_flip(tmp_path, mutate),
                               "root 0 is not an integer combination of the base")
