"""Hostile documents: mutations of ``golden/A2-flip.datum`` through the
CLI, in-process.

A mutation replaces, deletes or adds one field somewhere in the
document: wrong types, wrong shapes, out-of-range indices, huge
integers, NaN and infinities, other group blocks.  Every command must
answer with an exit code of 0 to 3 and no uncaught exception, print the
same on a second call, and finish within the per-example deadline.
"""

import copy
import io
import json
import pathlib
from datetime import timedelta

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from rootfold.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "golden"
SOURCE = json.loads((GOLDEN / "A2-flip.datum").read_text())
COMMANDS = (("verify",), ("classify",), ("weyl",), ("fold",), ("star",),
            ("h1", "--image"))

HUGE = st.sampled_from([2 ** 63, -2 ** 63 - 1, 10 ** 40, -10 ** 40])
NUMBERS = st.one_of(st.integers(-3, 8), HUGE,
                    st.floats(allow_nan=True, allow_infinity=True), st.booleans())
SCALARS = st.one_of(NUMBERS, st.none(), st.text(max_size=6))
SMALL_MATRICES = st.lists(st.lists(st.integers(-2, 2), min_size=1, max_size=3),
                          min_size=1, max_size=3)
GROUPS = st.one_of(
    st.sampled_from(["cyclic:1", "cyclic:2", "cyclic:3", "cyclic:0", "cyclic:-2",
                     "cyclic:64", "cyclic:65", "cyclic:x", "cyclic:", "trivial",
                     "cyclic:99999999999999999999"]),
    st.fixed_dictionaries({"elements": st.lists(SCALARS, max_size=4),
                           "table": st.lists(st.lists(st.integers(-1, 4), max_size=4),
                                             max_size=4)},
                          optional={"identity": SCALARS}),
)
BLOCKS = st.fixed_dictionaries(
    {"group": GROUPS,
     "generators": st.lists(st.fixed_dictionaries(
         {"element": st.one_of(st.integers(-1, 3), SCALARS),
          "matrix": st.one_of(SMALL_MATRICES, st.sampled_from(
              [[[0, 1], [1, 0]], [[-1, 0], [0, -1]], [[1, 0], [0, 1]],
               [[1, 1], [0, 1]]]))}), max_size=2)},
    optional={"role": st.sampled_from(["gamma", "galois", "other", 1])})
VALUES = st.one_of(SCALARS, SMALL_MATRICES, GROUPS, BLOCKS,
                   st.lists(SCALARS, max_size=4),
                   st.dictionaries(st.text(max_size=4), SCALARS, max_size=2))


def paths(node, prefix=()):
    """Every path into the document, the root excluded."""
    out = []
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        out.append(prefix + (key,))
        out.extend(paths(child, prefix + (key,)))
    return out


@st.composite
def documents(draw):
    def value():
        # a copy: later mutations must not edit a value the strategy keeps
        return copy.deepcopy(draw(VALUES, label="value"))

    doc = copy.deepcopy(SOURCE)
    for _ in range(draw(st.integers(1, 3), label="mutations")):
        where = draw(st.sampled_from(sorted(paths(doc), key=repr) or [()]), label="path")
        parent = doc
        for key in where[:-1]:
            parent = parent[key]
        kind = draw(st.sampled_from(["replace", "delete", "add"]), label="kind")
        if not where:
            continue
        key = where[-1]
        if kind == "delete":
            del parent[key]
        elif kind == "add" and isinstance(parent, list):
            parent.insert(key, value())
        elif kind == "add":
            parent[draw(st.sampled_from(["galois", "gamma2", "flags", "pairing",
                                         "base", "extra"]), label="key")] = value()
        else:
            parent[key] = value()
    return doc


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run(argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


@settings(max_examples=25, deadline=timedelta(seconds=20),
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=documents())
def test_every_command_answers_a_mutated_document(workdir, doc):
    path = workdir / "doc.datum"
    path.write_text(json.dumps(doc))
    for command in COMMANDS:
        argv = [command[0], str(path), *command[1:]]
        code, stdout = run(argv)
        assert code in (0, 1, 2, 3), (argv, code, stdout)
        assert run(argv) == (code, stdout)
