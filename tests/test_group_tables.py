"""Where a group table enters the program: ``FiniteGroup.from_table``
against a brute-force reference, the closed group of ``make_action``
against ``from_table``, and the document's group-table refusals.

``reference`` is the check a ``FiniteGroup`` ran on every table before
``from_table``: the same scans in the same order, and associativity over
every triple.  ``from_table`` checks associativity on the generating set
only, and must still give the same verdict and the same message.
"""

import io
import json
import pathlib
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from rootfold.action import FiniteGroup, make_action
from rootfold.cli import document_of, main, parse_datum
from rootfold.rootdatum import closure, from_cartan_type, reflection

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "golden"


def reference(labels, table, identity_label=None):
    """The identity index of a group table, or ValueError: every check
    in order, associativity on all n^3 triples."""
    labels = tuple(labels)
    table = tuple(tuple(row) for row in table)
    n = len(labels)
    if len(set(labels)) != n:
        raise ValueError("duplicate element labels")
    if len(table) != n or any(len(r) != n for r in table):
        raise ValueError("multiplication table has wrong shape")
    if any(x < 0 or x >= n for row in table for x in row):
        raise ValueError("multiplication table entry out of range")
    ident = None
    for e in range(n):
        if all(table[e][x] == x == table[x][e] for x in range(n)):
            ident = e
            break
    if ident is None:
        raise ValueError("no identity element")
    if identity_label is not None and labels[ident] != identity_label:
        raise ValueError("declared identity does not act as identity")
    for x in range(n):
        if not any(table[x][y] == ident == table[y][x] for y in range(n)):
            raise ValueError(f"element {labels[x]!r} has no inverse")
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    raise ValueError("multiplication table not associative")
    return ident


def verdict(check, labels, table, identity_label):
    try:
        return "ok", check(labels, table, identity_label)
    except ValueError as e:
        return "refused", str(e)


def assert_same_verdict(labels, table, identity_label=None):
    want = verdict(reference, labels, table, identity_label)
    got = verdict(FiniteGroup.from_table, labels, table, identity_label)
    if want[0] == "ok":
        assert got == ("ok", FiniteGroup(tuple(labels), tuple(map(tuple, table)), want[1]))
    else:
        assert got == want
    return want[0]


def symmetric_group_3_table():
    perms = tuple(permutations(range(3)))
    return perms, tuple(tuple(perms.index(tuple(p[q[i]] for i in range(3))) for q in perms)
                        for p in perms)


def labels_and_table(group):
    return group.labels, group.table


Z2, Z3 = FiniteGroup.cyclic(2), FiniteGroup.cyclic(3)
GROUPS = {
    "cyclic:6": labels_and_table(FiniteGroup.cyclic(6)),
    "Z/2xZ/2": labels_and_table(FiniteGroup.direct_product(Z2, Z2)),
    "Z/2xZ/3": labels_and_table(FiniteGroup.direct_product(Z2, Z3)),
    "S3": symmetric_group_3_table(),
}

LABELS = ["e", "a", "b", "c", 0, 1, 2, 3]


@st.composite
def small_tables(draw):
    """Tables with n <= 4, often with a two-sided identity so that the
    inverse and associativity checks are reached, sometimes with a
    repeated label, a wrong shape or an entry out of range."""
    n = draw(st.integers(0, 4))
    labels = draw(st.permutations(LABELS))[:n]
    if n > 1 and draw(st.integers(0, 4)) == 0:
        labels[-1] = labels[0]
    table = [draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
             for _ in range(n)]
    if n and draw(st.booleans()):
        e = draw(st.integers(0, n - 1))
        for x in range(n):
            table[e][x] = table[x][e] = x
    flaw = draw(st.sampled_from([None, None, None, "range", "row", "rows"]))
    if n and flaw == "range":
        table[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(
            st.sampled_from([-1, n]))
    elif n and flaw == "row":
        table[draw(st.integers(0, n - 1))].append(0)
    elif flaw == "rows":
        table.append([0] * n)
    identity_label = draw(st.one_of(st.none(), st.sampled_from(LABELS)))
    return labels, table, identity_label


@settings(max_examples=600, derandomize=True, deadline=None)
@given(small_tables())
def test_from_table_agrees_with_the_reference_on_small_tables(case):
    assert_same_verdict(*case)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(data=st.data())
def test_from_table_agrees_with_the_reference_on_one_entry_corruptions(data):
    name = data.draw(st.sampled_from(sorted(GROUPS)))
    labels, table = GROUPS[name]
    n = len(labels)
    table = [list(row) for row in table]
    a, b = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    table[a][b] = data.draw(st.integers(-1, n))
    identity_label = data.draw(st.one_of(st.none(), st.sampled_from(labels)))
    assert_same_verdict(labels, table, identity_label)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_from_table_accepts_the_uncorrupted_groups(name):
    labels, table = GROUPS[name]
    assert assert_same_verdict(labels, table) == "ok"
    assert assert_same_verdict(labels, table, labels[0]) == "ok"


def test_associativity_is_checked_at_every_generator():
    # the law holds for c = 1 and every a, b, and fails only for c = 2,
    # the second element of the generating set
    table = [[0, 1, 2, 3], [1, 0, 2, 3], [2, 3, 0, 1], [3, 2, 1, 0]]
    assert FiniteGroup(tuple(range(4)), tuple(map(tuple, table)), 0).generating_set == (1, 2)
    assert all(table[table[a][b]][1] == table[a][table[b][1]]
               for a in range(4) for b in range(4))
    assert assert_same_verdict(range(4), table) == "refused"


def test_the_groups_built_without_a_check_pass_from_table():
    flipped = FiniteGroup.from_table(("s", "e"), [[1, 0], [0, 1]])
    assert flipped.identity == 1
    built = [FiniteGroup.trivial(), *map(FiniteGroup.cyclic, range(1, 8)),
             *(FiniteGroup.direct_product(g, h)
               for g, h in [(Z2, Z3), (flipped, Z3), (Z3, flipped), (flipped, flipped)])]
    for group in built:
        assert FiniteGroup.from_table(group.labels, group.table) == group


def greedy_generating_set(group):
    """The picks of ``generating_set``, every column rebuilt per step."""
    n = len(group)
    gens = []
    reached = {group.identity}
    while len(reached) < n:
        gens.append(next(x for x in range(n) if x not in reached))
        columns = [tuple(row[g] for row in group.table) for g in gens]
        reached = set(closure([group.identity], [c.__getitem__ for c in columns]))
    return tuple(gens)


def closed_group(spec):
    based = from_cartan_type(spec)
    gens = [(reflection(based.datum, i).on_characters, i) for i in based.base]
    return make_action(based.datum, gens).group


@pytest.mark.parametrize("spec, order", [("D4:sc", 192), ("B3:sc", 48)])
def test_the_closed_weyl_group_table_passes_from_table(spec, order):
    group = closed_group(spec)
    assert len(group) == order and group.identity == 0
    checked = FiniteGroup.from_table(group.labels, group.table)
    assert checked == group and checked.identity == 0
    assert checked.generating_set == group.generating_set == greedy_generating_set(group)
    if order <= 48:
        assert reference(group.labels, group.table) == 0


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_generating_set_picks_are_the_greedy_picks(name):
    group = FiniteGroup.from_table(*GROUPS[name])
    assert group.generating_set == greedy_generating_set(group)


# ---------------------------------------------------------------------------
# a document's group table: one parse error line per refusal, exit 2


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def a2_flip_with_group(group):
    obj = json.loads((GOLDEN / "A2-flip.datum").read_text())
    obj["actions"]["gamma"]["group"] = group
    return obj


@pytest.mark.parametrize("group, message", [
    ({"elements": ["e", "e"], "table": [[0, 1], [1, 0]]},
     "duplicate element labels"),
    ({"elements": [0, 1], "table": [[0, 1]]},
     "multiplication table has wrong shape"),
    ({"elements": [0, 1], "table": [[0, 1], [1, 2]]},
     "multiplication table entry out of range"),
    ({"elements": [0, 1], "table": [[0, 0], [0, 0]]},
     "no identity element"),
    ({"elements": [0, 1], "table": [[0, 1], [1, 0]], "identity": 1},
     "declared identity does not act as identity"),
    ({"elements": [0, 1, 2], "table": [[0, 1, 2], [1, 1, 1], [2, 1, 2]]},
     "element 1 has no inverse"),
    ({"elements": [0, 1, 2, 3],
      "table": [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 0], [3, 0, 1, 2]]},
     "multiplication table not associative"),
], ids=["duplicate", "shape", "range", "identity", "declared-identity", "inverse",
        "associativity"])
def test_each_group_table_refusal_is_one_parse_error_line(tmp_path, group, message):
    path = tmp_path / "group.datum"
    path.write_text(json.dumps(a2_flip_with_group(group)))
    code, out = run_cli("verify", str(path))
    assert code == 2
    assert out == f"parse error: {path}: actions.gamma.group: bad group table: {message}\n"


@pytest.mark.parametrize("labels, emitted", [
    ([0, 1], "cyclic:2"),
    (["e", "s"], {"elements": ["e", "s"], "table": [[0, 1], [1, 0]], "identity": "e"}),
])
def test_an_explicit_z2_table_emits_the_shorthand_only_on_integer_labels(labels, emitted):
    obj = a2_flip_with_group({"elements": labels, "table": [[0, 1], [1, 0]]})
    obj["actions"]["gamma"]["generators"][0]["element"] = labels[1]
    doc = parse_datum(json.dumps(obj))
    assert document_of(doc)["actions"]["gamma"]["group"] == emitted
