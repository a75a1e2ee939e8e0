"""CLI stdout, byte for byte, against a recorded snapshot.

``cli_stdout.json`` maps each request (its argv joined by spaces) to
the exit code and stdout it gave when it was recorded.  The requests
run in a scratch directory that holds every ``golden/`` document and
five documents derived from them by adding a Galois action, so that
``h1`` and ``isoclass`` also see cases beyond the A1 pair.

To re-record after an intended change of output:

    PYTHONPATH=src python tests/test_cli_snapshot.py
"""

import io
import json
import pathlib
import sys

import pytest

from rootfold.cli import main

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN = HERE.parent / "golden"
SNAPSHOT = HERE / "cli_stdout.json"


def _galois_block(matrix):
    return {"role": "galois", "group": "cyclic:2",
            "generators": [{"element": 1, "matrix": matrix}]}


def _neg(n):
    return [[-int(i == j) for j in range(n)] for i in range(n)]


def _ident(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


# name of the derived document, golden source, Galois generator
DERIVED = (
    ("A2sc-galois.datum", "A2sc.datum", _ident(2)),
    ("A2-flip-galois.datum", "A2-flip.datum", _neg(2)),
    ("A3-flip-galois.datum", "A3-flip.datum", _neg(3)),
    ("A1xA1-swap-galois.datum", "A1xA1-swap.datum", [[0, 1], [1, 0]]),
    ("D4-triality-galois.datum", "D4-triality.datum", _neg(4)),
)


def documents():
    """{file name: text} of every document the requests read."""
    docs = {p.name: p.read_text() for p in sorted(GOLDEN.glob("*.datum"))}
    for name, source, matrix in DERIVED:
        obj = json.loads(docs[source])
        obj.setdefault("actions", {})["galois"] = _galois_block(matrix)
        docs[name] = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    return docs


def requests(docs):
    """Every command on every document (``fold`` also with
    ``--char-two``); ``isoclass`` pairs documents of the same rank (the
    search refuses action groups that differ)."""
    rank = {name: json.loads(text)["rank"] for name, text in docs.items()}
    out = []
    for name in sorted(docs):
        actions = sorted(json.loads(docs[name]).get("actions", {}))
        out.extend((command, name) for command in ("verify", "classify", "weyl"))
        out.append(("fold", name))
        out.append(("fold", name, "--char-two"))
        out.append(("star", name))
        out.extend(("star", name, "--action", a) for a in actions)
        out.append(("h1", name))
        out.append(("h1", name, "--image"))
        out.append(("h1", name, "--module", "aut-gamma"))
        out.extend(("isoclass", name, other) for other in sorted(docs)
                   if rank[other] == rank[name])
    out.append(("selftest",))
    out.append(("selftest", "--slow"))
    return out


def run(argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return {"code": code, "stdout": out.getvalue()}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("snapshot")
    for name, text in documents().items():
        (path / name).write_text(text)
    return path


def test_snapshot_covers_every_request():
    recorded = json.loads(SNAPSHOT.read_text())
    assert sorted(recorded) == sorted(" ".join(r) for r in requests(documents()))


@pytest.mark.parametrize("argv", requests(documents()), ids=" ".join)
def test_cli_stdout_matches_snapshot(argv, workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    expected = json.loads(SNAPSHOT.read_text())[" ".join(argv)]
    assert run(argv) == expected


def record():
    import os
    import tempfile

    docs = documents()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in docs.items():
            pathlib.Path(tmp, name).write_text(text)
        os.chdir(tmp)
        try:
            snapshot = {" ".join(r): run(r) for r in requests(docs)}
        finally:
            os.chdir(cwd)
    SNAPSHOT.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    record()
    sys.exit(0)
