"""Output does not depend on the hash seed.

Root permutations are ``bytes`` up to 256 roots, and the hash of bytes
changes with PYTHONHASHSEED (that of a tuple of ints does not).  So a
set of permutations iterated into an output or an order would show up
here: a child interpreter runs under two seeds, replays every request
of ``cli_stdout.json`` through ``cli.main`` and prints the closure
orders of the folding table and the cocycle orders and classes of the
H1 cases.  Both runs must agree, and the CLI part must equal the
snapshot.

Run by hand as ``python tests/test_hash_seed.py`` to print what one
child prints.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def cli_outputs():
    from test_cli_snapshot import documents, requests, run

    docs = documents()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in docs.items():
            Path(tmp, name).write_text(text)
        os.chdir(tmp)
        try:
            return {" ".join(r): run(r) for r in requests(docs)}
        finally:
            os.chdir(cwd)


def listed(perms):
    return [list(p) for p in perms]


def fold_orders():
    """Per folding-table case, W and W^Gamma in closure order."""
    from rootfold.action import fixed_weyl, make_action
    from rootfold.rootdatum import from_cartan_type, weyl_group
    from rootfold.selftest import FOLD_TABLE

    out = {}
    for name, spec, builder, *_ in FOLD_TABLE:
        based = from_cartan_type(spec)
        action = make_action(based, [(builder(), "g")])
        out[name] = {"weyl": listed(weyl_group(based.datum).perms),
                     "fixed": listed(fixed_weyl(action).perms)}
    return out


def h1_orders():
    """Per H1 case, the cocycles of ``z1_enumerate`` in order and the
    classes of ``h1_with_image`` as positions in that list."""
    from rootfold.action import FiniteGroup, make_action
    from rootfold.rootdatum import from_cartan_type
    from rootfold.twist import h1_with_image
    from test_h1_reference import H1_CASES

    out = {}
    for name, spec, galois_matrix, gamma_matrix in H1_CASES:
        based = from_cartan_type(spec)
        datum = based.datum
        galois = make_action(datum, [(galois_matrix(datum.rank), 1)],
                             group=FiniteGroup.cyclic(2))
        gamma = None if gamma_matrix is None else make_action(
            based, [(gamma_matrix, "s")])
        report = h1_with_image(based, galois, gamma)
        cocycles = report.module_classes.cocycles
        position = {c.value_perms: i for i, c in enumerate(cocycles)}
        out[name] = {
            "cocycles": [listed(c.value_perms) for c in cocycles],
            "classes": [[[position[c.value_perms] for c in cls]
                         for cls in classes.classes]
                        for classes in (report.module_classes, report.image_classes)],
        }
    return out


def child_report():
    return {"cli": cli_outputs(), "fold": fold_orders(), "h1": h1_orders()}


def run_child(seed):
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    run = subprocess.run([sys.executable, __file__], env=env, capture_output=True,
                         text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


def test_output_is_the_same_under_two_hash_seeds():
    first, second = run_child(0), run_child(1)
    assert first == second
    snapshot = json.loads((HERE / "cli_stdout.json").read_text())
    assert first["cli"] == snapshot


if __name__ == "__main__":
    sys.path[:0] = [str(SRC), str(HERE)]
    print(json.dumps(child_report(), sort_keys=True))
