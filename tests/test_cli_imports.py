"""Each command imports only the modules it runs, and the package
resolves its re-exports lazily.

The import checks start a fresh interpreter per command, run the
command through ``cli.main`` and read back which ``rootfold`` modules it
left in ``sys.modules``, and which of the standard modules in ``HEAVY``
it added there.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rootfold

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "golden"

# what every command loads: the package, the CLI and what parse_datum runs
PARSE = {"rootfold", "rootfold.cli", "rootfold.errors", "rootfold.lattice",
         "rootfold.rootdatum", "rootfold.action"}

# standard modules that cost start-up time, none of which any command
# loads: ``fractions`` and the ``decimal`` it imports (only the tracer's
# ``lattice.mat_inverse_fractions`` builds a Fraction), and
# ``dataclasses`` and the ``inspect`` it imports
HEAVY = ("fractions", "decimal", "dataclasses", "inspect")

CHILD = """
import io, sys
before = set(sys.modules)
{setup}
loaded = sorted(m for m in sys.modules if m == "rootfold" or m.startswith("rootfold."))
added = set(sys.modules) - before
print(repr((code, loaded, [m for m in {heavy!r} if m in added])))
"""


def fresh(setup):
    """(code, rootfold modules, the ``HEAVY`` modules loaded) after
    running ``setup`` in a fresh interpreter; a module that start-up (its
    ``site``) had already loaded does not count as loaded by ``setup``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-c",
                          CHILD.format(setup=setup, heavy=HEAVY)],
                         env=env, cwd=GOLDEN, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    code, loaded, heavy = ast.literal_eval(run.stdout.splitlines()[-1])
    return code, set(loaded), set(heavy)


def run_command(argv):
    return fresh("from rootfold import cli\n"
                 f"code = cli.main({argv!r}, out=io.StringIO())")


@pytest.mark.parametrize("command", ["verify", "classify", "weyl"])
def test_document_checks_load_only_the_parser_modules(command):
    code, loaded, heavy = run_command([command, "A2-flip.datum"])
    assert code == 0
    assert loaded == PARSE
    assert not heavy


def test_fold_also_loads_folding():
    code, loaded, heavy = run_command(["fold", "A2-flip.datum"])
    assert code == 0
    assert loaded == PARSE | {"rootfold.folding"}
    assert not heavy


@pytest.mark.parametrize("argv", [
    ["star", "A2-flip.datum"],
    ["h1", "A1-z2.datum"],
    ["isoclass", "A2-flip.datum", "A2-flip.datum"],
], ids=["star", "h1", "isoclass"])
def test_twist_commands_also_load_twist(argv):
    code, loaded, heavy = run_command(argv)
    assert code == 0
    assert loaded == PARSE | {"rootfold.twist"}
    assert not heavy


def test_selftest_loads_neither_dataclasses_nor_inspect():
    # selftest imports every module of the package
    code, loaded, heavy = run_command(["selftest"])
    assert code == 0
    assert loaded == PARSE | {"rootfold.folding", "rootfold.twist",
                              "rootfold.selftest"}
    assert not heavy


def test_a_bare_package_import_loads_no_submodule():
    code, loaded, heavy = fresh("import rootfold\ncode = 0")
    assert loaded == {"rootfold"}
    assert not heavy


@pytest.mark.parametrize("name", rootfold.__all__)
def test_every_export_is_the_submodules_current_object(name, monkeypatch):
    original = getattr(rootfold, name)
    module = sys.modules[original.__module__]
    assert module.__name__.startswith("rootfold.")
    assert getattr(module, name) is original
    # resolved on every access, never stored on the package
    assert name not in vars(rootfold)
    stand_in = object()
    monkeypatch.setattr(module, name, stand_in)
    assert getattr(rootfold, name) is stand_in
    monkeypatch.undo()
    assert getattr(rootfold, name) is original
    assert name not in vars(rootfold)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from rootfold import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(rootfold.__all__)
    assert len(rootfold.__all__) == len(set(rootfold.__all__))
    assert set(rootfold.__all__) <= set(dir(rootfold))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        rootfold.no_such_name
    with pytest.raises(ImportError):
        from rootfold import no_such_name  # noqa: F401
