"""The code-line counter in ``tools/sloc.py``."""

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "sloc.py"
spec = importlib.util.spec_from_file_location("sloc", TOOL)
sloc = importlib.util.module_from_spec(spec)
spec.loader.exec_module(sloc)

SAMPLE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps the line


# a comment line
class A:
    """Class docstring."""

    def f(self, x):
        """Function docstring."""
        text = """a string that is
        not a docstring"""
        return (x +
                1)
'''


def test_counts_code_only():
    # import, class, def, the two-line string, the two-line return
    assert sloc.code_lines(SAMPLE) == 7


def test_package_total_is_printed(capsys):
    root = TOOL.parent.parent / "src" / "rootfold"
    assert sloc.main([str(root)]) == 0
    last = capsys.readouterr().out.splitlines()[-1].split()
    assert last[1] == "total" and int(last[0]) > 0
