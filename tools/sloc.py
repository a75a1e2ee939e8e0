"""Count the code lines of a Python package: lines that hold a token of
code, not counting blank lines, comments or docstrings (the leading
string of a module, class or function).  Standard library only.

    python tools/sloc.py [DIRECTORY]      # default: src/rootfold

Prints one line per file and the total.
"""

from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text):
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(text)))


def main(argv):
    root = pathlib.Path(argv[0] if argv else "src/rootfold")
    total = 0
    for path in sorted(root.rglob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
