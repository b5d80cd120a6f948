"""Count the lines of each module of src/broydenlab, as `wc -l` does, and its
code lines: every line that is not blank, holds only a comment, or belongs
to a module, class or function docstring (found with ``ast``).

    python3 tools/code_lines.py [SRC_DIR]

prints one line per module, ``<lines> <code lines> <name>``, then the totals.
"""
from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that are not blank, comment-only or
    docstring lines."""
    lines = source.splitlines()
    other = {i for i, line in enumerate(lines, 1) if not line.strip()}
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT and not tok.line[:tok.start[1]].strip():
            other.add(tok.start[0])
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            other.update(range(doc.lineno, doc.end_lineno + 1))
    return len(lines) - len(other)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", default=ROOT / "src" / "broydenlab", type=Path)
    args = parser.parse_args(argv)
    total = code = 0
    for path in sorted(args.src.glob("*.py")):
        source = path.read_text()
        n, c = len(source.splitlines()), code_lines(source)
        total, code = total + n, code + c
        print(f"{n:6d} {c:6d} {path.name}")
    print(f"{total:6d} {code:6d} total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
