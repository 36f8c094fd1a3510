#!/usr/bin/env python3
"""Count the lines of the `ladrating` package, per module and in total.

    python3 scripts/src_lines.py

Prints one row per module of `src/ladrating`: its lines, and its code
lines. Code lines leave out blank lines, comment-only lines and the lines of
docstrings (module, class and function); every line that holds any other
token counts once, a line inside a multi-line string or expression
included. Standard library only (`tokenize` and `ast`).
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ladrating"

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def count(source: str) -> tuple[int, int]:
    """The lines of `source` and its code lines."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                doc = node.body[0]
                code.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(source.splitlines()), len(code)


def main(src: Path = SRC) -> int:
    rows = [(path.name, *count(path.read_text(encoding="utf-8"))) for path in sorted(src.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(name) for name, _, _ in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, lines, code in rows:
        print(f"{name:<{width}}  {lines:>6}  {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
