"""Line counts of the package: all lines, and code lines only.

For each file under ``src/seqmatch``, and in total, it prints the line
count and the code-line count.  A code line is not blank, not a comment
alone and not part of a docstring: the string that opens a module,
class or function body, as ``ast`` finds it.  Run from the repository
root:

    python tools/loc.py
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "seqmatch"

# tokens that carry no code: a line holding only these is not counted
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(source):
    """``(lines, code_lines)`` of one Python source text."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            # a string spanning lines makes each of them a code line
            code.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _BODIES) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            code.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(source.splitlines()), len(code)


def main():
    rows = [(path.relative_to(PACKAGE).as_posix(), *count(path.read_text()))
            for path in sorted(PACKAGE.rglob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print("file\tlines\tcode")
    for name, lines, code in rows:
        print(f"{name}\t{lines}\t{code}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
