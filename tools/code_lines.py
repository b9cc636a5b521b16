"""Count the code lines of Python modules: lines that hold a token other than
a comment, outside docstrings.  Blank lines, comment lines and the lines of
module, class and function docstrings do not count; a line of a string
that spans lines (not a docstring) does.

    python tools/code_lines.py              # the package, per module and in total
    python tools/code_lines.py a.py b.py    # the named files
"""

import ast
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "oced_forge"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    docstrings = _docstring_lines(ast.parse(path.read_bytes()))
    with path.open("rb") as fh:
        lines = {
            line
            for token in tokenize.tokenize(fh.readline)
            if token.type not in _NOT_CODE and token.type != tokenize.ENCODING
            for line in range(token.start[0], token.end[0] + 1)
        }
    return len(lines - docstrings)


def main(argv: list[str]) -> int:
    paths = [Path(arg) for arg in argv] or sorted(PACKAGE.glob("*.py"))
    counts = {str(path) if argv else path.name: code_lines(path) for path in paths}
    counts["total"] = sum(counts.values())
    width = max(map(len, counts))
    for name, count in counts.items():
        print(f"{name:<{width}}  {count:>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
