"""Count the code lines of each `src/gradus` module and their total.

A code line is a non-blank line that is neither a comment line nor part of
a docstring (the string that opens a module, class or function body, as
`ast` finds it).  This is the size rule that "net `src/` code lines" means:

    PYTHONPATH=src python -m tests.count_code_lines
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gradus"


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers that a docstring of the tree covers."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    text = path.read_text(encoding="utf-8")
    skip = docstring_lines(ast.parse(text))
    return sum(
        1
        for number, line in enumerate(text.splitlines(), 1)
        if line.strip() and not line.strip().startswith("#") and number not in skip
    )


def main():
    total = 0
    for path in sorted(SRC.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.stem:12} {count:5}")
    print(f"{'total':12} {total:5}")


if __name__ == "__main__":
    main()
