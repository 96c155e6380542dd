"""Raw and code lines of each module of src/aphi, and their totals.

A code line holds at least one token that is not a comment and is not
part of a docstring (of a module, class or function); blank lines,
comment lines and docstring lines are not code.  Run from anywhere:

    python scripts/count_src_lines.py
"""
import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "aphi"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef)) and node.body
                and isinstance(node.body[0], ast.Expr)
                and isinstance(node.body[0].value, ast.Constant)
                and isinstance(node.body[0].value.value, str)):
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstrings)


def main() -> None:
    raw_total = code_total = 0
    print(f"{'module':<16}{'raw':>6}{'code':>6}")
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        raw, code = len(text.splitlines()), code_lines(text)
        raw_total, code_total = raw_total + raw, code_total + code
        print(f"{path.name:<16}{raw:>6}{code:>6}")
    print(f"{'total':<16}{raw_total:>6}{code_total:>6}")


if __name__ == "__main__":
    main()
