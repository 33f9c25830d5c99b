"""The function-body statements of src/sl3frieze that no golden CLI command runs.

Runs ``test_golden_cli.run_corpus`` in a temporary directory under
``sys.settrace`` (standard library only) and prints, per module, each
statement inside a function body that never ran, with the function it is in.
Docstrings are not statements. A statement counts as run when any line of its
header ran: the whole of a simple statement, or a compound statement's lines
up to its body. Report only; it exits 0 whatever it finds.

    PYTHONPATH=src python tests/corpus_trace.py
"""

import ast
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import sl3frieze  # noqa: E402
from test_golden_cli import run_corpus  # noqa: E402

PACKAGE = Path(sl3frieze.__file__).parent


def _header_lines(stmt: ast.stmt) -> range:
    """The lines of a statement up to its body (all of a simple statement)."""
    start = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
    body = getattr(stmt, "body", None)
    if isinstance(body, list) and body:
        return range(start, max(stmt.lineno, body[0].lineno - 1) + 1)
    return range(start, stmt.end_lineno + 1)


def _is_docstring(node, field: str, index: int, child) -> bool:
    return (field == "body" and index == 0 and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant)
            and isinstance(child.value.value, str))


def function_statements(source: str) -> list:
    """(qualified function name, statement) for every statement inside a
    function body, nested bodies included, docstrings left out."""
    found = []

    def visit(node, qualname: str, in_function: bool):
        for field in ("body", "orelse", "finalbody", "handlers", "cases"):
            for i, child in enumerate(getattr(node, field, None) or []):
                if in_function and isinstance(child, ast.stmt) and not _is_docstring(node, field, i, child):
                    found.append((qualname, child))
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    name = f"{qualname}.{child.name}" if qualname else child.name
                    visit(child, name, in_function or not isinstance(child, ast.ClassDef))
                else:
                    visit(child, qualname, in_function)

    visit(ast.parse(source), "", False)
    return found


def run_lines() -> dict:
    """file name -> the lines of the package's code that ran in the corpus."""
    ran = {}
    root = str(PACKAGE)

    def local(frame, event, arg):
        if event == "line":
            ran.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(root) else None

    with tempfile.TemporaryDirectory() as tmp:
        sys.settrace(calls)
        try:
            run_corpus(Path(tmp))
        finally:
            sys.settrace(None)
    return ran


def main() -> int:
    ran = run_lines()
    total = unrun_total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        executed = ran.get(str(path), set())
        statements = function_statements(source)
        unrun = [(name, stmt) for name, stmt in statements
                 if not executed.intersection(_header_lines(stmt))]
        total += len(statements)
        unrun_total += len(unrun)
        print(f"{path.name}: {len(unrun)} of {len(statements)} function-body statements not run")
        for name, stmt in unrun:
            print(f"  {stmt.lineno:5d} {name}: {lines[stmt.lineno - 1].strip()}")
    print(f"src/sl3frieze: {unrun_total} of {total} function-body statements not run by the golden corpus")
    return 0


if __name__ == "__main__":
    sys.exit(main())
