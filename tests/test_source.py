import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "initalg"


def test_no_assert_statements_in_library():
    # `python -O` strips assert statements, so invariant checks must raise
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in src/initalg: {found}"


def test_no_function_local_imports():
    # imports belong at module level, where import cost and cycles show
    found = [
        f"{path.name}:{inner.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    ]
    assert not found, f"function-local imports in src/initalg: {found}"
