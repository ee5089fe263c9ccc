import ast
import os
import subprocess
import sys
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


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # every `initalg` command pays this import: dataclasses brings inspect,
    # dis, ast and tokenize, and each decorator execs generated methods
    code = ("import sys; before = set(sys.modules); import initalg.cli; "
            "print(*sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    assert proc.stdout.split() == [], f"import initalg.cli loads {proc.stdout.split()}"


def test_no_unused_imports_in_library():
    # a removal can leave its imports behind; `__init__` imports to re-export
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [
                    f"{path.name}:{node.lineno} {name}"
                    for name in (alias.asname or alias.name.split(".")[0] for alias in node.names)
                    if name not in used
                ]
    assert not found, f"unused imports in src/initalg: {found}"



def _only_forwards_to_super_init(function: ast.FunctionDef) -> bool:
    # the body, past a docstring, is `super().__init__(a, b, ...)` of the parameters as they came
    body = function.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    params = ", ".join(arg.arg for arg in function.args.args[1:])
    return len(body) == 1 and ast.unparse(body[0]) == f"super().__init__({params})"


def test_value_classes_declare_their_fields_once():
    # `_Value` binds, compares and hashes the annotated fields: no `__init__`
    # only passes its arguments on, and a hand-written __eq__ or __hash__
    # outside `_Value` and `Polynomial` has its measured reason in the
    # comment line just above it
    forwarding, unexplained = [], []
    for path in sorted(SRC.glob("*.py")):
        lines = path.read_text().splitlines()
        for cls in ast.walk(ast.parse("\n".join(lines), str(path))):
            if not isinstance(cls, ast.ClassDef):
                continue
            methods = {node.name: node for node in cls.body if isinstance(node, ast.FunctionDef)}
            if "__init__" in methods and _only_forwards_to_super_init(methods["__init__"]):
                forwarding.append(f"{path.name}:{methods['__init__'].lineno} {cls.name}")
            copies = [methods[name] for name in ("__eq__", "__hash__") if name in methods]
            if (copies and cls.name not in ("_Value", "Polynomial")
                    and not lines[copies[0].lineno - 2].lstrip().startswith("#")):
                unexplained.append(f"{path.name}:{copies[0].lineno} {cls.name}")
    assert not forwarding, f"__init__ that only calls super().__init__: {forwarding}"
    assert not unexplained, f"__eq__/__hash__ with no reason comment above: {unexplained}"
