import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "stochconv"


def test_no_imports_inside_function_bodies():
    # a function-local import hides a dependency (often an import cycle)
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            name = getattr(func, "name", "lambda")
            for node in ast.walk(func):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    offenders.append(f"{path.name}:{node.lineno} in {name}")
    assert offenders == []
