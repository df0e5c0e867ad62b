import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import stochconv

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


def test_import_loads_neither_scipy_fft_nor_scipy_signal():
    # each costs about 100 ms and 5 MB per run on import; the lag engine uses numpy.fft
    code = "import sys, stochconv; print(sorted(m for m in ('scipy.fft', 'scipy.signal') if m in sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"


def test_import_loads_no_scipy_module():
    # scipy.linalg alone cost about 255 ms of a 426 ms import, for hilbert's expm only
    code = "import sys, stochconv.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"


def test_every_all_name_resolves_once():
    # a name deleted from a module but left in an __all__ breaks `from stochconv import *`
    modules = [stochconv] + [
        importlib.import_module(f"stochconv.{path.stem}")
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "__init__"
    ]
    problems = []
    for module in modules:
        names = getattr(module, "__all__", [])
        problems += [f"{module.__name__}: duplicate {n}" for n in set(names) if names.count(n) > 1]
        problems += [f"{module.__name__}.{n}" for n in names if not hasattr(module, n)]
    assert problems == []
