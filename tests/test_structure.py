import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "stochconv"


def test_only_hilbert_decides_how_to_evaluate_the_semigroup():
    # S(j dt) is decided by hilbert.lag_operators; other modules apply its operators
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "hilbert.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "is_diagonal":
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


SCHEMA_KEYS = {"rates", "generator", "eigenvalues", "rows", "operator", "operators"}


def _key_reads(tree):
    """Line numbers of ``x["key"]`` and ``x.get("key", ...)`` reads of a schema key."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript):
            key = node.slice
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "get" and node.args):
            key = node.args[0]
        else:
            continue
        if isinstance(key, ast.Constant) and key.value in SCHEMA_KEYS:
            yield node.lineno


def test_only_config_reads_the_scenario_schema():
    # config.py parses the JSON once into typed objects; everything else reads those
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "config.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{path.name}:{line}" for line in _key_reads(tree)]
    assert offenders == []
