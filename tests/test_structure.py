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
