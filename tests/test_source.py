import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "loopzip"


def test_no_assert_statements_in_src():
    # python -O strips assert statements, so runtime guards must raise
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 10
    found = []
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []
