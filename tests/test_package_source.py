import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cartancover"


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so no check in the package may be one
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert found == []
