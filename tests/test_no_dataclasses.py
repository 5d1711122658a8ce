"""The package's records are ``typing.NamedTuple``s, not dataclasses."""

import ast
from pathlib import Path

import braceforge

PACKAGE = Path(braceforge.__file__).parent


def test_package_does_not_import_dataclasses():
    # dataclass code generation at import is a fixed cost of every CLI
    # process (README: "What one CLI process costs").
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for n in names if n == "dataclasses"]
    assert not found, f"dataclasses imported in the package: {found}"
