"""Per-carrier tables live on their ``GroupSpec``, not in module-level caches."""

import ast
from pathlib import Path

import braceforge

PACKAGE = Path(braceforge.__file__).parent

# functools' memoizing decorators key on their arguments, a GroupSpec among
# them, and keep every key alive until the process ends.
FORBIDDEN = {"lru_cache", "cache"}


def test_package_applies_no_functools_cache():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                names = {a.name for a in node.names} & FORBIDDEN
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "functools"
            ):
                names = {node.attr} & FORBIDDEN
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in sorted(names)]
    assert not found, f"functools caches in the package: {found}"
