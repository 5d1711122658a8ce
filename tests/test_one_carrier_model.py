"""Both carriers run one code path: A = Z_m^r x Z_q.

An AST scan of ``braceforge/algebra.py`` and ``braceforge/brace.py``: the
carrier's kind may be tested only where it names something outside the
arithmetic, namely the shape (m, r) set in ``GroupSpec.__init__``, the
external descriptor format of ``aut_lookup`` and ``aut_desc``, and the
closed form of ``aut_group_order``.  Anywhere else a ``Kind.CYCLIC`` or
``Kind.MIXED`` is a second copy of an operation.
"""

import ast
from pathlib import Path

from braceforge import algebra, brace

ALLOWED = {
    "GroupSpec.__init__",
    "GroupSpec.aut_lookup",
    "GroupSpec.aut_desc",
    "aut_group_order",
}


def _kind_tests(module) -> list[tuple[str, int]]:
    """(qualified function name, line) of each Kind.CYCLIC or Kind.MIXED in
    the module's source; '<module>' outside any function."""
    found = []

    def visit(node: ast.AST, scope: list[str]) -> None:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = scope + [node.name]
        if (
            isinstance(node, ast.Attribute)
            and node.attr in ("CYCLIC", "MIXED")
            and isinstance(node.value, ast.Name)
            and node.value.id == "Kind"
        ):
            found.append((".".join(scope) or "<module>", node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    path = Path(module.__file__)
    visit(ast.parse(path.read_text(), filename=str(path)), [])
    return found


def test_brace_never_tests_the_kind():
    assert _kind_tests(brace) == []


def test_algebra_tests_the_kind_only_outside_the_arithmetic():
    found = _kind_tests(algebra)
    assert [(fn, line) for fn, line in found if fn not in ALLOWED] == []
