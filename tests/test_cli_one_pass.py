"""Each pair command computes in one loop and picks table or JSON once.

An AST scan of ``braceforge/cli.py``: a command that tests ``args.format``
inside its loops renders while it checks, and a second loop over the
carriers is a second copy of the enumeration.
"""

import ast
from pathlib import Path

from braceforge import cli

TREE = ast.parse(Path(cli.__file__).read_text(), filename=cli.__file__)
FUNCTIONS = [node for node in TREE.body if isinstance(node, ast.FunctionDef)]


def _is_args_format(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "format"
        and isinstance(node.value, ast.Name)
        and node.value.id == "args"
    )


def test_each_command_compares_the_format_at_most_once():
    counts = {
        fn.name: sum(
            isinstance(node, ast.Compare)
            and any(_is_args_format(x) for x in [node.left, *node.comparators])
            for node in ast.walk(fn)
        )
        for fn in FUNCTIONS
        if fn.name.startswith("cmd_")
    }
    assert len(counts) == 5
    assert all(n <= 1 for n in counts.values()), counts


def test_only_the_carrier_loop_iterates_the_carriers():
    loops = [
        (fn.name, node.iter.lineno)
        for fn in FUNCTIONS
        for node in ast.walk(fn)
        if isinstance(node, (ast.For, ast.comprehension))
        and isinstance(node.iter, ast.Subscript)
        and isinstance(node.iter.value, ast.Name)
        and node.iter.value.id == "_KINDS"
    ]
    assert [name for name, _ in loops] == ["_classes"], loops
