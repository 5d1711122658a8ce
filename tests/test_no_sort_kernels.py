"""The package calls none of numpy's sorting and set primitives."""

import ast
from pathlib import Path

import braceforge

PACKAGE = Path(braceforge.__file__).parent

# The first call to any of these in a process pages in numpy's SIMD sort
# code: 0.2-0.45 MiB of resident memory each, 0.8 MiB for the four forms the
# package once called (numpy 2.4), in every CLI process that calls them.  The
# package gets the same results from boolean masks over index ranges
# (algebra._distinct, algebra._permutation_rows), np.searchsorted and
# Python's sorted.
FORBIDDEN = {
    "sort",
    "unique",
    "isin",
    "in1d",
    "argsort",
    "lexsort",
    "intersect1d",
    "setdiff1d",
    "union1d",
}


def test_package_calls_no_numpy_sort_kernel():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "numpy":
                names = {a.name for a in node.names} & FORBIDDEN
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in {"np", "numpy"}
            ):
                names = {node.attr} & FORBIDDEN
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in sorted(names)]
    assert not found, f"numpy sort or set primitives in the package: {found}"
