"""The runtime needs only the standard library: every absolute import in
the package names a standard-library module."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parent.parent / "src" / "qcspend"


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_imports_only_the_standard_library(module):
    tree = ast.parse((PACKAGE / module).read_text(), module)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    outside = sorted(n for n in names if n.split(".")[0] not in sys.stdlib_module_names)
    assert not outside, f"{module} imports {outside}"
