"""The package's public surface."""
import ast
from pathlib import Path

import fracdim

SRC = Path(fracdim.__file__).resolve().parent


def test_every_export_is_used_by_the_package():
    # a public name that only tests call is API the solve path does not
    # need; a definition, a docstring or an import is not a use
    used = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(set(fracdim.__all__) - used) == []
