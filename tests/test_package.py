"""The package's public surface."""
import ast
import sys
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


def test_imports_are_stdlib_numpy_scipy_or_fracdim():
    # scipy.sparse._sparsetools, whose csr_matvec a product calls block by
    # block, is the one private third-party module the package may use
    private = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert (top in sys.stdlib_module_names
                        or top in ("numpy", "scipy", "fracdim")), name
                if top in ("numpy", "scipy") and any(
                        part.startswith("_") for part in name.split(".")):
                    private.add(name)
    assert private == {"scipy.sparse._sparsetools"}
