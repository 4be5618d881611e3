"""The package's public surface and what it imports."""
import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import fracdim
from fracdim import assembly

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
    # no import names a private third-party module; the one private piece
    # the package uses is the file of scipy's compiled CSR kernels, which
    # assembly loads without importing scipy.sparse
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
    assert private == set()
    scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
    kernels = Path(assembly._sparsetools.__file__)
    assert kernels.parent == Path(scipy_dir) / "sparse"
    assert kernels.name.split(".")[0] == "_sparsetools"
    assert "_sparsetools" not in sys.modules


def test_a_solve_imports_no_scipy_sparse():
    # importing scipy.sparse wakes numpy.f2py and numpy.testing through
    # scipy's array-API layer and takes longer than a small solve; a fresh
    # process that imports the CLI and runs one solve must not load them
    code = ("import sys, fracdim.cli\n"
            "fracdim.cli.run(['certify', '--alphabet', '1,2', '--h', '1/64',"
            " '--out', sys.argv[1]])\n"
            "print(sorted({'scipy.sparse', 'numpy.f2py', 'numpy.testing'}"
            " & set(sys.modules)))")
    assert fresh_process(code, os.devnull) == "[]"


def test_cli_import_loads_no_pools():
    # assembly deals its blocks to threads through `threading`, which the
    # interpreter loads anyway; concurrent.futures imports logging, 8-10
    # ms of every invocation, and neither it nor multiprocessing may load
    code = ("import sys, fracdim.cli\n"
            "print(sorted({'concurrent.futures', 'multiprocessing'}"
            " & set(sys.modules)))")
    assert fresh_process(code) == "[]"


def fresh_process(code: str, *args: str) -> str:
    """The stripped stdout of `python -c code args` in a fresh process that
    imports fracdim from this tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code, *args], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_every_definition_is_used():
    # every module-level function or class and every method but a dunder
    # is named somewhere in the package outside its own definition: code
    # that nothing calls is code to delete (an import is not a use)
    defs, uses = [], []
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((path, node))
            if isinstance(node, ast.ClassDef):
                defs += [(path, item) for item in node.body
                         if isinstance(item, ast.FunctionDef)
                         and not item.name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                uses.append((getattr(node, "id", None) or node.attr, path,
                             node.lineno))
    unused = [f"{path.name}:{node.name}" for path, node in defs
              if not any(name == node.name and not (
                  where == path and node.lineno <= line <= node.end_lineno)
                  for name, where, line in uses)]
    assert unused == []
