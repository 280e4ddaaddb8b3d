"""Structural checks on the package source."""

import ast
from pathlib import Path

import toricdm

PACKAGE = Path(toricdm.__file__).parent


def private_imports(path):
    """(module, name) for each name starting with ``_`` that the file imports
    from a sibling module of the package."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level > 0 or (node.module or "").split(".")[0] == "toricdm":
            found += [(node.module, alias.name) for alias in node.names
                      if alias.name.startswith("_")]
    return found


def typing_imports(path):
    """Line numbers of the file's imports of ``typing``: every module
    postpones its annotations, so none needs it at run time."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        if any(module.split(".")[0] == "typing" for module in modules):
            found.append(node.lineno)
    return found


def test_no_private_imports_between_modules():
    offenders = {path.name: private_imports(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert len(offenders) >= 9
    assert {name: found for name, found in offenders.items() if found} == {}


def test_detects_a_private_import(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("from .lattice import IntegerMatrix, _hidden\n"
                    "from toricdm.fans import _other\n"
                    "from os import _exit\n")
    assert private_imports(path) == [("lattice", "_hidden"), ("toricdm.fans", "_other")]


def test_no_module_imports_typing():
    offenders = {path.name: typing_imports(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert len(offenders) >= 9
    assert {name: lines for name, lines in offenders.items() if lines} == {}


def test_detects_a_typing_import(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("import os, typing\n"
                    "from typing import Any\n"
                    "import typing_extensions\n"
                    "from .typing import local\n")
    assert typing_imports(path) == [1, 2]


# All that the oracles import from the package: two carrier types, the value
# base and the error a verifier raises when it cannot answer.
ORACLE_IMPORTS = {("errors", "TooLargeError"), ("errors", "Value"),
                  ("lattice", "IntegerMatrix"), ("lattice", "SnfDecomposition")}


def package_imports(path):
    """(module, name) for each name the file imports from the package, the
    module relative to the package: ``from . import fans`` gives ("", "fans")
    and ``import toricdm.fans`` gives ("fans", "")."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level > 0 or module.split(".")[0] == "toricdm":
                if node.level == 0:
                    module = module.partition(".")[2]
                found += [(module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(alias.name.partition(".")[2], "") for alias in node.names
                      if alias.name.split(".")[0] == "toricdm"]
    return found


def test_oracle_shares_only_the_carrier_types():
    found = package_imports(PACKAGE / "oracle.py")
    assert found and set(found) - ORACLE_IMPORTS == set()


def test_detects_an_oracle_import_of_the_main_path(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("from .lattice import IntegerMatrix, cokernel\n"
                    "from toricdm.errors import Value\n"
                    "from . import stacky\n"
                    "import os, toricdm.fans\n"
                    "from os import path\n")
    found = package_imports(path)
    assert found == [("lattice", "IntegerMatrix"), ("lattice", "cokernel"),
                     ("errors", "Value"), ("", "stacky"), ("fans", "")]
    assert set(found) - ORACLE_IMPORTS == {("lattice", "cokernel"), ("", "stacky"),
                                           ("fans", "")}
