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


# Defaulted parameters that only callers outside the package pass: the
# command-line entry points read ``sys.argv`` unless a caller gives the list.
EXTERNAL_DEFAULTS = {"cli.run:argv", "cli.main:argv"}


def unpassed_defaults(paths):
    """``module.function:parameter`` for each parameter with a default that
    no call in the files passes, by keyword or by position.

    A call is matched by the name it calls: a function's or method's own
    name, and for an ``__init__`` the name of its class, of a subclass that
    inherits it, or ``cls`` inside the class.  A call with ``*args`` or
    ``**kwargs`` passes every parameter it could reach.
    """
    defaults, calls, bases, own_init = [], [], {}, set()

    def visit(node, module, prefix, owner, enclosing):
        """``owner`` is the class whose body ``node`` is, ``enclosing`` the
        innermost class around it."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                bases[child.name] = [b.id for b in child.bases if isinstance(b, ast.Name)]
                visit(child, module, f"{prefix}{child.name}.", child.name, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.append((enclosing if name == "cls" else name, child))
            if isinstance(child, ast.FunctionDef):
                args = child.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                params = {a.arg: i for i, a in enumerate(positional) if i >= first}
                params.update((a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                              if d is not None)
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in child.decorator_list)
                if owner and child.name == "__init__":
                    own_init.add(owner)
                defaults.append((f"{module}.{prefix}{child.name}", owner, child.name,
                                 int(bool(owner) and not static), params))
                visit(child, module, f"{prefix}{child.name}.", None, enclosing)
            else:
                visit(child, module, prefix, owner, enclosing)

    for path in paths:
        visit(ast.parse(path.read_text(), str(path)), path.stem, "", None, None)

    def init_owner(cls):
        """The class whose ``__init__`` a call of ``cls`` runs, if it is here."""
        if cls in own_init:
            return cls
        return next((owner for base in bases.get(cls, ()) if (owner := init_owner(base))), None)

    found = []
    for qualname, owner, name, offset, params in defaults:
        names = {cls for cls in bases if init_owner(cls) == owner} \
            if name == "__init__" else {name}
        for param, position in params.items():
            if not any(called in names and (
                    any(k.arg in (param, None) for k in call.keywords)
                    or position is not None and (
                        any(isinstance(a, ast.Starred) for a in call.args)
                        or len(call.args) > position - offset))
                       for called, call in calls):
                found.append(f"{qualname}:{param}")
    return found


def test_every_default_is_passed_somewhere():
    found = unpassed_defaults(sorted(PACKAGE.glob("*.py")))
    assert set(found) - EXTERNAL_DEFAULTS == set()


def test_detects_a_default_no_call_passes(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "class Shape:\n"
        "    def __init__(self, name, sides=0, colour=None):\n"
        "        self.name = name\n"
        "\n"
        "    @classmethod\n"
        "    def square(cls):\n"
        "        return cls('square', 4)\n"
        "\n"
        "    def moved(self, step=1, *, axis=0):\n"
        "        return self\n"
        "\n"
        "\n"
        "class Circle(Shape):\n"
        "    pass\n"
        "\n"
        "\n"
        "def area(width, height=1, *, unit='m'):\n"
        "    return Circle('c', colour='red').moved(2), width * height\n"
        "\n"
        "\n"
        "def scale(x, factor=2):\n"
        "    return area(x, 3)\n"
        "\n"
        "\n"
        "scale(1)\n")
    assert unpassed_defaults([path]) == ["probe.Shape.moved:axis", "probe.area:unit",
                                         "probe.scale:factor"]
