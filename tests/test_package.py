"""Package-level rules: the public names resolve, the cross-checks stay
independent, and the package runs on its declared dependencies alone."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import bonft
from test_golden import CASES

ORACLES = Path(__file__).with_name("oracles.py")
PDE = Path(bonft.__file__).with_name("pde.py")
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def imported_modules(*paths):
    """Every module name the files import, relative ones with their leading dots."""
    imported = set()
    for node in (n for path in paths for n in ast.walk(ast.parse(path.read_text()))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add("." * node.level + node.module)
        elif isinstance(node, ast.ImportFrom):  # from . import name
            imported.update("." * node.level + alias.name for alias in node.names)
    assert imported, "found no imports at all in %s" % (paths,)
    return imported


def test_oracles_never_import_the_package():
    """An oracle that imported bonft could agree with it by construction."""
    offending = sorted(m for m in imported_modules(ORACLES)
                       if m.startswith(".") or m.split(".")[0] == "bonft")
    assert not offending, offending


def test_integrator_never_imports_the_coordinate_pipeline():
    """pde cross-validates lax, birkhoff and flow, so it may not call into
    them, nor read its data through hardy's types: of the package it
    imports errors alone."""
    offending = sorted(m for m in imported_modules(PDE)
                       if m.startswith(".") and m != ".errors" or m.split(".")[0] == "bonft")
    assert not offending, offending


def test_every_exported_name_resolves():
    missing = [name for name in bonft.__all__ if not hasattr(bonft, name)]
    assert not missing, missing
    assert len(set(bonft.__all__)) == len(bonft.__all__)


def test_every_exported_name_is_used_by_the_package():
    """Library code exists for the CLI: each public name is referenced in
    some module of src/bonft other than __init__, outside its own definition."""
    used = set()
    for path in Path(bonft.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            own = getattr(stmt, "name", None)
            names = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(stmt)}
            used |= names - {own}
    unused = sorted(set(bonft.__all__) - used)
    assert not unused, unused


def test_every_method_is_read_by_the_package():
    """Each non-dunder method or property of a src/bonft class, and each
    annotated field (a dataclass field), is read, by name, somewhere in
    src/bonft outside its own definition.  An override of a base-class method
    (_Parser.error) is called by the base class.  The rule matches attribute
    names only, not the class they belong to: a field shares its reads with
    every attribute of the same name, so IntegratorConfig.dt's reads would
    also cover a field dt of another class."""
    package = Path(bonft.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in package.glob("*.py")}
    reads = Counter(node.attr for tree in trees.values() for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute))
    unread = []
    for stem, tree in trees.items():
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            bases = getattr(importlib.import_module("bonft." + stem), cls.name).__mro__[1:]
            unread += ["%s.%s" % (cls.name, field.target.id) for field in cls.body
                       if isinstance(field, ast.AnnAssign) and not reads[field.target.id]]
            for fn in cls.body:
                if (not isinstance(fn, ast.FunctionDef) or fn.name.startswith("__")
                        or any(hasattr(base, fn.name) for base in bases)):
                    continue
                own = sum(isinstance(n, ast.Attribute) and n.attr == fn.name
                          for n in ast.walk(fn))
                if reads[fn.name] == own:
                    unread.append("%s.%s" % (cls.name, fn.name))
    assert not unread, unread


def test_package_imports_only_its_declared_dependencies():
    """Every third-party module imported anywhere in the package is in
    [project].dependencies, and every dependency listed there is used."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(PYPROJECT, "rb") as fh:
        declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group()
                    for dep in tomllib.load(fh)["project"]["dependencies"]}
    sources = Path(bonft.__file__).parent.glob("*.py")
    imported = {m.split(".")[0] for m in imported_modules(*sources) if not m.startswith(".")}
    third_party = imported - set(sys.stdlib_module_names) - {"bonft"}
    assert third_party == declared == {"numpy"}


def test_cli_runs_without_loading_scipy():
    """scipy is a test dependency only: a complex transform (the non-Hermitian
    eigensolve) and a compare (inversion plus the direct integrator) in a
    fresh interpreter leave no scipy module behind."""
    argvs = [argv for argv, name in CASES
             if name in ("transform_complex.json", "compare.json")]
    script = (
        "import json, os, sys\n"
        "import bonft.cli\n"
        "codes = [bonft.cli.main(argv + ['-o', os.devnull])\n"
        "         for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules\n"
        "                                if m.startswith('scipy'))]))\n")
    src = str(Path(bonft.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                         capture_output=True, text=True, check=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=src))
    assert json.loads(out.stdout) == [[0, 0], []]
