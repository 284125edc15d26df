"""Package-level rules: the public names resolve, and the cross-checks stay independent."""

import ast
from pathlib import Path

import bonft

ORACLES = Path(__file__).with_name("oracles.py")
PDE = Path(bonft.__file__).with_name("pde.py")


def imported_modules(path):
    """Every module name a file imports, relative ones with their leading dots."""
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add("." * node.level + node.module)
        elif isinstance(node, ast.ImportFrom):  # from . import name
            imported.update("." * node.level + alias.name for alias in node.names)
    assert imported, "found no imports at all in %s" % path
    return imported


def test_oracles_never_import_the_package():
    """An oracle that imported bonft could agree with it by construction."""
    offending = sorted(m for m in imported_modules(ORACLES)
                       if m.startswith(".") or m.split(".")[0] == "bonft")
    assert not offending, offending


def test_integrator_never_imports_the_coordinate_pipeline():
    """pde cross-validates lax, birkhoff and flow, so it may not call into them."""
    pipeline = {"lax", "birkhoff", "flow"}
    offending = sorted(m for m in imported_modules(PDE)
                       if pipeline & set(m.lstrip(".").split(".")))
    assert not offending, offending


def test_every_exported_name_resolves():
    missing = [name for name in bonft.__all__ if not hasattr(bonft, name)]
    assert not missing, missing
    assert len(set(bonft.__all__)) == len(bonft.__all__)
