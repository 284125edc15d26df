"""Package-level rules: the public names resolve, and the oracles stay independent."""

import ast
from pathlib import Path

import bonft

ORACLES = Path(__file__).with_name("oracles.py")


def test_oracles_never_import_the_package():
    """An oracle that imported bonft could agree with it by construction."""
    imported = set()
    for node in ast.walk(ast.parse(ORACLES.read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported, "found no imports at all; is this the oracle module?"
    offending = sorted(m for m in imported
                       if m.startswith(".") or m.split(".")[0] == "bonft")
    assert not offending, offending


def test_every_exported_name_resolves():
    missing = [name for name in bonft.__all__ if not hasattr(bonft, name)]
    assert not missing, missing
    assert len(set(bonft.__all__)) == len(bonft.__all__)
