"""Join access paths are decided in one module.

Key extraction and the probe guards (``equality_key_pairs``,
``range_key_pairs``, ``probe_key``, ``range_probe_value``,
``EMPTY_RANGE``) belong to the storage layer and to
:mod:`repro.engines.access`; the tree, NFA and shared-DAG runtimes reach
their candidates only through :class:`~repro.engines.access.AccessPath`.
A runtime importing one of these names is growing its own copy of the
access path back.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

ACCESS_NAMES = frozenset(
    (
        "equality_key_pairs",
        "range_key_pairs",
        "probe_key",
        "range_probe_value",
        "EMPTY_RANGE",
    )
)

OWNERS = frozenset(
    ("engines/stores.py", "engines/buffers.py", "engines/access.py")
)


def access_names_used(path: Path) -> set:
    """Guarded names a module imports or reads as a module attribute."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used & ACCESS_NAMES


def test_only_the_access_layer_touches_key_extraction_and_probe_guards():
    offenders = {
        str(path.relative_to(SRC)): sorted(access_names_used(path))
        for path in sorted(SRC.rglob("*.py"))
        if path.relative_to(SRC).as_posix() not in OWNERS
        and access_names_used(path)
    }
    assert offenders == {}
